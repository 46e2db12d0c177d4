"""Many-objective evolutionary optimization with reference-vector guided
selection and adversarially generated offspring, plus the DTLZ/LSMOP
benchmark problems, an NSGA-II baseline, and IGD evaluation tooling."""

from .core import (
    ConfigurationError,
    EvaluationError,
    TrainingError,
    evaluate,
    init_population,
)
from .harness import RunConfig, RunRecord, run_experiment, run_single
from .metrics import IgdResult, igd
from .problems import PROBLEM_NAMES, ProblemDef, dtlz, lsmop, make_problem, sample_front
from .refvec import adapt, lattice_for, simplex_lattice, to_unit_vectors, two_layer_lattice
from .selection import elitism_select, partition, translate
from .variation import sbx_crossover
from .wgan import GanConfig

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "EvaluationError",
    "GanConfig",
    "IgdResult",
    "PROBLEM_NAMES",
    "ProblemDef",
    "RunConfig",
    "RunRecord",
    "TrainingError",
    "adapt",
    "dtlz",
    "elitism_select",
    "evaluate",
    "igd",
    "init_population",
    "lattice_for",
    "lsmop",
    "make_problem",
    "partition",
    "run_experiment",
    "run_single",
    "sample_front",
    "sbx_crossover",
    "simplex_lattice",
    "to_unit_vectors",
    "translate",
    "two_layer_lattice",
]
