"""Run orchestration: one run frame (set-up, initial population, evaluation
count, IGD trace, record) around the generation steps of rvea-wg and NSGA-II,
and experiments that repeat every config over the same paired seeds.
`RunConfig` describes one run; the run count and base seed belong to the
experiment (`run_experiment`)."""
from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import dominance, environmental_select, nsga2_generation
from .core import ConfigurationError, child, evaluate, init_population
from .metrics import igd
from .problems import ProblemDef, make_problem, sample_front
from .refvec import adapt, lattice_for, to_unit_vectors
from .selection import elitism_select
from .variation import mutate_matrix
from .wgan import EpochStats, GanConfig, init_networks, normalize_to_net
from .wgan import pretrain_discriminator, sample_offspring, train

ALGORITHMS = ("rvea-wg", "nsga2")


@dataclass
class RunConfig:
    algorithm: str = "rvea-wg"
    problem: str = "dtlz2"
    objectives: int = 3
    pop_size: int | None = None      # None: lattice default for the objective count
    generations: int = 15
    gan: GanConfig = field(default_factory=GanConfig)

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm '{self.algorithm}'")
        if self.generations < 1:
            raise ConfigurationError("need at least one generation")
        self.gan.validate()


@dataclass
class RunRecord:
    config: dict
    seed: int
    igd_trace: list[float]
    final_x: np.ndarray
    final_f: np.ndarray
    evaluations: int
    duration: float
    gan_trace: list[EpochStats] = field(default_factory=list)
    networks: dict | None = None  # final generator/critic, rvea-wg runs only

    @property
    def final_igd(self) -> float:
        return self.igd_trace[-1]


# Unit vectors and reference front of each (problem, M, requested size)
# resolved so far; forked pool workers inherit them.
_SETUPS: dict[tuple[str, int, int | None], tuple[np.ndarray, np.ndarray]] = {}


def resolve_setup(cfg: RunConfig) -> tuple[ProblemDef, np.ndarray, np.ndarray]:
    """Problem instance, the (N, M) unit reference vectors of the weight
    lattice (N is the population size actually used) and the IGD reference
    front, all arrays read-only.

    The vectors and the front are built once per (problem, M, pop_size) in a
    process and reused; the problem name is compared as `make_problem` reads
    it, without case. The problem itself is made on every call.
    """
    cfg.validate()
    problem = make_problem(cfg.problem, cfg.objectives)
    key = (problem.name, problem.m, cfg.pop_size)
    if key not in _SETUPS:
        vectors = to_unit_vectors(lattice_for(cfg.objectives, cfg.pop_size))
        front = sample_front(problem, 500 if problem.m <= 5 else 1000)  # reference-front size
        _SETUPS[key] = vectors, front
    for array in (problem.lower, problem.upper, *_SETUPS[key]):
        array.flags.writeable = False
    return (problem, *_SETUPS[key])


def run_single(cfg: RunConfig, seed: int) -> RunRecord:
    """One optimization run under the protocol both algorithms share: the
    seed's initial population, N evaluations per generation and IGD against
    the reference front after each generation."""
    problem, vectors, front = resolve_setup(cfg)
    n_pop = vectors.shape[0]
    started = time.perf_counter()

    rng = np.random.default_rng(seed)
    xs = init_population(problem, n_pop, child(rng, "init"))
    fs = evaluate(xs, problem)
    record = RunRecord(
        config={**asdict(cfg), "resolved_pop_size": n_pop},
        seed=seed,
        igd_trace=[],
        final_x=xs,
        final_f=fs,
        evaluations=n_pop,
        duration=0.0,
    )
    generations = _rvea_wg_generations if cfg.algorithm == "rvea-wg" else _nsga2_generations
    for xs, fs in generations(cfg, problem, vectors, xs, fs, rng, record):
        record.evaluations += n_pop  # one offspring per vector or parent
        record.igd_trace.append(igd(front, fs).value)
    record.final_x, record.final_f = xs, fs
    record.duration = time.perf_counter() - started
    return record


def _rvea_wg_generations(cfg, problem, initial, xs, fs, rng, record):
    """Survivors of each generation of the adversarial-offspring algorithm.

    Per generation: draw a fresh generator/critic pair, train it on the
    current survivors (critic pre-trained against the previously eliminated
    individuals), sample N offspring, mutate them, merge with the parents
    and apply reference-vector selection. Then the `initial` unit vectors
    are adapted to the column ranges of the union that selection saw, after
    every generation. RVEA (Cheng et al. 2016, Algorithm 3) adapts to the
    ranges of the survivors P_{t+1} instead, and only every f_r * t_max
    generations (f_r = 0.1); this reproduction keeps its rule, see the
    README. The epoch statistics and the last pair go on `record`.
    """
    vectors = initial
    gan_rng = child(rng, "gan")
    init_rng = child(gan_rng, "init")
    mut_rng = child(rng, "mutation")
    eliminated_x = np.zeros((0, problem.n))

    for t in range(cfg.generations):
        gen, critic = init_networks(problem.n, init_rng)
        real = normalize_to_net(xs, problem.lower, problem.upper)
        bad = normalize_to_net(eliminated_x, problem.lower, problem.upper)
        pretrain_discriminator(critic, real, bad, gan_rng)
        record.gan_trace.extend(train(gen, critic, real, cfg.gan.epochs, gan_rng))
        offspring = sample_offspring(gen, len(initial), problem.lower, problem.upper, gan_rng)
        offspring = mutate_matrix(offspring, problem.lower, problem.upper, mut_rng)
        union_x = np.vstack([xs, offspring])
        union_f = np.vstack([fs, evaluate(offspring, problem)])

        kept = elitism_select(union_f, vectors, t, cfg.generations).selected_indices
        vectors = adapt(initial, union_f.max(axis=0), union_f.min(axis=0))
        eliminated_x = np.delete(union_x, kept, axis=0)
        xs, fs = union_x[kept], union_f[kept]
        yield xs, fs
    record.networks = {"generator": gen, "critic": critic}


def _nsga2_generations(cfg, problem, vectors, xs, fs, rng, record):
    """Survivors of each NSGA-II generation (one child per parent), carrying each selection's rank and crowding."""
    _, rank, crowding = environmental_select(fs, dominance(fs), len(fs))  # every row kept, in its order
    loop_rng = child(rng, "nsga2")
    for _ in range(cfg.generations):
        xs, fs, rank, crowding = nsga2_generation(xs, fs, rank, crowding, problem, loop_rng)
        yield xs, fs


@dataclass
class ExperimentRow:
    problem: str
    objectives: int
    algorithm: str
    mean_igd: float
    std_igd: float
    per_run: list[float]
    best: bool = False
    base_record: RunRecord | None = None  # the run at the base seed; None if it failed


def _run_job(args: tuple[RunConfig, int, bool]) -> tuple[float, RunRecord | None]:
    """Final IGD of one run, plus its record when `keep` is set (the base
    seed's run only, so that the pool pickles back little else)."""
    cfg, seed, keep = args
    try:
        record = run_single(cfg, seed)
    except Exception as exc:  # noqa: BLE001 - failed runs become NaN cells
        print(f"run failed ({cfg.algorithm}, {cfg.problem}, seed {seed}): {exc}", file=sys.stderr)
        return float("nan"), None
    return record.final_igd, record if keep else None


def run_experiment(configs: list[RunConfig], runs: int = 10, seed: int = 0, jobs: int = 1) -> list[ExperimentRow]:
    """Execute `runs` runs of every config with paired seeds: run i of every
    config uses seed + i.

    Configs are validated up front; a run that fails afterwards contributes
    NaN to its row and the remaining rows are still produced. Each row keeps
    the full record of its base-seed run. Within each (problem, M) group the
    minimum mean is flagged, mirroring the bold-minimum convention of
    benchmark tables.
    """
    if runs < 1:
        raise ConfigurationError("need at least one run")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if jobs < 1:
        raise ConfigurationError(f"need at least one worker process, got jobs={jobs}")
    jobs_list: list[tuple[RunConfig, int, bool]] = []
    for cfg in configs:
        resolve_setup(cfg)
        for run_index in range(runs):
            jobs_list.append((cfg, seed + run_index, run_index == 0))

    # A fork pool starts all its workers up front: no more than there are runs.
    workers = min(jobs, len(jobs_list))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs_list))
    else:
        results = [_run_job(job) for job in jobs_list]

    rows: list[ExperimentRow] = []
    for index, cfg in enumerate(configs):
        per_run = [value for value, _ in results[index * runs : (index + 1) * runs]]
        base_record = results[index * runs][1]
        finite = [v for v in per_run if np.isfinite(v)]
        rows.append(
            ExperimentRow(
                problem=cfg.problem,
                objectives=cfg.objectives,
                algorithm=cfg.algorithm,
                mean_igd=float(np.mean(finite)) if finite else float("nan"),
                std_igd=float(np.std(finite)) if finite else float("nan"),
                per_run=per_run,
                base_record=base_record,
            )
        )

    groups: dict[tuple[str, int], list[ExperimentRow]] = {}
    for row in rows:
        groups.setdefault((row.problem, row.objectives), []).append(row)
    for group in groups.values():
        finite_rows = [r for r in group if np.isfinite(r.mean_igd)]
        if finite_rows:
            min(finite_rows, key=lambda r: r.mean_igd).best = True
    return rows
