"""Scalable benchmark problems and true-front samplers.

DTLZ1-4 follow the standard scalable formulation (Deb, Thiele, Laumanns,
Zitzler, "Scalable test problems for evolutionary multiobjective
optimization") with k = 5 distance variables for DTLZ1 and k = 10 for
DTLZ2-4, all variables in [0, 1].

LSMOP1-3 are transcribed from the large-scale suite definition (Cheng, Jin,
Olhofer, "Test problems for large-scale multiobjective and many-objective
optimization", IEEE Trans. Cybernetics, 2017) with its reference defaults:
n = 100 * M variables, M - 1 position variables in [0, 1], distance
variables in [0, 10], linear variable linkage
x_j <- (1 + j/n) * x_j - 10 * x_1, logistic-map group sizing
(c_1 = 3.8 * 0.1 * 0.9, c_{i+1} = 3.8 * c_i * (1 - c_i), group share
c_i / sum c), n_k = 5 subcomponents per group, and per-objective landscape
pairs Sphere/Sphere (LSMOP1), Griewank/Schwefel-2.21 (LSMOP2),
Rastrigin/Rosenbrock (LSMOP3). All three share the linear front sum(f) = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import ConfigurationError
from .refvec import lattice_for

LSMOP_SUBCOMPONENTS = 5


@dataclass(frozen=True)
class ProblemDef:
    name: str
    m: int
    n: int
    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    front_sampler: Callable[[int], np.ndarray] = field(repr=False)


def linear_front_sampler(m: int, scale: float) -> Callable[[int], np.ndarray]:
    def sampler(count: int) -> np.ndarray:
        return lattice_for(m, count) * scale

    return sampler


def spherical_front_sampler(m: int) -> Callable[[int], np.ndarray]:
    def sampler(count: int) -> np.ndarray:
        w = lattice_for(m, count)
        return w / np.linalg.norm(w, axis=1)[:, None]

    return sampler


def sample_front(problem: ProblemDef, count: int) -> np.ndarray:
    """At least `count` points on the problem's true Pareto front."""
    return problem.front_sampler(count)


# ---------------------------------------------------------------------------
# DTLZ


def _dtlz1_g(xm: np.ndarray) -> np.ndarray:
    k = xm.shape[1]
    c = xm - 0.5
    return 100.0 * (k + np.sum(c * c - np.cos(20.0 * np.pi * c), axis=1))


def _dtlz2_g(xm: np.ndarray) -> np.ndarray:
    c = xm - 0.5
    return np.sum(c * c, axis=1)


def _linear_shape(pos: np.ndarray) -> np.ndarray:
    """Rows of products x1..x_{M-i} * (1 - x_{M-i+1}); columns sum to 1."""
    n_rows, m_minus_1 = pos.shape
    ones = np.ones((n_rows, 1))
    prods = np.fliplr(np.cumprod(np.hstack([ones, pos]), axis=1))
    inv = np.hstack([ones, 1.0 - pos[:, ::-1]])
    return prods * inv


def _spherical_shape(pos: np.ndarray) -> np.ndarray:
    n_rows = pos.shape[0]
    ones = np.ones((n_rows, 1))
    angles = pos * (np.pi / 2.0)
    prods = np.fliplr(np.cumprod(np.hstack([ones, np.cos(angles)]), axis=1))
    sines = np.hstack([ones, np.sin(angles[:, ::-1])])
    return prods * sines


def dtlz(k: int, m: int) -> ProblemDef:
    if k not in (1, 2, 3, 4):
        raise ConfigurationError(f"dtlz index must be 1..4, got {k}")
    if m < 2:
        raise ConfigurationError(f"need at least 2 objectives, got {m}")
    n_dist = 5 if k == 1 else 10
    n = m - 1 + n_dist
    g_fn = _dtlz1_g if k in (1, 3) else _dtlz2_g

    def evaluate(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        pos, xm = xs[:, : m - 1], xs[:, m - 1 :]
        g = g_fn(xm)
        if k == 1:
            return 0.5 * (1.0 + g)[:, None] * _linear_shape(pos)
        if k == 4:
            pos = pos**100
        return (1.0 + g)[:, None] * _spherical_shape(pos)

    sampler = linear_front_sampler(m, 0.5) if k == 1 else spherical_front_sampler(m)
    return ProblemDef(
        name=f"dtlz{k}",
        m=m,
        n=n,
        lower=np.zeros(n),
        upper=np.ones(n),
        evaluate=evaluate,
        front_sampler=sampler,
    )


# ---------------------------------------------------------------------------
# LSMOP


def _sphere(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=1)


def _schwefel221(x: np.ndarray) -> np.ndarray:
    return np.max(np.abs(x), axis=1)


def _rastrigin(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=1)


def _rosenbrock(x: np.ndarray) -> np.ndarray:
    if x.shape[1] < 2:
        return np.zeros(x.shape[0])
    head, tail = x[:, :-1], x[:, 1:]
    return np.sum(100.0 * (head * head - tail) ** 2 + (head - 1.0) ** 2, axis=1)


def _griewank(x: np.ndarray) -> np.ndarray:
    idx = np.sqrt(np.arange(1, x.shape[1] + 1, dtype=float))
    return np.sum(x * x, axis=1) / 4000.0 - np.prod(np.cos(x / idx), axis=1) + 1.0


_LSMOP_LANDSCAPES = {
    1: (_sphere, _sphere),
    2: (_griewank, _schwefel221),
    3: (_rastrigin, _rosenbrock),
}


def _lsmop_group_sizes(m: int, n_dist: int) -> np.ndarray:
    c = [3.8 * 0.1 * (1.0 - 0.1)]
    for _ in range(m - 1):
        c.append(3.8 * c[-1] * (1.0 - c[-1]))
    c = np.array(c)
    return np.floor(c / c.sum() * n_dist / LSMOP_SUBCOMPONENTS).astype(int)


def lsmop(k: int, m: int) -> ProblemDef:
    if k not in (1, 2, 3):
        raise ConfigurationError(f"lsmop index must be 1..3, got {k}")
    if m < 3:
        raise ConfigurationError(f"the large-scale suite needs at least 3 objectives, got {m}")
    n = 100 * m
    n_dist = n - m + 1
    sublen = _lsmop_group_sizes(m, n_dist)
    starts = np.concatenate([[0], np.cumsum(sublen * LSMOP_SUBCOMPONENTS)])
    odd_fn, even_fn = _LSMOP_LANDSCAPES[k]
    lower = np.concatenate([np.zeros(m - 1), np.zeros(n_dist)])
    upper = np.concatenate([np.ones(m - 1), 10.0 * np.ones(n_dist)])

    def evaluate(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        pos = xs[:, : m - 1]
        # Linear variable linkage; variable numbers run m..n over the
        # distance part.
        factors = 1.0 + np.arange(m, n + 1, dtype=float) / n
        dist = factors * xs[:, m - 1 :] - 10.0 * xs[:, 0:1]
        g = np.zeros((xs.shape[0], m))
        for i in range(m):
            fn = odd_fn if i % 2 == 0 else even_fn
            base = starts[i]
            for j in range(LSMOP_SUBCOMPONENTS):
                lo = base + j * sublen[i]
                g[:, i] += fn(dist[:, lo : lo + sublen[i]])
            g[:, i] /= sublen[i] * LSMOP_SUBCOMPONENTS
        return (1.0 + g) * _linear_shape(pos)

    return ProblemDef(
        name=f"lsmop{k}",
        m=m,
        n=n,
        lower=lower,
        upper=upper,
        evaluate=evaluate,
        front_sampler=linear_front_sampler(m, 1.0),
    )


# ---------------------------------------------------------------------------
# Registry

PROBLEM_NAMES = ("dtlz1", "dtlz2", "dtlz3", "dtlz4", "lsmop1", "lsmop2", "lsmop3")


def make_problem(name: str, m: int) -> ProblemDef:
    key = name.strip().lower()
    if key.startswith("dtlz") and key in PROBLEM_NAMES:
        return dtlz(int(key[4:]), m)
    if key.startswith("lsmop") and key in PROBLEM_NAMES:
        return lsmop(int(key[5:]), m)
    raise ConfigurationError(f"unknown problem '{name}'; choose from {', '.join(PROBLEM_NAMES)}")
