"""NSGA-II comparison algorithm: dominance sorting, crowding, one full generation."""
from __future__ import annotations

import numpy as np

from .core import RandomSource, evaluate
from .variation import MutationConfig, mutate_matrix, sbx_crossover


def dominates(a, b) -> bool:
    """True iff a is no worse everywhere and strictly better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective lengths differ: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def fast_nondominated_sort(objectives: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Deb's fast non-dominated sort; returns per-point rank and the front lists."""
    f = np.asarray(objectives, dtype=float)
    n = f.shape[0]
    dominated_by = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    # Vectorized pairwise dominance: p dominates q.
    le = np.all(f[:, None, :] <= f[None, :, :], axis=2)
    lt = np.any(f[:, None, :] < f[None, :, :], axis=2)
    dom = le & lt
    for p in range(n):
        dominated_by[p] = list(np.flatnonzero(dom[p]))
        domination_count[p] = int(np.sum(dom[:, p]))
    rank = np.zeros(n, dtype=int)
    fronts = [list(np.flatnonzero(domination_count == 0))]
    i = 0
    while fronts[i]:
        nxt = []
        for p in fronts[i]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    rank[q] = i + 1
                    nxt.append(q)
        i += 1
        fronts.append(nxt)
    fronts.pop()
    return rank, fronts


def crowding_distance(objectives: np.ndarray, front: list[int]) -> np.ndarray:
    """Crowding distances for one front; boundary points get +inf."""
    f = np.asarray(objectives, dtype=float)[front]
    size = len(front)
    dist = np.zeros(size)
    if size <= 2:
        dist[:] = np.inf
        return dist
    for col in range(f.shape[1]):
        order = np.argsort(f[:, col], kind="stable")
        spread = f[order[-1], col] - f[order[0], col]
        dist[order[0]] = dist[order[-1]] = np.inf
        if spread == 0.0:
            continue
        gaps = (f[order[2:], col] - f[order[:-2], col]) / spread
        dist[order[1:-1]] += gaps
    return dist


def _tournament(rank: np.ndarray, crowding: np.ndarray, i: int, j: int) -> int:
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def environmental_select(objs: np.ndarray, n_pop: int) -> np.ndarray:
    """Elitist truncation: fill whole fronts in rank order, split the boundary
    front by descending crowding distance. Returns the survivors' row indices."""
    rank, fronts = fast_nondominated_sort(objs)
    survivors: list[int] = []
    for front in fronts:
        if len(survivors) + len(front) <= n_pop:
            survivors.extend(front)
            continue
        crowd = crowding_distance(objs, front)
        order = np.argsort(-crowd, kind="stable")
        remaining = n_pop - len(survivors)
        survivors.extend(front[k] for k in order[:remaining])
        break
    return np.array(survivors, dtype=int)


def nsga2_generation(
    xs: np.ndarray,
    fs: np.ndarray,
    problem,
    mutation: MutationConfig,
    eta_c: float,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray]:
    """One generation: tournament mating, SBX + mutation, elitist truncation to N.

    Returns the survivors' decision and objective matrices.
    """
    n_pop = len(xs)
    rank, fronts = fast_nondominated_sort(fs)
    crowding = np.zeros(n_pop)
    for front in fronts:
        crowding[front] = crowding_distance(fs, front)
    children = []
    while len(children) < n_pop:
        picks = rng.integers(0, n_pop, size=4)
        p1 = _tournament(rank, crowding, int(picks[0]), int(picks[1]))
        p2 = _tournament(rank, crowding, int(picks[2]), int(picks[3]))
        c1, c2 = sbx_crossover(xs[p1], xs[p2], problem.lower, problem.upper, eta_c, rng)
        children.extend([c1, c2])
    child_x = mutate_matrix(np.array(children[:n_pop]), problem.lower, problem.upper, mutation, rng)
    union_x = np.vstack([xs, child_x])
    union_f = np.vstack([fs, evaluate(child_x, problem)])
    survivors = environmental_select(union_f, n_pop)
    return union_x[survivors], union_f[survivors]
