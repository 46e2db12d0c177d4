"""NSGA-II comparison algorithm: dominance sorting, crowding, one full generation."""
from __future__ import annotations

import numpy as np

from .core import evaluate
from .variation import mutate_matrix, sbx_crossover

# Distribution index of SBX crossover.
ETA_C = 20.0


def fast_nondominated_sort(objectives: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Deb's fast non-dominated sort; returns per-point rank and the front lists.

    The fronts come in the order Deb's loop builds them, which the NSGA-II
    survivor order depends on: the first front by row index; each later front
    by the position, in the front before it, of a member's last dominator
    there, then by row index.
    """
    f = np.asarray(objectives, dtype=float)
    n = f.shape[0]
    le = np.ones((n, n), dtype=bool)  # le[p, q]: p is no worse than q everywhere
    for col in np.ascontiguousarray(f.T):
        le &= col[:, None] <= col
    dom = le & ~le.T  # dom[p, q]: p dominates q (exact: ~le[q, p] is "p < q somewhere")
    count = np.count_nonzero(dom, axis=0)
    rank = np.zeros(n, dtype=int)
    fronts = []
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(front.tolist())
        sub = dom[front]
        count -= np.count_nonzero(sub, axis=0)
        nxt = np.flatnonzero((count == 0) & sub.any(axis=0))
        # Position in front of each member's last dominator there.
        last = len(front) - 1 - np.argmax(sub[::-1, nxt], axis=0)
        front = nxt[np.lexsort((nxt, last))]
        rank[front] = len(fronts)
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


def _tournament(rank: np.ndarray, crowding: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Binary tournament winners, elementwise: lower rank, then higher crowding, then i."""
    i_wins = (rank[i] < rank[j]) | ((rank[i] == rank[j]) & (crowding[i] >= crowding[j]))
    return np.where(i_wins, i, j)


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
    xs: np.ndarray, fs: np.ndarray, problem, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One generation: tournament mating, SBX + mutation, elitist truncation to N.

    Draw order: the tournament picks of all pairs of children
    (``rng.integers(0, N, size=(pairs, 4))``), then their SBX draws u_cross
    and u_beta (``rng.random((pairs, 2, n))``), then the mutation draws for
    all children. The tournaments and SBX run on all pairs at once. Returns
    the survivors' decision and objective matrices.
    """
    n_pop, n_var = xs.shape
    rank, fronts = fast_nondominated_sort(fs)
    crowding = np.zeros(n_pop)
    for front in fronts:
        crowding[front] = crowding_distance(fs, front)
    pairs = (n_pop + 1) // 2
    picks = rng.integers(0, n_pop, size=(pairs, 4))
    u = rng.random((pairs, 2, n_var))
    p1 = _tournament(rank, crowding, picks[:, 0], picks[:, 1])
    p2 = _tournament(rank, crowding, picks[:, 2], picks[:, 3])
    c1, c2 = sbx_crossover(xs[p1], xs[p2], u[:, 0], u[:, 1], problem.lower, problem.upper, ETA_C)
    children = np.empty((2 * pairs, n_var))
    children[0::2] = c1
    children[1::2] = c2
    child_x = mutate_matrix(children[:n_pop], problem.lower, problem.upper, rng)
    union_x = np.vstack([xs, child_x])
    union_f = np.vstack([fs, evaluate(child_x, problem)])
    survivors = environmental_select(union_f, n_pop)
    return union_x[survivors], union_f[survivors]
