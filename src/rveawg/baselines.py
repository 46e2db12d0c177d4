"""NSGA-II comparison algorithm: dominance matrix, front peeling, crowding, one
full generation.

As in Deb et al. (IEEE TEVC 6(2), 2002), each survivor's rank and crowding
distance are assigned "while forming the population P_{t+1}" and carried into
the next generation's tournaments. So each generation builds one dominance
matrix and runs one non-dominated sort, both on the union of parents and children.
"""
from __future__ import annotations

import numpy as np

from .core import evaluate
from .variation import mutate_matrix, sbx_crossover

# Distribution index of SBX crossover.
ETA_C = 20.0

# _BIT[b] is bit b of a 64-bit word.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def dominance(objs: np.ndarray) -> np.ndarray:
    """The (n, n) dominance matrix of n finite objective rows: [p, q] is True
    iff row p is no worse than row q in every objective and better in one.

    Built from packed bitsets, one bit per row. For each objective, one argsort
    gives a table whose entry c is the set of the c rows that sort first. The
    rows below f_p are the first ``searchsorted(left)`` of them and the rows up
    to f_p the first ``searchsorted(right)``; the table is read only at these
    tie-group boundaries, so the order of ties within a group does not matter.
    p dominates q iff q is below p in no objective and not up to p in all of
    them, so the result is the complement of (OR of the below sets) | (AND of
    the up-to sets), unpacked once.
    """
    f = np.asarray(objs, dtype=float)
    n, m = f.shape
    cols = np.ascontiguousarray(f.T)
    order = np.argsort(cols, axis=1)
    k = np.arange(m)[:, None]
    table = np.zeros((m, n + 1, (n + 63) // 64), dtype="<u8")
    table[k, np.arange(1, n + 1), order >> 6] = _BIT[order & 63]
    np.bitwise_or.accumulate(table, axis=1, out=table)
    below = np.empty((m, n), dtype=np.intp)
    upto = np.empty((m, n), dtype=np.intp)
    for j, (col, rows) in enumerate(zip(cols, order)):
        ranked = col[rows]
        below[j, rows] = np.searchsorted(ranked, ranked, "left")
        upto[j, rows] = np.searchsorted(ranked, ranked, "right")
    spared = np.bitwise_or.reduce(table[k, below], axis=0) | np.bitwise_and.reduce(table[k, upto], axis=0)
    return ~np.unpackbits(spared.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def fast_nondominated_sort(dom: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Deb's fast non-dominated sort on a `dominance` matrix; returns per-point
    rank and the front lists.

    The fronts come in the order Deb's loop builds them, which the NSGA-II
    survivor order depends on: the first front by row index; each later front
    by the position, in the front before it, of a member's last dominator
    there, then by row index.
    """
    n = dom.shape[0]
    count = np.add.reduce(dom.view(np.uint8), axis=0, dtype=np.int32)
    rank = np.zeros(n, dtype=int)
    fronts = []
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(front.tolist())
        sub = dom[front]
        count -= np.add.reduce(sub.view(np.uint8), axis=0, dtype=np.int32)
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


def environmental_select(objs: np.ndarray, dom: np.ndarray, n_pop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deb's loop forming P_{t+1} on the rows' `dominance` matrix: fill whole
    fronts in rank order, split the boundary front by descending crowding
    distance. Returns the survivors' row indices and every row's rank and
    crowding, the latter taken over each front the loop reaches (the boundary
    front whole) and 0 on the fronts after it. A survivor's dominators all lie
    in whole fronts, so its rank is also its rank among the survivors alone."""
    rank, fronts = fast_nondominated_sort(dom)
    crowding = np.zeros(len(rank))
    survivors: list[int] = []
    for front in fronts:
        crowding[front] = crowding_distance(objs, front)
        if len(survivors) + len(front) <= n_pop:
            survivors.extend(front)
            continue
        order = np.argsort(-crowding[front], kind="stable")
        remaining = n_pop - len(survivors)
        survivors.extend(front[k] for k in order[:remaining])
        break
    return np.array(survivors, dtype=int), rank, crowding


def nsga2_generation(
    xs: np.ndarray, fs: np.ndarray, rank: np.ndarray, crowding: np.ndarray, problem, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One generation: tournament mating, SBX + mutation, elitist truncation to N.

    `rank` and `crowding` are the parents' values from the selection that
    chose them. Draw order: the tournament picks of all pairs of children
    (``rng.integers(0, N, size=(pairs, 4))``), then their SBX draws u_cross
    and u_beta (``rng.random((pairs, 2, n))``), then the mutation draws for
    all children. The tournaments and SBX run on all pairs at once. Returns
    the survivors' decision and objective matrices, ranks and crowding
    distances, in survivor order.
    """
    n_pop, n_var = xs.shape
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
    survivors, rank, crowding = environmental_select(union_f, dominance(union_f), n_pop)
    return union_x[survivors], union_f[survivors], rank[survivors], crowding[survivors]
