"""NSGA-II comparison algorithm: dominance matrix, front peeling, crowding, one
full generation.

As in Deb et al. (IEEE TEVC 6(2), 2002), each survivor's rank and crowding
distance are assigned "while forming the population P_{t+1}" and carried into
the next generation's tournaments. So each generation builds one dominance
matrix and runs one non-dominated sort, both on the union of parents and
children. Like Deb's loop, the sort stops at the boundary front, the first
that brings the fronts reached to N rows; the rows past it get the rank after
the boundary front's, a lower bound, and no survivor's rank changes.
"""
from __future__ import annotations

import numpy as np

from .core import evaluate
from .variation import mutate_matrix, sbx_crossover

# _BIT[b] is bit b of a 64-bit word.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def dominance(objs: np.ndarray) -> np.ndarray:
    """The (n, n) dominance matrix of n finite objective rows: [p, q] is True
    iff row p is no worse than row q in every objective and better in one.

    Built from packed bitsets, one bit per row. For each objective, one argsort
    gives a table whose entry c is the set of the c rows that sort first; the
    m tables are stacked as the m (n + 1) rows of one flat table. The rows
    below f_p are the rows before f_p's tie group in the sorted column and the
    rows up to f_p those up to its end. The tie groups of all columns are
    numbered in one pass over the flat table's rows, each column's entry n
    closing its last group, so a group's start and end are the flat rows where
    it and the next group open. The table is read only at these tie-group
    boundaries, so the order of ties within a group does not matter.
    p dominates q iff q is below p in no objective and not up to p in all of
    them, so the result is the complement of (OR of the below sets) | (AND of
    the up-to sets), each set gathered with one `take`, unpacked once.
    """
    f = np.asarray(objs, dtype=float)
    n, m = f.shape
    cols = np.ascontiguousarray(f.T)
    order = np.argsort(cols, axis=1)
    k = np.arange(m)[:, None]
    words = (n + 63) // 64
    table = np.zeros((m * (n + 1), words), dtype="<u8")
    table[k * (n + 1) + np.arange(1, n + 1), order >> 6] = _BIT[order & 63]
    by_column = table.reshape(m, n + 1, words)
    np.bitwise_or.accumulate(by_column, axis=1, out=by_column)
    ranked = cols[k, order]
    # starts[:, c]: sorted position c opens a tie group (c = n: past the end).
    starts = np.ones((m, n + 1), dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:n])
    # Tie group g of all columns opens at flat table row opens[g]; row p's
    # group in column j is group[j, p] - 1, and group[j, p] is the next one.
    opens = np.flatnonzero(starts)
    group = np.empty((m, n), dtype=np.intp)
    group[k, order] = np.cumsum(starts, dtype=np.intp).reshape(m, n + 1)[:, :n]
    spared = np.bitwise_and.reduce(table.take(opens.take(group), axis=0), axis=0)
    group -= 1
    spared |= np.bitwise_or.reduce(table.take(opens.take(group), axis=0), axis=0)
    return ~np.unpackbits(spared.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def fast_nondominated_sort(dom: np.ndarray, target: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Deb's fast non-dominated sort on a `dominance` matrix; returns per-point
    rank and the fronts as row-index arrays.

    The fronts come in the order Deb's loop builds them, which the NSGA-II
    survivor order depends on: the first front by row index; each later front
    by the position, in the front before it, of a member's last dominator
    there, then by row index. The first front is the rows that no row
    dominates; the dominator counts are built only if peeling goes past it.
    With a `target`, peeling stops at the first front that brings the rows
    reached to `target`; the rows past it get rank len(fronts), a lower bound
    on their true rank. Without one, every front is peeled.
    """
    n = dom.shape[0]
    fronts = []
    reached = 0
    count = None
    front = np.flatnonzero(~np.logical_or.reduce(dom, axis=0))
    while front.size:
        fronts.append(front)
        reached += front.size
        if target is not None and reached >= target:
            break
        if count is None:
            count = np.add.reduce(dom.view(np.uint8), axis=0, dtype=np.int32)
        sub = dom[front]
        count -= np.add.reduce(sub.view(np.uint8), axis=0, dtype=np.int32)
        nxt = np.flatnonzero((count == 0) & sub.any(axis=0))
        # Position in front of each member's last dominator there.
        last = len(front) - 1 - np.argmax(sub[::-1, nxt], axis=0)
        front = nxt[np.lexsort((nxt, last))]
    rank = np.full(n, len(fronts))
    for i, front in enumerate(fronts):
        rank[front] = i
    return rank, fronts


def crowding_distance(objectives: np.ndarray, front: np.ndarray) -> np.ndarray:
    """Crowding distances for one front of finite rows; boundary points get +inf.

    All columns are sorted and their normalized gaps taken at once; a column
    with no spread adds nothing. Each member's gaps are then summed in column
    order, so the distances have the bits of a loop over the columns that
    sorts each column stably. The columns are sorted unstably; when one has a
    tie, each tie group is put back in front-position order by one sort of
    the unique keys tie-group start * size + member, from which the members
    are read back by subtracting the group part.
    """
    cols = np.asarray(objectives, dtype=float)[front].T
    m, size = cols.shape
    if size <= 2:
        return np.full(size, np.inf)
    order = np.argsort(cols, axis=1)
    k = np.arange(m)[:, None]
    ranked = cols[k, order]
    tied = ranked[:, 1:] == ranked[:, :-1]
    if tied.any():
        starts = np.ones((m, size), dtype=bool)
        np.logical_not(tied, out=starts[:, 1:])
        group = np.maximum.accumulate(np.where(starts, np.arange(size), 0), axis=1)
        group *= size
        keys = group + order
        keys.sort(axis=1)
        np.subtract(keys, group, out=order)
        # Tied values are equal, so `ranked` stands: only a zero's sign can
        # differ, and a gap's or the spread's zero sign never reaches a sum.
    spread = ranked[:, -1:] - ranked[:, :1]
    spread[spread == 0.0] = np.inf  # the column's gaps are 0
    gaps = np.empty((m, size))
    gaps[:, 0] = gaps[:, -1] = np.inf
    np.divide(ranked[:, 2:] - ranked[:, :-2], spread, out=gaps[:, 1:-1])
    by_row = np.empty_like(gaps)
    by_row[k, order] = gaps
    dist = np.zeros(size)
    for column in by_row:
        dist += column
    return dist


def _tournament(rank: np.ndarray, crowding: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Binary tournament winners, elementwise: lower rank, then higher crowding, then i."""
    i_wins = (rank[i] < rank[j]) | ((rank[i] == rank[j]) & (crowding[i] >= crowding[j]))
    return np.where(i_wins, i, j)


def environmental_select(objs: np.ndarray, dom: np.ndarray, n_pop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deb's loop forming P_{t+1} on the rows' `dominance` matrix: fill whole
    fronts in rank order, split the boundary front by descending crowding
    distance. The sort stops at the boundary front, the first that brings the
    rows reached to `n_pop`.

    Returns the survivors' row indices and every row's rank and crowding.
    Ranks are exact up to the boundary front; the rows past it get one more
    than the boundary front's rank, a lower bound. Crowding is taken over each
    front reached (the boundary front whole) and is 0 past it. A survivor's
    dominators all lie in whole fronts, so its rank is also its rank among
    the survivors alone."""
    rank, fronts = fast_nondominated_sort(dom, n_pop)
    crowding = np.zeros(len(rank))
    for front in fronts:
        crowding[front] = crowding_distance(objs, front)
    survivors = np.concatenate([np.zeros(0, dtype=np.intp), *fronts])
    if survivors.size > n_pop:
        boundary = fronts[-1]
        survivors[-boundary.size:] = boundary[np.argsort(-crowding[boundary], kind="stable")]
    return survivors[:n_pop], rank, crowding


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
    c1, c2 = sbx_crossover(xs[p1], xs[p2], u[:, 0], u[:, 1], problem.lower, problem.upper)
    children = np.empty((2 * pairs, n_var))
    children[0::2] = c1
    children[1::2] = c2
    child_x = mutate_matrix(children[:n_pop], problem.lower, problem.upper, rng)
    union_x = np.vstack([xs, child_x])
    union_f = np.vstack([fs, evaluate(child_x, problem)])
    survivors, rank, crowding = environmental_select(union_f, dominance(union_f), n_pop)
    return union_x[survivors], union_f[survivors], rank[survivors], crowding[survivors]
