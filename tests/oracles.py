"""Loop oracles for the fast paths: literal transcriptions of IGD, Pareto
dominance, Deb's non-dominated sort, crowding, NSGA-II's survivor loop and
RVEA's angle-penalized selection, written one row (and one column) at a time
and sharing no code with ``rveawg``. The unit, property and acceptance tests
compare the library against them.
"""
import math

import numpy as np


def naive_igd(reference, solutions):
    """Literal double loop, the defining form of the indicator."""
    total = 0.0
    for r in reference:
        best = math.inf
        for s in solutions:
            acc = 0.0
            for rk, sk in zip(r, s):
                d = rk - sk
                acc += d * d
            dist = math.sqrt(acc)
            if dist < best:
                best = dist
        total += best
    return total / len(reference)


def dominates(a, b) -> bool:
    """True iff a is no worse everywhere and strictly better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective lengths differ: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def reference_dominance(objs):
    """dom[p, q] by broadcasting: p is no worse everywhere and better somewhere."""
    f = np.asarray(objs, dtype=float)
    le = np.all(f[:, None, :] <= f[None, :, :], axis=2)
    lt = np.any(f[:, None, :] < f[None, :, :], axis=2)
    return le & lt


def deb_reference_sort(objs):
    """Deb's loop one row at a time (NSGA-II, IEEE TEVC 2002): each front in the
    order the loop appends its members, which fixes the NSGA-II survivor order."""
    n = len(objs)
    dom = reference_dominance(objs)
    dominated_by = [np.flatnonzero(dom[p]).tolist() for p in range(n)]
    domination_count = dom.sum(axis=0).tolist()
    rank = np.zeros(n, dtype=int)
    fronts = [[p for p in range(n) if domination_count[p] == 0]]
    while fronts[-1]:
        nxt = []
        for p in fronts[-1]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    rank[q] = len(fronts)
                    nxt.append(q)
        fronts.append(nxt)
    fronts.pop()
    return rank, fronts


def reference_crowding(objectives, front):
    """Crowding distances of one front by a loop over the columns: one stable
    sort per column, boundary rows set to +inf, interior gaps normalized by
    the column's spread and added in column order; a column without spread
    adds nothing."""
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


def reference_select(objs, n_pop):
    """Deb's loop forming P_{t+1} from a full sort: every front's rank, each
    front's crowding as the loop admits it, whole fronts while they fit and
    the boundary front by descending crowding (stable: ties keep the loop's
    order). Returns the survivors and every row's rank and crowding."""
    rank, fronts = deb_reference_sort(objs)
    crowding = np.zeros(len(objs))
    survivors = []
    for front in fronts:
        crowding[front] = reference_crowding(objs, front)
        if len(survivors) + len(front) <= n_pop:
            survivors += front
            continue
        by_crowding = sorted(front, key=lambda p: -crowding[p])
        survivors += by_crowding[: n_pop - len(survivors)]
        break
    return np.array(survivors, dtype=int), rank, crowding


def brute_force_fronts(objs):
    """O(N^3)-ish dominance counting, independent of the library's sweep."""
    n = len(objs)
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(objs[j], objs[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def apd(translated_row, angle: float, gamma_j: float, t: int, t_max: int, alpha: float, m: int) -> float:
    """Angle-penalized distance of one translated objective vector."""
    if t_max < 1 or not 0 <= t <= t_max:
        raise ValueError(f"need 0 <= t <= t_max with t_max >= 1, got t={t}, t_max={t_max}")
    if gamma_j <= 0.0:
        raise ValueError("gamma must be positive (reference vectors must be distinct)")
    norm = float(np.linalg.norm(np.asarray(translated_row, dtype=float)))
    penalty = m * (t / t_max) ** alpha * (angle / gamma_j)
    return (1.0 + penalty) * norm


def oracle_select(objs, vectors, t, t_max, alpha):
    """Naive loop transcription of translation, partition, angle penalty, elitism."""
    objs = [list(map(float, row)) for row in objs]
    p, m = len(objs), len(objs[0])
    n = len(vectors)
    z_min = [min(row[k] for row in objs) for k in range(m)]
    rows = [[row[k] - z_min[k] for k in range(m)] for row in objs]

    def norm(v):
        return math.sqrt(sum(c * c for c in v))

    def angle_between(a, b):
        cos = sum(x * y for x, y in zip(a, b)) / (norm(a) * norm(b))
        return math.acos(max(-1.0, min(1.0, cos)))

    gamma = []
    for j in range(n):
        gamma.append(min(angle_between(vectors[j], vectors[i]) for i in range(n) if i != j))

    best = {}
    for i in range(p):
        ni = norm(rows[i])
        if ni == 0.0:
            k, theta = 0, 0.0
        else:
            cosines = []
            for j in range(n):
                cosines.append(sum(a * b for a, b in zip(rows[i], vectors[j])) / (ni * norm(vectors[j])))
            k = max(range(n), key=lambda j: (cosines[j], -j))
            theta = math.acos(max(-1.0, min(1.0, cosines[k])))
        d = (1.0 + m * (t / t_max) ** alpha * (theta / gamma[k])) * ni
        if k not in best or d < best[k][1]:
            best[k] = (i, d)
    return [best[k][0] for k in sorted(best)]
