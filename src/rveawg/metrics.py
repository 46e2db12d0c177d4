"""Inverted generational distance.

The IGD here is defined as the literal double loop: for every reference point
take the minimum Euclidean distance to any solution, then average over the
reference points. The implementation matches that loop bit for bit on float64
in two steps per block of reference rows:

- Screen: one matrix product gives p[i, j] = |c_j|^2 - 2 r_i.c_j, the squared
  distance less |r_i|^2, which is the same across a row. Every solution with
  p[i, j] <= min_j p[i, j] + slack_i stays a candidate. Rounding moves p and
  the loop's own sums by at most about 10 (M + 2) 2^-53 (|r_i|^2 + |c_j|^2)
  in all; the slack, 1e-9 (|r_i|^2 + max_j |c_j|^2), is over 10^4 times that
  for M up to 100, so the loop's minimiser is always a candidate, whatever
  order or thread count the BLAS sums in. The slack also adds the smallest
  normal double, which covers products that underflow, and an inf or NaN
  from overflow keeps every pair of its row.
- Recompute: for the candidates only, squared coordinate differences are
  added in index order from 0.0, exactly as the loop does. The row minimum of
  those sums is taken before the square root (sqrt is correctly rounded and
  monotone, so the minimum of the roots is the root of the minimum).

The mean is a sequential left-to-right sum. A slack that is too wide only
costs time: at worst every pair is a candidate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class IgdResult:
    value: float


# Reference rows per block: a block's (rows, N) screen product stays in cache.
IGD_BLOCK = 96
# Screen slack relative to |r_i|^2 + max_j |c_j|^2; see the module docstring.
SCREEN_SLACK = 1e-9


def igd(reference, solutions) -> IgdResult:
    ref = np.asarray(reference, dtype=float)
    sol = np.asarray(solutions, dtype=float)
    if ref.ndim != 2 or sol.ndim != 2 or ref.shape[0] == 0 or sol.shape[0] == 0:
        raise ValueError("need non-empty (K, M) reference and solution arrays")
    if ref.shape[1] != sol.shape[1]:
        raise ValueError(f"objective counts differ: {ref.shape[1]} vs {sol.shape[1]}")
    if not (np.isfinite(ref).all() and np.isfinite(sol).all()):
        raise ValueError("reference and solution objectives must be finite")
    k, n = ref.shape[0], sol.shape[0]
    ref_t = np.ascontiguousarray(ref.T)
    sol_t = np.ascontiguousarray(sol.T)
    sol_sq = np.einsum("ij,ij->i", sol, sol)
    slack = SCREEN_SLACK * (np.einsum("ij,ij->i", ref, ref) + sol_sq.max()) + np.finfo(float).tiny
    # p = [r, 1] @ [-2 c; |c|^2], so the screen is a single product per block.
    ref_1 = np.hstack([ref, np.ones((k, 1))])
    sol_2 = np.vstack([-2.0 * sol_t, sol_sq])
    mins = np.empty(k)
    for start in range(0, k, IGD_BLOCK):
        stop = min(start + IGD_BLOCK, k)
        p = ref_1[start:stop] @ sol_2
        limit = p.min(axis=1)
        limit += slack[start:stop]
        rows, cols = np.divmod(np.flatnonzero(~(p > limit[:, None])), n)
        diff = ref_t[:, start:stop][:, rows] - sol_t[:, cols]
        diff *= diff
        acc = np.zeros(rows.size)
        for sq in diff:
            acc += sq
        # Every row has a candidate, and rows come sorted.
        np.minimum.reduceat(acc, np.searchsorted(rows, np.arange(stop - start)), out=mins[start:stop])
    total = 0.0
    for v in np.sqrt(mins).tolist():
        total += v
    return IgdResult(value=total / k)
