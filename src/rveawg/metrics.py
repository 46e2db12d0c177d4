"""Inverted generational distance.

The IGD here is defined as the literal double loop: for every reference point
take the minimum Euclidean distance to any solution, then average over the
reference points. The implementation matches that loop bit for bit on float64:

- Screen, in float32: both sets are translated by half the sum of the
  solutions' bounding-box corners and scaled by the power of two that puts
  the largest magnitude (the larger of the maximum and minus the minimum) in
  [1/2, 1), exactly in float64 bar subnormal bits. The reference side is
  shifted and scaled in its transposed (M, K) layout and written straight
  into the float32 operand [r; 1]; the solution side fills [-2 c, |c|^2].
  Per block of reference rows one product gives p[j, i] = |c_j|^2 - 2 r_i.c_j,
  the squared distance less |r_i|^2. Every solution with p <= min_j p + slack_i
  stays a candidate. Float32 rounding moves p by at most about
  3 (M + 2) 2^-24 (|r_i|^2 + max_j |c_j|^2); the slack, SCREEN_SLACK = 1e-4
  times the same, is over 2.5 times the gap two such errors open for M up to
  100, so the loop's minimiser is always a candidate, whatever order, kernel
  or thread count the BLAS sums in. The slack's own float32 sum |r_i|^2,
  taken down the (M, K) columns, may differ in its last bit from a sum along
  rows; that relative 2^-23 is far inside the 2.5 times margin. Two floors
  are added: float32's smallest normal number for products in float32's
  subnormal range, and the smallest normal double, in scaled units, for the
  loop's own squares that underflow.
- Recompute, once per call: for the candidates of all blocks, squared
  differences of the float64 values are added in objective order from 0.0,
  as the loop does; the row minimum is taken before the square root (sqrt is
  correctly rounded and monotone), and the mean is a left-to-right sum.

A slack that is too wide only costs time: at worst every pair is a candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class IgdResult:
    value: float


# Reference rows per block; bounds the (N, rows) float32 screen product. The
# fronts of up to 10 objectives (2002 rows at most) take one block.
IGD_BLOCK = 2048
# Screen slack relative to |r_i|^2 + max_j |c_j|^2 in scaled units; see above.
SCREEN_SLACK = 1e-4


def igd(reference, solutions) -> IgdResult:
    ref = np.asarray(reference, dtype=float)
    sol = np.asarray(solutions, dtype=float)
    if ref.ndim != 2 or sol.ndim != 2 or ref.shape[0] == 0 or sol.shape[0] == 0:
        raise ValueError("need non-empty (K, M) reference and solution arrays")
    if ref.shape[1] != sol.shape[1]:
        raise ValueError(f"objective counts differ: {ref.shape[1]} vs {sol.shape[1]}")
    if not (np.isfinite(ref).all() and np.isfinite(sol).all()):
        raise ValueError("reference and solution objectives must be finite")
    k, m = ref.shape
    # Halves first, so that the translation cannot overflow. The reference
    # side is shifted and scaled in the (M, K) layout of the screen's operand.
    centre = 0.25 * sol.min(axis=0) + 0.25 * sol.max(axis=0)
    ref_h = np.multiply(ref.T, 0.5, order="C")
    ref_h -= centre[:, None]
    sol_h = 0.5 * sol - centre
    exp = int(np.frexp(max(ref_h.max(), -ref_h.min(), sol_h.max(), -sol_h.min()))[1])
    # p = [-2 c, |c|^2] @ [r, 1]^T, one column per reference row of the block.
    ref_1 = np.empty((m + 1, k), dtype=np.float32)
    ref_32 = ref_1[:m]
    np.ldexp(ref_h, -exp, out=ref_32)
    ref_1[m] = 1.0
    sol_32 = np.ldexp(sol_h, -exp).astype(np.float32)
    sol_sq = np.einsum("ij,ij->i", sol_32, sol_32)
    sol_2 = np.empty((sol.shape[0], m + 1), dtype=np.float32)
    np.multiply(sol_32, -2.0, out=sol_2[:, :m])
    sol_2[:, m] = sol_sq
    # Squares scale by 2^(-2 exp - 2); past 2^8 the loop's floor admits every pair.
    floor = np.finfo(np.float32).tiny + math.ldexp(np.finfo(float).tiny, min(-2 * exp - 2, 1030))
    slack = SCREEN_SLACK * (np.einsum("ij,ij->j", ref_32, ref_32) + sol_sq.max()) + floor
    hits = []
    for start in range(0, k, IGD_BLOCK):
        p = sol_2 @ ref_1[:, start:start + IGD_BLOCK]
        limit = p.min(axis=0)
        limit += slack[start:start + IGD_BLOCK]
        col, row = np.divmod(np.flatnonzero(p <= limit), p.shape[1])
        hits.append((row + start, col))
    rows, cols = (np.concatenate(h) for h in zip(*hits))
    diff = ref[rows] - sol[cols]
    diff *= diff
    acc = np.zeros(rows.size)
    for sq in diff.T:
        acc += sq
    mins = np.full(k, np.inf)  # every row has a candidate
    np.minimum.at(mins, rows, acc)
    return IgdResult(value=float(np.add.accumulate(np.sqrt(mins))[-1] / k))
