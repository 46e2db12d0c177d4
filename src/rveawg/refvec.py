"""Uniform unit reference vectors: lattice generation, normalization, range adaptation.

A set of N reference vectors in M objectives is a plain (N, M) array of unit rows.
"""
from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from .core import ConfigurationError

# Range floor applied when an objective has collapsed to a single value, so the
# adapted vector stays finite and unit-norm.
RANGE_FLOOR = 1e-12

# Cosines this close to 1 are rounding on equal vectors (adapt makes such
# pairs when a range collapses): a true angle there would be under 5e-8 rad.
COINCIDENT_COS = 1.0 - 4 * np.finfo(float).eps

# Lattice settings whose vector counts equal the benchmark population sizes
# 105 / 132 / 156 / 275 for 3 / 6 / 8 / 10 objectives.
DEFAULT_LATTICES = {3: (13, 0), 6: (4, 1), 8: (3, 2), 10: (3, 2)}


def simplex_lattice(m: int, h: int) -> np.ndarray:
    """All weight vectors with components in {0, 1/h, ..., 1} summing to 1.

    Returned in lexicographic order of the integer compositions; the count is
    C(h + m - 1, m - 1). A composition is the gaps between m - 1 bars placed
    among h + m - 1 slots, and the bar placements come from
    `itertools.combinations` in the same lexicographic order.
    """
    if m < 2:
        raise ConfigurationError(f"lattice needs at least 2 objectives, got {m}")
    if h < 1:
        raise ConfigurationError(f"lattice resolution must be >= 1, got {h}")
    count = comb(h + m - 1, m - 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(h + m - 1), m - 1)), dtype=np.intp, count=count * (m - 1))
    return (np.diff(bars.reshape(count, m - 1), axis=1, prepend=-1, append=h + m - 1) - 1) / h


def two_layer_lattice(m: int, h_outer: int, h_inner: int) -> np.ndarray:
    """Outer lattice plus an inner lattice shrunk toward the centroid.

    The inner weights are mapped by w/2 + 1/(2m), exact duplicates between the
    two layers are dropped, h_inner = 0 means no inner layer.
    """
    if h_inner < 0:
        raise ConfigurationError(f"inner resolution must be >= 0, got {h_inner}")
    outer = simplex_lattice(m, h_outer)
    if h_inner == 0:
        return outer
    inner = simplex_lattice(m, h_inner) / 2.0 + 1.0 / (2 * m)
    combined = np.vstack([outer, inner])
    _, first = np.unique(np.round(combined, 12), axis=0, return_index=True)
    return combined[np.sort(first)]


def lattice_for(m: int, pop_size: int | None = None) -> np.ndarray:
    """Weight lattice for m objectives.

    Without a requested size, the benchmark defaults are used when known,
    otherwise the smallest single lattice with at least 100 points. With a
    requested size, the smallest single lattice reaching it is used (the
    resulting count is the population size the caller must adopt).
    """
    if pop_size is None:
        if m in DEFAULT_LATTICES:
            h_outer, h_inner = DEFAULT_LATTICES[m]
            return two_layer_lattice(m, h_outer, h_inner)
        pop_size = 100
    if pop_size < 1:
        raise ConfigurationError(f"requested lattice size must be >= 1, got {pop_size}")
    h = 1
    while comb(h + m - 1, m - 1) < pop_size:
        h += 1
    return simplex_lattice(m, h)


def to_unit_vectors(weights: np.ndarray) -> np.ndarray:
    """Normalize lattice weights to (N, M) unit rows."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] == 0:
        raise ConfigurationError("need a non-empty (N, M) weight array")
    norms = np.linalg.norm(weights, axis=1)
    if np.any(norms == 0.0):
        raise ConfigurationError("zero-norm weight vector cannot be normalized")
    return weights / norms[:, None]


def _min_angles(vectors: np.ndarray) -> np.ndarray:
    """Per-vector smallest angle (radians) to any distinct vector in the set.

    A vector whose clipped cosine to this one reaches COINCIDENT_COS
    coincides with it and counts, like the vector itself, as no neighbour. A
    vector without a distinct neighbour gets pi/2, so the APD penalty stays
    finite.
    """
    cos = np.clip(vectors @ vectors.T, -1.0, 1.0)
    np.fill_diagonal(cos, 1.0)
    nearest = np.max(cos, axis=1, where=cos < COINCIDENT_COS, initial=-np.inf)
    return np.arccos(np.where(nearest == -np.inf, 0.0, nearest))


def adapt(initial: np.ndarray, z_max: np.ndarray, z_min: np.ndarray) -> np.ndarray:
    """Rescale the uniform initial unit rows by the objective ranges and
    renormalize. Collapsed ranges are floored."""
    z_max = np.asarray(z_max, dtype=float)
    z_min = np.asarray(z_min, dtype=float)
    m = initial.shape[1]
    if z_max.shape != (m,) or z_min.shape != (m,):
        raise ConfigurationError("objective range vectors must have length M")
    ranges = np.maximum(z_max - z_min, RANGE_FLOOR)
    scaled = initial * ranges
    return scaled / np.linalg.norm(scaled, axis=1)[:, None]
