"""Bounded variation operators: polynomial mutation and simulated binary crossover."""
from __future__ import annotations

import numpy as np

# Distribution indices of polynomial mutation (its rate is 1/n) and of
# simulated binary crossover.
ETA_M = 20.0
ETA_C = 20.0


def mutation_delta(u: np.ndarray, delta1: np.ndarray, delta2: np.ndarray) -> np.ndarray:
    """Normalized polynomial perturbation at index ETA_M for uniform draws u.

    delta1/delta2 are the normalized distances to the lower/upper bound; the
    result is 0 at u = 0.5 and stays within [-delta1, delta2].
    """
    exponent = 1.0 / (ETA_M + 1.0)
    low = u <= 0.5
    val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta1) ** (ETA_M + 1.0)
    val_high = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta2) ** (ETA_M + 1.0)
    return np.where(low, val_low**exponent - 1.0, 1.0 - val_high**exponent)


def mutate_matrix(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Polynomial mutation at rate 1/n and index ETA_M, applied independently
    to every entry of an (N, n) matrix."""
    xs = np.asarray(xs, dtype=float)
    # Draw both grids up front so the stream consumption is shape-determined.
    mask = rng.random(xs.shape) < 1.0 / xs.shape[-1]
    u = rng.random(xs.shape)
    # About one entry per row moves: perturb only those, by flat C-order index.
    at = np.flatnonzero(mask)
    col = at % xs.shape[-1]
    x, low, high = xs.take(at), lower[col], upper[col]
    span = high - low
    out = xs.copy()
    out.flat[at] = x + mutation_delta(u.take(at), (x - low) / span, (high - x) / span) * span
    return np.clip(out, lower, upper, out=out)


def sbx_crossover(
    a: np.ndarray,
    b: np.ndarray,
    u_cross: np.ndarray,
    u_beta: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover at index ETA_C of parents a and b, elementwise
    on arrays of any shape.

    A variable is crossed where its uniform draw u_cross <= 0.5, with spread
    factor from u_beta; the children's per-variable mean equals the parents'
    mean before the final clamp. Pure: the caller draws u_cross and u_beta,
    each of a's shape; NSGA-II takes both for all of its pairs from one
    ``rng.random((pairs, 2, n))`` call.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = u_cross <= 0.5
    beta = np.where(
        u_beta <= 0.5,
        (2.0 * u_beta) ** (1.0 / (ETA_C + 1.0)),
        (1.0 / (2.0 * (1.0 - u_beta))) ** (1.0 / (ETA_C + 1.0)),
    )
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    child1 = np.where(cross, c1, a)
    child2 = np.where(cross, c2, b)
    return np.clip(child1, lower, upper), np.clip(child2, lower, upper)
