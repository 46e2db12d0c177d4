"""Shared domain types: error classes, seeded RNG streams, and the initial
decision matrix and objective evaluation of box-bounded problems."""
from __future__ import annotations

import zlib

import numpy as np


class ConfigurationError(ValueError):
    """Raised for malformed run, problem, or operator configuration."""


class EvaluationError(RuntimeError):
    """Raised when objective evaluation produces non-finite values."""


class TrainingError(RuntimeError):
    """Raised when network training receives or produces invalid numbers."""


def child(rng: np.random.Generator, tag) -> np.random.Generator:
    """A PCG64 stream derived from `rng`'s seed and the tag, independent of
    how much of `rng` has been consumed.

    The child's SeedSequence keeps `rng`'s entropy and extends its spawn key
    by the tag: the CRC-32 of a string, or an int modulo 2**32. The same seed
    and tags therefore give the same stream bit for bit, and distinct tags
    give statistically independent streams.
    """
    seq = rng.bit_generator.seed_seq
    code = zlib.crc32(tag.encode("utf-8")) if isinstance(tag, str) else int(tag) % (2**32)
    key = (*seq.spawn_key, code)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seq.entropy, spawn_key=key)))


def check_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ConfigurationError("lower/upper bounds must be 1-D arrays of equal length")
    if not np.all(lower < upper):
        raise ConfigurationError("bounds require lower_i < upper_i for every variable")
    return lower, upper


def init_population(problem, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `size` decision vectors uniformly inside the problem box, as an (N, n) matrix."""
    if size < 1:
        raise ConfigurationError(f"population size must be >= 1, got {size}")
    lower, upper = check_bounds(problem.lower, problem.upper)
    return rng.uniform(lower, upper, size=(size, len(lower)))


def evaluate(xs: np.ndarray, problem) -> np.ndarray:
    """Objective matrix (N, M) of an (N, n) decision matrix; pure, so re-evaluation reproduces it."""
    fs = np.asarray(problem.evaluate(xs), dtype=float)
    if fs.shape != (len(xs), problem.m):
        raise EvaluationError(
            f"problem '{problem.name}' returned shape {fs.shape}, expected {(len(xs), problem.m)}"
        )
    bad = ~np.all(np.isfinite(fs), axis=1)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise EvaluationError(f"non-finite objectives for individual {idx}: {fs[idx]}")
    return fs
