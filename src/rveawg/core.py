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


class RandomSource:
    """Deterministic random stream with independently derivable child streams.

    Built on PCG64 seeded through a SeedSequence so that the same seed plus
    the same call sequence reproduces the same values bit for bit, and
    ``child(tag)`` streams are statistically independent of the parent and
    of each other regardless of how much the parent has been consumed.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self._key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, tag) -> "RandomSource":
        if isinstance(tag, str):
            code = zlib.crc32(tag.encode("utf-8"))
        else:
            code = int(tag) % (2**32)
        return RandomSource(self.seed, self._key + (code,))

    # Thin delegation so call sites read like a numpy Generator.
    def random(self, size=None):
        return self.generator.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size=size)

    def permutation(self, x):
        return self.generator.permutation(x)

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, key={self._key})"


def check_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ConfigurationError("lower/upper bounds must be 1-D arrays of equal length")
    if not np.all(lower < upper):
        raise ConfigurationError("bounds require lower_i < upper_i for every variable")
    return lower, upper


def init_population(problem, size: int, rng: RandomSource) -> np.ndarray:
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
