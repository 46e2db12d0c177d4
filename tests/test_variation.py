import numpy as np

from rveawg import MutationConfig, RandomSource, sbx_crossover
from rveawg.variation import mutate_matrix, mutation_delta

LOWER = np.zeros(6)
UPPER = np.ones(6)


def test_zero_probability_is_identity():
    rng = RandomSource(1)
    x = rng.uniform(0, 1, 6)
    cfg = MutationConfig(p_m=0.0)
    assert np.array_equal(mutate_matrix(x[None], LOWER, UPPER, cfg, RandomSource(2))[0], x)


def test_delta_zero_at_symmetry_point():
    u = np.full(4, 0.5)
    d1 = np.array([0.1, 0.3, 0.5, 0.9])
    d2 = 1.0 - d1
    assert np.allclose(mutation_delta(u, d1, d2, 20.0), 0.0, atol=1e-15)


def test_mutation_stays_in_bounds():
    rng = RandomSource(3)
    cfg = MutationConfig(p_m=1.0)
    for _ in range(200):
        x = rng.uniform(0, 1, 6)
        y = mutate_matrix(x[None], LOWER, UPPER, cfg, rng)[0]
        assert np.all(y >= LOWER) and np.all(y <= UPPER)


def test_mutation_distribution_symmetric_at_midpoint():
    rng = RandomSource(4)
    cfg = MutationConfig(p_m=1.0, eta_m=20.0)
    n = 100_000
    x = np.full((n, 1), 0.5)
    moved = mutate_matrix(x, np.zeros(1), np.ones(1), cfg, rng)[:, 0] - 0.5
    stderr = moved.std() / np.sqrt(n)
    assert abs(moved.mean()) < 3 * stderr


def test_mutation_seed_replay():
    cfg = MutationConfig()
    x = np.linspace(0.1, 0.9, 6)
    a = mutate_matrix(x[None], LOWER, UPPER, cfg, RandomSource(9))
    b = mutate_matrix(x[None], LOWER, UPPER, cfg, RandomSource(9))
    assert np.array_equal(a, b)


def test_sbx_identical_parents_unchanged():
    x = np.linspace(0.2, 0.8, 6)
    rng = RandomSource(5)
    c1, c2 = sbx_crossover(x, x, rng.random(6), rng.random(6), LOWER, UPPER, 20.0)
    assert np.allclose(c1, x, atol=1e-12) and np.allclose(c2, x, atol=1e-12)


def test_sbx_preserves_per_variable_mean():
    rng = RandomSource(6)
    for _ in range(100):
        a = rng.uniform(0.2, 0.8, 6)
        b = rng.uniform(0.2, 0.8, 6)
        c1, c2 = sbx_crossover(a, b, rng.random(6), rng.random(6), LOWER, UPPER, 20.0)
        # Interior parents with eta 20 keep children interior, so the clamp
        # never bites and the mean identity is exact.
        assert np.allclose(c1 + c2, a + b, atol=1e-9)


def test_sbx_bounds_monte_carlo():
    rng = RandomSource(7)
    for _ in range(10_000 // 20):
        a = rng.uniform(0, 1, 6)
        b = rng.uniform(0, 1, 6)
        for _ in range(10):
            c1, c2 = sbx_crossover(a, b, rng.random(6), rng.random(6), LOWER, UPPER, 20.0)
            assert np.all(c1 >= 0) and np.all(c1 <= 1)
            assert np.all(c2 >= 0) and np.all(c2 <= 1)
