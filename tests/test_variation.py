import numpy as np

from rveawg import sbx_crossover
from rveawg.variation import mutate_matrix, mutation_delta

LOWER = np.zeros(6)
UPPER = np.ones(6)


def test_delta_zero_at_symmetry_point():
    u = np.full(4, 0.5)
    d1 = np.array([0.1, 0.3, 0.5, 0.9])
    d2 = 1.0 - d1
    assert np.allclose(mutation_delta(u, d1, d2), 0.0, atol=1e-15)


def test_mutation_stays_in_bounds():
    # One-variable rows, so the rate 1/n is 1 and every entry moves.
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(0, 1, (6, 1))
        y = mutate_matrix(x, LOWER[:1], UPPER[:1], rng)
        assert np.all(y != x)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)


def test_mutation_rate_is_one_over_n():
    rng = np.random.default_rng(8)
    x = np.full((2000, 10), 0.5)
    y = mutate_matrix(x, np.zeros(10), np.ones(10), rng)
    stderr = np.sqrt(0.1 * 0.9 / x.size)
    assert abs(np.mean(y != x) - 0.1) < 3 * stderr


def test_mutation_distribution_symmetric_at_midpoint():
    rng = np.random.default_rng(4)
    n = 100_000
    x = np.full((n, 1), 0.5)
    moved = mutate_matrix(x, np.zeros(1), np.ones(1), rng)[:, 0] - 0.5
    stderr = moved.std() / np.sqrt(n)
    assert abs(moved.mean()) < 3 * stderr


def test_mutation_seed_replay():
    x = np.linspace(0.1, 0.9, 6)
    a = mutate_matrix(x[None], LOWER, UPPER, np.random.default_rng(9))
    b = mutate_matrix(x[None], LOWER, UPPER, np.random.default_rng(9))
    assert np.array_equal(a, b)


def full_grid_mutation(xs, lower, upper, rng):
    """The defining form: the perturbation at every entry, kept where the mask draws."""
    span = upper - lower
    mask = rng.random(xs.shape) < 1.0 / xs.shape[-1]
    u = rng.random(xs.shape)
    moved = xs + mutation_delta(u, (xs - lower) / span, (upper - xs) / span) * span
    return np.clip(np.where(mask, moved, xs), lower, upper)


def test_mutation_matches_full_grid_formula():
    # Random shapes, bounds and seeds, bit for bit; every third case in
    # Fortran order, so the flat indices must follow C order.
    rng = np.random.default_rng(71)
    for case in range(200):
        rows, n = int(rng.integers(1, 120)), int(rng.integers(1, 320))
        lower = rng.uniform(-5.0, 1.0, n)
        upper = lower + rng.uniform(0.1, 10.0, n)
        xs = rng.uniform(lower, upper, (rows, n))
        if case % 3 == 0:
            xs = np.asfortranarray(xs)
        seed = int(rng.integers(2**32))
        got = mutate_matrix(xs, lower, upper, np.random.default_rng(seed))
        want = full_grid_mutation(xs, lower, upper, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes(), f"case {case}"


def test_sbx_identical_parents_unchanged():
    x = np.linspace(0.2, 0.8, 6)
    rng = np.random.default_rng(5)
    c1, c2 = sbx_crossover(x, x, rng.random(6), rng.random(6), LOWER, UPPER)
    assert np.allclose(c1, x, atol=1e-12) and np.allclose(c2, x, atol=1e-12)


def test_sbx_preserves_per_variable_mean():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.uniform(0.2, 0.8, 6)
        b = rng.uniform(0.2, 0.8, 6)
        c1, c2 = sbx_crossover(a, b, rng.random(6), rng.random(6), LOWER, UPPER)
        # Interior parents with eta 20 keep children interior, so the clamp
        # never bites and the mean identity is exact.
        assert np.allclose(c1 + c2, a + b, atol=1e-9)


def test_sbx_bounds_monte_carlo():
    rng = np.random.default_rng(7)
    for _ in range(10_000 // 20):
        a = rng.uniform(0, 1, 6)
        b = rng.uniform(0, 1, 6)
        for _ in range(10):
            c1, c2 = sbx_crossover(a, b, rng.random(6), rng.random(6), LOWER, UPPER)
            assert np.all(c1 >= 0) and np.all(c1 <= 1)
            assert np.all(c2 >= 0) and np.all(c2 <= 1)
