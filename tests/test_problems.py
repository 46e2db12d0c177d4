import numpy as np
import pytest

from rveawg import ConfigurationError, dtlz, lsmop, make_problem, sample_front
from oracles import dominates


def test_dtlz_dimensions():
    assert dtlz(1, 3).n == 7
    for k in (2, 3, 4):
        assert dtlz(k, 3).n == 12
        assert dtlz(k, 10).n == 19


def test_dtlz_rejects_bad_index():
    with pytest.raises(ConfigurationError):
        dtlz(5, 3)


def test_dtlz1_optimum_on_linear_front():
    problem = dtlz(1, 3)
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 1, size=(50, 2))
    xs = np.hstack([pos, np.full((50, 5), 0.5)])
    f = problem.evaluate(xs)
    assert np.max(np.abs(f.sum(axis=1) - 0.5)) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dtlz_spherical_optimum(k):
    problem = dtlz(k, 3)
    rng = np.random.default_rng(2)
    pos = rng.uniform(0, 1, size=(50, 2))
    xs = np.hstack([pos, np.full((50, 10), 0.5)])
    f = problem.evaluate(xs)
    assert np.max(np.abs(np.sum(f * f, axis=1) - 1.0)) < 1e-12


def test_dtlz4_matches_dtlz2_at_zero_position():
    xs = np.hstack([np.zeros((1, 2)), np.full((1, 10), 0.37)])
    f2 = dtlz(2, 3).evaluate(xs)
    f4 = dtlz(4, 3).evaluate(xs)
    assert np.array_equal(f2, f4)


def test_lsmop_dimensions_and_bounds():
    for m in (3, 6):
        problem = lsmop(1, m)
        assert problem.n == 100 * m
        assert np.array_equal(problem.lower, np.zeros(problem.n))
        assert np.all(problem.upper[: m - 1] == 1.0)
        assert np.all(problem.upper[m - 1 :] == 10.0)


def test_lsmop_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        lsmop(4, 3)
    with pytest.raises(ConfigurationError):
        lsmop(1, 2)


def test_lsmop_front_is_unit_simplex():
    for k in (1, 2, 3):
        front = sample_front(lsmop(k, 3), 100)
        assert front.shape[0] >= 100
        assert np.max(np.abs(front.sum(axis=1) - 1.0)) < 1e-12


def test_lsmop_evaluation_bit_exact_pure():
    problem = lsmop(2, 3)
    x = np.random.default_rng(3).uniform(problem.lower, problem.upper, size=(5, problem.n))
    assert np.array_equal(problem.evaluate(x), problem.evaluate(x))


def test_lsmop_known_structure():
    # With all-zero decision vector the linkage leaves zeros, every landscape
    # is evaluated at the origin, and the first position variable is 0.
    problem = lsmop(1, 3)
    x = np.zeros((1, problem.n))
    f = problem.evaluate(x)
    # Sphere(0) = 0, so g = 0; position (0, 0) puts everything on f3 = 1.
    assert np.allclose(f, [[0.0, 0.0, 1.0]], atol=1e-12)


@pytest.mark.parametrize("name", ["dtlz1", "dtlz2", "dtlz3", "dtlz4", "lsmop1", "lsmop2", "lsmop3"])
def test_objectives_finite_on_random_points(name):
    problem = make_problem(name, 3)
    xs = np.random.default_rng(11).uniform(problem.lower, problem.upper, size=(10_000, problem.n))
    f = problem.evaluate(xs)
    assert np.all(np.isfinite(f))


def test_sample_front_sphere_norms():
    front = sample_front(dtlz(2, 3), 500)
    assert front.shape[0] >= 500
    assert np.max(np.abs(np.linalg.norm(front, axis=1) - 1.0)) < 1e-12


def test_sample_front_dtlz1_scaling():
    front = sample_front(dtlz(1, 3), 200)
    assert np.max(np.abs(front.sum(axis=1) - 0.5)) < 1e-12


def test_sample_front_smallest_lattice():
    front = sample_front(dtlz(1, 2), 1)
    assert front.shape == (2, 2)
    assert {tuple(row) for row in front} == {(0.5, 0.0), (0.0, 0.5)}


def test_front_samples_mutually_nondominated():
    for name in ("dtlz1", "dtlz2", "lsmop1"):
        front = sample_front(make_problem(name, 3), 30)[:40]
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])


def test_registry_unknown_name():
    with pytest.raises(ConfigurationError):
        make_problem("zdt1", 3)
