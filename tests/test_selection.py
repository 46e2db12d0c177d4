import math
import warnings

import numpy as np
import pytest

from rveawg import adapt, elitism_select, lattice_for, to_unit_vectors, translate
from rveawg.core import EvaluationError
from rveawg.selection import partition

from oracles import apd, oracle_select


def test_translate_column_minima():
    rows = translate([[1.0, 2.0], [3.0, 1.0], [2.0, 4.0]])
    assert np.array_equal(rows, [[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]])


def test_translate_single_point_goes_to_origin():
    rows = translate([[4.0, 5.0, 6.0]])
    assert np.array_equal(rows, [[0.0, 0.0, 0.0]])


def test_translate_noop_when_minima_zero():
    rows = [[0.0, 2.0], [3.0, 0.0]]
    out = translate(rows)
    assert np.array_equal(out, rows)


def test_translate_rejects_empty():
    with pytest.raises(EvaluationError):
        translate(np.zeros((0, 3)))


def test_partition_prefers_nearest_vector():
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assignment, cosines, _ = partition(translate([[2.0, 0.1], [0.0, 0.0]]), vectors)
    # Only the first row is meaningful; cos to (1,0) = 2/sqrt(4.01) = 0.9988.
    assert assignment[0] == 0
    assert abs(cosines[0] - 2.0 / math.sqrt(4.01)) < 1e-12


def test_partition_exact_alignment_and_tie_break():
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assignment, cosines, _ = partition(translate([[0.0, 3.0], [2.0, 2.0], [0.0, 0.0]]), vectors)
    assert assignment[0] == 1 and abs(cosines[0] - 1.0) < 1e-12
    assert assignment[1] == 0  # equal cosines, lowest index wins
    assert assignment[2] == 0 and cosines[2] == 1.0  # ideal point


def test_partition_norms_are_row_norms():
    rng = np.random.default_rng(17)
    vectors = to_unit_vectors(np.abs(rng.standard_normal((9, 4))) + 1e-3)
    rows = translate(rng.uniform(0.0, 10.0, size=(50, 4)))
    _, _, norms = partition(rows, vectors)
    assert np.array_equal(norms, np.linalg.norm(rows, axis=1))


def test_apd_zero_generation_is_pure_norm():
    assert apd([3.0, 4.0], 0.3, 0.5, 0, 10, 2.0, 2) == 5.0


def test_apd_full_penalty_hand_value():
    # t = t_max, alpha = 2, M = 2, angle = gamma: penalty factor 2.
    assert abs(apd([3.0, 4.0], 0.7, 0.7, 10, 10, 2.0, 2) - 15.0) < 1e-12


def test_apd_zero_row_is_zero():
    assert apd([0.0, 0.0], 0.0, 0.5, 5, 10, 2.0, 2) == 0.0


def test_apd_rejects_bad_gamma():
    with pytest.raises(ValueError):
        apd([1.0, 0.0], 0.1, 0.0, 1, 10, 2.0, 2)


def test_elitism_keeps_each_aligned_individual():
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    objs = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    result = elitism_select(objs, vectors, t=0, t_max=10)
    assert list(result.selected_indices) == [0, 1, 2]


def test_elitism_min_norm_wins_at_t0():
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [0.0, 1.0]]))
    objs = np.array([[3.0, 0.2], [2.0, 0.1], [0.1, 5.0]])
    result = elitism_select(objs, vectors, t=0, t_max=10)
    assert 1 in result.selected_indices and 0 not in result.selected_indices


def test_elitism_never_doubles_a_partition():
    rng = np.random.default_rng(11)
    vectors = to_unit_vectors(np.abs(rng.standard_normal((8, 3))) + 1e-3)
    objs = rng.uniform(0, 5, size=(40, 3))
    result = elitism_select(objs, vectors, t=3, t_max=10)
    assignment = partition(translate(objs), vectors)[0]
    chosen = assignment[result.selected_indices]
    assert len(set(chosen.tolist())) == len(chosen)


def test_elitism_skips_empty_partitions():
    # Every row falls into the first vector's partition (the first at the
    # ideal point), so the other two are empty and one row is kept.
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    objs = np.array([[2.0, 0.0], [3.0, 0.01], [4.0, 0.0]])
    result = elitism_select(objs, vectors, t=0, t_max=10)
    assert list(result.selected_indices) == [0]
    assignment = partition(translate(objs), vectors)[0]
    assert len(result.selected_indices) == len(np.unique(assignment))


def test_translation_invariance_of_selection():
    rng = np.random.default_rng(13)
    vectors = to_unit_vectors(np.abs(rng.standard_normal((6, 3))) + 1e-3)
    objs = rng.uniform(0, 4, size=(25, 3))
    base = elitism_select(objs, vectors, t=4, t_max=15)
    shifted = elitism_select(objs + np.array([7.0, -2.0, 11.0]), vectors, t=4, t_max=15)
    assert np.array_equal(base.selected_indices, shifted.selected_indices)


def test_elitism_apd_tie_goes_to_lowest_row():
    # Rows 1 and 3 are identical and have the least APD of the first
    # partition; row 1 must survive.
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [0.0, 1.0]]))
    objs = np.array([[3.0, 0.5], [2.0, 0.2], [0.1, 4.0], [2.0, 0.2], [2.5, 0.3]])
    for t in (0, 5):
        result = elitism_select(objs, vectors, t=t, t_max=10)
        assert list(result.selected_indices) == [1, 2]


def test_elitism_gamma_over_distinct_vectors():
    # Vectors 0 and 1 coincide, so γ of vector 0 is its angle to vector 2,
    # pi/2. The nearer row 1 wins the partition; with γ = 0 row 0 (on the
    # vector) would get APD 0 / 0.
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    objs = np.array([[5.0, 0.0], [1.0, 0.1], [0.0, 3.0]])
    result = elitism_select(objs, vectors, t=5, t_max=10)
    assert list(result.selected_indices) == [1, 2]


def test_elitism_after_collapsed_range_warns_nothing():
    # A collapsed third objective makes 46 of the 105 adapted vectors
    # coincide with another one; their APDs must stay finite.
    vectors = adapt(to_unit_vectors(lattice_for(3)), np.array([1.0, 1.0, 5.0]), np.array([0.0, 0.0, 5.0]))
    objs = np.random.default_rng(12).uniform(0.0, 1.0, size=(210, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = elitism_select(objs, vectors, t=5, t_max=10)
    assert len(result.selected_indices) > 0


def test_selection_matches_bruteforce_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for case in range(200):
        m = int(rng.integers(2, 4))
        n_vec = int(rng.integers(2, 11))
        p = int(rng.integers(1, 31))
        vectors = to_unit_vectors(np.abs(rng.standard_normal((n_vec, m))) + 1e-3)
        objs = rng.uniform(0.0, 10.0, size=(p, m))
        t_max = int(rng.integers(1, 30))
        t = int(rng.integers(0, t_max + 1))
        result = elitism_select(objs, vectors, t=t, t_max=t_max)
        expected = oracle_select(objs.tolist(), vectors.tolist(), t, t_max, 2.0)
        assert list(result.selected_indices) == expected, f"case {case}"
