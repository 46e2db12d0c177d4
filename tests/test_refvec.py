from math import comb

import numpy as np
import pytest

from rveawg import ConfigurationError, adapt, lattice_for, simplex_lattice, to_unit_vectors, two_layer_lattice
from rveawg.refvec import DEFAULT_LATTICES, _min_angles


def reference_simplex_lattice(m, h):
    """The compositions of h into m parts by recursion, in lexicographic order."""
    rows = []

    def build(prefix, remaining, slots):
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            build(prefix + [k], remaining - k, slots - 1)

    build([], h, m)
    return np.array(rows, dtype=float) / h


def reference_two_layer_lattice(m, h_outer, h_inner):
    """Both layers, keeping the first of rows equal after rounding, one row at a time."""
    combined = np.vstack([reference_simplex_lattice(m, h_outer), reference_simplex_lattice(m, h_inner) / 2.0 + 1.0 / (2 * m)])
    seen = set()
    keep = []
    for i, row in enumerate(combined):
        key = tuple(np.round(row, 12))
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return combined[keep]


@pytest.mark.parametrize("m", range(2, 11))
def test_lattice_matches_recursive_reference(m):
    for h in range(1, 7):
        assert np.array_equal(simplex_lattice(m, h), reference_simplex_lattice(m, h)), h


@pytest.mark.parametrize("m, layers", sorted(DEFAULT_LATTICES.items()) + [(2, (4, 2)), (3, (6, 1))])
def test_two_layer_lattice_matches_reference(m, layers):
    # (2, (4, 2)) and (3, (6, 1)) have inner rows that repeat outer ones.
    h_outer, h_inner = layers
    expected = simplex_lattice(m, h_outer) if h_inner == 0 else reference_two_layer_lattice(m, h_outer, h_inner)
    assert np.array_equal(two_layer_lattice(m, h_outer, h_inner), expected)


def test_lattice_m2_h2_exact_set():
    w = simplex_lattice(2, 2)
    expected = {(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)}
    assert {tuple(row) for row in w} == expected


def test_lattice_m3_h1_identity_case():
    w = simplex_lattice(3, 1)
    assert {tuple(row) for row in w} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_lattice_m3_h13_has_105_points():
    assert simplex_lattice(3, 13).shape == (105, 3)


@pytest.mark.parametrize("m,h", [(m, h) for m in range(2, 11) for h in range(1, 14) if comb(h + m - 1, m - 1) <= 4000])
def test_lattice_count_formula(m, h):
    w = simplex_lattice(m, h)
    assert w.shape[0] == comb(h + m - 1, m - 1)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert len({tuple(np.round(r, 12)) for r in w}) == w.shape[0]


def test_lattice_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        simplex_lattice(1, 3)
    with pytest.raises(ConfigurationError):
        simplex_lattice(3, 0)


@pytest.mark.parametrize(
    "m,h_outer,h_inner,expected",
    [(6, 4, 1, 126 + 6), (8, 3, 2, 120 + 36), (10, 3, 2, 220 + 55)],
)
def test_two_layer_counts(m, h_outer, h_inner, expected):
    # Oracle: the combinatorial counts of the two layers.
    assert comb(h_outer + m - 1, m - 1) + comb(h_inner + m - 1, m - 1) == expected
    w = two_layer_lattice(m, h_outer, h_inner)
    assert w.shape == (expected, m)
    assert len({tuple(np.round(r, 12)) for r in w}) == expected


def test_two_layer_inner_shrinks_to_centroid():
    w = two_layer_lattice(3, 1, 1)
    inner = w[3:]
    # e_i / 2 + 1/6 per coordinate
    assert np.allclose(sorted(inner[0]), [1 / 6, 1 / 6, 4 / 6], atol=1e-12)
    assert np.allclose(inner.sum(axis=1), 1.0, atol=1e-12)


def test_default_lattices_hit_benchmark_sizes():
    for m, n in [(3, 105), (6, 132), (8, 156), (10, 275)]:
        assert lattice_for(m).shape == (n, m)


def test_lattice_for_snaps_requested_size_up():
    w = lattice_for(3, 15)
    assert w.shape[0] == 15  # C(6,2)
    w = lattice_for(3, 16)
    assert w.shape[0] == comb(5 + 2, 2)  # 21, smallest count >= 16


def test_unit_vectors_norm_and_sign():
    weights = lattice_for(6)
    vectors = to_unit_vectors(weights)
    assert vectors.shape == weights.shape
    norms = np.linalg.norm(vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-12)
    assert np.all(vectors >= 0.0)


def test_unit_vector_simple_cases():
    vectors = to_unit_vectors(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert np.allclose(vectors[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(vectors[1], [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)


def test_zero_weight_rejected():
    with pytest.raises(ConfigurationError):
        to_unit_vectors(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_gamma_hand_computed():
    gamma = _min_angles(to_unit_vectors(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])))
    # (1,0) vs (sqrt2/2, sqrt2/2): angle pi/4; vs (0,1): pi/2.
    assert abs(gamma[0] - np.pi / 4) < 1e-12
    assert abs(gamma[1] - np.pi / 4) < 1e-12
    assert abs(gamma[2] - np.pi / 4) < 1e-12


def test_gamma_positive_for_distinct_vectors():
    assert np.all(_min_angles(to_unit_vectors(lattice_for(3))) > 0.0)


def test_gamma_skips_coincident_vectors():
    # A coincident vector counts as no neighbour; with none left, gamma is pi/2.
    gamma = _min_angles(to_unit_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    assert np.array_equal(gamma, np.full(3, np.pi / 2))
    assert np.array_equal(_min_angles(np.array([[0.6, 0.8]])), [np.pi / 2])
    assert np.array_equal(_min_angles(np.array([[0.6, 0.8], [0.6, 0.8]])), np.full(2, np.pi / 2))
    # A collapsed third range makes 24 cosines of adapted vectors round to
    # 1 - 2**-53 or 1 - 2**-52, not 1: those pairs coincide too.
    adapted = adapt(to_unit_vectors(lattice_for(3)), np.array([1.0, 1.0, 5.0]), np.array([0.0, 0.0, 5.0]))
    assert _min_angles(adapted).min() > 7e-3


def test_adapt_unit_range_is_identity():
    initial = to_unit_vectors(lattice_for(3))
    adapted = adapt(initial, np.ones(3), np.zeros(3))
    assert np.allclose(adapted, initial, atol=1e-12)


def test_adapt_hand_computed():
    initial = to_unit_vectors(np.array([[0.5, 0.5], [1.0, 0.0]]))
    adapted = adapt(initial, np.array([2.0, 1.0]), np.array([0.0, 0.0]))
    expected = np.array([2.0, 1.0]) / np.sqrt(5.0)
    assert np.allclose(adapted[0], expected, atol=1e-12)


def test_adapt_degenerate_range_floored():
    initial = to_unit_vectors(np.array([[0.5, 0.5], [1.0, 0.0]]))
    adapted = adapt(initial, np.array([1.0, 3.0]), np.array([1.0, 0.0]))
    assert np.all(np.isfinite(adapted))
    assert np.all(np.abs(np.linalg.norm(adapted, axis=1) - 1.0) < 1e-12)


def test_adapt_idempotent_for_fixed_ranges():
    initial = to_unit_vectors(lattice_for(3))
    z_max, z_min = np.array([3.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0])
    once = adapt(initial, z_max, z_min)
    twice = adapt(initial, z_max, z_min)
    assert np.array_equal(once, twice)


def test_adapt_leaves_read_only_initial_unchanged():
    initial = to_unit_vectors(lattice_for(3))
    initial.setflags(write=False)
    before = initial.copy()
    adapted = adapt(initial, np.array([3.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0]))
    assert np.array_equal(initial, before)
    assert adapted.shape == initial.shape and not np.shares_memory(adapted, initial)
