import math
import warnings

import numpy as np
import pytest

from rveawg import ConfigurationError, RunConfig, harness, igd, run_experiment

from oracles import naive_igd


def test_igd_zero_when_sets_coincide():
    pts = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
    assert igd(pts, pts).value == 0.0


def test_igd_hand_computed():
    result = igd([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]])
    assert result.value == 1.0


def test_igd_monotone_under_added_solutions():
    rng = np.random.default_rng(21)
    ref = rng.uniform(0, 1, size=(50, 3))
    sols = rng.uniform(0, 1, size=(10, 3))
    base = igd(ref, sols).value
    more = igd(ref, np.vstack([sols, rng.uniform(0, 1, size=(5, 3)) + 10.0]))
    assert more.value <= base


def test_igd_duplicate_solutions_no_effect():
    rng = np.random.default_rng(22)
    ref = rng.uniform(0, 1, size=(20, 2))
    sols = rng.uniform(0, 1, size=(6, 2))
    assert igd(ref, sols).value == igd(ref, np.vstack([sols, sols])).value


def test_igd_axis_permutation_symmetry():
    rng = np.random.default_rng(23)
    ref = rng.uniform(0, 1, size=(20, 3))
    sols = rng.uniform(0, 1, size=(7, 3))
    perm = [2, 0, 1]
    assert igd(ref, sols).value == igd(ref[:, perm], sols[:, perm]).value


def test_igd_rejects_bad_input():
    with pytest.raises(ValueError):
        igd([], [[1.0]])
    with pytest.raises(ValueError):
        igd([[1.0, 2.0]], [[1.0]])
    good = [[0.0, 1.0], [1.0, 0.0]]
    for bad in (
        [[0.0, np.nan], [1.0, 0.0]],  # a NaN
        [[0.0, 1.0], [np.inf, np.inf]],  # a lone inf row
        [[0.0, np.inf], [1.0, np.inf]],  # an all-inf column
        [[0.0, 1.0], [-np.inf, 0.0]],  # a -inf
    ):
        with pytest.raises(ValueError):
            igd(good, bad)
        with pytest.raises(ValueError):
            igd(bad, good)


def test_igd_matches_naive_loop_bit_exactly():
    rng = np.random.default_rng(24)
    for case in range(100):
        n_ref = int(rng.integers(1, 40))
        n_sol = int(rng.integers(1, 30))
        m = int(rng.integers(2, 6))
        ref = rng.uniform(-5, 5, size=(n_ref, m))
        sols = rng.uniform(-5, 5, size=(n_sol, m))
        assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), f"case {case}"


@pytest.mark.parametrize("n_ref", [1, 95, 96, 97, 305])
def test_igd_matches_naive_loop_across_blocks(n_ref):
    # Reference sets of several sizes, and M from 2 to 15 with a single
    # solution and with many.
    rng = np.random.default_rng(26 + n_ref)
    for m, n_sol in [(2, 1), (3, 300), (7, 45), (10, 128)] + [(m, n) for m in range(2, 16) for n in (1, 50)]:
        ref = rng.uniform(-5, 5, size=(n_ref, m))
        sols = rng.uniform(-5, 5, size=(n_sol, m))
        assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), (m, n_sol)


def test_igd_matches_naive_loop_past_the_block():
    # More reference rows than any front of up to 10 objectives has (2002).
    rng = np.random.default_rng(30)
    ref = rng.uniform(-5, 5, size=(2049, 3))
    sols = rng.uniform(-5, 5, size=(20, 3))
    assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist())


def test_igd_screen_exact_on_ties_and_duplicates():
    # Several solutions at exactly the same distance, and repeated rows, on
    # both sides; rounding to a coarse grid makes distances tie often.
    rng = np.random.default_rng(27)
    for case in range(60):
        m = int(rng.integers(2, 8))
        ref = np.round(rng.uniform(0, 1, size=(int(rng.integers(1, 120)), m)), 1)
        sols = np.round(rng.uniform(0, 1, size=(int(rng.integers(1, 40)), m)), 1)
        sols = np.vstack([sols, sols[rng.integers(0, len(sols), size=len(sols))]])
        ref = np.vstack([ref, ref[: len(ref) // 2]])
        assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), f"case {case}"
    # Solutions mirrored around a reference point are equidistant from it.
    centre = np.array([[0.5, 0.5, 0.5]])
    offsets = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
    sols = np.vstack([centre + offsets, centre - offsets])
    assert igd(centre, sols).value == naive_igd(centre.tolist(), sols.tolist())


@pytest.mark.parametrize("offset", [1e3, 1e6])
def test_igd_screen_exact_under_cancellation(offset):
    # A common offset leaves the distances alone but makes |r|^2 and |c|^2
    # huge next to them; at 1e6 the slack admits every pair of a row.
    rng = np.random.default_rng(28)
    for case in range(30):
        m = int(rng.integers(2, 16))
        ref = rng.uniform(0, 1, size=(int(rng.integers(1, 200)), m)) + offset
        sols = rng.uniform(0, 1, size=(int(rng.integers(1, 60)), m)) + offset
        assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), f"case {case}"


def test_igd_screen_exact_when_squares_overflow():
    # Finite input whose squares overflow: the screen's products give inf and
    # NaN, every pair stays a candidate and the loop's inf comes out.
    ref = np.array([[1e200, 0.0], [0.0, 1.0]])
    sols = np.array([[-1e200, 0.0], [0.0, 1e160]])
    with pytest.warns(RuntimeWarning, match="overflow"):  # the recompute's squares
        value = igd(ref, sols).value
    assert value == naive_igd(ref.tolist(), sols.tolist()) == math.inf
    near = np.array([[1e200, 1.0], [1e200, 2.0]])
    assert igd(near, near + [0.0, 0.5]).value == naive_igd(near.tolist(), (near + [0.0, 0.5]).tolist())


def test_igd_screen_exact_when_squares_underflow():
    # Squared distances near and below the smallest normal double round in
    # absolute, not relative, terms; a purely relative slack missed the
    # loop's minimiser in cases like these.
    rng = np.random.default_rng(31)
    for case in range(300):
        ref = rng.uniform(0, 1, size=(1, 3)) * 3e-161
        sols = rng.uniform(0, 1, size=(6, 3)) * 3e-161
        assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), f"case {case}"


def test_igd_screen_exact_below_float32_resolution():
    # Solutions whose squared distances to a reference row differ by a
    # relative 1e-12 to 1e-9: float32 cannot order them, float64 can, and
    # the loop's pick must win the recompute.
    rng = np.random.default_rng(32)
    for case in range(40):
        m = int(rng.integers(2, 12))
        ref = rng.uniform(0, 1, size=(int(rng.integers(1, 30)), m))
        dirs = rng.standard_normal((int(rng.integers(2, 40)), m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radius = 0.3 * (1.0 + rng.uniform(1e-12, 1e-9, size=(len(dirs), 1)))
        sols = ref[int(rng.integers(len(ref)))] + radius * dirs
        assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), f"case {case}"


def test_igd_screen_keeps_the_loops_pick_when_its_squares_underflow():
    # The loop rounds each square to a multiple of the smallest subnormal q:
    # 99.6 q becomes 100 q, and three squares of 33.45 q become 33 q each.
    # So it picks the second solution, which is the farther one by 0.75%.
    q = math.ldexp(1.0, -1074)
    x, y = math.sqrt(99.6) * 2.0**-537, math.sqrt(33.45) * 2.0**-537
    ref, sols = [[0.0, 0.0, 0.0]], [[x, 0.0, 0.0], [y, y, y]]
    assert igd(ref, sols).value == naive_igd(ref, sols) == math.sqrt(99 * q)


@pytest.mark.parametrize("m", [50, 100])
def test_igd_matches_naive_loop_at_many_objectives(m):
    # The top of the range the screen's slack is sized for, on spread sets
    # and on solutions nearly equidistant from a reference row.
    rng = np.random.default_rng(33 + m)
    for case in range(6):
        ref = rng.uniform(0, 1, size=(int(rng.integers(1, 60)), m))
        sols = rng.uniform(0, 1, size=(int(rng.integers(1, 40)), m))
        if case % 2:
            dirs = rng.standard_normal((len(sols), m))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            sols = ref[0] + 0.5 * (1.0 + rng.uniform(0, 1e-6, size=(len(sols), 1))) * dirs
        assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), f"case {case}"


@pytest.mark.parametrize("scale", [1e30, 1e-30])
def test_igd_screen_exact_outside_float32_range(scale):
    # Finite in float64, but squares overflow or underflow in float32 unless
    # the screen scales first; it must raise no floating-point warning.
    rng = np.random.default_rng(34)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in range(30):
            m = int(rng.integers(2, 12))
            ref = rng.uniform(0, 1, size=(int(rng.integers(1, 100)), m)) * scale
            sols = (rng.uniform(0, 1, size=(int(rng.integers(1, 40)), m)) + case % 3) * scale
            assert igd(ref, sols).value == naive_igd(ref.tolist(), sols.tolist()), f"case {case}"


def row_of(values, monkeypatch):
    """The results row that `run_experiment` builds from runs whose final IGDs
    are `values` (NaN for a run that fails)."""

    def stub(cfg, seed):
        value = values[seed]
        if np.isnan(value):
            raise RuntimeError("boom")
        return harness.RunRecord(
            config={}, seed=seed, igd_trace=[value], final_x=np.zeros((1, 1)),
            final_f=np.zeros((1, 1)), evaluations=1, duration=0.0,
        )

    monkeypatch.setattr(harness, "run_single", stub)
    (row,) = run_experiment([RunConfig(algorithm="nsga2")], runs=len(values))
    return row


def test_aggregate_single_value(monkeypatch):
    row = row_of([1.0], monkeypatch)
    assert row.mean_igd == 1.0 and row.std_igd == 0.0 and row.per_run == [1.0]


def test_aggregate_two_values(monkeypatch):
    row = row_of([1.0, 3.0], monkeypatch)
    assert row.mean_igd == 2.0 and row.std_igd == 1.0
    assert min(row.per_run) == 1.0 and max(row.per_run) == 3.0


def test_aggregate_mean_matches_two_pass_oracle(monkeypatch):
    vals = np.random.default_rng(25).uniform(1e-3, 1e3, size=10)
    row = row_of(list(vals), monkeypatch)
    first_pass = sum(float(v) for v in vals) / len(vals)
    # Two-pass: recenter then average the residuals.
    second_pass = first_pass + sum(float(v) - first_pass for v in vals) / len(vals)
    assert abs(row.mean_igd - second_pass) < 1e-12


def test_aggregate_rejects_empty(monkeypatch):
    # A row of no runs is refused before anything runs; a row whose runs all
    # failed has no finite value to aggregate and reads NaN.
    with pytest.raises(ConfigurationError):
        run_experiment([RunConfig(algorithm="nsga2")], runs=0)
    row = row_of([float("nan")] * 2, monkeypatch)
    assert np.isnan(row.mean_igd) and np.isnan(row.std_igd) and not row.best
