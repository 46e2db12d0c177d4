import numpy as np
import pytest

from rveawg import evaluate, init_population, make_problem, sbx_crossover
from rveawg.baselines import (
    crowding_distance,
    dominance,
    environmental_select,
    fast_nondominated_sort,
    nsga2_generation,
)
from rveawg.core import child
from rveawg.variation import mutate_matrix

from oracles import (
    brute_force_fronts,
    deb_reference_sort,
    dominates,
    reference_crowding,
    reference_dominance,
    reference_select,
)


def deb_rank_crowding(objs):
    """Rank and crowding distance of every row, the crowding taken over each
    of `deb_reference_sort`'s fronts."""
    _, rank, crowding = reference_select(objs, len(objs))
    return rank, crowding


def reference_generation(xs, fs, rank, crowding, problem, rng):
    """One NSGA-II generation mating one pair at a time, on the same
    up-front draws: two binary tournaments on the parents' carried rank and
    crowding, then SBX (eta_c = 20) with its own two rows of draws, per pair
    of children. Deb's loop then forms the survivors one union front at a
    time from `deb_reference_sort`, assigning each front's crowding as it
    admits it (`reference_select`); it builds no bitsets and stops no sort
    early."""
    n_pop = len(xs)

    def tournament(i, j):
        if rank[i] != rank[j]:
            return i if rank[i] < rank[j] else j
        if crowding[i] != crowding[j]:
            return i if crowding[i] > crowding[j] else j
        return i

    pairs = (n_pop + 1) // 2
    picks = rng.integers(0, n_pop, size=(pairs, 4))
    u = rng.random((pairs, 2, problem.n))
    children = []
    for k in range(pairs):
        p1 = tournament(int(picks[k, 0]), int(picks[k, 1]))
        p2 = tournament(int(picks[k, 2]), int(picks[k, 3]))
        u_cross, u_beta = u[k]
        c1, c2 = sbx_crossover(xs[p1], xs[p2], u_cross, u_beta, problem.lower, problem.upper)
        children.extend([c1, c2])
    child_x = mutate_matrix(np.array(children[:n_pop]), problem.lower, problem.upper, rng)
    union_x = np.vstack([xs, child_x])
    union_f = np.vstack([fs, evaluate(child_x, problem)])
    survivors, union_rank, union_crowding = reference_select(union_f, n_pop)
    return union_x[survivors], union_f[survivors], union_rank[survivors], union_crowding[survivors]


def test_dominates_truth_table():
    assert dominates([1, 2], [2, 3])
    assert not dominates([1, 2], [1, 2])
    assert not dominates([1, 3], [2, 2])
    assert dominates([1, 2], [1, 3])


def test_dominates_rejects_length_mismatch():
    with pytest.raises(ValueError):
        dominates([1, 2], [1, 2, 3])


def test_sort_all_nondominated():
    objs = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    rank, fronts = fast_nondominated_sort(dominance(objs))
    assert np.array_equal(rank, [0, 0, 0])
    assert sorted(fronts[0]) == [0, 1, 2]


def test_sort_chain():
    objs = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    rank, fronts = fast_nondominated_sort(dominance(objs))
    assert np.array_equal(rank, [0, 1, 2])
    assert [sorted(f) for f in fronts] == [[0], [1], [2]]


def test_sort_matches_brute_force_on_random_populations():
    rng = np.random.default_rng(101)
    for case in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 6))
        objs = np.round(rng.uniform(0, 1, size=(n, m)), 2)  # rounding forces ties
        _, fronts = fast_nondominated_sort(dominance(objs))
        assert [sorted(f) for f in fronts] == brute_force_fronts(objs), f"case {case}"


def test_sort_matches_deb_loop_front_order():
    # Equal ranks and equal fronts element by element, not only as sets: ties
    # from rounding, exact duplicate rows, n up to 600 and M from 2 to 10. The
    # first 20 cases are M=2 chains with many fronts, each member fed by
    # several dominators in the front before it.
    rng = np.random.default_rng(102)
    for case in range(80):
        if case < 20:
            objs = np.round(rng.uniform(0, 1, size=(int(rng.integers(50, 300)), 2)), 2)
        else:
            n = int(rng.integers(1, 601)) if case % 4 == 0 else int(rng.integers(1, 120))
            objs = rng.uniform(0, 1, size=(n, int(rng.integers(2, 11))))
            if case % 3 == 0:
                objs = np.round(objs, 1)
            if case % 2 == 0:
                dup = rng.integers(0, n, size=n // 3)
                objs[rng.integers(0, n, size=dup.size)] = objs[dup]
        rank, fronts = fast_nondominated_sort(dominance(objs))
        ref_rank, ref_fronts = deb_reference_sort(objs)
        assert case >= 20 or len(fronts) > 5
        assert np.array_equal(rank, ref_rank), f"case {case}"
        assert [front.tolist() for front in fronts] == ref_fronts, f"case {case}"


def test_sort_empty_and_all_equal():
    rank, fronts = fast_nondominated_sort(dominance(np.zeros((0, 3))))
    assert rank.shape == (0,) and fronts == []
    rank, fronts = fast_nondominated_sort(dominance(np.ones((5, 3))))
    assert np.array_equal(rank, np.zeros(5)) and [front.tolist() for front in fronts] == [[0, 1, 2, 3, 4]]


@pytest.mark.parametrize("m", [1, 2, 3, 10])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 550])
def test_dominance_matches_broadcast_reference(n, m):
    # n around the 8-bit and 64-bit packing edges; rounding forces ties, and
    # copied rows and mixed -0.0 / 0.0 make equal rows and equal values.
    rng = np.random.default_rng(1000 * n + m)
    for decimals in (1, 2, None):
        objs = rng.uniform(-1, 1, size=(n, m))
        if decimals is not None:
            objs = np.round(objs, decimals)
        if n >= 4:
            objs[rng.integers(0, n, size=n // 4)] = objs[rng.integers(0, n, size=n // 4)]
            objs[: n // 2, 0] = np.where(rng.random(n // 2) < 0.5, -0.0, 0.0)
        got = dominance(objs)
        assert got.dtype == bool and got.shape == (n, n)
        assert np.array_equal(got, reference_dominance(objs))


def test_crowding_boundaries_infinite_interior_hand_value():
    objs = np.array([[0.0, 4.0], [1.0, 2.0], [4.0, 0.0]])
    dist = crowding_distance(objs, [0, 1, 2])
    assert dist[0] == np.inf and dist[2] == np.inf
    # Interior point: (4-0)/4 + (4-0)/4 = 2.
    assert abs(dist[1] - 2.0) < 1e-12


def test_crowding_small_front_all_infinite():
    objs = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.all(np.isinf(crowding_distance(objs, [0, 1])))


@pytest.mark.parametrize("size", [1, 2, 3, 500])
@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_crowding_matches_per_column_loop(size, m):
    # Bit for bit, with a constant column, rounded ties, copied rows and mixed
    # -0.0 / 0.0, on the whole front and on a shuffled subset of its rows.
    rng = np.random.default_rng(5000 + 10 * size + m)
    for decimals in (1, 3, None):
        objs = rng.uniform(-1, 1, size=(size, m))
        if decimals is not None:
            objs = np.round(objs, decimals)
        if size >= 4:
            objs[rng.integers(0, size, size=size // 4)] = objs[rng.integers(0, size, size=size // 4)]
            objs[: size // 2, 0] = np.where(rng.random(size // 2) < 0.5, -0.0, 0.0)
        objs[:, m - 1] = 0.25
        for front in (np.arange(size), rng.permutation(size)[: max(1, size // 2)]):
            got = crowding_distance(objs, front)
            assert got.tobytes() == reference_crowding(objs, front).tobytes()


@pytest.mark.parametrize("size", [16, 17, 500])
def test_crowding_puts_ties_back_in_front_order(size):
    # Few distinct values, copied rows and mixed -0.0 / 0.0: numpy's default
    # argsort, which crowding_distance uses, puts tied rows of this front out
    # of front order. That is checked first, so the test cannot pass on a
    # front the default sort happens to keep stable; the distances must still
    # equal the stable per-column loop's bit for bit.
    rng = np.random.default_rng(5500 + size)
    objs = rng.integers(0, 4, size=(size, 3)) * 0.5
    objs[rng.integers(0, size, size=size // 4)] = objs[rng.integers(0, size, size=size // 4)]
    objs[objs == 0.0] = np.where(rng.random(np.count_nonzero(objs == 0.0)) < 0.5, -0.0, 0.0)
    cols = objs.T
    reordered = not np.array_equal(np.argsort(cols, axis=1), np.argsort(cols, axis=1, kind="stable"))
    if not reordered and size <= 16:
        # Without AVX-512 numpy insertion-sorts 16 or fewer values, stably.
        pytest.skip("this numpy build's argsort keeps ties in order on 16 values")
    assert reordered, "the default argsort kept every tie of this front in order"
    for front in (np.arange(size), rng.permutation(size)[: size // 2 + 1]):
        assert crowding_distance(objs, front).tobytes() == reference_crowding(objs, front).tobytes()


class GatherCount(np.ndarray):
    """A dominance matrix that counts its row gathers, dom[front]."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            GatherCount.gathers += 1
        return super().__getitem__(key)


def test_sort_stops_at_the_boundary_front():
    # The first front alone holds more than the target: one front, no gather.
    rng = np.random.default_rng(2500)
    objs = rng.uniform(0, 1, size=(60, 10))
    full_rank, full_fronts = fast_nondominated_sort(dominance(objs))
    first = full_fronts[0].size
    assert len(full_fronts) > 1 and first > 20
    GatherCount.gathers = 0
    rank, fronts = fast_nondominated_sort(dominance(objs).view(GatherCount), 20)
    assert len(fronts) == 1 and GatherCount.gathers == 0
    assert np.array_equal(fronts[0], full_fronts[0])
    assert np.array_equal(rank[fronts[0]], np.zeros(first)) and np.all(np.delete(rank, fronts[0]) == 1)
    # Otherwise the sort peels the fronts the full sort does, up to the first
    # that reaches the target, one gather per front before it. A target past
    # the row count, like none, peels every front and gathers each.
    objs = np.round(rng.uniform(0, 1, size=(200, 2)), 2)
    _, full_fronts = fast_nondominated_sort(dominance(objs))
    reached = np.cumsum([f.size for f in full_fronts])
    for target in (1, reached[0], reached[0] + 1, reached[3], 199, 200, 201, None):
        GatherCount.gathers = 0
        _, fronts = fast_nondominated_sort(dominance(objs).view(GatherCount), target)
        if target is None or target > 200:
            count, gathers = len(full_fronts), len(full_fronts)
        else:
            count = int(np.searchsorted(reached, target)) + 1
            gathers = count - 1
        assert len(fronts) == count and GatherCount.gathers == gathers, f"target {target}"
        assert all(np.array_equal(a, b) for a, b in zip(fronts, full_fronts))


@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_boundary_stop_matches_full_sort_selection(m):
    # Survivors in order, their ranks and their crowding distances equal a
    # full sort's bit for bit, for n_pop from one row to the whole union.
    # Rows past the boundary front rank no better than any survivor and no
    # worse than their true rank.
    rng = np.random.default_rng(2600 + m)
    for case in range(12):
        size = int(rng.integers(2, 160))
        objs = rng.uniform(0, 1, size=(size, m))
        if case % 2 == 0:
            objs = np.round(objs, 1)
        objs[rng.integers(0, size, size=size // 4)] = objs[rng.integers(0, size, size=size // 4)]
        for n_pop in sorted({1, 2, size // 3, size // 2, size - 1, size} - {0}):
            survivors, rank, crowding = environmental_select(objs, dominance(objs), n_pop)
            want, full_rank, full_crowding = reference_select(objs, n_pop)
            assert np.array_equal(survivors, want), f"case {case}, n_pop {n_pop}"
            assert np.array_equal(rank[survivors], full_rank[survivors])
            assert crowding[survivors].tobytes() == full_crowding[survivors].tobytes()
            past = rank > rank[survivors].max()
            assert np.all(rank[~past] == full_rank[~past])
            assert np.all(rank[past] <= full_rank[past])
            if n_pop == size:
                assert np.array_equal(rank, full_rank)


def test_generation_preserves_size():
    # The carried ranks stay those of a fresh sort of the survivors.
    problem = make_problem("dtlz2", 3)
    rng = np.random.default_rng(5)
    xs = init_population(problem, 24, child(rng, "init"))
    fs = evaluate(xs, problem)
    loop = child(rng, "loop")
    _, rank, crowding = environmental_select(fs, dominance(fs), 24)
    for _ in range(10):
        xs, fs, rank, crowding = nsga2_generation(xs, fs, rank, crowding, problem, loop)
        assert xs.shape == (24, problem.n) and fs.shape == (24, 3)
        assert rank.shape == crowding.shape == (24,)
        assert np.array_equal(fs, evaluate(xs, problem))
        assert np.array_equal(rank, fast_nondominated_sort(dominance(fs))[0])


@pytest.mark.parametrize("name, m, n_pop", [("dtlz2", 3, 24), ("dtlz2", 3, 25), ("dtlz1", 10, 51), ("lsmop1", 3, 1)])
def test_generation_matches_per_pair_reference(name, m, n_pop):
    # Same survivors, ranks and crowding distances bit for bit and the same
    # stream position afterwards, for even and odd population sizes, starting
    # from the initial population's values in its own order. A population of
    # copies makes every tournament a crowding tie.
    problem = make_problem(name, m)
    rng = np.random.default_rng(7 + n_pop)
    start = init_population(problem, n_pop, child(rng, "init"))
    for xs in (start, np.repeat(start[:1], n_pop, axis=0)):
        fs = evaluate(xs, problem)
        kept, rank, crowding = environmental_select(fs, dominance(fs), n_pop)
        ref_rank, ref_crowding = deb_rank_crowding(fs)
        assert sorted(kept.tolist()) == list(range(n_pop))  # every row kept
        assert np.array_equal(rank, ref_rank) and np.array_equal(crowding, ref_crowding)
        ref_x, ref_f = xs, fs
        fast, slow = child(rng, "loop"), child(rng, "loop")
        for _ in range(4):
            xs, fs, rank, crowding = nsga2_generation(xs, fs, rank, crowding, problem, fast)
            ref_x, ref_f, ref_rank, ref_crowding = reference_generation(
                ref_x, ref_f, ref_rank, ref_crowding, problem, slow
            )
            assert np.array_equal(xs, ref_x) and np.array_equal(fs, ref_f)
            assert np.array_equal(rank, ref_rank) and np.array_equal(crowding, ref_crowding)
            assert fast.bit_generator.state == slow.bit_generator.state


def test_environmental_selection_is_rank_prefix():
    # No discarded individual may outrank a kept one.
    rng = np.random.default_rng(55)
    for _ in range(20):
        size = int(rng.integers(10, 40))
        objs = rng.uniform(0, 1, size=(size, 3))
        keep = int(rng.integers(1, size))
        selected, rank, _ = environmental_select(objs, dominance(objs), keep)
        assert len(selected) == keep == len(set(selected.tolist()))
        dropped = np.setdiff1d(np.arange(size), selected)
        assert rank[selected].max() <= rank[dropped].min()


@pytest.mark.parametrize("m", [2, 3, 5])
def test_selected_ranks_equal_a_fresh_sort_of_the_survivors(m):
    # The invariant that makes carried ranks exact: every dominator of a
    # survivor lies in a front kept whole, so the union's ranks of the
    # survivors are their ranks among themselves. Rounding to 2 decimals makes
    # ties and duplicate rows common; n_pop runs from one row to the whole union.
    rng = np.random.default_rng(2300 + m)
    for case in range(40):
        size = int(rng.integers(2, 120))
        objs = np.round(rng.uniform(0, 1, size=(size, m)), 2)
        objs[rng.integers(0, size, size=size // 4)] = objs[rng.integers(0, size, size=size // 4)]
        for n_pop in sorted({1, size // 3, size // 2, size - 1, size} - {0}):
            survivors, rank, _ = environmental_select(objs, dominance(objs), n_pop)
            own_rank, _ = fast_nondominated_sort(dominance(objs[survivors]))
            assert np.array_equal(rank[survivors], own_rank), f"case {case}, n_pop {n_pop}"


def test_generation_handles_identical_population():
    problem = make_problem("dtlz2", 3)
    rng = np.random.default_rng(6)
    xs = np.repeat(init_population(problem, 1, rng), 12, axis=0)
    fs = evaluate(xs, problem)
    _, rank, crowding = environmental_select(fs, dominance(fs), 12)
    out_x, out_f, out_rank, _ = nsga2_generation(xs, fs, rank, crowding, problem, rng)
    assert out_x.shape == (12, problem.n) and out_f.shape == (12, 3)
    assert np.array_equal(out_rank, fast_nondominated_sort(dominance(out_f))[0])


def test_nsga2_run_builds_one_dominance_matrix_per_population(monkeypatch):
    # The initial population's matrix and sort, and one union matrix and sort
    # per generation: the survivors' ranks and crowding distances are carried
    # from the selection, never recomputed. nsga2_generation stays the
    # per-generation call the benchmark's set-up probe waits for.
    from rveawg import RunConfig, baselines, harness, run_single

    calls = {"dominance": 0, "fast_nondominated_sort": 0, "nsga2_generation": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    spy = counted(baselines.dominance)
    monkeypatch.setattr(baselines, "dominance", spy)
    monkeypatch.setattr(harness, "dominance", spy)
    monkeypatch.setattr(baselines, "fast_nondominated_sort", counted(baselines.fast_nondominated_sort))
    monkeypatch.setattr(harness, "nsga2_generation", counted(baselines.nsga2_generation))
    cfg = RunConfig(algorithm="nsga2", problem="dtlz2", objectives=3, pop_size=20, generations=15)
    run_single(cfg, 0)
    assert calls == {"dominance": 16, "fast_nondominated_sort": 16, "nsga2_generation": 15}


def test_nsga2_run_follows_the_reference_loop():
    # A run's generations are the per-pair reference's, started from the
    # initial population's ranks and crowding distances in its own order.
    from rveawg import RunConfig, run_single

    cfg = RunConfig(algorithm="nsga2", problem="dtlz2", objectives=3, pop_size=20, generations=5)
    record = run_single(cfg, 3)
    problem = make_problem("dtlz2", 3)
    rng = np.random.default_rng(3)
    xs = init_population(problem, record.config["resolved_pop_size"], child(rng, "init"))
    fs = evaluate(xs, problem)
    rank, crowding = deb_rank_crowding(fs)
    loop = child(rng, "nsga2")
    for _ in range(cfg.generations):
        xs, fs, rank, crowding = reference_generation(xs, fs, rank, crowding, problem, loop)
    assert np.array_equal(record.final_x, xs) and np.array_equal(record.final_f, fs)


def test_nsga2_improves_dtlz2_quickly():
    from rveawg import RunConfig, run_single

    cfg = RunConfig(algorithm="nsga2", problem="dtlz2", objectives=3, pop_size=50, generations=15)
    record = run_single(cfg, 0)
    assert record.igd_trace[-1] < min(1.0, record.igd_trace[0])


def test_nsga2_dtlz2_matches_published_magnitude():
    # Benchmark protocol, 10 seeds; published mean for this setting is
    # 9.2858e-2 and only the order of magnitude is comparable across
    # implementations.
    from rveawg import RunConfig, run_experiment

    cfg = RunConfig(algorithm="nsga2", problem="dtlz2", objectives=3, generations=15)
    row = run_experiment([cfg], runs=10, seed=0)[0]
    assert 9.2858e-3 < row.mean_igd < 9.2858e-1
