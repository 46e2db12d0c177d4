"""Property tests of the NSGA-II fast paths against their loop oracles.

Hypothesis searches rounded grids, copied rows and mixed -0.0 / 0.0, where
ties are the rule. Every search is derandomized and has a fixed example
count, so the suite runs the same cases every time.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rveawg.baselines import crowding_distance, dominance, environmental_select
from oracles import reference_crowding, reference_dominance, reference_select

SEARCH = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def objective_rows(draw, min_rows=0, max_rows=40):
    """Rows on a grid of one of a few spacings, some copied over others,
    some zeros negative. Entries are drawn one by one, and the lists start
    with their hardest values: the most columns and the spacings that are
    not powers of two."""
    n = draw(st.integers(min_rows, max_rows))
    m = draw(st.sampled_from([10, 5, 3, 2, 1]))
    step = draw(st.sampled_from([0.1, 1e-3, 0.5, 1.0]))
    objs = draw(arrays(np.int64, (n, m), elements=st.integers(-4, 4), fill=st.nothing())) * step
    negative = draw(arrays(np.bool_, (n, m), fill=st.nothing()))
    objs[(objs == 0.0) & negative] = -0.0
    if n >= 2:
        for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
            objs[dst] = objs[src]
    return objs


@SEARCH
@given(objective_rows())
def test_dominance_matches_broadcast_reference_on_ties(objs):
    assert np.array_equal(dominance(objs), reference_dominance(objs))


@SEARCH
@given(st.data())
def test_crowding_matches_per_column_loop_on_ties(data):
    objs = data.draw(objective_rows(min_rows=1))
    size = len(objs)
    subset = data.draw(st.permutations(range(size)))[: data.draw(st.integers(1, size))]
    for front in (np.arange(size), np.array(subset)):
        assert crowding_distance(objs, front).tobytes() == reference_crowding(objs, front).tobytes()


@SEARCH
@given(st.data())
def test_environmental_select_matches_deb_loop_on_ties(data):
    objs = data.draw(objective_rows(min_rows=1))
    n_pop = data.draw(st.integers(1, len(objs)))
    survivors, rank, crowding = environmental_select(objs, dominance(objs), n_pop)
    want, full_rank, full_crowding = reference_select(objs, n_pop)
    assert np.array_equal(survivors, want)
    assert np.array_equal(rank[survivors], full_rank[survivors])
    assert crowding[survivors].tobytes() == full_crowding[survivors].tobytes()
    # Past the boundary front a rank is a lower bound on the true one.
    assert np.all(rank <= full_rank)
    # The sort stops at the boundary front: every row past it gets the next
    # rank and no crowding.
    past = rank > rank[survivors].max()
    assert np.all(rank[past] == rank[survivors].max() + 1) and not crowding[past].any()
