"""Property tests of the two remaining exactness claims against their loops.

- ``igd`` equals the literal double loop ``naive_igd`` bit for bit. The
  search draws M from 1 to 12, rows on rounded grids, rows copied within and
  across the two sets, mixed -0.0 / 0.0, and scales from 1e-30 to 1e30 under
  a common offset up to a million times the scale, which turns the grid's
  exact distance ties into ties broken in the last bits.
- APD selection's one stable sort keeps, in each partition, the first row of
  least APD, as a loop over the rows does on the same assignment and the same
  distances (``apd_partitions``). The claim is the sort, not the cosine
  arithmetic. The search draws grids, copied rows and rows at the ideal point,
  where copies tie exactly and the ideal rows all sit at APD 0 in partition 0.

Every search is derandomized and has a fixed example count, so the suite runs
the same cases every time.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rveawg import igd, simplex_lattice, to_unit_vectors
from rveawg.selection import apd_partitions, elitism_select

from oracles import naive_igd

SEARCH = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def grid_rows(draw, rows, m):
    """`rows` (rows, m) points on a grid of one of a few spacings, some copied
    over others, some zeros negative."""
    step = draw(st.sampled_from([0.1, 1e-3, 0.5, 1.0]))
    points = draw(arrays(np.int64, (rows, m), elements=st.integers(-4, 4), fill=st.nothing())) * step
    negative = draw(arrays(np.bool_, (rows, m), fill=st.nothing()))
    points[(points == 0.0) & negative] = -0.0
    if rows >= 2:
        for dst, src in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)), max_size=rows)):
            points[dst] = points[src]
    return points


@SEARCH
@given(st.data())
def test_igd_equals_double_loop(data):
    m = data.draw(st.integers(1, 12))
    k, n = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
    # One grid for both sets, so that copies cross between them.
    points = data.draw(grid_rows(k + n, m))
    scale = 10.0 ** data.draw(st.integers(-30, 30))
    offset = data.draw(st.sampled_from([1e6, 1e3, 1.0, 0.0]))
    points = points * scale + offset * scale
    reference, solutions = points[:k], points[k:]
    assert igd(reference, solutions).value == naive_igd(reference.tolist(), solutions.tolist())


@SEARCH
@given(st.data())
def test_apd_selection_keeps_each_partitions_first_minimum(data):
    m = data.draw(st.integers(2, 5))
    vectors = to_unit_vectors(simplex_lattice(m, data.draw(st.integers(1, 6 if m <= 3 else 3))))
    objs = data.draw(grid_rows(data.draw(st.integers(1, 40)), m))
    ideal = data.draw(st.lists(st.integers(0, len(objs) - 1), max_size=3))
    objs[ideal] = objs.min(axis=0)
    t_max = data.draw(st.integers(1, 20))
    t = data.draw(st.integers(0, t_max))
    assignment, distances = apd_partitions(objs, vectors, t, t_max)
    first = {}
    for row, (k, d) in enumerate(zip(assignment.tolist(), distances.tolist())):
        if k not in first or d < distances[first[k]]:
            first[k] = row
    want = [first[k] for k in sorted(first)]
    assert elitism_select(objs, vectors, t, t_max).selected_indices.tolist() == want
