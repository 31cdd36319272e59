"""The SCC pass: the in-place CSR of range graphs, the component selection,
the 2-D sweeps and the edge cap.

The oracles are the earlier implementations: a COO matrix merged by
``tocsr`` for the graph, and a loop over every component for the selection.
The CSR built in place lays each cell's ranges out disjoint and in order
first, so it must equal the oracle entry for entry.
"""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from chainscope import systems
from chainscope.errors import ResourceLimitError
from chainscope.geometry import CellSet, Domain, Grid
from chainscope.systems import (
    System,
    affine2d,
    drift_control,
    logistic,
    rotation,
    square,
)
from chainscope.transition import TransitionGraph, build_graph, recurrent_cells

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def coo_csr(n, rows, cols):
    """0/1 adjacency with an edge at each (row, col), repeats merged."""
    m = sp.coo_matrix((np.ones(rows.size, dtype=np.uint8), (rows, cols)),
                      shape=(n, n)).tocsr()
    m.data[:] = 1
    return m


def oracle_range_csr(g):
    n, length = g.cells.size, g.length.ravel()
    rows = np.repeat(np.tile(np.arange(n), g.start.shape[0]), length)
    cols = np.arange(int(length.sum()), dtype=np.int64)
    cols += np.repeat(g.start.ravel() - (np.cumsum(length) - length), length)
    return coo_csr(n, rows, cols % n)


def oracle_components(g):
    """One group per SCC label; keep those with two cells or a self-loop."""
    _, labels = connected_components(oracle_range_csr(g), directed=True,
                                     connection="strong")
    loops = g.self_loops()
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    comps = [np.sort(m) for m in groups if m.size >= 2 or loops[m[0]]]
    comps.sort(key=lambda m: int(m[0]))
    return comps


def check_against_oracles(g):
    csr = g.to_csr()
    assert csr.indices.dtype == np.int32 and csr.data.dtype == np.float64
    assert np.all(csr.data == 1)
    want = oracle_range_csr(g)
    assert np.array_equal(csr.indptr, want.indptr)
    assert np.array_equal(csr.indices, want.indices)
    got = [c.indices() for c in recurrent_cells(g)]
    want = oracle_components(g)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


BUILT = {
    "square": (square, Domain.box([[0, 1]])),
    "logistic": (lambda: logistic(3.7), Domain.box([[0, 1]])),
    "rotation": (lambda: rotation(0.37), Domain.circle()),
    "drift_control": (lambda: drift_control(0.5, (-0.3, 0.0, 0.45)),
                      Domain.box([[-1, 1]])),
}


@SETTINGS
@given(which=st.sampled_from(sorted(BUILT)), n=st.integers(5, 161),
       eps_frac=st.floats(0.0, 1.05))
def test_built_graph_csr_and_components_match_oracles(which, n, eps_frac):
    # eps_frac near 1 makes ranges full length (box ranges clip at both ends,
    # circle ranges cover the circle); rotation ranges wrap past n - 1
    factory, domain = BUILT[which]
    grid = Grid(domain, n)
    eps_cells = max(4.0, eps_frac * n)
    check_against_oracles(build_graph(factory(), grid, eps_cells * grid.cell_diameter))


def range_graph(start, length):
    """The graph of the given ranges on a circle grid, one row per control."""
    start, length = np.array(start, np.int64), np.array(length, np.int64)
    k, n = start.shape
    sys = System("ranges", Domain.circle(), {}, tuple(range(k)), 1.0, None)
    return TransitionGraph(sys, Grid(Domain.circle(), n), 1.0, start, length)


@st.composite
def range_graphs(draw):
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 3))
    start = draw(st.lists(st.integers(0, n - 1), min_size=k * n, max_size=k * n))
    length = draw(st.lists(st.integers(1, n), min_size=k * n, max_size=k * n))
    return range_graph(np.reshape(start, (k, n)), np.reshape(length, (k, n)))


def test_components_keep_pairs_and_self_loops():
    # 0 <-> 1 is kept without a self-loop and 4 alone by its loop; 2 and 3
    # are trivial; components come in the order of their smallest member
    g = range_graph([[1, 0, 3, 0, 4, 6, 5]], [[1, 1, 1, 1, 1, 1, 1]])
    got = [c.indices().tolist() for c in recurrent_cells(g)]
    assert got == [[0, 1], [4], [5, 6]]
    check_against_oracles(g)


@SETTINGS
@given(g=range_graphs())
def test_wrapped_range_csr_and_components_match_oracles(g):
    check_against_oracles(g)


# --------------------------------------------------------------------------
# 2-D sweeps: a cell with 256 predecessors must not be dropped
# --------------------------------------------------------------------------

SKEW = affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15])


def test_2d_sweeps_of_complete_graph_cover_the_grid():
    grid = Grid(SKEW.domain, (16, 16))
    g = build_graph(SKEW, grid, 1e300)
    full = CellSet.full(grid)
    assert g.image_of(full) == full
    assert g.preimage_of(full) == full


@pytest.mark.parametrize("cells,diameters", [((16, 16), 1e300), ((64, 64), 10)])
def test_2d_sweeps_match_integer_matvec(cells, diameters):
    grid = Grid(SKEW.domain, cells)
    g = build_graph(SKEW, grid, diameters * grid.cell_diameter)
    m = g.to_csr().astype(np.int64)
    rng = np.random.default_rng(59)
    for density in (0.05, 0.5, 1.0):
        for _ in range(3):
            mask = rng.random(grid.n_cells) < density
            vec = mask.astype(np.int64)
            cells_ = CellSet(grid, mask.reshape(grid.shape))
            assert np.array_equal(g.image_of(cells_).mask.reshape(-1), vec @ m > 0)
            assert np.array_equal(g.preimage_of(cells_).mask.reshape(-1), m @ vec > 0)


@SETTINGS
@given(shape=st.tuples(st.integers(6, 24), st.integers(6, 24)),
       diameters=st.floats(4.0, 8.0), data=st.data())
def test_2d_images_over_padding_rows_match_adjacency(shape, diameters, data):
    # the rows of an image that fall outside the grid are (0, 0) ranges;
    # the union over a few cells' rows must equal the adjacency, on the
    # whole grid and on the subgraph of some candidates
    grid = Grid(SKEW.domain, shape)
    n = grid.n_cells
    cands = data.draw(st.one_of(
        st.none(), st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
    cells = None if cands is None else CellSet.from_indices(grid, cands)
    g = build_graph(SKEW, grid, diameters * grid.cell_diameter, cells)
    m = g.cells.size
    assert np.any((g.length == 0) & (g.start == 0))
    adj = g.to_csr().astype(np.int64)
    for _ in range(3):
        local = np.zeros(m, bool)
        local[data.draw(st.lists(st.integers(0, m - 1), max_size=5))] = True
        want = np.zeros(n, bool)
        want[g.cells] = local.astype(np.int64) @ adj > 0
        got = g.image_of(CellSet.from_indices(grid, g.cells[local]))
        assert np.array_equal(got.mask.reshape(-1), want)


# --------------------------------------------------------------------------
# memory and the edge cap
# --------------------------------------------------------------------------

def test_recurrent_cells_peak_memory_per_edge():
    # about 8 B per edge (int32 indices; the data is one broadcast value)
    # plus O(n); merging a COO through tocsr and letting scipy copy the data
    # took about 30
    sys = logistic(3.7)
    grid = Grid(sys.domain, 1 << 16)
    g = build_graph(sys, grid, 16 * grid.cell_diameter)
    edges = g.edge_count()
    tracemalloc.start()
    try:
        comps = recurrent_cells(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert comps
    assert peak <= 9 * edges + 64 * grid.n_cells, peak / edges


def test_to_csr_peak_memory_per_edge():
    # the int32 indices are laid out beside one int32 arange, and the data
    # is one broadcast value: 8 B per edge at the peak, plus O(ranges);
    # scipy.sparse is imported above, so its import is not traced
    sys = logistic(3.7)
    grid = Grid(sys.domain, 1 << 16)
    g = build_graph(sys, grid, 16 * grid.cell_diameter)
    edges, ranges = g.edge_count(), g.length.size
    tracemalloc.start()
    try:
        csr = g.to_csr()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert csr.nnz == edges
    assert peak <= 9 * edges + 64 * ranges, peak / edges


def _peak_while_raising(fn):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as info:
            fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, str(info.value)


def test_patched_edge_cap_stops_1d_before_allocation(monkeypatch):
    # the complete graph: edges = n^2, far above the O(n) range merge
    g = build_graph(logistic(3.7), Grid(Domain.box([[0, 1]]), 4096), 1e300)
    edges = g.edge_count()
    monkeypatch.setattr(systems, "MAX_EXPLICIT_EDGES", edges - 1)
    for fn in (g.to_csr, lambda: recurrent_cells(g)):
        peak, msg = _peak_while_raising(fn)
        assert peak < edges, peak
        assert f"{edges} edges" in msg and f"{8 * edges} bytes" in msg
        assert f"MAX_EXPLICIT_EDGES={edges - 1}" in msg


def test_patched_edge_cap_stops_2d_build_early(monkeypatch):
    grid = Grid(SKEW.domain, (64, 64))
    edges = grid.n_cells ** 2          # eps 1e300: the complete graph
    monkeypatch.setattr(systems, "MAX_EXPLICIT_EDGES", 1000)
    peak, msg = _peak_while_raising(lambda: build_graph(SKEW, grid, 1e300))
    assert peak < edges, peak
    assert "ranges" in msg and "MAX_EXPLICIT_EDGES=1000" in msg
