"""Subdivision: each refinement level is built on the refined cells of the
level before.

The premise: every edge of the level-k graph (grid refined twice, eps
halved) has a level-(k-1) edge between the parents of its ends.  Then every
nontrivial SCC and all of the reach of level k lie in the refinement of
level k-1's, and a graph built on those candidate cells gives the same
components and reach as the graph on every cell.  A graph built on any
candidate set must equal the subgraph those cells induce in the full graph.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from chainscope import systems
from chainscope.errors import GridMismatchError, ResourceLimitError
from chainscope.geometry import CellSet, Domain, Grid, fatten
from chainscope.minimal import _coarsen_indices
from chainscope.reachability import chain_reach
from chainscope.systems import (
    System,
    _cell_images,
    affine2d,
    constant,
    drift_control,
    identity_map,
    logistic,
    rotation,
    square,
)
from chainscope.transition import (
    TransitionGraph,
    build_graph,
    extract_path,
    forward_reach,
    forward_reach_depths,
    recurrent_cells,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)
BOX = Domain.box([[0.0, 1.0]])
UNIT2 = Domain.box([[0.0, 1.0], [0.0, 1.0]])

# every catalog system; the circle wraps, drift_control has three controls
CASES = {
    "square": (square, BOX),
    "logistic": (lambda: logistic(3.7), BOX),
    "identity": (identity_map, BOX),
    "constant": (lambda: constant(0.3), BOX),
    "rotation": (lambda: rotation(0.37), Domain.circle()),
    "drift_control": (lambda: drift_control(0.5, (-0.3, 0.0, 0.45)),
                      Domain.box([[-1, 1]])),
    "affine2d": (lambda: affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]), UNIT2),
    "affine2d-turn": (lambda: affine2d([[0.0, -0.45], [0.45, 0.0]], [0.5, 0.3]),
                      UNIT2),
}
EPS_CELLS = st.sampled_from([4.0, 4.5, 6.0, 11.0, 1e300])


@st.composite
def coarse_grids(draw):
    """A system, its level-0 grid and an eps in cell diameters."""
    name = draw(st.sampled_from(sorted(CASES)))
    factory, domain = CASES[name]
    if domain.ndim == 1:
        cells = draw(st.integers(3, 80))
    else:
        cells = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    grid = Grid(domain, cells)
    return factory(), grid, draw(EPS_CELLS) * grid.cell_diameter


def edge_keys(g):
    """Each edge of a graph on every cell as src * n + dst."""
    csr = g.to_csr().tocoo()
    return csr.row.astype(np.int64) * g.n_cells + csr.col


def union(comps, grid):
    out = CellSet.empty(grid)
    for c in comps:
        out = out | c
    return out


# --------------------------------------------------------------------------
# the premise
# --------------------------------------------------------------------------

@SETTINGS
@given(case=coarse_grids())
def test_every_fine_edge_has_a_coarse_parent_edge(case):
    sys, coarse, eps = case
    fine = coarse.refine(2)
    keys = edge_keys(build_graph(sys, fine, eps / 2))
    src, dst = np.divmod(keys, fine.n_cells)
    parents = (_coarsen_indices(src, fine, 2) * coarse.n_cells
               + _coarsen_indices(dst, fine, 2))
    assert np.isin(parents, edge_keys(build_graph(sys, coarse, eps))).all()


@pytest.mark.parametrize("eps_cells", [4.5, 11.0])
@pytest.mark.parametrize("name", sorted(CASES))
def test_every_finest_component_lies_in_one_level_0_component(name, eps_cells):
    """The census reads a finest component's level-0 ancestor at its first
    cell: all of the component's coarsened cells carry that one label."""
    factory, domain = CASES[name]
    sys = factory()
    grid0 = Grid(domain, 64 if domain.ndim == 1 else (8, 8))
    levels, eps0 = (3 if domain.ndim == 1 else 2), eps_cells * grid0.cell_diameter
    label_0 = np.full(grid0.n_cells, -1)
    kept = None
    for k in range(levels):
        grid_k = grid0.refine(2 ** k)
        comps = recurrent_cells(build_graph(sys, grid_k, eps0 / 2 ** k,
                                            kept.refine(2) if k else None))
        if not k:
            for i, c in enumerate(comps):
                label_0[c.indices()] = i
        kept = union(comps, grid_k)
    assert comps
    for c in comps:
        coarse = _coarsen_indices(c.indices(), grid_k, 2 ** (levels - 1))
        assert np.unique(label_0[coarse]).size == 1 and label_0[coarse[0]] >= 0


# --------------------------------------------------------------------------
# a graph on candidates is the subgraph they induce
# --------------------------------------------------------------------------

def induced_oracle(g, cells):
    """Adjacency among the candidates, cut from the graph on every cell."""
    idx = cells.indices()
    return g.to_csr().astype(np.int64)[idx][:, idx].tocsr(), idx


@SETTINGS
@given(case=coarse_grids(), density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_candidate_graph_is_the_induced_subgraph(case, density, seed):
    sys, grid, eps = case
    rng = np.random.default_rng(seed)
    cand = CellSet(grid, rng.random(grid.shape) < density)
    dense = build_graph(sys, grid, eps)
    g = build_graph(sys, grid, eps, cand)
    want, idx = induced_oracle(dense, cand)
    assert np.array_equal(g.cells, idx)
    got = g.to_csr()
    assert got.shape == want.shape and (got != want).nnz == 0
    assert g.edge_count() == got.nnz and dense.edge_count() == dense.to_csr().nnz
    assert np.array_equal(g.self_loops(), want.diagonal() > 0)
    for c in idx[:5]:
        assert np.array_equal(g.successors(c),
                              np.intersect1d(dense.successors(c), idx))
    # components: the oracle's strong components of the induced subgraph
    _, labels = connected_components(want, directed=True, connection="strong")
    keep = (np.bincount(labels, minlength=1)[labels] >= 2) | (want.diagonal() > 0)
    groups = {}
    for i in np.flatnonzero(keep):
        groups.setdefault(labels[i], []).append(idx[i])
    assert [c.indices().tolist() for c in recurrent_cells(g)] == sorted(groups.values())
    # reach from candidate starts: the closure under the induced adjacency
    if idx.size:
        start = CellSet.from_indices(grid, rng.choice(idx, size=min(2, idx.size),
                                                      replace=False))
        reached = np.isin(idx, start.indices())
        while True:
            nxt = reached | (reached.astype(np.int64) @ want > 0)
            if np.array_equal(nxt, reached):
                break
            reached = nxt
        assert forward_reach(g, start) == CellSet.from_indices(grid, idx[reached])


def test_edge_count_counts_an_edge_of_several_controls_once():
    """All three controls of drift_control map the one candidate onto itself."""
    factory, domain = CASES["drift_control"]
    grid = Grid(domain, 3)
    g = build_graph(factory(), grid, 1e300, CellSet.from_indices(grid, [1]))
    assert g.edge_count() == g.to_csr().nnz == 1


@pytest.mark.parametrize("name", ["square", "rotation", "drift_control", "affine2d"])
def test_empty_candidates_give_no_components_and_bare_reach(name):
    factory, domain = CASES[name]
    grid = Grid(domain, 16 if domain.ndim == 1 else (6, 5))
    g = build_graph(factory(), grid, 6 * grid.cell_diameter, CellSet.empty(grid))
    assert g.cells.size == 0 and g.edge_count() == 0
    assert recurrent_cells(g) == []
    one = CellSet.from_indices(grid, [3])
    assert forward_reach(g, one) == one
    assert forward_reach_depths(g, one)[0] == one


def test_candidates_on_another_grid_are_refused():
    grid = Grid(BOX, 16)
    with pytest.raises(GridMismatchError):
        build_graph(square(), grid, 0.3, CellSet.full(grid.refine(2)))


# --------------------------------------------------------------------------
# levels built on the refined level before equal the levels on every cell
# --------------------------------------------------------------------------

@SETTINGS
@given(case=coarse_grids(), levels=st.integers(2, 3),
       fatten_start=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_subdivision_levels_match_the_graphs_on_every_cell(case, levels,
                                                           fatten_start, seed):
    sys, grid0, eps0 = case
    if grid0.domain.ndim == 2:
        levels = 2
    rng = np.random.default_rng(seed)
    start = CellSet.from_indices(grid0, rng.choice(grid0.n_cells, size=2,
                                                   replace=False))
    result = chain_reach(sys, start, eps0, levels, fatten_start=fatten_start)
    kept = None
    for k, level in enumerate(result.levels):
        grid_k, eps_k = grid0.refine(2 ** k), eps0 / 2 ** k
        dense = build_graph(sys, grid_k, eps_k)
        start_k = start.refine(2 ** k)
        if fatten_start:
            start_k = fatten(start_k, eps_k)
        assert level.cells == forward_reach(dense, start_k)
        if k:
            assert level.cells.issubset(result.levels[k - 1].cells.refine(2))
        comps = recurrent_cells(dense)
        if k:
            assert union(comps, grid_k).issubset(kept.refine(2))
            cand = recurrent_cells(build_graph(sys, grid_k, eps_k, kept.refine(2)))
            assert cand == comps
        kept = union(comps, grid_k)


# --------------------------------------------------------------------------
# witness paths
# --------------------------------------------------------------------------

def oracle_path(g, depths, end_cell):
    """The backtrack that reads each step's full-grid pre-image."""
    path = [int(end_cell)]
    cur = int(end_cell)
    for level in range(int(depths[cur]), 0, -1):
        preds = g.preimage_of(CellSet.from_indices(g.grid, [cur])).indices()
        cur = int(preds[depths[preds] == level - 1][0])
        path.append(cur)
    return path[::-1]


@SETTINGS
@given(case=coarse_grids(), seed=st.integers(0, 2 ** 16),
       candidates=st.booleans())
def test_extract_path_matches_the_preimage_backtrack(case, seed, candidates):
    sys, grid, eps = case
    rng = np.random.default_rng(seed)
    cand = CellSet(grid, rng.random(grid.shape) < 0.7) if candidates else None
    g = build_graph(sys, grid, eps, cand)
    start = CellSet.from_indices(grid, [int(rng.choice(g.cells))]) if g.cells.size \
        else CellSet.from_indices(grid, [0])
    reach, depths = forward_reach_depths(g, start)
    for end in rng.choice(reach.indices(), size=min(4, len(reach)), replace=False):
        path = extract_path(g, depths, end)
        assert path == oracle_path(g, depths, end)
        assert path[0] in start and path[-1] == end
        assert all(b in g.successors(a) for a, b in zip(path, path[1:]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(n=st.integers(1, 14), controls=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       candidates=st.booleans())
def test_extract_path_matches_brute_force_on_random_graphs(n, controls, seed, candidates):
    """Random range graphs, wrapping on the circle: the depths are those of
    a breadth-first search over the adjacency, and every reached cell's
    path steps, level by level, to the smallest candidate index one level
    up with an edge into it."""
    rng = np.random.default_rng(seed)
    grid = Grid(Domain.circle(), n)
    sys = System("random", grid.domain, {}, tuple(range(controls)) if controls > 1
                 else (None,), 1.0, lambda pts, u: pts)
    cells = np.flatnonzero(rng.random(n) < 0.7) if candidates else None
    m = n if cells is None else cells.size
    if not m:
        return
    start = rng.integers(0, m + 1, (controls, m))
    length = rng.integers(0, m + 1, (controls, m)) * (rng.random((controls, m)) < 0.5)
    g = TransitionGraph(sys, grid, 0.1, start, length, cells)
    adj = [[any((j - start[r, i]) % m < length[r, i] for r in range(controls))
            for j in range(m)] for i in range(m)]
    source = int(rng.integers(m))
    depth, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(m):
                if adj[i][j] and j not in depth:
                    depth[j] = depth[i] + 1
                    nxt.append(j)
        frontier = nxt
    label = g.cells
    reach, depths = forward_reach_depths(g, CellSet.from_indices(grid, [label[source]]))
    assert {int(label[i]): k for i, k in depth.items()} == {
        int(c): int(depths[c]) for c in reach.indices()}
    for end in depth:
        path = [end]
        while depth[path[-1]]:
            cur = path[-1]
            path.append(min(i for i in depth if depth[i] == depth[cur] - 1 and adj[i][cur]))
        assert extract_path(g, depths, int(label[end])) == [int(label[i]) for i in path[::-1]]


# --------------------------------------------------------------------------
# 2-D ranges: int32, and the edge cap counts the candidates' ranges only
# --------------------------------------------------------------------------

def test_2d_ranges_are_int32():
    factory, domain = CASES["affine2d"]
    grid = Grid(domain, (12, 12))
    start, length = _cell_images(factory(), grid, slice(None), 6 * grid.cell_diameter)
    assert start.dtype == np.int32 and length.dtype == np.int32
    assert start.shape == length.shape and start.shape[1] == grid.n_cells


def test_2d_edge_cap_counts_candidate_pairs_only(monkeypatch):
    factory, domain = CASES["affine2d"]
    grid = Grid(domain, (32, 32))
    cand = CellSet.from_box(grid, [0.3, 0.3], [0.6, 0.6])
    # every pair is an edge, m^2 among the candidates; a source stores about
    # 2 * 32 ranges, one per row of the mask, so n sources store more than m^2
    eps = 1e300
    monkeypatch.setattr(systems, "MAX_EXPLICIT_EDGES", len(cand) ** 2)
    assert build_graph(factory(), grid, eps, cand).edge_count() == len(cand) ** 2
    with pytest.raises(ResourceLimitError):
        build_graph(factory(), grid, eps)
