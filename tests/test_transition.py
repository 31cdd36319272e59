import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.errors import EmptySetError, ResolutionError
from chainscope.geometry import CellSet, Domain, Grid, fatten
from chainscope.systems import (
    affine2d,
    constant,
    drift_control,
    identity_map,
    logistic,
    rotation,
    square,
)
from chainscope.transition import (
    _reach_within,
    backward_reach,
    build_graph,
    forward_reach,
    forward_reach_depths,
    recurrent_cells,
)

BOX = Domain.box([[0.0, 1.0]])


def test_resolution_coupling_enforced():
    g = Grid(BOX, 100)
    with pytest.raises(ResolutionError):
        build_graph(identity_map(), g, 0.02)   # 4 * diam = 0.04


def test_identity_successors_cover_eps_band():
    g = Grid(BOX, 100)
    gr = build_graph(identity_map(), g, 0.05)
    succ = gr.successors(50)
    want = set(range(45, 56))                 # +-0.05 around the cell
    assert want.issubset(set(succ))
    assert set(succ).issubset(set(range(42, 59)))   # bounded overshoot


def test_constant_shares_successor_set():
    g = Grid(BOX, 100)
    sys = constant(0.3)
    gr = build_graph(sys, g, 0.05)
    base = fatten(CellSet.from_points(g, [[0.3]]), 0.05)
    ref = gr.successors(0)
    for c in (17, 50, 99):
        assert np.array_equal(gr.successors(c), ref)
    assert base.issubset(CellSet.from_indices(g, ref))


def test_rotation_successors_shifted():
    g = Grid(Domain.circle(), 100)
    gr = build_graph(rotation(0.25), g, 0.05)
    for k in (0, 40, 90):
        succ = gr.successors(k)
        center = (k + 25) % 100
        assert center in succ
        dist = min(abs(int(s) - center) % 100 for s in succ)
        assert dist == 0 and len(succ) <= 20


def test_graph_totality():
    for sys, g in [
        (square(), Grid(BOX, 128)),
        (rotation(0.37), Grid(Domain.circle(), 90)),
        (affine2d([[0.4, 0.0], [0.1, 0.3]], [0.25, 0.25]),
         Grid(Domain.box([[0, 1], [0, 1]]), (12, 12))),
    ]:
        gr = build_graph(sys, g, 4 * g.cell_diameter)
        assert all(gr.successors(c).size >= 1 for c in range(g.n_cells))


@pytest.mark.parametrize("sys,cells,eps", [
    (square(), 40, 1e300),
    (rotation(0.3), 40, 1e300),
    (drift_control(0.5), 40, 1e300),
    (affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]), (6, 7), 1e300),
    (square(), 2 ** 20, 1e308),
], ids=["square", "rotation", "drift_control", "affine2d", "square-2^20"])
def test_huge_eps_graph_is_complete(sys, cells, eps):
    g = Grid(sys.domain, cells)
    gr = build_graph(sys, g, eps)
    assert gr.edge_count() >= g.n_cells ** 2
    for c in (0, g.n_cells // 2, g.n_cells - 1):
        assert np.array_equal(gr.successors(c), np.arange(g.n_cells))


def test_successor_lists_sorted_unique():
    g = Grid(Domain.box([[-1, 1]]), 64)
    gr = build_graph(drift_control(0.5), g, 0.2)
    for c in (0, 20, 63):
        s = gr.successors(c)
        assert np.all(np.diff(s) > 0)


# --------------------------------------------------------------------------
# forward / backward reach
# --------------------------------------------------------------------------

def test_forward_reach_full_grid_closed():
    g = Grid(BOX, 60)
    gr = build_graph(square(), g, 0.1)
    assert forward_reach(gr, CellSet.full(g)) == CellSet.full(g)


def test_forward_reach_identity_spreads_everywhere():
    g = Grid(BOX, 100)
    gr = build_graph(identity_map(), g, 0.05)
    out = forward_reach(gr, CellSet.from_points(g, [[0.5]]))
    assert out == CellSet.full(g)


def test_forward_reach_square_escapes_below_one():
    g = Grid(BOX, 400)
    gr = build_graph(square(), g, 0.01)
    out = forward_reach(gr, CellSet.from_points(g, [[0.9]]))
    idx = out.indices()
    assert idx.min() == 0
    top = idx.max() * g.spacing[0]
    assert 0.88 <= top <= 0.95                 # roughly [0, 0.92]
    assert g.cell_of(1.0) not in out           # excludes a neighborhood of 1


def test_forward_reach_empty_raises():
    g = Grid(BOX, 40)
    gr = build_graph(identity_map(), g, 0.1)
    forward = "forward_reach from an empty start set"
    for sweep, args, message in [
        (forward_reach, (), forward),
        (_reach_within, (CellSet.full(g),), forward),
        (forward_reach_depths, (), forward),
        (backward_reach, (), "backward_reach to an empty target set"),
    ]:
        with pytest.raises(EmptySetError) as info:
            sweep(gr, CellSet.empty(g), *args)
        assert str(info.value) == message, sweep.__name__


def test_backward_reach_trivial_and_constant():
    g = Grid(BOX, 80)
    gr = build_graph(constant(0.3), g, 0.05)
    assert backward_reach(gr, CellSet.full(g)) == CellSet.full(g)
    tgt = CellSet.from_points(g, [[0.3]])
    assert backward_reach(gr, tgt) == CellSet.full(g)


def test_backward_reach_square_top_band_only():
    g = Grid(BOX, 400)
    gr = build_graph(square(), g, 0.01)
    out = backward_reach(gr, CellSet.from_points(g, [[1.0]]))
    idx = out.indices()
    assert idx.max() == 399
    assert idx.min() * g.spacing[0] > 0.9      # small band near 1 only


def test_reach_duality():
    rng = np.random.default_rng(31)
    g = Grid(BOX, 64)
    gr = build_graph(square(), g, 4 * g.cell_diameter)
    for _ in range(30):
        c, cp = rng.integers(0, 64, size=2)
        fwd = forward_reach(gr, CellSet.from_indices(g, [c]))
        bwd = backward_reach(gr, CellSet.from_indices(g, [cp]))
        assert (int(cp) in fwd) == (int(c) in bwd)


def test_forward_reach_idempotent():
    g = Grid(Domain.circle(), 120)
    gr = build_graph(rotation(0.31), g, 0.04)
    r1 = forward_reach(gr, CellSet.from_indices(g, [7]))
    assert forward_reach(gr, r1) == r1


def test_monotone_in_eps():
    g = Grid(BOX, 200)
    sys = square()
    g1 = build_graph(sys, g, 0.02)
    g2 = build_graph(sys, g, 0.05)
    start = CellSet.from_points(g, [[0.7]])
    assert forward_reach(g1, start).issubset(forward_reach(g2, start))
    for c in (0, 100, 199):
        assert set(g1.successors(c)).issubset(set(g2.successors(c)))


# --------------------------------------------------------------------------
# recurrent components
# --------------------------------------------------------------------------

def test_recurrent_identity_one_component_full():
    g = Grid(BOX, 100)
    gr = build_graph(identity_map(), g, 0.05)
    comps = recurrent_cells(gr)
    assert len(comps) == 1 and comps[0] == CellSet.full(g)


def test_recurrent_constant_band():
    g = Grid(BOX, 100)
    gr = build_graph(constant(0.3), g, 0.05)
    comps = recurrent_cells(gr)
    assert len(comps) == 1
    band = fatten(CellSet.from_points(g, [[0.3]]), 0.05)
    assert comps[0].issubset(fatten(band, 2 * g.cell_diameter))
    assert g.cell_of(0.3) in comps[0]


def test_recurrent_square_two_bands_up_to_fragments():
    g = Grid(BOX, 400)
    gr = build_graph(square(), g, 0.01)
    comps = recurrent_cells(gr)
    lows = [c for c in comps if c.indices().min() == 0]
    highs = [c for c in comps if c.indices().max() == 399]
    assert len(lows) == 1 and len(highs) >= 1
    assert all(c.indices().min() * g.spacing[0] > 0.95
               for c in comps if c not in lows)


def test_recurrent_components_disjoint_partition():
    g = Grid(BOX, 256)
    gr = build_graph(square(), g, 0.02)
    comps = recurrent_cells(gr)
    seen = np.zeros(g.n_cells, dtype=int)
    for c in comps:
        seen[c.indices()] += 1
    assert seen.max() <= 1
    # deterministic ordering by smallest member
    firsts = [int(c.indices()[0]) for c in comps]
    assert firsts == sorted(firsts)


# --------------------------------------------------------------------------
# oracle: matrix transitive closure on small grids
# --------------------------------------------------------------------------

def _closure_reach(gr, start_idx):
    n = gr.n_cells
    adj = np.zeros((n, n), dtype=bool)
    for c in range(n):
        adj[c, gr.successors(c)] = True
    reach = np.eye(n, dtype=bool) | adj
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    out = np.zeros(n, dtype=bool)
    for s in start_idx:
        out |= reach[s]
    return out


@pytest.mark.parametrize("sys_factory,domain,n", [
    (square, BOX, 64),
    (identity_map, BOX, 48),
    (constant, BOX, 64),
    (lambda: rotation(0.23), Domain.circle(), 60),
    (lambda: drift_control(0.5), Domain.box([[-1, 1]]), 64),
])
def test_forward_reach_matches_matrix_closure(sys_factory, domain, n):
    sys = sys_factory() if sys_factory is not constant else constant(0.3)
    g = Grid(domain, n)
    gr = build_graph(sys, g, 4 * g.cell_diameter)
    rng = np.random.default_rng(41)
    for _ in range(10):
        start = rng.choice(n, size=2, replace=False)
        bfs = forward_reach(gr, CellSet.from_indices(g, start))
        oracle = _closure_reach(gr, start)
        assert np.array_equal(bfs.mask.reshape(-1), oracle)


# --------------------------------------------------------------------------
# 1-D range sweeps against the explicit matrix
# --------------------------------------------------------------------------

@pytest.mark.parametrize("sys_factory,domain", [
    (square, BOX),
    (lambda: rotation(0.23), Domain.circle()),
    (lambda: drift_control(0.5), Domain.box([[-1, 1]])),
])
@pytest.mark.parametrize("eps_cells", [4, 40])
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data(), n=st.integers(9, 81))
def test_range_sweeps_match_csr(sys_factory, domain, eps_cells, data, n):
    # eps_cells=40 on n <= 40 cells makes every circle range full length and
    # clips box ranges at one or both ends; rotation ranges wrap either way
    g = Grid(domain, n)
    gr = build_graph(sys_factory(), g, eps_cells * g.cell_diameter)
    csr = gr.to_csr()
    assert np.array_equal(gr.self_loops(), csr.diagonal().astype(bool))
    for c in range(n):
        # rows are sorted and hold no repeat (scipy's SCC can hang on one)
        assert np.array_equal(csr.indices[csr.indptr[c]:csr.indptr[c + 1]],
                              gr.successors(c))
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                               min_size=1, max_size=4))
    for mask in masks + [[True] * n]:
        mask = np.array(mask)
        vec = mask.astype(np.uint8)
        cells = CellSet(g, mask)
        assert np.array_equal(gr.image_of(cells).mask, vec @ csr > 0)
        assert np.array_equal(gr.preimage_of(cells).mask, csr @ vec > 0)


# --------------------------------------------------------------------------
# orbit over-approximation
# --------------------------------------------------------------------------

@pytest.mark.parametrize("sys_factory,domain", [
    (square, BOX),
    (lambda: logistic(3.9), BOX),
    (lambda: rotation(0.618), Domain.circle()),
    (lambda: drift_control(0.8), Domain.box([[-1, 1]])),
])
def test_true_orbits_stay_inside_forward_reach(sys_factory, domain):
    sys = sys_factory()
    g = Grid(domain, 300)
    eps = 4 * g.cell_diameter
    gr = build_graph(sys, g, eps)
    rng = np.random.default_rng(43)
    lo, hi = domain.bounds[:, 0], domain.bounds[:, 1]
    for _ in range(100):
        x = lo + rng.random(domain.ndim) * (hi - lo)
        reach = forward_reach(gr, CellSet.from_indices(g, [g.cell_of(x)]))
        pt = x
        for _ in range(200):
            u = sys.controls[int(rng.integers(len(sys.controls)))]
            pt = sys.image_points(pt[None, :], u)[0]
            assert g.cell_of(pt) in reach


def test_depths_consistent_with_reach():
    g = Grid(BOX, 128)
    gr = build_graph(square(), g, 0.05)
    start = CellSet.from_points(g, [[1.0]])
    reach, depths = forward_reach_depths(gr, start)
    assert np.array_equal(depths >= 0, reach.mask.reshape(-1))
    assert depths[g.cell_of(1.0)] == 0


def test_2d_graph_soundness():
    sys = affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15])
    g = Grid(Domain.box([[0, 1], [0, 1]]), (16, 16))
    gr = build_graph(sys, g, 4 * g.cell_diameter)
    rng = np.random.default_rng(47)
    for _ in range(100):
        c = int(rng.integers(0, g.n_cells))
        box = g.cell_box(c)
        x = box[:, 0] + rng.random(2) * (box[:, 1] - box[:, 0])
        y = sys.image_points(x[None, :], None)[0]
        assert g.cells_of(y[None, :])[0] in gr.successors(c)
