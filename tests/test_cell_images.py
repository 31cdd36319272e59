"""The batched cell-image kernel against per-cell oracles.

The oracles are the plain per-cell forms of the same computation: the cells
touching one Lipschitz ball, found by an exact box-distance test over a
clipped index window, and a 2-D graph built one source cell at a time by
imaging the cell and stamping the fattening mask on each of its cells.
Kernel and oracles must agree cell for cell.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from chainscope import systems
from chainscope.errors import ResourceLimitError, SelfMapError
from chainscope.geometry import CellSet, Domain, Grid, fatten
from chainscope.reachability import default_delta_schedule
from chainscope.systems import (
    _RADIUS_SAFETY,
    System,
    _cell_images,
    affine2d,
    constant,
    drift_control,
    image_cell,
    logistic,
    rotation,
    square,
)
from chainscope.transition import build_graph, edge_control, recurrent_cells

MATRICES = [
    ([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]),
    ([[0.4, 0.0], [0.1, 0.3]], [0.25, 0.25]),
    ([[0.4, 0.1], [0.0, 0.5]], [0.2, 0.2]),
    ([[0.3, 0.2], [-0.1, 0.4]], [0.3, 0.3]),
]
TWO_M = np.array([[0.2, 0.1], [0.1, 0.3]])


def two_control() -> System:
    """A 2-D map with two controls whose images lie far apart."""

    def f(pts, u):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([0.2 * x + 0.1 * y + u, 0.1 * x + 0.3 * y + 0.2],
                        axis=1)

    return System("two-control", Domain.box([[-1.0, 1.0], [0.0, 0.5]]), {},
                  (-0.6, 0.6), float(np.linalg.norm(TWO_M, 2)), f)


def radius(sys, grid):
    return sys.lipschitz * (grid.cell_diameter / 2.0) * _RADIUS_SAFETY


def touching_ball(grid, p, rho):
    """Flat indices of closed cells intersecting the closed ball B(p, rho)."""
    p = grid.domain.canon(p)
    if grid.domain.ndim == 1:
        i0, j0 = grid.axis_touch_range(p[0] - rho, p[0] + rho)
        i0, j0 = int(i0), int(j0)
        n = grid.cells_per_dim[0]
        if grid.wrap:
            if j0 - i0 + 1 >= n:
                return np.arange(n)
            return np.unique(np.arange(i0, j0 + 1) % n)
        return np.arange(max(i0, 0), min(j0, n - 1) + 1)
    ranges = []
    for d in range(2):
        i0, j0 = grid.axis_touch_range(p[d] - rho, p[d] + rho, dim=d)
        ranges.append(np.arange(max(int(i0), 0),
                                min(int(j0), grid.cells_per_dim[d] - 1) + 1))
    if any(r.size == 0 for r in ranges):
        return np.array([], dtype=np.int64)
    ii, jj = np.meshgrid(ranges[0], ranges[1], indexing="ij")
    lo0 = grid.domain.bounds[0, 0] + ii * grid.spacing[0]
    lo1 = grid.domain.bounds[1, 0] + jj * grid.spacing[1]
    g0 = np.maximum(np.maximum(lo0 - p[0], p[0] - (lo0 + grid.spacing[0])), 0.0)
    g1 = np.maximum(np.maximum(lo1 - p[1], p[1] - (lo1 + grid.spacing[1])), 0.0)
    keep = g0 * g0 + g1 * g1 <= rho * rho
    return np.ravel_multi_index((ii[keep], jj[keep]), grid.shape)


def oracle_image(sys, grid, cell, controls=None):
    """Flat mask of the unfattened image of one cell under the controls."""
    rho = radius(sys, grid)
    center = grid.cell_center(cell)
    mask = np.zeros(grid.n_cells, dtype=bool)
    for u in sys.controls if controls is None else controls:
        p = sys.image_points(center[None, :], u)[0]
        mask[touching_ball(grid, p, rho)] = True
    return mask


def oracle_graph(sys, grid, eps):
    """CSR of the 2-D fattened graph, one source cell at a time: the mask
    ``Grid.fatten_offsets(eps)``, centred on each cell of the source's image,
    ORed into the grid padded by the mask's reach."""
    struct = grid.fatten_offsets(eps)
    (w0, w1), (n0, n1) = struct.shape, grid.shape
    rows, cols = [], []
    for c in range(grid.n_cells):
        hit = oracle_image(sys, grid, c).reshape(grid.shape)
        fat = np.zeros((n0 + w0 - 1, n1 + w1 - 1), dtype=bool)
        for i, j in zip(*np.nonzero(hit)):
            fat[i:i + w0, j:j + w1] |= struct
        flat = np.flatnonzero(fat[w0 // 2:w0 // 2 + n0, w1 // 2:w1 // 2 + n1])
        rows.append(np.full(flat.size, c, dtype=np.int64))
        cols.append(flat)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    m = sp.coo_matrix((np.ones(rows.size, dtype=np.uint8), (rows, cols)),
                      shape=(grid.n_cells, grid.n_cells)).tocsr()
    m.data[:] = 1
    return m


SYSTEMS_2D = [affine2d(m, b) for m, b in MATRICES] + [two_control()]
IDS_2D = [f"matrix{i}" for i in range(len(MATRICES))] + ["two-control"]


@pytest.mark.parametrize("sys", SYSTEMS_2D, ids=IDS_2D)
@pytest.mark.parametrize("cells", [(16, 16), (23, 17)])
@pytest.mark.parametrize("diameters", [4, 10])
def test_2d_graph_matches_per_cell_oracle(sys, cells, diameters):
    grid = Grid(sys.domain, cells)
    eps = diameters * grid.cell_diameter
    got = build_graph(sys, grid, eps).to_csr()
    want = oracle_graph(sys, grid, eps)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


@st.composite
def affine_self_maps(draw):
    """affine2d maps of the unit square into itself: each row of M has an
    absolute sum of at most 1, and b places the image inside."""
    m = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)))
    m = m.reshape(2, 2)
    lo, hi = np.minimum(m, 0).sum(axis=1), np.maximum(m, 0).sum(axis=1)
    t = np.array(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    try:
        return affine2d(m, -lo + t * (1 - (hi - lo)))
    except SelfMapError:   # a corner rounded out of the square
        reject()


@settings(derandomize=True, deadline=None, max_examples=50)
@given(sys=affine_self_maps(), cells=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       floors=st.sampled_from([1.0, 1.7, 3.0, 6.5, 20.0, None]),
       density=st.sampled_from([None, 0.1, 0.5, 0.9]), seed=st.integers(0, 2 ** 16))
def test_2d_graph_matches_per_cell_oracle_on_random_maps(sys, cells, floors,
                                                         density, seed):
    """Random self-maps, grids and eps from the floor to 1e300, on every cell
    or on random candidates: the subgraph the candidates induce."""
    grid = Grid(sys.domain, cells)
    eps = 1e300 if floors is None else floors * grid.resolution_floor
    cand = None if density is None else CellSet(
        grid, np.random.default_rng(seed).random(grid.shape) < density)
    got = build_graph(sys, grid, eps, cand).to_csr()
    want = oracle_graph(sys, grid, eps)
    if cand is not None:
        idx = cand.indices()
        want = want[idx][:, idx]
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    # every range lies in one grid row
    for fat in (eps, None):
        start, length = _cell_images(sys, grid, slice(None), fat)
        n1 = grid.cells_per_dim[1]
        on = length > 0
        assert np.array_equal(start[on] // n1, (start + length - 1)[on] // n1)


@pytest.mark.parametrize("sys,cells", [
    (square(), 64),
    (logistic(3.9), 37),
    (constant(0.3), 20),
    (rotation(0.37), 50),
    (drift_control(0.5), 40),
    (affine2d(*MATRICES[0]), (12, 12)),
    (affine2d(*MATRICES[3]), (9, 13)),
    (two_control(), (16, 4)),
], ids=["square", "logistic", "constant", "rotation", "drift_control",
        "affine2d", "affine2d-skew", "two-control"])
def test_image_cell_matches_ball_oracle(sys, cells):
    grid = Grid(sys.domain, cells)
    for c in range(grid.n_cells):
        want = oracle_image(sys, grid, c).reshape(grid.shape)
        assert np.array_equal(image_cell(sys, c, grid).mask, want), c


@pytest.mark.parametrize("sys,cells,eps", [
    (drift_control(0.5), 40, 0.25),
    (two_control(), (16, 4), None),
], ids=["drift_control", "two-control"])
def test_edge_control_names_a_control_whose_image_holds_dst(sys, cells, eps):
    grid = Grid(sys.domain, cells)
    eps = 4 * grid.cell_diameter if eps is None else eps
    g = build_graph(sys, grid, eps)
    per_control = {
        (c, u): fatten(CellSet(grid, oracle_image(sys, grid, c, [u])
                               .reshape(grid.shape)), eps)
        for c in range(grid.n_cells) for u in sys.controls
    }
    for src in range(grid.n_cells):
        succ = g.successors(src)
        for dst in succ:
            u = edge_control(g, src, int(dst))
            assert int(dst) in per_control[(src, u)], (src, dst, u)
        others = np.setdiff1d(np.arange(grid.n_cells), succ)
        if others.size:
            with pytest.raises(ValueError):
                edge_control(g, src, int(others[0]))


def test_two_control_edges_need_the_right_control():
    sys = two_control()
    grid = Grid(sys.domain, (16, 4))
    g = build_graph(sys, grid, 4 * grid.cell_diameter)
    left, right = grid.cell_of([-0.9, 0.25]), grid.cell_of([0.9, 0.25])
    src = grid.cell_of([0.0, 0.25])
    assert edge_control(g, src, left) == -0.6
    assert edge_control(g, src, right) == 0.6


def first_control_holding(g, src, dst):
    """The first control, in ``sys.controls`` order, whose image of src,
    imaged again by the cell-image kernel, holds dst; ValueError for a
    non-edge."""
    start, length = _cell_images(g.system, g.grid, [src], g.eps)
    hit = (dst - start[:, 0]) % g.n_cells < length[:, 0]
    for u, ok in zip(g.system.controls, hit.reshape(len(g.system.controls), -1)):
        if ok.any():
            return u
    raise ValueError(f"no edge {src} -> {dst}")


@pytest.mark.parametrize("sys,diameters", [
    (drift_control(0.5, (-0.3, 0.0, 0.45)), 8),
    (rotation(0.37), 4),
], ids=["drift_control-overlapping", "rotation-wrapping"])
def test_edge_control_is_the_first_control_whose_range_holds_dst(sys, diameters):
    grid = Grid(sys.domain, 64)
    g = build_graph(sys, grid, diameters * grid.cell_diameter)
    overlaps = wraps = 0
    for src in range(grid.n_cells):
        start, length = _cell_images(sys, grid, [src], g.eps)
        overlaps += np.count_nonzero(np.diff(start[:, 0]) < length[:-1, 0])
        wraps += np.count_nonzero(start[:, 0] + length[:, 0] > grid.n_cells)
        succ = set(g.successors(src).tolist())
        for dst in range(grid.n_cells):
            try:
                want = first_control_holding(g, src, dst)
            except ValueError:
                assert dst not in succ, (src, dst)
                with pytest.raises(ValueError):
                    edge_control(g, src, dst)
            else:
                assert dst in succ, (src, dst)
                assert edge_control(g, src, dst) == want, (src, dst)
    assert overlaps if len(sys.controls) > 1 else wraps


def test_affine2d_image_independent_of_batch():
    sys = affine2d([[0.3, 0.2], [-0.1, 0.4]], [0.3, 0.3])
    pts = np.random.default_rng(5).random((500, 2))
    batch = sys.image_points(pts, None)
    rows = np.array([sys.image_points(p[None, :], None)[0] for p in pts])
    assert np.array_equal(batch, rows)


# --------------------------------------------------------------------------
# kept images: the part of a cell image that does not read eps
# --------------------------------------------------------------------------

KEPT_SYSTEMS = {
    "square": square(),
    "logistic": logistic(3.7),
    "rotation": rotation(0.37),
    "drift_control": drift_control(0.5, (-0.3, 0.0, 0.45)),
    "affine2d": affine2d(*MATRICES[0]),
    "two-control": two_control(),
}


def counted(sys):
    """``sys`` with a tally of its map calls."""
    calls = [0]

    def f(pts, u):
        calls[0] += 1
        return sys.map_fn(pts, u)

    return System(sys.name, sys.domain, sys.params, sys.controls, sys.lipschitz, f), calls


def fresh_build(sys, grid, eps, cand=None):
    """A build with no images kept."""
    systems._kept = None
    return build_graph(sys, grid, eps, cand)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(KEPT_SYSTEMS)), cells=st.integers(3, 40),
       diameters=st.sampled_from([8.0, 9.5, 20.0, 70.0]),
       density=st.sampled_from([0.0, 0.3, 0.8, 1.0]), seed=st.integers(0, 2 ** 16))
def test_builds_from_kept_images_equal_fresh_builds(name, cells, diameters, density, seed):
    """Every radius of the default schedule, the floor and eps itself, on
    every cell and on random candidates: a build that reads the images kept
    by an all-cell build makes no map call, and its ranges equal a fresh
    build's bit for bit."""
    sys, calls = counted(KEPT_SYSTEMS[name])
    grid = Grid(sys.domain, cells if sys.domain.ndim == 1 else (cells // 2 + 1, cells // 3 + 2))
    eps = diameters * grid.cell_diameter
    radii = [eps, *default_delta_schedule(eps, grid.resolution_floor), grid.resolution_floor]
    cands = [None, CellSet(grid, np.random.default_rng(seed).random(grid.shape) < density)]
    want = [fresh_build(sys, grid, r, c) for r in radii for c in cands]
    build_graph(sys, grid, eps)
    before = calls[0]
    got = [build_graph(sys, grid, r, c) for r in radii for c in cands]
    assert calls[0] == before
    for g, w in zip(got, want):
        assert np.array_equal(g.cells, w.cells)
        for a, b in ((g.start, w.start), (g.length, w.length)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(KEPT_SYSTEMS))
def test_a_second_all_cell_build_makes_no_map_call(name):
    """One grid's images are kept: another grid imaged in full replaces
    them, and an equal grid reads them."""
    sys, calls = counted(KEPT_SYSTEMS[name])
    grid = Grid(sys.domain, 24 if sys.domain.ndim == 1 else (12, 10))
    eps = 5 * grid.cell_diameter
    fresh_build(sys, grid, eps)
    assert calls[0] == len(sys.controls)
    build_graph(sys, Grid(sys.domain, grid.cells_per_dim), 2 * eps)
    assert calls[0] == len(sys.controls)
    build_graph(sys, grid.refine(2), eps)
    build_graph(sys, grid, eps)
    assert calls[0] == 3 * len(sys.controls)


@pytest.mark.parametrize("name", ["logistic", "rotation", "affine2d", "two-control"])
def test_a_build_from_kept_images_raises_the_edge_cap(monkeypatch, name):
    """With the edge cap lowered below a graph, a build that reads the kept
    images raises the cap's error, message for message, as a fresh build
    does: the 2-D build counts its ranges, the 1-D SCC pass its edges."""
    sys = KEPT_SYSTEMS[name]
    grid = Grid(sys.domain, 64 if sys.domain.ndim == 1 else (16, 12))
    eps = 6 * grid.cell_diameter
    g = fresh_build(sys, grid, eps)
    ranges = g.start.size if sys.domain.ndim == 2 else None
    monkeypatch.setattr(systems, "MAX_EXPLICIT_EDGES", (ranges or g.edge_count()) - 1)
    messages = []
    for build in (build_graph, fresh_build):
        with pytest.raises(ResourceLimitError) as info:
            recurrent_cells(build(sys, grid, eps))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert ("ranges" if ranges else "edges") in messages[0]
