import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve
from scipy.spatial import cKDTree

from chainscope import geometry
from chainscope.errors import EmptySetError, GridMismatchError
from chainscope.geometry import (
    CellSet,
    Domain,
    Grid,
    _hausdorff_within,
    _range_union,
    fatten,
    grid_for,
    hausdorff,
    nearest_distances,
)

BOX = Domain.box([[0.0, 1.0]])
CIRCLE = Domain.circle()


# --------------------------------------------------------------------------
# metric
# --------------------------------------------------------------------------

def test_metric_box_euclidean():
    assert BOX.distance(0.2, 0.7) == pytest.approx(0.5)


def test_metric_circle_wraparound():
    assert CIRCLE.distance(0.1, 0.9) == pytest.approx(0.2)


def test_circle_wrap_lands_in_unit_interval():
    # % 1.0 rounds a tiny negative coordinate up to 1.0; the wrap maps that
    # to 0.0, leaves every other value as % 1.0 gives it, and keeps NaN
    rng = np.random.default_rng(13)
    x = np.concatenate([[-1e-20, -5e-17, -0.0, 0.0, 1.0, -1.0, 2.5, -0.25],
                        rng.uniform(-3.0, 3.0, 10_000)])
    w = CIRCLE.wrap(x)
    assert np.all((w >= 0.0) & (w < 1.0))
    assert np.array_equal(w, np.where(x % 1.0 == 1.0, 0.0, x % 1.0))
    assert CIRCLE.canon(-1e-20)[0] == 0.0
    assert np.isnan(CIRCLE.wrap(np.array([np.nan]))).all()


def test_metric_identity_of_indiscernibles():
    for dom, x in [(BOX, 0.37), (CIRCLE, 0.91)]:
        assert dom.distance(x, x) == 0.0


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(7)
    box2 = Domain.box([[0, 1], [-1, 2]])
    for dom in (BOX, CIRCLE, box2):
        lo, hi = dom.bounds[:, 0], dom.bounds[:, 1]
        for _ in range(200):
            x, y, z = (lo + rng.random(dom.ndim) * (hi - lo) for _ in range(3))
            dxy = dom.distance(x, y)
            assert dxy >= 0
            assert dxy == pytest.approx(dom.distance(y, x))
            assert dxy <= dom.distance(x, z) + dom.distance(z, y) + 1e-12


@pytest.mark.parametrize("domain", [CIRCLE, BOX, Domain.box([[0, 1], [-1, 2]])],
                         ids=["circle", "box1", "box2"])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_distance_distances_and_nearest_agree_exactly(domain, data):
    # one metric: the point form, the vectorized form and the nearest-point
    # search give the same float, to the last bit
    lo, hi = domain.bounds[:, 0], domain.bounds[:, 1]
    x, y = (np.array([data.draw(st.floats(a, b)) for a, b in zip(lo, hi)])
            for _ in range(2))
    d = domain.distance(x, y)
    assert d == domain.distances(domain.canon(x), domain.canon(y))
    assert d == nearest_distances(domain, x[None, :], y[None, :])[0]


@pytest.mark.parametrize("domain", [CIRCLE, BOX, Domain.box([[0, 1], [-1, 2]])],
                         ids=["circle", "box1", "box2"])
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_project_and_displacement(domain, data):
    lo, hi = domain.bounds[:, 0], domain.bounds[:, 1]
    frm, to = (np.array([data.draw(st.floats(a, b)) for a, b in zip(lo, hi)])
               for _ in range(2))
    v = domain.displacement(frm, to)
    assert np.all(np.abs(v) <= (0.5 if domain.kind == "circle" else hi - lo))
    assert domain.distance(frm + v, to) <= 1e-15
    assert domain.distance(frm, to) == pytest.approx(np.sqrt(np.sum(v * v)), abs=1e-15)
    far = np.array([data.draw(st.floats(-5, 5)) for _ in lo])
    assert domain.inside(domain.project(far))
    assert np.array_equal(domain.project(domain.wrap(frm)), domain.wrap(frm))


# --------------------------------------------------------------------------
# cell_of conventions
# --------------------------------------------------------------------------

def test_cell_of_half_open_convention():
    g = Grid(BOX, 10)
    assert g.cell_of(0.05) == 0
    assert g.cell_of(0.1) == 1       # boundary goes to the upper cell
    assert g.cell_of(1.0) == 9       # last cell closed


def test_cell_of_circle_wraps():
    g = Grid(CIRCLE, 10)
    assert g.cell_of(1.0) == 0
    assert g.cell_of(-0.05) == 9


def test_cell_of_center_roundtrip():
    for g in (Grid(BOX, 37), Grid(CIRCLE, 64),
              Grid(Domain.box([[0, 1], [-1, 2]]), (8, 12))):
        for c in range(g.n_cells):
            assert g.cell_of(g.cell_center(c)) == c


def test_cells_of_matches_cell_of():
    rng = np.random.default_rng(3)
    g = Grid(Domain.box([[0, 2], [1, 3]]), (9, 7))
    pts = np.column_stack([rng.uniform(0, 2, 100), rng.uniform(1, 3, 100)])
    flat = g.cells_of(pts)
    assert all(int(flat[i]) == g.cell_of(pts[i]) for i in range(100))


@pytest.mark.parametrize("domain,cells", [
    (BOX, 37), (CIRCLE, 93), (Domain.box([[0, 2], [1, 3]]), (9, 7)),
])
def test_cell_of_and_cells_of_match_boundary_oracle(domain, cells):
    # random points, every float cell boundary lo + i*h and both domain ends;
    # on the circle also points just below 0, which wrap to just below 1 (or,
    # within rounding of 0, to 0)
    g = Grid(domain, cells)
    rng = np.random.default_rng(11)
    axes = []
    for d, n in enumerate(g.cells_per_dim):
        lo, hi, h = domain.bounds[d, 0], domain.bounds[d, 1], g.spacing[d]
        vals = np.concatenate([lo + rng.random(60) * (hi - lo),
                               lo + np.arange(n + 1) * h, [lo, hi]])
        if domain.kind == "circle":
            vals = np.concatenate([vals, [-1e-20, -0.05, 1.0 + 1e-12]])
        axes.append(vals)
    m = max(a.size for a in axes)
    pts = np.stack([rng.permutation(np.resize(a, m)) for a in axes], axis=1)

    def oracle(p):
        # the count of cell boundaries above lo at or below the coordinate
        idx = []
        for d, n in enumerate(g.cells_per_dim):
            lo, h = domain.bounds[d, 0], g.spacing[d]
            i = int(np.sum(lo + np.arange(1, n + 1) * h <= p[d]))
            idx.append(i % n if domain.kind == "circle" else min(i, n - 1))
        return int(np.ravel_multi_index(idx, g.shape))

    flat = g.cells_of(pts)
    for p, c in zip(pts, flat):
        assert g.cell_of(p) == int(c) == oracle(domain.canon(p))


# --------------------------------------------------------------------------
# fatten against a brute-force oracle
# --------------------------------------------------------------------------

def _boxgap(grid, i, j):
    """Euclidean distance between closed cell boxes i and j."""
    bi, bj = grid.cell_box(i), grid.cell_box(j)
    if grid.domain.kind == "circle":
        d = abs(grid.cell_center(i)[0] - grid.cell_center(j)[0])
        d = min(d, 1.0 - d)
        return max(d - grid.spacing[0], 0.0)
    gaps = np.maximum(
        np.maximum(bj[:, 0] - bi[:, 1], bi[:, 0] - bj[:, 1]), 0.0
    )
    return float(np.linalg.norm(gaps))


def _fatten_oracle(cells, eps):
    grid = cells.grid
    members = cells.indices()
    keep = [
        j for j in range(grid.n_cells)
        if any(_boxgap(grid, int(i), j) <= eps for i in members)
    ]
    return CellSet.from_indices(grid, keep)


def test_fatten_worked_example():
    g = Grid(BOX, 100)
    s = CellSet.from_points(g, [[0.5]])
    out = fatten(s, 0.02)
    assert list(out.indices()) == list(range(47, 54))   # 7 cells


def test_fatten_contains_input_and_full_grid_fixed_point():
    g = Grid(BOX, 50)
    s = CellSet.from_indices(g, [3, 17, 44])
    assert s.issubset(fatten(s, 0.01))
    assert fatten(CellSet.full(g), 0.2) == CellSet.full(g)


@pytest.mark.parametrize("domain,cells", [
    (BOX, 60), (CIRCLE, 60), (Domain.box([[0, 1], [0, 2]]), (8, 10)),
    # 3 circle cells: 2k + 1 >= n, every range covers the whole circle
    (CIRCLE, 3),
    # a box narrower than most drawn eps
    (Domain.box([[0.0, 0.05]]), 6),
])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_fatten_matches_bruteforce_oracle(domain, cells, data):
    g = Grid(domain, cells)
    extent = float(np.linalg.norm(domain.widths))
    # up to a third of the extent, or beyond it (every cell is then kept)
    eps = data.draw(st.one_of(
        st.floats(1e-4, extent / 3),
        st.sampled_from([1.01 * extent, 7.0 * extent, 1e300])))
    members = data.draw(st.lists(st.integers(0, g.n_cells - 1), min_size=1,
                                 max_size=min(5, g.n_cells), unique=True))
    s = CellSet.from_indices(g, members)
    got = fatten(s, eps)
    # equal to the oracle, except for a cell exactly eps away (a drawn eps
    # can be a multiple of the spacing): the oracle's box coordinates and
    # fatten's offsets round such a tie each their own way
    assert _fatten_oracle(s, eps * (1 - 1e-9)).issubset(got)
    assert got.issubset(_fatten_oracle(s, eps * (1 + 1e-9)))


def test_fatten_monotone_in_set_and_eps():
    rng = np.random.default_rng(5)
    g = Grid(BOX, 80)
    for _ in range(20):
        a = CellSet.from_indices(g, rng.choice(80, size=3, replace=False))
        extra = CellSet.from_indices(g, rng.choice(80, size=2, replace=False))
        b = a | extra
        assert fatten(a, 0.03).issubset(fatten(b, 0.03))
        assert fatten(a, 0.03).issubset(fatten(a, 0.07))


def test_fatten_composition_over_approximates():
    rng = np.random.default_rng(9)
    g = Grid(CIRCLE, 90)
    for _ in range(20):
        s = CellSet.from_indices(g, rng.choice(90, size=3, replace=False))
        assert fatten(s, 0.05 + 0.03).issubset(fatten(fatten(s, 0.05), 0.03))


@pytest.mark.parametrize("grid,eps", [
    (Grid(Domain.box([[0.0, 1.0]]), 40), 1e300),
    (Grid(Domain.circle(), 40), 1e300),
    (Grid(Domain.box([[0, 1], [0, 2]]), (6, 9)), 1e300),
    (Grid(Domain.box([[0.0, 1.0]]), 2 ** 20), 1e308),
    (Grid(Domain.circle(), 2 ** 20), 1e308),
], ids=["box", "circle", "box-2d", "box-2^20", "circle-2^20"])
def test_fatten_huge_eps_gives_full_grid(grid, eps):
    one = CellSet.from_indices(grid, [grid.n_cells // 3])
    assert fatten(one, eps) == CellSet.full(grid)


@pytest.mark.parametrize("shape", [(23, 17), (96, 96)])
def test_fatten_2d_matches_binary_dilation(shape):
    """2-D fatten dilates row offset by row offset; the oracle is a binary
    dilation by the same (symmetric) structuring mask, computed as an FFT
    convolution that counts the mask cells under the structuring mask: the
    counts are integers of at most 96 * 96, so "> 0.5" is exact."""
    rng = np.random.default_rng(3)
    g = Grid(Domain.box([[0, 1], [0, 2]]), shape)
    for eps in (0.04, 0.11, 1.0, 1e300):
        for density in (0.002, 0.05, 0.5):
            mask = rng.random(shape) < density
            mask.flat[rng.integers(g.n_cells)] = True
            struct = g.fatten_offsets(eps).astype(float)
            want = fftconvolve(mask.astype(float), struct, mode="same") > 0.5
            assert np.array_equal(fatten(CellSet(g, mask), eps).mask, want)


def test_fatten_offsets_capped_at_grid_extent():
    assert Grid(Domain.box([[0.0, 1.0]]), 40).fatten_offsets(1e300) == 40
    assert Grid(Domain.box([[0.0, 1.0]]), 40).fatten_offsets(0.1) == 5
    struct = Grid(Domain.box([[0, 1], [0, 2]]), (6, 9)).fatten_offsets(1e300)
    assert struct.shape == (15, 21) and struct.all()


def test_fatten_offsets_corrects_a_quotient_rounded_up():
    # eps / h rounds to 3.0 though 3h > eps: a cell 3 away does not touch
    assert Grid(Domain.box([[0, 1]]), 6).fatten_offsets(0.49999999999999994) == 3


def test_from_box_on_the_circle_wraps_across_zero():
    assert CellSet.from_box(Grid(CIRCLE, 8), [0.9], [1.1]).indices().tolist() == [0, 7]


def test_fatten_circle_wraps():
    g = Grid(CIRCLE, 100)
    s = CellSet.from_points(g, [[0.0]])
    out = fatten(s, 0.02)
    assert {97, 98, 99, 0, 1, 2, 3}.issubset(set(out.indices()))


# --------------------------------------------------------------------------
# the range union kernel
# --------------------------------------------------------------------------

@st.composite
def range_sets(draw):
    """n cells and (start, length) ranges, 0 <= start <= n and
    0 <= length <= n: empty, wrapped and whole-circle ranges included."""
    n = draw(st.integers(1, 200))
    pairs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                          max_size=12))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    starts, lengths = np.array(pairs, dtype).reshape(-1, 2).T
    return n, starts, lengths


def _union_oracle(n, starts, lengths):
    mask = np.zeros(n, bool)
    for s, length in zip(starts.tolist(), lengths.tolist()):
        for j in range(length):
            mask[(s + j) % n] = True
    return mask


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=range_sets())
@example(case=(1, np.zeros(0, np.int64), np.zeros(0, np.int64)))
@example(case=(7, np.array([7, 3, 0]), np.array([0, 0, 0])))
# a start at n is 0 modulo n
@example(case=(7, np.array([7, 7]), np.array([0, 2])))
@example(case=(7, np.array([4, 0]), np.array([7, 7])))
@example(case=(200, np.array([0, 195, 0, 100]), np.array([0, 10, 0, 1])))
def test_range_union_matches_set_union(case):
    n, starts, lengths = case
    assert np.array_equal(_range_union(n, starts, lengths),
                          _union_oracle(n, starts, lengths))


@pytest.mark.parametrize("starts,lengths", [
    ([5, 9], [3, 3]),
    # (0, 0) padding rows and an empty range at n must not widen the span
    ([0, 5, 9, 2 ** 22], [0, 3, 3, 0]),
])
def test_range_union_memory_follows_the_span(starts, lengths):
    # beyond its n-byte mask the kernel holds O(ranges + span); a difference
    # array over every cell took two (n + 1) int64 arrays, 64 MiB here
    n = 2 ** 22
    starts, lengths = np.array(starts), np.array(lengths)
    tracemalloc.start()
    try:
        mask = _range_union(n, starts, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.flatnonzero(mask).tolist() == [5, 6, 7, 9, 10, 11]
    assert peak - mask.nbytes < 2 ** 20, peak


# --------------------------------------------------------------------------
# hausdorff
# --------------------------------------------------------------------------

def test_hausdorff_identical_sets_zero():
    g = Grid(BOX, 100)
    s = CellSet.from_indices(g, [10, 20, 30])
    assert hausdorff(s, s) == 0.0


def test_hausdorff_two_cells():
    g = Grid(BOX, 100)
    a = CellSet.from_points(g, [[0.0]])
    b = CellSet.from_points(g, [[0.25]])
    assert abs(hausdorff(a, b) - 0.25) <= g.cell_diameter


def test_hausdorff_symmetric_and_triangle():
    rng = np.random.default_rng(13)
    for g in (Grid(BOX, 70), Grid(CIRCLE, 70)):
        for _ in range(20):
            sets = [
                CellSet.from_indices(g, rng.choice(70, size=k, replace=False))
                for k in (3, 5, 4)
            ]
            a, b, c = sets
            assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))
            assert hausdorff(a, b) <= (
                hausdorff(a, c) + hausdorff(c, b) + 1e-12
            )


@pytest.mark.parametrize("domain", [
    BOX, CIRCLE, Domain.box([[0, 1], [0, 2]]),
])
def test_nearest_distances_match_per_point_minimum(domain):
    rng = np.random.default_rng(17)
    lo, width = domain.bounds[:, 0], domain.widths
    for _ in range(50):
        m, k = rng.integers(1, 40, size=2)
        pts = lo + rng.random((m, domain.ndim)) * width
        ref = lo + rng.random((k, domain.ndim)) * width
        want = [np.min(domain.distances(ref, p)) for p in pts]
        assert np.array_equal(nearest_distances(domain, pts, ref), want)


@pytest.mark.parametrize("domain", [BOX, Domain.box([[-1.0, 3.0]])])
def test_nearest_distances_1d_box_match_kdtree(domain):
    # references on a coarse lattice repeat and tie: points on the lattice
    # and halfway between lattice points are equally near to two references
    rng = np.random.default_rng(5)
    lo, width = domain.bounds[0, 0], domain.widths[0]
    lattice = lo + np.arange(9) / 8 * width
    for _ in range(200):
        ref = rng.choice(lattice, size=rng.integers(1, 12))[:, None]
        pts = np.concatenate([
            lattice, (lattice[1:] + lattice[:-1]) / 2,
            lo + rng.random(20) * width])[:, None]
        want = cKDTree(ref).query(pts)[0]
        assert np.array_equal(nearest_distances(domain, pts, ref), want)


def test_hausdorff_empty_raises():
    g = Grid(BOX, 10)
    with pytest.raises(EmptySetError):
        hausdorff(CellSet.empty(g), CellSet.full(g))


def test_hausdorff_grid_mismatch_raises():
    with pytest.raises(GridMismatchError):
        hausdorff(CellSet.full(Grid(BOX, 10)), CellSet.full(Grid(BOX, 20)))


def _full_hausdorff(a, b):
    """The definition: every center of each set against every center of the
    other, with no cell skipped."""
    dom, ca, cb = a.grid.domain, a.centers(), b.centers()
    d = dom.distances(ca[:, None, :], cb[None, :, :])
    return float(max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0))))


# non-dyadic spacings, so that r // spacing can floor one below an attained
# offset; unequal spacings in 2-D, with the rows along either axis, and thin
# grids whose window spans many columns; a circle of 5 cells
WINDOW_GRIDS = [
    Grid(BOX, 13), Grid(Domain.box([[-1.0, 2.0]]), 7), Grid(CIRCLE, 11),
    Grid(CIRCLE, 5), Grid(Domain.box([[0, 1], [0, 2]]), (6, 5)),
    Grid(Domain.box([[0, 1], [0, 1]]), (7, 7)),
    Grid(Domain.box([[-1, 2], [0, 1]]), (4, 9)),
    Grid(Domain.box([[0, 1], [0, 1]]), (3, 24)),
    Grid(Domain.box([[0, 1], [0, 3]]), (21, 2)),
]


@st.composite
def set_pairs(draw):
    grid = draw(st.sampled_from(WINDOW_GRIDS))
    cells = st.integers(0, grid.n_cells - 1)
    a = draw(st.sets(cells, min_size=1, max_size=grid.n_cells - 1))
    kind = draw(st.sampled_from(["random", "disjoint", "nested", "equal"]))
    if kind == "random":
        b = draw(st.sets(cells, min_size=1))
    elif kind == "disjoint":
        rest = sorted(set(range(grid.n_cells)) - a)
        b = draw(st.sets(st.sampled_from(rest), min_size=1))
    elif kind == "nested":
        b = a | draw(st.sets(cells))
    else:
        b = set(a)
    a, b = (CellSet.from_indices(grid, sorted(s)) for s in (a, b))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=set_pairs(), data=st.data())
def test_hausdorff_within_is_exactly_hausdorff_le_r(case, data):
    a, b = case
    grid, h = a.grid, hausdorff(a, b)
    ca, cb = a.centers(), b.centers()
    i = data.draw(st.integers(0, len(ca) - 1))
    j = data.draw(st.integers(0, len(cb) - 1))
    pair = float(grid.domain.distances(ca[i], cb[j]))
    r = data.draw(st.sampled_from([
        grid.cell_diameter, 2 * grid.cell_diameter,   # 2 diameters: chain_reach
        pair, h, float(np.nextafter(h, 0.0)),          # ties at attained distances
        data.draw(st.floats(0.0, 2.0 * float(np.max(grid.domain.widths)))),
    ]))
    assert _hausdorff_within(a, b, r) == (h <= r)


def test_hausdorff_searches_only_cells_outside_the_other_set():
    # equal to the full definition bit for bit, and 0.0 on equal sets
    rng = np.random.default_rng(23)
    for g in WINDOW_GRIDS:
        for _ in range(40):
            a = CellSet(g, rng.random(g.shape) < rng.random())
            b = CellSet(g, rng.random(g.shape) < rng.random())
            if rng.random() < 0.5:   # nested: most cells in both
                b = a | CellSet(g, rng.random(g.shape) < 0.1)
            if not a or not b:
                continue
            assert hausdorff(a, b) == _full_hausdorff(a, b)
            assert hausdorff(a, a) == 0.0


def test_hausdorff_within_square_cells_tie_at_two_diameters():
    # offset (2, 2) on square cells sits at 2 * sqrt(2) * h: the r that
    # chain_reach passes, and a pair distance that rounds either side of it
    g = Grid(Domain.box([[0, 1], [0, 1]]), (10, 10))
    a = CellSet.from_indices(g, [0])
    b = CellSet.from_indices(g, [22])
    for r in (2 * g.cell_diameter, hausdorff(a, b)):
        assert _hausdorff_within(a, b, r) == (hausdorff(a, b) <= r)


def test_hausdorff_within_in_blocks_of_a_few_pairs(monkeypatch):
    # blocks of one cell, or of a few (row, cell) pairs, decide as one block
    rng = np.random.default_rng(29)
    for pairs in (1, 5, 16):
        monkeypatch.setattr(geometry, "_WINDOW_PAIRS", pairs)
        for g in WINDOW_GRIDS:
            for _ in range(15):
                a = CellSet(g, rng.random(g.shape) < rng.random())
                b = CellSet(g, rng.random(g.shape) < rng.random())
                if not a or not b:
                    continue
                for r in (g.cell_diameter, 2 * g.cell_diameter, hausdorff(a, b)):
                    assert _hausdorff_within(a, b, r) == (hausdorff(a, b) <= r)


def test_hausdorff_within_memory_is_bounded_on_thin_cells():
    # the chain_reach radius on 8 x 4096 cells spans 7 rows and 2899 columns:
    # a gather over every index offset would hold 20,293 offsets per cell,
    # 2.7 GB of indices for these 16,384 cells.  Rows and a sorted search over
    # columns, in blocks, stay within a few MB (2.8 MB measured, 20 MB
    # unblocked).
    g = Grid(Domain.box([[0, 1], [0, 1]]), (8, 4096))
    cols = np.arange(4096) % 2 == 0
    a = CellSet(g, np.broadcast_to(cols, g.shape).copy())
    b = CellSet(g, np.broadcast_to(~cols, g.shape).copy())
    r = Grid(g.domain, (4, 2048)).cell_diameter
    tracemalloc.start()
    try:
        within = _hausdorff_within(a, b, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert within
    assert peak < 8 * 2 ** 20, peak


def test_hausdorff_within_checks_like_hausdorff():
    g = Grid(BOX, 10)
    with pytest.raises(EmptySetError):
        _hausdorff_within(CellSet.full(g), CellSet.empty(g), 1.0)
    with pytest.raises(GridMismatchError):
        _hausdorff_within(CellSet.full(g), CellSet.full(Grid(BOX, 20)), 1.0)
    assert _hausdorff_within(CellSet.full(g), CellSet.full(g), 0.0)
    assert not _hausdorff_within(CellSet.full(g), CellSet.full(g), -1.0)


@pytest.mark.parametrize("r", [-1.0, -1e-300, float("nan")])
def test_hausdorff_within_refuses_a_negative_or_nan_radius_in_2d(r):
    g = Grid(Domain.box([[0, 1], [0, 1]]), (7, 7))
    a = CellSet.from_indices(g, [0, 8, 24])
    for b in (a, CellSet.from_indices(g, [1, 40])):
        assert not hausdorff(a, b) <= r
        assert not _hausdorff_within(a, b, r)


# --------------------------------------------------------------------------
# cell sets
# --------------------------------------------------------------------------

def test_cellset_algebra_exact():
    g = Grid(BOX, 30)
    a = CellSet.from_indices(g, [1, 2, 3])
    b = CellSet.from_indices(g, [3, 4])
    assert sorted((a | b).indices()) == [1, 2, 3, 4]
    assert sorted((a & b).indices()) == [3]
    assert sorted((a - b).indices()) == [1, 2]


def test_cellset_refine_preserves_region():
    g = Grid(BOX, 10)
    s = CellSet.from_indices(g, [4])
    r = s.refine(4)
    assert sorted(r.indices()) == [16, 17, 18, 19]


def test_dump_format_1d():
    g = Grid(BOX, 10)
    s = CellSet.from_indices(g, [7, 2])
    assert s.dumps() == "2\n7\n"


def test_dump_format_2d_lexicographic():
    g = Grid(Domain.box([[0, 1], [0, 1]]), (3, 3))
    s = CellSet.from_indices(g, [8, 1, 3])
    assert s.dumps() == "0,1\n1,0\n2,2\n"


def test_grid_for_respects_coupling():
    for dom in (BOX, CIRCLE, Domain.box([[0, 1], [0, 1]])):
        g = grid_for(dom, 0.05)
        assert 0.05 >= 4.0 * g.cell_diameter * (1 - 1e-12)
