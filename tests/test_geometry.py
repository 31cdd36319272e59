import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from chainscope.errors import DomainError, EmptySetError, GridMismatchError
from chainscope.geometry import (
    CellSet,
    Domain,
    Grid,
    fatten,
    grid_for,
    hausdorff,
    metric_distance,
    nearest_distances,
)

BOX = Domain.box([[0.0, 1.0]])
CIRCLE = Domain.circle()


# --------------------------------------------------------------------------
# metric
# --------------------------------------------------------------------------

def test_metric_box_euclidean():
    assert metric_distance(BOX, 0.2, 0.7) == pytest.approx(0.5)


def test_metric_circle_wraparound():
    assert metric_distance(CIRCLE, 0.1, 0.9) == pytest.approx(0.2)


def test_metric_identity_of_indiscernibles():
    for dom, x in [(BOX, 0.37), (CIRCLE, 0.91)]:
        assert metric_distance(dom, x, x) == 0.0


def test_metric_outside_domain_raises():
    with pytest.raises(DomainError):
        metric_distance(BOX, -0.1, 0.5)


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
    # a box narrower than eps = 0.11
    (Domain.box([[0.0, 0.05]]), 6),
])
def test_fatten_matches_bruteforce_oracle(domain, cells):
    rng = np.random.default_rng(11)
    g = Grid(domain, cells)
    for eps in (0.04, 0.11):
        for _ in range(5):
            members = rng.choice(g.n_cells, size=min(4, g.n_cells - 1),
                                 replace=False)
            s = CellSet.from_indices(g, members)
            assert fatten(s, eps) == _fatten_oracle(s, eps)


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
    """2-D fatten dilates row offset by row offset; scipy's binary_dilation
    by the same structuring mask is the oracle."""
    rng = np.random.default_rng(3)
    g = Grid(Domain.box([[0, 1], [0, 2]]), shape)
    for eps in (0.04, 0.11, 1.0, 1e300):
        for density in (0.002, 0.05, 0.5):
            mask = rng.random(shape) < density
            mask.flat[rng.integers(g.n_cells)] = True
            want = binary_dilation(mask, g.fatten_offsets(eps))
            assert np.array_equal(fatten(CellSet(g, mask), eps).mask, want)


def test_fatten_offsets_capped_at_grid_extent():
    assert Grid(Domain.box([[0.0, 1.0]]), 40).fatten_offsets(1e300) == 40
    assert Grid(Domain.box([[0.0, 1.0]]), 40).fatten_offsets(0.1) == 5
    struct = Grid(Domain.box([[0, 1], [0, 2]]), (6, 9)).fatten_offsets(1e300)
    assert struct.shape == (15, 21) and struct.all()


def test_fatten_circle_wraps():
    g = Grid(CIRCLE, 100)
    s = CellSet.from_points(g, [[0.0]])
    out = fatten(s, 0.02)
    assert {97, 98, 99, 0, 1, 2, 3}.issubset(set(out.indices()))


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
        want = [np.min(domain.distances_to(ref, p)) for p in pts]
        assert np.array_equal(nearest_distances(domain, pts, ref), want)


def test_hausdorff_empty_raises():
    g = Grid(BOX, 10)
    with pytest.raises(EmptySetError):
        hausdorff(CellSet.empty(g), CellSet.full(g))


def test_hausdorff_grid_mismatch_raises():
    with pytest.raises(GridMismatchError):
        hausdorff(CellSet.full(Grid(BOX, 10)), CellSet.full(Grid(BOX, 20)))


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
