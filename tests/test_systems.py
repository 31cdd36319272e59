import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.errors import SelfMapError
from chainscope.geometry import CellSet, Domain, Grid
from chainscope.systems import (
    affine2d,
    constant,
    drift_control,
    identity_map,
    image_cell,
    logistic,
    make_system,
    rotation,
    square,
)

BOX = Domain.box([[0.0, 1.0]])


def test_image_point_rotation():
    sys = rotation(0.25)
    assert sys.image_points([[0.5]], None)[0, 0] == pytest.approx(0.75)


@pytest.mark.parametrize("theta", [0.6180339887498949, 1.0 / 3.0, 0.37, -0.25, -1e-17])
def test_rotation_wraps_once_with_the_old_bytes(theta):
    # the map no longer applies its own % 1.0: one wrap gives the bytes of
    # the two it made before
    pts = np.random.default_rng(17).random((100_000, 1))
    pts[:4, 0] = [0.0, 1e-20, 0.999999999999, 0.5]
    want = ((pts + theta) % 1.0) % 1.0
    assert np.array_equal(rotation(theta).image_points(pts, None), want)


def test_image_point_square():
    assert square().image_points([[0.5]], None)[0, 0] == pytest.approx(0.25)


def test_image_point_drift_control():
    sys = drift_control(0.5)
    assert sys.image_points([[0.4]], 0.1)[0, 0] == pytest.approx(0.3)


def test_drift_control_self_map_guard():
    with pytest.raises(SelfMapError):
        drift_control(0.95)


def test_affine2d_corner_check():
    with pytest.raises(SelfMapError):
        affine2d([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    sys = affine2d([[0.5, 0.0], [0.0, 0.5]], [0.25, 0.25])
    out = sys.image_points([[0.0, 1.0]], None)[0]
    assert out == pytest.approx([0.25, 0.75])


def test_logistic_parameter_range():
    with pytest.raises(ValueError):
        logistic(4.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(r=st.sampled_from([0.5, 2.8, 3.7, 4.0]), xs=st.lists(st.floats(), max_size=40))
def test_logistic_clamp_equals_np_clip(r, xs):
    """The map clamps with np.minimum/np.maximum; bit for bit np.clip's
    result, signed zeros and NaN included."""
    pts = np.array(xs, dtype=float).reshape(-1, 1)
    with np.errstate(all="ignore"):
        want = np.clip(r * pts * (1.0 - pts), 0.0, 1.0)
        got = logistic(r).image_points(pts, None)
    assert got.tobytes() == want.tobytes()


def test_lipschitz_bound_sampled():
    rng = np.random.default_rng(21)
    for sys in (square(), logistic(3.7), rotation(0.3), drift_control(0.8),
                affine2d([[0.3, 0.2], [-0.1, 0.4]], [0.3, 0.3])):
        lo, hi = sys.domain.bounds[:, 0], sys.domain.bounds[:, 1]
        for _ in range(300):
            x = lo + rng.random(sys.domain.ndim) * (hi - lo)
            y = lo + rng.random(sys.domain.ndim) * (hi - lo)
            for u in sys.controls:
                fx = sys.image_points(x[None, :], u)[0]
                fy = sys.image_points(y[None, :], u)[0]
                assert sys.domain.distance(fx, fy) <= (
                    sys.lipschitz * sys.domain.distance(x, y) + 1e-12
                )


def test_self_map_sampled():
    rng = np.random.default_rng(22)
    for sys in (square(), logistic(4.0), constant(0.3), drift_control(0.6)):
        lo, hi = sys.domain.bounds[:, 0], sys.domain.bounds[:, 1]
        for _ in range(200):
            x = lo + rng.random(sys.domain.ndim) * (hi - lo)
            for u in sys.controls:
                assert sys.domain.contains(sys.image_points(x[None, :], u)[0])


# --------------------------------------------------------------------------
# cell images
# --------------------------------------------------------------------------

def test_image_cell_identity_contains_itself():
    g = Grid(BOX, 50)
    for c in (0, 13, 49):
        assert c in image_cell(identity_map(), c, g)


def test_image_cell_square_covers_exact_interval():
    g = Grid(BOX, 100)
    out = image_cell(square(), 50, g)     # cell [0.5, 0.51)
    covered = CellSet.from_box(g, [0.25], [0.2601])
    assert covered.issubset(out)


def test_image_cell_constant_contains_target():
    g = Grid(BOX, 64)
    sys = constant(0.3)
    for c in (0, 30, 63):
        assert g.cell_of(0.3) in image_cell(sys, c, g)


def test_image_cell_soundness_random():
    rng = np.random.default_rng(23)
    cases = [
        (square(), Grid(BOX, 113)),
        (rotation(0.137), Grid(Domain.circle(), 97)),
        (drift_control(0.7), Grid(Domain.box([[-1, 1]]), 151)),
        (affine2d([[0.4, 0.1], [0.0, 0.5]], [0.2, 0.2]),
         Grid(Domain.box([[0, 1], [0, 1]]), (11, 13))),
    ]
    for sys, g in cases:
        for _ in range(250):
            c = int(rng.integers(0, g.n_cells))
            box = g.cell_box(c)
            x = box[:, 0] + rng.random(g.domain.ndim) * (box[:, 1] - box[:, 0])
            u = sys.controls[int(rng.integers(len(sys.controls)))]
            y = sys.image_points(x[None, :], u)[0]
            assert g.cells_of(y[None, :])[0] in image_cell(sys, c, g)


def test_image_cell_monotone_map_tight():
    """Monotone 1-D maps: within one boundary cell of the exact interval cover."""
    g = Grid(BOX, 200)
    sys = square()
    for c in (20, 100, 180):
        box = g.cell_box(c)
        exact = CellSet.from_box(g, [box[0, 0] ** 2], [box[0, 1] ** 2])
        out = image_cell(sys, c, g)
        assert exact.issubset(out)
        lo, hi = exact.indices().min(), exact.indices().max()
        oidx = out.indices()
        # Lipschitz ball may overshoot the exact cover by the slack cells only
        slack = int(np.ceil(sys.lipschitz * g.cell_diameter / 2 / g.spacing[0])) + 1
        assert oidx.min() >= lo - slack and oidx.max() <= hi + slack


def test_image_of_set_is_union_of_cell_images():
    g = Grid(Domain.box([[-1, 1]]), 80)
    sys = drift_control(0.5)
    cells = [3, 40, 77]
    union = CellSet.empty(g)
    for c in cells:
        union = union | image_cell(sys, c, g)
    per_cell = [image_cell(sys, c, g) for c in cells]
    acc = per_cell[0]
    for nxt in per_cell[1:]:
        acc = acc | nxt
    assert acc == union


def test_make_system_registry():
    sys = make_system("logistic", {"r": 2.8})
    assert sys.name == "logistic" and sys.params["r"] == 2.8
    with pytest.raises(ValueError):
        make_system("nope", {})
