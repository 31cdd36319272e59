"""Radius ladders: the robustness and stability schedules are searched, and
each containment sweep stops at its first escape.

The premise: the graph at a smaller eps is a subgraph of the graph at a
larger eps, and ``fatten(A, w)`` is nested in w, so "reach inside the
target" is false on a prefix of a decreasing schedule and true on the rest.
The search must then give the first success of a linear scan, and the
early-stopping containment test must agree with a full sweep.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.errors import EmptySetError
from chainscope.geometry import CellSet, Domain, Grid, fatten
from chainscope.minimal import lyapunov_stability
from chainscope.reachability import (
    _first_true,
    default_delta_schedule,
    orbit_reach,
    replay_certificate,
    robustness_check,
)
from chainscope.systems import (
    affine2d,
    drift_control,
    identity_map,
    logistic,
    rotation,
    square,
)
from chainscope.transition import _reach_within, build_graph, forward_reach

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
BOX = Domain.box([[0.0, 1.0]])
UNIT2 = Domain.box([[0.0, 1.0], [0.0, 1.0]])

# a 1-D box, the circle, a three-control box and 2-D
CASES = {
    "square": (square, BOX),
    "logistic": (lambda: logistic(3.7), BOX),
    "rotation": (lambda: rotation(0.37), Domain.circle()),
    "drift_control": (lambda: drift_control(0.5, (-0.3, 0.0, 0.45)),
                      Domain.box([[-1, 1]])),
    "affine2d": (lambda: affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]), UNIT2),
}


@st.composite
def graphs(draw):
    """A system, a grid, an eps in cell diameters, candidate cells (None
    for every cell) and a random generator for cell sets."""
    factory, domain = CASES[draw(st.sampled_from(sorted(CASES)))]
    if domain.ndim == 1:
        grid = Grid(domain, draw(st.integers(3, 120)))
    else:
        grid = Grid(domain, (draw(st.integers(3, 12)), draw(st.integers(3, 12))))
    eps = draw(st.sampled_from([4.0, 4.5, 7.0, 1e300])) * grid.cell_diameter
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = None
    if draw(st.booleans()):
        cells = CellSet(grid, rng.random(grid.shape) < draw(st.floats(0.1, 0.9)))
    return factory(), grid, eps, cells, rng


@SETTINGS
@given(case=graphs(), kind=st.sampled_from(["superset", "one-out", "random"]))
def test_reach_within_matches_full_sweep(case, kind):
    sys, grid, eps, cells, rng = case
    g = build_graph(sys, grid, eps, cells)
    # seeds are drawn from every cell, so they may lie outside the candidates
    seed = CellSet(grid, rng.random(grid.shape) < 0.05)
    seed.mask.flat[rng.integers(grid.n_cells)] = True
    reach = forward_reach(g, seed)
    noise = CellSet(grid, rng.random(grid.shape) < 0.5)
    if kind == "superset":
        allowed = reach | noise
    elif kind == "one-out":
        allowed = reach | noise
        allowed.mask.flat[rng.choice(reach.indices())] = False
    else:
        allowed = noise
    assert _reach_within(g, seed, allowed) == reach.issubset(allowed)


def test_reach_within_refuses_an_empty_start():
    g = build_graph(square(), Grid(BOX, 16), 0.25)
    with pytest.raises(EmptySetError):
        _reach_within(g, CellSet.empty(g.grid), CellSet.full(g.grid))


@pytest.mark.parametrize("n", range(1, 25))
def test_first_true_matches_linear_scan(n):
    for k in range(n + 1):   # holds from index k on; k == n: nowhere
        calls = []

        def holds(i):
            assert 0 <= i < n
            calls.append(i)
            return i >= k

        assert _first_true(n, holds) == k
        assert calls[0] == 0
        assert len(calls) <= 2 + math.ceil(math.log2(n))
        if k == 0:
            assert calls == [0]
        if k == n:
            assert calls == ([0, n - 1] if n > 1 else [0])


@SETTINGS
@given(case=graphs(), ratio=st.floats(1.0, 6.0))
def test_graph_edges_grow_with_eps(case, ratio):
    sys, grid, eps, cells, rng = case
    if eps > 1e10:
        eps = 4.0 * grid.cell_diameter
    small = build_graph(sys, grid, eps, cells).to_csr().astype(np.int8)
    large = build_graph(sys, grid, eps * ratio, cells).to_csr().astype(np.int8)
    assert (small - small.multiply(large)).count_nonzero() == 0
    a_set = CellSet(grid, rng.random(grid.shape) < 0.1)
    assert fatten(a_set, eps).issubset(fatten(a_set, eps * ratio))


def _contained(sys, grid, x, eps, delta):
    """The robustness test at one radius, by a full sweep."""
    target = fatten(orbit_reach(sys, x, grid).cells, eps)
    start = CellSet.from_points(grid, [sys.domain.canon(x)])
    return forward_reach(build_graph(sys, grid, delta), start).issubset(target)


@pytest.mark.parametrize("sys_factory,x,eps,cells,schedule", [
    (square, 1.0, 0.1, 256, None),
    (square, 0.0, 0.1, 256, None),
    (square, 0.9, 0.1, 1024, None),
    (square, 0.9, 0.1, 1024, [0.05, 0.04, 0.03, 0.02, 0.015, 0.01, 0.008,
                              0.006, 0.005, 0.004]),
    (lambda: logistic(3.7), 0.5, 0.1, 512, None),
    (lambda: logistic(3.7), 0.0, 0.3, 512, None),
    (lambda: rotation(0.25), 0.1, 0.3, 64, None),
    (identity_map, 0.3, 0.4, 256, [0.2, 0.15, 0.1, 0.07, 0.05, 0.04]),
    (lambda: drift_control(0.5), 0.3, 0.3, 256, None),
    (lambda: affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]), [0.3, 0.3], 0.5,
     (32, 32), None),
    (lambda: affine2d([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), [0.5, 0.5], 0.5,
     (32, 32), None),
], ids=["square-1", "square-0", "square-0.9", "square-0.9-fine", "logistic-0.5",
        "logistic-0", "rotation", "identity", "drift", "affine2d",
        "affine2d-identity"])
def test_searched_certificates_replay_and_match_a_scan(sys_factory, x, eps,
                                                       cells, schedule):
    sys = sys_factory()
    grid = Grid(sys.domain, cells)
    cert = robustness_check(sys, x, eps, schedule, grid)
    assert replay_certificate(sys, cert, x, grid), cert.verdict
    schedule = schedule or default_delta_schedule(eps, grid.resolution_floor)
    scan = []
    for delta in schedule:   # the linear scan that the search replaces
        scan.append((delta, _contained(sys, grid, x, eps, delta)))
        if scan[-1][1]:
            break
    assert cert.checked == scan
    robust = cert.verdict == "robust-at-resolution"
    assert robust == scan[-1][1]
    assert cert.delta_found == (scan[-1][0] if robust else None)


@pytest.mark.parametrize("sys_factory,cells,point,v_eps", [
    (square, 256, [0.0], 0.1),
    (square, 256, [1.0], 0.1),
    (lambda: logistic(2.5), 512, [0.6], 0.2),
    (lambda: rotation(0.25), 64, [0.1], 0.2),
])
def test_stability_w_is_the_first_success_of_a_scan(sys_factory, cells, point,
                                                    v_eps):
    sys = sys_factory()
    grid = Grid(sys.domain, cells)
    a_set = orbit_reach(sys, point, grid).cells
    res = lyapunov_stability(sys, a_set, v_eps)
    g = build_graph(sys, grid, grid.resolution_floor)
    v_set = fatten(a_set, v_eps)
    scan = [w for w in default_delta_schedule(v_eps, grid.resolution_floor)
            if forward_reach(g, fatten(a_set, w)).issubset(v_set)]
    if res.flag == "stable-certified":
        assert res.w_radius == scan[0]
    else:
        assert not scan
