import dataclasses
import tracemalloc

import numpy as np
import pytest

from chainscope import reachability
from chainscope.errors import ControlError, InconclusiveError, ResourceLimitError
from chainscope.geometry import CellSet, Domain, Grid, fatten, hausdorff
from chainscope.reachability import (
    chain_reach,
    default_delta_schedule,
    find_uniform_delta,
    orbit_reach,
    replay_certificate,
    robustness_check,
    semicontinuity_probe,
    verify_initial_fattening,
)
from chainscope.systems import (
    affine2d,
    constant,
    drift_control,
    identity_map,
    logistic,
    rotation,
    square,
)
from chainscope.transition import build_graph

BOX = Domain.box([[0.0, 1.0]])
SKEW = affine2d([[0.5, 0.1], [0, 0.6]], [0.2, 0.15])


# --------------------------------------------------------------------------
# orbit reach
# --------------------------------------------------------------------------

def test_orbit_square_converges_to_zero():
    g = Grid(BOX, 100)
    r = orbit_reach(square(), 0.5, g)
    assert r.converged
    got = set(int(i) for i in r.cells.indices())
    assert {g.cell_of(0.5), g.cell_of(0.25), g.cell_of(0.0625), 0} <= got


def test_orbit_identity_single_cell():
    g = Grid(BOX, 100)
    r = orbit_reach(identity_map(), 0.5, g)
    assert r.converged and list(r.cells.indices()) == [g.cell_of(0.5)]


def test_orbit_rotation_third_three_cells():
    g = Grid(Domain.circle(), 12)
    r = orbit_reach(rotation(1.0 / 3.0), 0.0, g)
    assert r.converged and r.steps_used == 3
    assert sorted(r.cells.indices()) == [0, 4, 8]


def test_orbit_multivalued_tree_covers_interval():
    g = Grid(Domain.box([[-1, 1]]), 200)
    r = orbit_reach(drift_control(0.5), 0.9, g)
    assert r.converged
    # invariant interval of 0.5x + {-0.1, 0, 0.1} is [-0.2, 0.2]
    centers = r.cells.centers()[:, 0]
    inside = centers[np.abs(centers) <= 0.21]
    assert inside.size >= 30


def test_orbit_control_sequence():
    g = Grid(Domain.box([[-1, 1]]), 50)
    sys = drift_control(0.5)
    r = orbit_reach(sys, 0.4, g, policy=[0.1, -0.1, 0.0])
    assert r.converged and r.steps_used == 3
    assert g.cell_of(0.3) in r.cells          # 0.5*0.4 + 0.1


def test_orbit_control_outside_control_set_raises():
    g = Grid(Domain.box([[-1, 1]]), 50)
    with pytest.raises(ControlError):
        orbit_reach(drift_control(0.5), 0.4, g, policy=[0.1, 0.7])
    with pytest.raises(ControlError):
        orbit_reach(drift_control(0.5), 0.4, g, policy=[None])


def test_orbit_unconverged_flag():
    g = Grid(Domain.circle(), 64)
    r = orbit_reach(rotation(0.6180339887), 0.1, g, max_steps=10)
    assert not r.converged


# --------------------------------------------------------------------------
# chain reach
# --------------------------------------------------------------------------

def test_chain_identity_full_every_level():
    start = CellSet.from_points(Grid(BOX, 40), [[0.5]])
    res = chain_reach(identity_map(), start, 0.1, 4)
    for lv in res.levels:
        assert len(lv.cells) == lv.grid.n_cells
    assert res.stabilized


def test_chain_constant_shrinks_to_fixed_band():
    start = CellSet.from_points(Grid(BOX, 50), [[0.9]])
    res = chain_reach(constant(0.3), start, 0.08, 3)
    for prev, cur in zip(res.levels, res.levels[1:]):
        assert len(cur.cells) / cur.grid.n_cells <= (
            len(prev.cells) / prev.grid.n_cells
        )
    final_centers = res.final.centers()[:, 0]
    band = final_centers[np.abs(final_centers - 0.3) < 0.05]
    near_start = final_centers[np.abs(final_centers - 0.9) < 0.05]
    assert band.size + near_start.size == final_centers.size


def test_chain_square_from_one_does_not_collapse():
    start = CellSet.from_points(Grid(BOX, 80), [[1.0]])
    res = chain_reach(square(), start, 0.2, 3)
    for lv in res.levels:
        assert len(lv.cells) == lv.grid.n_cells   # covers [0, 1], not {1}


@pytest.mark.parametrize("sys, cells, eps0, levels, x, want", [
    (square(), 32, 0.5, 3, [0.134], False),
    (logistic(3.7), 32, 0.5, 3, [0.495], True),
    (logistic(3.2), 50, 0.3, 4, [0.433], False),
    (identity_map(), 64, 0.1, 3, [0.002], True),
    (rotation(0.6180339887498949), 50, 0.3, 4, [0.031], True),
    (SKEW, (16, 16), 0.36, 2, [0.438, 0.496], False),
    (SKEW, (16, 8), 0.75, 2, [0.219, 0.460], True),
    (affine2d([[0.98, 0], [0, 0.5]], [0.01, 0.2]), (12, 20), 0.5, 3,
     [0.561, 0.426], False),
    (affine2d([[0.9, 0], [0, 0.9]], [0.05, 0.05]), (8, 8), 0.75, 3,
     [0.121, 0.333], True),
])
def test_chain_stabilized_matches_the_hausdorff_expression(
        sys, cells, eps0, levels, x, want):
    # the window test in chain_reach against the Hausdorff distance it
    # decides, in 1-D and 2-D, with both verdicts
    start = CellSet.from_points(Grid(sys.domain, cells), [x])
    res = chain_reach(sys, start, eps0, levels)
    prev, cur = res.levels[-2], res.levels[-1]
    oracle = hausdorff(prev.cells.refine(2), cur.cells) <= prev.grid.cell_diameter
    assert res.stabilized == oracle == want


def test_chain_levels_nested():
    for sys, x in [(square(), 1.0), (constant(0.3), 0.9), (identity_map(), 0.2)]:
        start = CellSet.from_points(Grid(BOX, 64), [[x]])
        res = chain_reach(sys, start, 0.1, 3)
        for prev, cur in zip(res.levels, res.levels[1:]):
            hull = fatten(prev.cells.refine(2), prev.eps)
            assert cur.cells.issubset(hull)


def test_chain_union_additivity():
    g = Grid(BOX, 64)
    s1 = CellSet.from_points(g, [[0.1]])
    s2 = CellSet.from_points(g, [[0.8]])
    sys = square()
    r1 = chain_reach(sys, s1, 0.08, 2)
    r2 = chain_reach(sys, s2, 0.08, 2)
    ru = chain_reach(sys, s1 | s2, 0.08, 2)
    for a, b, u in zip(r1.levels, r2.levels, ru.levels):
        assert (a.cells | b.cells) == u.cells


def test_chain_resource_cap(monkeypatch):
    start = CellSet.from_points(Grid(BOX, 1024), [[0.5]])
    monkeypatch.setenv("CHAINSCOPE_MAX_CELLS", "4096")
    with pytest.raises(ResourceLimitError) as exc:
        chain_reach(identity_map(), start, 4 * (1 / 1024) * 4, 8)
    assert exc.value.partial is not None
    assert len(exc.value.partial.levels) >= 1


@pytest.mark.parametrize("cap,call", [
    ("4096", lambda: robustness_check(square(), 0.5, eps=0.01)),   # derives 25,600 cells
    ("4096", lambda: semicontinuity_probe(square(), 0.5, 5e-4, "usc")),   # 8,000 cells
    ("4096", lambda: Grid(BOX, 4097)),
    ("4096", lambda: CellSet.full(Grid(Domain.box([[0, 1], [0, 1]]), (64, 64))).refine(64)),
    (None, lambda: robustness_check(square(), 0.5, eps=2e-5)),   # 12.8M cells, default cap
], ids=["robustness-derived", "semicontinuity-derived", "grid", "cellset-refine",
        "robustness-default-cap"])
def test_cell_cap_refuses_before_allocating(monkeypatch, cap, call):
    """Every grid is checked against the cap where it is made, library
    calls included, before anything is allocated on it."""
    if cap is None:
        monkeypatch.delenv("CHAINSCOPE_MAX_CELLS", raising=False)
    else:
        monkeypatch.setenv("CHAINSCOPE_MAX_CELLS", cap)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="CHAINSCOPE_MAX_CELLS"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_orbit_inside_chain_reach():
    """Sandwich: sampled orbit cells sit inside every chain-reach level."""
    for sys, x in [(square(), 0.7), (constant(0.3), 0.5),
                   (rotation(1.0 / 3.0), 0.0)]:
        dom = sys.domain
        base = Grid(dom, 60)
        start = CellSet.from_points(base, [[x]])
        res = chain_reach(sys, start, 0.1, 3)
        orbit = orbit_reach(sys, x, res.levels[-1].grid)
        hull = fatten(res.final, res.levels[-1].grid.cell_diameter)
        assert orbit.cells.issubset(hull)


# --------------------------------------------------------------------------
# robustness certificates
# --------------------------------------------------------------------------

def test_square_at_one_non_robust_with_witness():
    g = Grid(BOX, 2 ** 14)
    schedule = [0.05 / 2 ** k for k in range(8)]   # down to ~0.00039 > 4h
    cert = robustness_check(square(), 1.0, 0.1, schedule, g)
    assert cert.verdict == "non-robust-at-resolution"
    assert cert.delta_found is None
    assert cert.endpoint_distance > 0.1
    # chain starts at 1 and steps stay within delta_min of the true image
    assert cert.witness[0].point == (1.0,)
    assert all(w.dist_to_image < cert.delta_min for w in cert.witness[1:])
    assert replay_certificate(square(), cert, 1.0, g)


def test_square_at_zero_robust_and_replayable():
    g = Grid(BOX, 2 ** 12)
    cert = robustness_check(square(), 0.0, 0.1, grid=g)
    assert cert.verdict == "robust-at-resolution"
    assert cert.delta_found >= 0.02
    assert replay_certificate(square(), cert, 0.0, g)
    # a radius past the certified one lets the graph reach escape
    assert cert.delta_found < 0.1
    assert not replay_certificate(square(), dataclasses.replace(cert, delta_found=0.1),
                                  0.0, g)


def test_constant_robust_far_from_target():
    g = Grid(BOX, 1024)
    cert = robustness_check(constant(0.3), 0.9, 0.1, grid=g)
    assert cert.verdict == "robust-at-resolution"


def test_identity_non_robust_everywhere():
    g = Grid(BOX, 1024)
    cert = robustness_check(identity_map(), 0.5, 0.1, grid=g)
    assert cert.verdict == "non-robust-at-resolution"
    assert replay_certificate(identity_map(), cert, 0.5, g)


def test_replay_rejects_tampered_witnesses():
    g = Grid(BOX, 2 ** 12)
    cert = robustness_check(square(), 1.0, 0.1, grid=g)
    assert cert.verdict == "non-robust-at-resolution"
    assert replay_certificate(square(), cert, 1.0, g)
    # a chain that starts 1e-6 from x, close enough for its next step
    moved = list(cert.witness)
    moved[0] = dataclasses.replace(moved[0], point=(1.0 - 1e-6,))
    # a step 2 * delta_min below the true image of the step before
    pushed = list(cert.witness)
    prev = pushed[1].point[0]
    pushed[2] = dataclasses.replace(pushed[2], point=(prev * prev - 2 * cert.delta_min,))
    for steps in (moved, pushed):
        assert not replay_certificate(square(), dataclasses.replace(cert, witness=steps),
                                      1.0, g)


def test_robustness_schedule_monotone_containment():
    """Checked flags are monotone: once contained, smaller deltas contained."""
    g = Grid(BOX, 2048)
    sched = [0.05, 0.025, 0.0125, 0.00625, 0.003125]
    cert = robustness_check(square(), 0.0, 0.05, sched, g)
    flags = [ok for _, ok in cert.checked]
    assert flags[-1] or cert.verdict == "non-robust-at-resolution"
    assert cert.delta_found == next(d for d, ok in cert.checked if ok)


def test_lemma1_coherence_chain_vs_fattened_orbit():
    """Certified robustness at every eps forces the chain-reach final to track
    the fattened orbit cover."""
    g = Grid(BOX, 512)
    sys = square()
    x = 0.0
    for eps in (0.2, 0.1, 0.05):
        cert = robustness_check(sys, x, eps, grid=g)
        assert cert.verdict == "robust-at-resolution"
    eps_last = 0.05
    start = CellSet.from_points(Grid(BOX, 128), [[x]])
    res = chain_reach(sys, start, 0.1, 3)
    orbit = orbit_reach(sys, x, res.levels[-1].grid)
    d = hausdorff(res.final, fatten(orbit.cells, eps_last))
    assert d <= eps_last + res.levels[-1].grid.cell_diameter


def test_robustness_inconclusive_on_unconverged_orbit():
    g = Grid(Domain.circle(), 256)
    with pytest.raises(InconclusiveError):
        robustness_check(rotation(0.6180339887), 0.0, 0.1, grid=g, max_steps=5)


# --------------------------------------------------------------------------
# uniform delta for iterated images
# --------------------------------------------------------------------------

def test_uniform_delta_square_band():
    g = Grid(BOX, 512)
    start = CellSet.from_box(g, [0.0], [0.1])
    found, rep = find_uniform_delta(square(), start, 0.1, 200)
    assert found is not None and found <= 0.05 + 1e-12


def test_uniform_delta_failure_record():
    """logistic(4.0) doubles a cell's width, so delta just under eps fails at
    the first step, and the report records where."""
    start = CellSet.from_points(Grid(BOX, 256), [[0.3]])
    found, rep = find_uniform_delta(logistic(4.0), start, 0.1, 20, delta_schedule=[0.099])
    assert found is None
    assert rep.as_record() == {
        "eps": 0.1, "n_max": 20, "found": None,
        "entries": [{"delta": 0.099, "ok": False, "first_fail_n": 1}],
    }


@pytest.mark.parametrize("eps", [float("inf"), float("nan")])
def test_delta_schedule_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError, match="finite"):
        default_delta_schedule(eps, 0.01)


def test_uniform_delta_rotation_isometry():
    g = Grid(Domain.circle(), 512)
    start = CellSet.from_points(g, [[0.2]])
    found, rep = find_uniform_delta(rotation(1.0 / 3.0), start, 0.08, 200)
    assert found == pytest.approx(0.02)


def plain_uniform_delta_entries(sys, start, eps, n_max):
    """find_uniform_delta's entries by checking every n up to n_max."""
    grid = start.grid
    g_eps = build_graph(sys, grid, eps)
    entries = []
    for delta in default_delta_schedule(eps, grid.resolution_floor):
        g_d = build_graph(sys, grid, delta)
        a, b = fatten(start, delta), start
        fail_n = next((n for n in range(1, n_max + 1)
                       if not (a := g_d.image_of(a)).issubset(b := g_eps.image_of(b))),
                      None)
        entries.append((delta, fail_n is None, fail_n))
        if fail_n is None:
            break
    return entries


@pytest.mark.parametrize("sys,domain,cells,x,eps", [
    (square(), BOX, 64, [0.3], 0.2),
    (square(), BOX, 512, [0.05], 0.1),
    (logistic(3.7), BOX, 1024, [0.4], 0.05),
    (rotation(0.6180339887498949), Domain.circle(), 1024, [0.2], 0.05),
    (identity_map(), BOX, 256, [0.5], 0.1),
    (SKEW, SKEW.domain, (32, 32), [0.3, 0.4], 0.5),
], ids=["square-64", "square-512", "logistic", "golden", "identity", "affine2d"])
def test_uniform_delta_stops_at_the_first_repeat(sys, domain, cells, x, eps):
    # past the first repeat of the pair of images every pair was checked
    # before: the entries equal a check of every n, and n_max 10^12 ends
    start = CellSet.from_points(Grid(domain, cells), [x])
    want = plain_uniform_delta_entries(sys, start, eps, 200)
    assert find_uniform_delta(sys, start, eps, 200)[1].entries == want
    assert find_uniform_delta(sys, start, eps, 10 ** 12)[1].entries == want


def test_delta_equal_eps_fails_at_one_step():
    g = Grid(BOX, 256)
    start = CellSet.from_points(g, [[0.5]])
    _, rep = find_uniform_delta(identity_map(), start, 0.1, 5,
                                delta_schedule=[0.1])
    assert rep.entries == [(0.1, False, 1)]


# --------------------------------------------------------------------------
# initial fattening equivalence
# --------------------------------------------------------------------------

@pytest.mark.parametrize("sys_factory,x,n", [
    (constant, 0.5, 128),
    (square, 1.0, 128),
    (identity_map, 0.2, 64),
])
def test_initial_fattening_equivalence(sys_factory, x, n):
    sys = sys_factory(0.3) if sys_factory is constant else sys_factory()
    start = CellSet.from_points(Grid(BOX, n), [[x]])
    rep = verify_initial_fattening(sys, start, 0.1, 3)
    assert rep.equivalent


# --------------------------------------------------------------------------
# semicontinuity probes
# --------------------------------------------------------------------------

def test_usc_probe_square_at_one_finds_violation():
    rep = semicontinuity_probe(square(), 1.0, 0.1, "usc", grid=Grid(BOX, 1024))
    assert rep.found_delta is None
    y = rep.violating_point[0]
    assert y < 1.0
    # the violating orbit genuinely escapes the fattened reach of x=1
    g = Grid(BOX, 1024)
    ry = orbit_reach(square(), y, g)
    rx = orbit_reach(square(), 1.0, g)
    assert not ry.cells.issubset(fatten(rx.cells, 0.1))


def test_lsc_probe_square_at_one_passes():
    rep = semicontinuity_probe(square(), 1.0, 0.1, "lsc", grid=Grid(BOX, 1024))
    assert rep.found_delta is not None


def test_identity_probe_passes_both_modes():
    for mode in ("usc", "lsc"):
        rep = semicontinuity_probe(identity_map(), 0.4, 0.1, mode,
                                   grid=Grid(BOX, 512))
        assert rep.found_delta is not None


@pytest.mark.parametrize("stuck,message", [
    (lambda starts: True, "reach at the probe center did not converge"),
    (lambda starts: len(starts) > 1, "reach at probe point"),
])
def test_probe_without_a_converged_orbit_is_inconclusive(monkeypatch, stuck, message):
    # the probe center's orbit runs alone, the ball's samples together
    real = reachability.reaches

    def reaches(sys, starts, *args):
        for r in real(sys, starts, *args):
            yield dataclasses.replace(r, converged=False) if stuck(starts) else r

    monkeypatch.setattr(reachability, "reaches", reaches)
    with pytest.raises(InconclusiveError, match=message):
        semicontinuity_probe(identity_map(), 0.4, 0.1, "usc", grid=Grid(BOX, 512))


@pytest.mark.parametrize("x", [(0.3, 0.4), (0.0, 1.0)])
def test_2d_ball_samples_lie_in_the_open_ball_and_the_domain(x):
    square_2d = Domain.box([[0.0, 1.0], [0.0, 1.0]])
    pts = reachability._ball_samples(square_2d, x, 0.1, 32)
    assert pts.shape == (32, 2)
    assert np.all(np.linalg.norm(pts - np.array(x), axis=1) < 0.1)
    assert np.all(square_2d.inside(pts))


@pytest.mark.parametrize("mode", ["usc", "lsc"])
def test_2d_probe_finds_a_radius(mode):
    sys = affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15])
    rep = semicontinuity_probe(sys, (0.3, 0.4), 0.5, mode,
                               grid=Grid(sys.domain, (32, 32)))
    assert rep.found_delta == 0.25
