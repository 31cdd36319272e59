from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainscope import minimal
from chainscope.errors import ChainscopeError, DomainError, PreconditionError
from chainscope.geometry import CellSet, Domain, Grid, fatten, grid_for
from chainscope.minimal import (
    Census,
    MinimalSetApprox,
    _coarsen_indices,
    classify_component,
    dichotomy_report,
    is_graph_invariant,
    lyapunov_stability,
    minimal_sets,
    omega_limit,
    weak_basin,
)
from chainscope.reachability import orbit_reach, robustness_check
from chainscope.systems import (
    System,
    affine2d,
    constant,
    drift_control,
    identity_map,
    logistic,
    rotation,
    square,
)
from chainscope.transition import build_graph, forward_reach, recurrent_cells

BOX = Domain.box([[0.0, 1.0]])
GOLDEN = 0.6180339887


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------

def _ancestor_of(fine_comp, coarse_comps, fine, factor):
    """Oracle: the coarse component holding most of the fine component's
    coarsened cells, the first on a tie; None if it meets none."""
    coarse_cells = np.unique(_coarsen_indices(fine_comp, fine, factor))
    best, best_overlap = None, 0
    for i, cc in enumerate(coarse_comps):
        overlap = np.intersect1d(coarse_cells, cc, assume_unique=True).size
        if overlap > best_overlap:
            best, best_overlap = i, overlap
    return best


def _oracle_groups(sys, eps0, levels, base_grid):
    """Finest components merged by their level-0 ancestor, one component
    list per level kept: (cells, fragment count) in census order."""
    level_comps, recurrent = [], None
    for k in range(levels):
        grid = base_grid.refine(2 ** k)
        cand = recurrent.refine(2) if k else None
        comps = recurrent_cells(build_graph(sys, grid, eps0 / 2 ** k, cand))
        recurrent = CellSet.empty(grid)
        for cs in comps:
            recurrent.mask |= cs.mask
        level_comps.append([cs.indices() for cs in comps])
    groups = {}
    for i, comp in enumerate(level_comps[-1]):
        anc = (_ancestor_of(comp, level_comps[0], grid, 2 ** (levels - 1))
               if levels > 1 else i)
        assert anc is not None   # every finest component has an ancestor
        groups.setdefault(anc, []).append(i)
    merged = [(np.unique(np.concatenate([level_comps[-1][i] for i in m])), len(m),
               level_comps[0][anc]) for anc, m in groups.items()]
    return sorted(merged, key=lambda g: g[0][0]), [len(c) for c in level_comps]


AFFINE = affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15])


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("sys,eps0,grid", [
    (logistic(2.8), 0.02, Grid(BOX, 256)),
    (logistic(3.2), 0.02, Grid(BOX, 256)),
    (logistic(3.5), 0.01, Grid(BOX, 512)),
    (square(), 0.1, Grid(BOX, 64)),
    (rotation(1.0 / 3.0), 4 / 128, Grid(Domain.circle(), 128)),
    (drift_control(0.5), 0.1, Grid(Domain.box([[-1.0, 1.0]]), 128)),
    (AFFINE, 0.36, Grid(AFFINE.domain, (16, 16))),
], ids=["logistic2.8", "logistic3.2", "logistic3.5", "square", "rotation",
        "drift", "affine2d"])
def test_census_groups_match_ancestor_oracle(sys, eps0, grid, levels):
    census = minimal_sets(sys, eps0, levels, base_grid=grid)
    groups, counts = _oracle_groups(sys, eps0, levels, grid)
    assert census.level_component_counts == counts
    assert [(c.cells.indices().tolist(), c.fragment_count)
            for c in census.components] == [(g.tolist(), n) for g, n, _ in groups]


def test_census_square_two_fixed_points():
    census = minimal_sets(square(), 0.02, levels=3, base_grid=Grid(BOX, 256))
    assert census.count == "finite>1"
    assert len(census.components) == 2
    kinds = [c.classification.kind for c in census.components]
    assert kinds == ["fixed-point", "fixed-point"]
    lo, hi = census.components
    assert 0 in lo.cells.indices()
    assert census.grid_finest.n_cells - 1 in hi.cells.indices()
    assert all(c.evidence_minimal for c in census.components)
    assert all(c.isolated == "yes" for c in census.components)


def test_census_constant_unique_stable_point():
    census = minimal_sets(constant(0.3), 0.02, levels=3,
                          base_grid=Grid(BOX, 256))
    assert census.count == "1"
    comp = census.components[0]
    assert comp.classification.kind == "fixed-point"
    assert census.grid_finest.cell_of(0.3) in comp.cells


def test_census_identity_unbounded_at_resolution():
    census = minimal_sets(identity_map(), 0.05, levels=3,
                          base_grid=Grid(BOX, 128))
    assert census.count == "unbounded-at-resolution"
    comp = census.components[0]
    assert not comp.shrinks and not comp.orbit_covers
    assert comp.isolated == "unknown-at-resolution"


def test_census_rotation_rational_full_circle_every_level():
    g = Grid(Domain.circle(), 3 * 2 ** 10)
    census = minimal_sets(rotation(1.0 / 3.0), 4 * g.cell_diameter, levels=2,
                          base_grid=g)
    assert census.level_component_counts == [1, 1]
    assert len(census.components[0].cells) == census.grid_finest.n_cells
    assert census.count == "unbounded-at-resolution"


def test_census_rotation_irrational_unique_minimal():
    g = Grid(Domain.circle(), 3 * 2 ** 10)
    census = minimal_sets(rotation(GOLDEN), 4 * g.cell_diameter, levels=2,
                          base_grid=g)
    assert census.count == "1"
    assert len(census.components[0].cells) == census.grid_finest.n_cells
    assert census.components[0].orbit_covers


def test_census_drift_control_single_invariant_interval():
    g = Grid(Domain.box([[-1, 1]]), 256)
    census = minimal_sets(drift_control(0.5), 0.04, levels=2, base_grid=g)
    assert census.count == "1"
    centers = census.components[0].cells.centers()[:, 0]
    assert centers.min() >= -0.3 and centers.max() <= 0.3


def test_census_reads_orbits_cut_by_their_step_budget():
    # the golden rotation's mid orbit needs more than 150 steps to converge,
    # but its first 150 steps already cover the circle at this resolution
    g = Grid(Domain.circle(), 128)
    for max_steps in (150, 200_000):
        census = minimal_sets(rotation(GOLDEN), 4 * g.cell_diameter, 2, g,
                              orbit_max_steps=max_steps)
        assert census.count == "1"
        assert census.components[0].orbit_covers


def test_census_component_refinement_nesting():
    base = Grid(BOX, 256)
    eps0 = 0.02
    sys = square()
    coarse = build_graph(sys, base, eps0)
    fine = build_graph(sys, base.refine(2), eps0 / 2)
    from chainscope.transition import recurrent_cells

    coarse_cells = CellSet.empty(base)
    for c in recurrent_cells(coarse):
        coarse_cells = coarse_cells | c
    fine_cells = CellSet.empty(base.refine(2))
    for c in recurrent_cells(fine):
        fine_cells = fine_cells | c
    # exact nesting: every fine edge's parent pair is a coarse edge, so a
    # fine cycle's parents lie on a coarse cycle
    assert fine_cells.issubset(coarse_cells.refine(2))


@pytest.mark.parametrize("sys,eps0", [
    (logistic(3.2), 0.05), (square(), 0.02),
    (affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]), 0.1),
])
def test_census_default_base_grid_is_grid_for_eps0(sys, eps0):
    census = minimal_sets(sys, eps0, 2)
    same = minimal_sets(sys, eps0, 2, grid_for(sys.domain, eps0))
    assert census.as_record() == same.as_record()
    assert [c.cells for c in census.components] == [c.cells for c in same.components]


@pytest.mark.parametrize("levels", [0, -1])
@pytest.mark.parametrize("entry", [
    lambda levels: minimal_sets(square(), 0.1, levels=levels,
                                base_grid=Grid(BOX, 64)),
    lambda levels: dichotomy_report(square(), [[0.5]], eps0=0.1, levels=levels,
                                    base_grid=Grid(BOX, 64)),
    lambda levels: weak_basin(square(), CellSet.from_points(Grid(BOX, 64), [[0.0]]),
                              levels=levels),
], ids=["minimal_sets", "dichotomy_report", "weak_basin"])
def test_census_without_levels_is_a_named_error(entry, levels):
    with pytest.raises(ValueError, match="levels must be >= 1"):
        entry(levels)


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def test_classify_square_fixed_points():
    g = Grid(BOX, 1024)
    lo = classify_component(square(), CellSet.from_points(g, [[0.0]]))
    hi = classify_component(square(), CellSet.from_points(g, [[1.0]]))
    assert lo.kind == "fixed-point" and hi.kind == "fixed-point"


def test_classify_rotation_third_periodic():
    g = Grid(Domain.circle(), 3 * 2 ** 10)
    cls = classify_component(rotation(1.0 / 3.0),
                             CellSet.from_points(g, [[0.1]]))
    assert cls.kind == "periodic" and cls.period == 3


def test_classify_rotation_golden_other():
    g = Grid(Domain.circle(), 3 * 2 ** 10)
    cls = classify_component(rotation(GOLDEN), CellSet.from_points(g, [[0.2]]))
    assert cls.kind == "other"


def test_classify_periodicity_is_least_period():
    g = Grid(Domain.circle(), 1024)
    cls = classify_component(rotation(0.5), CellSet.from_points(g, [[0.3]]))
    assert cls.kind == "periodic" and cls.period == 2


def test_classify_multivalued_flags_pinned_control():
    g = Grid(Domain.box([[-1, 1]]), 512)
    cls = classify_component(drift_control(0.5),
                             CellSet.from_points(g, [[-0.2]]))
    assert cls.control_fixed == -0.1


# --------------------------------------------------------------------------
# Lyapunov stability
# --------------------------------------------------------------------------

def test_stability_square_origin_certified():
    g = Grid(BOX, 1024)
    res = lyapunov_stability(square(), CellSet.from_points(g, [[0.0]]), 0.1)
    assert res.flag == "stable-certified"
    assert res.w_radius == pytest.approx(0.05)


def test_stability_square_one_unstable_with_orbit_witness():
    g = Grid(BOX, 1024)
    res = lyapunov_stability(square(), CellSet.from_points(g, [[1.0]]), 0.1)
    assert res.flag == "unstable-witnessed"
    pts = res.witness_orbit[:, 0]
    assert pts[0] > 0.9 and pts.min() < 0.9   # genuinely leaves V


def test_stability_reads_probe_orbits_cut_by_their_step_budget():
    # the probe from 0.99267578 falls below 0.9 within 5 steps: the steps an
    # unconverged orbit ran are genuine trajectory points
    g = Grid(BOX, 1024)
    res = lyapunov_stability(square(), CellSet.from_points(g, [[1.0]]), 0.1,
                             orbit_max_steps=10)
    assert res.flag == "unstable-witnessed"
    pts = res.witness_orbit[:, 0]
    assert len(pts) <= 11 and pts[0] > 0.9 and pts.min() < 0.9


def test_stability_identity_inconclusive_fattening_artifact():
    g = Grid(BOX, 1024)
    res = lyapunov_stability(identity_map(), CellSet.from_points(g, [[0.5]]),
                             0.1)
    assert res.flag == "inconclusive"
    assert "fattening artifact" in res.note


def test_stability_certificate_replays():
    g = Grid(BOX, 1024)
    a = CellSet.from_points(g, [[0.0]])
    res = lyapunov_stability(square(), a, 0.1)
    graph = build_graph(square(), g, 4 * g.cell_diameter)
    reach = forward_reach(graph, fatten(a, res.w_radius))
    assert reach.issubset(fatten(a, 0.1))


def test_stability_inconclusive_when_only_a_itself_stays_in_v():
    # the census component around logistic(1.5)'s fixed point 1/3 at eps0 of
    # four cell diameters: no fattening W stays in V, but A's own graph reach does
    g = Grid(BOX, 128)
    sys = logistic(1.5)
    census = minimal_sets(sys, 4 * g.cell_diameter, 1, g)
    (a,) = [c.cells for c in census.components if g.cell_of(1 / 3) in c.cells]
    assert a == CellSet.from_indices(g, range(23, 52))
    res = lyapunov_stability(sys, a, 0.1)
    assert res.flag == "inconclusive" and res.w_radius is None
    assert res.note == "no W certified, but A itself stays in V at graph level"


def test_stability_requires_invariant_set():
    g = Grid(BOX, 1024)
    with pytest.raises(PreconditionError):
        lyapunov_stability(square(), CellSet.from_points(g, [[0.5]]), 0.1)


# --------------------------------------------------------------------------
# weak basin
# --------------------------------------------------------------------------

def test_weak_basin_square_excludes_top_cell():
    g = Grid(BOX, 128)
    basin = weak_basin(square(), CellSet.from_points(g, [[0.0]]), levels=2)
    idx = basin.indices()
    assert idx.min() == 0
    assert basin.grid.n_cells - 1 not in idx         # cl R(1) misses 0
    assert idx.size >= 0.95 * basin.grid.n_cells     # covers ~[0, 1)


def test_weak_basin_identity_shrinks_to_fattened_cell():
    g = Grid(BOX, 128)
    basin = weak_basin(identity_map(), CellSet.from_points(g, [[0.5]]),
                       levels=2)
    centers = basin.centers()[:, 0]
    assert np.all(np.abs(centers - 0.5) <= 0.05)
    assert basin.grid.cell_of(0.5) in basin


def test_weak_basin_constant_full_grid():
    g = Grid(BOX, 128)
    basin = weak_basin(constant(0.3), CellSet.from_points(g, [[0.3]]),
                       levels=2)
    assert len(basin) == basin.grid.n_cells


def test_weak_basin_contains_invariant_set():
    for sys, x in [(square(), 0.0), (constant(0.3), 0.3),
                   (identity_map(), 0.5)]:
        g = Grid(BOX, 128)
        a = CellSet.from_points(g, [[x]])
        basin = weak_basin(sys, a, levels=2)
        assert a.refine(2).issubset(basin)


def test_weak_basin_backward_closed_on_attracting_systems():
    """Lower-preimage fixed point, testable where chains match orbits."""
    from chainscope.transition import backward_reach

    g = Grid(BOX, 128)
    basin = weak_basin(constant(0.3), CellSet.from_points(g, [[0.3]]),
                       levels=2)
    graph = build_graph(constant(0.3), basin.grid,
                        4 * basin.grid.cell_diameter)
    assert backward_reach(graph, basin) == basin


def test_weak_basin_precondition():
    g = Grid(BOX, 128)
    with pytest.raises(PreconditionError):
        weak_basin(square(), CellSet.from_points(g, [[0.5]]))


# --------------------------------------------------------------------------
# omega limit
# --------------------------------------------------------------------------

def test_omega_logistic_fixed_point():
    g = Grid(BOX, 2048)
    res = omega_limit(logistic(2.8), 0.3, g)
    assert res.stabilized
    assert list(res.cells.indices()) == [g.cell_of(1 - 1 / 2.8)]


def test_omega_rotation_third():
    g = Grid(Domain.circle(), 12)
    res = omega_limit(rotation(1.0 / 3.0), 0.0, g)
    assert res.stabilized
    assert sorted(res.cells.indices()) == [0, 4, 8]


def test_omega_constant_single_cell():
    g = Grid(BOX, 100)
    res = omega_limit(constant(0.3), 0.77, g)
    assert res.stabilized
    assert list(res.cells.indices()) == [g.cell_of(0.3)]


def test_omega_multivalued_needs_control():
    g = Grid(Domain.box([[-1, 1]]), 64)
    with pytest.raises(PreconditionError):
        omega_limit(drift_control(0.5), 0.3, g)
    res = omega_limit(drift_control(0.5), 0.3, g, control=0.1)
    assert res.stabilized and list(res.cells.indices()) == [g.cell_of(0.2)]


# --------------------------------------------------------------------------
# dichotomy report
# --------------------------------------------------------------------------

def test_dichotomy_constant_consistent_and_attractive():
    rep = dichotomy_report(constant(0.3), [[0.9], [0.1]], eps0=0.02, levels=3,
                           base_grid=Grid(BOX, 256))
    assert rep.census.count == "1"
    assert rep.census.components[0].stability == "stable-certified"
    assert all(c.verdict == "robust-at-resolution" for c in rep.robustness)
    assert rep.verdict_consistency
    assert rep.global_attraction is True


def test_dichotomy_flags_an_unstable_unique_minimal_set():
    """A unique minimal set witnessed unstable while every sample is robust
    would contradict the theorem: the report says so."""
    unstable = minimal.StabilityResult("unstable-witnessed", 0.1, None)
    with mock.patch.object(minimal, "_stability", return_value=unstable):
        rep = dichotomy_report(constant(0.3), [[0.9]], eps0=0.02, levels=2,
                               base_grid=Grid(BOX, 256))
    assert rep.census.count == "1"
    assert rep.robustness[0].verdict == "robust-at-resolution"
    assert rep.verdict_consistency is False and rep.global_attraction is None
    assert rep.notes == ["all samples robust but the unique minimal set is "
                         "unstable-witnessed"]


def test_dichotomy_flags_an_isolated_component_in_an_unbounded_census():
    real = minimal._census

    def unbounded(*args):
        census, orbits = real(*args)
        census.count = "unbounded-at-resolution"
        census.components[0].isolated = "yes"
        return census, orbits

    with mock.patch.object(minimal, "_census", unbounded):
        rep = dichotomy_report(constant(0.3), [[0.9]], eps0=0.02, levels=2,
                               base_grid=Grid(BOX, 256))
    assert rep.robustness[0].verdict == "robust-at-resolution"
    assert rep.verdict_consistency is False
    assert rep.notes == ["all samples robust with an isolated component in "
                         "an unbounded census"]


def test_dichotomy_notes_a_failed_stability_precondition():
    fail = PreconditionError("a_set is not forward-invariant at graph level")
    with mock.patch.object(minimal, "_stability", side_effect=fail):
        rep = dichotomy_report(constant(0.3), [[0.9]], eps0=0.02, levels=2,
                               base_grid=Grid(BOX, 256))
    (comp,) = rep.census.components
    assert comp.stability == "inconclusive" and comp.stability_result is None
    assert rep.notes == ["stability precondition failed: a_set is not "
                         "forward-invariant at graph level"]
    assert rep.verdict_consistency is True and rep.global_attraction is None


def test_dichotomy_square_theorem_silent():
    rep = dichotomy_report(square(), [[1.0], [0.5]], eps0=0.02, levels=3,
                           base_grid=Grid(BOX, 256))
    assert rep.census.count == "finite>1"
    stabilities = sorted(c.stability for c in rep.census.components)
    assert stabilities == ["stable-certified", "unstable-witnessed"]
    verdicts = {c.verdict for c in rep.robustness}
    assert "non-robust-at-resolution" in verdicts
    assert rep.verdict_consistency          # vacuously: hypothesis not met
    assert any("theorem silent" in n for n in rep.notes)


def test_dichotomy_identity_converse_note():
    rep = dichotomy_report(identity_map(), [[0.5]], eps0=0.04, levels=3,
                           base_grid=Grid(BOX, 128))
    assert rep.census.count == "unbounded-at-resolution"
    assert rep.robustness[0].verdict == "non-robust-at-resolution"
    assert rep.verdict_consistency
    assert any("converse" in n for n in rep.notes)


def test_dichotomy_usc_stable_coherence():
    """All-robust samples force census components away from unstable."""
    for sys, pts, grid in [
        (constant(0.3), [[0.9]], Grid(BOX, 256)),
        (rotation(GOLDEN), [[0.0], [0.37]], Grid(Domain.circle(), 768)),
    ]:
        eps0 = 0.02 if sys.domain.kind == "box" else 4 * grid.cell_diameter
        rep = dichotomy_report(sys, pts, eps0=eps0, levels=2, base_grid=grid)
        if all(c.verdict == "robust-at-resolution" for c in rep.robustness):
            assert all(c.stability != "unstable-witnessed"
                       for c in rep.census.components)


def test_dichotomy_unique_minimal_attracts_omega_limits():
    rep = dichotomy_report(logistic(2.8), [[0.3], [0.7]], eps0=0.02, levels=2,
                           base_grid=Grid(BOX, 512))
    comp = next(c for c in rep.census.components
                if c.stability == "stable-certified")
    hull = fatten(comp.cells,
                  rep.census.eps_finest + rep.census.grid_finest.cell_diameter)
    for x in ([0.3], [0.7]):
        om = omega_limit(logistic(2.8), x, rep.census.grid_finest)
        assert om.cells.issubset(hull)


def _stability_fields(res):
    """A ``StabilityResult``'s flag, radii, note and witness orbit bytes."""
    return res and (res.flag, res.v_eps, res.w_radius, res.note,
                    None if res.witness_orbit is None else res.witness_orbit.tobytes())


def _dichotomy_oracle(sys, points, eps0, levels, base_grid, robust_eps, v_eps,
                      max_steps):
    """The per-sample loop: ``lyapunov_stability`` per component, then
    ``robustness_check`` and ``omega_limit`` one sample at a time, attraction
    with its early break.  Returns the census with its stabilities, the
    stability notes, the certificates and the attraction flag."""
    census = minimal_sets(sys, eps0, levels, base_grid, orbit_max_steps=max_steps)
    notes = []
    for comp in census.components:
        try:
            comp.stability_result = lyapunov_stability(
                sys, comp.cells, v_eps, census.eps_finest, max_steps)
            comp.stability = comp.stability_result.flag
        except PreconditionError as exc:
            notes.append(f"stability precondition failed: {exc}")
    samples = [sys.domain.canon(p) for p in points]
    certs = [robustness_check(sys, p, robust_eps, grid=census.grid_finest,
                              max_steps=max_steps) for p in samples]
    attraction = None
    if (all(c.verdict == "robust-at-resolution" for c in certs)
            and census.count == "1" and not sys.multivalued
            and census.components[0].stability == "stable-certified"):
        hull = fatten(census.components[0].cells,
                      census.eps_finest + census.grid_finest.cell_diameter)
        attraction = True
        for p in samples:
            om = omega_limit(sys, p, census.grid_finest, minimal.BURN_IN,
                             minimal.WINDOW, minimal.TAIL_STEPS)
            if not om.stabilized or not om.cells.issubset(hull):
                attraction = False
                break
    return census, notes, certs, attraction


# name: (system, base grid, eps0, robust_eps and v_eps), two levels each
DICHOTOMY_SYSTEMS = {
    "rotation": (lambda: rotation(GOLDEN), Grid(Domain.circle(), 64), 4.5 / 64, 0.1),
    "logistic": (lambda: logistic(2.8), Grid(BOX, 64), 4.5 / 64, 0.2),
    "square": (square, Grid(BOX, 64), 4.5 / 64, 0.1),
    "constant": (lambda: constant(0.3), Grid(BOX, 64), 4.5 / 64, 0.1),
    "identity": (identity_map, Grid(BOX, 64), 4.5 / 64, 0.1),
    "affine2d": (lambda: affine2d([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]),
                 Grid(Domain.box([[0.0, 1.0], [0.0, 1.0]]), [8, 8]), 0.8, 1.5),
    "drift_control": (lambda: drift_control(0.5), Grid(Domain.box([[-1.0, 1.0]]), 64),
                      9 / 64, 0.2),
}


def _ripple(k):
    """x -> x - sin(2 pi k x) / (4 pi k) on [0, 1]: fixed points at j / 2k,
    attracting for even j."""
    def f(pts, u):
        return pts - np.sin(2 * np.pi * k * pts) / (4 * np.pi * k)
    return System(f"ripple{k}", BOX, {}, (None,), 1.5, f)


def _leaky():
    """x -> x + 4 (x - 0.1)(x - 0.15)(x - 0.8) on [0, 1], not a self-map:
    0.15 attracts the orbits between the repelling fixed points 0.1 and 0.8,
    the others leave the domain."""
    def f(pts, u):
        return pts + 4.0 * (pts - 0.1) * (pts - 0.15) * (pts - 0.8)
    return System("leaky", BOX, {}, (None,), 5.5, f)


def _census_oracle(sys, eps0, levels, base_grid, max_steps):
    """``minimal_sets`` one component at a time: its mid orbit, then its rep
    orbit unless the mid orbit covers it, one ``orbit_reach`` call each, and
    ``classify_component``.  An orbit cut by its step budget counts."""
    groups, counts = _oracle_groups(sys, eps0, levels, base_grid)
    eps_f, grid_f = eps0 / 2 ** (levels - 1), base_grid.refine(2 ** (levels - 1))
    scale = 2 ** ((levels - 1) * sys.domain.ndim)

    def hull(grid, pts, eps):
        return fatten(CellSet.from_indices(grid, np.unique(grid.cells_of(pts))),
                      eps + grid.cell_diameter)

    out = []
    for union, n_members, anc in groups:
        cells = CellSet.from_indices(grid_f, union)
        mid = grid_f.cell_center(int(union[union.size // 2]))
        orbits = []
        for start in (mid, grid_f.cell_center(int(union[0]))):
            orbits.append(orbit_reach(sys, start, grid_f, max_steps=max_steps))
            covers = cells.issubset(fatten(orbits[-1].cells, eps_f + grid_f.cell_diameter))
            if covers:
                break
        shrinks = False
        if levels > 1 and not covers:
            shrinks = union.size <= minimal.SHRINK_RATIO * anc.size * scale
            if not shrinks:
                pts = orbits[0].points
                exc_f = len(cells - hull(grid_f, pts, eps_f))
                exc_0 = len(CellSet.from_indices(base_grid, anc)
                            - hull(base_grid, pts, eps0)) * scale
                shrinks = exc_0 > 0 and exc_f <= minimal.SHRINK_RATIO * exc_0
        out.append(MinimalSetApprox(
            cells, classify_component(sys, cells), tuple(float(v) for v in mid),
            evidence_minimal=shrinks or covers, shrinks=shrinks,
            orbit_covers=covers, fragment_count=n_members))
    for i, comp in enumerate(out):
        if comp.evidence_minimal:
            near = fatten(comp.cells, eps_f)
            touching = any(j != i and bool(near & other.cells)
                           for j, other in enumerate(out))
            comp.isolated = "no" if touching else "yes"
    count = ("unbounded-at-resolution" if any(not c.evidence_minimal for c in out)
             else "1" if len(out) == 1 else "finite>1")
    return Census(out, count, eps_f, grid_f, counts)


# name: (system, base grid, eps0), two levels each: the dichotomy systems; a
# census of 13 components, past the engine's first block of 8 lanes; and one
# whose first component's rep orbit leaves the domain, as do the mid orbits
# of later components, at other points
CENSUS_SYSTEMS = {
    **{name: (make, grid, eps0)
       for name, (make, grid, eps0, _) in DICHOTOMY_SYSTEMS.items()},
    "ripple": (lambda: _ripple(6), Grid(BOX, 512), 4.5 / 512),
    "leaky": (_leaky, Grid(BOX, 64), 4.5 / 64),
}


@pytest.mark.parametrize("max_steps", [200_000, 150])
@pytest.mark.parametrize("name", sorted(CENSUS_SYSTEMS))
def test_census_matches_the_per_component_loop(name, max_steps):
    """Every mid orbit as a lane of one engine call, read in component
    order, and each settle carried on from its mid orbit: the census record,
    and any error, equal those of one orbit_reach call per orbit."""
    make, grid, eps0 = CENSUS_SYSTEMS[name]
    sys = make()
    results = []
    for census in (minimal_sets, _census_oracle):
        try:
            results.append(census(sys, eps0, 2, grid, max_steps).as_record())
        except ChainscopeError as exc:
            results.append((type(exc), str(exc)))
    assert results[0] == results[1]
    if name == "ripple":
        assert len(results[0]["components"]) > 8
    if name == "leaky":
        assert results[0][0] is DomainError


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(DICHOTOMY_SYSTEMS)),
    unit=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=12),
    max_steps=st.sampled_from([200_000, 150]),
    # omega_limit's burn-in, window and tail budget: the defaults; a burn-in
    # among the lengths of the rotation's orbits (205 to 232 steps); tails
    # too short to stabilize
    omega=st.sampled_from([None, (220, 64, 5000), (5, 2048, 300)]),
)
# twelve samples, past the first block, on orbits longer and shorter than
# the burn-in
@example(name="rotation", unit=[(i / 12, 0.0) for i in range(12)], max_steps=200_000,
         omega=(220, 64, 5000))
# orbits of different lengths, each burn-in carried on for its own steps
@example(name="rotation", unit=[(0.2, 0.0), (0.3, 0.0), (0.91, 0.0)],
         max_steps=200_000, omega=None)
# revisit-stopped orbits, and tails that do not stabilize: attraction False
@example(name="constant", unit=[(0.9, 0.0), (0.1, 0.0)], max_steps=200_000,
         omega=(5, 2048, 300))
# a non-robust sample, and orbits that do not converge
@example(name="square", unit=[(0.5, 0.0), (1.0, 0.0)], max_steps=200_000, omega=None)
@example(name="rotation", unit=[(0.2, 0.0), (0.7, 0.0)], max_steps=150, omega=None)
# the census orbits converge within 120 steps, the second sample's in 130
@example(name="logistic", unit=[(0.5, 0.0), (1e-9, 0.0)], max_steps=120, omega=None)
# a sample outside the box domain
@example(name="square", unit=[(0.5, 0.0), (1.5, 0.0)], max_steps=200_000, omega=None)
def test_dichotomy_samples_match_the_per_sample_loop(name, unit, max_steps, omega):
    """Robustness orbits as further lanes of the census's mid orbits, each
    omega tail burnt in from its sample's orbit and the tails as lanes, one
    floor graph: every field that these feed equals the per-sample loop's,
    errors included, and so does every omega tail read (the report keeps
    only the attraction flag).  Consistency and the other notes follow from
    these fields by code that the batching leaves alone."""
    make, grid, eps0, eps = DICHOTOMY_SYSTEMS[name]
    sys = make()
    lo, hi = sys.domain.bounds[:, 0], sys.domain.bounds[:, 1]
    points = [lo + np.array(u[:sys.domain.ndim]) * (hi - lo) for u in unit]
    kw = dict(eps0=eps0, levels=2, base_grid=grid, robust_eps=eps, v_eps=eps)
    read, tails = [], minimal._omega_tails

    def spy(*args):
        for om in tails(*args):
            read.append((om.cells.mask.tobytes(), om.stabilized, om.steps))
            yield om

    consts = dict(zip(("BURN_IN", "WINDOW", "TAIL_STEPS"), omega or ()))
    with mock.patch.multiple(minimal, _omega_tails=spy, **consts):
        try:
            rep = dichotomy_report(sys, points, orbit_max_steps=max_steps, **kw)
        except ChainscopeError as exc:
            rep = exc
        got, read[:] = read[:], []
        try:
            want = _dichotomy_oracle(sys, points, max_steps=max_steps, **kw)
        except ChainscopeError as exc:
            want = exc
    assert got == read
    if isinstance(want, Exception):
        assert (type(rep), str(rep)) == (type(want), str(want))
        return
    census, notes, certs, attraction = want
    assert rep.census.as_record() == census.as_record()
    assert ([_stability_fields(c.stability_result) for c in rep.census.components]
            == [_stability_fields(c.stability_result) for c in census.components])
    assert rep.notes[:len(notes)] == notes
    assert rep.robustness == certs
    assert rep.sample_points == [tuple(float(v) for v in sys.domain.canon(p))
                                 for p in points]
    assert rep.global_attraction is attraction


def test_dichotomy_reads_a_malformed_sample_after_the_census():
    """The samples run as lanes of the census's engine call, but whatever a
    sample that does not canonicalize raises is raised where the samples are
    read: after the census's own errors."""
    kw = dict(eps0=4.5 / 64, levels=2, base_grid=Grid(BOX, 64))
    for bad, error, match in (([0.5, 0.5], DomainError, "point has 2 coordinates"),
                              ([10 ** 400], OverflowError, "too large")):
        with pytest.raises(DomainError, match="outside domain"):
            dichotomy_report(_leaky(), [[0.5], bad], **kw)
        with pytest.raises(error, match=match):
            dichotomy_report(square(), [[0.5], bad], **kw)


def test_golden_dichotomy_map_calls():
    """The golden two-sample dichotomy at 512 cells and 2 levels makes 13,718
    map calls: the census orbit and both robustness orbits as three lanes of
    one engine call (9,788), the burn-ins carried on from the robustness
    orbits (216), both omega tails as two lanes (3,644), the period search
    (64; its settle carries on from the census orbit) and one call per graph
    build (6).  With the census orbit, its settle and the robustness orbits
    run apart it took 24,013 calls, and one sample at a time 57,222."""
    base = rotation(0.6180339887498949)
    calls = [0]

    def f(pts, u):
        calls[0] += 1
        return base.map_fn(pts, u)

    sys = System(base.name, base.domain, base.params, base.controls, base.lipschitz, f)
    rep = dichotomy_report(sys, [0.8444218515250481, 0.7579544029403025], eps0=0.01,
                           levels=2, base_grid=Grid(Domain.circle(), 512))
    assert rep.global_attraction is True
    assert calls[0] <= 14_000


def test_square_basin_map_calls():
    """The benchmark's basin config (square, 512 cells, eps0 0.01, levels 1),
    as ``basin`` runs it: the census, then the weak basin of component 0,
    in 1,776 map calls."""
    base = square()
    calls = [0]

    def f(pts, u):
        calls[0] += 1
        return base.map_fn(pts, u)

    sys = System(base.name, base.domain, base.params, base.controls, base.lipschitz, f)
    census = minimal_sets(sys, 0.01, 1, base_grid=Grid(BOX, 512))
    basin = weak_basin(sys, census.components[0].cells, invariance_eps=census.eps_finest)
    assert 0 in basin.indices()
    assert calls[0] <= 1_776


def test_is_graph_invariant_examples():
    g = Grid(BOX, 512)
    assert is_graph_invariant(square(), CellSet.from_points(g, [[0.0]]),
                              4 * g.cell_diameter)
    assert is_graph_invariant(square(), CellSet.from_points(g, [[1.0]]),
                              4 * g.cell_diameter)
    assert not is_graph_invariant(square(), CellSet.from_points(g, [[0.5]]),
                                  4 * g.cell_diameter)
