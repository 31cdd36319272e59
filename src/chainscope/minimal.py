"""Minimal-set census, stability testing, basins, limit sets, dichotomy report.

Candidate minimal sets are the nontrivial strongly connected components of
the fattened transition graph, computed over a ladder of refinement levels
(eps halves, grid doubles).  Finest-level components are merged when they
sit inside the same coarsest-level component, which absorbs the one-cell
recurrence fragments that appear at component margins.  A merged component
counts as evidence of a single minimal set when it either shrinks under
refinement or is covered by a sampled member orbit; otherwise the census is
reported unbounded-at-resolution, never as a false finite count.

Sampled orbits (basin probes, stability probes, omega limits, period
searches) run as lanes of the batched orbit engine of ``orbits``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import CellSet, Grid, fatten, grid_for
from .orbits import HIT, STALL, advance, reach_lanes, reaches, trajectory
from .reachability import (
    RobustnessCertificate,
    _certify,
    _first_true,
    default_delta_schedule,
    orbit_reach,
)
from .systems import System, _image_union
from .transition import _reach_within, build_graph, recurrent_cells

# a component "shrinks" under one refinement when its measure drops below
# this fraction of its coarse ancestor's measure
SHRINK_RATIO = 0.75
# omega_limit's burn-in, new-cell window and tail step budget
BURN_IN, WINDOW, TAIL_STEPS = 10_000, 2048, 300_000
# the steps after which classify_component takes its settled candidate
SETTLE = 512


@dataclass
class Classification:
    kind: str                     # fixed-point | periodic | other
    period: int | None
    control_fixed: object | None  # control pinned for multivalued systems
    representative: tuple

    def label(self) -> str:
        if self.kind == "periodic":
            return f"periodic({self.period})"
        return self.kind


@dataclass
class StabilityResult:
    flag: str                     # stable-certified | unstable-witnessed | inconclusive
    v_eps: float
    w_radius: float | None
    witness_orbit: np.ndarray | None = field(repr=False, default=None)
    note: str = ""


@dataclass
class MinimalSetApprox:
    cells: CellSet
    classification: Classification
    representative: tuple
    stability: str = "inconclusive"
    stability_result: StabilityResult | None = None
    isolated: str = "unknown-at-resolution"     # yes | no | unknown-at-resolution
    evidence_minimal: bool = False
    shrinks: bool = False
    orbit_covers: bool = False
    fragment_count: int = 1

    def as_record(self) -> dict:
        return {
            "cell_count": len(self.cells),
            "classification": self.classification.label(),
            "representative": list(self.representative),
            "stability": self.stability,
            "isolated": self.isolated,
            "evidence_minimal": self.evidence_minimal,
            "shrinks": self.shrinks,
            "orbit_covers": self.orbit_covers,
            "fragment_count": self.fragment_count,
        }


@dataclass
class Census:
    components: list[MinimalSetApprox]
    count: str                   # "1" | "finite>1" | "unbounded-at-resolution"
    eps_finest: float
    grid_finest: Grid
    level_component_counts: list[int]
    partial: bool = False

    def as_record(self) -> dict:
        return {
            "count": self.count,
            "components": [c.as_record() for c in self.components],
            "eps_finest": self.eps_finest,
            "grid_finest_cells_per_dim": list(self.grid_finest.cells_per_dim),
            "level_component_counts": list(self.level_component_counts),
            "partial": self.partial,
        }


def is_graph_invariant(sys: System, cells: CellSet, eps: float) -> bool:
    """Forward invariance at graph granularity.

    Checks image_cell(member) inside the fattening of the set by
    eps + L*r + 2h; the extra terms are the slack the cell image itself
    carries, without which even a genuine invariant band fails at its
    boundary cell.
    """
    grid = cells.grid
    slack = sys.lipschitz * grid.cell_diameter / 2.0 + 2.0 * grid.cell_diameter
    hull = fatten(cells, eps + slack)
    img = _image_union(sys, grid, cells.indices())
    return bool(np.all(hull.mask.reshape(-1)[img]))


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def classify_component(sys: System, comp: CellSet) -> Classification:
    """Classify a recurrent component from candidate member representatives.

    fixed-point when one map application returns within 2 cell diameters;
    else periodic(q) for the least q up to 64; else "other".  A settled
    candidate is taken after 512 steps.  Multivalued systems are classified
    under a pinned constant control and flagged.
    """
    if not comp:
        raise PreconditionError("cannot classify an empty component")
    idx = comp.indices()
    mid = comp.grid.cell_center(int(idx[idx.size // 2]))
    return _classify(sys, comp, advance(sys, mid[None, :], sys.controls[0], SETTLE)[0])


def _classify(sys: System, comp: CellSet, settle) -> Classification:
    """``classify_component`` of a nonempty component, given ``settle``, its
    mid cell centre after SETTLE steps under the first control."""
    grid = comp.grid
    q_max, tol = 64, 2.0 * grid.cell_diameter
    u = sys.controls[0]
    idx = comp.indices()
    candidates = [
        grid.cell_center(int(idx[0])),
        grid.cell_center(int(idx[-1])),
        grid.cell_center(int(idx[idx.size // 2])),
    ]
    # a settled point is a better witness for attracting components, but only
    # if burn-in keeps it associated with this component
    if fatten(comp, grid.resolution_floor).mask.reshape(-1)[grid.cell_of(settle)]:
        candidates.append(settle)

    # each candidate's first return within tol, the candidates as lanes;
    # steps past a candidate's return are discarded
    cands = np.array(candidates)
    with np.errstate(all="ignore"):
        back = sys.domain.distances(trajectory(sys, cands, q_max, u), cands) <= tol
    period = np.where(back.any(axis=0), back.argmax(axis=0) + 1, q_max + 1)
    control_flag = u if sys.multivalued else None
    if period.min() > q_max:
        rep = candidates[0]
        return Classification("other", None, control_flag,
                              tuple(float(v) for v in rep))
    best = int(period.argmin())
    q, rep = int(period[best]), candidates[best]
    kind = "fixed-point" if q == 1 else "periodic"
    return Classification(kind, q if q > 1 else None, control_flag,
                          tuple(float(v) for v in rep))


# --------------------------------------------------------------------------
# census over refinement levels
# --------------------------------------------------------------------------

def _coarsen_indices(idx: np.ndarray, fine: Grid, factor: int) -> np.ndarray:
    axes = np.unravel_index(idx, fine.shape)
    coarse_axes = tuple(a // factor for a in axes)
    coarse_shape = tuple(c // factor for c in fine.cells_per_dim)
    return np.ravel_multi_index(coarse_axes, coarse_shape)


def minimal_sets(
    sys: System,
    eps0: float,
    levels: int = 3,
    base_grid: Grid | None = None,
    orbit_max_steps: int = 200_000,
) -> Census:
    """Enumerate candidate minimal sets by nested recurrence refinement.

    Each level builds its graph only on the refinement of the cells of the
    level before's components, level 0 on those of the base grid coarsened
    gcd(16, cells per axis) times: every component of the finer graph lies
    there (see the README on subdivision).  Every component's mid orbit
    runs as a lane of one engine call; a component that its mid orbit does
    not cover runs its rep orbit on its own.
    """
    return _census(sys, eps0, levels, base_grid, orbit_max_steps, [])[0]


def _resume_from(points, n: int):
    """Where a trajectory with kept ``points`` at steps 0, 1, ... carries on
    towards step n: (its point at step n, or its last kept point, and that
    step).  The point is a copy, so the orbit's block can be freed."""
    k = min(len(points) - 1, n)
    return points[k].copy(), k


def _census(sys, eps0, levels, base_grid, orbit_max_steps, extra):
    """``minimal_sets``, with the orbits from ``extra``, a list of canonical
    points, run as further lanes of the mid orbits' engine call.  Returns the
    census and the iterator of those orbits' ``ReachResult``, in order, read
    lazily.  The components read their orbits in order, so each error is
    raised where a loop over the components would raise it."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if base_grid is None:
        base_grid = grid_for(sys.domain, eps0)
    f, recurrent, found = math.gcd(16, *base_grid.cells_per_dim), None, []
    base_grid.check_resolution(eps0, "eps")   # refused as level 0 refuses it
    for k in range(-1 if f > 1 else 0, levels):
        # level -1, f times coarser, gives level 0's candidates and is not
        # reported (see the README on subdivision)
        grid_k, eps_k = (base_grid.refine(2 ** k), eps0 / (2 ** k)) if k >= 0 else (
            Grid(base_grid.domain, [c // f for c in base_grid.cells_per_dim]), eps0 * f)
        cand = None if recurrent is None else recurrent.refine(2 if k else f)
        comps = recurrent_cells(build_graph(sys, grid_k, eps_k, cand))
        recurrent = CellSet.empty(grid_k)
        for cs in comps:
            recurrent.mask |= cs.mask
        if k >= 0:
            found.append((grid_k, comps))
    (grid_0, comps_0), counts = found[0], [len(c) for _, c in found]
    eps_f, grid_f = eps0 / (2 ** (levels - 1)), grid_k
    finest = [cs.indices() for cs in comps]

    # group finest components by the level-0 component of their first cell:
    # each lies in the refinement of exactly one (see the README on
    # subdivision).  Components come in first-cell order, so groups do too.
    factor_to_base = 2 ** (levels - 1)
    label_0 = np.full(grid_0.n_cells, -1)
    for i, cs in enumerate(comps_0):
        label_0[cs.indices()] = i
    groups: dict[int, list[int]] = {}
    for i, comp in enumerate(finest):
        key = int(label_0[_coarsen_indices(comp[0], grid_f, factor_to_base)])
        groups.setdefault(key, []).append(i)
    unions = [np.sort(np.concatenate([finest[i] for i in m])) for m in groups.values()]

    # every mid orbit, then the extra orbits, as the lanes of one engine
    # call, read in component order; a rep orbit runs on its own.  An orbit
    # cut by its step budget still holds genuine points, so it is evidence.
    radius = eps_f + grid_f.cell_diameter
    mids = [grid_f.cell_center(int(union[union.size // 2])) for union in unions]
    first = reaches(sys, np.array(mids + extra).reshape(-1, grid_f.domain.ndim),
                    grid_f, orbit_max_steps)
    # a trajectory's settle carries on from its mid orbit; the settles run as
    # one engine call once every component is read or one raises, then the
    # classifications: an error in either comes before a later component's
    out, ends = [], []
    try:
        for (key, members), union, mid in zip(groups.items(), unions, mids):
            cells = CellSet.from_indices(grid_f, union)
            orb = next(first)
            hull_f = fatten(orb.cells, radius)
            covers = cells.issubset(hull_f) or cells.issubset(fatten(orbit_reach(
                sys, grid_f.cell_center(int(union[0])), grid_f,
                max_steps=orbit_max_steps).cells, radius))

            # shrink evidence: the component's slice beyond the mid orbit's
            # hull is discretization noise exactly when it dies off under
            # refinement; a measure drop against the coarse ancestor counts too
            shrinks = False
            if levels > 1 and not covers:
                scale = factor_to_base ** sys.domain.ndim
                anc = comps_0[key]
                shrinks = union.size <= SHRINK_RATIO * len(anc) * scale
                if not shrinks:
                    hull_0 = fatten(CellSet.from_indices(grid_0, grid_0.cells_of(orb.points)),
                                    eps0 + grid_0.cell_diameter)
                    exc_f = len(cells - hull_f)
                    exc_0 = len(anc - hull_0) * scale
                    shrinks = exc_0 > 0 and exc_f <= SHRINK_RATIO * exc_0

            ends.append((mid, 0) if sys.multivalued else _resume_from(orb.points, SETTLE))
            out.append(MinimalSetApprox(
                cells, None, tuple(float(v) for v in mid), evidence_minimal=shrinks or covers,
                shrinks=shrinks, orbit_covers=covers, fragment_count=len(members)))
    finally:
        settled = advance(sys, [p for p, _ in ends], sys.controls[0],
                          SETTLE - np.array([k for _, k in ends], np.int64))
        for comp, settle in zip(out, settled):
            comp.classification = _classify(sys, comp.cells, settle)

    # isolation flags at the finest level, whose recurrent cells are the
    # union of the components: another component is near exactly when the
    # eps_f-hull meets the recurrent cells outside this one
    for comp in out:
        if comp.evidence_minimal:
            near = fatten(comp.cells, eps_f) & (recurrent - comp.cells)
            comp.isolated = "no" if near else "yes"

    if any(not c.evidence_minimal for c in out):
        count = "unbounded-at-resolution"
    elif len(out) == 1:
        count = "1"
    else:
        count = "finite>1"
    return Census(out, count, eps_f, grid_f, counts), first


# --------------------------------------------------------------------------
# Lyapunov stability
# --------------------------------------------------------------------------

def lyapunov_stability(
    sys: System,
    a_set: CellSet,
    v_eps: float,
    invariance_eps: float | None = None,
    orbit_max_steps: int = 100_000,
) -> StabilityResult:
    """Certify or refute stability of an invariant set against V = fatten(A, v_eps).

    stable-certified: some fattening W of A has graph forward reach inside V
    at the finest admissible graph (a sound certificate, since the graph
    over-approximates).  unstable-witnessed: the graph escapes for every
    tested W and a genuine sampled orbit from next to A leaves V.  Otherwise
    inconclusive; graph fattening alone cannot witness instability because
    its chains drift even for the identity map.  The graph is built at the
    grid's resolution floor, and W is the first radius of
    ``default_delta_schedule(v_eps, floor)`` that holds: ``fatten(A, w)`` is
    nested in w, so ``_first_true`` searches the schedule.
    """
    grid = a_set.grid
    if not a_set:
        raise PreconditionError("empty invariant-set candidate")
    floor = grid.resolution_floor
    inv_eps = invariance_eps if invariance_eps is not None else floor
    if not is_graph_invariant(sys, a_set, inv_eps):
        raise PreconditionError("a_set is not forward-invariant at graph level")
    g = build_graph(sys, grid, floor)
    v_set = fatten(a_set, v_eps)
    w_schedule = default_delta_schedule(v_eps, floor, "v_eps")
    k = _first_true(len(w_schedule), lambda i: _reach_within(
        g, fatten(a_set, w_schedule[i]), v_set))
    if k < len(w_schedule):
        return StabilityResult("stable-certified", v_eps, float(w_schedule[k]))
    # graph escapes for every W; look for a true escaping orbit near A
    if _reach_within(g, a_set, v_set):
        return StabilityResult("inconclusive", v_eps, None, note="no W certified, "
                               "but A itself stays in V at graph level")
    probe_cells = fatten(a_set, min(w_schedule)).indices()
    stride = max(1, probe_cells.size // 64)
    starts = grid.centers()[probe_cells[::stride]]
    # read in probe order, the orbits run block by block: the first witness wins
    for start, orb in zip(starts, reaches(sys, starts, grid, orbit_max_steps)):
        if not orb.cells.issubset(v_set):
            return StabilityResult("unstable-witnessed", v_eps, None, witness_orbit=orb.points,
                                   note=f"sampled orbit from {start!r} leaves V")
    return StabilityResult("inconclusive", v_eps, None,
                           note="graph reach escapes V but every sampled orbit stays "
                                "(fattening artifact at this resolution)")


# --------------------------------------------------------------------------
# weak basin
# --------------------------------------------------------------------------

def _probe_points(grid: Grid) -> np.ndarray:
    """(n_cells, 1 + 2^d, d): each cell's center, then the corners of its
    closed box projected into the domain (``Domain.project``)."""
    dom = grid.domain
    lo = dom.bounds[:, 0] + np.stack(np.unravel_index(
        np.arange(grid.n_cells), grid.shape), axis=1) * grid.spacing
    box = (lo, lo + grid.spacing)
    corners = [
        dom.project(np.stack([box[c][:, a] for a, c in enumerate(pick)], axis=1))
        for pick in itertools.product((0, 1), repeat=dom.ndim)
    ]
    return np.stack([grid.centers()] + corners, axis=1)


def _first_occurrences(rows: np.ndarray):
    """Indices of the first occurrence of each distinct row, ascending, and
    for each row the position of its first occurrence among them."""
    order = np.lexsort(rows.T[::-1])   # stable: a group starts at its first occurrence
    srt = rows[order]
    start = np.r_[True, np.any(srt[1:] != srt[:-1], axis=1)]
    first = order[start]
    rank = np.argsort(np.argsort(first))
    which = np.empty(len(rows), np.int64)
    which[order] = rank[np.cumsum(start) - 1]
    return np.sort(first), which


def weak_basin(
    sys: System,
    a_set: CellSet,
    levels: int = 2,
    invariance_eps: float | None = None,
) -> CellSet:
    """Cells whose sampled orbits all come near the candidate minimal set.

    A cell joins the basin when the orbit of every probe point (center and
    closed-cell corners) meets the eps-fattening of A at that level, with
    eps the level grid's resolution floor; levels are intersected on the
    finest grid.
    Orbit evidence rather than graph chains keeps points like an unstable
    boundary fixed point out of the basin.  ``invariance_eps`` loosens the
    forward-invariance precondition for sets produced at a coarser eps.
    Each orbit stops at its first cell in the target, so an orbit that
    meets it and would leave the domain later counts as a hit; an orbit
    read that leaves the domain before meeting it raises ``DomainError``.
    Each orbit runs at most 100,000 steps.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    grid0 = a_set.grid
    inv = invariance_eps if invariance_eps is not None else grid0.resolution_floor
    if not is_graph_invariant(sys, a_set, inv):
        raise PreconditionError("a_set is not forward-invariant at graph level")
    results = []
    for k in range(levels):
        grid_k = grid0.refine(2 ** k)
        a_k = a_set.refine(2 ** k)
        t_mask = fatten(a_k, grid_k.resolution_floor).mask.reshape(-1)
        probes = _probe_points(grid_k)
        n_probe = probes.shape[1]
        flat = probes.reshape(-1, probes.shape[-1])
        first, lane = _first_occurrences(flat)   # one orbit per distinct point
        hit, outside = [], {}
        for lanes in reach_lanes(sys, flat[first], grid_k, 100_000, target=t_mask):
            hit.append(lanes.reason == HIT)   # the block's orbits are freed
            outside.update((lanes.b0 + b, p) for b, p in lanes.outside.items())
        hit = np.concatenate(hit)
        # a cell reads its probes in order up to the first miss, and points
        # that round alike to 12 digits share the orbit of the first one read;
        # the corner of two cells, computed from each, may differ in its last bit
        key = _first_occurrences(np.round(flat, 12))[1]
        mixed = np.bincount(np.unique(key * first.size + lane) // first.size)[key] > 1
        shared: dict = {}
        for c in np.unique(np.flatnonzero(mixed) // n_probe):
            for i in range(c * n_probe, (c + 1) * n_probe):
                if mixed[i]:
                    lane[i] = shared.setdefault(key[i], lane[i])
                if not hit[lane[i]]:
                    break
        hits = hit[lane].reshape(-1, n_probe)
        read = np.ones_like(hits)
        read[:, 1:] = np.logical_and.accumulate(hits, axis=1)[:, :-1]
        failed = read.ravel() & np.isin(lane, list(outside))
        if failed.any():   # the first orbit read that left the domain raises
            grid_k.cell_of(outside[int(lane[failed.argmax()])])
        results.append(CellSet(grid_k, hits.all(axis=1).reshape(grid_k.shape)))
    finest = results[-1]
    for k, r in enumerate(results[:-1]):
        finest = finest & r.refine(2 ** (levels - 1 - k))
    return finest


# --------------------------------------------------------------------------
# omega limit
# --------------------------------------------------------------------------

@dataclass
class OmegaResult:
    cells: CellSet
    stabilized: bool
    steps: int


def omega_limit(
    sys: System,
    x,
    grid: Grid,
    burn_in: int = BURN_IN,
    window: int = WINDOW,
    max_steps: int = TAIL_STEPS,
    control=None,
) -> OmegaResult:
    """Cell cover of the sampled orbit tail.

    Discards burn_in steps, then accumulates tail cells until no new cell
    appears for ``window`` consecutive steps.  Multivalued systems require a
    pinned constant control.
    """
    if sys.multivalued and control is None:
        raise PreconditionError("omega_limit needs a pinned control for "
                                "multivalued systems")
    u = control if control is not None else sys.controls[0]
    pt = advance(sys, sys.domain.canon(x)[None, :], u, burn_in)
    return next(_omega_tails(sys, pt, grid, u, burn_in, window, max_steps))


def _omega_tails(sys, pts, grid, u, burn_in, window, max_steps):
    """The ``omega_limit`` of each orbit whose step burn_in is a row of
    ``pts``, in order: the tails run as the lanes of one engine call, read
    lazily."""
    for lanes in reach_lanes(sys, pts, grid, max_steps, 0.0, window, u=u):   # no revisit check
        for b in range(lanes.n_lanes):
            yield OmegaResult(lanes.cellset(b), bool(lanes.reason[b] == STALL),
                              burn_in + int(lanes.stop[b]))


# --------------------------------------------------------------------------
# dichotomy report
# --------------------------------------------------------------------------

@dataclass
class DichotomyReport:
    system: str
    census: Census
    sample_points: list
    robustness: list[RobustnessCertificate]
    verdict_consistency: bool
    global_attraction: bool | None
    notes: list

    def as_record(self) -> dict:
        return {
            "system": self.system,
            "minimal_count": self.census.count,
            "components": [c.as_record() for c in self.census.components],
            "sample_points": [list(p) for p in self.sample_points],
            "robustness": [r.as_record() for r in self.robustness],
            "verdict_consistency": self.verdict_consistency,
            "global_attraction": self.global_attraction,
            "notes": list(self.notes),
        }


def dichotomy_report(
    sys: System,
    sample_points,
    eps0: float = 0.05,
    levels: int = 3,
    robust_eps: float = 0.1,
    v_eps: float = 0.1,
    base_grid: Grid | None = None,
    orbit_max_steps: int = 200_000,
) -> DichotomyReport:
    """Census + stability + robustness samples, checked against the
    unique-or-infinite alternative for robust systems.

    The consistency flag asserts only the forward implication: when every
    sampled point certifies robust, the census must show either exactly one
    minimal set that is not unstable, or an unbounded-at-resolution census
    with no isolated component.  Non-robust samples leave the alternative
    unconstrained (noted, vacuously consistent).
    """
    # the samples' robustness orbits run as further lanes of the census's
    # mid orbits; whatever a sample that does not canonicalize raises is
    # raised where the samples are read, after the census and stability errors
    try:
        samples, bad = [sys.domain.canon(p) for p in sample_points], None
    except Exception as exc:
        samples, bad = [], exc
    census, sample_orbits = _census(sys, eps0, levels, base_grid, orbit_max_steps, samples)
    grid_f = census.grid_finest
    notes = []
    for comp in census.components:
        try:
            sres = lyapunov_stability(sys, comp.cells, v_eps, census.eps_finest,
                                      orbit_max_steps)
            comp.stability = sres.flag
            comp.stability_result = sres
        except PreconditionError as exc:
            notes.append(f"stability precondition failed: {exc}")

    if bad is not None:
        raise bad
    # each sample's certificate (default schedule), its orbit read just
    # before it, so that each error is raised where a loop of
    # robustness_check calls would raise it; the orbit is kept up to its step
    # BURN_IN, which is where its omega tail starts
    certs, ends = [], []
    if samples:
        if robust_eps <= 0:
            raise ValueError("eps must be positive")
        schedule = default_delta_schedule(robust_eps, grid_f.resolution_floor)
    for p in samples:
        if not sys.domain.contains(p):
            raise DomainError(f"orbit start {p!r} outside domain")
        orbit = next(sample_orbits)
        certs.append(_certify(sys, p, robust_eps, schedule, grid_f, orbit))
        ends.append(_resume_from(orbit.points, BURN_IN))
    all_robust = all(c.verdict == "robust-at-resolution" for c in certs)
    none_isolated = all(c.isolated != "yes" for c in census.components)

    if not all_robust:
        consistency = True
        notes.append("non-robust samples present: dichotomy hypothesis not "
                     "met, theorem silent")
        if census.count == "unbounded-at-resolution" and none_isolated:
            notes.append("census matches the infinite-census alternative yet "
                         "samples are non-robust: the converse of the "
                         "dichotomy is false here")
    elif census.count == "1":
        consistency = census.components[0].stability != "unstable-witnessed"
        if not consistency:
            notes.append("all samples robust but the unique minimal set is "
                         "unstable-witnessed")
    elif census.count == "unbounded-at-resolution":
        consistency = none_isolated
        if not consistency:
            notes.append("all samples robust with an isolated component in "
                         "an unbounded census")
    else:
        consistency = False
        notes.append("all samples robust but census is finite>1")

    attraction = None
    if (all_robust and census.count == "1" and not sys.multivalued
            and census.components[0].stability == "stable-certified"):
        comp = census.components[0]
        hull = fatten(comp.cells, census.eps_finest + grid_f.cell_diameter)
        # a trajectory keeps its steps 0, 1, ... in order, so each burn-in
        # carries on from the orbit's last kept point, the lanes together
        u = sys.controls[0]
        pts = advance(sys, [p for p, _ in ends], u,
                      BURN_IN - np.array([k for _, k in ends]))
        attraction = all(om.stabilized and om.cells.issubset(hull) for om in
                         _omega_tails(sys, pts, grid_f, u, BURN_IN, WINDOW, TAIL_STEPS))
    return DichotomyReport(sys.name, census, [tuple(float(v) for v in p) for p in samples],
                           certs, consistency, attraction, notes)
