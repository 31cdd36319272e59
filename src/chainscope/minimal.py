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
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .geometry import CellSet, Grid, fatten, grid_for
from .orbits import STALL, advance, reach_lanes, reaches, run, trajectory, within
from .reachability import (
    RobustnessCertificate,
    _refine_capped,
    default_delta_schedule,
    max_cells_cap,
    orbit_reach,
    robustness_check,
)
from .systems import System, _image_union
from .transition import build_graph, forward_reach, recurrent_cells

# a component "shrinks" under one refinement when its measure drops below
# this fraction of its coarse ancestor's measure
SHRINK_RATIO = 0.75


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

    def as_record(self) -> dict:
        return {
            "kind": self.kind,
            "period": self.period,
            "control_fixed": self.control_fixed,
            "representative": list(self.representative),
        }


@dataclass
class StabilityResult:
    flag: str                     # stable-certified | unstable-witnessed | inconclusive
    v_eps: float
    w_radius: float | None
    witness_orbit: np.ndarray | None = field(repr=False, default=None)
    note: str = ""

    def as_record(self) -> dict:
        return {
            "flag": self.flag,
            "v_eps": self.v_eps,
            "w_radius": self.w_radius,
            "witness_points": (
                [list(p) for p in self.witness_orbit[:64]]
                if self.witness_orbit is not None else None
            ),
            "note": self.note,
        }


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

def classify_component(
    sys: System,
    comp: CellSet,
    q_max: int = 64,
    tol: float | None = None,
    burn_in: int = 512,
) -> Classification:
    """Classify a recurrent component from candidate member representatives.

    fixed-point when one map application returns within tolerance; else
    periodic(q) for the least q up to q_max; else "other".  Multivalued
    systems are classified under a pinned constant control and flagged.
    """
    if not comp:
        raise PreconditionError("cannot classify an empty component")
    grid = comp.grid
    dom = sys.domain
    if tol is None:
        tol = 2.0 * grid.cell_diameter
    u = sys.controls[0]
    idx = comp.indices()
    candidates = [
        grid.cell_center(int(idx[0])),
        grid.cell_center(int(idx[-1])),
        grid.cell_center(int(idx[idx.size // 2])),
    ]
    # a settled point is a better witness for attracting components, but only
    # if burn-in keeps it associated with this component
    settle = advance(sys, candidates[2][None, :], u, burn_in)[0]
    if fatten(comp, 4.0 * grid.cell_diameter).mask.reshape(-1)[grid.cell_of(settle)]:
        candidates.append(settle)

    # each candidate's first return within tol, the candidates as lanes;
    # steps past a candidate's return are discarded
    cands = np.array(candidates)
    with np.errstate(all="ignore"):
        path = trajectory(sys, cands, q_max, u).reshape(-1, dom.ndim)
        back = within(dom, path, np.tile(cands, (q_max, 1)), tol).reshape(q_max, -1)
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


def _ancestor_of(fine_comp: np.ndarray, coarse_comps: list[np.ndarray],
                 fine: Grid, factor: int) -> int | None:
    coarse_cells = np.unique(_coarsen_indices(fine_comp, fine, factor))
    best, best_overlap = None, 0
    for i, cc in enumerate(coarse_comps):
        overlap = np.intersect1d(coarse_cells, cc, assume_unique=True).size
        if overlap > best_overlap:
            best, best_overlap = i, overlap
    return best


def minimal_sets(
    sys: System,
    eps0: float,
    levels: int = 3,
    base_grid: Grid | None = None,
    orbit_max_steps: int = 200_000,
) -> Census:
    """Enumerate candidate minimal sets by nested recurrence refinement."""
    if base_grid is None:
        base_grid = grid_for(sys.domain, eps0)
    level_comps: list[list[np.ndarray]] = []
    grids: list[Grid] = []
    cap = max_cells_cap()
    for k in range(levels):
        grid_k = _refine_capped(base_grid, k, cap)
        g = build_graph(sys, grid_k, eps0 / (2 ** k))
        level_comps.append([cs.indices() for cs in recurrent_cells(g)])
        grids.append(grid_k)
    eps_f = eps0 / (2 ** (levels - 1))
    grid_f = grids[-1]

    # group finest components by their coarsest-level ancestor
    factor_to_base = 2 ** (levels - 1)
    groups: dict[tuple, list[int]] = {}
    for i, comp in enumerate(level_comps[-1]):
        anc = (
            _ancestor_of(comp, level_comps[0], grid_f, factor_to_base)
            if levels > 1 else i
        )
        key = ("ancestor", anc) if anc is not None else ("orphan", i)
        groups.setdefault(key, []).append(i)

    grid_0 = grids[0]
    out = []
    for key in sorted(groups, key=lambda k: min(level_comps[-1][i][0]
                                                for i in groups[k])):
        members = groups[key]
        union = np.unique(np.concatenate([level_comps[-1][i] for i in members]))
        cells = CellSet.from_indices(grid_f, union)

        rep = grid_f.cell_center(int(union[0]))
        mid = grid_f.cell_center(int(union[union.size // 2]))
        covers = False
        orbits = []
        for start in (mid, rep):
            orb = orbit_reach(sys, start, grid_f, max_steps=orbit_max_steps)
            if not orb.converged:
                continue
            orbits.append(orb)
            if cells.issubset(fatten(orb.cells, eps_f + grid_f.cell_diameter)):
                covers = True
                break

        # shrink evidence: the slice of the component beyond the sampled
        # orbit's hull is discretization noise exactly when it dies off
        # under refinement; a raw measure drop against the coarse ancestor
        # counts as well
        shrinks = False
        if levels > 1 and key[0] == "ancestor" and not covers:
            scale = factor_to_base ** sys.domain.ndim
            anc = level_comps[0][key[1]]
            shrinks = union.size <= SHRINK_RATIO * anc.size * scale
            if not shrinks and orbits:
                pts = orbits[0].points
                hull_f = fatten(
                    CellSet.from_indices(grid_f, np.unique(grid_f.cells_of(pts))),
                    eps_f + grid_f.cell_diameter,
                )
                hull_0 = fatten(
                    CellSet.from_indices(grid_0, np.unique(grid_0.cells_of(pts))),
                    eps0 + grid_0.cell_diameter,
                )
                exc_f = len(cells - hull_f)
                exc_0 = len(CellSet.from_indices(grid_0, anc) - hull_0) * scale
                shrinks = exc_0 > 0 and exc_f <= SHRINK_RATIO * exc_0

        cls = classify_component(sys, cells)
        out.append(MinimalSetApprox(
            cells=cells,
            classification=cls,
            representative=tuple(float(v) for v in mid),
            evidence_minimal=shrinks or covers,
            shrinks=shrinks,
            orbit_covers=covers,
            fragment_count=len(members),
        ))

    # isolation flags at the finest level
    for i, comp in enumerate(out):
        if not comp.evidence_minimal:
            comp.isolated = "unknown-at-resolution"
            continue
        hull = fatten(comp.cells, eps_f)
        touching = any(
            j != i and bool((hull & other.cells))
            for j, other in enumerate(out)
        )
        comp.isolated = "no" if touching else "yes"

    if any(not c.evidence_minimal for c in out):
        count = "unbounded-at-resolution"
    elif len(out) == 1:
        count = "1"
    else:
        count = "finite>1"
    return Census(out, count, eps_f, grid_f,
                  [len(c) for c in level_comps])


# --------------------------------------------------------------------------
# Lyapunov stability
# --------------------------------------------------------------------------

def lyapunov_stability(
    sys: System,
    a_set: CellSet,
    v_eps: float,
    w_schedule=None,
    invariance_eps: float | None = None,
    orbit_max_steps: int = 100_000,
) -> StabilityResult:
    """Certify or refute stability of an invariant set against V = fatten(A, v_eps).

    stable-certified: some fattening W of A has graph forward reach inside V
    at the finest admissible graph (a sound certificate, since the graph
    over-approximates).  unstable-witnessed: the graph escapes for every
    tested W and a genuine sampled orbit from next to A leaves V.  Otherwise
    inconclusive; graph fattening alone cannot witness instability because
    its chains drift even for the identity map.
    """
    grid = a_set.grid
    if not a_set:
        raise PreconditionError("empty invariant-set candidate")
    inv_eps = invariance_eps if invariance_eps is not None else 4.0 * grid.cell_diameter
    if not is_graph_invariant(sys, a_set, inv_eps):
        raise PreconditionError("a_set is not forward-invariant at graph level")
    delta_graph = 4.0 * grid.cell_diameter
    g = build_graph(sys, grid, delta_graph)
    v_set = fatten(a_set, v_eps)
    if w_schedule is None:
        w_schedule = default_delta_schedule(v_eps, delta_graph)
    for w in w_schedule:
        reach = forward_reach(g, fatten(a_set, w))
        if reach.issubset(v_set):
            return StabilityResult("stable-certified", v_eps, float(w))
    # graph escapes for every W; look for a true escaping orbit near A
    base_reach = forward_reach(g, a_set)
    if base_reach.issubset(v_set):
        return StabilityResult(
            "inconclusive", v_eps, None,
            note="no W certified, but A itself stays in V at graph level",
        )
    probe_cells = fatten(a_set, min(w_schedule)).indices()
    stride = max(1, probe_cells.size // 64)
    starts = grid.centers()[probe_cells[::stride]]
    # read in probe order, the orbits run block by block: the first witness wins
    for start, orb in zip(starts, reaches(sys, starts, grid, orbit_max_steps)):
        if not orb.converged:
            continue
        if not orb.cells.issubset(v_set):
            return StabilityResult(
                "unstable-witnessed", v_eps, None, witness_orbit=orb.points,
                note=f"sampled orbit from {start!r} leaves V",
            )
    return StabilityResult(
        "inconclusive", v_eps, None,
        note="graph reach escapes V but every sampled orbit stays "
             "(fattening artifact at this resolution)",
    )


# --------------------------------------------------------------------------
# weak basin
# --------------------------------------------------------------------------

def _probe_points(grid: Grid) -> np.ndarray:
    """(n_cells, 1 + 2^d, d): each cell's center, then the corners of its
    closed box clipped into the domain, in canonical form."""
    dom = grid.domain
    lo = dom.bounds[:, 0] + np.stack(np.unravel_index(
        np.arange(grid.n_cells), grid.shape), axis=1) * grid.spacing
    box = (lo, lo + grid.spacing)
    corners = [
        np.clip(np.stack([box[c][:, a] for a, c in enumerate(pick)], axis=1),
                dom.bounds[:, 0], dom.bounds[:, 1])
        for pick in itertools.product((0, 1), repeat=dom.ndim)
    ]
    pts = np.stack([grid.centers()] + corners, axis=1)
    return pts % 1.0 if dom.kind == "circle" else pts


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
    orbit_max_steps: int = 100_000,
    invariance_eps: float | None = None,
) -> CellSet:
    """Cells whose sampled orbits all come near the candidate minimal set.

    A cell joins the basin when the orbit of every probe point (center and
    closed-cell corners) meets the eps-fattening of A at that level, with
    eps = 4 * cell diameter; levels are intersected on the finest grid.
    Orbit evidence rather than graph chains keeps points like an unstable
    boundary fixed point out of the basin.  ``invariance_eps`` loosens the
    forward-invariance precondition for sets produced at a coarser eps.
    """
    grid0 = a_set.grid
    inv = invariance_eps if invariance_eps is not None else 4.0 * grid0.cell_diameter
    if not is_graph_invariant(sys, a_set, inv):
        raise PreconditionError("a_set is not forward-invariant at graph level")
    results = []
    cap = max_cells_cap()
    for k in range(levels):
        grid_k = _refine_capped(grid0, k, cap)
        a_k = a_set.refine(2 ** k) if k else a_set.copy()
        t_mask = fatten(a_k, 4.0 * grid_k.cell_diameter).mask.reshape(-1)
        probes = _probe_points(grid_k)
        n_probe = probes.shape[1]
        flat = probes.reshape(-1, probes.shape[-1])
        first, lane = _first_occurrences(flat)   # one orbit per distinct point
        hit, outside = [], {}
        for lanes in reach_lanes(sys, flat[first], grid_k, orbit_max_steps):
            hit.append(lanes.hits(t_mask))   # the block's orbits are freed
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

    def as_record(self) -> dict:
        return {
            "cell_count": len(self.cells),
            "stabilized": self.stabilized,
            "steps": self.steps,
        }


def omega_limit(
    sys: System,
    x,
    grid: Grid,
    burn_in: int = 10_000,
    window: int = 2048,
    max_steps: int = 300_000,
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
    lanes = next(run(sys, pt, grid, max_steps, 0.0, window, u=u))   # no revisit check
    return OmegaResult(lanes.cellset(0), bool(lanes.reason[0] == STALL),
                       burn_in + int(lanes.stop[0]))


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
    census = minimal_sets(sys, eps0, levels, base_grid,
                          orbit_max_steps=orbit_max_steps)
    notes = []
    for comp in census.components:
        try:
            sres = lyapunov_stability(
                sys, comp.cells, v_eps,
                invariance_eps=census.eps_finest,
                orbit_max_steps=orbit_max_steps,
            )
            comp.stability = sres.flag
            comp.stability_result = sres
        except PreconditionError as exc:
            comp.stability = "inconclusive"
            notes.append(f"stability precondition failed: {exc}")

    samples = [sys.domain.canon(p) for p in sample_points]
    certs = []
    for p in samples:
        certs.append(
            robustness_check(sys, p, robust_eps, grid=census.grid_finest,
                             max_steps=orbit_max_steps)
        )
    all_robust = all(c.verdict == "robust-at-resolution" for c in certs)

    if not all_robust:
        consistency = True
        notes.append("non-robust samples present: dichotomy hypothesis not "
                     "met, theorem silent")
        if census.count == "unbounded-at-resolution" and all(
            c.isolated != "yes" for c in census.components
        ):
            notes.append("census matches the infinite-census alternative yet "
                         "samples are non-robust: the converse of the "
                         "dichotomy is false here")
    elif census.count == "1":
        consistency = census.components[0].stability != "unstable-witnessed"
        if not consistency:
            notes.append("all samples robust but the unique minimal set is "
                         "unstable-witnessed")
    elif census.count == "unbounded-at-resolution":
        consistency = all(c.isolated != "yes" for c in census.components)
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
        hull = fatten(
            comp.cells, census.eps_finest + census.grid_finest.cell_diameter
        )
        attraction = True
        for p in samples:
            om = omega_limit(sys, p, census.grid_finest)
            if not om.stabilized or not om.cells.issubset(hull):
                attraction = False
                break
    return DichotomyReport(
        sys.name, census, [tuple(float(v) for v in p) for p in samples],
        certs, consistency, attraction, notes,
    )
