"""Reach and chain-reach computation, robustness certificates, verifiers.

True reach is approximated from below by sampled orbits (cell covers of
finitely many genuine trajectory points) and from above by transition-graph
closures.  Robustness verdicts compare the two and are always qualified
"at resolution": a certificate records either a perturbation radius whose
graph reach stays inside the fattened sampled reach, or a replayable
perturbed trajectory that provably escapes it.

Every sampled orbit runs in the batched orbit engine of ``orbits``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InconclusiveError,
    ResolutionError,
    ResourceLimitError,
)
from .geometry import (
    CellSet,
    Domain,
    Grid,
    fatten,
    _hausdorff_within,
    grid_for,
    hausdorff,
    nearest_distances,
)
from .orbits import ReachResult, reaches
from .systems import System
from .transition import (
    _reach_within,
    build_graph,
    edge_control,
    extract_path,
    forward_reach,
    forward_reach_depths,
)

def default_delta_schedule(eps: float, floor: float, key: str = "eps") -> list[float]:
    """Geometric halving from eps/2 down to the floor; errors call eps ``key``."""
    if not math.isfinite(eps):
        raise ValueError(f"{key} must be finite, got {eps!r}")
    vals = []
    v = eps / 2.0
    while v >= floor * (1.0 - 1e-12):
        vals.append(v)
        v /= 2.0
    if not vals:
        raise ResolutionError(
            f"{key}={eps:g} leaves no admissible perturbation radius: "
            f"{key}/2={eps / 2:g} is already below the resolution floor {floor:g}"
        )
    return vals


def _first_true(n: int, holds) -> int:
    """The first i in range(n) with ``holds(i)``, or n if there is none, for
    a ``holds`` that is false on a prefix of range(n) and true on the rest.

    Tries 0, then n - 1, then bisects between them: one call when 0 holds,
    two when none does, at most 2 + ceil(log2 n) in all.
    """
    if holds(0):
        return 0
    if n == 1 or not holds(n - 1):
        return n
    lo, hi = 0, n - 1   # holds(lo) is false, holds(hi) is true
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


# --------------------------------------------------------------------------
# sampled orbit reach
# --------------------------------------------------------------------------

def orbit_reach(
    sys: System,
    x,
    grid: Grid,
    policy="all",
    max_steps: int = 200_000,
    tol: float = 1e-12,
    stall: int | None = None,
) -> ReachResult:
    """Cell cover of a sampled forward orbit.

    ``policy`` is either "all" (for multivalued systems: breadth-first
    enumeration of the control tree with visited-cell pruning) or an explicit
    sequence of controls from the control set (ControlError otherwise).
    Single trajectories converge when a point revisits an earlier point
    within ``tol``, or when no new cell appears for ``stall`` consecutive
    steps.  ``max_steps`` bounds map applications (tree mode: breadth-first
    sweeps); exhausting it yields converged=False.
    """
    p0 = sys.domain.canon(x)
    if not sys.domain.contains(p0):
        raise DomainError(f"orbit start {p0!r} outside domain")
    seq = None
    if isinstance(policy, str):
        if policy != "all":
            raise ValueError("policy must be 'all' or a control sequence")
    else:
        seq = [sys._resolve_control(u) for u in policy]
    return next(reaches(sys, p0[None, :], grid, max_steps, tol, stall, seq))


# --------------------------------------------------------------------------
# chain reach over refinement levels
# --------------------------------------------------------------------------

@dataclass
class ChainLevel:
    eps: float
    grid: Grid
    cells: CellSet


@dataclass
class ChainReachResult:
    levels: list[ChainLevel]
    final: CellSet
    stabilized: bool

    def as_record(self) -> dict:
        return {
            "levels": [
                {
                    "eps": lv.eps,
                    "cells_per_dim": list(lv.grid.cells_per_dim),
                    "cell_count": len(lv.cells),
                    "fraction": len(lv.cells) / lv.grid.n_cells,
                }
                for lv in self.levels
            ],
            "final_cell_count": len(self.final),
            "stabilized": self.stabilized,
        }


def chain_reach(
    sys: System,
    start: CellSet,
    eps0: float,
    levels: int,
    fatten_start: bool = False,
) -> ChainReachResult:
    """Nested graph-reach approximations of the chain reachable set.

    Level k runs the eps0/2^k fattened graph on the start grid refined by
    2^k, preserving the resolution coupling exactly.  ``fatten_start``
    additionally fattens the start set by the level's eps before the sweep.
    Each level after the first builds its graph only on the refinement of
    the level before's reach, which holds all of this level's reach (see the
    README on subdivision).  Stabilization compares the last two levels at
    the coarser of the two cell diameters.  A level over the cell cap raises
    ``ResourceLimitError`` with the levels before it as ``partial``.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    start.grid.check_resolution(eps0, "eps0")
    out: list[ChainLevel] = []
    for k in range(levels):
        eps_k = eps0 / (2 ** k)
        try:
            grid_k = start.grid.refine(2 ** k)
        except ResourceLimitError as exc:
            exc.partial = ChainReachResult(out, out[-1].cells if out else start, False)
            raise
        start_k = start.refine(2 ** k)
        if fatten_start:
            start_k = fatten(start_k, eps_k)
        cand = out[-1].cells.refine(2) if k else None
        g = build_graph(sys, grid_k, eps_k, cand)
        out.append(ChainLevel(eps_k, grid_k, forward_reach(g, start_k)))
    stabilized = True
    if len(out) >= 2:
        prev = out[-2].cells.refine(2)
        stabilized = _hausdorff_within(prev, out[-1].cells, out[-2].grid.cell_diameter)
    return ChainReachResult(out, out[-1].cells, stabilized)


# --------------------------------------------------------------------------
# robustness certification
# --------------------------------------------------------------------------

@dataclass
class WitnessStep:
    step: int
    point: tuple
    control: object
    dist_to_image: float


@dataclass
class RobustnessCertificate:
    verdict: str               # robust-at-resolution | non-robust-at-resolution
    eps: float
    delta_found: float | None
    delta_min: float
    grid_cells: tuple
    checked: list              # (delta, contained) in schedule order
    witness: list[WitnessStep] | None
    endpoint_distance: float | None
    orbit_steps: int

    def as_record(self) -> dict:
        return {
            "verdict": self.verdict,
            "eps": self.eps,
            "delta_found": self.delta_found,
            "delta_min": self.delta_min,
            "grid_cells_per_dim": list(self.grid_cells),
            "checked": [
                {"delta": d, "contained": ok} for d, ok in self.checked
            ],
            "witness_length": len(self.witness) if self.witness else 0,
            "endpoint_distance": self.endpoint_distance,
            "orbit_steps": self.orbit_steps,
        }


def _realize_chain(sys, grid, path, x0, budget):
    """Follow a graph path with true dynamics plus clipped perturbations.

    Every step lands within ``budget`` of the true image, so the result is a
    valid budget-chain by construction; how closely it tracks the path cells
    is then irrelevant to validity.
    """
    dom = sys.domain
    z = dom.canon(x0)
    rows = [WitnessStep(0, tuple(float(v) for v in z), None, 0.0)]
    for i in range(1, len(path)):
        u = path[i][1]
        raw = sys.image_points(z[None, :], u)[0]
        tgt = grid.cell_center(path[i][0])
        v = dom.displacement(raw, tgt)
        norm = float(dom.distances(raw, tgt))
        if norm > budget:
            v = v * (budget / norm)
        z = dom.project(raw + v)
        rows.append(
            WitnessStep(i, tuple(float(t) for t in z), u, dom.distance(z, raw))
        )
    return rows, z


def robustness_check(
    sys: System,
    x,
    eps: float,
    delta_schedule=None,
    grid: Grid | None = None,
    max_steps: int = 200_000,
) -> RobustnessCertificate:
    """Search a perturbation radius whose graph reach stays eps-close to reach.

    Certifies the first radius delta of the decreasing schedule whose graph
    forward reach from x is contained in the eps-fattening of the sampled
    orbit reach.  Containment is monotone in delta, so the schedule is
    searched (``_first_true``) by sweeps that stop at their first escape;
    ``checked`` still lists every radius up to the certified one, or all of
    them, and the entries not swept follow from the monotonicity (README,
    "Radius ladders").  If every radius fails, extracts a graph escape path
    at the smallest radius and realizes it as a genuine perturbed trajectory
    whose endpoint is farther than eps from every sampled reach point.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grid is None:
        floor = delta_schedule[-1] if delta_schedule else eps / 64.0
        grid = grid_for(sys.domain, floor)
    if delta_schedule is None:
        delta_schedule = default_delta_schedule(eps, grid.resolution_floor)
    schedule = [float(d) for d in delta_schedule]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("delta schedule must be strictly decreasing")
    grid.check_resolution(schedule[-1], "delta_schedule")
    return _certify(sys, x, eps, schedule, grid,
                    orbit_reach(sys, x, grid, max_steps=max_steps))


def _certify(sys, x, eps, schedule, grid, orbit):
    """``robustness_check`` from x, given its sampled orbit reach."""
    if not orbit.converged:
        raise InconclusiveError(
            "sampled reach did not converge; raise max_steps"
        )
    target = fatten(orbit.cells, eps)
    start = CellSet.from_points(grid, [sys.domain.canon(x)])

    g = None

    def contained(i: int) -> bool:
        nonlocal g
        g = None   # one graph alive at a time
        g = build_graph(sys, grid, schedule[i])
        return _reach_within(g, start, target)

    k = _first_true(len(schedule), contained)
    checked = [(delta, i == k) for i, delta in enumerate(schedule[:k + 1])]
    if k < len(schedule):
        return RobustnessCertificate(
            "robust-at-resolution", eps, schedule[k], schedule[-1],
            grid.cells_per_dim, checked, None, None, orbit.steps_used,
        )

    # non-robust: realize an escaping chain at the smallest radius, the last
    # one tried, whose graph g still holds
    delta_min = schedule[-1]
    reach, depths = forward_reach_depths(g, start)
    escaped = reach - target
    esc_idx = escaped.indices()
    dists = nearest_distances(sys.domain, grid.centers()[esc_idx], orbit.points)
    witness_cell = int(esc_idx[int(np.argmax(dists))])
    cells = extract_path(g, depths, witness_cell)
    path = [(cells[0], None)]
    for a, b in zip(cells, cells[1:]):
        path.append((b, edge_control(g, a, b)))
    rows, z_end = _realize_chain(sys, grid, path, x, 0.99 * delta_min)
    end_dist = float(nearest_distances(sys.domain, z_end[None, :], orbit.points)[0])
    if end_dist <= eps:
        rows, z_end, end_dist = _extend_chain(
            sys, rows, z_end, orbit.points, eps, 0.99 * delta_min
        )
    if end_dist <= eps:
        raise InconclusiveError(
            "graph reach escapes but no realizable escaping chain was found"
        )
    return RobustnessCertificate(
        "non-robust-at-resolution", eps, None, delta_min,
        grid.cells_per_dim, checked, rows, end_dist, orbit.steps_used,
    )


def _extend_chain(sys, rows, z, orbit_pts, eps, budget):
    dom = sys.domain
    step = rows[-1].step
    for _ in range(400):   # extra steps at most
        step += 1
        raws, pushed = [], []
        for u in sys.controls:
            raw = sys.image_points(z[None, :], u)[0]
            near = orbit_pts[int(np.argmin(dom.distances(orbit_pts, raw)))]
            away = dom.displacement(near, raw)
            norm = float(dom.distances(near, raw))
            v = away / norm * budget if norm > 0 else np.zeros_like(raw)
            raws.append(raw)
            pushed.append(dom.project(raw + v))
        # keep the control whose pushed point lands farthest from the orbit
        dists = nearest_distances(dom, np.array(pushed), orbit_pts)
        j = int(np.argmax(dists))
        z, best = pushed[j], float(dists[j])
        rows.append(
            WitnessStep(step, tuple(float(t) for t in z), sys.controls[j],
                        dom.distance(z, raws[j]))
        )
        if best > eps * 1.05:
            break
    return rows, z, best


def replay_certificate(sys: System, cert: RobustnessCertificate, x, grid: Grid) -> bool:
    """Re-verify a certificate from scratch.

    Robust: rebuild the graph at the certified radius and recheck inclusion.
    Non-robust: recheck every witness step lands within delta_min of the true
    image and the endpoint stays farther than eps from the sampled reach.
    """
    orbit = orbit_reach(sys, x, grid)
    if cert.verdict == "robust-at-resolution":
        g = build_graph(sys, grid, cert.delta_found)
        reach = forward_reach(g, CellSet.from_points(grid, [sys.domain.canon(x)]))
        return reach.issubset(fatten(orbit.cells, cert.eps))
    dom = sys.domain
    prev = None
    for row in cert.witness:
        pt = np.asarray(row.point)
        if row.step == 0:
            if dom.distance(pt, dom.canon(x)) > 1e-9:
                return False
        else:
            raw = sys.image_points(prev[None, :], row.control)[0]
            if dom.distance(pt, raw) >= cert.delta_min:
                return False
        prev = pt
    return float(nearest_distances(dom, prev[None, :], orbit.points)[0]) > cert.eps


# --------------------------------------------------------------------------
# uniform perturbation bound for iterated images
# --------------------------------------------------------------------------

@dataclass
class UniformDeltaReport:
    eps: float
    n_max: int
    entries: list            # (delta, ok, first_fail_n)
    found: float | None

    def as_record(self) -> dict:
        return {
            "eps": self.eps,
            "n_max": self.n_max,
            "entries": [
                {"delta": d, "ok": ok, "first_fail_n": n}
                for d, ok, n in self.entries
            ],
            "found": self.found,
        }


def find_uniform_delta(
    sys: System,
    start: CellSet,
    eps: float,
    n_max: int,
    delta_schedule=None,
) -> tuple[float | None, UniformDeltaReport]:
    """Find delta with delta-iterates from a delta-fattened start dominated
    by eps-iterates from the bare start, for every step count up to n_max.

    Compares n-fold composed graph images (not cumulative reach) per step on
    one shared grid.  Failure at the schedule floor is a report outcome, not
    an error.  The pair of images lives on a finite set, so it repeats; past
    its first repeat every pair is one already checked, and the check stops
    there.  Brent's cycle detection finds the repeat holding one saved pair.
    """
    grid = start.grid
    grid.check_resolution(eps, "eps")
    if delta_schedule is None:
        delta_schedule = default_delta_schedule(eps, grid.resolution_floor)
    g_eps = build_graph(sys, grid, eps)
    entries = []
    found = None
    for delta in delta_schedule:
        g_d = build_graph(sys, grid, delta)
        a, b = fatten(start, delta), start
        saved, power, lam, fail_n = (a, b), 1, 0, None
        for n in range(1, n_max + 1):
            a, b = g_d.image_of(a), g_eps.image_of(b)
            if not a.issubset(b):
                fail_n = n
                break
            if (a, b) == saved:
                break
            lam += 1
            if lam == power:
                saved, power, lam = (a, b), 2 * power, 0
        entries.append((delta, fail_n is None, fail_n))
        if fail_n is None:
            found = delta
            break
    return found, UniformDeltaReport(eps, n_max, entries, found)


# --------------------------------------------------------------------------
# start-fattening equivalence
# --------------------------------------------------------------------------

@dataclass
class InitialFatteningReport:
    equivalent: bool
    final_hausdorff: float
    per_level: list           # hausdorff per level
    eps_finest: float
    cell_diameter: float

    def as_record(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "final_hausdorff": self.final_hausdorff,
            "per_level_hausdorff": list(self.per_level),
            "eps_finest": self.eps_finest,
            "cell_diameter": self.cell_diameter,
        }


def verify_initial_fattening(
    sys: System, start: CellSet, eps0: float, levels: int
) -> InitialFatteningReport:
    """Compare chain reach from the start against chain reach from the
    per-level fattened start.

    The two nested sequences approximate the same limit; at finite level the
    finals are compared at eps_finest + one cell diameter (a fattened start
    keeps its fattening in any finite-level reach).
    """
    plain = chain_reach(sys, start, eps0, levels)
    fattened = chain_reach(sys, start, eps0, levels, fatten_start=True)
    per_level = [
        hausdorff(a.cells, b.cells)
        for a, b in zip(plain.levels, fattened.levels)
    ]
    eps_f = plain.levels[-1].eps
    diam_f = plain.levels[-1].grid.cell_diameter
    return InitialFatteningReport(
        per_level[-1] <= eps_f + diam_f, per_level[-1], per_level, eps_f, diam_f
    )


# --------------------------------------------------------------------------
# semicontinuity probes
# --------------------------------------------------------------------------

def _van_der_corput(i: int, base: int = 2) -> float:
    v, denom = 0.0, 1.0
    while i:
        denom *= base
        i, rem = divmod(i, base)
        v += rem / denom
    return v


def _ball_samples(domain: Domain, x, delta: float, n: int) -> np.ndarray:
    """Deterministic low-discrepancy samples of the open delta-ball, clipped
    into the domain."""
    p = domain.canon(x)
    if domain.ndim == 1:
        offs = np.array([delta * (2.0 * _van_der_corput(i) - 1.0)
                         for i in range(2, n + 2)])
        return domain.project(p[0] + offs[:, None])
    pts, i = [], 1
    while len(pts) < n and i < 64 * n:
        off = np.array([
            delta * (2.0 * _van_der_corput(i, 2) - 1.0),
            delta * (2.0 * _van_der_corput(i, 3) - 1.0),
        ])
        if np.linalg.norm(off) < delta:
            pts.append(domain.project(p + off))
        i += 1
    return np.asarray(pts)


@dataclass
class ProbeReport:
    mode: str
    eps: float
    found_delta: float | None
    violating_point: tuple | None
    checked_deltas: list

    def as_record(self) -> dict:
        return {
            "mode": self.mode,
            "eps": self.eps,
            "found_delta": self.found_delta,
            "violating_point": (
                list(self.violating_point) if self.violating_point else None
            ),
            "checked_deltas": list(self.checked_deltas),
        }


def semicontinuity_probe(
    sys: System,
    x,
    eps: float,
    mode: str,
    grid: Grid | None = None,
) -> ProbeReport:
    """Probe semicontinuity of the sampled reach multifunction at x.

    usc mode searches delta with reach(y) inside the eps-fattened reach(x)
    for every sampled y in the delta-ball; lsc mode searches delta with
    reach(x) inside the eps-fattened reach(y) for every sampled y.  Probes
    are falsifiers and evidence, not proofs.  The radii are
    ``default_delta_schedule(eps, eps / 64)``, each probed at 32 points of
    its ball; every orbit keeps ``orbit_reach``'s step budget.
    """
    if mode not in ("usc", "lsc"):
        raise ValueError("mode must be 'usc' or 'lsc'")
    if grid is None:
        grid = grid_for(sys.domain, eps)
    delta_schedule = default_delta_schedule(eps, eps / 64.0)
    base = orbit_reach(sys, x, grid)
    if not base.converged:
        raise InconclusiveError("reach at the probe center did not converge")
    base_fat = fatten(base.cells, eps)
    violator = None
    for delta in delta_schedule:
        ys = _ball_samples(sys.domain, x, delta, 32).reshape(-1, sys.domain.ndim)
        # the samples' orbits run block by block as they are read
        for y, r in zip(ys, reaches(sys, ys, grid, 200_000)):
            if not r.converged:
                raise InconclusiveError(f"reach at probe point {y!r} did not converge")
            if mode == "usc":
                good = r.cells.issubset(base_fat)
            else:
                good = base.cells.issubset(fatten(r.cells, eps))
            if not good:
                violator = tuple(float(v) for v in y)
                break
        else:
            return ProbeReport(mode, eps, delta, None, list(delta_schedule))
    return ProbeReport(mode, eps, None, violator, list(delta_schedule))
