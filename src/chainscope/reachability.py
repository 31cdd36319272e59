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
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
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
    grid_for,
    hausdorff,
    nearest_distances,
)
from .orbits import ReachResult, reaches
from .systems import System
from .transition import (
    build_graph,
    edge_control,
    extract_path,
    forward_reach,
    forward_reach_depths,
)

DEFAULT_MAX_CELLS = 2 ** 22


def max_cells_cap() -> int:
    """The grid-size cap: CHAINSCOPE_MAX_CELLS cells, default 2^22."""
    raw = os.environ.get("CHAINSCOPE_MAX_CELLS")
    if not raw:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(
            f"CHAINSCOPE_MAX_CELLS must be a positive integer, got {raw!r}")
    return cap


def _refine_capped(grid: Grid, k: int, cap: int, partial=None) -> Grid:
    """The level-k grid (refined 2^k times), refused before anything is
    allocated on it when it has more than ``cap`` cells."""
    fine = grid.refine(2 ** k)
    if fine.n_cells > cap:
        raise ResourceLimitError(
            f"level {k} grid ({fine.n_cells} cells) exceeds the cell cap {cap} "
            f"(CHAINSCOPE_MAX_CELLS)", partial=partial)
    return fine


def default_delta_schedule(eps: float, floor: float) -> list[float]:
    """Geometric halving from eps/2 down to the resolution floor."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    vals = []
    v = eps / 2.0
    while v >= floor * (1.0 - 1e-12):
        vals.append(v)
        v /= 2.0
    if not vals:
        raise ResolutionError(
            f"no admissible perturbation radius: eps/2={eps / 2:g} is already "
            f"below the resolution floor {floor:g}"
        )
    return vals


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
    max_cells: int | None = None,
) -> ChainReachResult:
    """Nested graph-reach approximations of the chain reachable set.

    Level k runs the eps0/2^k fattened graph on the start grid refined by
    2^k, preserving the resolution coupling exactly.  ``fatten_start``
    additionally fattens the start set by the level's eps before the sweep.
    Stabilization compares the last two levels at the coarser of the two
    cell diameters.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if eps0 < 4.0 * start.grid.cell_diameter * (1.0 - 1e-12):
        raise ResolutionError("eps0 violates resolution coupling on start grid")
    cap = max_cells if max_cells is not None else max_cells_cap()
    out: list[ChainLevel] = []
    for k in range(levels):
        eps_k = eps0 / (2 ** k)
        grid_k = _refine_capped(
            start.grid, k, cap,
            partial=ChainReachResult(out, out[-1].cells if out else start, False),
        )
        start_k = start.refine(2 ** k) if k else start.copy()
        if fatten_start:
            start_k = fatten(start_k, eps_k)
        g = build_graph(sys, grid_k, eps_k)
        out.append(ChainLevel(eps_k, grid_k, forward_reach(g, start_k)))
    stabilized = True
    if len(out) >= 2:
        prev = out[-2].cells.refine(2)
        stabilized = hausdorff(prev, out[-1].cells) <= out[-2].grid.cell_diameter
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


def _min_orbit_distance(domain: Domain, p: np.ndarray, orbit_pts: np.ndarray) -> float:
    return float(nearest_distances(domain, p[None, :], orbit_pts)[0])


def _wrapped_delta(domain: Domain, frm: np.ndarray, to: np.ndarray) -> np.ndarray:
    if domain.kind == "circle":
        return ((to - frm + 0.5) % 1.0) - 0.5
    return to - frm


def _project(domain: Domain, p: np.ndarray) -> np.ndarray:
    if domain.kind == "circle":
        return p % 1.0
    return np.clip(p, domain.bounds[:, 0], domain.bounds[:, 1])


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
        v = _wrapped_delta(dom, raw, tgt)
        norm = float(np.linalg.norm(v))
        if norm > budget:
            v = v * (budget / norm)
        z = _project(dom, raw + v)
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

    Scans the decreasing schedule and certifies the first radius delta whose
    graph forward reach from x is contained in the eps-fattening of the
    sampled orbit reach.  If every radius fails, extracts a graph escape path
    at the smallest radius and realizes it as a genuine perturbed trajectory
    whose endpoint is farther than eps from every sampled reach point.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grid is None:
        floor = delta_schedule[-1] if delta_schedule else eps / 64.0
        grid = grid_for(sys.domain, floor)
    if delta_schedule is None:
        delta_schedule = default_delta_schedule(eps, 4.0 * grid.cell_diameter)
    schedule = [float(d) for d in delta_schedule]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("delta schedule must be strictly decreasing")
    if schedule[-1] < 4.0 * grid.cell_diameter * (1.0 - 1e-12):
        raise ResolutionError("delta schedule ends below 4 * cell diameter")

    orbit = orbit_reach(sys, x, grid, max_steps=max_steps)
    if not orbit.converged:
        raise InconclusiveError(
            "sampled reach did not converge; raise max_steps"
        )
    target = fatten(orbit.cells, eps)
    start = CellSet.from_points(grid, [sys.domain.canon(x)])

    checked = []
    last_graph = None
    for delta in schedule:
        g = build_graph(sys, grid, delta)
        reach = forward_reach(g, start)
        ok = reach.issubset(target)
        checked.append((delta, ok))
        if ok:
            return RobustnessCertificate(
                "robust-at-resolution", eps, delta, schedule[-1],
                grid.cells_per_dim, checked, None, None, orbit.steps_used,
            )
        last_graph = g

    # non-robust: realize an escaping chain at the smallest radius
    delta_min = schedule[-1]
    reach, depths = forward_reach_depths(last_graph, start)
    escaped = reach - target
    esc_idx = escaped.indices()
    dists = nearest_distances(sys.domain, grid.centers()[esc_idx], orbit.points)
    witness_cell = int(esc_idx[int(np.argmax(dists))])
    cells = extract_path(last_graph, depths, witness_cell)
    path = [(cells[0], None)]
    for a, b in zip(cells, cells[1:]):
        path.append((b, edge_control(last_graph, a, b)))
    rows, z_end = _realize_chain(sys, grid, path, x, 0.99 * delta_min)
    end_dist = _min_orbit_distance(sys.domain, z_end, orbit.points)
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


def _extend_chain(sys, rows, z, orbit_pts, eps, budget, max_extra=400):
    dom = sys.domain
    step = rows[-1].step
    best = _min_orbit_distance(dom, z, orbit_pts)
    for _ in range(max_extra):
        step += 1
        raws, pushed = [], []
        for u in sys.controls:
            raw = sys.image_points(z[None, :], u)[0]
            near = orbit_pts[int(np.argmin(dom.distances_to(orbit_pts, raw)))]
            away = _wrapped_delta(dom, near, raw)
            norm = float(np.linalg.norm(away))
            v = away / norm * budget if norm > 0 else np.zeros_like(raw)
            raws.append(raw)
            pushed.append(_project(dom, raw + v))
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
    return _min_orbit_distance(dom, prev, orbit.points) > cert.eps


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
    an error.
    """
    grid = start.grid
    if eps < 4.0 * grid.cell_diameter * (1.0 - 1e-12):
        raise ResolutionError("eps violates resolution coupling on start grid")
    if delta_schedule is None:
        delta_schedule = default_delta_schedule(eps, 4.0 * grid.cell_diameter)
    g_eps = build_graph(sys, grid, eps)
    entries = []
    found = None
    for delta in delta_schedule:
        g_d = build_graph(sys, grid, delta)
        a = fatten(start, delta).mask
        b = start.mask.copy()
        ok, fail_n = True, None
        for n in range(1, n_max + 1):
            a = g_d._impl.image_of(a)
            b = g_eps._impl.image_of(b)
            if np.any(a & ~b):
                ok, fail_n = False, n
                break
        entries.append((delta, ok, fail_n))
        if ok:
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
        pts = p[0] + offs
        if domain.kind == "circle":
            return (pts % 1.0)[:, None]
        return np.clip(pts, domain.bounds[0, 0], domain.bounds[0, 1])[:, None]
    pts, i = [], 1
    while len(pts) < n and i < 64 * n:
        off = np.array([
            delta * (2.0 * _van_der_corput(i, 2) - 1.0),
            delta * (2.0 * _van_der_corput(i, 3) - 1.0),
        ])
        if np.linalg.norm(off) < delta:
            pts.append(np.clip(p + off, domain.bounds[:, 0], domain.bounds[:, 1]))
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
    delta_schedule=None,
    grid: Grid | None = None,
    n_samples: int = 32,
    max_steps: int = 200_000,
) -> ProbeReport:
    """Probe semicontinuity of the sampled reach multifunction at x.

    usc mode searches delta with reach(y) inside the eps-fattened reach(x)
    for every sampled y in the delta-ball; lsc mode searches delta with
    reach(x) inside the eps-fattened reach(y) for every sampled y.  Probes
    are falsifiers and evidence, not proofs.
    """
    if mode not in ("usc", "lsc"):
        raise ValueError("mode must be 'usc' or 'lsc'")
    if grid is None:
        grid = grid_for(sys.domain, eps)
    if delta_schedule is None:
        delta_schedule = default_delta_schedule(eps, eps / 64.0)
    base = orbit_reach(sys, x, grid, max_steps=max_steps)
    if not base.converged:
        raise InconclusiveError("reach at the probe center did not converge")
    base_fat = fatten(base.cells, eps)
    violator = None
    for delta in delta_schedule:
        ok = True
        ys = _ball_samples(sys.domain, x, delta, n_samples).reshape(-1, sys.domain.ndim)
        # the samples' orbits run block by block as they are read
        for y, r in zip(ys, reaches(sys, ys, grid, max_steps)):
            if not r.converged:
                raise InconclusiveError(f"reach at probe point {y!r} did not converge")
            if mode == "usc":
                good = r.cells.issubset(base_fat)
            else:
                good = base.cells.issubset(fatten(r.cells, eps))
            if not good:
                ok = False
                violator = tuple(float(v) for v in y)
                break
        if ok:
            return ProbeReport(mode, eps, delta, None, list(delta_schedule))
    return ProbeReport(mode, eps, None, violator, list(delta_schedule))


# --------------------------------------------------------------------------
# safety
# --------------------------------------------------------------------------

@dataclass
class SafetyReport:
    plain_safe: bool
    eps_safe: bool
    eps: float
    guarantee_delta: float | None
    robustness_verdict: str | None
    notes: list

    def as_record(self) -> dict:
        return {
            "plain_safe": self.plain_safe,
            "eps_safe": self.eps_safe,
            "eps": self.eps,
            "guarantee_delta": self.guarantee_delta,
            "robustness_verdict": self.robustness_verdict,
            "notes": list(self.notes),
        }


def safety_check(
    sys: System,
    x,
    safe_set: CellSet,
    eps: float,
    delta_schedule=None,
    max_steps: int = 200_000,
) -> SafetyReport:
    """Check sampled-reach safety, eps-safety, and the perturbed-safety bonus.

    When the eps-fattened reach stays inside the safe set and a robustness
    certificate exists at the same eps, every delta-perturbed trajectory is
    safe for the certified delta.
    """
    grid = safe_set.grid
    orbit = orbit_reach(sys, x, grid, max_steps=max_steps)
    if not orbit.converged:
        raise InconclusiveError("sampled reach did not converge")
    plain = orbit.cells.issubset(safe_set)
    eps_safe = fatten(orbit.cells, eps).issubset(safe_set)
    notes = []
    guarantee = None
    verdict = None
    if eps_safe:
        try:
            cert = robustness_check(sys, x, eps, delta_schedule, grid,
                                    max_steps=max_steps)
            verdict = cert.verdict
            if cert.verdict == "robust-at-resolution":
                guarantee = cert.delta_found
                notes.append(
                    f"delta-perturbed system safe for delta={cert.delta_found:g}"
                )
            else:
                notes.append("eps-safe but not robust at resolution: no "
                             "perturbed-safety guarantee")
        except InconclusiveError as exc:
            notes.append(f"robustness check inconclusive: {exc}")
    return SafetyReport(plain, eps_safe, eps, guarantee, verdict, notes)
