"""The batched orbit engine against per-step oracles.

The oracles are the plain one-point-per-step forms of the same computations:
a single trajectory with a hash-grid memory of visited points, a
breadth-first control tree, the omega-limit tail loop, the period search of
``classify_component`` and the per-probe ``weak_basin`` loop.  Engine and
oracles must agree exactly: cells, point bytes, step counts, flags and the
step at which an orbit leaves the domain.
"""
import warnings
from contextlib import contextmanager
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import orbits
from chainscope.errors import DomainError, InconclusiveError
from chainscope.geometry import CellSet, Domain, Grid, fatten
from chainscope.minimal import (
    classify_component,
    is_graph_invariant,
    omega_limit,
    weak_basin,
)
from chainscope.orbits import reach_lanes, reaches
from chainscope.reachability import (
    orbit_reach,
    replay_certificate,
    robustness_check,
)
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

BOX = Domain.box([[0.0, 1.0]])
CIRCLE = Domain.circle()
SQUARE = Domain.box([[0, 1], [0, 1]])
GOLDEN = 0.6180339887498949
AFFINE = ([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15])


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

class PointMemory:
    """Tolerance-radius membership test over visited points (hash grid)."""

    def __init__(self, domain, tol):
        self.domain = domain
        self.tol = tol
        self.buckets = {}
        circle = domain.kind == "circle" and tol > 0
        self.wrap_mod = int(round(1.0 / tol)) if circle else None

    def _key(self, p):
        k = np.floor(p / self.tol).astype(np.int64)
        if self.wrap_mod is not None:
            k %= self.wrap_mod
        return tuple(int(v) for v in k)

    def seen(self, p):
        if self.tol <= 0:
            return False
        base = self._key(p)
        d = p.shape[0]
        for delta in product(*[(-1, 0, 1)] * d):
            key = tuple(
                (base[i] + delta[i]) % self.wrap_mod
                if self.wrap_mod is not None else base[i] + delta[i]
                for i in range(d)
            )
            for q in self.buckets.get(key, ()):
                if self.domain.distance(p, q) <= self.tol:
                    return True
        return False

    def add(self, p):
        if self.tol <= 0:
            return
        self.buckets.setdefault(self._key(p), []).append(p.copy())


def orbit_single(sys, p0, grid, seq, max_steps, tol, stall, target=None):
    """(cells, steps used, converged, points, stop reason); given the flat
    cell mask ``target``, the orbit stops at its first kept cell in it."""
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[grid.cell_of(p0)] = True
    if target is not None and target[grid.cell_of(p0)]:
        return mask, 0, True, p0[None, :].copy(), orbits.HIT
    memory = PointMemory(sys.domain, tol)
    memory.add(p0)
    points = [p0.copy()]
    pt = p0
    converged = False
    steps_used = 0
    last_new = 0
    n_steps = len(seq) if seq is not None else max_steps
    for step in range(1, min(n_steps, max_steps) + 1):
        u = seq[step - 1] if seq is not None else sys.controls[0]
        y = sys.image_points(pt[None, :], u)[0]
        if memory.seen(y):
            converged, steps_used, reason = True, step, orbits.REVISIT
            break
        memory.add(y)
        points.append(y.copy())
        c = grid.cell_of(y)
        if not mask[c]:
            mask[c] = True
            last_new = step
            if target is not None and target[c]:
                converged, steps_used, reason = True, step, orbits.HIT
                break
        elif step - last_new >= stall:
            converged, steps_used, reason = True, last_new, orbits.STALL
            break
        pt = y
    else:
        steps_used = min(n_steps, max_steps)
        converged = seq is not None and n_steps <= max_steps
        reason = orbits.BUDGET
    return mask, steps_used, converged, np.array(points), reason


def orbit_tree(sys, p0, grid, max_sweeps, target=None):
    """(cells, sweeps, converged, points, stop reason); given the flat cell
    mask ``target``, the tree stops after the sweep that keeps a cell in it."""
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[grid.cell_of(p0)] = True
    frontier = [p0.copy()]
    points = [p0.copy()]
    sweeps = 0
    if target is not None and target[grid.cell_of(p0)]:
        return mask, sweeps, True, np.array(points), orbits.HIT
    converged, reason = False, orbits.BUDGET
    while frontier:
        if sweeps >= max_sweeps:
            break
        sweeps += 1
        nxt = []
        for pt in frontier:
            for u in sys.controls:
                y = sys.image_points(pt[None, :], u)[0]
                c = grid.cell_of(y)
                if not mask[c]:
                    mask[c] = True
                    nxt.append(y)
                    points.append(y.copy())
        frontier = nxt
        if target is not None and any(target[grid.cell_of(y)] for y in nxt):
            converged, reason = True, orbits.HIT
            break
    else:
        converged, reason = True, orbits.STALL
    return mask, sweeps, converged, np.array(points), reason


def oracle_reach(sys, x, grid, policy="all", max_steps=200_000, tol=1e-12,
                 stall=None, target=None):
    p0 = sys.domain.canon(x)
    if stall is None:
        stall = min(max(8 * max(grid.cells_per_dim), 256), 50_000)
    if sys.multivalued and isinstance(policy, str):
        return orbit_tree(sys, p0, grid, max_steps, target)
    seq = None if isinstance(policy, str) else [sys._resolve_control(u) for u in policy]
    return orbit_single(sys, p0, grid, seq, max_steps, tol, stall, target)


def oracle_omega(sys, x, grid, burn_in=10_000, window=2048, max_steps=300_000,
                 control=None):
    u = control if control is not None else sys.controls[0]
    pt = sys.domain.canon(x)
    for _ in range(burn_in):
        pt = sys.image_points(pt[None, :], u)[0]
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[grid.cell_of(pt)] = True
    last_new = 0
    stabilized = False
    step = 0
    for step in range(1, max_steps + 1):
        pt = sys.image_points(pt[None, :], u)[0]
        c = grid.cell_of(pt)
        if not mask[c]:
            mask[c] = True
            last_new = step
        elif step - last_new >= window:
            stabilized = True
            break
    return mask, stabilized, burn_in + step


def oracle_period(sys, comp, q_max=64, burn_in=512):
    """The period search of classify_component: (q, representative) or None."""
    grid, dom, u = comp.grid, sys.domain, sys.controls[0]
    tol = 2.0 * grid.cell_diameter
    idx = comp.indices()
    candidates = [grid.cell_center(int(idx[i])) for i in (0, -1, idx.size // 2)]
    settle = candidates[2].copy()
    for _ in range(burn_in):
        settle = sys.image_points(settle[None, :], u)[0]
    if fatten(comp, 4.0 * grid.cell_diameter).mask.reshape(-1)[grid.cell_of(settle)]:
        candidates.append(settle)
    best = None
    for cand in candidates:
        pt = cand.copy()
        for q in range(1, q_max + 1):
            pt = sys.image_points(pt[None, :], u)[0]
            if dom.distance(pt, cand) <= tol:
                if best is None or q < best[0]:
                    best = (q, cand)
                break
    return best, candidates[0]


def probe_points(grid, cell):
    box = grid.cell_box(cell)
    dom = grid.domain
    pts = [grid.cell_center(cell)]
    if dom.ndim == 1:
        corners = [np.array([box[0, 0]]), np.array([box[0, 1]])]
    else:
        corners = [np.array([box[0, a], box[1, b]]) for a in (0, 1) for b in (0, 1)]
    for c in corners:
        pts.append(dom.canon(np.clip(c, dom.bounds[:, 0], dom.bounds[:, 1])))
    return pts


def oracle_basin(sys, a_set, levels, orbit_max_steps=100_000):
    results = []
    for k in range(levels):
        grid_k = a_set.grid.refine(2 ** k)
        a_k = a_set.refine(2 ** k)
        t_mask = fatten(a_k, 4.0 * grid_k.cell_diameter).mask.reshape(-1)
        mask = np.zeros(grid_k.n_cells, dtype=bool)
        cache = {}

        def hits(p):
            key = tuple(np.round(p, 12))
            if key not in cache:
                m = oracle_reach(sys, p, grid_k, max_steps=orbit_max_steps)[0]
                cache[key] = bool(np.any(t_mask[m]))
            return cache[key]

        for c in range(grid_k.n_cells):
            mask[c] = all(hits(p) for p in probe_points(grid_k, c))
        results.append(CellSet(grid_k, mask.reshape(grid_k.shape)))
    finest = results[-1]
    for k, r in enumerate(results[:-1]):
        finest = finest & r.refine(2 ** (levels - 1 - k))
    return finest


def assert_same(res, want):
    mask, steps, converged, points = want[:4]
    assert np.array_equal(res.cells.mask.reshape(-1), mask)
    assert res.points.shape == points.shape
    assert res.points.tobytes() == points.tobytes()
    assert (res.steps_used, res.converged) == (steps, converged)


def two_control():
    """A 2-D map with two controls."""

    def f(pts, u):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([0.2 * x + 0.1 * y + u, 0.1 * x + 0.3 * y + 0.2], axis=1)

    return System("two-control", Domain.box([[-1.0, 1.0], [0.0, 0.5]]), {},
                  (-0.6, 0.6), 0.35, f)


def scaled(k: float):
    """x -> k x on [0, 1]: leaves the domain from every start but 0."""
    return System("scaled", BOX, {"k": k}, (None,), k, lambda pts, u: k * pts)


# --------------------------------------------------------------------------
# single orbits and trees against the oracles
# --------------------------------------------------------------------------

CASES = [
    (square, [0.5, 0.99, 1.0, 0.0, 0.3], Grid(BOX, 100), {}),
    (square, [0.7], Grid(BOX, 1024), {}),
    (lambda: logistic(3.7), [0.2], Grid(BOX, 128), {"max_steps": 3000}),
    (lambda: logistic(2.8), [0.3, 0.9], Grid(BOX, 256), {}),
    (lambda: logistic(4.0), [0.3], Grid(BOX, 64), {"max_steps": 2000}),
    (lambda: constant(0.3), [0.77, 0.3], Grid(BOX, 64), {}),
    (identity_map, [0.5, 1.0], Grid(BOX, 64), {}),
    (lambda: rotation(1.0 / 3.0), [0.0, 0.1], Grid(CIRCLE, 30), {}),
    (lambda: rotation(GOLDEN), [0.1], Grid(CIRCLE, 64), {}),
    (lambda: rotation(GOLDEN), [0.1], Grid(CIRCLE, 512), {}),
    (lambda: rotation(GOLDEN), [0.25], Grid(CIRCLE, 64), {"tol": 0.02}),
    # step 10 is 0.9999999999999999: a revisit of 0.0 across the wrap
    (lambda: rotation(0.1), [0.0], Grid(CIRCLE, 40), {}),
    # distances exactly equal to tol
    (lambda: rotation(0.25), [0.0], Grid(CIRCLE, 8), {"tol": 0.25}),
    (lambda: constant(0.5), [0.25], Grid(BOX, 8), {"tol": 0.25}),
    (lambda: drift_control(0.5), [0.9, -1.0], Grid(Domain.box([[-1, 1]]), 64), {}),
    (lambda: drift_control(0.5), [0.9], Grid(Domain.box([[-1, 1]]), 256),
     {"max_steps": 3}),
    (lambda: drift_control(0.5), [0.4], Grid(Domain.box([[-1, 1]]), 64),
     {"policy": [0.1, -0.1, 0.0] * 40}),
    (lambda: drift_control(0.5), [0.4], Grid(Domain.box([[-1, 1]]), 64),
     {"policy": [0.1, 0.0] * 10, "max_steps": 7}),
    (lambda: affine2d(*AFFINE), [[0.9, 0.1], [0.0, 0.0]], Grid(SQUARE, (16, 16)), {}),
    (lambda: affine2d(*AFFINE), [[0.3, 0.7]], Grid(SQUARE, (23, 17)), {}),
    # period 4 in 2-D, and a map that fixes the first coordinate
    (lambda: affine2d([[0, -1], [1, 0]], [1, 0]), [[0.2, 0.7]], Grid(SQUARE, (16, 16)), {}),
    (lambda: affine2d([[1, 0], [0, 0.5]], [0, 0.25]), [[0.3, 0.9]], Grid(SQUARE, (16, 16)), {}),
    (two_control, [[0.5, 0.25]], Grid(Domain.box([[-1, 1], [0, 0.5]]), (32, 16)), {}),
]


@pytest.mark.parametrize("make,starts,grid,kw", CASES)
def test_orbit_reach_matches_oracle(make, starts, grid, kw):
    sys = make()
    for x in starts:
        assert_same(orbit_reach(sys, x, grid, **kw), oracle_reach(sys, x, grid, **kw))


@pytest.mark.parametrize("make,x,grid", [
    (square, 0.9, Grid(BOX, 100)),
    (lambda: logistic(3.7), 0.2, Grid(BOX, 64)),
    (lambda: rotation(GOLDEN), 0.1, Grid(CIRCLE, 64)),
    (lambda: rotation(1.0 / 3.0), 0.1, Grid(CIRCLE, 30)),
])
def test_small_stall_and_budget_match_oracle(make, x, grid):
    sys = make()
    for stall, max_steps, tol in product((0, 1, 2, 3, 40), (0, 1, 2, 3, 7, 500),
                                         (1e-12, 0.0)):
        kw = {"stall": stall, "max_steps": max_steps, "tol": tol}
        assert_same(orbit_reach(sys, x, grid, **kw), oracle_reach(sys, x, grid, **kw))


SYSTEMS = {
    "square": (square, Grid(BOX, 64)),
    "logistic": (lambda: logistic(3.7), Grid(BOX, 64)),
    "identity": (identity_map, Grid(BOX, 32)),
    "constant": (lambda: constant(0.3), Grid(BOX, 32)),
    "golden": (lambda: rotation(GOLDEN), Grid(CIRCLE, 48)),
    "third": (lambda: rotation(1.0 / 3.0), Grid(CIRCLE, 30)),
    "affine": (lambda: affine2d(*AFFINE), Grid(SQUARE, (12, 10))),
    "drift": (lambda: drift_control(0.5), Grid(Domain.box([[-1, 1]]), 64)),
    "two-control": (two_control, Grid(Domain.box([[-1, 1], [0, 0.5]]), (16, 8))),
}


# (_FIRST_BLOCK, _BLOCK_POINTS, _CHUNK_LANE_STEPS): tiny blocks and chunks,
# so that lanes cross block and chunk boundaries and blocks shed lanes when
# their orbits are long, odd sizes, and the engine's own
BLOCK_SIZES = [(8, 40, 24), (1, 10, 8), (3, 100, 7), (16, 1000, 100),
               (orbits._FIRST_BLOCK, orbits._BLOCK_POINTS, orbits._CHUNK_LANE_STEPS)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    unit=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30),
    stall=st.sampled_from([None, 0, 1, 3, 40]),
    max_steps=st.sampled_from([0, 1, 5, 60, 5000]),
    tol=st.sampled_from([1e-12, 0.0, 1e-3]),
    sizes=st.sampled_from(BLOCK_SIZES),
)
def test_each_lane_equals_its_single_run(name, unit, stall, max_steps, tol, sizes):
    """Lane independence: an orbit's ReachResult (point bytes, cells,
    steps_used, converged) is the same alone as next to other lanes in one
    ``reaches`` call, at any position and for any block and chunk sizes.
    The census's mid orbits and the dichotomy samples' robustness orbits
    share one engine call on this."""
    each_lane_equals_its_single_run(name, unit, stall, max_steps, tol, sizes)


def each_lane_equals_its_single_run(name, unit, stall, max_steps, tol, sizes):
    """The body of the test above; returns the lanes its blocks shed."""
    make, grid = SYSTEMS[name]
    sys = make()
    lo, hi = sys.domain.bounds[:, 0], sys.domain.bounds[:, 1]
    starts = np.array([sys.domain.canon(lo + np.array(u[:sys.domain.ndim]) * (hi - lo))
                       for u in unit])
    with counting_sheds() as shed, mock.patch.multiple(orbits, **dict(zip(
            ("_FIRST_BLOCK", "_BLOCK_POINTS", "_CHUNK_LANE_STEPS"), sizes))):
        batch = list(reaches(sys, starts, grid, max_steps, tol, stall))
    for x, res in zip(starts, batch, strict=True):
        kw = {"max_steps": max_steps, "tol": tol, "stall": stall}
        single = orbit_reach(sys, x, grid, **kw)
        assert_same(res, (single.cells.mask.reshape(-1), single.steps_used,
                          single.converged, single.points))
        assert_same(single, oracle_reach(sys, x, grid, **kw))
    return shed[0]


@contextmanager
def counting_sheds():
    """Patch ``_Lanes.shed`` to count the lanes that blocks shed."""
    shed, real = [0], orbits._Lanes.shed

    def counted(self, *args):
        n = self.n_lanes
        cut = real(self, *args)
        shed[0] += n - self.n_lanes
        return cut

    with mock.patch.object(orbits._Lanes, "shed", counted):
        yield shed


def test_tree_blocks_shed_and_each_lane_equals_its_single_run():
    """At a budget of 40 kept points, two-control's control trees (up to 128
    cells each) make ``_tree_block`` shed lanes; every lane still equals its
    single run."""
    unit = [(i / 11, (7 * i % 11) / 11) for i in range(12)]
    assert each_lane_equals_its_single_run("two-control", unit, None, 5000, 1e-12,
                                           (8, 40, 24)) > 0


def test_blocks_run_lazily_take_what_fits_and_shed_long_orbits():
    starts = np.linspace(0.05, 0.95, 40)[:, None]
    blocks = reach_lanes(square(), starts, Grid(BOX, 64), 1000)
    assert next(blocks).n_lanes == 8
    assert [(blk.b0, blk.n_lanes) for blk in blocks] == [(8, 32)]   # all that is left
    # fewer starts than the first block share one block
    assert [blk.n_lanes for blk in reach_lanes(square(), starts[:3], Grid(BOX, 64), 1000)] == [3]
    # golden-rotation orbits at 512 cells keep about 5000 points each: the
    # first block sheds to what fits, and so does every later one
    with mock.patch.object(orbits, "_BLOCK_POINTS", 10_000):
        blocks = list(reach_lanes(rotation(GOLDEN), starts[:16], Grid(CIRCLE, 512), 100_000))
    sizes = [blk.n_lanes for blk in blocks]
    assert max(sizes) <= 2 and sum(sizes) == 16
    assert all(kept_points(blk) <= 10_000 for blk in blocks if blk.n_lanes > 1)


def kept_points(lanes) -> int:
    return sum(len(a) for a, _ in lanes.kept)


def logistic_or_scaled():
    """x -> 3.7 x (1 - x) on [0, 1] and x -> 1.5 x above 1, on [0, 2]: orbits
    from [0, 1] stay in it, those from above 1 leave the domain."""
    return System("logistic-or-scaled", Domain.box([[0.0, 2.0]]), {}, (None,), 3.7,
                  lambda pts, u: np.where(pts <= 1, 3.7 * pts * (1 - pts), 1.5 * pts))


def test_blocks_keep_at_most_the_point_budget():
    """The first block's lanes hit the target at step 0, so the next block
    takes every other start, and their orbits run long: the block sheds lanes
    until it fits the budget, and a lane that left the domain before it was
    shed raises the oracle's DomainError from its rerun."""
    sys, grid = logistic_or_scaled(), Grid(Domain.box([[0.0, 2.0]]), 128)
    starts = np.r_[np.linspace(0.001, 0.04, orbits._FIRST_BLOCK),
                   np.linspace(0.3, 0.9, 24), 1.2][:, None]
    target = np.zeros(grid.n_cells, bool)
    target[:4] = True   # [0, 0.0625): the logistic attractor lies above 0.25
    kw = {"max_steps": 600, "tol": 1e-12, "target": target}
    with counting_sheds() as shed, mock.patch.object(orbits, "_BLOCK_POINTS", 1500):
        blocks = list(reach_lanes(sys, starts, grid, **kw))
    assert shed[0] > 0 and sum(blk.n_lanes for blk in blocks) == len(starts)
    for blk in blocks:
        assert kept_points(blk) <= 1500 + max(orbits._CHUNK_LANE_STEPS, blk.n_lanes)
        assert all(b < blk.n_lanes for b in blk.outside)
        for b in range(blk.n_lanes):
            want = oracle_outcome(sys, starts[blk.b0 + b], grid, **kw)
            if isinstance(want, str):
                with pytest.raises(DomainError) as got:
                    blk.reach(b)
                assert str(got.value) == want
            else:
                assert_same(blk.reach(b), want)
                assert blk.reason[b] == want[4]
    assert blocks[-1].reason[-1] == orbits.OUTSIDE


def counting(sys):
    """``sys`` with a counter of its map calls (image_points calls)."""
    calls = [0]

    def f(pts, u):
        calls[0] += 1
        return sys.map_fn(pts, u)

    return System(sys.name, sys.domain, sys.params, sys.controls, sys.lipschitz, f), calls


def test_stall_stopped_orbit_runs_no_step_past_its_stop():
    """At 1024 cells the golden orbit from 0.1 finds its last new cell at
    step 1590 and stall-stops 8192 steps later; doubling chunks alone would
    run on to step 16,376 (8 + 16 + ... + 8192)."""
    sys, calls = counting(rotation(GOLDEN))
    grid = Grid(CIRCLE, 1024)
    res = orbit_reach(sys, 0.1, grid)
    assert (res.steps_used, res.converged, len(res.cells)) == (1590, True, 1024)
    assert calls[0] == 1590 + 8192 == 9782
    assert_same(res, oracle_reach(rotation(GOLDEN), 0.1, grid))


# the self-maps of SYSTEMS, and a map whose orbits leave the domain
LANE_SYSTEMS = {**SYSTEMS, "leaving": (lambda: scaled(1.5), Grid(BOX, 64))}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(LANE_SYSTEMS)),
    unit=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=24),
    stall=st.sampled_from([0, 1, 5, 40, 200]),
    max_steps=st.sampled_from([0, 3, 60, 5000]),
    tol=st.sampled_from([1e-12, 0.0]),
    density=st.sampled_from([None, 0.0, 0.05, 0.3]),
    seed=st.integers(0, 2 ** 16),
)
def test_lanes_with_staggered_stops_equal_the_oracle(name, unit, stall, max_steps,
                                                     tol, density, seed):
    """Many lanes per block, each stopping at its own step (so chunks end at
    the block's earliest possible stall), with and without a target: every
    lane equals the per-step oracle, its stop reason included."""
    make, grid = LANE_SYSTEMS[name]
    sys = make()
    lo, hi = sys.domain.bounds[:, 0], sys.domain.bounds[:, 1]
    starts = np.array([sys.domain.canon(lo + np.array(u[:sys.domain.ndim]) * (hi - lo))
                       for u in unit])
    target = (None if density is None
              else np.random.default_rng(seed).random(grid.n_cells) < density)
    kw = {"max_steps": max_steps, "tol": tol, "stall": stall, "target": target}
    with mock.patch.object(orbits, "_BLOCK_POINTS", 64), \
            mock.patch.object(orbits, "_CHUNK_LANE_STEPS", 64), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        lanes = [(blk, b) for blk in reach_lanes(sys, starts, grid, **kw)
                 for b in range(blk.n_lanes)]
    for (blk, b), x in zip(lanes, starts, strict=True):
        want = oracle_outcome(sys, x, grid, **kw)
        if isinstance(want, str):
            assert blk.reason[b] == orbits.OUTSIDE
            with pytest.raises(DomainError) as got:
                blk.reach(b)
            assert str(got.value) == want
        else:
            assert_same(blk.reach(b), want)
            assert blk.reason[b] == want[4]


def oracle_outcome(sys, x, grid, **kw):
    """The oracle's result, or the message of the DomainError it raises (its
    hash grid warns on points far outside the domain; the engine must not)."""
    try:
        with np.errstate(all="ignore"):
            return oracle_reach(sys, x, grid, **kw)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [4.0, 1e200])
def test_orbit_leaving_the_domain_raises_at_the_oracle_step(k):
    """x -> k x on [0, 1]: the DomainError names the oracle's point, and the
    steps computed past it (up to overflow for k = 1e200) warn nothing."""
    sys, grid = scaled(k), Grid(BOX, 64)
    starts = [0.3, 0.01, 0.0, 1e-5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lanes = [(blk, b) for blk in reach_lanes(sys, np.array(starts)[:, None], grid, 1000)
                 for b in range(blk.n_lanes)]
        for (blk, b), x in zip(lanes, starts, strict=True):
            want = oracle_outcome(sys, x, grid, max_steps=1000)
            for run in (lambda: orbit_reach(sys, x, grid, max_steps=1000),
                        lambda: blk.reach(b)):
                if isinstance(want, str):
                    with pytest.raises(DomainError) as got:
                        run()
                    assert str(got.value) == want
                else:
                    assert_same(run(), want)
    assert isinstance(oracle_outcome(sys, 0.3, grid), str)


def test_tree_leaving_the_domain_raises_like_the_oracle():
    def f(pts, u):
        return pts + u

    sys = System("push", BOX, {}, (0.0, 0.3), 1.0, f)
    grid = Grid(BOX, 32)
    with pytest.raises(DomainError) as want:
        oracle_reach(sys, 0.5, grid)
    with pytest.raises(DomainError) as got:
        orbit_reach(sys, 0.5, grid)
    assert str(got.value) == str(want.value)


# --------------------------------------------------------------------------
# omega limits, period search and basins against the oracles
# --------------------------------------------------------------------------

@pytest.mark.parametrize("make,x,grid,kw", [
    (lambda: logistic(2.8), 0.3, Grid(BOX, 512), {}),
    (lambda: logistic(3.7), 0.3, Grid(BOX, 64), {"window": 50, "max_steps": 4000}),
    (lambda: rotation(1.0 / 3.0), 0.0, Grid(CIRCLE, 12), {}),
    (lambda: rotation(GOLDEN), 0.1, Grid(CIRCLE, 64), {"window": 100, "burn_in": 7}),
    (lambda: rotation(GOLDEN), 0.1, Grid(CIRCLE, 64), {"window": 100, "max_steps": 90}),
    (lambda: constant(0.3), 0.77, Grid(BOX, 64), {"max_steps": 0}),
    (lambda: drift_control(0.5), 0.3, Grid(Domain.box([[-1, 1]]), 64), {"control": 0.1}),
    (lambda: affine2d(*AFFINE), [0.9, 0.1], Grid(SQUARE, (16, 16)),
     {"window": 3, "burn_in": 0}),
    # a falsy pinned control is pinned too, not the first control (-0.1)
    (lambda: drift_control(0.5), 0.3, Grid(Domain.box([[-1, 1]]), 64), {"control": 0.0}),
])
def test_omega_limit_matches_oracle(make, x, grid, kw):
    sys = make()
    res = omega_limit(sys, x, grid, **kw)
    mask, stabilized, steps = oracle_omega(sys, x, grid, **kw)
    assert np.array_equal(res.cells.mask.reshape(-1), mask)
    assert (res.stabilized, res.steps) == (stabilized, steps)


@pytest.mark.parametrize("make,grid,points", [
    (square, Grid(BOX, 1024), [[0.0], [1.0], [0.5]]),
    (lambda: logistic(3.2), Grid(BOX, 512), [[0.513], [0.7995], [0.3]]),
    (lambda: rotation(1.0 / 3.0), Grid(CIRCLE, 90), [[0.1], [0.1, 0.4, 0.7]]),
    (lambda: rotation(0.5), Grid(CIRCLE, 1024), [[0.3]]),
    (lambda: rotation(GOLDEN), Grid(CIRCLE, 3 * 2 ** 10), [[0.2]]),
    (lambda: drift_control(0.5), Grid(Domain.box([[-1, 1]]), 512), [[-0.2]]),
    (lambda: affine2d(*AFFINE), Grid(SQUARE, (32, 32)),
     [[[0.45, 0.375]], [[0.1, 0.9], [0.8, 0.2]]]),
])
def test_classification_matches_oracle_period_search(make, grid, points):
    sys = make()
    for pts in points:
        pts = [p if isinstance(p, list) else [p] for p in pts]
        comp = CellSet.from_points(grid, pts)
        cls = classify_component(sys, comp)
        best, first = oracle_period(sys, comp)
        if best is None:
            assert (cls.kind, cls.period) == ("other", None)
            assert cls.representative == tuple(float(v) for v in first)
        else:
            q, rep = best
            assert cls.kind == ("fixed-point" if q == 1 else "periodic")
            assert cls.period == (q if q > 1 else None)
            assert cls.representative == tuple(float(v) for v in rep)


@pytest.mark.parametrize("make,grid,point,levels", [
    (square, Grid(BOX, 64), [0.0], 2),
    (identity_map, Grid(BOX, 64), [0.5], 2),
    (lambda: constant(0.3), Grid(BOX, 32), [0.3], 2),
    (lambda: logistic(2.8), Grid(BOX, 64), [0.643], 2),
    (lambda: rotation(1.0 / 3.0), Grid(CIRCLE, 48), [0.1], 1),
    (lambda: drift_control(0.5), Grid(Domain.box([[-1, 1]]), 32), [0.0], 2),
    (lambda: affine2d(*AFFINE), Grid(SQUARE, (12, 12)), [0.45, 0.375], 1),
])
def test_weak_basin_matches_oracle(make, grid, point, levels):
    sys = make()
    a = fatten(CellSet.from_points(grid, [point]), 2.0 * grid.cell_diameter)
    inv = 0.5
    assert is_graph_invariant(sys, a, inv)
    assert weak_basin(sys, a, levels=levels, invariance_eps=inv) == oracle_basin(sys, a, levels)


@pytest.mark.parametrize("grid,cell", [
    (Grid(BOX, 100), 12), (Grid(Domain.box([[0.0, 0.7]]), 30), 8),
])
def test_weak_basin_keeps_the_first_of_nearly_equal_probes(grid, cell):
    """A corner shared by two cells is computed from each of them, and the
    two values may differ in the last bit and lie in different cells; the
    orbit of the first in cell order stands for both, as in the oracle."""
    a = CellSet.from_indices(grid, [cell])
    assert weak_basin(identity_map(), a, levels=1) == oracle_basin(identity_map(), a, 1)


def test_weak_basin_shares_the_orbit_of_the_first_probe_read():
    """Cells c and c + 1 compute their shared corner as v1 and v2, which
    round alike but differ in the last bit.  Under x -> x / 2 with v2 fixed,
    only the orbit of v1 comes near {0}; the loop read v1 first, in cell c,
    and reused its orbit for cell c + 1."""
    grid = Grid(BOX, 100)
    c = next(c for c in range(10, 99)
             if probe_points(grid, c)[2][0] != probe_points(grid, c + 1)[1][0])
    v2 = probe_points(grid, c + 1)[1][0]
    sys = System("halving", BOX, {}, (None,), 1.0,
                 lambda pts, u: np.where(pts == v2, pts, pts / 2))
    a = CellSet.from_indices(grid, [0])
    basin = weak_basin(sys, a, levels=1)
    assert basin == oracle_basin(sys, a, 1)
    assert c + 1 in basin


def test_weak_basin_raises_where_the_oracle_reads_a_leaving_orbit():
    """Probes halve below 0.25, stay put up to 0.5 and leave above.  The
    corner 0.5 of cell 31 leaves first in cell order, but that cell's center
    already missed, so the oracle never reads it: it raises at cell 32."""

    def f(pts, u):
        return np.where(pts < 0.25, pts / 2, np.where(pts < 0.5, pts, 2.5 * pts))

    sys = System("three-part", BOX, {}, (None,), 2.5, f)
    a = CellSet.from_indices(Grid(BOX, 64), [0])
    with pytest.raises(DomainError) as want:
        oracle_basin(sys, a, 1)
    with pytest.raises(DomainError) as got:
        weak_basin(sys, a, levels=1)
    assert str(got.value) == str(want.value) == "point array([1.26953125]) outside domain"


def test_weak_basin_counts_an_orbit_that_hits_and_then_leaves():
    """Below 0.03 probes halve, from 0.03 to 0.07 they jump out of [0, 1], and
    above that they halve: every orbit enters the target (cells 0..5 around
    cell 0) and then leaves.  An orbit stops at its first cell in the target,
    so every cell is in the basin, where the oracle, which follows each
    orbit to its end, raises at the first point outside."""

    def f(pts, u):
        return np.where((pts >= 0.03) & (pts < 0.07), 2.0, pts / 2)

    sys = System("hit-then-leave", BOX, {}, (None,), 1.0, f)
    grid = Grid(BOX, 64)
    a = CellSet.from_indices(grid, [0])
    assert np.array_equal(fatten(a, 4.0 * grid.cell_diameter).indices(), np.arange(6))
    with pytest.raises(DomainError, match="outside domain"):
        oracle_basin(sys, a, 1)
    assert weak_basin(sys, a, levels=1) == CellSet.full(grid)


# --------------------------------------------------------------------------
# certificates replay (ROADMAP 2(d))
# --------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["square", "identity", "logistic"]),
    x=st.floats(0, 1),
    cells=st.sampled_from([256, 1024]),
)
def test_every_certificate_replays(name, x, cells):
    sys = {"square": square, "identity": identity_map,
           "logistic": lambda: logistic(3.2)}[name]()
    grid = Grid(BOX, cells)
    try:
        cert = robustness_check(sys, x, 0.1, grid=grid)
    except InconclusiveError:
        return   # no certificate to replay
    assert replay_certificate(sys, cert, x, grid), cert.verdict


# --------------------------------------------------------------------------
# the revisit check against all pairs
# --------------------------------------------------------------------------

def brute_revisits(dom, tol, start, chunks, n_lanes):
    """Per chunk (lane, step, pts, alive), the least step per lane whose
    point lies within tol of an earlier one of its lane, over every pair;
    afterwards the chunk's points of the lanes flagged alive are held."""
    held = list(zip(*start))
    out = []
    for lane, step, pts, alive in chunks:
        best = np.full(n_lanes, orbits._NEVER)
        with np.errstate(all="ignore"):
            for i in range(lane.size):
                earlier = [p for b, p in held if b == lane[i]] + [
                    pts[j] for j in range(lane.size)
                    if lane[j] == lane[i] and step[j] < step[i]]
                if tol > 0 and any(dom.distances(pts[i], p) <= tol for p in earlier):
                    best[lane[i]] = min(best[lane[i]], step[i])
        out.append(best)
        held += [(b, p) for b, p in zip(lane, pts) if alive[b]]
    return out


def engine_revisits(dom, tol, start, chunks, n_lanes):
    held = orbits._Visited(dom, tol)
    held.first_revisit(start[0], np.zeros_like(start[0]), start[1], n_lanes)
    held.keep(np.ones(n_lanes, bool))
    out = []
    with np.errstate(all="ignore"):
        for lane, step, pts, alive in chunks:
            out.append(held.first_revisit(lane, step, pts, n_lanes))
            held.keep(alive)
    return out


def chunked(lanes, values, n_lanes, seed, d=1):
    """Chunks of ``values`` over ``lanes``: each lane's points in step
    order, steps counting on across chunks, a random subset of lanes alive
    after each chunk."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values, float).reshape(len(values), d)
    lanes = np.asarray(lanes)
    chunks, t = [], 0
    for part in np.array_split(np.arange(len(values)), max(1, len(values) // 7)):
        lane = lanes[part]
        step = np.array([t + 1 + np.count_nonzero(lane[:k] == lane[k]) for k in range(lane.size)])
        alive = rng.random(n_lanes) < 0.8
        chunks.append((lane, step, values[part], alive))
        t = int(step.max(initial=t))
    start = (np.arange(n_lanes), np.repeat(0.5 * (np.arange(n_lanes) % 2), d).reshape(-1, d))
    return start, chunks


DOMS = {"box": Domain.box([[0, 1]]), "circle": CIRCLE, "wide": Domain.box([[-1e6, 1e6]]),
        "square": SQUARE}


def _values(draw, dom, tol, count):
    """Points near a few anchors, at offsets of tol and of one ulp, so that
    pairs fall at, just inside and just outside tol, across bucket edges."""
    lo, hi = dom.bounds[0]
    edges = [lo + k / orbits._Visited(dom, tol).scale for k in (1, 2, 12345)]
    anchors = [lo, hi, 0.0, 0.5 * (lo + hi), lo + 0.3 * (hi - lo), 1.0 - 2 ** -53,
               *edges, *(np.nextafter(e, -np.inf) for e in edges)]
    steps = [0.0, tol, -tol, 2 * tol, tol * (1 + 2 ** -52), 5e-324, -5e-324, 1e-13]
    out = []
    for _ in range(count):
        v = [draw(st.sampled_from(anchors)) + draw(st.sampled_from(steps))
             for _ in range(dom.ndim)]
        if draw(st.integers(0, 9)) == 0:
            v[0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        for _ in range(draw(st.integers(0, 3))):   # a few ulps away
            v[0] = np.nextafter(v[0], np.inf)
        v = np.array(v)
        out.append(dom.wrap(v) if dom.kind == "circle" and np.isfinite(v).all() else v)
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(DOMS)),
       tol=st.sampled_from([1e-12, 0.0, 0.25, 1e-3, 2.0, 1e-300, 3.0e6]),
       n_lanes=st.sampled_from([1, 3, 300]), seed=st.integers(0, 99))
def test_revisit_check_matches_all_pairs(data, name, tol, n_lanes, seed):
    """The revisit check over a sequence of chunks equals the check of every
    pair: distances exactly equal to tol, pairs one ulp apart on either side
    of a bucket edge, the wrap on the circle, points that share their first
    coordinate, NaN and inf, tol 0, at least the domain's width and 1e-300,
    and box bounds of +-1e6."""
    dom = DOMS[name]
    count = data.draw(st.integers(1, 40))
    values = _values(data.draw, dom, tol, count)
    ends = sorted({0, 1, n_lanes - 2, n_lanes - 1} & set(range(n_lanes)))
    lanes = data.draw(st.lists(st.sampled_from(ends), min_size=count, max_size=count))
    start, chunks = chunked(lanes, values, n_lanes, seed, dom.ndim)
    got = engine_revisits(dom, tol, start, chunks, n_lanes)
    want = brute_revisits(dom, tol, start, chunks, n_lanes)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dom,pts,tol,want", [
    # exactly tol apart, and one ulp more
    (BOX, [0.25, 0.5], 0.25, 2), (BOX, [0.25, np.nextafter(0.5, 1)], 0.25, None),
    # across the circle's 0: 1 - 2^-53 and 0.0
    (CIRCLE, [0.0, 1.0 - 2 ** -53], 1e-12, 2), (CIRCLE, [1.0 - 2 ** -53, 0.0], 1e-12, 2),
    (CIRCLE, [0.5, 0.0, 1.0 - 2 ** -53], 1e-12, 3), (CIRCLE, [0.5, 1.0 - 2 ** -53, 0.0], 1e-12, 3),
    (CIRCLE, [0.75, 0.0], 0.25, 2), (CIRCLE, [0.2, 0.7000000000000001], 0.5, 2),
    # the same first coordinate, far apart, and close
    (SQUARE, [[0.5, 0.1], [0.5, 0.9]], 1e-12, None),
    (SQUARE, [[0.5, 0.1], [0.5, 0.1 + 1e-13]], 1e-12, 2),
    (SQUARE, [[0.9, 0.9], [0.5, 0.1], [0.5, 0.9], [0.5, 0.1]], 1e-12, 4),
    # never within tol: NaN and inf, also of themselves
    (BOX, [np.nan, np.nan], 1.0, None), (BOX, [np.inf, np.inf], 1e300, None),
    (BOX, [-np.inf, 0.5, -np.inf, 0.7], 1e300, 4),
    # tol 0 (or NaN) is off; a huge tol holds everything; 1e-300 holds equal points
    (BOX, [0.5, 0.5], 0.0, None), (BOX, [0.5, 0.5], np.nan, None), (BOX, [0.0, 1.0], 1.0, 2),
    (CIRCLE, [0.1, 0.6], np.inf, 2),
    (BOX, [0.5, np.nextafter(0.5, 1), 0.5], 1e-300, 3),
    # squares of gaps below 2^-511 underflow: the distance reads 0
    (BOX, [0.0, 1e-170], 1e-300, 2),
    (Domain.box([[-1e6, 1e6]]), [-1e6, 1e6, np.nextafter(-1e6, 0)], 1e-12, None),
    (Domain.box([[-1e6, 1e6]]), [-1e6, 1e6, np.nextafter(-1e6, 0)], 2.4e-10, 3),
])
def test_revisit_check_cases(dom, pts, tol, want):
    """One lane: its start, then the points at steps 1, 2, ... in one chunk
    and, again, one point per chunk."""
    pts = np.array(pts, float).reshape(len(pts), dom.ndim)
    want = orbits._NEVER if want is None else want - 1
    start = (np.array([0]), pts[:1])
    one = [(np.zeros(len(pts) - 1, int), np.arange(1, len(pts)), pts[1:], np.ones(1, bool))]
    apart = [(np.array([0]), np.array([s]), pts[s:s + 1], np.ones(1, bool))
             for s in range(1, len(pts))]
    for chunks in (one, apart):
        got = min(b[0] for b in engine_revisits(dom, tol, start, chunks, 1))
        assert got == want
        assert got == min(b[0] for b in brute_revisits(dom, tol, start, chunks, 1))


@pytest.mark.parametrize("start", [0.3, 0.7])
def test_a_parked_lane_costs_its_points(start):
    """A lane parked on one point for a whole 5,000-step chunk, beside two
    moving lanes: the check decides O(points) pairs, not O(points^2)."""
    n, dom = 5000, BOX
    lane = np.tile([0, 1, 2], n)
    step = np.repeat(np.arange(1, n + 1), 3)
    pts = np.stack([np.full(n, 0.3), np.linspace(0.0, 0.4, n),
                    (np.arange(n) * GOLDEN) % 1.0], axis=1).reshape(-1, 1)
    held = orbits._Visited(dom, 1e-12)
    held.first_revisit(np.arange(3), np.zeros(3, int), np.array([[start], [0.9], [0.95]]), 3)
    held.keep(np.ones(3, bool))
    decided = []
    real = held._decide

    def counted(best, lanes, at, p, r):
        decided.append(lanes.size)
        return real(best, lanes, at, p, r)

    held._decide = counted
    best = held.first_revisit(lane, step, pts, 3)
    assert best.tolist() == [1 if start == 0.3 else 2, orbits._NEVER, orbits._NEVER]
    assert sum(decided) <= 4 * pts.shape[0]


@pytest.mark.parametrize("dom,centre,sign", [(BOX, 0.5, 1.0), (CIRCLE, 0.0, -1.0)])
def test_a_slowly_converging_lane_costs_its_points(dom, centre, sign):
    """tol 1e-300 (as ``reach``'s ``tol`` key allows) leaves buckets of the
    domain's width over 2^40, far wider than tol.  A lane converging at rate
    0.999 has 6,000 distinct points, pairwise farther apart than tol; its
    last 1,556 lie within three buckets, in a chunk and among the
    held points of 12 chunks.  The check decides O(points) pairs, not
    O(points^2).  On the circle the lane alternates around 0, across the
    wrap."""
    n, per = 6000, 500
    off = 2.0 ** -32 * (sign * 0.999) ** np.arange(n + 1)
    x = dom.wrap(centre + off).reshape(-1, 1)
    assert np.unique(x).size == n + 1
    held = orbits._Visited(dom, 1e-300)
    held.first_revisit(np.array([0]), np.array([0]), x[:1], 1)
    held.keep(np.ones(1, bool))
    decided = []
    real = held._decide

    def counted(best, lanes, at, p, r):
        decided.append(lanes.size)
        return real(best, lanes, at, p, r)

    held._decide = counted
    for t in range(1, n + 1, per):
        steps = np.arange(t, t + per)
        best = held.first_revisit(np.zeros(per, int), steps, x[steps], 1)
        assert best[0] == orbits._NEVER
        held.keep(np.ones(1, bool))
    assert sum(decided) <= 2 * n


def test_revisit_check_after_a_chunk_with_no_lane_alive():
    """A chunk after which no lane is alive holds nothing; a later chunk
    (here asking lane 0 again) meets only the points held before it."""
    start = (np.array([0, 1]), np.array([[0.1], [0.2]]))
    chunks = [(np.array([0, 0]), np.array([1, 2]), np.array([[0.3], [0.4]]), np.zeros(2, bool)),
              (np.array([0, 1, 1]), np.array([3, 1, 2]), np.array([[0.3], [0.7], [0.2]]),
               np.ones(2, bool))]
    got = engine_revisits(BOX, 1e-12, start, chunks, 2)
    assert [g.tolist() for g in got] == [[orbits._NEVER] * 2, [orbits._NEVER, 2]]
    want = brute_revisits(BOX, 1e-12, start, chunks, 2)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
