"""The batched orbit engine against per-step oracles.

The oracles are the plain one-point-per-step forms of the same computations:
a single trajectory with a hash-grid memory of visited points, a
breadth-first control tree, the omega-limit tail loop, the period search of
``classify_component`` and the per-probe ``weak_basin`` loop.  Engine and
oracles must agree exactly: cells, point bytes, step counts, flags and the
step at which an orbit leaves the domain.
"""
import warnings
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


def orbit_single(sys, p0, grid, seq, max_steps, tol, stall):
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[grid.cell_of(p0)] = True
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
            converged = True
            steps_used = step
            break
        memory.add(y)
        points.append(y.copy())
        c = grid.cell_of(y)
        if not mask[c]:
            mask[c] = True
            last_new = step
        elif step - last_new >= stall:
            converged = True
            steps_used = last_new
            break
        pt = y
    else:
        steps_used = min(n_steps, max_steps)
        converged = seq is not None and n_steps <= max_steps
    return mask, steps_used, converged, np.array(points)


def orbit_tree(sys, p0, grid, max_sweeps):
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[grid.cell_of(p0)] = True
    frontier = [p0.copy()]
    points = [p0.copy()]
    sweeps = 0
    converged = False
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
    else:
        converged = True
    return mask, sweeps, converged, np.array(points)


def oracle_reach(sys, x, grid, policy="all", max_steps=200_000, tol=1e-12,
                 stall=None):
    p0 = sys.domain.canon(x)
    if stall is None:
        stall = min(max(8 * max(grid.cells_per_dim), 256), 50_000)
    if sys.multivalued and isinstance(policy, str):
        return orbit_tree(sys, p0, grid, max_steps)
    seq = None if isinstance(policy, str) else [sys._resolve_control(u) for u in policy]
    return orbit_single(sys, p0, grid, seq, max_steps, tol, stall)


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
        a_k = a_set.refine(2 ** k) if k else a_set.copy()
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
    mask, steps, converged, points = want
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    unit=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30),
    stall=st.sampled_from([None, 0, 1, 3, 40]),
    max_steps=st.sampled_from([0, 1, 5, 60, 5000]),
    tol=st.sampled_from([1e-12, 0.0, 1e-3]),
)
def test_each_lane_equals_its_single_run(name, unit, stall, max_steps, tol):
    make, grid = SYSTEMS[name]
    sys = make()
    lo, hi = sys.domain.bounds[:, 0], sys.domain.bounds[:, 1]
    starts = np.array([sys.domain.canon(lo + np.array(u[:sys.domain.ndim]) * (hi - lo))
                       for u in unit])
    # tiny blocks and chunks, so that lanes cross block and chunk boundaries
    # and blocks shrink when their orbits are long
    with mock.patch.object(orbits, "_LANE_BLOCK", 4), \
            mock.patch.object(orbits, "_BLOCK_POINTS", 40), \
            mock.patch.object(orbits, "_CHUNK_LANE_STEPS", 24):
        batch = list(reaches(sys, starts, grid, max_steps, tol, stall))
    for x, res in zip(starts, batch, strict=True):
        kw = {"max_steps": max_steps, "tol": tol, "stall": stall}
        single = orbit_reach(sys, x, grid, **kw)
        assert_same(res, (single.cells.mask.reshape(-1), single.steps_used,
                          single.converged, single.points))
        assert_same(single, oracle_reach(sys, x, grid, **kw))


def test_blocks_run_lazily_double_and_shrink_for_long_orbits():
    starts = np.linspace(0.05, 0.95, 40)[:, None]
    blocks = reach_lanes(square(), starts, Grid(BOX, 64), 1000)
    assert [next(blocks).n_lanes for _ in range(4)] == [1, 2, 4, 8]
    assert [blk.b0 for blk in blocks] == [15, 31]   # 16 lanes, then the 9 left
    # golden-rotation orbits at 512 cells keep about 5000 points each
    with mock.patch.object(orbits, "_BLOCK_POINTS", 10_000):
        sizes = [blk.n_lanes for blk in
                 reach_lanes(rotation(GOLDEN), starts[:8], Grid(CIRCLE, 512), 100_000)]
    assert sizes[0] == 1 and max(sizes) <= 2 and sum(sizes) == 8


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
