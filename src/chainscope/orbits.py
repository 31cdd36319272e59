"""The orbit engine: sampled orbits advanced many at once.

``run`` advances the orbits from many start points together, as the lanes of
a (B, d) array in time chunks, with the revisit, domain, new-cell and stall
checks vectorized over each chunk; ``run_trees`` does the same for the
breadth-first control trees of multivalued systems.  Lanes run in lazily
yielded blocks whose size follows the orbits' length, so memory stays
bounded and a reader that stops early skips the rest.  Results equal those
of a one-point-per-step loop bit for bit.  Given a target cell mask, a lane
also stops at its first kept cell in the target, so a reader that needs
only whether an orbit comes near a set runs no step past the answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CellSet, Domain, Grid

@dataclass
class ReachResult:
    """Cell cover of finitely many true trajectory points (under-approximation)."""

    mode: str                 # "orbit-sampled"
    cells: CellSet
    steps_used: int
    converged: bool
    points: np.ndarray = field(repr=False)   # (m, d) distinct visited points

    def as_record(self) -> dict:
        return {
            "mode": self.mode,
            "cell_count": len(self.cells),
            "steps_used": self.steps_used,
            "converged": self.converged,
            "point_count": int(self.points.shape[0]),
        }


# why a lane of the orbit engine stopped; on a tie the smaller code wins
REVISIT, OUTSIDE, HIT, STALL, BUDGET = range(5)
_NEVER = np.iinfo(np.int64).max
# lanes run in blocks that start at _FIRST_BLOCK lanes and double, up to
# _LANE_BLOCK lanes and as long as a block keeps about _BLOCK_POINTS points at most
_FIRST_BLOCK = 8
_LANE_BLOCK = 256
_BLOCK_POINTS = 1 << 16
# lane-steps per time chunk; chunks start at _FIRST_CHUNK steps and double
_CHUNK_LANE_STEPS = 1 << 14
_FIRST_CHUNK = 8


def reach_lanes(sys, starts, grid, max_steps, tol=1e-12, stall=None, seq=None,
                target=None):
    """``orbit_reach`` from every row of ``starts`` (points in the domain's
    canonical form) as the lanes of the engine, one ``_Lanes`` per block:
    control trees for multivalued systems under policy "all", trajectories
    otherwise.  Given the flat cell mask ``target``, a lane stops at its
    first kept cell in the target (reason HIT)."""
    if seq is None and sys.multivalued:
        return run_trees(sys, starts, grid, max_steps, target)
    if stall is None:
        stall = min(max(8 * max(grid.cells_per_dim), 256), 50_000)
    return run(sys, starts, grid, max_steps, tol, stall, sys.controls[0], seq, target)


def reaches(sys, starts, grid, max_steps, tol=1e-12, stall=None, seq=None):
    """The ``ReachResult`` of each row of ``starts``, in order.  Blocks run as
    they are read, so a reader that stops early skips the later ones."""
    for lanes in reach_lanes(sys, starts, grid, max_steps, tol, stall, seq):
        for b in range(lanes.n_lanes):
            yield lanes.reach(b)


def _blocks(run_block, starts):
    """``run_block`` on consecutive blocks of the rows of ``starts``, lazily.

    The first block takes the first _FIRST_BLOCK rows (all, if fewer), so a
    few orbits read together share one block; it keeps at most _FIRST_BLOCK
    lanes times the step budget of points.  Later blocks double, up to
    _LANE_BLOCK lanes and as long as the last block's kept points per lane,
    times the lanes, stay within _BLOCK_POINTS: memory follows the length of
    the orbits.  A reader that stops early has run the first block, or fewer
    than three times the lanes it read.
    """
    b0, size = 0, _FIRST_BLOCK
    while b0 < len(starts):
        lanes = run_block(starts[b0:b0 + size])
        lanes.b0 = b0
        yield lanes
        b0 += lanes.n_lanes
        per_lane = -(-lanes.n_points // lanes.n_lanes)
        size = max(1, min(2 * size, _LANE_BLOCK, _BLOCK_POINTS // max(per_lane, 1)))


class _Lanes:
    """One block of the orbit engine: lane b is the orbit (or the control
    tree) of the block's start b, which is start b0 + b of the call."""

    def __init__(self, grid: Grid, n_lanes: int):
        self.grid = grid
        self.b0 = 0
        self.stop = np.zeros(n_lanes, np.int64)      # steps (sweeps) run
        self.last_new = np.zeros(n_lanes, np.int64)  # step of the last new cell
        self.reason = np.full(n_lanes, BUDGET)
        self.steps_used = self.converged = None   # ReachResult fields, per lane
        self.outside: dict = {}   # lane -> its first point outside the domain
        self.keys = np.empty(0, np.int64)   # sorted lane * n_cells + cell
        self.kept: list = []      # (lanes, points) of the kept points, in step order
        self._by_lane = None

    @property
    def n_lanes(self) -> int:
        return self.stop.size

    @property
    def n_points(self) -> int:
        return sum(len(lanes) for lanes, _ in self.kept)

    def fail(self, lane: int, point: np.ndarray):
        self.reason[lane] = OUTSIDE
        self.outside[int(lane)] = point.copy()

    def start(self, starts: np.ndarray, target):
        """Step 0 of the block: a start outside the domain fails its lane,
        the others are kept, and a start whose cell lies in the flat mask
        ``target`` stops its lane (HIT).  Returns the live lanes, their
        points and the sorted lane * n_cells + cell keys of the kept cells."""
        ids = np.arange(len(starts))
        ok = self.grid.domain.inside(starts)
        for b in ids[~ok]:
            self.fail(b, starts[b])
        ids, pts = ids[ok], starts[ok]
        cells = self.grid.cells_of(pts)
        self.kept.append((ids, pts))
        seen = ids * self.grid.n_cells + cells   # sorted, as ids ascend
        if target is not None:
            hit = target[cells]
            self.reason[ids[hit]] = HIT
            ids, pts = ids[~hit], pts[~hit]
        return ids, pts, seen

    def check(self, lane: int):
        """Raise the DomainError of a lane whose orbit left the domain."""
        if lane in self.outside:
            self.grid.cell_of(self.outside[lane])

    def cellset(self, lane: int) -> CellSet:
        self.check(lane)
        n = self.grid.n_cells
        lo, hi = np.searchsorted(self.keys, [lane * n, (lane + 1) * n])
        mask = np.zeros(n, dtype=bool)
        mask[self.keys[lo:hi] - lane * n] = True
        return CellSet(self.grid, mask.reshape(self.grid.shape))

    def points(self, lane: int) -> np.ndarray:
        if self._by_lane is None:
            lanes = np.concatenate([a for a, _ in self.kept])
            order = np.argsort(lanes, kind="stable")
            pts = np.concatenate([p for _, p in self.kept])[order]
            self._by_lane = lanes[order], pts
        lanes, pts = self._by_lane
        lo, hi = np.searchsorted(lanes, [lane, lane + 1])
        return pts[lo:hi]

    def reach(self, lane: int) -> ReachResult:
        return ReachResult("orbit-sampled", self.cellset(lane),
                           int(self.steps_used[lane]), bool(self.converged[lane]),
                           self.points(lane))


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _merge(old: np.ndarray, new: np.ndarray, is_new: np.ndarray) -> np.ndarray:
    """``old`` and ``new`` interleaved: ``new`` where is_new, ``old`` elsewhere."""
    out = np.empty((is_new.size,) + old.shape[1:], old.dtype)
    out[is_new] = new
    out[~is_new] = old
    return out


def trajectory(sys, pts, n, u=None, seq=None, t=0) -> np.ndarray:
    """(n, B, d): the images of ``pts`` (B, d) after steps t + 1 .. t + n;
    step s applies seq[s - 1] if given, else u."""
    out = np.empty((n,) + pts.shape)
    for j in range(n):
        pts = out[j] = sys.image_points(pts, u if seq is None else seq[t + j])
    return out


def advance(sys, pts, u, n) -> np.ndarray:
    """``pts`` (B, d) after n steps under the control u: n is one step count
    or one per row."""
    pts, left = np.array(pts, dtype=float), np.broadcast_to(n, len(pts))
    done = 0
    # the rows with steps left go together, one phase per distinct count
    for stop in np.unique(left[left > 0]).tolist():
        on = left >= stop
        sub = pts[on]
        for _ in range(stop - done):
            sub = sys.image_points(sub, u)
        pts[on], done = sub, stop
    return pts


def _search_runs(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per i, the first position in x[lo[i]:hi[i]], a sorted run, whose value
    is not below v[i] (``searchsorted`` within runs, bisecting all at once)."""
    lo, hi = lo.copy(), hi.copy()
    while True:
        run = lo < hi
        if not run.any():
            return lo
        mid = (lo + hi) // 2
        below = run & (x[np.where(run, mid, 0)] < v)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(run & ~below, mid, hi)


class _Visited:
    """The kept points of a block's live lanes, sorted by lane and first
    coordinate, for the revisit check; with tol <= 0 it holds nothing and
    finds nothing."""

    def __init__(self, dom: Domain, tol: float, lane: np.ndarray, pts: np.ndarray):
        self.dom, self.tol = dom, tol
        order = np.lexsort((pts[:, 0], lane)) if tol > 0 else np.arange(0)
        self.lane, self.pts = lane[order], pts[order]

    def first_revisit(self, lane, step, pts, n_lanes: int) -> np.ndarray:
        """Per lane (of n_lanes), the least step whose point lies within tol
        of an earlier point of the lane: a held one, or one of the chunk's
        ``pts`` (with their ``lane`` and ``step``) at a smaller step; _NEVER
        if none.  The chunk's points are merged into the held ones, and
        ``keep`` then drops those of the lanes that stopped.

        Each new point is paired with ever farther points of its lane in
        sorted order, forwards and backwards (cyclically on the circle),
        while the first-coordinate gap could still be within tol; that gap
        bounds the distance from below and grows along the order, so no pair
        within tol is missed.  New points at or past their lane's best step
        so far are dropped, so steps computed past a revisit cost little.
        """
        best = np.full(n_lanes, _NEVER)
        if self.tol <= 0:
            return best
        finite = np.isfinite(pts).all(axis=1)   # never within tol of anything
        lane, step, pts = lane[finite], step[finite], pts[finite]
        order = np.lexsort((pts[:, 0], lane))
        lane, step, pts = lane[order], step[order], pts[order]
        runs = np.searchsorted(self.lane, np.arange(n_lanes + 1))   # each lane's run
        pos = _search_runs(self.pts[:, 0], runs[lane], runs[lane + 1], pts[:, 0])
        new = np.zeros(self.lane.size + lane.size, bool)
        new[pos + np.arange(lane.size)] = True
        self.lane = _merge(self.lane, lane, new)
        self.pts = _merge(self.pts, pts, new)
        step = _merge(np.zeros(new.size - lane.size, np.int64), step, new)
        x, circle = self.pts[:, 0], self.dom.kind == "circle"
        fresh = True
        while True:
            if fresh:
                q0 = np.flatnonzero(new)
                drop = step[q0] >= best[self.lane[q0]]
                if drop.any():
                    on = np.ones(new.size, bool)
                    on[q0[drop]] = False
                    self.lane, self.pts, step, new = (
                        self.lane[on], self.pts[on], step[on], new[on])
                    x, q0 = self.pts[:, 0], np.flatnonzero(new)
                runs = np.searchsorted(self.lane, np.arange(n_lanes + 1))
                first = runs[self.lane[q0]]
                size = runs[self.lane[q0] + 1] - first
                ahead = behind = np.arange(q0.size)
                k, fresh = 1, False
            pairs = []
            for sign in (1, -1):
                act = ahead if sign > 0 else behind
                q, f, n = q0[act], first[act], size[act]
                if circle:
                    p = f + (q - f + sign * k) % n
                    wrapped = p < q if sign > 0 else p > q
                    gap = np.where(wrapped, 1.0 - sign * (x[q] - x[p]), sign * (x[p] - x[q]))
                    near = (k < n) & (gap <= self.tol)
                else:
                    p = q + sign * k
                    on = (p >= f) & (p < f + n)
                    p = np.where(on, p, q)
                    gap = x[p] - x[q]
                    near = on & (np.sqrt(gap * gap) <= self.tol)
                if sign > 0:
                    ahead = act[near]
                else:
                    behind = act[near]
                pairs.append((q[near], p[near]))
            if not ahead.size and not behind.size:
                return best
            q, p = (np.concatenate(v) for v in zip(*pairs))
            ln = self.lane[q]
            at = np.maximum(step[q], step[p])
            pair = at < best[ln]
            if pair.any():
                close = self.dom.distances(self.pts[q[pair]], self.pts[p[pair]]) <= self.tol
                if close.any():
                    np.minimum.at(best, ln[pair][close], at[pair][close])
                    fresh = True
            k += 1

    def keep(self, alive: np.ndarray):
        """Hold only the points of the lanes flagged in ``alive``."""
        if self.tol > 0:
            on = alive[self.lane]
            self.lane, self.pts = self.lane[on], self.pts[on]


def _first_step(flags: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Per column of flags (L, m): the step of its first True, else _NEVER."""
    j = flags.argmax(axis=0)
    return np.where(flags[j, np.arange(flags.shape[1])], steps[j, 0], _NEVER)


def run(sys, starts, grid, max_steps, tol, stall, u=None, seq=None, target=None):
    """The orbit engine: the trajectories from ``starts`` (B, d), in the
    domain's canonical form, advanced together as lanes; yields one
    ``_Lanes`` per block of lanes (see ``_blocks``).

    Step t applies seq[t - 1] if given, else u.  Lane b keeps its points and
    their cells until, checked in this order at each step,
    - REVISIT: the point lies within ``tol`` of an earlier point of the lane
      (not kept; off when tol <= 0);
    - OUTSIDE: the point leaves the domain (``_Lanes.check`` raises);
    - HIT: the point's cell lies in the flat cell mask ``target``, if given
      (the point is kept; the start point is a hit at step 0);
    - STALL: no new cell for ``stall`` steps (the point is kept);
    - BUDGET: min(len(seq), max_steps) steps ran (every point is kept).
    A block runs in time chunks that start at _FIRST_CHUNK steps and double
    up to _CHUNK_LANE_STEPS lane-steps; the checks are vectorized over a
    chunk, and steps computed past a lane's stop are discarded.  No live
    lane can stall before its last new cell's step plus ``stall``, so a
    chunk ends at the earliest such step of the block's live lanes; this
    cap leaves the doubling of later chunks as it was.
    """
    return _blocks(lambda block: _orbit_block(sys, block, grid, max_steps, tol, stall,
                                              u, seq, target), starts)


def _orbit_block(sys, starts, grid, max_steps, tol, stall, u, seq, target) -> _Lanes:
    """Run the lanes of one block of ``run``."""
    n_max = max(min(len(seq), max_steps) if seq is not None else max_steps, 0)
    dom, n, d = grid.domain, grid.n_cells, grid.domain.ndim
    out = _Lanes(grid, len(starts))
    ids, pts, seen = out.start(starts, target)
    held = _Visited(dom, tol, ids, pts)
    last_new = np.zeros(ids.size, np.int64)
    t, span = 0, _FIRST_CHUNK
    while ids.size and t < n_max:
        m = ids.size
        L = min(span, max(1, _CHUNK_LANE_STEPS // m), n_max - t)
        span = 2 * L
        L = max(1, min(L, int(last_new.min()) + stall - t))   # the stall bound
        with np.errstate(all="ignore"):   # steps past a lane's stop may overflow
            ys = trajectory(sys, pts, L, u, seq, t)
            steps = t + 1 + np.arange(L)[:, None]
            ok = dom.inside(ys)
            cells = grid.cells_of(np.where(ok[..., None], ys, dom.bounds[:, 0]).reshape(-1, d))
            keys = (ids * n + cells.reshape(L, m)).ravel()
            new = np.zeros(keys.size, bool)
            new[np.unique(keys, return_index=True)[1]] = True
            new = ok & (new & ~_member(seen, keys)).reshape(L, m)
            ln = np.maximum.accumulate(np.where(new, steps, last_new), axis=0)
            revisit = held.first_revisit(np.tile(ids, L), np.repeat(steps[:, 0], m),
                                         ys.reshape(-1, d), len(starts))[ids]
        events = np.stack([
            revisit,
            _first_step(~ok, steps),
            np.full(m, _NEVER) if target is None else
            _first_step(new & target[cells.reshape(L, m)], steps),
            _first_step(ok & ~new & (steps - ln >= stall), steps),
        ])
        reason, at = events.argmin(axis=0), events.min(axis=0)
        done = at < _NEVER
        # a HIT or STALL point is kept, a REVISIT or OUTSIDE one is not
        n_kept = np.minimum(np.where(reason >= HIT, at, at - 1), t + L) - t
        kept = np.arange(L)[:, None] < n_kept
        add = np.sort(keys[(new & kept).ravel()])
        seen = np.insert(seen, np.searchsorted(seen, add), add)
        lane_ln = np.where(n_kept > 0, ln[np.maximum(n_kept - 1, 0), np.arange(m)], last_new)
        out.kept.append((np.broadcast_to(ids, (L, m))[kept], ys[kept]))
        fin = np.flatnonzero(done)
        out.reason[ids[fin]] = reason[fin]
        out.stop[ids[fin]] = at[fin]
        out.last_new[ids[fin]] = lane_ln[fin]
        for a in fin[reason[fin] == OUTSIDE]:
            out.fail(ids[a], ys[at[a] - t - 1, a])
        live = ~done
        alive = np.zeros(len(starts), bool)
        alive[ids[live]] = True
        held.keep(alive)
        ids, pts, last_new = ids[live], ys[-1][live], lane_ln[live]
        t += L
    out.stop[ids], out.last_new[ids] = t, last_new   # the budget ran out
    out.keys = seen
    out.steps_used = np.where(out.reason == STALL, out.last_new, out.stop)
    # a lane that ran all of seq converged
    out.converged = (out.reason != BUDGET) | (seq is not None and len(seq) <= max_steps)
    return out


def run_trees(sys, starts, grid, max_sweeps, target=None):
    """Breadth-first control trees from ``starts``, one lane each; yields one
    ``_Lanes`` per block of lanes (see ``_blocks``).

    A sweep images every frontier point under every control (one
    image_points call per control for the block) and keeps, per lane, the
    images that land in a cell new to the lane, first in (point, control)
    order.  A lane converges when a sweep keeps nothing; it runs at most
    ``max_sweeps`` sweeps, and a point outside the domain stops it.  Given
    the flat cell mask ``target``, a lane stops (HIT) once it keeps a cell in
    the target: its start, or a cell a sweep kept.
    """
    return _blocks(lambda block: _tree_block(sys, block, grid, max_sweeps, target), starts)


def _tree_block(sys, starts, grid, max_sweeps, target) -> _Lanes:
    dom, n, d = grid.domain, grid.n_cells, grid.domain.ndim
    out = _Lanes(grid, len(starts))

    def drop_hits(lane, pts, cells):
        if target is None:
            return lane, pts
        hit = np.unique(lane[target[cells]])
        out.reason[hit] = HIT
        on = ~np.isin(lane, hit)
        return lane[on], pts[on]

    lane, pts, seen = out.start(starts, target)
    for _ in range(max(max_sweeps, 0)):
        if not lane.size:
            break
        out.stop[np.unique(lane)] += 1
        ys = np.stack([sys.image_points(pts, u) for u in sys.controls], axis=1).reshape(-1, d)
        ly = np.repeat(lane, len(sys.controls))
        ok = dom.inside(ys)
        if not ok.all():
            bad, at = np.unique(ly[~ok], return_index=True)
            for b, i in zip(bad, np.flatnonzero(~ok)[at]):
                out.fail(b, ys[i])
            on = ~np.isin(ly, bad)
            ys, ly = ys[on], ly[on]
        cells = grid.cells_of(ys)
        keys = ly * n + cells
        first = np.unique(keys, return_index=True)[1]
        first = np.sort(first[~_member(seen, keys[first])])
        seen = np.sort(np.concatenate([seen, keys[first]]))
        lane, pts = ly[first], ys[first]
        out.kept.append((lane, pts))
        lane, pts = drop_hits(lane, pts, cells[first])
    out.keys, out.steps_used = seen, out.stop
    out.converged = out.reason != OUTSIDE
    out.converged[lane] = False
    out.reason[out.converged & (out.reason == BUDGET)] = STALL
    return out
