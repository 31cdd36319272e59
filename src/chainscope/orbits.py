"""The orbit engine: sampled orbits advanced many at once.

``run`` advances the orbits from many start points together, as the lanes of
a (B, d) array in time chunks, with the revisit, domain, new-cell and stall
checks vectorized over each chunk; ``run_trees`` does the same for the
breadth-first control trees of multivalued systems.  Steps are written in
place into the chunk's buffer, and the revisit check (``_Visited``) costs
the chunk's own points, not the held ones.  Lanes run in lazily yielded
blocks of at most _BLOCK_POINTS kept points (or one lane), so memory stays
bounded and a reader that stops early skips the rest.  Results equal those
of a one-point-per-step loop bit for bit.  Given a target cell mask, a lane
also stops at its first kept cell in the target, so a reader that needs
only whether an orbit comes near a set runs no step past the answer.
"""
from __future__ import annotations

import itertools
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
# lanes in the first block; a block of more than one lane keeps <= _BLOCK_POINTS points
_FIRST_BLOCK = 8
_BLOCK_POINTS = 1 << 18
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
    few orbits read together share one block; each later block, as many as
    the last block's kept points per lane fit in _BLOCK_POINTS.  A block sheds
    its lanes past that bound (``_Lanes.shed``), and the next block starts at
    the first lane shed.  A reader that stops early runs at most one block
    past the lanes it read, which keeps at most _BLOCK_POINTS points or one lane.
    """
    b0, size = 0, _FIRST_BLOCK
    while b0 < len(starts):
        lanes = run_block(starts[b0:b0 + size])
        lanes.b0 = b0
        yield lanes
        b0 += lanes.n_lanes
        size = max(1, _BLOCK_POINTS * lanes.n_lanes // max(sum(len(a) for a, _ in lanes.kept), 1))


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

    def shed(self, seen, ids, *along):
        """Cut a block that keeps more than _BLOCK_POINTS points to its longest prefix of
        lanes that fits, or its first lane; returns ``seen``, ``ids`` and ``along``, cut."""
        if self.n_lanes == 1 or sum(len(a) for a, _ in self.kept) <= _BLOCK_POINTS:
            return (seen, ids) + along
        count = np.bincount(np.concatenate([a for a, _ in self.kept]), minlength=self.n_lanes)
        k = max(int(np.searchsorted(np.cumsum(count), _BLOCK_POINTS, "right")), 1)
        self.stop, self.last_new, self.reason = self.stop[:k], self.last_new[:k], self.reason[:k]
        self.outside = {b: p for b, p in self.outside.items() if b < k}
        self.kept = [(a[a < k], p[a < k]) for a, p in self.kept]
        j, s = np.searchsorted(ids, k), np.searchsorted(seen, k * self.grid.n_cells)
        return (seen[:s].copy(), ids[:j]) + tuple(v[:j] for v in along)

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
    """Whether each key is in ``sorted_keys``: by table if they span < 64 per key."""
    if sorted_keys.size and sorted_keys[-1] - sorted_keys[0] < 64 * keys.size:
        return np.isin(keys, sorted_keys, kind="table")
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def trajectory(sys, pts, n, u=None, seq=None, t=0) -> np.ndarray:
    """(n, B, d): the images of ``pts`` (B, d) after steps t + 1 .. t + n,
    each written in place; step s applies seq[s - 1] if given, else u."""
    out = np.empty((n,) + pts.shape)
    step = sys.image_points
    for row, v in zip(out, itertools.repeat(u) if seq is None else seq[t:t + n]):
        pts = step(pts, v, row)
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


class _Visited:
    """The kept points of a block's live lanes, for the revisit check (off
    when tol <= 0).  A key is lane * stride + bucket, the bucket being the
    first coordinate's offset from the lower bound over w >= 2 tol (and over
    2^-500, where squares underflow), so points less than w apart have keys
    at most 1 apart.  Held points are runs sorted by key, then by first
    coordinate, merged in twos (Bentley & Saxe); see the README.
    """

    def __init__(self, dom: Domain, tol: float):
        self.dom, self.circle = dom, dom.kind == "circle"
        self.tol = tol = tol if tol > 0 else 0.0   # NaN too: off
        self.lo, width = float(dom.bounds[0, 0]), float(dom.widths[0])
        w = max(2.0 * tol, width * 2.0 ** -40, 2.0 ** -500)
        n = int(1.0 / w) if w <= 1.0 / 3 else 1   # the circle: whole buckets, or one
        self.scale, self.top = (float(n), n - 1) if self.circle else (1.0 / w, int(width / w) + 1)
        self.stride = self.top + 3
        self.runs, self.chunk = [], None   # runs of (sorted keys, points); the last chunk

    def cut(self, n_lanes: int):
        """Drop the held points of the lanes from ``n_lanes`` on."""
        at = [(k, p, np.searchsorted(k, n_lanes * self.stride)) for k, p in self.runs]
        self.runs = [(k, p) if i == k.size else (k[:i].copy(), p[:i].copy()) for k, p, i in at if i]

    def keep(self, alive: np.ndarray):
        """Hold the points of the last ``first_revisit`` call whose lanes are
        flagged in ``alive``."""
        runs = self.runs
        if self.chunk is not None:
            keys, q, lq, pts = self.chunk
            on = alive[lq]
            if on.any():   # a run is never empty
                runs.append((keys[on], pts[q[on]]))
        while len(runs) > 1 and runs[-2][0].size <= 2 * runs[-1][0].size:
            (k1, p1), (k0, p0) = runs.pop(), runs.pop()
            pts = np.concatenate([p0, p1])
            order, keys = _order(np.concatenate([k0, k1]), pts[:, 0], "stable")
            runs.append((keys, pts[order]))

    def first_revisit(self, lane, step, pts, n_lanes: int) -> np.ndarray:
        """Per lane (of n_lanes), the least step whose point lies within tol
        of an earlier point of the lane: a held one, or one of the chunk's
        ``pts`` (with their ``lane`` and ``step``) at a smaller step; _NEVER
        if none.  A point that is not finite is within tol of none.

        Each point meets the held points of its window; then, in key order,
        its 1st, 2nd, ... predecessor while the two are near.  Pairs that
        lower a lane's best drop the points at or past it and restart the
        scan.  On the circle the first bucket meets the last one turn up.
        """
        best = np.full(n_lanes, _NEVER)
        self.chunk = None
        if self.tol <= 0 or not lane.size:
            return best
        x = pts[:, 0]
        b = np.fmax(np.fmin(np.floor((x - self.lo) * self.scale), self.top), 0.0)   # NaN: top
        q, keys = _order(lane * self.stride + (b.astype(np.int64) + 1), x)
        xs, lq = x[q], lane[q]
        self.chunk = keys, q, lq, pts
        asks = [(keys, xs, q, 0.0)]
        if self.circle:   # the first bucket asks one turn up, the last one turn down
            bucket = keys - lq * self.stride
            up, down = np.flatnonzero(bucket == 1), np.flatnonzero(bucket == self.top + 1)
            asks += [(keys[e] + turn * (self.top + 1), xs[e], q[e], float(turn))
                     for e, turn in ((up, 1), (down, -1)) if e.size]
        found = False
        for (held, held_pts), (ask, ax, asked, turn) in itertools.product(self.runs, asks):
            a, j = self._window(held, held_pts[:, 0], ask, ax, turn)
            found |= self._decide(best, lane[asked[a]], step[asked[a]], pts[asked[a]], held_pts[j])
        all_keys, all_xs, all_q = keys, xs, q   # the whole chunk, for the circle below
        k = 1
        while True:
            if k == 1:
                if found:   # only points before their lane's best step
                    on = step[q] < best[lane[q]]
                    q, keys, xs = q[on], keys[on], xs[on]
                pos = np.flatnonzero(keys[:-1] + 1 >= keys[1:]) + 1
            else:
                pos = pos[pos >= k]
                pos = pos[keys[pos - k] + 1 >= keys[pos]]
            pos = pos[self._near(xs[pos] - xs[pos - k])]
            if not pos.size:
                break
            i, j = q[pos], q[pos - k]
            found = self._decide(best, lane[i], np.maximum(step[i], step[j]), pts[i], pts[j])
            k = 1 if found else k + 1
        if self.circle:   # in the chunk, the first bucket meets the last one turn up
            up = up[step[all_q[up]] < best[lq[up]]]   # later points add only pairs past best
            a, j = self._window(all_keys, all_xs, all_keys[up] + (self.top + 1), all_xs[up], 1.0)
            i, j = all_q[up[a]], all_q[j]
            i, j = i[i != j], j[i != j]
            self._decide(best, lane[i], np.maximum(step[i], step[j]), pts[i], pts[j])
        return best

    def _near(self, gap: np.ndarray) -> np.ndarray:
        """Whether a first-coordinate gap is within tol, as ``Domain.distances`` measures."""
        return (np.abs(gap) if self.circle else np.sqrt(gap * gap)) <= self.tol

    def _window(self, keys, x, ask, ax, turn):
        """Pairs (a, j) of an asked point a (key ask[a], first coordinate
        ax[a]) and a point j of the run (keys, x) with a key at most 1 away
        and a gap x[j] - ax[a] - turn within tol.  Along a window the gap
        grows, so bisection finds where the pairs start (the gap is not below
        -tol) and end (it is above tol, or NaN), for all windows at once."""
        lo = np.searchsorted(keys, ask - 1)   # the first key in each window, if any
        c = np.flatnonzero(keys[np.minimum(lo, keys.size - 1)] <= ask + 1)
        c = c[lo[c] < keys.size]
        if not c.size:
            return c, c
        ax, hi = np.tile(ax[c], 2), np.tile(np.searchsorted(keys, ask[c] + 1, "right"), 2)
        lo, end = np.tile(lo[c], 2), np.arange(2 * c.size) >= c.size
        a = np.flatnonzero(lo < hi)
        while a.size:
            mid = (lo[a] + hi[a]) >> 1
            g = x[mid] - ax[a] - turn
            near = self._near(g)
            past = np.where(end[a], ~(near | (g <= 0)), near | ~(g < 0))
            hi[a[past]], lo[a[~past]] = mid[past], mid[~past] + 1
            a = a[lo[a] < hi[a]]
        lo, n = lo[:c.size], lo[c.size:] - lo[:c.size]
        return np.repeat(c, n), np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())

    def _decide(self, best, lane, at, p, r) -> bool:
        """Lower best[lane] to ``at`` where p is within tol of r; whether any was."""
        if not lane.size:
            return False
        close = self.dom.distances(p, r) <= self.tol
        np.minimum.at(best, lane[close], at[close])
        return close.any()


def _order(keys: np.ndarray, x: np.ndarray, kind=None):
    """The order of ``keys``, equal keys ordered by ``x`` (NaN last); the
    keys in that order."""
    order = np.argsort(keys, kind=kind)
    keys = keys[order]
    tie = np.zeros(keys.size + 1, bool)
    np.equal(keys[1:], keys[:-1], out=tie[1:-1])
    g = np.flatnonzero(tie[1:] | tie[:-1])   # the positions in a tie
    order[g] = order[g][np.lexsort((x[order[g]], keys[g]))]
    return order, keys


def _first_step(flags: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Per column of flags (L, m): the step of its first True, else _NEVER."""
    j = flags.argmax(axis=0)
    return np.where(flags[j, np.arange(flags.shape[1])], steps[j, 0], _NEVER)


def run(sys, starts, grid, max_steps, tol, stall, u=None, seq=None, target=None):
    """The orbit engine: the trajectories from ``starts`` (B, d), in the
    domain's canonical form, advanced together as lanes; yields one
    ``_Lanes`` per block: _BLOCK_POINTS kept points at most, or one lane (``_blocks``).

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
    held = _Visited(dom, tol)   # holds the starts, as the points of step 0
    held.first_revisit(ids, np.zeros_like(ids), pts, len(starts))
    held.keep(np.ones(len(starts), bool))
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
            # the first of each key not yet seen; in a stall phase there is none
            unseen = np.flatnonzero(ok.ravel() & ~_member(seen, keys))
            new = np.zeros(keys.size, bool)
            new[unseen[np.unique(keys[unseen], return_index=True)[1]]] = True
            new = new.reshape(L, m)
            ln = np.maximum.accumulate(np.where(new, steps, last_new), axis=0)
            events = np.stack([
                np.empty(m, np.int64),   # REVISIT, below
                _first_step(~ok, steps),
                np.full(m, _NEVER) if target is None else
                _first_step(new & target[cells.reshape(L, m)], steps),
                _first_step(ok & ~new & (steps - ln >= stall), steps),
            ])
            # a revisit wins a tie, and one after a lane's other stop is moot
            on = (steps <= events[1:].min(axis=0)).ravel()
            events[REVISIT] = held.first_revisit(np.tile(ids, L)[on], np.repeat(steps, m)[on],
                                                 ys.reshape(-1, d)[on], out.n_lanes)[ids]
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
        alive = np.zeros(out.n_lanes, bool)
        alive[ids[live]] = True
        held.keep(alive)
        seen, ids, pts, last_new = out.shed(seen, ids[live], ys[-1][live], lane_ln[live])
        held.cut(out.n_lanes)
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
    lane, pts, seen = out.start(starts, target)
    for _ in range(max(max_sweeps, 0)):
        if not lane.size:
            break
        out.stop[np.unique(lane)] += 1
        ys = np.stack([sys.image_points(pts, u) for u in sys.controls], axis=1).reshape(-1, d)
        ly = np.repeat(lane, len(sys.controls))
        ok = dom.inside(ys)
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
        if target is not None:
            hit = np.unique(lane[target[cells[first]]])
            out.reason[hit] = HIT
            on = ~np.isin(lane, hit)
            lane, pts = lane[on], pts[on]
        seen, lane, pts = out.shed(seen, lane, pts)
    out.keys, out.steps_used = seen, out.stop
    out.converged = out.reason != OUTSIDE
    out.converged[lane] = False
    out.reason[out.converged & (out.reason == BUDGET)] = STALL
    return out
