"""Compact domains, uniform grids, finite cell sets, and metric helpers.

A domain is either an axis-aligned box in R^n (n <= 2, Euclidean metric) or
the circle of circumference 1 (coordinates in [0, 1) with wraparound metric).
``Domain`` alone holds the circle's wrap rule and the metric.
A grid partitions the domain into uniform cells addressed by flat row-major
indices.  Point membership follows the half-open convention with the last
cell closed, so every domain point lies in exactly one cell.  Geometric
intersection tests, by contrast, treat cells as *closed* boxes: a cell that
merely touches a ball or a fattened region is kept.  All set computations
here over-approximate, never under-approximate.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    EmptySetError,
    GridMismatchError,
    ResolutionError,
    ResourceLimitError,
)

# a graph on a grid is sound only for fattening radii of at least this many
# cell diameters: the fattening must dominate the discretization error
_FLOOR_DIAMETERS = 4.0


def as_point(x) -> np.ndarray:
    """Coerce a scalar or sequence to a float point array of shape (d,)."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"point must be 1-dimensional, got shape {p.shape}")
    return p


@dataclass(frozen=True, eq=False)
class Domain:
    """Compact metric space: a box in R^n or the unit-circumference circle."""

    kind: str                 # "box" | "circle"
    bounds: np.ndarray = field(repr=False)   # (d, 2) closed intervals

    @classmethod
    def box(cls, bounds) -> "Domain":
        b = np.asarray(bounds, dtype=float).reshape(-1, 2)
        if b.shape[0] > 2:
            raise ValueError("only boxes in R^1 and R^2 are supported")
        if not np.all(b[:, 1] > b[:, 0]):
            raise ValueError("box bounds must have strictly positive width")
        b.setflags(write=False)
        return cls("box", b)

    @classmethod
    def circle(cls) -> "Domain":
        b = np.array([[0.0, 1.0]])
        b.setflags(write=False)
        return cls("circle", b)

    @property
    def ndim(self) -> int:
        return self.bounds.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.bounds[:, 1] - self.bounds[:, 0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Domain)
            and self.kind == other.kind
            and np.array_equal(self.bounds, other.bounds)
        )

    def canon(self, x) -> np.ndarray:
        """Normalize a point: wrap circle coordinates into [0, 1)."""
        p = as_point(x)
        if p.shape[0] != self.ndim:
            raise DomainError(
                f"point has {p.shape[0]} coordinates, domain has {self.ndim}"
            )
        return self.wrap(p)

    def wrap(self, points: np.ndarray, out=None) -> np.ndarray:
        """Canonical form of a float array: circle coordinates into [0, 1).
        ``% 1.0`` rounds a tiny negative coordinate up to 1.0; the second
        ``%`` takes 1.0 to 0.0 and leaves every other result as it is.
        Given ``out``, the result is written there."""
        if self.kind == "circle":
            return np.remainder(np.remainder(points, 1.0, out), 1.0, out)
        return points if out is None else np.copyto(out, points) or out

    def project(self, points: np.ndarray) -> np.ndarray:
        """Into the domain: wrapped on the circle, clipped on a box."""
        if self.kind == "circle":
            return self.wrap(points)
        return np.clip(points, self.bounds[:, 0], self.bounds[:, 1])

    def displacement(self, frm: np.ndarray, to: np.ndarray) -> np.ndarray:
        """``to - frm``, the short way round on the circle."""
        if self.kind == "circle":
            return self.wrap(to - frm + 0.5) - 0.5
        return to - frm

    def contains(self, x) -> bool:
        p = as_point(x)
        if p.shape[0] != self.ndim:
            return False
        return bool(self.inside(p))

    def inside(self, points) -> np.ndarray:
        """Membership of each point along the last axis of ``points``:
        finite on the circle, within the bounds on a box."""
        p = np.asarray(points, dtype=float)
        if self.kind == "circle":
            return np.all(np.isfinite(p), axis=-1)
        return np.all((p >= self.bounds[:, 0]) & (p <= self.bounds[:, 1]), axis=-1)

    def distance(self, x, y) -> float:
        """The metric between two points (one row of ``distances``)."""
        return float(self.distances(self.canon(x), self.canon(y)))

    def distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The metric between points along the last axis, broadcast: min(d,
        1 - d) on the circle, sqrt of the sum of squares (as cKDTree) on a box."""
        v = a - b
        if self.kind == "circle":
            d = self.wrap(np.abs(v[..., 0]))
            return np.minimum(d, 1.0 - d)
        return np.sqrt(np.sum(v * v, axis=-1))


def _axis_index(x, lo, h, n, wrap):
    """Cell index along one axis, consistent with boundaries at lo + i*h."""
    t = np.floor((x - lo) / h).astype(np.int64)
    # one-step corrections against the float boundary grid
    t = np.where(lo + (t + 1) * h <= x, t + 1, t)
    t = np.where(lo + t * h > x, t - 1, t)
    if wrap:
        return t % n
    return np.clip(t, 0, n - 1)


def max_cells_cap() -> int:
    """The grid-size cap: CHAINSCOPE_MAX_CELLS cells, default 2^22."""
    raw = os.environ.get("CHAINSCOPE_MAX_CELLS")
    if not raw:
        return 2 ** 22
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(
            f"CHAINSCOPE_MAX_CELLS must be a positive integer, got {raw!r}")
    return cap


class Grid:
    """Uniform cell partition of a domain.

    Cells are addressed by flat row-major indices.  ``cell_diameter`` is the
    conservative bound sqrt(n) * max_d(width_d / cells_d); every point of a
    cell is within half that diameter of the cell center.  A grid of more
    than ``max_cells_cap()`` cells is refused before anything is allocated
    on it, and a graph on the grid needs a fattening radius of at least
    ``resolution_floor`` (4 cell diameters).
    """

    def __init__(self, domain: Domain, cells_per_dim):
        if np.isscalar(cells_per_dim):
            cells_per_dim = (int(cells_per_dim),)
        cpd = tuple(int(c) for c in cells_per_dim)
        if len(cpd) != domain.ndim:
            raise ValueError("cells_per_dim length must match domain dimension")
        if any(c < 1 for c in cpd):
            raise ValueError("cells_per_dim entries must be positive")
        self.n_cells, cap = math.prod(cpd), max_cells_cap()
        if self.n_cells > cap:
            raise ResourceLimitError(
                f"a grid of {self.n_cells} cells (cells_per_dim {list(cpd)}) "
                f"exceeds the cell cap CHAINSCOPE_MAX_CELLS={cap}")
        self.domain = domain
        self.cells_per_dim = cpd
        self.shape = cpd
        self.spacing = domain.widths / np.asarray(cpd, dtype=float)
        self.cell_diameter = float(math.sqrt(domain.ndim) * np.max(self.spacing))
        self.resolution_floor = _FLOOR_DIAMETERS * self.cell_diameter
        self._centers = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.domain == other.domain
            and self.cells_per_dim == other.cells_per_dim
        )

    def __repr__(self) -> str:
        return f"Grid({self.domain.kind}, cells={self.cells_per_dim})"

    @property
    def wrap(self) -> bool:
        return self.domain.kind == "circle"

    def cell_of(self, x) -> int:
        p = self.domain.canon(x)
        if not self.domain.contains(p):
            raise DomainError(f"point {p!r} outside domain")
        return int(self.cells_of(p[None, :])[0])

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """Vectorized cell_of for an (m, d) array of in-domain points."""
        pts = self.domain.wrap(np.asarray(points, dtype=float))
        axes = [
            _axis_index(pts[:, d], self.domain.bounds[d, 0], self.spacing[d],
                        self.cells_per_dim[d], self.wrap)
            for d in range(self.domain.ndim)
        ]
        return np.ravel_multi_index(axes, self.shape)

    def cell_center(self, cell: int) -> np.ndarray:
        idx = np.unravel_index(int(cell), self.shape)
        return self.domain.bounds[:, 0] + (np.asarray(idx) + 0.5) * self.spacing

    def centers(self) -> np.ndarray:
        """(n_cells, d) array of all cell centers, cached."""
        if self._centers is None:
            axes = [
                self.domain.bounds[d, 0]
                + (np.arange(self.cells_per_dim[d]) + 0.5) * self.spacing[d]
                for d in range(self.domain.ndim)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            self._centers = np.stack([m.ravel() for m in mesh], axis=1)
        return self._centers

    def cell_box(self, cell: int) -> np.ndarray:
        """(d, 2) closed box of a cell."""
        idx = np.asarray(np.unravel_index(int(cell), self.shape))
        lo = self.domain.bounds[:, 0] + idx * self.spacing
        return np.stack([lo, lo + self.spacing], axis=1)

    def axis_touch_range(self, a, b, dim=0):
        """Unclipped index range of closed cells [lo+i*h, lo+(i+1)*h] along
        one axis touching [a, b]."""
        a, b = np.asarray(a, float), np.asarray(b, float)
        lo, h = self.domain.bounds[dim, 0], self.spacing[dim]
        i0 = np.ceil((a - lo) / h).astype(np.int64) - 1
        i0 = np.where(lo + (i0 + 1) * h < a, i0 + 1, i0)
        i0 = np.where(lo + i0 * h >= a, i0 - 1, i0)
        j0 = np.floor((b - lo) / h).astype(np.int64)
        j0 = np.where(lo + j0 * h > b, j0 - 1, j0)
        j0 = np.where(lo + (j0 + 1) * h <= b, j0 + 1, j0)
        return i0, j0

    def cells_touching_box(self, lo, hi) -> np.ndarray:
        """Flat indices of closed cells intersecting the closed box [lo, hi]."""
        lo = as_point(lo)
        hi = as_point(hi)
        ranges = []
        for d in range(self.domain.ndim):
            i0, j0 = self.axis_touch_range(lo[d], hi[d], dim=d)
            n = self.cells_per_dim[d]
            if self.wrap:   # at most n cells, taken modulo n
                ranges.append(np.unique(
                    np.arange(int(i0), min(int(j0), int(i0) + n - 1) + 1) % n))
            else:
                ranges.append(np.arange(max(int(i0), 0), min(int(j0), n - 1) + 1))
        if self.domain.ndim == 1:
            return ranges[0]
        ii, jj = np.meshgrid(ranges[0], ranges[1], indexing="ij")
        return np.ravel_multi_index((ii.ravel(), jj.ravel()), self.shape)

    def fatten_offsets(self, eps: float) -> int | np.ndarray:
        """Offset reach of eps-fattening.

        1-D: the max index offset k such that a cell k away still touches the
        eps-neighborhood ((k-1)*h <= eps).  2-D: a boolean structuring mask.
        Offsets are capped at the grid's extent (n in 1-D, n + 1 per axis in
        2-D) before any int conversion, so that every finite eps is safe.
        """
        if self.domain.ndim == 1:
            h, n = self.spacing[0], self.cells_per_dim[0]
            if eps >= n * h:
                return n
            k = int(np.floor(eps / h)) + 1
            if k * h <= eps:
                k += 1
            if (k - 1) * h > eps:
                k -= 1
            return min(max(k, 1), n)
        ks = [n + 1 if eps >= n * h else int(np.floor(eps / h)) + 2
              for h, n in zip(self.spacing, self.cells_per_dim)]
        d0 = np.arange(-ks[0], ks[0] + 1)
        d1 = np.arange(-ks[1], ks[1] + 1)
        g0 = np.maximum(np.abs(d0) - 1, 0)[:, None] * self.spacing[0]
        g1 = np.maximum(np.abs(d1) - 1, 0)[None, :] * self.spacing[1]
        return g0 * g0 + g1 * g1 <= eps * eps

    def check_resolution(self, eps: float, key: str):
        """Refuse a fattening radius ``eps`` (named ``key``) below the
        resolution floor."""
        if eps < self.resolution_floor * (1.0 - 1e-12):
            raise ResolutionError(
                f"{key}={eps:g} is below the resolution floor "
                f"4 * cell diameter = {self.resolution_floor:g}")

    def refine(self, factor: int) -> "Grid":
        return Grid(self.domain, tuple(c * factor for c in self.cells_per_dim))


def grid_for(domain: Domain, eps: float) -> Grid:
    """Smallest uniform grid whose resolution floor is at most eps."""
    root = math.sqrt(domain.ndim)
    cells = tuple(
        max(1, int(math.ceil(w * _FLOOR_DIAMETERS * root / eps)))
        for w in domain.widths
    )
    return Grid(domain, cells)


class CellSet:
    """Finite set of grid cells, stored as a boolean membership mask."""

    __slots__ = ("grid", "mask")

    def __init__(self, grid: Grid, mask: np.ndarray):
        if mask.shape != grid.shape:
            raise ValueError("mask shape must equal grid shape")
        self.grid = grid
        self.mask = mask.astype(bool, copy=False)

    # -- constructors -------------------------------------------------------
    @classmethod
    def empty(cls, grid: Grid) -> "CellSet":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid: Grid) -> "CellSet":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    @classmethod
    def from_indices(cls, grid: Grid, indices) -> "CellSet":
        idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices),
                         dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= grid.n_cells):
            raise ValueError("cell index out of range for grid")
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[idx] = True
        return cls(grid, mask.reshape(grid.shape))

    @classmethod
    def from_points(cls, grid: Grid, points) -> "CellSet":
        ids = [grid.cell_of(p) for p in points]
        return cls.from_indices(grid, ids)

    @classmethod
    def from_box(cls, grid: Grid, lo, hi) -> "CellSet":
        """All cells whose closed box touches the closed box [lo, hi]."""
        return cls.from_indices(grid, grid.cells_touching_box(lo, hi))

    # -- set algebra ---------------------------------------------------------
    def _check(self, other: "CellSet"):
        if self.grid != other.grid:
            raise GridMismatchError("cell sets live on different grids")

    def __or__(self, other):
        self._check(other)
        return CellSet(self.grid, self.mask | other.mask)

    def __and__(self, other):
        self._check(other)
        return CellSet(self.grid, self.mask & other.mask)

    def __sub__(self, other):
        self._check(other)
        return CellSet(self.grid, self.mask & ~other.mask)

    def __eq__(self, other):
        return (
            isinstance(other, CellSet)
            and self.grid == other.grid
            and np.array_equal(self.mask, other.mask)
        )

    def issubset(self, other: "CellSet") -> bool:
        self._check(other)
        return bool(np.all(other.mask[self.mask]))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __bool__(self) -> bool:
        return bool(self.mask.any())

    def __contains__(self, cell: int) -> bool:
        return bool(self.mask.reshape(-1)[int(cell)])

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask.reshape(-1))

    def centers(self) -> np.ndarray:
        return self.grid.centers()[self.indices()]

    def refine(self, factor: int) -> "CellSet":
        """Same region on a grid refined by an integer factor per dimension."""
        grid, mask = self.grid.refine(factor), self.mask   # the cap comes first
        for axis in range(mask.ndim):
            mask = np.repeat(mask, factor, axis=axis)
        return CellSet(grid, mask)

    # -- serialization -------------------------------------------------------
    def dumps(self) -> str:
        """One line per cell: comma-separated per-dimension indices, sorted."""
        cols = [map(str, i.tolist())
                for i in np.unravel_index(self.indices(), self.grid.shape)]
        text = "\n".join(map(",".join, zip(*cols)))
        return text + "\n" if text else ""


def _index_ranges(grid: Grid, lo, hi):
    """(start, length) of the 1-D cell index ranges [lo, hi] on the grid.

    Box ranges are clipped to the grid; circle ranges are taken modulo n and
    capped at n cells.  Either way 0 <= start < n and 1 <= length <= n, and
    the range covers the cells (start + i) % n for 0 <= i < length.
    """
    n = grid.n_cells
    if grid.wrap:
        return lo % n, np.minimum(hi - lo + 1, n)
    start = np.clip(lo, 0, n - 1)
    return start, np.clip(hi, 0, n - 1) - start + 1


def _range_union(n: int, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mask of the n cells covered by the (start, length) ranges; a range
    past n - 1 wraps to 0.  Empty ranges are dropped and wrapped ones split
    at 0, then one difference-array sweep runs over the span of the rest,
    [min start, max end): the cost follows the ranges and their span, not n."""
    keep = lengths > 0
    starts, ends = starts[keep], starts[keep] + lengths[keep]
    over = ends > n
    if over.any():
        # [start, n) and [0, end - n)
        starts = np.concatenate([starts, np.zeros(np.count_nonzero(over), starts.dtype)])
        ends = np.concatenate([np.minimum(ends, n), ends[over] - n])
    mask = np.zeros(n, bool)
    if starts.size:
        lo, hi = int(starts.min()), int(ends.max())
        diff = np.zeros(hi - lo + 1, np.int64)
        np.add.at(diff, starts - lo, 1)
        np.add.at(diff, ends - lo, -1)
        mask[lo:hi] = np.cumsum(diff[:-1]) > 0
    return mask


def fatten(cells: CellSet, eps: float) -> CellSet:
    """All cells touching the closed eps-neighborhood of the input cells.

    Sound over-approximation of the eps-ball around the region: output always
    contains the input, and a cell merely touching the neighborhood is kept.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = cells.grid
    if grid.domain.ndim == 1:
        k, idx = grid.fatten_offsets(eps), cells.indices()
        mask = _range_union(grid.n_cells, *_index_ranges(grid, idx - k, idx + k))
        return CellSet(grid, mask.reshape(grid.shape))
    return CellSet(grid, _dilate(cells.mask, grid.fatten_offsets(eps)))


def _dilate(mask: np.ndarray, struct: np.ndarray) -> np.ndarray:
    """Binary dilation of a 2-D mask by a symmetric structuring mask whose
    rows are contiguous intervals centred on its middle column (the masks of
    ``Grid.fatten_offsets``), outside the grid counting as empty.

    Row offset by row offset: the rows of the mask are dilated by that row's
    half-width with prefix sums, then ORed in shifted by the offset; the cost
    is cells times rows of the structuring mask, not cells times its size.
    """
    (n0, n1), (w0, _) = mask.shape, struct.shape
    counts = np.zeros((n0, n1 + 1), np.int64)
    np.cumsum(mask, axis=1, out=counts[:, 1:])
    j = np.arange(n1)
    out = np.zeros_like(mask)
    for d0 in range(min(w0 // 2, n0 - 1) + 1):
        width = int(np.count_nonzero(struct[w0 // 2 + d0]))
        if not width:
            continue
        r = width // 2
        row = counts[:, np.minimum(j + r + 1, n1)] > counts[:, np.maximum(j - r, 0)]
        out[d0:] |= row[:n0 - d0]
        out[:n0 - d0] |= row[d0:]
    return out


def nearest_distances(domain: Domain, points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distance from each row of ``points`` to the nearest row of ``ref``.

    In 1-D a sorted search: the nearest point is a neighbor in cyclic
    order (on a box the wrapped neighbor is never the nearer one).  In 2-D
    a k-d tree, which computes ``Domain.distances`` bit for bit; scipy.spatial
    is imported here, at the first 2-D query, and not at start-up.
    """
    if domain.ndim == 1:
        a = domain.wrap(points[:, :1])
        b = np.sort(domain.wrap(ref[:, 0]))
        pos = np.searchsorted(b, a[:, 0])
        near = b[np.stack([pos - 1, pos % b.size])]
        return np.min(domain.distances(near[..., None], a), axis=0)
    from scipy.spatial import cKDTree
    return cKDTree(ref).query(points)[0]


_WINDOW_PAIRS = 1 << 14   # (row, cell) pairs _hausdorff_within holds at once


def _outside(a: CellSet, b: CellSet) -> list:
    """Each set's cells outside the other, with the other set, in the two
    directions of a Hausdorff distance that have any (cells in both are at 0)."""
    if a.grid != b.grid:
        raise GridMismatchError("hausdorff needs cell sets on the same grid")
    if not a or not b:
        raise EmptySetError("hausdorff of an empty cell set")
    return [(out, y) for x, y in ((a, b), (b, a)) if (out := (x - y).indices()).size]


def hausdorff(a: CellSet, b: CellSet) -> float:
    """Hausdorff distance between the cell-center point sets of a and b,
    searched from the cells of each set outside the other only."""
    dom, centers = a.grid.domain, a.grid.centers()
    return max((float(np.max(nearest_distances(dom, centers[out], y.centers())))
                for out, y in _outside(a, b)), default=0.0)


def _hausdorff_within(a: CellSet, b: CellSet, r: float) -> bool:
    """Exactly ``hausdorff(a, b) <= r``; in 1-D the sorted search.

    In 2-D each cell outside the other set is tested against the other set's
    rows within ``|off| <= int(r // spacing) + 1`` (a row farther off is more
    than r away), along the axis with fewer such rows.  In the other set
    sorted by (row, column), the two cells around (row, the cell's column)
    hold that row's nearest if it has any, and are cells of the set either
    way.  Cells go in blocks of at most ``_WINDOW_PAIRS`` pairs, up to the
    first block with a cell farther than r.  Centers and distances are
    computed as ``Grid.centers`` and ``Domain.distances`` do, the floats that
    the k-d tree compares.
    """
    grid = a.grid
    if grid.domain.ndim == 1:
        return hausdorff(a, b) <= r
    pairs = _outside(a, b)
    if not r >= 0.0:
        return False
    ks = [n - 1 if r >= n * h else min(int(r // h) + 1, n - 1)
          for h, n in zip(grid.spacing, grid.shape)]
    e = int(np.argmin(ks))   # rows along axis e, columns along the other
    ns, lo, h = grid.shape[1 - e], grid.domain.bounds[[e, 1 - e], 0], grid.spacing[[e, 1 - e]]
    offs = np.arange(-ks[e], ks[e] + 1)[:, None]
    step = max(1, _WINDOW_PAIRS // offs.size)

    def centers(row, col):
        return lo + (np.stack(np.broadcast_arrays(row, col), axis=-1) + 0.5) * h

    for out, y in pairs:
        key = np.flatnonzero(y.mask if e == 0 else y.mask.T)   # row * ns + col, sorted
        for i in range(0, out.size, step):
            c = np.unravel_index(out[i:i + step], grid.shape)
            pos = np.searchsorted(key, (c[e] + offs) * ns + c[1 - e])
            near = key[np.clip([pos - 1, pos], 0, key.size - 1)]
            d = grid.domain.distances(centers(near // ns, near % ns), centers(c[e], c[1 - e]))
            if not (d <= r).any(axis=(0, 1)).all():
                return False
    return True
