"""Catalog of concrete discrete-time systems with rigorous cell images.

Each system is a self-map f(x, u) of its compact domain with a finite
control set U (a singleton tuple for uncontrolled maps) and a global
Lipschitz constant valid uniformly over domain x U.  Cell images are
over-approximated by a Lipschitz ball around the image of the cell center,
which is sound for every catalog map.

One kernel, ``_cell_images``, gives these images, fattened by eps or not, for
a batch of cells in 1-D and 2-D; everything that images cells goes through it.
"""
from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ControlError, ResourceLimitError, SelfMapError
from .geometry import CellSet, Domain, Grid, _index_ranges, _range_union

# relative inflation of Lipschitz ball radii; absorbs float rounding in
# products so that sampled points can never fall outside the computed ball
_RADIUS_SAFETY = 1.0 + 1e-9
# cap on the edges a graph may lay out, and on the ranges a 2-D build may
# store; read only by ``_check_edge_cap``, at call time, so every path sees
# the current value
MAX_EXPLICIT_EDGES = 200_000_000
# window cells per chunk of the 2-D cell-image kernel; bounds its scratch memory
_IMAGE_CHUNK_CELLS = 1 << 13
# beyond any column: the ends of a window row without a hit
_FAR = 1 << 40
# what ``_cell_images`` keeps of every cell's image: (system, grid, images)
_kept = None


@dataclass(frozen=True, eq=False)
class System:
    """A named self-map of a compact domain with finite control set."""

    name: str
    domain: Domain
    params: dict
    controls: tuple
    lipschitz: float
    map_fn: Callable = field(repr=False)   # (points (m,d), u) -> (m,d)

    @property
    def multivalued(self) -> bool:
        return len(self.controls) > 1

    def _resolve_control(self, u):
        if u is None:
            if self.multivalued:
                raise ControlError(f"{self.name}: control value required")
            return self.controls[0]
        if not any(u == c for c in self.controls):
            raise ControlError(f"{self.name}: control {u!r} not in control set")
        return u

    def image_points(self, points: np.ndarray, u) -> np.ndarray:
        """Vectorized raw evaluation in canonical form; no domain checks."""
        return self.domain.wrap(self.map_fn(np.asarray(points, dtype=float), u))


def image_cell(sys: System, cell: int, grid: Grid) -> CellSet:
    """Cells guaranteed to contain f(x, u) for every x in the cell, u in U.

    Union over u of the cells touching the closed ball of radius
    L * cell_radius around f(center, u).
    """
    return CellSet(grid, _image_union(sys, grid, [cell]).reshape(grid.shape))


def _image_union(sys: System, grid: Grid, cells) -> np.ndarray:
    """Flat mask of the union of the images of ``cells`` over all controls."""
    start, length = _cell_images(sys, grid, cells)
    return _range_union(grid.n_cells, start.ravel(), length.ravel())


def _cell_images(sys: System, grid: Grid, cells, eps: float | None = None):
    """Each source cell's image under each control: the cells touching the
    closed ball of radius L * cell_radius around f(center, u) and, given
    ``eps``, every cell touching that set's closed eps-neighborhood.

    ``cells`` indexes the m sources among all cells: flat indices, or
    slice(None) for every cell.  An image is R (start, length) ranges of
    flat indices, as ``TransitionGraph`` stores them: arrays of shape
    (n_controls * R, m), where rows j * R to j * R + R - 1 hold control j's
    images.  1-D: R = 1, the ranges of ``_index_ranges``.  2-D: one range
    per window row.
    The cells touching a ball form one column interval per grid row, holding
    the centre's column, and every row of the mask ``Grid.fatten_offsets(eps)``
    is an interval centred on column 0; so the dilated image is one column
    interval per row too.  Each image is tested in a window as wide as the
    widest touch range; each window row's first and last hit column, widened
    by the half-width of each mask row, give the output rows' ends.  R counts
    the window's rows plus the mask's nonempty rows, less one; rows outside
    the grid or without a cell are empty ranges (0, 0).  The range count is
    checked against the edge cap before the arrays are allocated.

    What does not read eps, the touch ranges and in 2-D the centre images,
    is kept for every cell of the last system and grid imaged in full, and
    read for any sources on an equal grid: a later build there costs its
    fattening (and in 2-D its window test).  Per image that is 16 B in 1-D,
    as the graph's ranges, and 48 B in 2-D, where a graph at the floor or
    above has at least 13 ranges of 8 B: never more than one graph.
    """
    global _kept
    rho = sys.lipschitz * (grid.cell_diameter / 2.0) * _RADIUS_SAFETY
    if _kept is not None and _kept[0] is sys and _kept[1] == grid:
        images = [a[:, cells] for a in _kept[2]]
    else:
        if isinstance(cells, slice):
            _kept = None   # the images kept before are freed first
        centers = grid.centers()[cells]
        pts = np.stack([sys.image_points(centers, u) for u in sys.controls])
        lo, hi = zip(*(grid.axis_touch_range(pts[..., d] - rho, pts[..., d] + rho, d)
                       for d in range(grid.domain.ndim)))
        images = [*lo, *hi] if grid.domain.ndim == 1 else [pts, *lo, *hi]
        if isinstance(cells, slice):
            _kept = (sys, grid, images)
    if grid.domain.ndim == 1:
        k = 0 if eps is None else grid.fatten_offsets(eps)
        return _index_ranges(grid, images[0] - k, images[1] + k)
    pts, lo, hi = images[0], images[1:3], images[3:]
    struct = np.ones((1, 1), bool) if eps is None else grid.fatten_offsets(eps)
    struct = struct[struct.any(axis=1)]   # its empty outer rows reach no cell
    half, w0 = np.count_nonzero(struct, axis=1) // 2, struct.shape[0]
    (n0, n1), (nc, m) = grid.cells_per_dim, pts.shape[:2]
    offs = [np.arange(np.max(hi[d] - lo[d], initial=0) + 1) for d in range(2)]
    rows = offs[0].size + w0 - 1
    _check_edge_cap(nc * rows * m, "ranges")
    itype = np.int32 if grid.n_cells < 2 ** 31 else np.int64
    start, length = np.zeros((2, nc, rows, m), itype)
    step = max(1, _IMAGE_CHUNK_CELLS // (offs[0].size * offs[1].size + rows))
    for j, s in itertools.product(range(nc), range(0, m, step)):
        part = slice(s, s + step)
        sq, inside = [], []
        for d, n in enumerate(grid.cells_per_dim):
            i, p, h = lo[d][j, part, None] + offs[d], pts[j, part, d, None], grid.spacing[d]
            edge = grid.domain.bounds[d, 0] + i * h
            gap = np.maximum(np.maximum(edge - p, p - (edge + h)), 0.0)
            sq.append(gap * gap)
            inside.append((i >= 0) & (i < n) & (i <= hi[d][j, part, None]))
        hit = ((sq[0][:, :, None] + sq[1][:, None, :] <= rho * rho)
               & inside[0][:, :, None] & inside[1][:, None, :])
        some = hit.any(axis=2)
        first = np.where(some, hit.argmax(axis=2), _FAR)
        last = np.where(some, offs[1].size - 1 - hit[:, :, ::-1].argmax(axis=2), -_FAR)
        # window row a reaches output row a + t through mask row t
        c0, c1 = np.full((len(hit), rows), _FAR), np.full((len(hit), rows), -_FAR)
        for a in range(offs[0].size):
            np.minimum(c0[:, a:a + w0], first[:, a, None] - half, out=c0[:, a:a + w0])
            np.maximum(c1[:, a:a + w0], last[:, a, None] + half, out=c1[:, a:a + w0])
        i = lo[0][j, part, None] - w0 // 2 + np.arange(rows)
        c0 = np.maximum(c0 + lo[1][j, part, None], 0)
        c1 = np.minimum(c1 + lo[1][j, part, None], n1 - 1)
        on = (i >= 0) & (i < n0) & (c0 <= c1)
        start[j, :, part] = np.where(on, i * n1 + c0, 0).T
        length[j, :, part] = np.where(on, c1 - c0 + 1, 0).T
    return start.reshape(nc * rows, m), length.reshape(nc * rows, m)


def _check_edge_cap(count: int, unit: str = "edges") -> int:
    """Return ``count`` when within MAX_EXPLICIT_EDGES, else raise
    ResourceLimitError.  ``count`` counts edges, or the cell-image ranges
    that a 2-D build is about to store."""
    if count > MAX_EXPLICIT_EDGES:
        cost = (f" ({8 * count} bytes at 8 B per edge in the SCC pass)"
                if unit == "edges" else "")
        raise ResourceLimitError(
            f"transition graph needs {count} {unit}{cost}, above the edge cap "
            f"MAX_EXPLICIT_EDGES={MAX_EXPLICIT_EDGES}")
    return count


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def _param(key: str, convert, value):
    """``convert(value)``; a TypeError or ValueError it raises names ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


def rotation(theta: float) -> System:
    """Circle rotation x -> x + theta, wrapped mod 1 by the domain; isometry, L = 1."""
    th = _param("theta", float, theta)

    def f(pts, u):
        return pts + th

    return System("rotation", Domain.circle(), {"theta": th}, (None,), 1.0, f)


def square() -> System:
    """x -> x^2 on [0, 1]; L = 2."""

    def f(pts, u):
        return pts * pts

    return System("square", Domain.box([[0, 1]]), {}, (None,), 2.0, f)


def identity_map() -> System:
    """x -> x on [0, 1]; L = 1."""

    def f(pts, u):
        return pts.copy()

    return System("identity", Domain.box([[0, 1]]), {}, (None,), 1.0, f)


def logistic(r: float) -> System:
    """x -> r*x*(1-x) on [0, 1], r in (0, 4]; L = r."""
    r = _param("r", float, r)
    if not 0.0 < r <= 4.0:
        raise ValueError("key 'r' must be in (0, 4]")

    def f(pts, u):
        out = r * pts * (1.0 - pts)
        # guards float dust at r = 4, x = 0.5.  np.clip, bit for bit (on a tie
        # np.maximum returns its second argument, so -0.0 stays), without the
        # Python wrapper that costs more than the map on small batches
        return np.minimum(np.maximum(0.0, out), 1.0)

    return System("logistic", Domain.box([[0, 1]]), {"r": r}, (None,), r, f)


def constant(c: float) -> System:
    """x -> c on [0, 1]; L = 0."""
    c = _param("c", float, c)
    if not 0.0 <= c <= 1.0:
        raise ValueError("key 'c' must lie in [0, 1]")

    def f(pts, u):
        return np.full_like(pts, c)

    return System("constant", Domain.box([[0, 1]]), {"c": c}, (None,), 0.0, f)


def affine2d(m, b, bounds=((0.0, 1.0), (0.0, 1.0))) -> System:
    """x -> M x + b on a box in R^2; L = spectral norm of M.

    Self-map is checked exactly at construction: the affine image of a box is
    the convex hull of its corner images.
    """
    m = _param("m", lambda v: np.asarray(v, dtype=float).reshape(2, 2), m)
    b = _param("b", lambda v: np.asarray(v, dtype=float).reshape(2), b)
    dom = _param("bounds", Domain.box, bounds)
    if dom.ndim != 2:
        raise ValueError(f"key 'bounds' must give 2 axes, not {dom.ndim}")
    (m00, m01), (m10, m11) = m

    # elementwise, so that a point's image does not depend on its batch
    # (a matrix product may round one row and several rows differently)
    def f(pts, u):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([m00 * x + m01 * y + b[0], m10 * x + m11 * y + b[1]],
                        axis=1)

    lo, hi = dom.bounds[:, 0], dom.bounds[:, 1]
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]],
                        [hi[0], lo[1]], [hi[0], hi[1]]])
    img = f(corners, None)
    if np.any(img < lo[None, :]) or np.any(img > hi[None, :]):
        raise SelfMapError("key 'parameters': affine2d maps the domain off itself")

    lip = float(np.linalg.norm(m, 2))
    return System("affine2d", dom, {"m": m.tolist(), "b": b.tolist()},
                  (None,), lip, f)


def drift_control(a: float, controls=(-0.1, 0.0, 0.1)) -> System:
    """x -> a*x + u on [-1, 1] with finite control set; L = |a|."""
    a = _param("a", float, a)
    controls = _param("controls", lambda v: tuple(float(u) for u in v), controls)
    if not controls:
        raise ValueError("key 'controls' must be a non-empty list")
    if abs(a) + max(abs(u) for u in controls) > 1.0:
        raise SelfMapError("key 'parameters': drift_control needs |a| + max|u| <= 1")

    def f(pts, u):
        return a * pts + u

    return System("drift_control", Domain.box([[-1, 1]]),
                  {"a": a, "controls": list(controls)}, controls, abs(a), f)


CATALOG = {
    "rotation": rotation,
    "square": square,
    "identity": identity_map,
    "logistic": logistic,
    "constant": constant,
    "affine2d": affine2d,
    "drift_control": drift_control,
}


def make_system(name: str, params: dict | None = None) -> System:
    """Instantiate a catalog system by name and parameter map (CLI entry)."""
    if not isinstance(name, str) or name not in CATALOG:
        raise ValueError(f"key 'name' is {name!r}; catalog: {sorted(CATALOG)}")
    params, sig = params or {}, inspect.signature(CATALOG[name]).parameters
    for key in params:
        if key not in sig:
            raise ValueError(f"unknown key {key!r} for system {name!r}")
    for key, p in sig.items():
        if p.default is p.empty and key not in params:
            raise ValueError(f"missing key {key!r} for system {name!r}")
    return CATALOG[name](**params)
