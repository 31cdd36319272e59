"""Fattened transition graphs on grids and reachability over them.

The graph realizes one step of the eps-perturbed dynamics at cell
granularity: cell c has an edge to every cell touching the eps-fattening of
the rigorous image of c.  Edges therefore over-approximate the perturbed
map restricted to the cell, for every point of the cell and every control.

A graph may be built on a set of candidate cells only: it is then the
subgraph that the candidates induce.  The candidates, in increasing order,
are numbered 0..m-1 (``TransitionGraph.cells`` maps a number back to its
cell); the build, the sweeps and the SCC pass run on these numbers, and
results come back as full-grid cell sets.  A graph on every cell is the
same code with m = n, where each cell is numbered as itself.  Subdivision
(``minimal_sets``, ``chain_reach``) builds each level on the refinement of
the level before; see the README for why that is exact.

Every candidate's fattened image under every control comes from one batched
kernel, ``systems._cell_images``, as index ranges in 1-D and 2-D alike.  In
one dimension the successor set of a (cell, control) pair is a contiguous
index range, taken modulo n.  In two it is one column range per grid row:
the cells touching a ball form one column interval per row, holding the
centre's column, and each row of the fattening mask is an interval centred
on its middle, so the fattened image is one interval per row as well.
Among the candidates each range is still one range, taken modulo m, found
from a prefix count of the candidates.  So a ``TransitionGraph`` is its
(start, length) arrays, one block of rows per control, and set-valued steps
run as difference-array sweeps over the ranges: no sweep materializes an
edge, and a forward sweep costs the frontier's ranges and their span, not
the grid.  For the SCC pass the graph lays its ranges out as CSR, 8 bytes
per edge (int32 indices, one broadcast 1.0 as data), each cell's
ranges made disjoint and sorted first: scipy's strong
``connected_components`` (1.17) can hang on a repeated edge.  scipy is
imported by the SCC pass only, so a run without one never loads it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptySetError, GridMismatchError
from .geometry import CellSet, Grid, _range_union
from .systems import System, _cell_images, _check_edge_cap

if TYPE_CHECKING:
    import scipy.sparse as sp


class TransitionGraph:
    """One-step over-approximation of the eps-perturbed multifunction,
    induced on the candidate cells ``cells`` (increasing; every cell unless
    given).  Cells outside the candidates have no edges.

    Among the m candidates, the successors of candidate i are the candidates
    (start[r, i] + j) % m for 0 <= j < length[r, i], over every row r.  Rows
    come in one block of equal size per control of ``sys``: one range per
    control in 1-D, one per grid row of the image in 2-D.  One control's
    ranges never share a cell.  0 <= start <= m and 0 <= length <= m: a
    range is empty when no candidate lies in its cells, and starts at m,
    which is 0 modulo m, when none lies from its first cell on.  Box and 2-D
    ranges never pass m - 1; circle ranges may wrap past it, so membership
    is always taken modulo m.
    """

    def __init__(self, sys: System, grid: Grid, eps: float,
                 start: np.ndarray, length: np.ndarray, cells=None):
        self.system = sys
        self.grid = grid
        self.eps = float(eps)
        self.start = start       # (rows, m) int64, or int32 in 2-D or renumbered
        self.length = length
        self.controls = len(sys.controls)
        self.cells = np.arange(grid.n_cells) if cells is None else cells

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def _gather(self, mask: np.ndarray) -> np.ndarray:
        """A full-grid mask read at the candidates (a view when all are)."""
        flat = mask.reshape(-1)
        return flat if self.cells.size == flat.size else flat[self.cells]

    def _scatter(self, local: np.ndarray) -> np.ndarray:
        """A candidate mask written back onto the grid."""
        if local.size == self.grid.n_cells:
            return local.reshape(self.grid.shape)
        out = np.zeros(self.grid.n_cells, bool)
        out[self.cells] = local
        return out.reshape(self.grid.shape)

    def _label(self, cell: int) -> int:
        i = int(np.searchsorted(self.cells, cell))
        if i == self.cells.size or self.cells[i] != cell:
            raise ValueError(f"cell {cell} is not a candidate of this graph")
        return i

    def successors(self, cell: int) -> np.ndarray:
        i = self._label(int(cell))
        s, l = self.start[:, i], self.length[:, i]
        # one arange over all the ranges, shifted range by range onto s
        local = np.repeat(s - (np.cumsum(l) - l), l) + np.arange(l.sum())
        return self.cells[np.unique(local % self.cells.size)]

    def image_of(self, cells: CellSet) -> CellSet:
        return CellSet(self.grid, self._scatter(self._image(self._gather(cells.mask))))

    def preimage_of(self, cells: CellSet) -> CellSet:
        """Cells with at least one successor inside ``cells`` (lower pre-image)."""
        return CellSet(self.grid, self._scatter(self._preimage(self._gather(cells.mask))))

    def _image(self, local: np.ndarray) -> np.ndarray:
        """The successors of a candidate mask, as a candidate mask."""
        idx = np.flatnonzero(local)
        return _range_union(self.cells.size, self.start[:, idx].ravel(),
                            self.length[:, idx].ravel())

    def _preimage(self, local: np.ndarray) -> np.ndarray:
        """The candidates with a successor in a candidate mask."""
        m = self.cells.size
        prefix = np.concatenate([[0], np.cumsum(local, dtype=np.int64)])
        ends = self.start + self.length
        # cells in [start, min(end, m)) plus, for a wrapped range, [0, end - m)
        cnt = (prefix[np.minimum(ends, m)] - prefix[self.start]
               + prefix[np.maximum(ends - m, 0)])
        return np.any(cnt > 0, axis=0)

    def _hits(self, src, dst: int) -> np.ndarray:
        """Per row and candidate in ``src``: whether its range holds ``dst``."""
        return (dst - self.start[:, src]) % self.cells.size < self.length[:, src]

    def self_loops(self) -> np.ndarray:
        """Per candidate, in candidate order: whether it is its own successor."""
        return np.any(self._hits(slice(None), np.arange(self.cells.size)), axis=0)

    def edge_count(self) -> int:
        """Distinct edges: ranges of several controls may share a cell."""
        if self.controls == 1:
            return int(self.length.sum())
        return int(self._disjoint_ranges()[2].sum())

    def to_csr(self) -> sp.csr_matrix:
        """The adjacency among the candidates, numbered 0..m-1, as CSR at 8
        bytes per edge; row i lists i's successors in order, once each.  The
        int32 indices are each range's first column, less its offset among
        the indices, repeated over the range, plus one arange in place.  The
        data is one read-only 1.0, broadcast: the SCC pass never reads it."""
        import scipy.sparse as sp

        m = self.cells.size
        start, length, row_len = self._disjoint_ranges()
        edges = _check_edge_cap(int(row_len.sum()))
        indices = np.repeat((start - (np.cumsum(length) - length)).astype(np.int32), length)
        indices += np.arange(edges, dtype=np.int32)
        del start, length
        indptr = np.concatenate([[0], np.cumsum(row_len)])
        return sp.csr_matrix((np.broadcast_to(1.0, edges), indices, indptr),
                             shape=(m, m))

    def _disjoint_ranges(self):
        """Each cell's successors as sorted disjoint ranges that do not wrap:
        (start, length) in cell order, and the successor count per cell."""
        m = self.cells.size
        if not m:
            return (np.zeros(0, np.int64),) * 3
        # pieces [lo, hi): each range's wrapped part (lo = 0; empty unless it
        # wraps), then the ranges, shifted by cell * (m + 1).  One control's
        # ranges are disjoint and in order already; several controls' are
        # sorted by start, and one running max of hi merges them cell by cell
        start, end = self.start, self.start + self.length
        if self.controls > 1:
            order = np.argsort(start, axis=0, kind="stable")
            start, end = (np.take_along_axis(x, order, 0) for x in (start, end))
        lo = np.concatenate([0 * end, start])
        hi = np.concatenate([np.maximum(end - m, 0), np.minimum(end, m)])
        shift = (m + 1) * np.arange(m)
        lo, hi = (lo + shift).T.ravel(), (hi + shift).T.ravel()
        if self.controls > 1:
            hi = np.maximum.accumulate(hi)
            first = np.flatnonzero(np.concatenate([[True], lo[1:] > hi[:-1]]))
            lo, hi = lo[first], hi[np.append(first[1:], lo.size) - 1]
        length = hi - lo
        start, length = lo[length > 0], length[length > 0]
        cell = start // (m + 1)
        return start - cell * (m + 1), length, np.bincount(cell, length, m).astype(np.int64)


def build_graph(sys: System, grid: Grid, eps: float,
                cells: CellSet | None = None) -> TransitionGraph:
    """Build the eps-fattened cell transition graph, on the candidate
    ``cells`` only when given (the subgraph they induce).

    Requires eps >= grid.resolution_floor so the fattening dominates the
    discretization error; refuses silently unsound builds.
    """
    grid.check_resolution(eps, "eps")
    if cells is not None and cells.grid != grid:
        raise GridMismatchError("candidate cells live on another grid")
    n = grid.n_cells
    mask = np.ones(n, bool) if cells is None else cells.mask.reshape(-1)
    idx = np.flatnonzero(mask)
    m = idx.size
    sources, rank = slice(None), None   # every cell a candidate: c is numbered c
    if m < n:
        # rank[c]: the candidates below cell c, over two turns of the grid,
        # so that the cells [a, b) hold rank[b] - rank[a] candidates even past n
        sources, rank = idx, np.zeros(2 * n + 1, np.int32 if n < 2 ** 30 else np.int64)
        np.cumsum(np.tile(mask, 2), out=rank[1:])
    start, length = _cell_images(sys, grid, sources, eps)
    if rank is not None:
        start, length = rank[start], rank[start + length] - rank[start]
    return TransitionGraph(sys, grid, eps, start, length, idx)


def _closure(g: TransitionGraph, step, seed: CellSet,
             depths: np.ndarray | None = None,
             allowed: CellSet | None = None) -> CellSet | None:
    """Least superset of the seed closed under ``step``, a map of candidate
    masks, by breadth-first sweeps; writes each newly reached candidate's
    sweep number into ``depths``.  Seed cells that are not candidates are
    kept, and have no edges.  Given ``allowed``, returns None as soon as a
    sweep (or the seed) reaches a cell outside it.  An empty seed is an
    error, named for the forward sweeps."""
    if not seed:
        raise EmptySetError("forward_reach from an empty start set")
    if allowed is not None:
        if not seed.issubset(allowed):
            return None
        outside = ~g._gather(allowed.mask)
    frontier = g._gather(seed.mask)
    reached = frontier.copy()
    level = 0
    while frontier.any():
        level += 1
        frontier = step(frontier) & ~reached
        if allowed is not None and (frontier & outside).any():
            return None
        reached |= frontier
        if depths is not None:
            depths[frontier] = level
    return CellSet(g.grid, g._scatter(reached) | seed.mask)


def forward_reach(g: TransitionGraph, start: CellSet) -> CellSet:
    """Least fixed point containing start and closed under graph successors."""
    return _closure(g, g._image, start)


def _reach_within(g: TransitionGraph, start: CellSet, allowed: CellSet) -> bool:
    """Whether ``forward_reach(g, start)`` lies inside ``allowed``; the sweep
    stops at the first level that leaves it."""
    return _closure(g, g._image, start, allowed=allowed) is not None


def forward_reach_depths(g: TransitionGraph, start: CellSet):
    """Forward reach plus per-cell BFS depth (-1 for unreached cells)."""
    local = np.where(g._gather(start.mask), 0, -1)
    reached = _closure(g, g._image, start, local)
    depths = np.full(g.n_cells, -1, dtype=np.int64)
    depths[g.cells] = local
    depths[start.indices()] = 0
    return reached, depths


def backward_reach(g: TransitionGraph, target: CellSet) -> CellSet:
    """All cells whose forward reach intersects the target."""
    if not target:
        raise EmptySetError("backward_reach to an empty target set")
    return _closure(g, g._preimage, target)


def recurrent_cells(g: TransitionGraph) -> list[CellSet]:
    """Nontrivial strongly connected components of the graph.

    A component is kept when it has at least two cells or a self-loop.
    Components come back disjoint and ordered by their smallest member index.
    """
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(g.to_csr(), directed=True,
                                     connection="strong")
    kept = np.bincount(labels) >= 2
    kept[labels[g.self_loops()]] = True
    cells = np.flatnonzero(kept[labels])
    if not cells.size:
        return []
    cells = cells[np.argsort(labels[cells], kind="stable")]
    groups = np.split(cells, np.flatnonzero(np.diff(labels[cells])) + 1)
    return [CellSet.from_indices(g.grid, g.cells[m])
            for m in sorted(groups, key=lambda m: m[0])]


def extract_path(g: TransitionGraph, depths: np.ndarray, end_cell: int):
    """Backtrack a BFS path (list of cells) from a depth labelling.

    Returns cells from a depth-0 cell to ``end_cell``; each consecutive pair
    is a graph edge.  Predecessors are chosen deterministically (smallest
    index at the previous depth): only the cells at that depth are tested
    for an edge into the current cell.  One stable sort by depth makes each
    depth a slice in index order.
    """
    path = [int(end_cell)]
    d = int(depths[end_cell])
    if d < 0:
        raise ValueError("end cell was not reached")
    if d:
        local = np.minimum(depths[g.cells], d)   # the deeper cells are never read
        order = np.argsort(local, kind="stable")
        first = np.searchsorted(local[order], np.arange(d + 1))
        cur = g._label(int(end_cell))
        for level in range(d, 0, -1):
            preds = order[first[level - 1]:first[level]]
            cur = int(preds[np.argmax(np.any(g._hits(preds, cur), axis=0))])
            path.append(int(g.cells[cur]))
    path.reverse()
    return path


def edge_control(g: TransitionGraph, src: int, dst: int):
    """A control value under which the edge src -> dst exists: the first,
    in ``sys.controls`` order, whose block of rows holds dst."""
    hit = g._hits(g._label(int(src)), g._label(int(dst)))
    for u, ok in zip(g.system.controls, hit.reshape(g.controls, -1)):
        if ok.any():
            return u
    raise ValueError(f"no edge {src} -> {dst}")
