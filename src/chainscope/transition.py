"""Fattened transition graphs on grids and reachability over them.

The graph realizes one step of the eps-perturbed dynamics at cell
granularity: cell c has an edge to every cell touching the eps-fattening of
the rigorous image of c.  Edges therefore over-approximate the perturbed
map restricted to the cell, for every point of the cell and every control.

Every cell's fattened image under every control comes from one batched
kernel, ``systems._cell_images``.  In one dimension the successor set of a
(cell, control) pair is a contiguous index range, taken modulo n, so the
graph is stored as per-control (start, length) arrays and set-valued steps run
as difference-array sweeps in O(n).  Two-dimensional graphs use an explicit
sparse boolean matrix, built from the kernel's (source, cell) pairs, which it
makes a chunk of sources at a time in windows around the image balls.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import EmptySetError, ResolutionError, ResourceLimitError
from .geometry import CellSet, Grid, _range_union
from .systems import MAX_EXPLICIT_EDGES, System, _cell_images


class _RangeGraph:
    """1-D successor ranges: under control j, successors(c) are the cells
    (start[j, c] + i) % n for 0 <= i < length[j, c].

    0 <= start < n and 1 <= length <= n.  Box ranges never pass n - 1;
    circle ranges may wrap past it, so membership is always taken modulo n.
    """

    def __init__(self, n: int, start: np.ndarray, length: np.ndarray):
        self.n = n
        self.start = start       # (n_controls, n) int64
        self.length = length

    def successors(self, c: int) -> np.ndarray:
        return np.unique(np.concatenate([
            (s + np.arange(l)) % self.n
            for s, l in zip(self.start[:, c], self.length[:, c])
        ]))

    def image_of(self, mask: np.ndarray) -> np.ndarray:
        idx = np.flatnonzero(mask.reshape(-1))
        return _range_union(self.n, self.start[:, idx].ravel(),
                            self.length[:, idx].ravel()).reshape(mask.shape)

    def preimage_of(self, mask: np.ndarray) -> np.ndarray:
        prefix = np.concatenate([[0], np.cumsum(mask.reshape(-1), dtype=np.int64)])
        ends = self.start + self.length
        # cells in [start, min(end, n)) plus, for a wrapped range, [0, end - n)
        cnt = (prefix[np.minimum(ends, self.n)] - prefix[self.start]
               + prefix[np.maximum(ends - self.n, 0)])
        return np.any(cnt > 0, axis=0).reshape(mask.shape)

    def self_loops(self) -> np.ndarray:
        return np.any((np.arange(self.n) - self.start) % self.n < self.length,
                      axis=0)

    def edge_count(self) -> int:
        return int(self.length.sum())

    def to_csr(self) -> sp.csr_matrix:
        if self.edge_count() > MAX_EXPLICIT_EDGES:
            raise ResourceLimitError("graph too dense to materialize explicitly")
        length = self.length.ravel()
        rows = np.repeat(np.tile(np.arange(self.n), self.start.shape[0]), length)
        # entry i of the range that begins at flat position p is start + (i - p)
        cols = np.arange(int(length.sum()), dtype=np.int64)
        cols += np.repeat(self.start.ravel() - (np.cumsum(length) - length), length)
        cols %= self.n
        return _csr(self.n, rows, cols)


def _csr(n: int, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """n x n 0/1 adjacency with an edge at each (row, col); repeats merge."""
    m = sp.coo_matrix((np.ones(rows.size, dtype=np.uint8), (rows, cols)),
                      shape=(n, n)).tocsr()
    m.data[:] = 1
    return m


class _CsrGraph:
    """Explicit sparse adjacency (2-D grids)."""

    def __init__(self, matrix: sp.csr_matrix):
        self.m = matrix
        self.n = matrix.shape[0]

    def successors(self, c: int) -> np.ndarray:
        return np.sort(self.m.indices[self.m.indptr[c]:self.m.indptr[c + 1]])

    def image_of(self, mask: np.ndarray) -> np.ndarray:
        vec = mask.reshape(-1).astype(np.uint8)
        return (vec @ self.m > 0).reshape(mask.shape)

    def preimage_of(self, mask: np.ndarray) -> np.ndarray:
        vec = mask.reshape(-1).astype(np.uint8)
        return (self.m @ vec > 0).reshape(mask.shape)

    def self_loops(self) -> np.ndarray:
        return self.m.diagonal().astype(bool)

    def edge_count(self) -> int:
        return int(self.m.nnz)

    def to_csr(self) -> sp.csr_matrix:
        return self.m


class TransitionGraph:
    """One-step over-approximation of the eps-perturbed multifunction."""

    def __init__(self, sys: System, grid: Grid, eps: float, impl):
        self.system = sys
        self.grid = grid
        self.eps = float(eps)
        self._impl = impl

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def successors(self, cell: int) -> np.ndarray:
        return self._impl.successors(int(cell))

    def image_of(self, cells: CellSet) -> CellSet:
        return CellSet(self.grid, self._impl.image_of(cells.mask))

    def preimage_of(self, cells: CellSet) -> CellSet:
        """Cells with at least one successor inside ``cells`` (lower pre-image)."""
        return CellSet(self.grid, self._impl.preimage_of(cells.mask))

    def self_loops(self) -> np.ndarray:
        return self._impl.self_loops().reshape(-1)

    def edge_count(self) -> int:
        return self._impl.edge_count()

    def to_csr(self) -> sp.csr_matrix:
        return self._impl.to_csr()

    def dump_edges(self, fp):
        """Textual edge list 'src -> dst1,dst2,...' sorted by src."""
        for c in range(self.n_cells):
            succ = ",".join(str(int(s)) for s in self.successors(c))
            fp.write(f"{c} -> {succ}\n")


def build_graph(sys: System, grid: Grid, eps: float) -> TransitionGraph:
    """Build the eps-fattened cell transition graph.

    Requires eps >= 4 * cell_diameter so the fattening dominates the
    discretization error; refuses silently unsound builds.
    """
    if eps < 4.0 * grid.cell_diameter * (1.0 - 1e-12):
        raise ResolutionError(
            f"eps={eps:g} below resolution coupling 4*cell_diameter="
            f"{4.0 * grid.cell_diameter:g}"
        )
    n = grid.n_cells
    a, b = _cell_images(sys, grid, slice(None), eps)
    if grid.domain.ndim == 1:
        return TransitionGraph(sys, grid, eps, _RangeGraph(n, a, b))
    a %= n   # image j * n + c is source c's under control j
    return TransitionGraph(sys, grid, eps, _CsrGraph(_csr(n, a, b)))


def _closure(step, seed: np.ndarray, depths: np.ndarray | None = None) -> np.ndarray:
    """Least superset of the seed mask closed under ``step``, by breadth-first
    sweeps; writes each newly reached cell's sweep number into ``depths``."""
    reached = seed.copy()
    frontier = seed
    level = 0
    while frontier.any():
        level += 1
        frontier = step(frontier) & ~reached
        reached |= frontier
        if depths is not None:
            depths[frontier.reshape(-1)] = level
    return reached


def forward_reach(g: TransitionGraph, start: CellSet) -> CellSet:
    """Least fixed point containing start and closed under graph successors."""
    if not start:
        raise EmptySetError("forward_reach from an empty start set")
    return CellSet(g.grid, _closure(g._impl.image_of, start.mask))


def forward_reach_depths(g: TransitionGraph, start: CellSet):
    """Forward reach plus per-cell BFS depth (-1 for unreached cells)."""
    if not start:
        raise EmptySetError("forward_reach from an empty start set")
    depths = np.full(g.n_cells, -1, dtype=np.int64)
    depths[start.indices()] = 0
    reached = _closure(g._impl.image_of, start.mask, depths)
    return CellSet(g.grid, reached), depths


def backward_reach(g: TransitionGraph, target: CellSet) -> CellSet:
    """All cells whose forward reach intersects the target."""
    if not target:
        raise EmptySetError("backward_reach to an empty target set")
    return CellSet(g.grid, _closure(g._impl.preimage_of, target.mask))


def recurrent_cells(g: TransitionGraph) -> list[CellSet]:
    """Nontrivial strongly connected components of the graph.

    A component is kept when it has at least two cells or a self-loop.
    Components come back disjoint and ordered by their smallest member index.
    """
    csr = g.to_csr()
    _, labels = connected_components(csr, directed=True, connection="strong")
    loops = g.self_loops()
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    groups = np.split(order, boundaries)
    comps = []
    for members in groups:
        if members.size >= 2 or loops[members[0]]:
            comps.append(np.sort(members))
    comps.sort(key=lambda m: int(m[0]))
    return [CellSet.from_indices(g.grid, m) for m in comps]


def extract_path(g: TransitionGraph, depths: np.ndarray, end_cell: int):
    """Backtrack a BFS path (list of cells) from a depth labelling.

    Returns cells from a depth-0 cell to ``end_cell``; each consecutive pair
    is a graph edge.  Predecessors are chosen deterministically (smallest
    index at the previous depth).
    """
    path = [int(end_cell)]
    cur = int(end_cell)
    d = int(depths[cur])
    if d < 0:
        raise ValueError("end cell was not reached")
    for level in range(d, 0, -1):
        cur_set = CellSet.from_indices(g.grid, [cur])
        preds = g.preimage_of(cur_set).indices()
        preds = preds[depths[preds] == level - 1]
        cur = int(preds[0])
        path.append(cur)
    path.reverse()
    return path


def edge_control(g: TransitionGraph, src: int, dst: int):
    """A control value under which the edge src -> dst exists."""
    impl = g._impl
    if isinstance(impl, _RangeGraph):
        hit = (dst - impl.start[:, src]) % impl.n < impl.length[:, src]
    else:
        rows, cols = _cell_images(g.system, g.grid, [src], g.eps)
        hit = np.isin(np.arange(len(g.system.controls)), rows[cols == dst])
    for u, ok in zip(g.system.controls, hit):
        if ok:
            return u
    raise ValueError(f"no edge {src} -> {dst}")
