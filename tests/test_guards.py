"""Library guards: each refused input raises its error with its message."""
import numpy as np
import pytest

from chainscope.errors import GridMismatchError, PreconditionError
from chainscope.geometry import CellSet, Domain, Grid, as_point, fatten
from chainscope.minimal import classify_component, dichotomy_report, lyapunov_stability
from chainscope.reachability import (
    chain_reach,
    orbit_reach,
    robustness_check,
    semicontinuity_probe,
)
from chainscope.systems import identity_map, square
from chainscope.transition import build_graph, extract_path, forward_reach_depths

BOX = Domain.box([[0.0, 1.0]])
G16 = Grid(BOX, 16)


def _unreached_path():
    """A path to a cell that the sweep did not reach: the identity's graph on
    the end cells 0 and 15, fattened by 4 cell diameters, has no edge
    between them."""
    cand = CellSet.from_indices(G16, [0, 15])
    g = build_graph(identity_map(), G16, G16.resolution_floor, cand)
    _, depths = forward_reach_depths(g, CellSet.from_indices(G16, [0]))
    return extract_path(g, depths, 15)


@pytest.mark.parametrize("call,error,text", [
    (lambda: fatten(CellSet.full(G16), 0.0), ValueError, "eps must be positive"),
    (lambda: as_point(np.zeros((2, 2))), ValueError, "1-dimensional"),
    (lambda: Grid(BOX, (4, 4)), ValueError, "length must match"),
    (lambda: Grid(BOX, 0), ValueError, "must be positive"),
    (lambda: CellSet(G16, np.zeros(15, bool)), ValueError, "mask shape"),
    (lambda: CellSet.from_indices(G16, [16]), ValueError, "out of range"),
    (lambda: CellSet.full(G16) | CellSet.full(G16.refine(2)), GridMismatchError,
     "different grids"),
    (lambda: classify_component(square(), CellSet.empty(G16)), PreconditionError,
     "empty component"),
    (lambda: lyapunov_stability(square(), CellSet.empty(G16), 0.1), PreconditionError,
     "empty invariant-set"),
    (lambda: dichotomy_report(square(), [0.5], 0.02, 1, robust_eps=0.0,
                              base_grid=Grid(BOX, 256)),
     ValueError, "eps must be positive"),
    (lambda: orbit_reach(square(), 0.5, G16, policy="some"), ValueError,
     "policy must be"),
    (lambda: chain_reach(square(), CellSet.full(G16), 0.3, 0), ValueError,
     "levels must be"),
    (lambda: robustness_check(square(), 0.5, 0.0), ValueError, "eps must be positive"),
    (lambda: robustness_check(square(), 0.5, 0.3, [0.1, 0.2], G16), ValueError,
     "strictly decreasing"),
    (lambda: semicontinuity_probe(square(), 0.5, 0.1, "both"), ValueError,
     "mode must be"),
    (lambda: build_graph(square(), G16, 0.3, CellSet.from_indices(G16, [3]))
     .successors(5), ValueError, "not a candidate"),
    (_unreached_path, ValueError, "not reached"),
], ids=["fatten-eps", "as-point-2d", "grid-axes", "grid-zero", "mask-shape",
        "index-range", "grids-differ", "classify-empty", "stability-empty",
        "dichotomy-robust-eps", "orbit-policy", "chain-levels", "robust-eps",
        "robust-schedule", "probe-mode", "graph-label", "path-unreached"])
def test_guard_raises(call, error, text):
    with pytest.raises(error, match=text):
        call()
