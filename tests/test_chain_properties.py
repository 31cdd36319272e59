"""Soundness property: graph reach contains every true eps-chain.

An eps-chain starts at a point x0 and steps to any point within eps of
f(x_k, u_k).  The fattened transition graph over-approximates one such step
from every point of a cell, so forward reach from the cell of x0 must hold
the cell of every chain point.  Hypothesis draws the system, grid, eps and
chain; the runs are derandomized so the test is repeatable.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.geometry import CellSet, Grid
from chainscope.systems import (
    affine2d,
    drift_control,
    logistic,
    rotation,
    square,
)
from chainscope.transition import build_graph, forward_reach

# a perturbation a hair inside the eps-ball, so rounding cannot push it out
INSIDE = 1.0 - 1e-9
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

unit = st.floats(0.0, 1.0)
signed = st.floats(-1.0, 1.0)


def chain_stays_in_reach(sys, grid, eps, x0, steps, perturb):
    """Walk the chain from x0, perturbing each image by ``perturb(y, t)``;
    every step must be a graph edge and every point inside the reach."""
    g = build_graph(sys, grid, eps)
    reach = forward_reach(g, CellSet.from_points(grid, [x0]))
    x = sys.domain.canon(x0)
    for j, t in steps:
        u = sys.controls[j % len(sys.controls)]
        y = sys.image_points(x[None, :], u)[0]
        src, x = grid.cell_of(x), perturb(y, t)
        assert grid.cell_of(x) in g.successors(src), (x0, x)
        assert grid.cell_of(x) in reach, (x0, x)


def clip_to(domain, y):
    return np.clip(y, domain.bounds[:, 0], domain.bounds[:, 1])


@SETTINGS
@given(which=st.sampled_from(["square", "logistic", "drift_control"]),
       cells=st.integers(16, 160), mult=st.floats(1.0, 3.0), x=unit,
       steps=st.lists(st.tuples(st.integers(0, 2), signed), max_size=15))
def test_box_1d_chains_stay_in_reach(which, cells, mult, x, steps):
    sys = {"square": square, "logistic": lambda: logistic(3.8),
           "drift_control": lambda: drift_control(0.5)}[which]()
    grid = Grid(sys.domain, cells)
    eps = mult * 4 * grid.cell_diameter
    lo, hi = sys.domain.bounds[0]
    chain_stays_in_reach(
        sys, grid, eps, [lo + x * (hi - lo)], steps,
        lambda y, t: clip_to(sys.domain, y + t * eps * INSIDE))


@SETTINGS
@given(theta=unit, cells=st.integers(16, 160), mult=st.floats(1.0, 3.0),
       x=unit, steps=st.lists(st.tuples(st.just(0), signed), max_size=15))
def test_circle_chains_stay_in_reach(theta, cells, mult, x, steps):
    sys = rotation(theta)
    grid = Grid(sys.domain, cells)
    eps = mult * 4 * grid.cell_diameter
    chain_stays_in_reach(sys, grid, eps, [x], steps,
                         lambda y, t: (y + t * eps * INSIDE) % 1.0)


@SETTINGS
@given(m=st.sampled_from([
           ([[0.5, 0.1], [0.0, 0.6]], [0.2, 0.15]),
           ([[0.4, 0.0], [0.1, 0.3]], [0.25, 0.25]),
           ([[0.3, 0.2], [-0.1, 0.4]], [0.3, 0.3]),
       ]),
       cells=st.tuples(st.integers(8, 48), st.integers(8, 48)),
       mult=st.floats(1.0, 2.0), x=st.tuples(unit, unit),
       steps=st.lists(st.tuples(st.just(0), st.tuples(unit, unit)),
                      max_size=12))
def test_box_2d_chains_stay_in_reach(m, cells, mult, x, steps):
    sys = affine2d(*m)
    grid = Grid(sys.domain, cells)
    eps = mult * 4 * grid.cell_diameter

    def perturb(y, t):
        angle, r = 2 * np.pi * t[0], t[1] * eps * INSIDE
        return clip_to(sys.domain, y + r * np.array([np.cos(angle),
                                                     np.sin(angle)]))

    chain_stays_in_reach(sys, grid, eps, list(x), steps, perturb)
