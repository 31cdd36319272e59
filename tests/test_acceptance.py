"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
from chainscope.cli import main as cli_main
from chainscope.geometry import CellSet, Domain, Grid, fatten, hausdorff
from chainscope.minimal import (
    classify_component,
    dichotomy_report,
    lyapunov_stability,
    omega_limit,
)
from chainscope.reachability import (
    chain_reach,
    replay_certificate,
    robustness_check,
    verify_initial_fattening,
)
from chainscope.systems import constant, identity_map, logistic, rotation, square
from chainscope.transition import build_graph, forward_reach, recurrent_cells

BOX = Domain.box([[0.0, 1.0]])
GOLDEN = 0.6180339887


@contextmanager
def criterion(name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.monotonic() - t0:.1f}s)")


def test_criterion_1_rotation_census():
    with criterion("1 [rotation census]"):
        t0 = time.monotonic()
        g = Grid(Domain.circle(), 3 * 2 ** 10)
        eps0 = 4 * g.cell_diameter
        sys3 = rotation(1.0 / 3.0)
        for k in range(2):
            grid_k = g.refine(2 ** k)
            comps = recurrent_cells(build_graph(sys3, grid_k, eps0 / 2 ** k))
            assert len(comps) == 1
            assert comps[0] == CellSet.full(grid_k)   # full circle per level
        for p in np.linspace(0.0, 0.9, 10):
            cls = classify_component(sys3, CellSet.from_points(g, [[p]]))
            assert cls.kind == "periodic" and cls.period == 3
        assert time.monotonic() - t0 < 10.0

        t1 = time.monotonic()
        rep = dichotomy_report(rotation(GOLDEN), [[0.37]], eps0=eps0,
                               levels=2, base_grid=g)
        assert rep.census.count == "1"
        assert len(rep.census.components[0].cells) == rep.census.grid_finest.n_cells
        assert time.monotonic() - t1 < 10.0


def test_criterion_2_square_non_robustness():
    with criterion("2 [square non-robust at 1]"):
        t0 = time.monotonic()
        g = Grid(BOX, 2 ** 16)
        schedule = [0.05 / 2 ** k for k in range(8)] + [2.0 ** -12]
        cert = robustness_check(square(), 1.0, 0.1, schedule, g)
        assert cert.verdict == "non-robust-at-resolution"
        assert cert.delta_min == 2.0 ** -12
        assert cert.endpoint_distance > 0.1
        assert all(w.dist_to_image < 2.0 ** -12 for w in cert.witness[1:])
        assert replay_certificate(square(), cert, 1.0, g)

        res = lyapunov_stability(square(), CellSet.from_points(g, [[1.0]]), 0.1)
        assert res.flag == "unstable-witnessed"
        res = lyapunov_stability(square(), CellSet.from_points(g, [[0.0]]), 0.1)
        assert res.flag == "stable-certified"
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_square_robust_at_zero():
    with criterion("3 [square robust at 0]"):
        g = Grid(BOX, 2 ** 14)
        cert = robustness_check(square(), 0.0, 0.1, grid=g)
        assert cert.verdict == "robust-at-resolution"
        assert cert.delta_found >= 0.02
        # replay: inclusion exact at cell granularity
        assert replay_certificate(square(), cert, 0.0, g)


def test_criterion_4_identity_converse_failure():
    with criterion("4 [identity converse failure]"):
        t0 = time.monotonic()
        start = CellSet.from_points(Grid(BOX, 40), [[0.5]])
        res = chain_reach(identity_map(), start, 0.1, 4)
        for lv in res.levels:
            assert len(lv.cells) == lv.grid.n_cells   # 100% coverage
        rep = dichotomy_report(identity_map(), [[0.5]], eps0=0.04, levels=3,
                               base_grid=Grid(BOX, 128))
        assert rep.census.count == "unbounded-at-resolution"
        assert all(c.verdict == "non-robust-at-resolution"
                   for c in rep.robustness)
        assert any("non-robust samples" in n for n in rep.notes)
        assert time.monotonic() - t0 < 10.0


def test_criterion_5_uniform_delta_suite(tmp_path):
    with criterion("5 [uniform-delta verification suite]"):
        for name, params, cells in [
            ("square", {}, 512),
            ("rotation", {"theta": 1.0 / 3.0}, 512),
        ]:
            cfg = {
                "system": {"name": name, "parameters": params},
                "grid": {"cells_per_dim": [cells]},
                "property": "lemma2",
                "instances": 50,
                "n_max": 200,
                "seed": 2024,
            }
            path = tmp_path / f"lemma2_{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"lemma2_{name}_report.json"
            code = cli_main(["verify", "--config", str(path),
                             "--out", str(out), "--quiet"])
            assert code == 0
            rep = json.loads(out.read_text())
            assert rep["outcome"]["all_found"] is True
            assert len(rep["outcome"]["instances"]) == 50


def test_criterion_6_initial_fattening_equivalence():
    with criterion("6 [initial-fattening equivalence]"):
        cases = [
            (identity_map(), 0.5, Grid(BOX, 64), 2),
            (square(), 1.0, Grid(BOX, 256), 2),
            (constant(0.3), 0.3, Grid(BOX, 256), 2),
        ]
        for sys, x, base, levels in cases:
            start = CellSet.from_points(base, [[x]])
            plain = chain_reach(sys, start, 0.1, levels)
            fat = chain_reach(sys, start, 0.1, levels, fatten_start=True)
            d = hausdorff(plain.final, fat.final)
            diam = plain.levels[-1].grid.cell_diameter
            assert d <= diam + 1e-12, (sys.name, d, diam)
            rep = verify_initial_fattening(sys, start, 0.1, levels)
            assert rep.equivalent


def test_criterion_7_invariant_suites():
    with criterion("7 [invariant suites]"):
        # (a) oracle equivalence on <= 64-cell grids: exact match
        rng = np.random.default_rng(100)
        for sys, dom in [(square(), BOX), (rotation(0.23), Domain.circle()),
                         (constant(0.3), BOX)]:
            g = Grid(dom, 64)
            gr = build_graph(sys, g, 4 * g.cell_diameter)
            adj = np.zeros((64, 64), dtype=bool)
            for c in range(64):
                adj[c, gr.successors(c)] = True
            closure = np.eye(64, dtype=bool) | adj
            while True:
                nxt = closure | (closure @ closure)
                if np.array_equal(nxt, closure):
                    break
                closure = nxt
            for _ in range(20):
                s = int(rng.integers(64))
                bfs = forward_reach(gr, CellSet.from_indices(g, [s]))
                assert np.array_equal(bfs.mask.reshape(-1), closure[s])

        # (b) 100 random true orbits per system: zero escapes
        for sys in (square(), logistic(3.6), rotation(GOLDEN)):
            g = Grid(sys.domain, 400)
            gr = build_graph(sys, g, 4 * g.cell_diameter)
            lo, hi = sys.domain.bounds[:, 0], sys.domain.bounds[:, 1]
            escapes = 0
            for _ in range(100):
                x = lo + rng.random(sys.domain.ndim) * (hi - lo)
                reach = forward_reach(gr, CellSet.from_indices(g, [g.cell_of(x)]))
                pt = x
                for _ in range(200):
                    pt = sys.image_points(pt[None, :], sys.controls[0])[0]
                    if g.cell_of(pt) not in reach:
                        escapes += 1
                        break
            assert escapes == 0

        # (c) chain-reach level monotonicity: zero violations
        for sys, x in [(square(), 1.0), (constant(0.3), 0.9),
                       (identity_map(), 0.2)]:
            start = CellSet.from_points(Grid(BOX, 64), [[x]])
            res = chain_reach(sys, start, 0.1, 3)
            for prev, cur in zip(res.levels, res.levels[1:]):
                assert cur.cells.issubset(fatten(prev.cells.refine(2), prev.eps))


def test_criterion_8_determinism(tmp_path):
    with criterion("8 [determinism + omega limit]"):
        cfg = {
            "system": {"name": "logistic", "parameters": {"r": 2.8}},
            "grid": {"cells_per_dim": [256]},
            "sample_points": [0.3],
            "eps0": 0.05,
            "levels": 2,
        }
        path = tmp_path / "det.json"
        path.write_text(json.dumps(cfg))
        blobs = []
        for tag in ("run1", "run2"):
            out = tmp_path / f"det_{tag}.json"
            code = cli_main(["dichotomy", "--config", str(path),
                             "--out", str(out), "--quiet"])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

        g = Grid(BOX, 2048)
        res = omega_limit(logistic(2.8), 0.3, g)
        want = g.cell_of(0.642857142857)
        got = res.cells.indices()
        assert res.stabilized and got.size == 1
        assert abs(int(got[0]) - want) <= 1
