"""The benchmark's four CLI workloads: seeded configs and output checks.

Each workload is one ``chainscope`` command on a fixed system and grid. The
seed draws only inputs that the checked outcome does not depend on (sample
points and start points), so every seed must pass the same checks.

A check reads the report and its sidecar CSVs from the run's output
directory and returns a list of failure messages; an empty list passes.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = 0.6180339887498949
AFFINE_M = [[0.5, 0.1], [0.0, 0.6]]
AFFINE_B = [0.2, 0.15]
# square certifies robust at the first radius (delta = eps/2) for every start
# in this range, so the seeded sample does not change the solve's work
SQUARE_ROBUST_RANGE = (0.05, 0.6)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[random.Random, bool], dict]
    check: Callable[[dict, dict, Path], list]


def _read_cells(path: Path) -> set:
    """Sidecar cell dump: one cell per line, per-dimension indices."""
    cells = set()
    for line in path.read_text().splitlines():
        idx = tuple(int(v) for v in line.split(","))
        cells.add(idx[0] if len(idx) == 1 else idx)
    return cells


def _finest_cells(cfg: dict) -> int:
    return cfg["grid"]["cells_per_dim"][0] * 2 ** (cfg["levels"] - 1)


# --------------------------------------------------------------------------
# basin-square
# --------------------------------------------------------------------------

def _basin_config(rng: random.Random, tiny: bool) -> dict:
    return {
        "system": {"name": "square"},
        "grid": {"cells_per_dim": [64 if tiny else 512]},
        "eps0": 0.1 if tiny else 0.01,
        "levels": 1,
    }


def _basin_check(cfg: dict, report: dict, out_dir: Path) -> list:
    out = report["outcome"]
    n = round(out["basin_cell_count"] / out["basin_fraction"])
    basin = _read_cells(out_dir / out["basin_file"])
    errors = []
    if len(basin) != out["basin_cell_count"]:
        errors.append("basin sidecar size differs from basin_cell_count")
    if 0 not in basin:
        errors.append("cell 0 is not in the weak basin of {0}")
    if n - 1 in basin:
        errors.append("the top cell (point 1) is in the weak basin of {0}")
    return errors


# --------------------------------------------------------------------------
# dichotomy-golden
# --------------------------------------------------------------------------

def _golden_config(rng: random.Random, tiny: bool) -> dict:
    return {
        "system": {"name": "rotation", "parameters": {"theta": GOLDEN}},
        "grid": {"cells_per_dim": [96 if tiny else 512]},
        "eps0": 0.05 if tiny else 0.01,
        "levels": 2,
        "sample_points": [rng.random(), rng.random()],
    }


def _golden_check(cfg: dict, report: dict, out_dir: Path) -> list:
    out = report["outcome"]
    errors = []
    if out["minimal_count"] != "1":
        errors.append(f"minimal_count is {out['minimal_count']!r}, not '1'")
        return errors
    n = _finest_cells(cfg)
    cells = _read_cells(out_dir / out["components"][0]["cells_file"])
    if cells != set(range(n)):
        errors.append(f"the component covers {len(cells)} of {n} finest cells")
    for i, cert in enumerate(out["robustness"]):
        if cert["verdict"] != "robust-at-resolution":
            errors.append(f"sample {i} is {cert['verdict']}")
    return errors


# --------------------------------------------------------------------------
# dichotomy-square
# --------------------------------------------------------------------------

def _square_config(rng: random.Random, tiny: bool) -> dict:
    return {
        "system": {"name": "square"},
        "grid": {"cells_per_dim": [512 if tiny else 16384]},
        "eps0": 0.01 if tiny else 0.002,
        "levels": 2 if tiny else 3,
        "sample_points": [1.0, rng.uniform(*SQUARE_ROBUST_RANGE)],
    }


def _square_check(cfg: dict, report: dict, out_dir: Path) -> list:
    out = report["outcome"]
    errors = []
    if out["minimal_count"] != "finite>1":
        errors.append(f"minimal_count is {out['minimal_count']!r}, not 'finite>1'")
    n = _finest_cells(cfg)
    expect = {0: "stable-certified", n - 1: "unstable-witnessed"}
    for cell, flag in expect.items():
        owners = [
            c for c in out["components"]
            if cell in _read_cells(out_dir / c["cells_file"])
        ]
        if len(owners) != 1:
            errors.append(f"{len(owners)} components hold cell {cell}")
        elif owners[0]["stability"] != flag:
            errors.append(f"the component of cell {cell} is "
                          f"{owners[0]['stability']}, not {flag}")
    one, seeded = out["robustness"]
    if one["verdict"] != "non-robust-at-resolution":
        errors.append(f"sample 1.0 is {one['verdict']}")
    elif not one["endpoint_distance"] > one["eps"]:
        errors.append("the witness endpoint is within eps of the reach")
    elif not one["witness_length"] > 0:
        errors.append("sample 1.0 has an empty witness")
    if seeded["verdict"] != "robust-at-resolution":
        errors.append(f"the seeded sample is {seeded['verdict']}")
    return errors


# --------------------------------------------------------------------------
# chainreach-2d
# --------------------------------------------------------------------------

def _affine_config(rng: random.Random, tiny: bool) -> dict:
    return {
        "system": {"name": "affine2d",
                   "parameters": {"m": AFFINE_M, "b": AFFINE_B}},
        "grid": {"cells_per_dim": [8, 8] if tiny else [16, 16]},
        "eps0": 0.75 if tiny else 0.36,
        "levels": 2,
        "start": [[rng.random(), rng.random()]],
    }


def _affine_orbit(start, max_steps: int = 10_000) -> list:
    """The true orbit of the affine map from start, up to a fixed point.

    Computed here in plain Python, independently of the program under test.
    """
    (a, b), (c, d) = AFFINE_M
    pts = [tuple(start)]
    for _ in range(max_steps):
        x, y = pts[-1]
        nxt = (a * x + b * y + AFFINE_B[0], c * x + d * y + AFFINE_B[1])
        if nxt == pts[-1]:
            break
        pts.append(nxt)
    return pts


def _affine_check(cfg: dict, report: dict, out_dir: Path) -> list:
    out = report["outcome"]
    final = _read_cells(out_dir / out["final_cells_file"])
    if len(final) != out["final_cell_count"]:
        return ["final sidecar size differs from final_cell_count"]
    n = _finest_cells(cfg)
    orbit = [
        tuple(min(max(math.floor(v * n), 0), n - 1) for v in p)
        for p in _affine_orbit(cfg["start"][0])
    ]
    errors = []
    if orbit[0] not in final:
        errors.append("the final cell set misses the start cell")
    missed = set(orbit) - final
    if missed:
        errors.append(f"the final cell set misses {len(missed)} cells of the "
                      f"sampled orbit from the start")
    return errors


# why each workload was chosen is recorded with it in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload("basin-square", "basin", _basin_config, _basin_check),
        Workload("dichotomy-golden", "dichotomy", _golden_config, _golden_check),
        Workload("dichotomy-square", "dichotomy", _square_config, _square_check),
        Workload("chainreach-2d", "chainreach", _affine_config, _affine_check),
    )
}


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The workload's config for this seed; the same seed gives the same config."""
    return WORKLOADS[name].make_config(random.Random(seed), tiny)


def check_output(name: str, cfg: dict, out_dir: Path) -> list:
    """Failure messages for one run's report and sidecars in out_dir."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
        return WORKLOADS[name].check(cfg, report, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
