"""The report corpus: CLI configs whose output bytes are pinned in
``report_manifest.json``.

Each entry runs one command in process through ``chainscope.cli.main`` and
records its exit code and the sha256 of
- stderr, less the wall-clock line;
- the report without its ``timing`` section, and of ``timing`` alone;
- each sidecar file.

``CHAINSCOPE_MAX_CELLS`` is unset for every entry that does not set it.
``test_report_manifest.py`` checks every entry against the manifest.

To rewrite the manifest, run from the repository root

    PYTHONPATH=src python tests/report_corpus.py

It prints the entries that moved. A change that moves report bytes
regenerates the manifest and names the moved entries in CHANGES.md.
With ``--check`` it prints the moved entries and exits 1 if any moved,
leaving the manifest as it is. Any other argument exits 2 with a usage
line and runs nothing.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from chainscope.cli import main

MANIFEST = Path(__file__).resolve().parent / "report_manifest.json"
CAP = "CHAINSCOPE_MAX_CELLS"
WALL_CLOCK = "(wall clock; not part of the report)\n"

_SQUARE = {"name": "square"}
_GOLDEN = {"name": "rotation", "parameters": {"theta": 0.6180339887498949}}
_AFFINE = {"name": "affine2d",
           "parameters": {"m": [[0.5, 0.1], [0.0, 0.6]], "b": [0.2, 0.15]}}
_DRIFT = {"name": "drift_control", "parameters": {"a": 0.5}}

# name -> the command, its config and, optionally, its CHAINSCOPE_MAX_CELLS.
# The benchmark workloads (perfbench/workloads.py) at seeds 0, 1 and 47,
# tiny and full; basin-square draws nothing from its seed, so it has one
# config per size.
CORPUS = {
    "basin-square-tiny": ("basin", {
        "system": _SQUARE, "grid": {"cells_per_dim": [64]},
        "eps0": 0.1, "levels": 1}),
    "basin-square-full": ("basin", {
        "system": _SQUARE, "grid": {"cells_per_dim": [512]},
        "eps0": 0.01, "levels": 1}),
    "dichotomy-golden-0-tiny": ("dichotomy", {
        "system": _GOLDEN, "grid": {"cells_per_dim": [96]}, "eps0": 0.05,
        "levels": 2, "sample_points": [0.8444218515250481, 0.7579544029403025]}),
    "dichotomy-golden-0-full": ("dichotomy", {
        "system": _GOLDEN, "grid": {"cells_per_dim": [512]}, "eps0": 0.01,
        "levels": 2, "sample_points": [0.8444218515250481, 0.7579544029403025]}),
    "dichotomy-golden-1-tiny": ("dichotomy", {
        "system": _GOLDEN, "grid": {"cells_per_dim": [96]}, "eps0": 0.05,
        "levels": 2, "sample_points": [0.13436424411240122, 0.8474337369372327]}),
    "dichotomy-golden-1-full": ("dichotomy", {
        "system": _GOLDEN, "grid": {"cells_per_dim": [512]}, "eps0": 0.01,
        "levels": 2, "sample_points": [0.13436424411240122, 0.8474337369372327]}),
    "dichotomy-golden-47-tiny": ("dichotomy", {
        "system": _GOLDEN, "grid": {"cells_per_dim": [96]}, "eps0": 0.05,
        "levels": 2, "sample_points": [0.35184625582788265, 0.430186245990098]}),
    "dichotomy-golden-47-full": ("dichotomy", {
        "system": _GOLDEN, "grid": {"cells_per_dim": [512]}, "eps0": 0.01,
        "levels": 2, "sample_points": [0.35184625582788265, 0.430186245990098]}),
    "dichotomy-square-0-tiny": ("dichotomy", {
        "system": _SQUARE, "grid": {"cells_per_dim": [512]}, "eps0": 0.01,
        "levels": 2, "sample_points": [1.0, 0.5144320183387764]}),
    "dichotomy-square-0-full": ("dichotomy", {
        "system": _SQUARE, "grid": {"cells_per_dim": [16384]}, "eps0": 0.002,
        "levels": 3, "sample_points": [1.0, 0.5144320183387764]}),
    "dichotomy-square-1-tiny": ("dichotomy", {
        "system": _SQUARE, "grid": {"cells_per_dim": [512]}, "eps0": 0.01,
        "levels": 2, "sample_points": [1.0, 0.12390033426182066]}),
    "dichotomy-square-1-full": ("dichotomy", {
        "system": _SQUARE, "grid": {"cells_per_dim": [16384]}, "eps0": 0.002,
        "levels": 3, "sample_points": [1.0, 0.12390033426182066]}),
    "dichotomy-square-47-tiny": ("dichotomy", {
        "system": _SQUARE, "grid": {"cells_per_dim": [512]}, "eps0": 0.01,
        "levels": 2, "sample_points": [1.0, 0.24351544070533543]}),
    "dichotomy-square-47-full": ("dichotomy", {
        "system": _SQUARE, "grid": {"cells_per_dim": [16384]}, "eps0": 0.002,
        "levels": 3, "sample_points": [1.0, 0.24351544070533543]}),
    "chainreach-2d-0-tiny": ("chainreach", {
        "system": _AFFINE, "grid": {"cells_per_dim": [8, 8]}, "eps0": 0.75,
        "levels": 2, "start": [[0.8444218515250481, 0.7579544029403025]]}),
    "chainreach-2d-0-full": ("chainreach", {
        "system": _AFFINE, "grid": {"cells_per_dim": [16, 16]}, "eps0": 0.36,
        "levels": 2, "start": [[0.8444218515250481, 0.7579544029403025]]}),
    "chainreach-2d-1-tiny": ("chainreach", {
        "system": _AFFINE, "grid": {"cells_per_dim": [8, 8]}, "eps0": 0.75,
        "levels": 2, "start": [[0.13436424411240122, 0.8474337369372327]]}),
    "chainreach-2d-1-full": ("chainreach", {
        "system": _AFFINE, "grid": {"cells_per_dim": [16, 16]}, "eps0": 0.36,
        "levels": 2, "start": [[0.13436424411240122, 0.8474337369372327]]}),
    "chainreach-2d-47-tiny": ("chainreach", {
        "system": _AFFINE, "grid": {"cells_per_dim": [8, 8]}, "eps0": 0.75,
        "levels": 2, "start": [[0.35184625582788265, 0.430186245990098]]}),
    "chainreach-2d-47-full": ("chainreach", {
        "system": _AFFINE, "grid": {"cells_per_dim": [16, 16]}, "eps0": 0.36,
        "levels": 2, "start": [[0.35184625582788265, 0.430186245990098]]}),
    # each reach mode
    "reach-1d": ("reach", {
        "system": {"name": "logistic", "parameters": {"r": 3.2}},
        "grid": {"cells_per_dim": [256]}, "x": 0.3}),
    "reach-policy-list": ("reach", {
        "system": _DRIFT, "grid": {"cells_per_dim": [64]}, "x": 0.3,
        "policy": [0.1, -0.1, 0.0]}),
    "reach-policy-all": ("reach", {
        "system": _DRIFT, "grid": {"cells_per_dim": [64]}, "x": 0.3,
        "policy": "all"}),
    "reach-2d": ("reach", {
        "system": _AFFINE, "grid": {"cells_per_dim": [16, 16]},
        "x": [0.9, 0.9]}),
    # x + theta is -1e-17: one % rounds it to 1.0, the circle's wrap to 0.0
    "reach-rotation-edge": ("reach", {
        "system": {"name": "rotation", "parameters": {"theta": -1e-17}},
        "grid": {"cells_per_dim": [64]}, "x": 0.0}),
    # the other commands
    "chainreach-circle": ("chainreach", {
        "system": {"name": "rotation", "parameters": {"theta": 0.3}},
        "grid": {"cells_per_dim": [64]}, "start": [0.1], "eps0": 0.1,
        "levels": 2}),
    "minimal-drift": ("minimal", {
        "system": _DRIFT, "grid": {"cells_per_dim": [256]}, "eps0": 0.1,
        "levels": 2}),
    "basin-drift": ("basin", {
        "system": _DRIFT, "grid": {"cells_per_dim": [256]}, "eps0": 0.1,
        "levels": 2, "component": 0}),
    # censuses whose level 0 starts 16 and 4 subdivision steps coarser
    "minimal-affine2d-48": ("minimal", {
        "system": _AFFINE, "grid": {"cells_per_dim": [48, 48]}, "eps0": 0.12,
        "levels": 2}),
    "minimal-logistic-100": ("minimal", {
        "system": {"name": "logistic", "parameters": {"r": 3.2}},
        "grid": {"cells_per_dim": [100]}, "eps0": 0.05, "levels": 3}),
    "dichotomy-drift": ("dichotomy", {
        "system": _DRIFT, "grid": {"cells_per_dim": [256]}, "eps0": 0.1,
        "levels": 2, "sample_points": [0.3, -0.6]}),
    # census and stability orbits cut by their step budget
    "dichotomy-square-short-budget": ("dichotomy", {
        "system": _SQUARE, "grid": {"cells_per_dim": [512]}, "eps0": 0.01,
        "levels": 2, "sample_points": [0.0, 1.0], "max_steps": 10}),
    "robust-robust": ("robust", {
        "system": _SQUARE, "grid": {"cells_per_dim": [256]}, "x": 0.3,
        "eps": 0.1}),
    "robust-non-robust": ("robust", {
        "system": _SQUARE, "grid": {"cells_per_dim": [4096]}, "x": 1.0,
        "eps": 0.1}),
    "verify-lemma2": ("verify", {
        "system": _SQUARE, "grid": {"cells_per_dim": [256]},
        "property": "lemma2", "instances": 5, "n_max": 50, "seed": 1}),
    "verify-initial-fattening": ("verify", {
        "system": {"name": "identity"}, "grid": {"cells_per_dim": [64]},
        "property": "initial-fattening", "start": [0.2], "eps0": 0.1,
        "levels": 2}),
    "verify-semicontinuity": ("verify", {
        "system": _SQUARE, "grid": {"cells_per_dim": [256]},
        "property": "semicontinuity", "x": 0.5, "eps": 0.1, "mode": "usc"}),
    # exit 3: a semicontinuity violation
    "verify-semicontinuity-violation": ("verify", {
        "system": _SQUARE, "grid": {"cells_per_dim": [1024]},
        "property": "semicontinuity", "x": 1.0, "eps": 0.1, "mode": "usc"}),
    # exit 2: the sampled reach does not converge
    "robust-inconclusive": ("robust", {
        "system": {"name": "rotation", "parameters": {"theta": 0.6180339887}},
        "grid": {"cells_per_dim": [512]}, "x": 0.0, "eps": 0.05,
        "max_steps": 5}),
    # exit 1: a config error and a resource error
    "config-unknown-key": ("robust", {
        "system": _SQUARE, "grid": {"cells_per_dim": [64]}, "x": 0.5,
        "eps": 0.1, "colour": "red"}),
    "resource-cell-cap": ("robust", {
        "system": _SQUARE, "grid": {"cells_per_dim": [256]}, "x": 0.5,
        "eps": 0.1}, "100"),
}


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _split_timing(text: str) -> tuple[str, str | None]:
    """The report without its top-level ``timing`` section, and the section."""
    lines = text.splitlines(keepends=True)
    top = [i for i, line in enumerate(lines) if line.startswith('  "')] + [len(lines) - 1]
    for a, b in zip(top, top[1:]):
        if lines[a].startswith('  "timing": '):
            return "".join(lines[:a] + lines[b:]), "".join(lines[a:b])
    return text, None


def run_entry(name: str, workdir: Path) -> dict:
    """Run one corpus entry in ``workdir`` and return its manifest record."""
    command, cfg, *cap = CORPUS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path, out_dir = workdir / "config.json", workdir / "out"
    cfg_path.write_text(json.dumps(cfg))
    saved = os.environ.pop(CAP, None)
    if cap:
        os.environ[CAP] = cap[0]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg_path),
                         "--out", str(out_dir / "report.json")])
    finally:
        os.environ.pop(CAP, None)
        if saved is not None:
            os.environ[CAP] = saved
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.endswith(WALL_CLOCK))
    record = {"exit": code, "stderr": _sha(stderr.encode()), "report": None,
              "timing": None, "sidecars": {}}
    for path in sorted(out_dir.iterdir()) if out_dir.exists() else ():
        if path.name == "report.json":
            report, timing = _split_timing(path.read_text())
            record["report"] = _sha(report.encode())
            record["timing"] = timing and _sha(timing.encode())
        else:
            record["sidecars"][path.name] = _sha(path.read_bytes())
    return record


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def main_regenerate(check: bool = False) -> int:
    old = load_manifest()["entries"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = {name: run_entry(name, Path(tmp) / name) for name in CORPUS}
    moved = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            print(f"removed: {name}")
        elif name not in old:
            print(f"added: {name}")
        elif old[name] != new[name]:
            fields = [k for k in new[name] if old[name].get(k) != new[name][k]]
            print(f"moved: {name} ({', '.join(fields)})")
        else:
            continue
        moved += 1
    if check:
        return 1 if moved else 0
    MANIFEST.write_text(json.dumps({"versions": versions(), "entries": new},
                                   indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        print("usage: python tests/report_corpus.py [--check]", file=sys.stderr)
        sys.exit(2)
    sys.exit(main_regenerate(check=sys.argv[1:] == ["--check"]))
