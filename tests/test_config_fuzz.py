"""Config fuzzer: malformed and extreme values for every key of every command.

Each example takes a valid config of one command on a tiny 1-D or 2-D grid,
for a catalog system, drops keys (the system's name and parameters
included) or sets them to wrong types, zero, negatives, 1e-300, 1e300 or
empty and nested lists, and runs the CLI in process. The run must end within
a wall budget and a traced-memory budget with exit code 0-3 and no
traceback, and every ``config error:`` or ``resource error:`` line must name
a key, as ``key '<k>'`` or as its quoted subject, or a cap by its name.
"""
import contextlib
import inspect
import io
import json
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.cli import COMMAND_KEYS, GLOBAL_KEYS, VERIFY_KEYS, main
from chainscope.systems import CATALOG

BUDGET_S = 5.0
PEAK_BYTES = 32 * 2 ** 20   # tracemalloc peak; the largest seen is under 1 MB
# per dimension: system, cells_per_dim, a point, a start list, eps0 and eps,
# each valid on that grid
SYSTEMS = {
    1: ({"name": "square"}, [64], 0.5, [[0.5]], 0.1, 0.2),
    2: ({"name": "affine2d", "parameters": {"m": [[0.5, 0.1], [0, 0.6]],
                                            "b": [0.2, 0.15]}},
        [8, 8], [0.3, 0.4], [[0.3, 0.4]], 0.75, 1.5),
}
# the catalog's 1-D systems, drawn in place of SYSTEMS[1]'s; drift_control's
# domain is [-1, 1], so eps0 and eps fall below its resolution floor
SYSTEMS_1D = [
    {"name": "square"}, {"name": "identity"},
    {"name": "logistic", "parameters": {"r": 3.2}},
    {"name": "rotation", "parameters": {"theta": 0.3}},
    {"name": "constant", "parameters": {"c": 0.25}},
    {"name": "drift_control", "parameters": {"a": 0.5}},
]
VALUES = [
    "x", True, None, {}, {"a": 1}, 0, -1, -2.5, 1e-300, 1e300, -1e300, 0.5, 2,
    [], [[]], [[[]]], [1e300], [0.5], [[0.5]], [[0.5, 0.5]], [[1e-300, 2]],
    "all", "usc", "lemma2",
]
# every parameter of every catalog system
PARAMETERS = {p for f in CATALOG.values() for p in inspect.signature(f).parameters}
# the keys a message may name: every config key and the nested ones
NAMES = (GLOBAL_KEYS | {"property", "cells_per_dim", "name", "parameters"}
         | set().union(*COMMAND_KEYS.values()) | PARAMETERS)
CAPS = ("CHAINSCOPE_MAX_CELLS=", "MAX_EXPLICIT_EDGES=")


def base_config(command: str, prop: str | None, ndim: int) -> dict:
    system, cells, x, start, eps0, eps = SYSTEMS[ndim]
    cfg = {"system": system, "grid": {"cells_per_dim": cells}}
    cfg.update({
        "reach": {"x": x, "max_steps": 1000},
        "chainreach": {"start": start, "eps0": eps0, "levels": 2},
        "robust": {"x": x, "eps": eps},
        "minimal": {"eps0": eps0, "levels": 2},
        "basin": {"eps0": eps0, "levels": 1, "component": 0},
        "dichotomy": {"sample_points": start, "eps0": eps0, "levels": 1,
                      "eps": eps, "v_eps": eps},
        "verify": {
            "lemma2": {"n_max": 10, "instances": 2},
            "initial-fattening": {"start": start, "eps0": eps0, "levels": 2},
            "semicontinuity": {"x": x, "eps": eps},
        }.get(prop, {}) | {"property": prop},
    }[command])
    return json.loads(json.dumps(cfg))


@st.composite
def configs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    prop = draw(st.sampled_from(sorted(VERIFY_KEYS))) if command == "verify" else None
    ndim = draw(st.sampled_from([1, 2]))
    cfg = base_config(command, prop, ndim)
    if ndim == 1:
        cfg["system"] = json.loads(json.dumps(draw(st.sampled_from(SYSTEMS_1D))))
    keys = sorted(GLOBAL_KEYS | COMMAND_KEYS[command]
                  | {"grid.cells_per_dim", "system.name"}
                  | {f"system.parameters.{p}" for p in PARAMETERS})
    for _ in range(draw(st.integers(1, 3))):
        *path, key = draw(st.sampled_from(keys)).split(".")
        target = cfg
        for step in path:
            if isinstance(target, dict) and step == "parameters":
                target.setdefault(step, {})   # square and identity take none
            target = target.get(step) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            continue
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            # a catalog name about as often as a malformed one
            names = sorted(CATALOG) * 3 if key == "name" else []
            target[key] = draw(st.sampled_from(names + VALUES))
    return command, cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=configs())
def test_fuzzed_configs_end_in_a_named_error_or_a_report(case):
    command, cfg = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path),
                             "--out", str(Path(tmp) / "r.json"), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.monotonic() - t0
    text = err.getvalue()
    assert elapsed < BUDGET_S, (elapsed, cfg)
    assert peak < PEAK_BYTES, (peak, cfg)
    assert code in (0, 1, 2, 3), (code, text)
    assert "Traceback" not in text
    for line in text.splitlines():
        if line.startswith(("config error:", "resource error:")):
            named = set(re.findall(r"(?:key |^\w+ error: )'([\w-]+)'", line)) & NAMES
            assert named or any(c in line for c in CAPS), line
