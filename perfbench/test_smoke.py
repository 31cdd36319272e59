"""Smoke test of the benchmark itself: every workload once at a tiny grid.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository
root.
"""
import json
import shutil
import subprocess
import sys

import run
import tracer
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_result(res, kind):
    line = json.loads(json.dumps(run.result_line([res])))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, res["errors"]
    assert line["attempted"] >= run.MIN_RUNS and line["failed"] == 0
    assert {m: v["unit"] for m, v in line["metrics"].items()} == _names(kind)
    assert all(isinstance(v["value"], (int, float))
               for v in line["metrics"].values())
    assert set(res["meta"]) == {"git_sha", "nproc", "python", "numpy",
                                "scipy", "src_lines"}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(run.END_TO_END.items()) == set(_names("end_to_end").items())
    assert tracer.LAYER_METRICS == _names("per_layer")


def test_every_workload_tiny():
    for name in WORKLOADS:
        _check_result(run.measure(name, 3, 0, trace=False, tiny=True),
                      "end_to_end")
        _check_result(run.measure(name, 3, 0, trace=True, tiny=True),
                      "per_layer")


def test_missing_function_is_absent_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    from chainscope import cli, minimal, transition  # noqa: F401

    monkeypatch.delattr(minimal, "omega_limit")
    monkeypatch.delattr(transition, "forward_reach_depths")
    t = tracer.Tracer()
    t.install()
    assert t.missing == ["transition.forward_reach_depths",
                         "minimal.omega_limit"]
    layers = tracer.layer_metrics(t.dump(), 10)
    assert not any(m.startswith("minimal.omega_limit") for m in layers)
    assert layers["transition.sweep.calls"] == 0


def test_fails_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "basin-square",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""

