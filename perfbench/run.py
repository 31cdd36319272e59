"""chainscope benchmark: CLI workloads, one fresh process per command.

Usage (from anywhere in a source checkout):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Load shape: a closed loop with one client. Commands run one at a time, each
in a fresh interpreter, because that is how a user runs the tool; runs repeat
until ``--seconds`` have passed (at least MIN_RUNS times). The seed draws the
workload's sample or start points; the program receives only the generated
config file.

With ``--trace 0`` it reports the end-to-end metrics, medians over the runs:
``solve_s`` (analysis call until report and sidecars are written),
``setup_s`` (process start until the analysis call) and ``peak_rss_mb``.
The host's speed drifts by tens of percent over minutes, so the two times
are given in reference seconds: the wall time scaled by CALIB_REF_S over the
time of a fixed calibration kernel run in the same process just after the
command (see child.py). The wall times are printed and stored beside them
as ``solve_wall_s`` and ``setup_wall_s``.
With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of ``tracer.LAYER_METRICS``, plus the tracing overhead.

Every run's output is checked (``workloads.py``) outside the timed interval,
and all runs at one seed must write byte-identical reports and sidecars. A
run that fails either check, or exits non-zero, counts as failed. The last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a result file with run metadata goes to ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
from workloads import WORKLOADS, check_output, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
MIN_RUNS = 3          # untraced runs; also the traced pairs with --trace 1
# A command takes a few seconds; these caps keep a hung one from pushing a
# run past three minutes.
CHILD_TIMEOUT_S = 40
MIN_RUNS_WITHIN_S = 60
# the calibration kernel's typical time on a 2-core x86 host at 2.1 GHz
CALIB_REF_S = 0.15
# per-command figures; median, max and count are printed for each
FIGURES = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
           "solve_wall_s": "s", "setup_wall_s": "s", "calib_s": "s"}
END_TO_END = {m: FIGURES[m] for m in ("solve_s", "setup_s", "peak_rss_mb")}


@dataclass
class Run:
    """One CLI command in its own process."""
    out_dir: Path
    traced: bool
    rc: int | None = None
    setup_wall_s: float | None = None
    solve_wall_s: float | None = None
    calib_s: float | None = None
    setup_s: float | None = None       # in reference seconds
    solve_s: float | None = None
    peak_rss_mb: float | None = None
    layers: dict | None = None
    digest: str = ""
    errors: list = field(default_factory=list)


def run_command(name: str, cfg_path: Path, out_dir: Path, traced: bool) -> Run:
    """Start the CLI in a fresh process, wait for it and read its timings."""
    run = Run(out_dir, traced)
    out_dir.mkdir(parents=True)
    marks_path = out_dir.with_suffix(".marks.json")
    trace_path = out_dir.with_suffix(".trace.json")
    argv = [sys.executable, str(CHILD), str(marks_path),
            str(trace_path) if traced else "-",
            WORKLOADS[name].command, "--config", str(cfg_path),
            "--out", str(out_dir / "report.json"), "--quiet"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(out_dir.with_suffix(".stderr"), "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    run.rc = proc.returncode = os.waitstatus_to_exitcode(status)
    run.peak_rss_mb = usage.ru_maxrss / 1024.0
    if run.rc != 0:
        run.errors.append(f"exit code {run.rc}")
        return run
    try:
        marks = json.loads(marks_path.read_text())
        run.setup_wall_s = marks["solve_start"] - spawn
        run.solve_wall_s = marks["solve_end"] - marks["solve_start"]
        run.calib_s = marks["calib_s"]
        scale = CALIB_REF_S / run.calib_s
        run.setup_s = run.setup_wall_s * scale
        run.solve_s = run.solve_wall_s * scale
        if traced:
            report_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
            run.layers = tracer.layer_metrics(
                json.loads(trace_path.read_text()), report_bytes)
    except (OSError, ValueError, KeyError) as exc:
        run.errors.append(f"no timings from the child: {exc!r}")
    return run


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _summary(values: list) -> dict:
    """Median, and the highest percentile n samples support (their max)."""
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values)}


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload for ``seconds`` and return its checked result."""
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(name, seed, tiny)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    # Repeat until the next round would end past ``seconds``, judged by the
    # median round so far, so a run's length stays close to ``seconds``.
    runs: list[Run] = []
    rounds: list[float] = []
    start = time.monotonic()

    def another_round() -> bool:
        elapsed = time.monotonic() - start
        if len(rounds) < MIN_RUNS:
            return elapsed < MIN_RUNS_WITHIN_S
        return elapsed + statistics.median(rounds) <= seconds

    while another_round():
        t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            runs.append(run_command(name, cfg_path, work / f"run{len(runs)}",
                                    traced))
        rounds.append(time.monotonic() - t0)

    # output checks, outside every timed interval
    for r in runs:
        if r.rc == 0:
            r.errors += check_output(name, cfg, r.out_dir)
            r.digest = _digest(r.out_dir)
    digests = [r.digest for r in runs if r.digest]
    if digests:
        reference = max(digests, key=digests.count)
        for r in runs:
            if r.digest and r.digest != reference:
                r.errors.append("report or sidecars differ from the other runs")
    failed = sum(bool(r.errors) for r in runs)

    plain = [r for r in runs if not r.traced and not r.errors]
    timings = {}
    if plain:
        timings = {m: _summary([getattr(r, m) for r in plain])
                   for m in FIGURES}
    errors = [f"run {i}: {e}" for i, r in enumerate(runs) for e in r.errors]
    if trace:
        traced = [r for r in runs if r.traced and not r.errors]
        layers, differ = tracer.combine_runs([r.layers for r in traced])
        errors += [f"count {m} differs between traced runs" for m in differ]
        if traced and plain:
            layers["trace.solve_s"] = statistics.median(
                r.solve_wall_s for r in traced)
            layers["trace.overhead_s"] = (layers["trace.solve_s"]
                                          - timings["solve_wall_s"]["median"])
        metrics = {m: {"value": layers[m], "unit": unit}
                   for m, unit in tracer.LAYER_METRICS.items() if m in layers}
        absent = sorted(set(tracer.LAYER_METRICS) - set(layers))
    else:
        metrics = {m: {"value": timings[m]["median"], "unit": unit}
                   for m, unit in END_TO_END.items() if m in timings}
        absent = []
    correct = not errors and bool(plain) and (not trace or bool(metrics))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "config": cfg, "meta": run_metadata(),
        "correct": correct, "attempted": len(runs), "failed": failed,
        "failed_frac": failed / len(runs), "timings": timings,
        "metrics": metrics, "absent": absent, "errors": errors,
        "runs": [{"traced": r.traced, "rc": r.rc, "errors": r.errors}
                 | {m: getattr(r, m) for m in FIGURES} for r in runs],
    }


def print_summary(res: dict):
    print(f"{res['workload']} seed={res['seed']} trace={int(res['trace'])}: "
          f"{res['attempted']} runs, {res['failed']} failed, "
          f"failed_frac {res['failed_frac']:.3f} ratio")
    for m, s in res["timings"].items():
        print(f"  {m:<12} median {s['median']:.4f} {FIGURES[m]}  "
              f"max {s['max']:.4f} {FIGURES[m]}  n={s['n']}")
    if res["trace"]:
        solve = res["metrics"].get("trace.solve_s", {}).get("value")
        for m, v in res["metrics"].items():
            share = (f"  {v['value'] / solve:6.1%} of trace.solve_s"
                     if solve and m.endswith(".self_s") else "")
            print(f"  {m:<44} {v['value']:.6g} {v['unit']}{share}")
        for m in res["absent"]:
            print(f"  {m:<44} absent")
    for e in res["errors"]:
        print(f"  error: {e}")


def result_line(results: list) -> dict:
    """The last stdout line; metric names carry the workload when several ran."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v
                   for r in results for m, v in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chainscope" / "cli.py").is_file():
        print(f"error: no chainscope sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        results.append(res)
        result_dir = OUT / "results"
        result_dir.mkdir(parents=True, exist_ok=True)
        (result_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(res, indent=1, default=str) + "\n")
        print_summary(res)

    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
