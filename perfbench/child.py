"""Run one chainscope CLI command in this fresh process and time its phases.

Usage: python3 child.py MARKS_JSON TRACE_JSON|- COMMAND --config ... --out ...

Writes MARKS_JSON with the CLOCK_MONOTONIC instants at which the command's
analysis call began and at which the CLI returned (report and sidecars
written). The parent took the instant before it started
this process, so set-up time (interpreter start, imports, config load and
validation, system and grid construction) is ``solve_start - spawn``.

Then, outside both intervals, it times a fixed calibration kernel
(``calib_s``). The host's speed drifts by tens of percent over minutes and
the kernel slows with it, so times divided by ``calib_s`` from the same
process moments later are steady where wall seconds are not.
With a TRACE_JSON path, spans around chainscope's public functions are
recorded and written there when the command ends.
"""
import json
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter steps and numpy calls, like the
    per-step orbit loops and the vectorized graph code of the program."""
    import numpy as np

    start = time.perf_counter()
    x = np.zeros(1)
    seen = {}
    for i in range(60_000):
        x = x * 0.5 + 0.25
        seen[i % 97] = float(x[0])
    v = np.arange(50_000, dtype=float)
    for _ in range(60):
        v = np.sort(np.sqrt(v + 1.0))
    return time.perf_counter() - start


def main() -> int:
    marks_path, trace_path, *cli_args = sys.argv[1:]
    from chainscope import cli

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    # The analysis call is the command's handler, which cli.run looks up in
    # the module namespace after validation and system and grid construction.
    boundary = f"_run_{cli_args[0]}"
    if not hasattr(cli, boundary):
        boundary = "run"
    analysis = getattr(cli, boundary)

    def timed_analysis(*args, **kwargs):
        marks.setdefault("solve_start", time.monotonic())
        return analysis(*args, **kwargs)

    setattr(cli, boundary, timed_analysis)
    rc = cli.main(cli_args)
    marks["solve_end"] = time.monotonic()
    marks["calib_s"] = calibrate()
    with open(marks_path, "w") as fp:
        json.dump(marks, fp)
    if tracer is not None:
        with open(trace_path, "w") as fp:
            json.dump(tracer.dump(), fp)
    return rc


if __name__ == "__main__":
    sys.exit(main())
