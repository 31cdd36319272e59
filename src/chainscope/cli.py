"""Command-line front end: strict JSON configs, canonical deterministic reports.

Reports are byte-identical across reruns: all floats are rendered at 12
significant digits, keys are sorted, and the timing section records
deterministic work counters (wall-clock goes to stderr).  Large payloads
(cell sets, witness chains) go to sidecar CSV files referenced from the
report by basename.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ChainscopeError,
    ConfigError,
    ControlError,
    InconclusiveError,
    ResourceLimitError,
)
from .geometry import CellSet, Grid
from .minimal import dichotomy_report, minimal_sets, weak_basin
from .reachability import (
    chain_reach,
    find_uniform_delta,
    orbit_reach,
    robustness_check,
    semicontinuity_probe,
    verify_initial_fattening,
)
from .systems import make_system

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAIL = 3
# verify lemma2 runs one radius ladder and writes one report entry per
# instance, and dichotomy certifies each sample point; this bounds both loops
# and the lemma2 report (about 130 KB at the bound)
MAX_INSTANCES = 1000

GLOBAL_KEYS = {"system", "grid"}
# verify reads "property" and the keys of that property only
VERIFY_KEYS = {
    "lemma2": {"n_max", "instances", "seed"},
    "initial-fattening": {"start", "eps0", "levels"},
    "semicontinuity": {"x", "eps", "mode"},
}
COMMAND_KEYS = {
    "reach": {"x", "policy", "max_steps", "tol"},
    "chainreach": {"start", "eps0", "levels"},
    "robust": {"x", "eps", "delta_schedule", "max_steps"},
    "minimal": {"eps0", "levels"},
    "basin": {"eps0", "levels", "component"},
    "dichotomy": {"sample_points", "eps0", "levels", "eps", "v_eps",
                  "max_steps"},
    "verify": {"property"}.union(*VERIFY_KEYS.values()),
}
COMMANDS = tuple(sorted(COMMAND_KEYS))
# the commands whose census runs the SCC pass, and so imports scipy's csgraph
SCC_COMMANDS = {"minimal", "basin", "dichotomy"}


# --------------------------------------------------------------------------
# canonical serialization
# --------------------------------------------------------------------------

def format_float(x: float) -> str:
    """12 significant digits, rounded once, without an exponent
    (0.1 + 0.2 -> 0.300000000000).

    Magnitudes from 1e11 up have no fractional digit left; they end in ".0"
    (1e12 -> 1000000000000.0) so that the report stays valid JSON.
    """
    if x == 0.0:
        return "0.000000000000"
    if not np.isfinite(x):
        raise ValueError("reports must not contain non-finite floats")
    out = format(Decimal(f"{x:.11e}"), "f")
    return out if "." in out else out + ".0"


def canonical_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("report keys must be strings")
            items.append(
                f'{pad}  {json.dumps(key)}: {canonical_dumps(obj[key], indent + 1)}'
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {canonical_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ValueError(f"cannot serialize {type(obj)!r}")


def witness_csv(rows, ndim: int) -> str:
    coords = ",".join(f"coord{i}" for i in range(ndim))
    out = [f"step,{coords},dist_to_image"]
    for row in rows:
        pt = ",".join(format_float(v) for v in row.point)
        out.append(f"{row.step},{pt},{format_float(row.dist_to_image)}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# config loading and validation
# --------------------------------------------------------------------------

def _leaves(value) -> list:
    """The values in ``value`` and its nested lists that are not lists."""
    return [w for v in value for w in _leaves(v)] if isinstance(value, list) else [value]


def _strict_object(pairs) -> dict:
    """JSON object hook: duplicate keys and NaN/Infinity are errors."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        if any(isinstance(v, float) and not math.isfinite(v) for v in _leaves(value)):
            raise ConfigError(f"key {key!r} must be finite")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """Strict JSON config; parse errors carry line/column."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_strict_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error: {exc.msg}",
                          line=exc.lineno, column=exc.colno) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _number(key: str, value, integer: bool = False):
    """A JSON number for ``key``; booleans and strings are rejected."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(
            f"key {key!r} must be {'an integer' if integer else 'a number'}")
    return value


def _positive(cfg: dict, key: str, kind=float):
    v = kind(_number(key, _require(cfg, key), integer=kind is int))
    if v <= 0:
        raise ConfigError(f"key {key!r} must be positive")
    return v


def _decreasing_schedule(raw, key):
    if not isinstance(raw, list):
        raise ConfigError(f"key {key!r} must be a strictly decreasing list")
    sched = [float(_number(key, v)) for v in raw]
    if not sched or any(b >= a for a, b in zip(sched, sched[1:])):
        raise ConfigError(f"key {key!r} must be a strictly decreasing list")
    if sched[-1] <= 0:
        raise ConfigError(f"key {key!r} entries must be positive")
    return sched


def validate_config(command: str, cfg: dict) -> dict:
    if command not in COMMAND_KEYS:
        raise ConfigError(f"unknown command {command!r}")
    allowed = GLOBAL_KEYS | COMMAND_KEYS[command]
    where = f"command {command!r}"
    prop = cfg.get("property")
    if command == "verify" and isinstance(prop, str) and prop in VERIFY_KEYS:
        allowed = GLOBAL_KEYS | {"property"} | VERIFY_KEYS[prop]
        where += f" with property {prop!r}"
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for {where}")
    sysspec = _require(cfg, "system")
    if not isinstance(sysspec, dict) or "name" not in sysspec:
        raise ConfigError("key 'system' must be an object with 'name'")
    extra = set(sysspec) - {"name", "parameters"}
    if extra:
        raise ConfigError(f"unknown key {sorted(extra)[0]!r} in 'system'")
    if not isinstance(sysspec.get("parameters", {}), dict):
        raise ConfigError("key 'parameters' in 'system' must be an object")
    if cfg.get("policy", "all") != "all" and not isinstance(cfg["policy"], list):
        raise ConfigError("key 'policy' must be 'all' or a list of controls")
    if cfg.get("mode", "usc") not in ("usc", "lsc"):
        raise ConfigError("key 'mode' must be 'usc' or 'lsc'")
    if "delta_schedule" in cfg:
        _decreasing_schedule(cfg["delta_schedule"], "delta_schedule")
    for key in ("eps", "eps0", "v_eps", "tol"):
        if key in cfg and _number(key, cfg[key]) <= 0:
            raise ConfigError(f"key {key!r} must be positive")
    for key in ("seed", "levels", "max_steps", "n_max", "instances",
                "component"):
        if key in cfg and _number(key, cfg[key], integer=True) < 0:
            raise ConfigError(f"key {key!r} must be a non-negative integer")
    if cfg.get("instances", 0) > MAX_INSTANCES:
        raise ConfigError(f"key 'instances' must be at most {MAX_INSTANCES}")
    samples = cfg.get("sample_points")
    if isinstance(samples, list) and len(samples) > MAX_INSTANCES:
        raise ConfigError(
            f"key 'sample_points' must hold at most {MAX_INSTANCES} points")
    return cfg


def _build_system(cfg: dict):
    spec = cfg["system"]
    for key, value in spec.get("parameters", {}).items():
        for v in _leaves(value):
            _number(key, v)
    try:
        return make_system(spec["name"], spec.get("parameters", {}))
    except (TypeError, ValueError, ChainscopeError) as exc:
        raise ConfigError(f"cannot build system: {exc}") from exc


def _build_grid(cfg: dict, system) -> Grid:
    gspec = _require(cfg, "grid")
    if not isinstance(gspec, dict) or "cells_per_dim" not in gspec:
        raise ConfigError("key 'grid' must be an object with 'cells_per_dim'")
    extra = set(gspec) - {"cells_per_dim"}
    if extra:
        raise ConfigError(f"unknown key {sorted(extra)[0]!r} in 'grid'")
    cells = [_number("cells_per_dim", v, integer=True)
             for v in _as_list(gspec["cells_per_dim"])]
    try:
        return Grid(system.domain, cells)
    except ValueError as exc:
        raise ConfigError(f"key 'cells_per_dim': {exc}") from exc


def _as_list(raw) -> list:
    return raw if isinstance(raw, list) else [raw]


def _coords(key: str, raw, domain) -> list[float]:
    """A point of the domain given as a number or a list of coordinates."""
    p = [float(_number(key, v)) for v in _as_list(raw)]
    if not domain.contains(p):
        raise ConfigError(f"key {key!r}: {p} is not a point of the domain "
                          f"({domain.ndim}-D {domain.kind})")
    return p


def _point(cfg, key, domain) -> list[float]:
    return _coords(key, _require(cfg, key), domain)


def _points(cfg, key, domain) -> list[list[float]]:
    raw = _require(cfg, key)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"key {key!r} must be a non-empty list of points")
    return [_coords(key, p, domain) for p in raw]


def _start_cells(cfg, grid) -> CellSet:
    return CellSet.from_points(grid, _points(cfg, "start", grid.domain))


# --------------------------------------------------------------------------
# command execution
# --------------------------------------------------------------------------

def run(command: str, cfg: dict):
    """Execute a command; returns (exit_code, outcome, work, sidecars)."""
    validate_config(command, cfg)
    system = _build_system(cfg)
    grid = _build_grid(cfg, system)
    if command in SCC_COMMANDS:
        # imported before the analysis starts, so its time counts as start-up
        import scipy.sparse.csgraph  # noqa: F401
    return globals()[f"_run_{command}"](cfg, system, grid)


def _run_reach(cfg, system, grid):
    try:
        res = orbit_reach(
            system, _point(cfg, "x", system.domain), grid,
            policy=cfg.get("policy", "all"),
            max_steps=int(cfg.get("max_steps", 200_000)),
            tol=float(cfg.get("tol", 1e-12)),
        )
    except ControlError as exc:
        raise ConfigError(f"key 'policy': {exc}") from exc
    outcome = res.as_record()
    outcome["cells_file"] = "reach_cells.csv"
    work = {"map_steps": res.steps_used}
    return EXIT_OK, outcome, work, {"reach_cells.csv": res.cells.dumps()}


def _run_chainreach(cfg, system, grid):
    res = chain_reach(
        system, _start_cells(cfg, grid),
        _positive(cfg, "eps0"), _positive(cfg, "levels", int),
    )
    outcome = res.as_record()
    outcome["final_cells_file"] = "chainreach_final.csv"
    work = {"levels": len(res.levels)}
    return EXIT_OK, outcome, work, {"chainreach_final.csv": res.final.dumps()}


def _run_robust(cfg, system, grid):
    cert = robustness_check(
        system, _point(cfg, "x", system.domain), _positive(cfg, "eps"),
        delta_schedule=cfg.get("delta_schedule"), grid=grid,
        max_steps=int(cfg.get("max_steps", 200_000)),
    )
    outcome = cert.as_record()
    sidecars = {}
    if cert.witness:
        outcome["witness_file"] = "robust_witness.csv"
        sidecars["robust_witness.csv"] = witness_csv(
            cert.witness, system.domain.ndim
        )
    work = {"deltas_checked": len(cert.checked),
            "orbit_steps": cert.orbit_steps}
    return EXIT_OK, outcome, work, sidecars


def _run_minimal(cfg, system, grid):
    eps0, levels = _positive(cfg, "eps0"), _positive(cfg, "levels", int)
    census = minimal_sets(system, eps0, levels, base_grid=grid)
    outcome = census.as_record()
    sidecars = _component_sidecars("minimal", census, outcome)
    work = {"levels": levels,
            "finest_components": len(census.components)}
    return EXIT_OK, outcome, work, sidecars


def _component_sidecars(command, census, outcome) -> dict:
    """One cell dump per census component, each named in its outcome entry."""
    sidecars = {}
    for i, comp in enumerate(census.components):
        name = f"{command}_component_{i}.csv"
        outcome["components"][i]["cells_file"] = name
        sidecars[name] = comp.cells.dumps()
    return sidecars


def _run_basin(cfg, system, grid):
    eps0, levels = _positive(cfg, "eps0"), _positive(cfg, "levels", int)
    census = minimal_sets(system, eps0, levels, base_grid=grid)
    comp_idx = int(cfg.get("component", 0))
    if comp_idx >= len(census.components):
        raise ConfigError(
            f"key 'component' is {json.dumps(comp_idx)}, out of range "
            f"({len(census.components)} components)"
        )
    comp = census.components[comp_idx]
    basin = weak_basin(system, comp.cells, invariance_eps=census.eps_finest)
    outcome = {
        "component": comp_idx,
        "component_cell_count": len(comp.cells),
        "basin_cell_count": len(basin),
        "basin_fraction": len(basin) / basin.grid.n_cells,
        "basin_file": "basin_cells.csv",
    }
    work = {"levels": levels}
    return EXIT_OK, outcome, work, {"basin_cells.csv": basin.dumps()}


def _run_dichotomy(cfg, system, grid):
    rep = dichotomy_report(
        system, _points(cfg, "sample_points", system.domain),
        eps0=_positive(cfg, "eps0"),
        levels=_positive(cfg, "levels", int),
        robust_eps=float(cfg.get("eps", 0.1)),
        v_eps=float(cfg.get("v_eps", 0.1)),
        base_grid=grid,
        orbit_max_steps=int(cfg.get("max_steps", 200_000)),
    )
    outcome = rep.as_record()
    sidecars = _component_sidecars("dichotomy", rep.census, outcome)
    work = {
        "components": len(rep.census.components),
        "samples": len(rep.sample_points),
    }
    return EXIT_OK, outcome, work, sidecars


def _run_verify(cfg, system, grid):
    prop = _require(cfg, "property")
    if prop == "lemma2":
        return _verify_uniform_delta(cfg, system, grid)
    if prop == "initial-fattening":
        res = verify_initial_fattening(
            system, _start_cells(cfg, grid),
            _positive(cfg, "eps0"), _positive(cfg, "levels", int),
        )
        code = EXIT_OK if res.equivalent else EXIT_VERIFY_FAIL
        return code, res.as_record(), {"levels": len(res.per_level)}, {}
    if prop == "semicontinuity":
        rep = semicontinuity_probe(
            system, _point(cfg, "x", system.domain), _positive(cfg, "eps"),
            cfg.get("mode", "usc"), grid=grid,
        )
        code = EXIT_OK if rep.found_delta is not None else EXIT_VERIFY_FAIL
        return code, rep.as_record(), {"deltas": len(rep.checked_deltas)}, {}
    raise ConfigError(
        f"key 'property' is {json.dumps(prop)}; expected lemma2 | "
        f"initial-fattening | semicontinuity"
    )


def _verify_uniform_delta(cfg, system, grid):
    instances = int(cfg.get("instances", 10))
    n_max = int(cfg.get("n_max", 200))
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    eps_lo = max(0.05, 8 * grid.resolution_floor)
    eps_hi = max(0.2, 2 * eps_lo)
    results = []
    failing = None
    for i in range(instances):
        eps = float(rng.uniform(eps_lo, eps_hi))
        cell = int(rng.integers(0, grid.n_cells))
        start = CellSet.from_indices(grid, [cell])
        found, rep = find_uniform_delta(system, start, eps, n_max)
        results.append({
            "instance": i, "eps": eps, "start_cell": cell, "found": found,
        })
        if found is None and failing is None:
            failing = rep.as_record() | {"instance": i, "start_cell": cell}
    outcome = {
        "property": "lemma2",
        "instances": results,
        "all_found": failing is None,
    }
    if failing is not None:
        outcome["failing_instance"] = failing
    code = EXIT_OK if failing is None else EXIT_VERIFY_FAIL
    return code, outcome, {"instances": instances, "n_max": n_max}, {}


# --------------------------------------------------------------------------
# report output and entry point
# --------------------------------------------------------------------------

def write_report(report: dict, out: str | None, sidecars: dict | None = None):
    text = canonical_dumps(report) + "\n"
    if out is None:
        sys.stdout.write(text)
        base_dir = Path.cwd()
    else:
        out_path = Path(out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
        base_dir = out_path.parent
    for name, content in (sidecars or {}).items():
        (base_dir / name).write_text(content)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainscope",
        description="Set-oriented reachability and chain-recurrence analysis",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    try:
        cfg = load_config(args.config)
        code, outcome, work, sidecars = run(args.command, cfg)
        report = {"command": args.command, "config": cfg, "outcome": outcome,
                  "timing": {"work_units": work}, "version": __version__}
        write_report(report, args.out, sidecars)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ChainscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(f"{args.command} finished in {time.monotonic() - t0:.2f}s "
              f"(wall clock; not part of the report)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
