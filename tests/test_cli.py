import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainscope
from chainscope import cli, orbits
from chainscope.cli import (
    canonical_dumps,
    format_float,
    load_config,
    main,
    run,
    validate_config,
)
from chainscope.errors import ConfigError


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_cli(args):
    return main(args)


# --------------------------------------------------------------------------
# canonical serialization
# --------------------------------------------------------------------------

def test_float_formatting_rule():
    assert format_float(0.1 + 0.2) == "0.300000000000"
    assert format_float(0.0) == "0.000000000000"
    assert format_float(1.0) == "1.00000000000"
    assert format_float(0.5) == "0.500000000000"
    assert format_float(-2.5e-7) == "-0.000000250000000000"


@settings(derandomize=True, deadline=None, max_examples=500)
@given(x=st.floats(allow_nan=False, allow_infinity=False).filter(bool))
def test_float_formatting_has_twelve_significant_digits(x):
    s = format_float(x)
    assert float(s) == float(f"{x:.11e}")
    whole, frac = s.lstrip("-").split(".")
    if len(whole) > 11:   # from 1e11 up: all 12 digits left of the point
        assert frac == "0" and set(whole[12:]) <= {"0"}
    else:
        assert len((whole + frac).lstrip("0")) == 12


def test_float_formatting_large_magnitudes_stay_json():
    # below 1e11 the rendering is unchanged
    assert format_float(99999999999.9) == "99999999999.9"
    assert format_float(1e10) == "10000000000.0"
    assert format_float(1e11) == "100000000000.0"
    assert format_float(-1e12) == "-1000000000000.0"
    big = format_float(1e300)
    assert big.endswith(".0") and json.loads(big) == 1e300


def test_canonical_dumps_sorted_keys_and_floats():
    out = canonical_dumps({"b": 0.1 + 0.2, "a": [1, True, None]})
    assert out.index('"a"') < out.index('"b"')
    assert "0.300000000000" in out


def test_config_roundtrip_canonical(tmp_path):
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "x": 0.5, "eps": 0.1}
    path = write_cfg(tmp_path, "c.json", cfg)
    loaded = load_config(path)
    assert canonical_dumps(loaded) == canonical_dumps(json.loads(json.dumps(cfg)))


def test_parse_error_carries_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"system": \n  oops}')
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert exc.value.line == 2


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_unknown_key_rejected():
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "x": 0.5, "eps": 0.1, "wibble": 3}
    with pytest.raises(ConfigError, match="wibble"):
        validate_config("robust", cfg)


def test_key_for_wrong_command_rejected():
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "x": 0.5, "eps0": 0.1, "levels": 2}
    with pytest.raises(ConfigError, match="eps0"):
        validate_config("robust", cfg)


def test_negative_eps_rejected():
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "x": 0.5, "eps": -0.1}
    with pytest.raises(ConfigError, match="eps"):
        validate_config("robust", cfg)


def test_schedule_must_decrease():
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [256]},
           "x": 0.5, "eps": 0.1, "delta_schedule": [0.01, 0.02]}
    with pytest.raises(ConfigError, match="delta_schedule"):
        validate_config("robust", cfg)


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

def test_exit_codes_per_command(tmp_path):
    base = {"system": {"name": "square"}, "grid": {"cells_per_dim": [256]}}
    cases = [
        ("reach", base | {"x": 0.5}),
        ("chainreach", base | {"start": [0.5], "eps0": 0.1, "levels": 2,
                               "grid": {"cells_per_dim": [40]}}),
        ("robust", base | {"x": 0.0, "eps": 0.1}),
        ("minimal", base | {"eps0": 0.05, "levels": 2}),
        ("basin", base | {"eps0": 0.1, "levels": 2, "component": 0,
                          "grid": {"cells_per_dim": [64]}}),
        ("dichotomy", base | {"sample_points": [0.5], "eps0": 0.05,
                              "levels": 2}),
    ]
    for i, (command, cfg) in enumerate(cases):
        path = write_cfg(tmp_path, f"{command}.json", cfg)
        out = str(tmp_path / f"{command}_report.json")
        code = run_cli([command, "--config", path, "--out", out, "--quiet"])
        assert code == 0, command
        report = json.loads((tmp_path / f"{command}_report.json").read_text())
        assert report["command"] == command
        assert report["version"] == "0.1.0"


def test_non_robust_finding_still_exits_zero(tmp_path):
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [4096]},
           "x": 1.0, "eps": 0.1}
    path = write_cfg(tmp_path, "r.json", cfg)
    out = str(tmp_path / "rep.json")
    assert run_cli(["robust", "--config", path, "--out", out, "--quiet"]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["outcome"]["verdict"] == "non-robust-at-resolution"
    csv = (tmp_path / "robust_witness.csv").read_text().splitlines()
    assert csv[0] == "step,coord0,dist_to_image"
    assert csv[1].startswith("0,1.00000000000,")


def test_malformed_config_exit_one(tmp_path):
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "x": 0.5, "eps": -1.0}
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert run_cli(["robust", "--config", path, "--quiet"]) == 1


def test_inconclusive_exit_two(tmp_path):
    cfg = {"system": {"name": "rotation", "parameters": {"theta": 0.6180339887}},
           "grid": {"cells_per_dim": [512]}, "x": 0.0, "eps": 0.05,
           "max_steps": 5}
    path = write_cfg(tmp_path, "inc.json", cfg)
    assert run_cli(["robust", "--config", path, "--quiet"]) == 2


def test_grid_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAINSCOPE_MAX_CELLS", "100")
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [256]},
           "x": 0.5, "eps": 0.1}
    path = write_cfg(tmp_path, "cap.json", cfg)
    assert run_cli(["robust", "--config", path, "--quiet"]) == 1


def test_grid_cap_counts_cells_exactly(tmp_path, monkeypatch, capsys):
    # 2^64 cells: a product in int64 would wrap to 0 and pass the cap
    monkeypatch.delenv("CHAINSCOPE_MAX_CELLS", raising=False)
    cfg = {"system": {"name": "affine2d",
                      "parameters": {"m": [[0.5, 0.1], [0.0, 0.6]], "b": [0.2, 0.15]}},
           "grid": {"cells_per_dim": [2 ** 32, 2 ** 32]}, "x": [0.5, 0.5]}
    path = write_cfg(tmp_path, "huge_grid.json", cfg)
    assert run_cli(["reach", "--config", path, "--quiet"]) == 1
    assert "CHAINSCOPE_MAX_CELLS" in capsys.readouterr().err


_SQUARE = '"system": {"name": "square"}, "grid": {"cells_per_dim": [64]}'
_AFFINE = ('"system": {"name": "affine2d", "parameters": {"m": [[0.5, 0.1], '
           '[0.0, 0.6]], "b": [0.2, 0.15]}}, "grid": {"cells_per_dim": [16, 16]}, '
           '"x": [0.5, 0.5]')


@pytest.mark.parametrize("command,text,key", [
    ("robust", '{%s, "x": 0.5, "eps": Infinity}' % _SQUARE, "eps"),
    ("robust", '{%s, "x": 0.5, "eps": NaN}' % _SQUARE, "eps"),
    ("robust", '{%s, "x": 0.5, "eps": "abc"}' % _SQUARE, "eps"),
    ("robust", '{%s, "x": "abc", "eps": 0.1}' % _SQUARE, "x"),
    ("robust", '{"system": {"name": "square"}, '
               '"grid": {"cells_per_dim": ["x"]}, "x": 0.5, "eps": 0.1}',
     "cells_per_dim"),
    ("verify", '{%s, "property": "lemma2", "instances": 2, "n_max": 5, '
               '"seed": -3}' % _SQUARE, "seed"),
    ("minimal", '{%s, "eps0": 0.1, "levels": true}' % _SQUARE, "levels"),
    ("robust", '{%s, "x": 0.5, "eps": 0.1, "eps": 0.2}' % _SQUARE, "eps"),
    ("reach", '{%s, "x": 0.5, "policy": "abc"}' % _SQUARE, "policy"),
    ("reach", '{%s, "x": 0.5, "policy": 5}' % _SQUARE, "policy"),
    ("reach", '{"system": {"name": "drift_control", "parameters": {"a": 0.5}}, '
              '"grid": {"cells_per_dim": [64]}, "x": 0.3, "policy": [0.7]}',
     "policy"),
    ("verify", '{%s, "property": "semicontinuity", "x": 0.5, "eps": 0.1, '
               '"mode": "xyz"}' % _SQUARE, "mode"),
    ("robust", '{"system": {"name": "square", "parameters": "zz"}, '
               '"grid": {"cells_per_dim": [64]}, "x": 0.5, "eps": 0.1}',
     "parameters"),
    ("reach", '{%s, "domain": 5}' % _AFFINE, "domain"),
    ("reach", '{%s, "domain": [1, 2]}' % _AFFINE, "domain"),
    ("reach", '{%s, "domain": {}}' % _AFFINE, "domain"),
    ("reach", '{%s, "domain": {"bounds": [[0, 1]]}}' % _AFFINE, "domain"),
    ("reach", '{%s, "domain": {"bounds": [[0, 1], [0, 1]], "extra": 1}}' % _AFFINE,
     "domain"),
    ("robust", '{%s, "x": [0.5, 0.5], "eps": 0.3}' % _SQUARE, "x"),
    ("robust", '{%s, "x": 5.0, "eps": 0.3}' % _SQUARE, "x"),
    ("chainreach", '{%s, "start": [], "eps0": 0.1, "levels": 1}' % _SQUARE, "start"),
    ("dichotomy", '{%s, "sample_points": [7], "eps0": 0.1, "levels": 1}' % _SQUARE,
     "sample_points"),
    ("dichotomy", '{%s, "sample_points": [], "eps0": 0.1, "levels": 1}' % _SQUARE,
     "sample_points"),
    ("verify", '{%s, "property": "semicontinuity", "x": 0.5, "eps": 0.3, '
               '"delta_schedule": [1e-9]}' % _SQUARE, "delta_schedule"),
    ("verify", '{%s, "property": "lemma2", "instances": 2, "n_max": 5, '
               '"eps": 0.5, "x": 0.3, "start": [0.2], "mode": "lsc"}' % _SQUARE,
     "eps"),
    ("verify", '{%s, "property": "initial-fattening", "start": [0.2], '
               '"eps0": 0.1, "levels": 1, "n_max": 5}' % _SQUARE, "n_max"),
    ("verify", '{%s, "property": "semicontinuity", "x": 0.5, "eps": 0.3, '
               '"levels": 2}' % _SQUARE, "levels"),
    ("reach", '{"system": {"name": "drift_control", "parameters": '
              '{"a": 0.5, "controls": []}}, "grid": {"cells_per_dim": [64]}, '
              '"x": 0.3}', "controls"),
    ("verify", '{%s, "property": true}' % _SQUARE, "property"),
    ("basin", '{%s, "eps0": 0.1, "levels": 1, "component": 9}' % _SQUARE,
     "component"),
    ("reach", '{%s}' % _AFFINE.replace('0.15]}', '0.15], "bounds": [[0, 1]]}'), "bounds"),
    ("reach", '{%s}' % _AFFINE.replace('0.15]}', '0.15], "bounds": []}'), "bounds"),
    ("chainreach", '{%s, "start": [0.2], "eps0": 0.1, "levels": 0}' % _SQUARE, "levels"),
], ids=["eps-infinity", "eps-nan", "eps-string", "x-string",
        "cells-string", "seed-negative", "levels-bool", "eps-duplicate",
        "policy-string", "policy-number", "policy-unknown-control",
        "mode-unknown", "parameters-string", "domain-number", "domain-list",
        "domain-empty", "domain-one-bound", "domain-extra-key",
        "x-two-coordinates", "x-outside", "start-empty", "sample-outside",
        "samples-empty", "verify-delta-schedule", "lemma2-other-keys",
        "initial-fattening-n-max", "semicontinuity-levels", "controls-empty",
        "property-unknown", "component-out-of-range", "bounds-one-axis",
        "bounds-empty", "levels-zero"])
def test_malformed_value_names_key(tmp_path, capsys, command, text, key):
    path = tmp_path / "probe.json"
    path.write_text(text)
    out = str(tmp_path / "rep.json")
    assert run_cli([command, "--config", str(path), "--out", out,
                    "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err, err


@pytest.mark.parametrize("command,levels,cap", [
    ("minimal", 12, "1000"),   # the census's level 4 has 1024 cells
    ("basin", 1, "100"),       # the basin's level 1 has 128 cells
])
def test_grid_cap_checked_at_every_level(tmp_path, monkeypatch, capsys,
                                         command, levels, cap):
    monkeypatch.setenv("CHAINSCOPE_MAX_CELLS", cap)
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "eps0": 0.1, "levels": levels}
    path = write_cfg(tmp_path, "deep.json", cfg)
    out = str(tmp_path / "rep.json")
    assert run_cli([command, "--config", path, "--out", out, "--quiet"]) == 1
    assert "CHAINSCOPE_MAX_CELLS" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg,key", [
    ("robust", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
                "x": 0.5, "eps": 0.1, "delta_schedule": [0.05, 0.01]},
     "delta_schedule"),
    ("chainreach", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
                    "eps0": 0.01, "levels": 1, "start": [0.5]}, "eps0"),
    # the default schedule starts at half the radius, already below the floor
    ("robust", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
                "x": 0.5, "eps": 0.1}, "eps"),
    ("dichotomy", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
                   "eps0": 0.1, "levels": 1, "sample_points": [0.5],
                   "eps": 0.3, "v_eps": 0.01}, "v_eps"),
    # the samples' default schedule starts at eps/2, below the floor
    ("dichotomy", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
                   "eps0": 0.1, "levels": 1, "sample_points": [0.5],
                   "v_eps": 0.3, "eps": 0.05}, "eps"),
], ids=["robust-delta-schedule", "chainreach-eps0", "robust-eps",
        "dichotomy-v-eps", "dichotomy-eps"])
def test_resolution_floor_error_names_key(tmp_path, capsys, command, cfg, key):
    path = write_cfg(tmp_path, "floor.json", cfg)
    out = str(tmp_path / "rep.json")
    assert run_cli([command, "--config", path, "--out", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"{key}=" in err and "resolution floor" in err, err


@pytest.mark.parametrize("command,cfg", [
    ("robust", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
                "x": 0.5, "eps": 1e300}),
    ("chainreach", {"system": {"name": "affine2d",
                               "parameters": {"m": [[0.5, 0.1], [0.0, 0.6]],
                                              "b": [0.2, 0.15]}},
                    "grid": {"cells_per_dim": [16, 16]}, "eps0": 1e300,
                    "levels": 2, "start": [[0.9, 0.9]]}),
], ids=["robust-square", "chainreach-affine2d"])
def test_huge_finite_eps_runs(tmp_path, command, cfg):
    path = write_cfg(tmp_path, "huge.json", cfg)
    out = tmp_path / "rep.json"
    assert run_cli([command, "--config", path, "--out", str(out),
                    "--quiet"]) == 0
    assert isinstance(json.loads(out.read_text()), dict)


def test_grid_cap_env_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHAINSCOPE_MAX_CELLS", "lots")
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "x": 0.5, "eps": 0.1}
    path = write_cfg(tmp_path, "env.json", cfg)
    out = str(tmp_path / "rep.json")
    assert run_cli(["robust", "--config", path, "--out", out, "--quiet"]) == 1
    assert "CHAINSCOPE_MAX_CELLS" in capsys.readouterr().err


# --------------------------------------------------------------------------
# verify subcommands
# --------------------------------------------------------------------------

def test_verify_lemma2_suite_exit_zero(tmp_path):
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [256]},
           "property": "lemma2", "instances": 5, "n_max": 50, "seed": 1}
    path = write_cfg(tmp_path, "v.json", cfg)
    out = str(tmp_path / "v_rep.json")
    assert run_cli(["verify", "--config", path, "--out", out, "--quiet"]) == 0
    rep = json.loads((tmp_path / "v_rep.json").read_text())
    assert rep["outcome"]["all_found"] is True


def test_verify_lemma2_failure_exits_3_with_the_failing_instance(tmp_path):
    """Instance 1 runs delta = 0.99 eps only, which fails at the first step:
    the command exits 3 and reports that instance's record."""
    real, calls = cli.find_uniform_delta, []

    def fail_second(system, start, eps, n_max):
        calls.append(eps)
        return real(system, start, eps, n_max,
                    delta_schedule=[0.99 * eps] if len(calls) == 2 else None)

    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "property": "lemma2", "instances": 3, "n_max": 20}
    path = write_cfg(tmp_path, "v.json", cfg)
    out = tmp_path / "v_rep.json"
    with mock.patch.object(cli, "find_uniform_delta", fail_second):
        assert run_cli(["verify", "--config", path, "--out", str(out), "--quiet"]) == 3
    outcome = json.loads(out.read_text())["outcome"]
    inst = outcome["instances"]
    assert outcome["all_found"] is False and len(calls) == 3
    assert [i["found"] is None for i in inst] == [False, True, False]
    assert outcome["failing_instance"] == {
        "eps": inst[1]["eps"], "n_max": 20, "found": None,
        "entries": [{"delta": pytest.approx(0.99 * calls[1], rel=1e-11), "ok": False,
                     "first_fail_n": 1}],
        "instance": 1, "start_cell": inst[1]["start_cell"],
    }


def test_verify_lemma2_huge_n_max_ends_at_the_repeat(tmp_path):
    # the pair of n-fold images repeats within a few steps on 64 cells of
    # square; n_max 10^12 stops there with the outcome of n_max 200
    outcomes = []
    for n_max in (200, 10 ** 12):
        cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
               "property": "lemma2", "n_max": n_max}
        path = write_cfg(tmp_path, "v.json", cfg)
        out = tmp_path / "v_rep.json"
        t0 = time.perf_counter()
        assert run_cli(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
        elapsed = time.perf_counter() - t0
        outcomes.append(json.loads(out.read_text())["outcome"])
    assert elapsed < 1.0
    assert outcomes[0] == outcomes[1]


def test_verify_lemma2_instances_past_the_bound_end_at_once(tmp_path, capsys):
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "property": "lemma2", "instances": 10 ** 12}
    path = write_cfg(tmp_path, "v.json", cfg)
    t0 = time.perf_counter()
    code = run_cli(["verify", "--config", path, "--out", str(tmp_path / "o.json"),
                    "--quiet"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "config error: key 'instances' must be at most 1000" in capsys.readouterr().err


def test_dichotomy_sample_points_past_the_bound_end_at_once(tmp_path, capsys):
    cfg = {"system": {"name": "logistic", "parameters": {"r": 3.7}},
           "grid": {"cells_per_dim": [256]}, "sample_points": [[0.3]] * 1000,
           "eps0": 0.1, "levels": 2, "eps": 0.1}
    assert validate_config("dichotomy", cfg) is cfg
    cfg["sample_points"].append([0.6])
    path = write_cfg(tmp_path, "d.json", cfg)
    t0 = time.perf_counter()
    code = run_cli(["dichotomy", "--config", path, "--out",
                    str(tmp_path / "o.json"), "--quiet"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: key 'sample_points' must hold at most 1000 points" in err


def test_verify_initial_fattening_exit_zero(tmp_path):
    cfg = {"system": {"name": "identity"}, "grid": {"cells_per_dim": [64]},
           "property": "initial-fattening", "start": [0.2], "eps0": 0.1,
           "levels": 2}
    path = write_cfg(tmp_path, "vif.json", cfg)
    assert run_cli(["verify", "--config", path, "--quiet",
                    "--out", str(tmp_path / "o.json")]) == 0


def test_verify_semicontinuity_violation_exit_three(tmp_path):
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [1024]},
           "property": "semicontinuity", "x": 1.0, "eps": 0.1, "mode": "usc"}
    path = write_cfg(tmp_path, "vs.json", cfg)
    out = str(tmp_path / "vs_rep.json")
    assert run_cli(["verify", "--config", path, "--out", out, "--quiet"]) == 3
    rep = json.loads((tmp_path / "vs_rep.json").read_text())
    assert rep["outcome"]["violating_point"] is not None


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------

def test_reports_byte_identical_across_reruns(tmp_path):
    cfg = {"system": {"name": "logistic", "parameters": {"r": 2.8}},
           "grid": {"cells_per_dim": [256]},
           "sample_points": [0.3], "eps0": 0.05, "levels": 2}
    path = write_cfg(tmp_path, "d.json", cfg)
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"rep_{name}.json"
        code = run_cli(["dichotomy", "--config", path, "--out", str(out),
                        "--quiet"])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("levels", [1, 2])
def test_basin_does_not_depend_on_the_block_budget(levels):
    """x -> x^2 at 64 cells: at a budget of 64 kept points the weak basin's
    blocks shed lanes and rerun them, and the outcome and the sidecar bytes
    are those of the default run.  (logistic(3.7) at 64 cells would run no
    basin orbit: its one component is the whole grid.)"""
    cfg = {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
           "eps0": 0.1, "levels": levels}
    default = run("basin", cfg)
    shed, real = [0], orbits._Lanes.shed

    def counted(self, *args):
        n = self.n_lanes
        cut = real(self, *args)
        shed[0] += n - self.n_lanes
        return cut

    with mock.patch.object(orbits._Lanes, "shed", counted), \
            mock.patch.object(orbits, "_BLOCK_POINTS", 64):
        small = run("basin", cfg)
    assert shed[0] > 0
    assert small[:2] == default[:2]
    assert small[3]["basin_cells.csv"] == default[3]["basin_cells.csv"]


def _child(tmp_path, *args, **env_vars):
    """``python *args`` in a fresh interpreter, run from tmp_path, with the
    environment variables ``env_vars`` set (or unset, where None)."""
    # The child runs from tmp_path, where a relative PYTHONPATH entry such as
    # `src` no longer resolves; point it at the package this process imported.
    env = dict(os.environ)
    pkg_root = str(Path(chainscope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=tmp_path, env=env)


def test_console_entrypoint_runs(tmp_path):
    cfg = {"system": {"name": "constant", "parameters": {"c": 0.3}},
           "grid": {"cells_per_dim": [128]}, "x": 0.9, "eps": 0.1}
    path = write_cfg(tmp_path, "e.json", cfg)
    proc = _child(tmp_path, "-m", "chainscope.cli", "robust", "--config", path,
                  "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "robust-at-resolution"' in proc.stdout


# --------------------------------------------------------------------------
# import footprint: scipy.spatial loads at the first 2-D point query only
# --------------------------------------------------------------------------

SPATIAL = ("sorted(m for m in sys.modules "
           "if m.startswith(('scipy.spatial', 'scipy.special')))")


def test_cli_import_loads_no_scipy_spatial(tmp_path):
    proc = _child(tmp_path, "-c", f"import sys, chainscope.cli; print({SPATIAL})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chainreach_2d_loads_no_scipy_spatial(tmp_path):
    cfg = {"system": {"name": "affine2d",
                      "parameters": {"m": [[0.5, 0.1], [0, 0.6]], "b": [0.2, 0.15]}},
           "grid": {"cells_per_dim": [16, 16]}, "eps0": 0.36, "levels": 2,
           "start": [[0.4, 0.5]]}
    path = write_cfg(tmp_path, "c.json", cfg)
    out = str(tmp_path / "r.json")
    proc = _child(tmp_path, "-c", (
        "import sys; from chainscope.cli import main; "
        f"rc = main(['chainreach', '--config', {path!r}, '--out', {out!r}, '--quiet']); "
        f"print(rc, {SPATIAL})"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert '"stabilized"' in Path(out).read_text()


def test_2d_nearest_distances_import_the_tree_lazily(tmp_path):
    proc = _child(tmp_path, "-c", """
import sys
import numpy as np
from chainscope.geometry import Domain, nearest_distances
dom = Domain.box([[0, 1], [0, 2]])
rng = np.random.default_rng(3)
pts, ref = rng.random((30, 2)) * [1, 2], rng.random((20, 2)) * [1, 2]
before = 'scipy.spatial' in sys.modules
got = nearest_distances(dom, pts, ref)
want = [np.min(dom.distances(ref, p)) for p in pts]
print(before, 'scipy.spatial' in sys.modules, np.array_equal(got, want))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


# --------------------------------------------------------------------------
# import footprint: scipy.sparse loads for the census commands only, in set-up
# --------------------------------------------------------------------------

AFFINE_2D = {"name": "affine2d",
             "parameters": {"m": [[0.5, 0.1], [0, 0.6]], "b": [0.2, 0.15]}}
SPARSE = "sorted(m for m in sys.modules if m.startswith('scipy.sparse'))"


def test_cli_import_loads_no_scipy(tmp_path):
    proc = _child(tmp_path, "-c", "import sys, chainscope.cli; "
                  "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command,cfg", [
    ("reach", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
               "x": 0.5}),
    ("chainreach", {"system": {"name": "square"},
                    "grid": {"cells_per_dim": [64]},
                    "eps0": 0.1, "levels": 2, "start": [0.5]}),
    ("chainreach", {"system": AFFINE_2D, "grid": {"cells_per_dim": [16, 16]},
                    "eps0": 0.36, "levels": 2, "start": [[0.4, 0.5]]}),
    ("robust", {"system": {"name": "square"}, "grid": {"cells_per_dim": [256]},
                "x": 1.0, "eps": 0.1}),
    ("verify", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
                "property": "lemma2", "instances": 2, "n_max": 50}),
], ids=["reach", "chainreach-1d", "chainreach-2d", "robust", "verify-lemma2"])
def test_command_without_scc_pass_loads_no_scipy_sparse(tmp_path, command, cfg):
    path = write_cfg(tmp_path, "c.json", cfg)
    out = str(tmp_path / "r.json")
    proc = _child(tmp_path, "-c", (
        "import sys; from chainscope.cli import main; "
        f"rc = main([{command!r}, '--config', {path!r}, '--out', {out!r}, '--quiet']); "
        f"print(rc, {SPARSE})"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split(maxsplit=1) == ["0", "[]"]


@pytest.mark.parametrize("command,cfg", [
    ("minimal", {"system": {"name": "square"},
                 "grid": {"cells_per_dim": [512]}, "eps0": 0.01, "levels": 2}),
    ("basin", {"system": {"name": "square"}, "grid": {"cells_per_dim": [64]},
               "eps0": 0.1, "levels": 1}),
    ("dichotomy", {"system": {"name": "rotation",
                              "parameters": {"theta": 0.6180339887498949}},
                   "grid": {"cells_per_dim": [96]}, "eps0": 0.05, "levels": 2,
                   "sample_points": [0.25, 0.75]}),
])
def test_census_handler_imports_nothing(tmp_path, command, cfg):
    """Every import of a census command, scipy's csgraph too, happens in
    ``cli.run`` before the handler starts: the handler adds no module."""
    path = write_cfg(tmp_path, "c.json", cfg)
    out = str(tmp_path / "r.json")
    proc = _child(tmp_path, "-c", f"""
import sys
from chainscope import cli
handler, added = getattr(cli, "_run_{command}"), []

def wrapped(*args, **kwargs):
    before = set(sys.modules)
    try:
        return handler(*args, **kwargs)
    finally:
        added.extend(sorted(set(sys.modules) - before))

setattr(cli, "_run_{command}", wrapped)
rc = cli.main([{command!r}, '--config', {path!r}, '--out', {out!r}, '--quiet'])
print(rc, 'scipy.sparse.csgraph' in sys.modules, added)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split(maxsplit=2) == ["0", "True", "[]"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc/self/task to count native threads")
def test_cli_import_starts_no_blas_threads(tmp_path):
    proc = _child(tmp_path, "-c", "import os, chainscope.cli; "
                  "print(len(os.listdir('/proc/self/task')))",
                  OPENBLAS_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_caller_blas_threads_setting_is_kept(tmp_path):
    proc = _child(tmp_path, "-c", "import os, chainscope.cli; "
                  "print(os.environ['OPENBLAS_NUM_THREADS'])",
                  OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"


# --------------------------------------------------------------------------
# names the benchmark wraps
# --------------------------------------------------------------------------

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.is_file(), reason="perfbench/ is absent")
def test_benchmark_spanned_names_exist():
    # the benchmark's tracer drops the metrics of a function it cannot find
    # instead of failing, so a deleted name would go unnoticed there
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fn, _ in tracer.SPANNED if not callable(
        getattr(importlib.import_module(f"chainscope.{mod}"), fn, None))]
    assert missing == []
    assert callable(chainscope.System.image_points)
    # the counters the tracer reads off a built graph
    grid = chainscope.Grid(chainscope.Domain.box([[0, 1]]), 8)
    graph = chainscope.build_graph(chainscope.square(), grid, 0.5)
    assert graph.n_cells == 8 and graph.edge_count() > 0
