import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainscope
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


_SQUARE = '"system": {"name": "square"}, "grid": {"cells_per_dim": [64]}'


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
], ids=["eps-infinity", "eps-nan", "eps-string", "x-string",
        "cells-string", "seed-negative", "levels-bool", "eps-duplicate",
        "policy-string", "policy-number", "policy-unknown-control",
        "mode-unknown", "parameters-string"])
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


def test_console_entrypoint_runs(tmp_path):
    cfg = {"system": {"name": "constant", "parameters": {"c": 0.3}},
           "grid": {"cells_per_dim": [128]}, "x": 0.9, "eps": 0.1}
    path = write_cfg(tmp_path, "e.json", cfg)
    # The child runs from tmp_path, where a relative PYTHONPATH entry such as
    # `src` no longer resolves; point it at the package this process imported.
    env = dict(os.environ)
    pkg_root = str(Path(chainscope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "chainscope.cli", "robust", "--config", path,
         "--quiet"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "robust-at-resolution"' in proc.stdout
