import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainscope

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # each demo runs as a user would run it, in its own process, against the
    # package this process imported, with a temp directory of its own that
    # it must leave empty
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp_path / "tmp")
    (tmp_path / "tmp").mkdir()
    pkg_root = str(Path(chainscope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not any((tmp_path / "tmp").iterdir())
