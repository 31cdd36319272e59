"""Report bytes are pinned: every corpus entry (``report_corpus.py``) must
give the exit code, stderr, report, timing and sidecar digests recorded in
``report_manifest.json``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from report_corpus import CORPUS, load_manifest, run_entry, versions

MANIFEST = load_manifest()


def test_manifest_covers_the_corpus():
    assert sorted(MANIFEST["entries"]) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_report_bytes_match_manifest(tmp_path, name):
    if MANIFEST["versions"] != versions():
        pytest.fail(f"the manifest was made with {MANIFEST['versions']}, this is "
                    f"{versions()}: regenerate it with tests/report_corpus.py")
    assert run_entry(name, tmp_path) == MANIFEST["entries"][name]


@pytest.mark.parametrize("args", [["--chek"], ["--check", "--check"], ["check"]])
def test_corpus_script_rejects_other_arguments(args):
    """Only no argument (rewrite) or ``--check`` run the corpus; anything
    else exits 2 with a usage line and leaves the manifest as it is."""
    script = Path(__file__).with_name("report_corpus.py")
    before = script.with_name("report_manifest.json").read_bytes()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: ")
    assert script.with_name("report_manifest.json").read_bytes() == before
