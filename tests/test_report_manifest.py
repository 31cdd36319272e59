"""Report bytes are pinned: every corpus entry (``report_corpus.py``) must
give the exit code, stderr, report, timing and sidecar digests recorded in
``report_manifest.json``."""
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
