"""The ``src/`` line count, counted as ``perfbench/run.py`` counts ``src_lines``.

The count should fall unless a change adds a capability; one that does
raises ``MAX_SRC_LINES`` and says why in CHANGES.md.
"""
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_SRC_LINES = 3663


def test_src_lines_within_the_bound():
    lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    assert lines <= MAX_SRC_LINES
