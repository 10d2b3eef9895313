"""The record-writing script ``tools/bench.py``: how it reads the working tree."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_uncommitted_keeps_every_first_letter():
    status = " M README.md\n M src/parkseq/core.py\n?? notes.txt\n"
    assert bench._uncommitted(status) == ["README.md", "src/parkseq/core.py", "notes.txt"]


def test_uncommitted_on_a_clean_tree():
    assert bench._uncommitted("") == []
