"""The record-writing script ``tools/bench.py``: how it reads the working tree."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def test_gate_digest_hashes_the_document_and_the_text(monkeypatch):
    rendered = {True: b'{"records": [{}, {}]}\n', False: b"PASS  a\nPASS  b\n"}
    monkeypatch.setattr(bench, "_run", lambda args, env=None: rendered["--json" in args])
    assert bench._gate_digest() == {
        "sha256": hashlib.sha256(rendered[True]).hexdigest(),
        "text_sha256": hashlib.sha256(rendered[False]).hexdigest(),
        "records": 2,
    }
    assert bench.GATE_COMMAND[-4:] == ["verify", "--suite", "all", "--json"]


def test_uncommitted_keeps_every_first_letter():
    status = " M README.md\n M src/parkseq/core.py\n?? notes.txt\n"
    assert bench._uncommitted(status) == ["README.md", "src/parkseq/core.py", "notes.txt"]


def test_uncommitted_on_a_clean_tree():
    assert bench._uncommitted("") == []


SOURCE = '''"""Module docstring.

Its second paragraph.
"""

# a comment line
import os  # code with a trailing comment

TEXT = """a string that opens no body

# is no comment
"""


def f(x):
    """One line."""
    # another comment line
    return x + 1
'''


def test_split_counts_code_docstring_comment_and_blank_lines():
    # code: import, the three lines of TEXT that are not blank, def, return;
    # the blank line inside TEXT counts as blank
    split = bench._split(SOURCE)
    assert split == {"code": 6, "docstring": 5, "comment": 2, "blank": 5}
    assert sum(split.values()) == SOURCE.count("\n")


def test_split_by_module_adds_up_to_each_module_and_to_the_line_count():
    by_module = bench._src_split_by_module()
    paths = sorted((bench.ROOT / "src" / "parkseq").glob("*.py"))
    assert list(by_module) == [path.name for path in paths]
    for path in paths:
        assert sum(by_module[path.name].values()) == path.read_bytes().count(b"\n")
    assert sum(bench._src_split(by_module).values()) == bench._src_lines()
