"""The mutation survey ``tools/mutants.py``: its targets, its equivalence table and its swaps.

No survey runs here; each test reads the checkout's source.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def _source(module):
    return (ROOT / "src" / "parkseq" / f"{module}.py").read_text()


@pytest.mark.parametrize("module", sorted(mutants.TARGETS))
def test_every_target_is_a_function_of_its_module(module):
    defined = {node.name for node in ast.walk(ast.parse(_source(module)))
               if isinstance(node, ast.FunctionDef)}
    assert set(mutants.TARGETS[module]) <= defined


def test_a_missing_target_stops_the_survey_by_name(monkeypatch):
    monkeypatch.setitem(mutants.TARGETS, "count", ("count_ps_product", "count_gone"))
    with pytest.raises(SystemExit, match=r"src/parkseq/count\.py defines no function 'count_gone'"):
        mutants.target_lines("count", _source("count"))
    with pytest.raises(SystemExit, match="count_gone"):
        mutants.plan()


def test_every_equivalent_entry_is_a_mutant_of_todays_source():
    made = {mutants.key(module, source, *mutant) for module, source, mutant in mutants.plan()}
    assert set(mutants.EQUIVALENT) - made == set()


def test_target_lines_are_the_whole_bodies(monkeypatch):
    source = "def f(a):\n    return a + 1\n\n\ndef g(a):\n    \"\"\"g.\"\"\"\n    b = a - 1\n    return b\n"
    monkeypatch.setitem(mutants.TARGETS, "m", ("g",))
    assert mutants.target_lines("m", source) == {6, 7, 8}


def test_mutants_makes_the_documented_swaps():
    source = "x = 0 < 3 <= y > 1 >= z + 2 - w == 1 != v and u or t\nx = 5 < 2.5\n"
    made = mutants.mutants(source, {1})
    assert [(old, new) for _, _, old, new in made] == [
        ("0", "1"), ("<", "<="), ("3", "2"), ("<=", "<"), (">", ">="), ("1", "0"), (">=", ">"),
        ("+", "-"), ("2", "1"), ("-", "+"), ("==", "!="), ("1", "0"), ("!=", "=="), ("and", "or"),
        ("or", "and")]
    for row, col, old, new in made:
        assert row == 1 and source[col:col + len(old)] == old
    assert mutants.mutate(source, *made[-1]).splitlines()[0].endswith("and u and t")
    # a float is no integer constant
    assert [(old, new) for _, _, old, new in mutants.mutants(source, {2})] == [("5", "4"), ("<", "<=")]
