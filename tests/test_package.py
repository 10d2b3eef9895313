"""The package namespace: what the modules export, and nothing else; the module layers; what loads them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import parkseq
from parkseq import biject, classify, core, count, enumeration, verify
from parkseq.cli import _FAMILIES, _FORMULAS

MODULES = (biject, classify, core, count, enumeration, verify)


def test_package_exports_the_union_of_module_exports():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(parkseq.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(parkseq, name) is getattr(module, name)


def test_check_boundary_is_exported_once_from_core():
    assert parkseq.check_boundary is core.check_boundary
    assert "check_boundary" in core.__all__
    assert "check_boundary" not in classify.__all__
    assert len(parkseq.__all__) == 45


def test_deleted_names_are_not_exported():
    for name in (
        "order_statistics", "parks_in_standard_order", "binomial", "rising_factorial",
        "arithmetic_boundary", "two_block_boundary",
    ):
        assert name not in parkseq.__all__
        assert not hasattr(parkseq, name)


def _fresh(code):
    """What ``code`` prints as JSON, run in a fresh interpreter that imports this checkout's parkseq."""
    env = dict(os.environ, PYTHONPATH=str(Path(parkseq.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout)


LOADED = "sorted(name for name in sys.modules if name.partition('.')[0] == 'parkseq')"


def test_a_count_loads_core_and_count_only():
    loaded = _fresh("import json, sys, parkseq\n"
                    "assert parkseq.count_ps_product((1, 2, 2), 2) == 60\n"
                    f"print(json.dumps({LOADED}))")
    assert loaded == ["parkseq", "parkseq.core", "parkseq.count"]


# one request per command that loads neither enumeration nor verify: simulate,
# check of every family it offers, and count of every formula
CHECK_FLAGS = {"ps": "--lengths 1,2", "ips": "--lengths 1,2", "inv": "--lengths 1,2",
               "strong": "--lengths 1,2", "kstrong": "--n 3", "upf": "--boundary 1,2"}
COUNT_FLAGS = {"ps": "--lengths 1,2,2 --z 2", "ips-det": "--lengths 1,2,2", "ips-const": "--k 2 --n 3",
               "fuss": "--k 2 --n 4", "inv-inc": "--n 3", "inv-const": "--n 3",
               "inv-two-block": "--n 4 --r 2", "sps": "--lengths 2,1,2", "sps-k": "--n 4 --k 2"}


def test_simulate_check_and_count_never_load_enumeration_or_verify():
    assert set(CHECK_FLAGS) == {family for family, (_, _, check, _) in _FAMILIES.items() if check}
    assert set(COUNT_FLAGS) == set(_FORMULAS)
    requests = [["simulate", "--lengths", "2,2", "--prefs", "2,1", "--render", "--json"]]
    requests += [["check", "--family", family, *flags.split(), "--prefs", "1,1"]
                 for family, flags in CHECK_FLAGS.items()]
    requests += [["count", "--formula", formula, *flags.split(), "--json"]
                 for formula, flags in COUNT_FLAGS.items()]
    codes, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "import parkseq.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.run(argv) for argv in {requests!r}]\n"
        f"print(json.dumps([codes, {LOADED}]))"
    )
    assert codes == [1] + [0] * len(CHECK_FLAGS) + [0] * len(COUNT_FLAGS)
    assert loaded == ["parkseq", "parkseq.biject", "parkseq.classify", "parkseq.cli", "parkseq.core",
                      "parkseq.count"]


def test_star_import_binds_all_and_dir_lists_it():
    bound, listed, exported, same = _fresh(
        "import json\n"
        "names = {}\n"
        "exec('from parkseq import *', names)\n"
        "del names['__builtins__']\n"
        "import parkseq\n"
        "same = all(value is getattr(parkseq, name) for name, value in names.items())\n"
        "print(json.dumps([sorted(names), dir(parkseq), parkseq.__all__, same]))"
    )
    assert bound == exported and len(exported) == 45
    assert set(exported) <= set(listed)
    assert same


# each module may import only from modules before it
LAYERS = ("core", "biject", "classify", "count", "enumeration", "verify", "cli")


def test_modules_import_only_earlier_layers():
    source = Path(parkseq.__file__).parent
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((source / f"{name}.py").read_text())
        imported = {
            node.module or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        assert imported <= set(LAYERS[:rank]), (name, sorted(imported))


def _bound_names(node):
    """The names an import statement binds, outside ``__future__`` and star imports."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def test_src_has_no_unused_imports():
    # the project depends on no linter; this ast walk stands in for one, on
    # the package, the tools and the tests
    root = Path(__file__).resolve().parent.parent
    paths = [*Path(parkseq.__file__).parent.glob("*.py"), *root.glob("tools/*.py"),
             *root.glob("tests/*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        imported = {
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _bound_names(node)
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
