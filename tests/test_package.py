"""The package namespace: what the modules export, and nothing else; the module layers."""

import ast
from pathlib import Path

import parkseq
from parkseq import biject, classify, core, count, enumeration, verify

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
