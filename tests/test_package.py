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
