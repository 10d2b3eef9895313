"""The package namespace: what the modules export, and nothing else."""

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
