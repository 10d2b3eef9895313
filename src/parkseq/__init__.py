"""Exact combinatorics of parking sequences: cars with lengths behind a trailer.

The package has one module per concern: :mod:`parkseq.core` simulates the
parking process, :mod:`parkseq.classify` decides family membership,
:mod:`parkseq.enumeration` lists families by brute force,
:mod:`parkseq.count` evaluates the closed-form counts,
:mod:`parkseq.biject` holds the invertible maps between families, and
:mod:`parkseq.cli` exposes everything on the command line together with the
``verify`` cross-check suites from :mod:`parkseq.verify`.

Importing the package loads none of them.  Each submodule is loaded on the
first access to it, and each exported name on its first access, by the
module ``__getattr__`` (PEP 562): a name is looked for in ``_SEARCH`` order,
which puts every module after the modules it imports, and ``count``, which
imports ``core`` alone, right after it.  So ``parkseq.count_ps_product``
loads ``core`` and ``count`` only.  ``__all__``, and so ``from parkseq
import *`` and ``dir(parkseq)``, loads every module.  A resolved name is
kept in the package's globals, and is the module's own object.
"""

import importlib

__version__ = "0.1.0"

_SEARCH = ("core", "count", "biject", "classify", "enumeration", "verify")


def __getattr__(name: str):
    if name in _SEARCH or name == "cli":
        value = importlib.import_module(f".{name}", __name__)
    elif name == "__all__":
        value = sorted(export for module in _SEARCH for export in __getattr__(module).__all__)
    else:
        for module in map(__getattr__, _SEARCH):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
