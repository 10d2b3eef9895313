"""Exact combinatorics of parking sequences: cars with lengths behind a trailer.

The package has one module per concern: :mod:`parkseq.core` simulates the
parking process, :mod:`parkseq.classify` decides family membership,
:mod:`parkseq.enumeration` lists families by brute force,
:mod:`parkseq.count` evaluates the closed-form counts,
:mod:`parkseq.biject` holds the invertible maps between families, and
:mod:`parkseq.cli` exposes everything on the command line together with the
``verify`` cross-check suites from :mod:`parkseq.verify`.
"""

from . import biject, classify, core, count, enumeration, verify
from .biject import *
from .classify import *
from .core import *
from .count import *
from .enumeration import *
from .verify import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (biject, classify, core, count, enumeration, verify)
    for name in module.__all__
)
