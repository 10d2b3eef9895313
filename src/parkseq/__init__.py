"""Exact combinatorics of parking sequences: cars with lengths behind a trailer.

The package has one module per concern: :mod:`parkseq.core` simulates the
parking process, :mod:`parkseq.classify` decides family membership,
:mod:`parkseq.enumeration` lists families by brute force,
:mod:`parkseq.count` evaluates the closed-form counts,
:mod:`parkseq.biject` holds the invertible maps between families, and
:mod:`parkseq.cli` exposes everything on the command line together with the
``verify`` cross-check suites from :mod:`parkseq.verify`.
"""

from .biject import (
    LatticePath,
    arithmetic_boundary,
    from_vector_parking_function,
    ips_to_lattice_path,
    lattice_path_to_ips,
    to_vector_parking_function,
    two_block_boundary,
)
from .classify import (
    check_boundary,
    compositions,
    distinct_permutations,
    is_increasing_ps,
    is_k_strong,
    is_parking_sequence,
    is_permutation_invariant,
    is_strong_ps,
    is_u_parking_function,
    necessary_condition,
    parks_in_standard_order,
    perm_invariant_characterized,
)
from .core import (
    FailureReason,
    ParkOutcome,
    ParkingInstance,
    check_preferences,
    order_statistics,
    simulate,
    standard_order_bounds,
)
from .count import (
    binomial,
    count_inv_constant,
    count_inv_strictly_increasing,
    count_inv_two_block,
    count_ips_constant,
    count_ips_determinant,
    count_ps_product,
    count_sps,
    count_sps_k,
    fuss_catalan,
    rising_factorial,
)
from .enumeration import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FamilyListing,
    enum_ips,
    enum_lattice_paths,
    enum_ps,
    enum_ps_inv,
    enum_sps,
    enum_sps_k,
    enum_u_pf,
)
from .verify import DEFAULT_SEED, ReportRecord, run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
    "FailureReason",
    "FamilyListing",
    "LatticePath",
    "ParkOutcome",
    "ParkingInstance",
    "ReportRecord",
    "arithmetic_boundary",
    "binomial",
    "check_boundary",
    "check_preferences",
    "compositions",
    "count_inv_constant",
    "count_inv_strictly_increasing",
    "count_inv_two_block",
    "count_ips_constant",
    "count_ips_determinant",
    "count_ps_product",
    "count_sps",
    "count_sps_k",
    "distinct_permutations",
    "enum_ips",
    "enum_lattice_paths",
    "enum_ps",
    "enum_ps_inv",
    "enum_sps",
    "enum_sps_k",
    "enum_u_pf",
    "from_vector_parking_function",
    "fuss_catalan",
    "ips_to_lattice_path",
    "is_increasing_ps",
    "is_k_strong",
    "is_parking_sequence",
    "is_permutation_invariant",
    "is_strong_ps",
    "is_u_parking_function",
    "lattice_path_to_ips",
    "necessary_condition",
    "order_statistics",
    "parks_in_standard_order",
    "perm_invariant_characterized",
    "rising_factorial",
    "run_suite",
    "simulate",
    "standard_order_bounds",
    "to_vector_parking_function",
    "two_block_boundary",
]
