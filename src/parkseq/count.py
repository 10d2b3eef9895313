"""Closed-form exact counts for each family, on plain Python integers.

Everything here is exact end to end.  The lattice-path determinant is
expanded minor by minor down its upper Hessenberg matrix, dividing only
where a binomial ratio is exact, and the two closed forms that divide a
binomial assert divisibility instead of rounding.  Each count is checked
against its brute-force listing by the ``verify`` suites.

The u-parking functions of a nondecreasing boundary u_1 <= ... <= u_n
(the sequences whose i-th smallest entry is at most u_i) are counted by a
recurrence on the prefixes of u (Pitman and Stanley 2002; the Goncharov
polynomials of Kung and Yan 2003): E_0 = 1 and
E_m = sum_{k<=m} (-1)^(m-k) C(m, k-1) u_k^(m-k+1) E_(k-1), and the count is E_n.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .core import (
    ParkingInstance, _block_split, _positive, _weight_and_count, standard_order_bounds,
)

__all__ = [
    "count_inv_constant",
    "count_inv_strictly_increasing",
    "count_inv_two_block",
    "count_ips_constant",
    "count_ips_determinant",
    "count_ps_product",
    "count_sps",
    "count_sps_k",
    "fuss_catalan",
]


def count_ps_product(lengths: Sequence[int], trailer_z: int) -> int:
    """z * (z + y_1 + n - 1) * (z + y_1 + y_2 + n - 2) * ... * (z + y_1 + ... + y_{n-1} + 1)."""
    instance = ParkingInstance(lengths, trailer_z)
    n = instance.car_count
    total = instance.trailer_z
    acc = instance.trailer_z
    for i in range(1, n):
        acc += instance.lengths[i - 1]
        total *= acc + n - i
    return total


def _lattice_paths(boundary: Sequence[int]) -> int:
    """How many nondecreasing 1 <= x_1 <= ... <= x_n have x_i <= b_i, as det[C(b_i, j - i + 1)].

    The b_i are nondecreasing and at least 1: the strict right boundary of the
    lattice paths these tuples spell.  The matrix is upper Hessenberg with 1s
    below the diagonal, so its leading minors satisfy D_0 = 1 and
    D_k = sum_{i<=k} (-1)^(k-i) C(b_i, k-i+1) D_(i-1), and the count is D_n.
    Row i adds its terms to the later minors once D_(i-1) is known, and stops
    where C(b_i, m) or the matrix runs out.  The running term carries the
    sign, term_m = (-1)^m C(b_i, m) D_(i-1), so each step is one multiply by
    m - 1 - b_i, one floor division by m (exact, negative or not) and one
    subtraction from D_(i+m-1).
    """
    n = len(boundary)
    minors = [1] + [0] * n
    for i, bound in enumerate(boundary, start=1):
        term, factor, m = minors[i - 1], -bound, 1
        for target in range(i, i + min(bound, n - i + 1)):
            term = term * factor // m
            minors[target] -= term
            factor += 1
            m += 1
    return minors[n]


def _u_parking(bounds: Sequence[int]) -> int:
    """How many u-parking functions the nondecreasing ``bounds`` >= 1 have, by the recurrence.

    The module docstring states the recurrence.  Row k adds its terms to the
    later E_m once E_(k-1) is known; the running term (-u_k)^(m-k) u_k E_(k-1)
    carries the sign and the power, so each step is one binomial, two
    multiplies and one addition.
    """
    n = len(bounds)
    counts = [1] + [0] * n
    for k, u in enumerate(bounds, start=1):
        term = u * counts[k - 1]
        for m in range(k, n + 1):
            counts[m] += math.comb(m, k - 1) * term
            term *= -u
    return counts[n]


def count_ips_determinant(lengths: Sequence[int], trailer_z: int) -> int:
    """Number of nondecreasing members, by the lattice-path determinant :func:`_lattice_paths`.

    Its boundary is b_1 = z and b_i = z + y_1 + ... + y_{i-1}, the
    standard-order caps of the members.
    """
    return _lattice_paths(standard_order_bounds(ParkingInstance(lengths, trailer_z)))


def count_ips_constant(size: int, n: int, trailer_z: int) -> int:
    """Nondecreasing-member count for constant lengths (k, ..., k).

    Evaluates z / (z + n(k+1)) * C(z + n(k+1), n); the division is asserted
    exact rather than rounded.
    """
    size = _positive(size, "car length")
    n = _positive(n, "car count")
    z = _positive(trailer_z, "trailer parameter")
    m = z + n * (size + 1)
    num = z * math.comb(m, n)
    if num % m:
        raise ArithmeticError(f"{num} is not divisible by {m}; this is a bug")
    return num // m


def fuss_catalan(size: int, n: int) -> int:
    """C((k+1)n, n) / (kn + 1); counts nondecreasing members for lengths (k^n), z = 1."""
    size = _positive(size, "order")
    n = _positive(n, "index")
    den = size * n + 1
    num = math.comb((size + 1) * n, n)
    if num % den:
        raise ArithmeticError(f"{num} is not divisible by {den}; this is a bug")
    return num // den


def count_inv_strictly_increasing(n: int, trailer_z: int) -> int:
    """Invariant-member count z^n for strictly increasing lengths."""
    n = _positive(n, "car count")
    z = _positive(trailer_z, "trailer parameter")
    return z**n


def count_inv_constant(n: int, trailer_z: int) -> int:
    """Invariant-member count z(n+z)^(n-1) for constant lengths, any size.

    It also counts the vector parking functions for (z, z+1, ..., z+n-1).
    """
    n = _positive(n, "car count")
    z = _positive(trailer_z, "trailer parameter")
    return z * (n + z) ** (n - 1)


def count_inv_two_block(n: int, r: int, trailer_z: int) -> int:
    """Invariant-member count for lengths (a^r, b^(n-r)) with a < b.

    The sum over j of C(n, j)(r - j) r^(j-1) z^(n-j) for 0 <= j <= r - 1;
    the j = 0 term collapses to z^n, so the value never depends on a or b.
    """
    n, r = _block_split(n, r)
    z = _positive(trailer_z, "trailer parameter")
    total = z**n
    for j in range(1, r):
        total += math.comb(n, j) * (r - j) * r ** (j - 1) * z ** (n - j)
    return total


def count_sps(lengths: Sequence[int], trailer_z: int) -> int:
    """Count of sequences parking under every rearrangement of the lengths.

    The plain product count for constant lengths, else the size of the
    sorted lengths' box, z * (z + y_(1)) * ... * (z + y_(1) + ... + y_(n-1)).
    """
    instance = ParkingInstance(lengths, trailer_z)
    ordered, z = tuple(sorted(instance.lengths)), instance.trailer_z
    if ordered[0] == ordered[-1]:
        return count_ps_product(ordered, z)
    return math.prod(itertools.accumulate(ordered[:-1], initial=z))


def count_sps_k(total: int, k: int, trailer_z: int) -> int:
    """Count of length-k sequences parking every composition of ``total``.

    The rising factorial z(z+1)...(z+k-1), or for k = total the unit-car
    count z(total+z)^(total-1).
    """
    total, k = _weight_and_count(total, k)
    z = _positive(trailer_z, "trailer parameter")
    if k == total:
        return count_inv_constant(total, z)
    return math.prod(range(z, z + k))
