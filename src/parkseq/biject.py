"""Invertible maps between the enumerated families.

Two maps, both tested by round trip and by exact image equality:

* nondecreasing members of a family correspond to lattice paths with a
  strict right boundary, by shifting every entry down one;
* the invariant members for the four characterized length shapes correspond
  to vector parking functions, by contracting the offsets above the trailer
  from step ``a`` down to step 1.  :func:`_invariant_contraction` names the
  step and the boundary for each shape; ``classify`` decides invariance by it.

Each map's arithmetic is written once, as a kernel that trusts its input
(``_to_path``, ``_from_path``, ``_contract``, ``_expand``).  A public map
checks its input, then calls its kernel; library code that already holds
valid input, such as a listing the library built, calls the kernel.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ParkingInstance, _as_int_tuple, _nondecreasing_under, _positive, check_boundary,
    check_preferences, standard_order_bounds,
)

__all__ = [
    "LatticePath",
    "from_vector_parking_function",
    "ips_to_lattice_path",
    "lattice_path_to_ips",
    "to_vector_parking_function",
]


@dataclass(frozen=True, slots=True)
class LatticePath:
    """A path from (0, 0) to (width, q) as its north-step x-coordinates.

    The i-th north step runs from (xs[i-1], i-1) to (xs[i-1], i); the path
    stays strictly left of the boundary, 0 <= xs[i-1] < boundary[i-1].
    """

    xs: tuple[int, ...]
    boundary: tuple[int, ...]
    width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", _as_int_tuple(self.xs, "north steps", minimum=0))
        object.__setattr__(self, "boundary", check_boundary(self.boundary))
        object.__setattr__(self, "width", _positive(self.width, "width", minimum=0))
        if len(self.xs) != len(self.boundary):
            raise ValueError(f"expected {len(self.boundary)} north steps, got {len(self.xs)}")
        if any(a > b for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError(f"north steps must be nondecreasing, got {self.xs}")
        if any(x >= b for x, b in zip(self.xs, self.boundary)):
            raise ValueError(f"steps {self.xs} cross the boundary {self.boundary}")
        if self.xs[-1] > self.width:
            raise ValueError(f"steps {self.xs} overrun width {self.width}")

    @classmethod
    def _unchecked(cls, xs: tuple[int, ...], boundary: tuple[int, ...], width: int) -> LatticePath:
        """A path from fields the caller guarantees valid, skipping every check."""
        path = object.__new__(cls)
        _set_xs(path, xs)
        _set_boundary(path, boundary)
        _set_width(path, width)
        return path


# The slot setters, past the frozen __setattr__, for LatticePath._unchecked.
_set_xs, _set_boundary, _set_width = (
    LatticePath.xs.__set__, LatticePath.boundary.__set__, LatticePath.width.__set__
)


def ips_to_lattice_path(instance: ParkingInstance, prefs: Sequence[int]) -> LatticePath:
    """Shift a nondecreasing member down one entrywise into a lattice path.

    Membership, nondecreasing with c_i <= z + y_1 + ... + y_{i-1}, is exactly
    what the path needs: steps nondecreasing and left of the boundary, and
    within the width because the last bound is at most the street length.
    """
    prefs = check_preferences(instance, prefs)
    bounds = standard_order_bounds(instance)
    if not _nondecreasing_under(prefs, bounds):
        raise ValueError(f"{prefs} is not a nondecreasing member for this instance")
    return LatticePath._unchecked(_to_path(prefs), bounds, instance.street_length)


def _to_path(prefs: Sequence[int]) -> tuple[int, ...]:
    """The shift on a nondecreasing member: the path's north steps."""
    return tuple([c - 1 for c in prefs])


def lattice_path_to_ips(instance: ParkingInstance, path: LatticePath) -> tuple[int, ...]:
    """Inverse shift; the result is always a nondecreasing member."""
    expected = standard_order_bounds(instance)
    if path.boundary != expected:
        raise ValueError(
            f"path boundary {path.boundary} does not match the instance's {expected}"
        )
    if path.width != instance.street_length:
        raise ValueError(
            f"path width {path.width} does not match street length {instance.street_length}"
        )
    return _from_path(path.xs)


def _from_path(xs: Sequence[int]) -> tuple[int, ...]:
    """The inverse shift on the north steps of a path whose boundary and width are the instance's."""
    return tuple([x + 1 for x in xs])


def to_vector_parking_function(
    trailer_z: int, step: int, prefs: Sequence[int]
) -> tuple[int, ...]:
    """Contract entries on the grid z + s*step down to z + s; entries <= z stay.

    Rejects entries above the trailer that sit off the grid rather than
    coercing them.  Entrywise monotone, so sorting commutes with it.
    """
    prefs = _as_int_tuple(prefs, "preferences")
    step = _positive(step, "step")
    trailer_z = _positive(trailer_z, "trailer parameter")
    out = _contract(trailer_z, step, prefs)
    if None in out:
        c = prefs[out.index(None)]
        raise ValueError(f"entry {c} is above {trailer_z} but not on the step-{step} grid")
    return out


def _contract(trailer_z: int, step: int, prefs: Sequence[int]) -> tuple[int | None, ...]:
    """The contraction on checked input; an entry above z off the grid maps to None."""
    if step == 1:  # every entry is on the step-1 grid and maps to itself
        return tuple(prefs)
    return tuple([
        c if c <= trailer_z
        else None if (c - trailer_z) % step
        else trailer_z + (c - trailer_z) // step
        for c in prefs
    ])


def from_vector_parking_function(
    trailer_z: int, step: int, values: Sequence[int]
) -> tuple[int, ...]:
    """Expand entries z + s back to z + s*step; inverse of the contraction."""
    values = _as_int_tuple(values, "values")
    step = _positive(step, "step")
    trailer_z = _positive(trailer_z, "trailer parameter")
    return _expand(trailer_z, step, values)


def _expand(trailer_z: int, step: int, values: Sequence[int]) -> tuple[int, ...]:
    """The expansion on checked input."""
    return tuple([v if v <= trailer_z else trailer_z + (v - trailer_z) * step for v in values])


def _invariant_contraction(instance: ParkingInstance) -> tuple[int, tuple[int, ...]] | None:
    """(step, boundary) for the characterized length shapes, else None.

    The invariant members are the sequences whose entries above z sit on the
    grid z + s*step and whose contraction is a vector parking function for the
    boundary.  The dispatch reads the literal arrangement of the lengths:

    * strictly increasing: step 1, boundary (z, ..., z);
    * (a^r, b^(n-r)) with a < b, or constant (r = n): step a, the block
      boundary (z, ..., z, z + 1, ..., z + r - 1) with n - r + 1 copies of z
      (for r = n, (z, z + 1, ..., z + n - 1));
    * (a, 1, ..., 1) with a > 1: step 1, (z, z + 1, ..., z + n - 1).

    Sorting the lengths first would be wrong: (1, 2) is strictly increasing
    with invariant set [z]^2, while (2, 1) has one big car and a larger set.
    """
    lengths, n, z = instance.lengths, instance.car_count, instance.trailer_z
    run = 1
    while run < n and lengths[run] == lengths[0]:
        run += 1
    if all(map(operator.lt, lengths, lengths[1:])):
        step, r = 1, 1
    elif run == n or (len(set(lengths[run:])) == 1 and lengths[0] < lengths[run]):
        step, r = lengths[0], run
    elif lengths[0] > 1 and lengths.count(1) == n - 1:
        step, r = 1, n
    else:
        return None
    return step, (z,) * (n - r + 1) + tuple(range(z + 1, z + r))
