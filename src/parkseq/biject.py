"""Invertible maps between the enumerated families.

Two maps, both tested by round trip and by exact image equality:

* nondecreasing members of a family correspond to lattice paths with a
  strict right boundary, by shifting every entry down one;
* invariant members for constant or two-block lengths correspond to vector
  parking functions, by contracting the offsets above the trailer from step
  ``a`` down to step 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .classify import check_boundary, is_increasing_ps
from .core import ParkingInstance, _as_int_tuple, _positive, standard_order_bounds

__all__ = [
    "LatticePath",
    "arithmetic_boundary",
    "from_vector_parking_function",
    "ips_to_lattice_path",
    "lattice_path_to_ips",
    "to_vector_parking_function",
    "two_block_boundary",
]


@dataclass(frozen=True)
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


def ips_to_lattice_path(instance: ParkingInstance, prefs: Sequence[int]) -> LatticePath:
    """Shift a nondecreasing member down one entrywise into a lattice path."""
    prefs = _as_int_tuple(prefs, "preferences")
    if not is_increasing_ps(instance, prefs):
        raise ValueError(f"{prefs} is not a nondecreasing member for this instance")
    return LatticePath(
        tuple(c - 1 for c in prefs),
        standard_order_bounds(instance),
        instance.street_length,
    )


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
    return tuple(x + 1 for x in path.xs)


def to_vector_parking_function(
    trailer_z: int, step: int, prefs: Sequence[int]
) -> tuple[int, ...]:
    """Contract entries on the grid z + s*step down to z + s; entries <= z stay.

    Rejects entries above the trailer that sit off the grid rather than
    coercing them.  Entrywise monotone, so sorting commutes with it.
    """
    prefs = _as_int_tuple(prefs, "preferences")
    step = _positive(step, "step")
    out = []
    for c in prefs:
        if c <= trailer_z:
            out.append(c)
            continue
        offset = c - trailer_z
        if offset % step:
            raise ValueError(
                f"entry {c} is above {trailer_z} but not on the step-{step} grid"
            )
        out.append(trailer_z + offset // step)
    return tuple(out)


def from_vector_parking_function(
    trailer_z: int, step: int, values: Sequence[int]
) -> tuple[int, ...]:
    """Expand entries z + s back to z + s*step; inverse of the contraction."""
    values = _as_int_tuple(values, "values")
    step = _positive(step, "step")
    return tuple(
        v if v <= trailer_z else trailer_z + (v - trailer_z) * step for v in values
    )


def arithmetic_boundary(trailer_z: int, n: int) -> tuple[int, ...]:
    """(z, z+1, ..., z+n-1): the boundary matched to constant lengths."""
    trailer_z, n = _positive(trailer_z, "trailer parameter"), _positive(n, "car count")
    return tuple(range(trailer_z, trailer_z + n))


def two_block_boundary(trailer_z: int, n: int, r: int) -> tuple[int, ...]:
    """(z, ..., z, z+1, ..., z+r-1) with n-r+1 copies of z, for two-block lengths."""
    trailer_z, n = _positive(trailer_z, "trailer parameter"), _positive(n, "car count")
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < {n}, got {r}")
    r = _positive(r, "leading block length")
    return (trailer_z,) * (n - r + 1) + tuple(range(trailer_z + 1, trailer_z + r))
