"""Literal "every ordering parks" sweeps through ``simulate``, for tests only.

The library answers both questions with one memoized recursion over
sub-multisets; these oracles share no code with it beyond ``simulate`` and
build every ordering outright, so keep them to n <= 6.
"""

import itertools

from parkseq import ParkingInstance, simulate


def orbit_parks(instance, prefs):
    """Every distinct rearrangement of the preferences parks."""
    return all(
        simulate(instance, ordering).success
        for ordering in set(itertools.permutations(prefs))
    )


def arrangements_park(lengths, trailer_z, prefs):
    """The preferences park under every distinct arrangement of the lengths."""
    return all(
        simulate(ParkingInstance(arrangement, trailer_z), prefs).success
        for arrangement in set(itertools.permutations(lengths))
    )
