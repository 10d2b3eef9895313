"""Literal sweeps for tests only: every candidate built outright and filtered.

The library answers "every ordering parks" with a layer sweep over
sub-multisets and builds its listings from a capped nondecreasing walk and
searches that step from empty spot to empty spot of one occupancy mask per
length vector; these oracles share no code with any of them beyond
``simulate`` and the public predicates, and build every ordering or every
point of the product, so keep them to n <= 6.  ``invariance_rule`` is the
closed invariance rule written out case by case, without the contraction,
and ``contraction_shape`` the contraction's (step, boundary) for each shape.
``bounded_nondecreasing_count`` is a DP, not a sweep; it shares no code with
the boundary determinant it checks, and runs to n in the hundreds.
``park_on_spots`` is the oracle for ``simulate`` itself: the parking rule on
a list of spots, with no masks and no parkseq code.  ``parks_in_standard_order``
defines the standard order through ``simulate``, which pins
``standard_order_bounds``.  ``counting_bounds`` states the necessary
condition as counts of preferences under each bound, with no sorting of the
preferences.
"""

import itertools

from parkseq import (
    ParkingInstance,
    is_u_parking_function,
    perm_invariant_characterized,
    simulate,
)


def bounded_nondecreasing_count(lengths, z):
    """Sequences 1 <= c_1 <= ... <= c_n with c_i <= z + y_1 + ... + y_{i-1}."""
    # ways[v - 1] counts the prefixes ending at v
    bounds = list(itertools.accumulate(lengths[:-1], initial=z))
    ways = [1] * bounds[0]
    for bound in bounds[1:]:
        ways = list(itertools.accumulate(ways + [0] * (bound - len(ways))))
    return sum(ways)


def park_on_spots(lengths, trailer_z, prefs):
    """Run the parking process on a list of spots, read straight from the rule.

    Returns the fields of a ``ParkOutcome`` in order: success, placements,
    configuration, failed car, reason, attempted start and blocked spot.
    """
    spots = trailer_z - 1 + sum(lengths)
    taken = [spot < trailer_z for spot in range(spots + 1)]  # taken[0] is never read
    placements = []
    for car, (pref, size) in enumerate(zip(prefs, lengths), start=1):
        empty = [spot for spot in range(pref, spots + 1) if not taken[spot]]
        if not empty:
            return False, tuple(placements), (), car, "off_street", None, None
        start = empty[0]
        wanted = range(start, start + size)
        blocked = [spot for spot in wanted if spot <= spots and taken[spot]]
        if blocked or wanted[-1] > spots:
            return (False, tuple(placements), (), car, "collision", start,
                    blocked[0] if blocked else None)
        for spot in wanted:
            taken[spot] = True
        placements.append((start, wanted[-1]))
    by_start = sorted(range(len(lengths)), key=lambda i: placements[i][0])
    return True, tuple(placements), tuple(i + 1 for i in by_start), None, None, None, None


def counting_bounds(lengths, trailer_z, prefs):
    """The necessary condition as counts: some preference is at most z, and for
    each t at least t + 1 preferences are at most z plus the t largest lengths."""
    if not any(c <= trailer_z for c in prefs):
        return False
    bound = trailer_z
    largest_first = sorted(lengths, reverse=True)
    for t in range(1, len(lengths)):
        bound += largest_first[t - 1]
        if sum(1 for c in prefs if c <= bound) < t + 1:
            return False
    return True


def parks_in_standard_order(instance, prefs):
    """Does the sequence park the cars in index order right behind the trailer?"""
    outcome = simulate(instance, prefs)
    return outcome.success and outcome.configuration == tuple(
        range(1, instance.car_count + 1)
    )


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


def permutation_set(values):
    """The distinct orderings, from all n! of them."""
    return sorted(set(itertools.permutations(values)))


def u_pf_sweep(bounds):
    """Vector parking functions: the product [1..u_n]^n filtered by the predicate."""
    return tuple(
        values
        for values in itertools.product(range(1, bounds[-1] + 1), repeat=len(bounds))
        if is_u_parking_function(bounds, values)
    )


def lattice_path_sweep(boundary, width=None):
    """North steps in [0..width]^q that are nondecreasing and left of the boundary."""
    width = boundary[-1] - 1 if width is None else width
    return [
        xs
        for xs in itertools.product(range(width + 1), repeat=len(boundary))
        if list(xs) == sorted(xs) and all(x < b for x, b in zip(xs, boundary))
    ]


def k_strong_sweep(total, k, trailer_z):
    """Sequences in [1..z+total-1]^k that park every k lengths summing to ``total``."""
    parts = [p for p in itertools.product(range(1, total + 1), repeat=k) if sum(p) == total]
    return tuple(
        prefs
        for prefs in itertools.product(range(1, trailer_z + total), repeat=k)
        if all(simulate(ParkingInstance(p, trailer_z), prefs).success for p in parts)
    )


def characterized_set(instance):
    """Every orbit whose sorted representative the public closed predicate admits."""
    spots = range(1, instance.street_length + 1)
    return tuple(sorted(
        prefs
        for rep in itertools.combinations_with_replacement(spots, instance.car_count)
        if perm_invariant_characterized(instance, rep)
        for prefs in permutation_set(rep)
    ))


def contraction_shape(lengths, trailer_z):
    """The (step, boundary) of each characterized length shape, else None.

    Each shape is built outright and compared with the lengths, in the
    library's order: strictly increasing, (1, (z, ..., z)); then constant or
    two blocks (a^r, b^(n-r)) with a < b, (a, n - r + 1 copies of z, then
    z + 1, ..., z + r - 1); then (a, 1, ..., 1) with a > 1,
    (1, (z, z + 1, ..., z + n - 1)).
    """
    lengths, z = tuple(lengths), trailer_z
    n, a = len(lengths), lengths[0]
    if lengths == tuple(sorted(set(lengths))):
        return 1, (z,) * n
    for r in range(1, n + 1):
        for b in range(a + 1, max(lengths) + 1) if r < n else (a,):
            if lengths == (a,) * r + (b,) * (n - r):
                return a, (z,) * (n - r + 1) + tuple(z + i for i in range(1, r))
    if a > 1 and lengths == (a,) + (1,) * (n - 1):
        return 1, tuple(range(z, z + n))
    return None


def invariance_rule(lengths, trailer_z, prefs):
    """The closed invariance verdicts, dispatched on the literal arrangement of the lengths.

    * strictly increasing: every entry at most z;
    * two-block (a^r, b^(n-r)) with a < b, or constant (r = n): the n-r+1
      smallest order statistics at most z, and the j-th largest beyond them
      at most z or on the grid z + a, ..., z + (j-1)a;
    * (a, 1, ..., 1) with a > 1: order statistics under (z, z+1, ..., z+n-1);
    * anything else: None.
    """
    n, z, stats = len(lengths), trailer_z, sorted(prefs)
    if all(a < b for a, b in zip(lengths, lengths[1:])):
        return all(c <= z for c in prefs)
    r = 1
    while r < n and lengths[r] == lengths[0]:
        r += 1
    if r == n or (len(set(lengths[r:])) == 1 and lengths[0] < lengths[r]):
        if any(c > z for c in stats[: n - r + 1]):
            return False
        for j in range(2, r + 1):
            c = stats[n - r + j - 1]
            if c > z and ((c - z) % lengths[0] or (c - z) // lengths[0] > j - 1):
                return False
        return True
    if lengths[0] > 1 and all(v == 1 for v in lengths[1:]):
        return all(c <= z + i for i, c in enumerate(stats))
    return None
