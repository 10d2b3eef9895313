"""Reference answers for the benchmark, computed without importing parkseq.

Every timed call is checked against a value from this module: a naive
list-of-spots parking simulator, dynamic programs over bounded sequences, and
the closed characterizations and counts restated from the paper.  None of it
shares code with the package, so a wrong answer from the package cannot be
confirmed by the same wrong code.
"""

from __future__ import annotations

import math


def park(lengths, z, prefs):
    """Run the parking process on an explicit spot list.

    Returns ``(placements, failed_car)``: the closed intervals taken by the
    cars that parked, and the 1-based index of the first car that could not
    park (``None`` when every car parked).
    """
    spots = z - 1 + sum(lengths)
    taken = [False] * (spots + 1)
    for spot in range(1, z):
        taken[spot] = True
    placements = []
    for car, (pref, size) in enumerate(zip(prefs, lengths), start=1):
        start = pref
        while start <= spots and taken[start]:
            start += 1
        end = start + size - 1
        if start > spots or end > spots or any(taken[start : end + 1]):
            return tuple(placements), car
        for spot in range(start, end + 1):
            taken[spot] = True
        placements.append((start, end))
    return tuple(placements), None


def parks(lengths, z, prefs):
    return park(lengths, z, prefs)[1] is None


def standard_bounds(lengths, z):
    """Caps z, z + y_1, z + y_1 + y_2, ... of the gap-free outcome."""
    out, position = [], z
    for size in lengths:
        out.append(position)
        position += size
    return tuple(out)


def count_ps(lengths, z):
    """Product formula z * prod_{i=1}^{n-1} (z + y_1 + ... + y_i + n - i)."""
    n, total, acc = len(lengths), z, z
    for i in range(1, n):
        acc += lengths[i - 1]
        total *= acc + n - i
    return total


def count_bounded_nondecreasing(bounds):
    """Sequences 1 <= c_1 <= ... <= c_n with c_i <= b_i, by a prefix-sum DP."""
    top = max(bounds)
    ways = [1] * (bounds[0] + 1) + [0] * (top - bounds[0])
    ways[0] = 0
    for cap in bounds[1:]:
        running, nxt = 0, [0] * (top + 1)
        for value in range(1, cap + 1):
            running += ways[value]
            nxt[value] = running
        ways = nxt
    return sum(ways)


def count_upf(bounds):
    """Sequences whose order statistics satisfy x_(i) <= u_i.

    DP over the values 1..u_n: ``ways[m]`` counts the ways to fill m of the n
    positions with values seen so far, and after value v at least as many
    positions as there are bounds <= v must be filled.
    """
    n = len(bounds)
    ways = [1] + [0] * n
    for value in range(1, bounds[-1] + 1):
        need = sum(1 for u in bounds if u <= value)
        nxt = [0] * (n + 1)
        for m, w in enumerate(ways):
            if w:
                for k in range(n - m + 1):
                    nxt[m + k] += w * math.comb(n - m, k)
        ways = [w if m >= need else 0 for m, w in enumerate(nxt)]
    return ways[n]


def upf_member(bounds, values):
    return all(x <= u for x, u in zip(sorted(values), bounds))


def length_family(lengths):
    """Which characterized invariance family the literal lengths belong to."""
    n = len(lengths)
    if all(a < b for a, b in zip(lengths, lengths[1:])):
        return "increasing", None
    if len(set(lengths)) == 1:
        return "constant", None
    r = lengths.index(lengths[-1])
    if len(set(lengths[:r])) == 1 and len(set(lengths[r:])) == 1 and lengths[0] < lengths[-1]:
        return "two-block", r
    if lengths[0] > 1 and set(lengths[1:]) == {1} and n > 1:
        return "one-big-car", None
    return None, None


def inv_member(lengths, z, prefs):
    """Closed characterization: does every rearrangement of ``prefs`` park?"""
    family, r = length_family(lengths)
    n = len(lengths)
    ordered = sorted(prefs)
    if family == "increasing":
        return all(c <= z for c in prefs)
    if family == "constant":
        k = lengths[0]
        capped = all(c <= z + i * k for i, c in enumerate(ordered))
        on_grid = all(c <= z or ((c - z) % k == 0 and (c - z) // k <= n - 1) for c in prefs)
        return capped and on_grid
    if family == "two-block":
        small = lengths[0]
        if any(c > z for c in ordered[: n - r + 1]):
            return False
        for j in range(2, r + 1):
            c = ordered[n - r + j - 1]
            if c > z and ((c - z) % small or (c - z) // small > j - 1):
                return False
        return True
    if family == "one-big-car":
        return upf_member(tuple(range(z, z + n)), prefs)
    raise ValueError(f"lengths {lengths} have no closed invariance characterization")


def two_block_bounds(z, n, r):
    return (z,) * (n - r + 1) + tuple(range(z + 1, z + r))


def inv_count(lengths, z):
    """Invariant-member count through the contraction onto vector parking functions."""
    family, r = length_family(lengths)
    n = len(lengths)
    if family == "increasing":
        return z**n
    if family in ("constant", "one-big-car"):
        return count_upf(tuple(range(z, z + n)))
    if family == "two-block":
        return count_upf(two_block_bounds(z, n, r))
    raise ValueError(f"lengths {lengths} have no closed invariance characterization")


def strong_member(lengths, z, prefs):
    """Parks under every rearrangement of the lengths: the sorted standard-order box."""
    if len(set(lengths)) == 1:
        return parks(lengths, z, prefs)
    return all(c <= b for c, b in zip(prefs, standard_bounds(sorted(lengths), z)))


def strong_count(lengths, z):
    if len(set(lengths)) == 1:
        return count_ps(lengths, z)
    return math.prod(standard_bounds(sorted(lengths), z))


def kstrong_member(total, k, z, prefs):
    """Parks every composition of ``total`` into k parts."""
    if k == total:
        return upf_member(tuple(range(z, z + k)), prefs)
    return all(c <= z + j for j, c in enumerate(prefs))


def kstrong_count(total, k, z):
    if k == total:
        return count_upf(tuple(range(z, z + k)))
    return math.prod(range(z, z + k))
