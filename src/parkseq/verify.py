"""Named cross-check suites: formulas against sweeps, pinned values, round trips.

Each suite builds the listings of its grid, which meets every budget guard
in grid order and walks nothing (:class:`parkseq.enumeration.FamilyListing`),
and returns the grid as a list of entries ``(rows, *args)``, ``args`` the
products that ``rows(*args)`` reads into its
``(check, params, expected, computed, note)`` rows.  :func:`run_suite`
alone reads the entries, and wraps every row in a :class:`ReportRecord`; a
record passes only when the expected and computed values match exactly.
``_SUITES`` is the one table of the suites and their default sizes.  The
``all`` suite chains every suite and is the repository's gate:
``parkseq verify --suite all``.  The suites run the bijections as their
kernels on the listings they build (:mod:`parkseq.biject` states the rule).

A suite runs each producer once per distinct input that the producer reads,
and every record of an instance reads the shared result.  Each key is
exactly what its producer reads, by construction: the capped pass
(``_ips``), the bounded paths (``_paths``, at their default width, which
the street length never undercuts) and the path shift's check by the
standard-order bounds, which leave out the last length; the characterized
set and the contraction's check by (z, step, boundary), the boundary's
u-PFs (``_upf``) by the boundary; the invariance sweep by the length
vector, through ``_inv``'s ``memos``.  A shared result is held only by the
grid entries that read it, and :func:`run_suite` drops each entry before it
reads the next (:func:`_spent`), so the result goes with the last of them.
The walks share memos (:func:`parkseq.enumeration._walk`) by group, not by
suite, to bound memory, and a group's memos go when it is done: ``eq3``'s
by (total length, last length), which fix the states its instances meet
whatever their trailers; those of ``determinant``, ``strong`` and ``sps-k``
by the trailers of one length vector, multiset or (n, k).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache, partial
from operator import attrgetter, le

from .biject import _contract, _expand, _from_path, _invariant_contraction, _to_path
from .classify import _admits
from .core import DEFAULT_BUDGET, ParkingInstance, _positive, standard_order_bounds
from .count import (
    count_inv_constant,
    count_inv_strictly_increasing,
    count_inv_two_block,
    count_ips_constant,
    count_ips_determinant,
    count_ps_product,
    count_sps,
    count_sps_k,
    fuss_catalan,
)
from .enumeration import (
    _inv,
    _ips,
    _kstrong,
    _params,
    _paths,
    _ps_walk,
    _rearrangements,
    _strong,
    _upf,
)

__all__ = ["DEFAULT_SEED", "ReportRecord", "SUITE_NAMES", "run_suite"]

DEFAULT_SEED = 1729

# Pinned reference values, reproduced exactly by the sweeps below.
_CATALAN = (1, 2, 5, 14, 42, 132)  # n = 1..6
_FUSS_ORDER2 = (1, 3, 12, 55, 273)  # n = 1..5
_TWO_BIG_CAR_COUNTS = {2: (3, 7, 31, 171), 3: (3, 7, 13, 51)}
_KSTRONG_N3 = {
    1: ((1,),),
    2: ((1, 1), (1, 2)),
    3: (
        (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3),
        (1, 3, 1), (1, 3, 2), (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1),
        (2, 3, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1),
    ),
}


@dataclass(frozen=True)
class ReportRecord:
    """One named comparison; passes only on exact equality."""

    check: str
    params: dict[str, object]
    expected: object
    computed: object
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


def _instance_grid(max_n):
    """Every length vector over {1, 2, 3} of 1..max_n cars, each with trailer 1, 2, 3."""
    for n in range(1, max_n + 1):
        for lengths in itertools.product((1, 2, 3), repeat=n):
            for z in (1, 2, 3):
                yield ParkingInstance(lengths, z)


def _invariant_grid(max_n):
    """The four characterized shapes, trailers 1, 2, 3, each with its invariant count.

    Strictly increasing lengths over {1..4}, constant lengths, two-block
    lengths (a^r, b^(n-r)) with a < b, then one big car ahead of unit cars.
    Yields (kind, instance, count).
    """
    ns = range(1, max_n + 1)
    shapes = itertools.chain(
        (("increasing", lengths, count_inv_strictly_increasing, ())
         for n in ns for lengths in itertools.combinations(range(1, 5), n)),
        (("constant", (size,) * n, count_inv_constant, ()) for size in (1, 2, 3) for n in ns),
        (("two-block", (small,) * r + (large,) * (n - r), count_inv_two_block, (r,))
         for small, large in ((1, 2), (1, 3), (2, 3)) for n in ns[1:] for r in range(1, n)),
        (("one-big-car", (size,) + (1,) * (n - 1), count_inv_constant, ())
         for size in (2, 3) for n in ns[1:]),
    )
    for kind, lengths, count, extra in shapes:
        for z in (1, 2, 3):
            yield kind, ParkingInstance(lengths, z), count(len(lengths), *extra, z)


def _characterized_set(instance):
    """All sequences the closed invariance conditions admit, built without simulation.

    The closed rules read only the multiset, so each sorted representative is
    tested once and, if admitted, expanded to its distinct rearrangements.
    The representatives are drawn from the admissible values only: 1..z, then
    z + s*step for s = 1..boundary[-1] - z.  Any other value is off the step
    grid or contracts past the boundary's last entry, so the rule rejects
    every multiset holding it; the rule still tests every representative
    drawn.  The instance must have a characterized length shape.
    """
    step, boundary = _invariant_contraction(instance)
    z = instance.trailer_z
    values = (*range(1, z + 1), *range(z + step, z + step * (boundary[-1] - z) + 1, step))
    return _rearrangements(
        rep
        for rep in itertools.combinations_with_replacement(values, instance.car_count)
        if _admits(z, step, boundary, rep)
    )


def _spent(items):
    """The items of a list, front first, each dropped from it as it is handed out."""
    items.reverse()
    while items:
        yield items.pop()


def _once(made, key, make):
    """``made[key]``, from ``make()`` the first time ``key`` is met: one product per input."""
    product = made.get(key)
    if product is None:
        product = made[key] = make()
    return product


def _suite_eq3(max_n, seed, budget):
    """Each instance's walk count against the product formula, in grid order."""
    instances = list(_instance_grid(max_n))
    groups = {}
    for instance in instances:
        memos, walks = groups.setdefault((sum(instance.lengths), instance.lengths[-1]), ({}, {}))
        walks[instance] = _ps_walk(instance, budget, memos)
    return [(_eq3_rows, instances, groups)]


def _eq3_rows(instances, groups):
    """The whole grid's rows, its counts read group by group and each group's memos then cleared."""
    counts = {}
    for memos, walks in groups.values():
        counts.update((instance, walk.cardinality) for instance, walk in walks.items())
        memos.clear()
        walks.clear()
    for instance in instances:
        yield ("ps-product-vs-enum", _params(instance),
               count_ps_product(instance.lengths, instance.trailer_z), counts[instance],
               "product count formula against the exhaustive sweep")


def _suite_table1(max_n, seed, budget):
    grid = []
    for size, row in _TWO_BIG_CAR_COUNTS.items():
        for extra, expected in enumerate(row):
            instance = ParkingInstance((size, size) + (1,) * extra, 1)
            grid.append((_table1_rows, instance, expected, _inv(instance, budget)))
    return grid


def _table1_rows(instance, expected, inv):
    yield "inv-two-big-cars-count", _params(instance), expected, len(inv.members), "pinned reference count"


def _suite_catalan(max_n, seed, budget):
    return [(_catalan_rows, n, _ips(ParkingInstance((1,) * n, 1), budget)) for n in range(1, max_n + 1)]


def _catalan_rows(n, ips):
    computed = len(ips.members)
    yield "catalan-formula-vs-enum", {"n": n}, fuss_catalan(1, n), computed, "Catalan number"
    if n <= len(_CATALAN):
        yield "catalan-pinned", {"n": n}, _CATALAN[n - 1], computed, "pinned reference value"


def _suite_fuss(max_n, seed, budget):
    return [(_fuss_rows, n, _ips(ParkingInstance((2,) * n, 1), budget)) for n in range(1, max_n + 1)]


def _fuss_rows(n, ips):
    computed = len(ips.members)
    expected = fuss_catalan(2, n)
    yield "fuss-formula-vs-enum", {"n": n}, expected, computed, "Fuss-Catalan number, order 2"
    yield ("fuss-vs-constant-count", {"n": n}, expected, count_ips_constant(2, n, 1),
           "two closed forms for the same count")
    if n <= len(_FUSS_ORDER2):
        yield "fuss-pinned", {"n": n}, _FUSS_ORDER2[n - 1], computed, "pinned reference value"


def _suite_determinant(max_n, seed, budget):
    """Boundary determinant against the capped pass; for n <= 3, that pass against the walk."""
    grid, passes = [], {}

    def capped(instance):
        return _once(passes, standard_order_bounds(instance), partial(_ips, instance, budget))

    for _, instances in itertools.groupby(_instance_grid(max_n), key=attrgetter("lengths")):
        memos = {}
        for instance in instances:
            grid.append((_determinant_rows, _params(instance), instance, capped(instance),
                         _ps_walk(instance, budget, memos) if instance.car_count <= 3 else None,
                         "boundary determinant against the direct sweep"))
    rng = random.Random(seed)
    for index in range(20):
        lengths = tuple(rng.randint(1, 4) for _ in range(5))
        instance = ParkingInstance(lengths, rng.randint(1, 3))
        grid.append((_determinant_rows, {**_params(instance), "sample": index}, instance,
                     capped(instance), None, f"seeded sample (seed {seed})"))
    return grid


def _determinant_rows(params, instance, ips, ps, note):
    yield ("ips-determinant-vs-enum", params,
           count_ips_determinant(instance.lengths, instance.trailer_z), len(ips.members), note)
    if ps is not None:
        filtered = tuple(m for m in ps.members if all(map(le, m, m[1:])))
        yield ("ips-methods-agree", params, True, ips.members == filtered,
               "bound generation equals filtering the simulation sweep")


def _suite_inv_characterizations(max_n, seed, budget):
    """Each instance's sweep against its characterized set and count, two-block images too.

    The images are compared in order, as :func:`_bijection` compares them.
    """
    grid, memos, sets, families = [], {}, {}, {}
    for kind, instance, count in _invariant_grid(max_n):
        step, boundary = _invariant_contraction(instance)
        inv = _inv(instance, budget, memos)
        image = (_once(families, boundary, partial(_upf, boundary, budget))
                 if kind == "two-block" else None)
        characterized = _once(sets, (instance.trailer_z, step, boundary),
                              lambda: cache(partial(_characterized_set, instance)))
        grid.append((_inv_rows, kind, instance, count, inv, image, characterized, step))
    return grid


def _inv_rows(kind, instance, count, inv, boundary_family, characterized, step):
    params = _params(instance)
    yield (f"inv-{kind}-set", params, True, inv.members == characterized(),
           "sweep equals the characterized set")
    yield f"inv-{kind}-count", params, count, len(inv.members), "count formula"
    if boundary_family is not None:
        images = tuple(map(partial(_contract, instance.trailer_z, step), inv.members))
        yield ("inv-two-block-image", params, True, images == boundary_family.members,
               "contraction maps the sweep onto the boundary family")


def _suite_strong(max_n, seed, budget):
    """The definition's walk against the box."""
    grid = []
    for n in range(2, max_n + 1):
        for lengths in itertools.combinations_with_replacement((1, 2, 3), n):
            if len(set(lengths)) == 1:
                continue
            memos = {}
            for z in (1, 2):
                grid.append((_strong_rows, lengths, z, _strong(lengths, z, budget, True, memos),
                             _strong(lengths, z, budget, False)))
    return grid


def _strong_rows(lengths, z, swept, boxed):
    params = {"lengths": lengths, "trailer": z}
    yield ("strong-definition-vs-bounds", params, True, swept.members == boxed.members,
           "rearrangement intersection equals the standard-order box")
    yield "strong-count", params, count_sps(lengths, z), len(swept.members), "partial-sum product formula"
    if len(lengths) == 2:
        box = tuple(itertools.product(range(1, z + 1), range(1, z + lengths[0] + 1)))
        yield "strong-pair-box", params, box, swept.members, "two cars: box [z] x [z + smaller length]"


def _suite_sps_k(max_n, seed, budget):
    """Pinned listings, counts, and for n <= 4 the definition against the characterized set."""
    grid = [(_kstrong_pinned_rows, k, expected, _kstrong(3, k, 1, budget, False))
            for k, expected in _KSTRONG_N3.items()]
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            memos = {}
            for z in (1, 2, 3):
                listing = _kstrong(n, k, z, budget, False, memos)
                definitional = _kstrong(n, k, z, budget, True, memos) if n <= 4 else None
                grid.append((_kstrong_rows, n, k, z, listing, definitional))
    return grid


def _kstrong_pinned_rows(k, expected, listing):
    yield ("kstrong-listing", {"n": 3, "k": k, "trailer": 1}, expected, listing.members,
           "pinned reference listing")


def _kstrong_rows(n, k, z, listing, definitional):
    params = {"n": n, "k": k, "trailer": z}
    yield ("kstrong-count", params, count_sps_k(n, k, z), len(listing.members),
           "rising factorial, or the unit-car count when k = n")
    if definitional is not None:
        yield ("kstrong-definition-vs-characterization", params, True,
               definitional.members == listing.members,
               "composition intersection equals the characterized set")


def _suite_bijections(max_n, seed, budget):
    """Each map's round trip and image, through its kernels, on every member of a listing.

    The path shift takes each capped pass onto its bounded paths, the
    contraction each characterized set onto its boundary's u-PFs.  Each
    grid entry names its two records' checks and notes, and reads them off
    its key's shared :func:`_bijection`.
    """
    grid, checks, families = [], {}, {}
    shift = (("ips-path-roundtrip", "shift there and back is the identity"),
             ("ips-path-image", "image is exactly the bounded-path family"))
    for instance in _instance_grid(max_n):
        bounds = standard_order_bounds(instance)
        checked = _once(checks, bounds, lambda: cache(partial(
            _bijection, partial(getattr, _ips(instance, budget), "members"), _to_path, _from_path,
            _paths(bounds, None, budget))))
        grid.append((_bijection_rows, shift, instance, checked))
    for kind, instance, _ in _invariant_grid(max_n):
        if kind in ("constant", "two-block"):
            (step, boundary), z = _invariant_contraction(instance), instance.trailer_z
            upf = _once(families, boundary, partial(_upf, boundary, budget))
            checked = _once(checks, (z, step, boundary), lambda: cache(partial(
                _bijection, partial(_characterized_set, instance), partial(_contract, z, step),
                partial(_expand, z, step), upf)))
            contraction = (
                (f"contraction-{kind}-roundtrip", "contraction then expansion is the identity"),
                (f"contraction-{kind}-image", "characterized set maps onto the boundary family"))
            grid.append((_bijection_rows, contraction, instance, checked))
    return grid


def _bijection_rows(pairs, instance, checked):
    params = _params(instance)
    for (check, note), passed in zip(pairs, checked()):
        yield check, params, True, passed, note


def _bijection(domain, there, back, family):
    """Does ``back`` undo ``there`` on every member of ``domain()``; are the images ``family``?

    Both answers, in that order.  The images are compared with the family's
    members in order, unsorted: both maps are strictly increasing entrywise,
    so a domain in lex order has its image in lex order.  An image holding
    None, an entry the contraction found off its step grid, is neither
    undone nor a member.
    """
    members = domain()
    images = tuple(map(there, members))
    restored = all(None not in image and back(image) == member
                   for member, image in zip(members, images))
    return restored, images == family.members


# name: (suite, default max_n); table1's rows are pinned and take no size.
_SUITES = {
    "eq3": (_suite_eq3, 4),
    "table1": (_suite_table1, None),
    "catalan": (_suite_catalan, 6),
    "fuss": (_suite_fuss, 5),
    "determinant": (_suite_determinant, 4),
    "inv-characterizations": (_suite_inv_characterizations, 4),
    "strong": (_suite_strong, 4),
    "sps-k": (_suite_sps_k, 5),
    "bijections": (_suite_bijections, 4),
}

SUITE_NAMES = ("all",) + tuple(_SUITES)


def run_suite(
    name: str,
    max_n: int | None = None,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
) -> list[ReportRecord]:
    """Run one named suite (or every suite for ``all``) and return its records.

    ``max_n`` (at least 1) caps the sweep of every suite that has one; None
    runs each suite at its default size.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choices are {', '.join(SUITE_NAMES)}")
    max_n = None if max_n is None else _positive(max_n, "max_n")
    budget = _positive(budget, "budget")  # a suite with no rows at this max_n meets no guard
    suites = _SUITES.values() if name == "all" else (_SUITES[name],)
    # each suite meets every budget guard of its grid as it is called, so all
    # of them are met before the first walk or listing of any
    grids = [suite(default if max_n is None else max_n, seed, budget) for suite, default in suites]
    # each entry is dropped before the next is read, so a product shared by
    # entries goes with the last of them
    return [ReportRecord(*row) for grid in grids for rows, *args in _spent(grid) for row in rows(*args)]
