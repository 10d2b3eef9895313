"""The library's error contract as a generated property.

Every public callable, and the validated constructors, either returns its
documented type or raises ``ValueError``, ``TypeError`` or
``BudgetExceededError``, whatever it is given: small integers, a bool, a
float, a string, None, short tuples of those, and budgets that are too small
or not positive.
"""

from collections.abc import Iterator
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parkseq
from parkseq import (
    SUITE_NAMES,
    BudgetExceededError,
    FamilyListing,
    LatticePath,
    ParkingInstance,
    ParkOutcome,
    ips_to_lattice_path,
)

SCALARS = st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.5, "2", None]))
VALUES = st.lists(SCALARS, max_size=4).map(tuple)


def _kind(valid, *junk):
    """An argument kind: the draw of a call meant to pass validation, and that of any call."""
    return valid, st.one_of(valid, *junk)


POSITIVE = _kind(st.integers(1, 4), SCALARS, VALUES)
LENGTHS = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)
SEQUENCE = _kind(LENGTHS, VALUES, SCALARS)
BOUNDARY = _kind(LENGTHS.map(sorted).map(tuple), VALUES, SCALARS)
INSTANCES = st.builds(ParkingInstance, st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
                      st.integers(1, 3))
INSTANCE = (INSTANCES, INSTANCES)
PATHS = INSTANCES.map(lambda instance: ips_to_lattice_path(instance, (1,) * instance.car_count))
PATH = (PATHS, PATHS)
BUDGET = _kind(st.just(10**4), st.sampled_from([0, -1]))
FLAG = (st.booleans(), st.booleans())
STEPS = _kind(st.lists(st.integers(0, 3), min_size=1, max_size=4).map(sorted).map(tuple), VALUES)
WIDTH = _kind(st.one_of(st.none(), st.integers(0, 4)), SCALARS, VALUES)
MEMBERS = _kind(st.lists(LENGTHS, max_size=3, unique=True).map(sorted).map(tuple),
                st.lists(st.one_of(LENGTHS, VALUES), max_size=3).map(tuple), VALUES)
FAMILY = (st.sampled_from(["ps", "strong"]),) * 2
PARAMS = (st.just({}),) * 2
METHOD = _kind(st.sampled_from(["definition", "bounds"]), st.just("x"))
SUITE = _kind(st.sampled_from(SUITE_NAMES), st.just("x"))
# at most 2, never None: the default sizes take seconds
MAX_N = _kind(st.integers(1, 2), st.integers(-1, 0), st.sampled_from([True, 1.5, "2"]))

# name -> (the kinds of its arguments in order, its documented return types)
CONTRACT = {
    "ParkingInstance": ((SEQUENCE, POSITIVE), (ParkingInstance,)),
    "LatticePath": ((STEPS, BOUNDARY, WIDTH), (LatticePath,)),
    "FamilyListing": ((FAMILY, PARAMS, MEMBERS), (FamilyListing,)),
    "check_boundary": ((BOUNDARY,), (tuple,)),
    "check_preferences": ((INSTANCE, SEQUENCE), (tuple,)),
    "compositions": ((POSITIVE, POSITIVE), (Iterator,)),
    "count_inv_constant": ((POSITIVE, POSITIVE), (int,)),
    "count_inv_strictly_increasing": ((POSITIVE, POSITIVE), (int,)),
    "count_inv_two_block": ((POSITIVE, POSITIVE, POSITIVE), (int,)),
    "count_ips_constant": ((POSITIVE, POSITIVE, POSITIVE), (int,)),
    "count_ips_determinant": ((SEQUENCE, POSITIVE), (int,)),
    "count_ps_product": ((SEQUENCE, POSITIVE), (int,)),
    "count_sps": ((SEQUENCE, POSITIVE), (int,)),
    "count_sps_k": ((POSITIVE, POSITIVE, POSITIVE), (int,)),
    "distinct_permutations": ((SEQUENCE,), (list,)),
    "enum_ips": ((INSTANCE, BUDGET), (FamilyListing,)),
    "enum_lattice_paths": ((BOUNDARY, WIDTH, BUDGET), (list,)),
    "enum_ps": ((INSTANCE, BUDGET), (FamilyListing,)),
    "enum_ps_inv": ((INSTANCE, BUDGET), (FamilyListing,)),
    "enum_sps": ((SEQUENCE, POSITIVE, BUDGET, METHOD), (FamilyListing,)),
    "enum_sps_k": ((POSITIVE, POSITIVE, POSITIVE, BUDGET, FLAG), (FamilyListing,)),
    "enum_u_pf": ((BOUNDARY, BUDGET), (FamilyListing,)),
    "from_vector_parking_function": ((POSITIVE, POSITIVE, SEQUENCE), (tuple,)),
    "fuss_catalan": ((POSITIVE, POSITIVE), (int,)),
    "ips_to_lattice_path": ((INSTANCE, SEQUENCE), (LatticePath,)),
    "is_increasing_ps": ((INSTANCE, SEQUENCE), (bool,)),
    "is_k_strong": ((POSITIVE, POSITIVE, POSITIVE, SEQUENCE, FLAG), (bool,)),
    "is_parking_sequence": ((INSTANCE, SEQUENCE), (bool,)),
    "is_permutation_invariant": ((INSTANCE, SEQUENCE), (bool,)),
    "is_strong_ps": ((SEQUENCE, POSITIVE, SEQUENCE, FLAG), (bool,)),
    "is_u_parking_function": ((BOUNDARY, SEQUENCE), (bool,)),
    "lattice_path_to_ips": ((INSTANCE, PATH), (tuple,)),
    "necessary_condition": ((INSTANCE, SEQUENCE), (bool,)),
    "perm_invariant_characterized": ((INSTANCE, SEQUENCE), (bool, type(None))),
    "run_suite": ((SUITE, MAX_N, POSITIVE, BUDGET), (list,)),
    "simulate": ((INSTANCE, SEQUENCE), (ParkOutcome,)),
    "standard_order_bounds": ((INSTANCE,), (tuple,)),
    "to_vector_parking_function": ((POSITIVE, POSITIVE, SEQUENCE), (tuple,)),
}

# the flags above are keyword-only in the predicates
KEYWORD = {"is_k_strong": "definitional", "is_strong_ps": "definitional"}


def test_contract_names_every_public_callable():
    # the exception, the enum and the two result records validate nothing
    unvalidated = {"BudgetExceededError", "FailureReason", "ParkOutcome", "ReportRecord"}
    public = {name for name in parkseq.__all__ if callable(getattr(parkseq, name))}
    assert public - unvalidated == set(CONTRACT)


@pytest.mark.parametrize("name", sorted(CONTRACT))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_returns_its_type_or_refuses(name, data):
    kinds, returns = CONTRACT[name]
    # half the calls draw every argument valid, so the return types are held too
    valid = data.draw(st.booleans(), label="valid")
    args = [data.draw(kind[0] if valid else kind[1]) for kind in kinds]
    kwargs = {KEYWORD[name]: args.pop()} if name in KEYWORD else {}
    try:
        result = getattr(parkseq, name)(*args, **kwargs)
        assert isinstance(result, returns), (name, args, result)
        assert type(result) is not bool or bool in returns, (name, args, result)
        if isinstance(result, Iterator):
            list(result)  # a lazy result may refuse only as it is read
    except (ValueError, TypeError, BudgetExceededError):
        pass


# What an admitted request does first: the walk's step, the invariance sweep
# (which the enumeration module imports by name), the capped pass and the box.
WORK = ((parkseq.enumeration, "_steps"), (parkseq.classify, "_ordering_sweep"),
        (parkseq.enumeration, "_ordering_sweep"), (parkseq.enumeration, "_nondecreasing"),
        (parkseq.enumeration, "_box_members"))
SMALL = ParkingInstance((1, 2, 2), 2)
# each budgeted entry point on each of its routes, as a call of the budget;
# every request sweeps more than one candidate, and every suite meets every
# guard in grid order before its first walk, as does the gate
BUDGETED = {
    "enum_ps": lambda budget: parkseq.enum_ps(SMALL, budget),
    "enum_ips": lambda budget: parkseq.enum_ips(SMALL, budget),
    "enum_ps_inv": lambda budget: parkseq.enum_ps_inv(SMALL, budget),
    "enum_sps definition": lambda budget: parkseq.enum_sps((1, 2, 2), 2, budget, "definition"),
    "enum_sps bounds": lambda budget: parkseq.enum_sps((1, 2, 2), 2, budget, "bounds"),
    "enum_sps constant": lambda budget: parkseq.enum_sps((2, 2, 2), 1, budget, "bounds"),
    "enum_sps_k": lambda budget: parkseq.enum_sps_k(5, 3, 2, budget),
    "enum_sps_k definitional": lambda budget: parkseq.enum_sps_k(5, 3, 2, budget, True),
    "enum_sps_k one part": lambda budget: parkseq.enum_sps_k(4, 1, 1, budget),
    "enum_u_pf": lambda budget: parkseq.enum_u_pf((1, 2, 3), budget),
    "enum_lattice_paths": lambda budget: parkseq.enum_lattice_paths((1, 2, 3), None, budget),
    "run_suite eq3": partial(parkseq.run_suite, "eq3", 2, 1729),
    "run_suite all": partial(parkseq.run_suite, "all", 2, 1729),
}
EVERY_SUITE = {f"run_suite {suite}": partial(parkseq.run_suite, suite, 2, 1729) for suite in SUITE_NAMES}


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("worked before refusing")

    for module, name in WORK:
        monkeypatch.setattr(module, name, refuse)


def test_budgeted_names_every_enumerator():
    assert {name.split()[0] for name in BUDGETED} >= {name for name in parkseq.__all__
                                                       if name.startswith("enum_")}


@pytest.mark.parametrize("name", BUDGETED)
def test_an_admitted_request_does_the_patched_work(no_work, name):
    # so that the refusals below come before that work; the gate at n <= 2
    # sweeps up to 27,216 candidates (a seeded determinant sample)
    with pytest.raises(AssertionError, match="worked before refusing"):
        BUDGETED[name](10**5)


@pytest.mark.parametrize("budget", [0, -1, True, 2.5])
@pytest.mark.parametrize("name", {**BUDGETED, **EVERY_SUITE})
def test_a_bad_budget_is_refused_before_any_work(no_work, name, budget):
    with pytest.raises(ValueError, match="budget must be"):
        {**BUDGETED, **EVERY_SUITE}[name](budget)


@pytest.mark.parametrize("name", {**BUDGETED, **EVERY_SUITE})
def test_an_over_budget_request_is_refused_before_any_work(no_work, name):
    with pytest.raises(BudgetExceededError, match="budget is 1$"):
        {**BUDGETED, **EVERY_SUITE}[name](1)


@pytest.mark.parametrize("name", EVERY_SUITE)
def test_a_suite_meets_all_its_guards_before_any_work(no_work, monkeypatch, name):
    # a budget one short of the suite's largest guard passes every other
    # guard, and must still be refused before the first walk or listing
    guard, seen = parkseq.enumeration._guard, []

    def recorded(candidates, budget):
        seen.append(candidates)
        guard(candidates, budget)

    monkeypatch.setattr(parkseq.enumeration, "_guard", recorded)
    with pytest.raises(AssertionError, match="worked before refusing"):
        EVERY_SUITE[name](10**8)
    largest = max(seen)
    assert largest > 1 and len(seen) > 1
    with pytest.raises(BudgetExceededError, match=f"would sweep {largest} candidates, budget is {largest - 1}$"):
        EVERY_SUITE[name](largest - 1)
