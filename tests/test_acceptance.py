"""End-to-end acceptance run: every pinned result, exact, one line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.  Each
criterion is exact (tolerance zero); most delegate to the named ``verify``
suites so the command line gate checks the same things.  Every suite runs
once, and a digest of all its records pins the gate's output.
"""

import gc
import hashlib
import re
import weakref

import pytest

from parkseq import (
    ParkingInstance,
    enum_ps,
    enum_sps,
    enum_sps_k,
    is_parking_sequence,
    necessary_condition,
    simulate,
)
from parkseq import verify
from parkseq.core import BudgetExceededError, standard_order_bounds
from parkseq.enumeration import FamilyListing
from parkseq.verify import SUITE_NAMES, run_suite

# sha256 of every gate record, suites in run order, one repr per line:
# (check, params, expected, computed, note).  A record added on purpose
# changes it; an unchanged gate never does.
GATE_RECORDS = 2324
GATE_DIGEST = "6e392100998ef6993ed4a1ca359a1902760008ce60c96d6fee033d19d8d30730"
# The same digest of run_suite("all", max_n=m): every sized suite at size m.
SIZED_GATE = {
    1: (147, "ebd3f63c458d5fb7b1da521fa3bb92223051b4a01729bddab6e1fd1c722dc626"),
    2: (446, "e153f0945be0626341c2fe8110a76bc9cb4efb45a958efc373219e55517ba9b3"),
    3: (1064, "a289b913d3b94d6e4d8e793ef264c1a83f79ed6bd5dd297d305d7d4e2d6a83f3"),
}


def _digest(records):
    lines = (repr((r.check, r.params, r.expected, r.computed, r.note)) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _criterion(tag, records):
    failures = [record for record in records if not record.passed]
    status = "FAIL" if failures else "PASS"
    print(f"{status} {tag}: {len(records) - len(failures)}/{len(records)} checks")
    assert not failures, f"{tag}: {len(failures)} failed, first: {failures[:3]}"


def _boolean(tag, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {tag}")
    assert ok, f"{tag} {detail}"


@pytest.fixture(scope="module")
def suites():
    """Every verify suite at its default size, run once, in gate order."""
    return {name: run_suite(name) for name in SUITE_NAMES if name != "all"}


def test_criterion_01_figure_replay():
    outcome = simulate(ParkingInstance((1, 2, 2, 3), 4), (3, 7, 5, 3))
    ok = (
        outcome.success
        and outcome.placements == ((4, 4), (7, 8), (5, 6), (9, 11))
        and outcome.configuration == (1, 3, 2, 4)
    )
    _boolean("criterion 1 (four-car replay)", ok, f"got {outcome}")


def test_criterion_02_product_count_vs_sweep(suites):
    _criterion("criterion 2 (product count on the full grid)", suites["eq3"])


def test_criterion_03_two_big_car_table(suites):
    _criterion("criterion 3 (pinned invariant counts)", suites["table1"])


def test_criterion_04_catalan_and_fuss(suites):
    _criterion(
        "criterion 4 (Catalan and Fuss-Catalan)",
        suites["catalan"] + suites["fuss"],
    )


def test_criterion_05_determinant(suites):
    _criterion("criterion 5 (boundary determinant)", suites["determinant"])


def test_criterion_06_invariance_characterizations(suites):
    _criterion("criterion 6 (invariance characterizations)", suites["inv-characterizations"])


def test_criterion_07_strong_sequences(suites):
    _criterion("criterion 7 (rearranged length vectors)", suites["strong"])


def test_criterion_08_k_strong(suites):
    _criterion("criterion 8 (fixed street weight)", suites["sps-k"])


def test_criterion_09_bijection_round_trips(suites):
    images = [r for r in suites["inv-characterizations"] if r.check.endswith("-image")]
    _criterion("criterion 9 (round trips and images)", suites["bijections"] + images)


def _failed_at(records, instance):
    params = {"lengths": instance.lengths, "trailer": instance.trailer_z}
    return sorted(r.check for r in records if not r.passed and r.params == params)


def test_off_grid_member_fails_the_contraction_records(monkeypatch):
    # the suites contract through the kernel, which maps an entry off the step
    # grid to None; that must read as a failed record, never raise
    off_grid = ParkingInstance((2, 2), 1)  # step 2 above z = 1: 2 is off the grid
    characterized = verify._characterized_set
    monkeypatch.setattr(verify, "_characterized_set",
                        lambda instance: ((2, 1),) if instance == off_grid else characterized(instance))
    records = run_suite("bijections", max_n=2)
    assert _failed_at(records, off_grid) == [
        "contraction-constant-image", "contraction-constant-roundtrip"]
    assert sum(not r.passed for r in records) == 2


def test_off_grid_member_fails_the_two_block_image(monkeypatch):
    off_grid = ParkingInstance((2, 2, 3), 1)  # step 2 above z = 1: (2, 1, 1) is off the grid
    inv = verify._inv

    def padded(instance, budget, memos=None):
        listing = inv(instance, budget, memos)
        if instance != off_grid:
            return listing
        members = tuple(sorted(listing.members + ((2, 1, 1),)))
        return FamilyListing(listing.family, listing.params, members)

    monkeypatch.setattr(verify, "_inv", padded)
    records = run_suite("inv-characterizations", max_n=3)
    assert _failed_at(records, off_grid) == [
        "inv-two-block-count", "inv-two-block-image", "inv-two-block-set"]
    assert sum(not r.passed for r in records) == 3


@pytest.mark.parametrize("top", [(3,), (3, 6, 9, 12)])
def test_a_bad_path_shift_fails_exactly_the_instances_with_its_bounds(monkeypatch, top):
    # ``top`` is the largest member of the capped pass under bounds equal to
    # it, and no other bounds of the grid admit it.  The instances with those
    # bounds share one shift, so a wrong path for it must fail the round trip
    # and the image of each of them, wherever it sits in the grid, and no
    # other record.
    to_path = verify._to_path
    monkeypatch.setattr(verify, "_to_path",
                        lambda prefs: (0,) * len(prefs) if prefs == top else to_path(prefs))
    records = run_suite("bijections")
    hit = [instance for instance in verify._instance_grid(4) if standard_order_bounds(instance) == top]
    assert len(hit) == 3
    for instance in hit:
        assert _failed_at(records, instance) == ["ips-path-image", "ips-path-roundtrip"]
    assert sum(not r.passed for r in records) == 2 * len(hit)


@pytest.mark.parametrize("back, broken, check, hit", [
    pytest.param("_from_path", ((2, 5, 8, 11),), "ips-path-roundtrip",
                 [instance for instance in verify._instance_grid(4)
                  if standard_order_bounds(instance) == (3, 6, 9, 12)], id="path"),
    pytest.param("_expand", (1, 2, (1, 2)), "contraction-constant-roundtrip",
                 [ParkingInstance((2, 2), 1)], id="contraction"),
])
def test_a_bad_inverse_fails_exactly_the_round_trips_that_read_it(monkeypatch, back, broken, check, hit):
    # The map there is right, so every image still equals its family.  The
    # inverse is wrong on one image only, which lies in the domain of the
    # instances ``hit`` and no other: each of them must fail its round trip,
    # and no other record may fail.
    inverse = getattr(verify, back)
    monkeypatch.setattr(verify, back, lambda *args: (0,) if args == broken else inverse(*args))
    records = run_suite("bijections")
    assert hit
    for instance in hit:
        assert _failed_at(records, instance) == [check]
    assert sum(not r.passed for r in records) == len(hit)


# Budgets from 1 to 10^5, eight a decade, and for each suite the candidates
# of the refusal at each rung (None: the suite runs and passes), recorded
# when `bijections` still built `_paths` per instance and `_upf` per
# contraction, and `inv-characterizations` `_upf` per instance.  A shared
# producer skips its repeated guards, which must change no refusal.
BUDGET_LADDER = sorted({round(10 ** (k / 8)) for k in range(41)})
REFUSED_AT = {
    "determinant": (2, 3, 4, 5, 9, 9, 12, 16, 25, 25, 36, 49, 64, 125, 125, 216, 216, 343, 343,
                    512, 729, 1000, 1331, 1440, 1782, *(27216,) * 9, 40320, 51051, *(None,) * 3),
    "bijections": (2, 3, 6, 6, 12, 12, 12, 15, 24, 60, 60, 60, 60, 84, 105, 144, 360, 360, 360,
                   480, 576, 756, 1050, 1440, 1782, *(None,) * 14),
    "inv-characterizations": (2, 3, 4, 5, 9, 9, 16, 16, 25, 25, 36, 49, 64, 81, 216, 216, 216,
                              343, 343, 512, 729, 1000, 1331, *(10000,) * 7, 14641, 14641, 20736,
                              28561, 38416, *(None,) * 4),
    "all": (2, 3, 4, 5, 9, 9, 16, 16, 25, 25, 36, 49, 64, 125, 125, 216, 216, 343, 343, 512, 729,
            1000, 1331, 2401, 2401, 2401, 4096, 6561, 6561, 10000, 14641, 14641, 20736, 28561,
            38416, 59049, 59049, None, None),
}


@pytest.mark.parametrize("name", sorted(REFUSED_AT))
def test_budget_ladder_refuses_as_before_the_shared_keys(name):
    assert len(BUDGET_LADDER) == len(REFUSED_AT[name]) == 39
    for budget, candidates in zip(BUDGET_LADDER, REFUSED_AT[name]):
        if candidates is None:
            assert all(record.passed for record in run_suite(name, budget=budget))
            continue
        message = f"enumeration would sweep {candidates} candidates, budget is {budget}"
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
            run_suite(name, budget=budget)


def test_criterion_10_counterexample_pinning():
    swapped = is_parking_sequence(ParkingInstance((2, 2), 1), (2, 1))
    sorted_large = is_parking_sequence(ParkingInstance((1, 1, 4), 1), (1, 5, 6))
    large_last = is_parking_sequence(ParkingInstance((1, 1, 4), 1), (5, 6, 1))
    necessary = necessary_condition(ParkingInstance((2, 2), 1), (2, 1))
    ok = (not swapped) and (not sorted_large) and large_last and necessary
    _boolean(
        "criterion 10 (counterexample pinning)",
        ok,
        f"swapped={swapped} sorted_large={sorted_large} large_last={large_last} necessary={necessary}",
    )


def test_gate_records_are_pinned(suites):
    records = [record for records in suites.values() for record in records]
    assert len(records) == GATE_RECORDS
    assert _digest(records) == GATE_DIGEST


@pytest.mark.parametrize("max_n", sorted(SIZED_GATE))
def test_sized_gate_records_are_pinned(max_n):
    records = run_suite("all", max_n=max_n)
    assert (len(records), _digest(records)) == SIZED_GATE[max_n]


def test_run_suite_drops_each_grid_entry_before_reading_the_next(monkeypatch):
    # what only the first entry holds is gone once the second entry's rows run
    class Product:
        pass

    held = []

    def first(product):
        yield "first", {}, True, True, "reads the product"

    def second():
        yield "second", {}, None, held[0](), "the first entry's product, by weak reference"

    def suite(max_n, seed, budget):
        product = Product()
        held.append(weakref.ref(product))
        return [(first, product), (second,)]

    monkeypatch.setattr(verify, "_SUITES", {"eq3": (suite, 1)})
    gc.disable()  # the product is freed by its count, not by a collection
    try:
        records = run_suite("eq3")
    finally:
        gc.enable()
    assert [record.passed for record in records] == [True, True]


def test_unknown_suite_is_refused():
    message = (
        "unknown suite 'nope'; choices are all, eq3, table1, catalan, fuss, determinant,"
        " inv-characterizations, strong, sps-k, bijections"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite("nope")


@pytest.mark.parametrize(
    "max_n, message",
    [
        (0, "max_n must be >= 1, got 0"),
        (-5, "max_n must be >= 1, got -5"),
        (True, "max_n must be an integer"),
        (2.5, "max_n must be an integer"),
        ("3", "max_n must be an integer"),
    ],
)
def test_max_n_below_one_is_refused(max_n, message):
    # a size that runs no sweep would let the gate pass on nothing
    for name in ("eq3", "all"):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite(name, max_n=max_n)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: enum_ps(ParkingInstance((1,) * 7)), id="enum_ps"),
        pytest.param(lambda: enum_sps((1, 2, 2, 3), 1), id="enum_sps"),
        pytest.param(lambda: enum_sps_k(7, 4, 1, definitional=True), id="enum_sps_k"),
    ]
    + [pytest.param(lambda name=name: run_suite(name), id=name) for name in SUITE_NAMES],
)
def test_leaves_no_reference_cycles(call):
    # cyclic garbage holds whole listings until a full collection
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
