"""Seeded workloads: the list of timed calls one pass makes, with their reference answers.

A workload is a fixed list of :class:`Op`; the benchmark repeats the list
("a pass") for as long as the run lasts.  Each op is one call into a public
function of parkseq, except that a ``cli`` op is one ``cli.run`` request.
Inputs come from ``random.Random`` seeded with the workload name and the
seed, so the same seed gives the same inputs.

Input sizes are drawn inside narrow bands of a benchmark-side size measure
(a member count or a candidate-space size), so that different seeds give
about the same amount of work and the run-to-run spread stays small.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import oracles as ref

GATE_RECORDS = {
    "eq3": 360,
    "table1": 8,
    "catalan": 12,
    "fuss": 15,
    "determinant": 497,
    "inv-characterizations": 360,
    "strong": 94,
    "sps-k": 78,
    "bijections": 900,
}

DETERMINANT_SIZES = (25, 50, 100, 200)


def _one(_answer) -> int:
    return 1


def _same(answer):
    return answer


@dataclass(eq=False)
class Op:
    """One timed call and how to judge its answer.

    ``summarize`` reduces the returned value to a hashable answer, outside
    the call's timing; ``expect`` computes the reference answer with
    :mod:`oracles`, after the timed phase; ``work`` counts the units
    (records, members, queries) in an answer.  ``replay`` is the direct
    library call that a CLI request stands for; only the traced run makes it,
    to separate the CLI's own time.
    """

    span: str
    call: Callable[[], object]
    expect: Callable[[], object]
    summarize: Callable[[object], object] = _same
    work: Callable[[object], int] = _one
    attrs: dict = field(default_factory=dict)
    replay: tuple[str, Callable[[], object]] | None = None


def _draw(rng, make, size, low, high):
    """Draw ``make(rng)`` until ``low <= size(value) <= high``."""
    while True:
        value = make(rng)
        if low <= size(value) <= high:
            return value


def _lengths(rng, n, top):
    return tuple(rng.randint(1, top) for _ in range(n))


def _frozen(value):
    if isinstance(value, dict):
        return tuple(sorted((key, _frozen(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


# ----------------------------------------------------------------------- gate


def _records_passed(records):
    return len(records), sum(1 for record in records if record.passed)


def _first(answer):
    return answer[0]


def gate(lib, seed):
    """The nine verify suites at their default sizes; one op per suite.

    Every record must pass, and each suite must give its pinned record count.
    """
    return [
        Op(
            f"verify.{name}",
            partial(lib.verify.run_suite, name, seed=seed),
            expect=partial(tuple, (count, count)),
            summarize=_records_passed,
            work=_first,
            attrs={"suite": name},
        )
        for name, count in GATE_RECORDS.items()
    ]


# -------------------------------------------------------------------- listing


def _cardinality(listing):
    return listing.cardinality


def _inv_lengths(rng, kind, n):
    """Lengths from one of the four families with a closed invariance count."""
    if kind == "constant":
        return (rng.randint(1, 3),) * n
    if kind == "two-block":
        small, large = sorted(rng.sample((1, 2, 3), 2))
        r = rng.randint(1, n - 1)
        return (small,) * r + (large,) * (n - r)
    if kind == "one-big-car":
        return (rng.randint(2, 3),) + (1,) * (n - 1)
    return tuple(sorted(rng.sample(range(1, n + 3), n)))


def _strong_base(case):
    """Members of the sorted-lengths family that the definition route lists first."""
    lengths, z = case
    return ref.count_ps(sorted(lengths), z) if len(set(lengths)) > 1 else 0


def listing(lib, seed):
    """Exhaustive listings of every family at sizes within the default budget.

    Per pass: the ``enum_ps`` anchor twice, a fixed ``enum_sps_k`` instance
    six times, and seeded instances of the seven listing functions, 37 ops in
    all.  With an odd op count the median falls inside one op's group of
    samples.
    The reference is each family's cardinality from a closed form or DP.
    """
    rng = random.Random(f"listing:{seed}")
    Instance, enum = lib.core.ParkingInstance, lib.enumeration
    ops = []

    def add(fn_name, call, expect, summarize=_cardinality, **attrs):
        ops.append(Op(f"enumeration.{fn_name}", call, expect, summarize, _same, attrs))

    # The (1^7) anchor of 262,144 members runs twice per pass: the two runs
    # are the largest ops, so the tail latency and the peak memory do not
    # depend on the seed.  The seeded instances end in a unit car, which
    # keeps the depth-first search cost close to the member count.
    ps_cases = [((1,) * 7, 1)] * 2 + [
        _draw(rng, lambda r: (_lengths(r, 5, 3) + (1,), 1),
              lambda case: ref.count_ps(*case), 40_000, 50_000)
        for _ in range(4)
    ]
    for lengths, z in ps_cases:
        add("enum_ps", partial(enum.enum_ps, Instance(lengths, z)),
            partial(ref.count_ps, lengths, z), lengths=lengths, trailer=z)

    for _ in range(4):
        lengths, z = _draw(
            rng, lambda r: (_lengths(r, 8, 3), r.randint(1, 2)),
            lambda case: ref.count_bounded_nondecreasing(ref.standard_bounds(*case)),
            28_000, 32_000,
        )
        add("enum_ips", partial(enum.enum_ips, Instance(lengths, z)),
            partial(ref.count_bounded_nondecreasing, ref.standard_bounds(lengths, z)),
            lengths=lengths, trailer=z)

    # (family, cars, total length band): streets of 9 to 11 spots, except
    # that one big car ahead of four unit cars gives only 6 or 7.
    inv_kinds = (("constant", 5, 10, 10), ("two-block", 5, 9, 9),
                 ("one-big-car", 5, 6, 7), ("increasing", 4, 10, 11))
    for kind, n, low, high in inv_kinds * 2:
        lengths = _draw(rng, lambda r: _inv_lengths(r, kind, n), sum, low, high)
        add("enum_ps_inv", partial(enum.enum_ps_inv, Instance(lengths, 1)),
            partial(ref.inv_count, lengths, 1), lengths=lengths, trailer=1)

    for _ in range(4):
        lengths, z = _draw(rng, lambda r: (_lengths(r, 5, 3), 1), _strong_base, 9_000, 11_000)
        add("enum_sps", partial(enum.enum_sps, lengths, z, method="definition"),
            partial(ref.strong_count, lengths, z), lengths=lengths, trailer=z)

    # One fixed instance, six times: 10,000 candidate sequences (k = 4 cars,
    # 10 spots).  Sixteen seeded ops (the enum_ips, enum_ps_inv and enum_u_pf
    # ones) are faster and the rest slower, give or take two seeded enum_ps
    # ones, so the median latency lies among these six ops' samples and does
    # not move with the seed.
    for total, k, z in ((10, 4, 1),) * 6:
        add("enum_sps_k", partial(enum.enum_sps_k, total, k, z, definitional=True),
            partial(ref.kstrong_count, total, k, z), n=total, k=k, trailer=z)

    for _ in range(4):
        bounds = tuple(sorted(rng.randint(1, 6) for _ in range(4))) + (6,)
        add("enum_u_pf", partial(enum.enum_u_pf, bounds), partial(ref.count_upf, bounds),
            boundary=bounds)

    for _ in range(5):
        bounds = _draw(
            rng, lambda r: ref.standard_bounds(_lengths(r, 7, 2), r.randint(1, 2)),
            ref.count_bounded_nondecreasing, 4_500, 5_500,
        )
        add("enum_lattice_paths", partial(enum.enum_lattice_paths, bounds),
            partial(ref.count_bounded_nondecreasing, bounds), summarize=len, boundary=bounds)
    return ops


# ------------------------------------------------------------------- counting


def _determinant_reference(lengths, z):
    return ref.count_bounded_nondecreasing(ref.standard_bounds(lengths, z))


def counting(lib, seed):
    """Closed forms at sizes no listing reaches.

    The determinant at n = 25, 50, 100 and 200 and the constant-length count
    are checked against a DP over bounded nondecreasing sequences, the
    invariant counts against a DP over vector parking functions, and the
    product counts against the formulas restated.

    A pass is 93 ops, 4 of them determinants.  The 37 invariant and k-strong
    counts are faster than the 17 constant-length counts and the rest are
    slower, so the median falls in the middle of the constant-length counts,
    clear of the groups on either side; the tail is the n = 200 determinant.
    """
    rng = random.Random(f"counting:{seed}")
    count = lib.count
    ops = []

    def add(fn_name, args, expect, **attrs):
        ops.append(Op(f"count.{fn_name}", partial(getattr(count, fn_name), *args), expect, attrs=attrs))

    for n in DETERMINANT_SIZES:
        lengths, z = _lengths(rng, n, 4), rng.randint(1, 3)
        add("count_ips_determinant", (lengths, z), partial(_determinant_reference, lengths, z), n=n)
    for _ in range(17):
        lengths, z = _lengths(rng, rng.randint(100, 300), 4), rng.randint(1, 3)
        add("count_ps_product", (lengths, z), partial(ref.count_ps, lengths, z))
    # The constant-length count holds the median op of a pass, so its size is fixed.
    for _ in range(17):
        k, n, z = 2, 150, rng.randint(1, 3)
        add("count_ips_constant", (k, n, z),
            partial(ref.count_bounded_nondecreasing, tuple(z + i * k for i in range(n))))
    for _ in range(13):
        n, z = rng.randint(20, 40), rng.randint(1, 3)
        add("count_inv_constant", (n, z), partial(ref.count_upf, tuple(range(z, z + n))))
    for _ in range(13):
        n, z = rng.randint(20, 40), rng.randint(1, 3)
        r = rng.randint(1, 5)
        add("count_inv_two_block", (n, r, z), partial(ref.count_upf, ref.two_block_bounds(z, n, r)))
    for _ in range(17):
        lengths = _draw(rng, lambda r: _lengths(r, r.randint(100, 300), 4), lambda v: len(set(v)), 2, 4)
        z = rng.randint(1, 3)
        add("count_sps", (lengths, z), partial(ref.strong_count, lengths, z))
    for total_is_k in (False,) * 9 + (True,) * 2:
        z = rng.randint(1, 3)
        if total_is_k:
            total = k = rng.randint(20, 40)
        else:
            total, k = rng.randint(100, 500), rng.randint(20, 80)
        add("count_sps_k", (total, k, z), partial(ref.kstrong_count, total, k, z))
    return ops


# -------------------------------------------------------------------- queries


def _run_cli(cli, argv):
    """One CLI request with its stdout captured: (exit code, printed text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


# Result keys of ``simulate --json`` that the naive simulator reproduces; the
# failure reason and blocked spot are left to the package's own tests.
_SIMULATE_KEYS = ("street_length", "success", "placements", "configuration", "failed_car")


def _cli_answer(reply):
    code, text = reply
    result = json.loads(text)["result"]
    return code, _frozen({key: value for key, value in result.items() if key in _SIMULATE_KEYS + ("value",)})


def _csv(values):
    return ",".join(str(v) for v in values)


def _prefs(rng, lengths, z):
    """Half the time inside the standard-order box (always parks), else uniform."""
    if rng.random() < 0.5:
        return tuple(rng.randint(1, b) for b in ref.standard_bounds(lengths, z))
    spots = z - 1 + sum(lengths)
    return tuple(rng.randint(1, spots) for _ in lengths)


def _inv_case(rng, n):
    """Characterized lengths and preferences, invariant about half the time."""
    lengths = _inv_lengths(rng, rng.choice(("constant", "two-block", "one-big-car", "increasing")), n)
    z = rng.randint(1, 3)
    want = rng.random() < 0.5
    for _ in range(200):
        prefs = tuple(rng.randint(1, z + 2 * n) for _ in range(n))
        if ref.inv_member(lengths, z, prefs) == want:
            break
    return lengths, z, prefs


def _grid_invariant(rng, n):
    """Constant lengths with n distinct preferences on the invariance grid.

    Every one of the n! rearrangements parks, so the definitional check
    always sweeps the whole permutation set and its cost does not depend on
    the seed.
    """
    k, z = rng.randint(1, 3), rng.randint(1, 3)
    prefs = [z + i * k for i in range(n)]
    rng.shuffle(prefs)
    return (k,) * n, z, tuple(prefs)


def _upf_case(rng):
    n = rng.randint(2, 6)
    bounds = tuple(sorted(rng.randint(1, n + 2) for _ in range(n)))
    return bounds, tuple(rng.randint(1, bounds[-1] + 1) for _ in range(n))


def _ips_member(rng, lengths, z):
    """A random nondecreasing sequence under the standard-order caps."""
    out, low = [], 1
    for cap in ref.standard_bounds(lengths, z):
        low = rng.randint(low, cap)
        out.append(low)
    return tuple(out)


def _instance_answer(lengths, z):
    return lengths, z, z - 1 + sum(lengths)


def _instance_summary(instance):
    return instance.lengths, instance.trailer_z, instance.street_length


def _outcome_answer(lengths, z, prefs):
    placements, failed = ref.park(lengths, z, prefs)
    return failed is None, placements, failed


def _outcome_summary(outcome):
    return outcome.success, outcome.placements, outcome.failed_car


def _increasing_answer(lengths, z, prefs):
    return list(prefs) == sorted(prefs) and ref.parks(lengths, z, prefs)


def _contract(z, step, prefs):
    return tuple(c if c <= z else z + (c - z) // step for c in prefs)


def _expand(z, step, values):
    return tuple(v if v <= z else z + (v - z) * step for v in values)


def _simulate_result(lengths, z, prefs):
    placements, failed = ref.park(lengths, z, prefs)
    result = {"street_length": z - 1 + sum(lengths), "success": failed is None, "placements": placements}
    if failed is None:
        result["configuration"] = tuple(car for _, car in sorted((start, car) for car, (start, _) in enumerate(placements, 1)))
        return 0, _frozen(result)
    result["failed_car"] = failed
    return 1, _frozen(result)


def _value_answer(reference, *args):
    """Exit code and result of ``check`` or ``count``: exit 1 only for a false predicate."""
    value = reference(*args)
    return 1 if value is False else 0, _frozen({"value": value})


# Per-pass op counts.  The heaviest call, one invariance check at n = 8 over
# all 8! rearrangements, sets the tail latency; light validated calls are
# about nine ops in ten and set the median; one op in twenty is a CLI request.
QUERY_MIX = {
    "core.ParkingInstance": 200,
    "core.simulate": 300,
    "classify.is_parking_sequence": 200,
    "classify.is_increasing_ps": 150,
    "classify.perm_invariant_characterized": 150,
    "classify.is_strong_ps": 150,
    "classify.is_k_strong": 150,
    "classify.is_u_parking_function": 150,
    "biject.ips_to_lattice_path": 100,
    "biject.lattice_path_to_ips": 100,
    "biject.to_vector_parking_function": 100,
    "biject.from_vector_parking_function": 100,
    "classify.is_permutation_invariant": 50,
    "classify.is_strong_ps.definitional": 20,
    "classify.is_k_strong.definitional": 20,
    "cli.run": 100,
}


def queries(lib, seed):
    """A seeded mix of single validated calls, one in twenty through the CLI.

    References come from the naive simulator or a closed characterization,
    never from the predicate under test; bijection answers must also map
    back to their input under the inverse map.
    """
    rng = random.Random(f"queries:{seed}")
    core, classify, biject, cli = lib.core, lib.classify, lib.biject, lib.cli
    Instance = core.ParkingInstance
    ops = []

    def add(span, call, expect, summarize=_same, replay=None, **attrs):
        ops.append(Op(span, call, expect, summarize, _one, attrs, replay))

    def instance_case(n_high=6):
        lengths = _lengths(rng, rng.randint(2, n_high), 3)
        z = rng.randint(1, 3)
        return lengths, z, _prefs(rng, lengths, z)

    for _ in range(QUERY_MIX["core.ParkingInstance"]):
        lengths, z, _ = instance_case()
        add("core.ParkingInstance", partial(Instance, lengths, z),
            partial(_instance_answer, lengths, z), _instance_summary)

    for _ in range(QUERY_MIX["core.simulate"]):
        lengths, z, prefs = instance_case()
        add("core.simulate", partial(core.simulate, Instance(lengths, z), prefs),
            partial(_outcome_answer, lengths, z, prefs), _outcome_summary)

    for _ in range(QUERY_MIX["classify.is_parking_sequence"]):
        lengths, z, prefs = instance_case()
        add("classify.is_parking_sequence",
            partial(classify.is_parking_sequence, Instance(lengths, z), prefs),
            partial(ref.parks, lengths, z, prefs))

    for _ in range(QUERY_MIX["classify.is_increasing_ps"]):
        lengths, z, prefs = instance_case()
        if rng.random() < 0.5:
            prefs = tuple(sorted(prefs))
        add("classify.is_increasing_ps",
            partial(classify.is_increasing_ps, Instance(lengths, z), prefs),
            partial(_increasing_answer, lengths, z, prefs))

    for _ in range(QUERY_MIX["classify.perm_invariant_characterized"]):
        lengths, z, prefs = _inv_case(rng, rng.randint(2, 6))
        add("classify.perm_invariant_characterized",
            partial(classify.perm_invariant_characterized, Instance(lengths, z), prefs),
            partial(ref.inv_member, lengths, z, prefs))

    inv_cases = [_grid_invariant(rng, 8)] + [_grid_invariant(rng, 7) for _ in range(3)]
    inv_cases += [
        _inv_case(rng, rng.randint(4, 6))
        for _ in range(QUERY_MIX["classify.is_permutation_invariant"] - len(inv_cases))
    ]
    for lengths, z, prefs in inv_cases:
        add("classify.is_permutation_invariant",
            partial(classify.is_permutation_invariant, Instance(lengths, z), prefs),
            partial(ref.inv_member, lengths, z, prefs), n=len(lengths))

    for span, n_high in (("classify.is_strong_ps", 6), ("classify.is_strong_ps.definitional", 5)):
        for _ in range(QUERY_MIX[span]):
            lengths, z, prefs = instance_case(n_high)
            add(span,
                partial(classify.is_strong_ps, lengths, z, prefs,
                        definitional=span.endswith("definitional")),
                partial(ref.strong_member, lengths, z, prefs))

    for span, top in (("classify.is_k_strong", 12), ("classify.is_k_strong.definitional", 9)):
        for _ in range(QUERY_MIX[span]):
            total = rng.randint(3, top)
            k = rng.randint(2, min(total, 5))
            z = rng.randint(1, 3)
            prefs = tuple(rng.randint(1, z + k) for _ in range(k))
            add(span,
                partial(classify.is_k_strong, total, k, z, prefs,
                        definitional=span.endswith("definitional")),
                partial(ref.kstrong_member, total, k, z, prefs))

    for _ in range(QUERY_MIX["classify.is_u_parking_function"]):
        bounds, values = _upf_case(rng)
        add("classify.is_u_parking_function",
            partial(classify.is_u_parking_function, bounds, values),
            partial(ref.upf_member, bounds, values))

    def path_summary(instance, path):
        return path.xs, path.boundary, path.width, biject.lattice_path_to_ips(instance, path)

    for _ in range(QUERY_MIX["biject.ips_to_lattice_path"]):
        lengths, z, _ = instance_case()
        instance, prefs = Instance(lengths, z), _ips_member(rng, lengths, z)
        expected = (tuple(c - 1 for c in prefs), ref.standard_bounds(lengths, z), z - 1 + sum(lengths), prefs)
        add("biject.ips_to_lattice_path", partial(biject.ips_to_lattice_path, instance, prefs),
            partial(tuple, expected), partial(path_summary, instance))

    def ips_summary(instance, prefs):
        return prefs, biject.ips_to_lattice_path(instance, prefs).xs

    for _ in range(QUERY_MIX["biject.lattice_path_to_ips"]):
        lengths, z, _ = instance_case()
        instance, prefs = Instance(lengths, z), _ips_member(rng, lengths, z)
        xs = tuple(c - 1 for c in prefs)
        path = biject.LatticePath(xs, ref.standard_bounds(lengths, z), z - 1 + sum(lengths))
        add("biject.lattice_path_to_ips", partial(biject.lattice_path_to_ips, instance, path),
            partial(tuple, (prefs, xs)), partial(ips_summary, instance))

    def contract_summary(z, step, values):
        return values, biject.from_vector_parking_function(z, step, values)

    def expand_summary(z, step, prefs):
        return prefs, biject.to_vector_parking_function(z, step, prefs)

    for _ in range(QUERY_MIX["biject.to_vector_parking_function"]):
        n, z, step = rng.randint(2, 6), rng.randint(1, 3), rng.randint(1, 3)
        grid = list(range(1, z + 1)) + [z + s * step for s in range(1, n + 1)]
        prefs = tuple(rng.choice(grid) for _ in range(n))
        add("biject.to_vector_parking_function",
            partial(biject.to_vector_parking_function, z, step, prefs),
            partial(tuple, (_contract(z, step, prefs), prefs)),
            partial(contract_summary, z, step))

    for _ in range(QUERY_MIX["biject.from_vector_parking_function"]):
        n, z, step = rng.randint(2, 6), rng.randint(1, 3), rng.randint(1, 3)
        values = tuple(rng.randint(1, z + n) for _ in range(n))
        add("biject.from_vector_parking_function",
            partial(biject.from_vector_parking_function, z, step, values),
            partial(tuple, (_expand(z, step, values), values)),
            partial(expand_summary, z, step))

    for index in range(QUERY_MIX["cli.run"]):
        argv, expect, replay = _cli_request(lib, rng, ("simulate", "check", "count")[index % 3])
        add("cli.run", partial(_run_cli, cli, argv), expect, _cli_answer, replay, command=argv[0])

    rng.shuffle(ops)
    return ops


def _cli_request(lib, rng, command):
    """(argv, reference answer, replay) for one CLI request."""
    core, classify, count = lib.core, lib.classify, lib.count
    lengths = _lengths(rng, rng.randint(2, 5), 3)
    z = rng.randint(1, 3)
    prefs = _prefs(rng, lengths, z)
    if command == "simulate":
        argv = ["simulate", "--lengths", _csv(lengths), "--trailer", str(z), "--prefs", _csv(prefs), "--json"]
        replay = lambda: core.simulate(core.ParkingInstance(lengths, z), prefs)
        return argv, partial(_simulate_result, lengths, z, prefs), ("core.simulate", replay)
    if command == "check":
        family = rng.choice(("ps", "ips", "inv", "strong", "upf"))
        if family == "upf":
            bounds, prefs = _upf_case(rng)
            argv = ["check", "--family", "upf", "--boundary", _csv(bounds), "--prefs", _csv(prefs), "--json"]
            return (argv, partial(_value_answer, ref.upf_member, bounds, prefs),
                    ("classify.is_u_parking_function", partial(classify.is_u_parking_function, bounds, prefs)))
        if family == "inv":
            lengths, z, prefs = _inv_case(rng, rng.randint(2, 5))
        argv = ["check", "--family", family, "--lengths", _csv(lengths), "--trailer", str(z),
                "--prefs", _csv(prefs), "--json"]
        if family == "strong":
            return (argv, partial(_value_answer, ref.strong_member, lengths, z, prefs),
                    ("classify.is_strong_ps", partial(classify.is_strong_ps, lengths, z, prefs)))
        reference, predicate = {
            "ps": (ref.parks, classify.is_parking_sequence),
            "ips": (_increasing_answer, classify.is_increasing_ps),
            "inv": (ref.inv_member, classify.is_permutation_invariant),
        }[family]
        replay = lambda: predicate(core.ParkingInstance(lengths, z), prefs)
        return (argv, partial(_value_answer, reference, lengths, z, prefs),
                (f"classify.{predicate.__name__}", replay))
    formula = rng.choice(("ps", "ips-det", "ips-const", "inv-inc", "inv-const", "inv-two-block", "sps", "sps-k"))
    n, k = rng.randint(2, 12), rng.randint(1, 4)
    by_lengths = ["--lengths", _csv(lengths), "--trailer", str(z)]
    if formula == "ps":
        args, reference, fn = by_lengths, partial(ref.count_ps, lengths, z), partial(count.count_ps_product, lengths, z)
    elif formula == "ips-det":
        args, reference = by_lengths, partial(_determinant_reference, lengths, z)
        fn = partial(count.count_ips_determinant, lengths, z)
    elif formula == "ips-const":
        args = ["--k", str(k), "--n", str(n), "--trailer", str(z)]
        reference = partial(ref.count_bounded_nondecreasing, tuple(z + i * k for i in range(n)))
        fn = partial(count.count_ips_constant, k, n, z)
    elif formula == "inv-inc":
        args, reference = ["--n", str(n), "--trailer", str(z)], partial(pow, z, n)
        fn = partial(count.count_inv_strictly_increasing, n, z)
    elif formula == "inv-const":
        args, reference = ["--n", str(n), "--trailer", str(z)], partial(ref.count_upf, tuple(range(z, z + n)))
        fn = partial(count.count_inv_constant, n, z)
    elif formula == "inv-two-block":
        r = rng.randint(1, n - 1)
        args = ["--n", str(n), "--r", str(r), "--trailer", str(z)]
        reference = partial(ref.count_upf, ref.two_block_bounds(z, n, r))
        fn = partial(count.count_inv_two_block, n, r, z)
    elif formula == "sps":
        args, reference, fn = by_lengths, partial(ref.strong_count, lengths, z), partial(count.count_sps, lengths, z)
    else:
        k = rng.randint(1, n)
        args = ["--n", str(n), "--k", str(k), "--trailer", str(z)]
        reference, fn = partial(ref.kstrong_count, n, k, z), partial(count.count_sps_k, n, k, z)
    argv = ["count", "--formula", formula, *args, "--json"]
    return argv, partial(_value_answer, reference), (f"count.{fn.func.__name__}", fn)


BUILDERS = {"gate": gate, "listing": listing, "counting": counting, "queries": queries}
