"""Command-line surface: exit codes, JSON schema, diagrams, file dumps."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweeps import bounded_nondecreasing_count

import parkseq
from parkseq import ParkingInstance, count_ps_product, simulate
from parkseq.cli import (
    _COMMANDS,
    _FAMILIES,
    _FORMULAS,
    _ints_csv,
    _positive_int,
    _street_lines,
    build_parser,
    run,
)
from parkseq.core import BudgetExceededError
from parkseq.verify import SUITE_NAMES


def _cells(line):
    return [cell.strip() for cell in line.strip("|").split("|")]


class TestRender:
    def test_fig1_layout(self):
        instance, prefs = ParkingInstance((1, 2, 2, 3), 4), (3, 7, 5, 3)
        lines = _street_lines(instance, prefs, simulate(instance, prefs))
        cells = _cells(lines[0])
        assert cells == ["T", "T", "T", "C1", "C3", "C3", "C2", "C2", "C4", "C4", "C4"]
        assert _cells(lines[1]) == [str(s) for s in range(1, 12)]

    def test_collision_marker(self):
        instance, prefs = ParkingInstance((2, 2), 1), (2, 1)
        lines = _street_lines(instance, prefs, simulate(instance, prefs))
        assert _cells(lines[0]) == [".", "C1", "C1", "."]
        marker_column = lines[2].index("^")
        spot_two_column = 1 + (2 - 1) * (len(lines[1].strip("|").split("|")[0]) + 1)
        assert marker_column == spot_two_column
        assert "car 2 cannot park: collision at spot 2" in lines[3]

    def test_no_trailer_single_car(self):
        instance, prefs = ParkingInstance((1,), 1), (1,)
        lines = _street_lines(instance, prefs, simulate(instance, prefs))
        assert _cells(lines[0]) == ["C1"]
        assert "T" not in lines[0]

    @pytest.mark.parametrize(
        "flags, diagram",
        [
            ("--lengths 1 --prefs 2",
             ["| .|", "| 1|", " ^^", "car 1 cannot park: no empty spot at or past 2"]),
            ("--lengths 2,2 --prefs 4,1",
             ["| .| .| .| .|", "| 1| 2| 3| 4|", "          ^^",
              "car 1 cannot park: needs spots 4-5 but the street ends at 4"]),
        ],
        ids=["off-street", "street-end"],
    )
    def test_failure_marker(self, capsys, flags, diagram):
        assert run(["simulate", *flags.split(), "--render"]) == 1
        assert capsys.readouterr().out.splitlines() == diagram

    def test_success_behind_a_trailer_is_described(self, capsys):
        assert run(["simulate", "--lengths", "1,2", "--trailer", "3", "--prefs", "1,3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "spots 1-2: trailer", "car 1 -> spots 3-3", "car 2 -> spots 4-5", "configuration: T C1 C2",
        ]

    @pytest.mark.parametrize(
        "flags, text",
        [
            ("--lengths 1 --prefs 2", ["car 1 cannot park: off street (preference 2)"]),
            ("--lengths 2,2 --prefs 2,1",
             ["car 1 -> spots 2-3", "car 2 cannot park: collision at spot 2 (preference 1)"]),
            ("--lengths 1,2 --prefs 2,3",
             ["car 1 -> spots 2-2",
              "car 2 cannot park: needs spots 3-4 but the street ends at 3 (preference 3)"]),
        ],
        ids=["off-street", "collision", "street-end"],
    )
    def test_failure_is_described(self, capsys, flags, text):
        assert run(["simulate", *flags.split()]) == 1
        assert capsys.readouterr().out.splitlines() == text


class TestExitCodes:
    def test_simulate_success(self, capsys):
        code = run(
            ["simulate", "--lengths", "1,2,2,3", "--trailer", "4", "--prefs", "3,7,5,3", "--render"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "C4" in out

    def test_simulate_failure_is_one(self):
        assert run(["simulate", "--lengths", "2,2", "--prefs", "2,1"]) == 1

    def test_check_false_is_one(self):
        assert run(["check", "--family", "inv", "--lengths", "1,2", "--trailer", "1", "--prefs", "1,2"]) == 1

    def test_check_true_is_zero(self):
        assert run(["check", "--family", "ps", "--lengths", "1,2", "--prefs", "3,1"]) == 0

    def test_check_inv_on_twelve_cars(self, capsys):
        # 12! orderings; the verdict comes without listing them
        cars = ["check", "--family", "inv", "--lengths", ",".join(["1"] * 12)]
        assert run(cars + ["--prefs", ",".join(map(str, range(1, 13)))]) == 0
        assert run(cars + ["--prefs", ",".join(map(str, range(2, 14)))]) == 1

    def test_check_inv_beyond_the_recursion_limit(self, capsys):
        # the every-ordering sweep runs 600 layers, with no recursion
        cars = ",".join(["1"] * 600)
        assert run(["check", "--family", "inv", "--lengths", cars, "--prefs", cars]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_check_kstrong_definitional_on_forty_spots(self, capsys):
        # C(39, 19) compositions; the definition answers without listing them
        argv = ["check", "--family", "kstrong", "--definitional", "--n", "40", "--k", "20"]
        assert run([*argv, "--trailer", "1", "--prefs", ",".join(["1"] * 20)]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_usage_error_is_two(self, capsys):
        assert run(["check", "--family", "nonsense", "--prefs", "1"]) == 2
        assert run(["enumerate", "--family", "ps"]) == 2  # --lengths missing
        assert run(["count", "--formula", "sps-k", "--n", "3"]) == 2  # --k missing
        capsys.readouterr()
        for route in (["--k", "2"], ["--k", "2", "--definitional"], ["--k", "3"]):
            argv = ["enumerate", "--family", "kstrong", "--n", "3", *route, "--trailer", "0"]
            assert run([*argv, "--count-only"]) == 2
            assert capsys.readouterr().err == "error: trailer parameter must be >= 1, got 0\n"
        for argv in (
            ["verify", "--suite", "eq3", "--max-n", "0"],
            ["verify", "--suite", "eq3", "--max-n", "-1"],
            ["verify", "--suite", "eq3", "--budget", "0"],
            ["enumerate", "--family", "ps", "--lengths", "1,2", "--budget", "-1"],
            ["enumerate", "--family", "ps", "--lengths", "1,2", "--budget", "0"],
        ):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: argument {argv[-2]}: value must be >= 1, got {argv[-1]}\n")
        # the diagram has one cell per spot, and no list holds 2**63 of them
        argv = ["simulate", "--render", "--lengths", "1", "--prefs", "1", "--trailer", str(2**63 + 1)]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"error: \S.*\n", err), err

    @pytest.mark.parametrize("trailer", [2**63 + 1, 2**70])
    def test_a_huge_trailer_is_answered(self, capsys, trailer):
        # the trailer is a shift of the street, so no mask grows with it
        flags = ["--lengths", "1", "--prefs", "1", "--trailer", str(trailer)]
        assert run(["simulate", *flags]) == 0
        assert capsys.readouterr() == (
            f"spots 1-{trailer - 1}: trailer\ncar 1 -> spots {trailer}-{trailer}\n"
            "configuration: T C1\n", "")
        assert run(["check", "--family", "ps", *flags]) == 0
        assert capsys.readouterr() == ("true\n", "")

    @pytest.mark.parametrize(
        "n, k, message",
        [
            (0, 0, "street weight must be >= 1, got 0"),
            (-2, 1, "street weight must be >= 1, got -2"),
            (3, 0, "need 1 <= k <= 3, got 0"),
            (3, 4, "need 1 <= k <= 3, got 4"),
        ],
    )
    def test_kstrong_pair_gets_one_message(self, capsys, n, k, message):
        pair = ["--n", str(n), "--k", str(k)]
        for argv in (
            ["count", "--formula", "sps-k", *pair],
            ["check", "--family", "kstrong", *pair, "--prefs", "1"],
            ["enumerate", "--family", "kstrong", *pair, "--count-only"],
        ):
            assert run(argv) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("simulate --lengths 1,x --prefs 1,1",
             "argument --lengths: expected comma-separated integers, got '1,x'"),
            ("enumerate --family ps --lengths 1,2 --budget x", "argument --budget: invalid int value: 'x'"),
            ("check --family upf --boundary 3,1 --prefs 1,1", "boundary must be nondecreasing, got (3, 1)"),
        ],
        ids=["lengths", "budget", "boundary"],
    )
    def test_malformed_value_is_a_usage_error(self, capsys, argv, message):
        assert run(argv.split()) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, flags",
        [
            ("count --formula fuss --k 2 --n 3 --trailer 5", "--trailer"),
            ("check --family upf --boundary 1,2 --prefs 1,1 --trailer 3", "--trailer"),
            ("enumerate --family ips --lengths 1,1 --width 3", "--width"),
            ("check --family ps --lengths 1,2 --prefs 1,1 --definitional", "--definitional"),
            ("check --family ps --lengths 1,2 --prefs 1,1 --k 0", "--k"),
            ("enumerate --family paths --boundary 1,2 --trailer 2 --definitional", "--trailer, --definitional"),
            ("count --formula ps --lengths 1,2 --n 2 --r 1", "--n, --r"),
        ],
        ids=["fuss-trailer", "upf-trailer", "ips-width", "ps-definitional", "ps-k", "paths", "ps-n-r"],
    )
    def test_flag_the_choice_does_not_read_is_a_usage_error(self, capsys, argv, flags):
        # refused whatever the other flags hold, a needed one left unset among them
        words = argv.split()
        for request in (words, words[:3] + words[5:]):
            assert run(request) == 2, request
            assert capsys.readouterr() == ("", f"error: {' '.join(words[1:3])} does not take {flags}\n"), request

    def test_a_default_value_counts_as_unset(self, capsys):
        for argv in ("count --formula fuss --k 2 --n 3", "check --family upf --boundary 1,2 --prefs 1,1",
                     "enumerate --family upf --boundary 1,2 --count-only"):
            assert run([*argv.split(), "--json"]) in (0, 1)
            plain = capsys.readouterr().out
            assert run([*argv.split(), "--trailer", "1", "--json"]) in (0, 1)
            assert capsys.readouterr().out == plain

    def test_budget_error_is_four(self):
        assert run(["enumerate", "--family", "ps", "--lengths", "2,2,2", "--budget", "10"]) == 4

    @pytest.mark.parametrize("budget, candidates", [(5, 9), (100, 125), (1000, 1331), (10000, 14641)])
    def test_eq3_refuses_the_first_instance_in_grid_order(self, capsys, budget, candidates):
        # every eq3 guard is met in grid order before any walk, so the refused
        # instance is the first in the grid whose M^n exceeds the budget
        assert run(["verify", "--suite", "eq3", "--budget", str(budget)]) == 4
        assert capsys.readouterr() == (
            "", f"error: enumeration would sweep {candidates} candidates, budget is {budget}\n"
        )

    def test_enumerate_strong_honors_definitional(self, capsys):
        # the characterized box holds 1 * 2 * 4 members; the definition
        # sweeps 5^3 candidates
        argv = ["enumerate", "--family", "strong", "--lengths", "2,1,2", "--budget", "10"]
        assert run([*argv, "--count-only"]) == 0
        assert capsys.readouterr().out == "8\n"
        assert run([*argv, "--count-only", "--definitional"]) == 4

    def test_verify_pass_is_zero(self):
        assert run(["verify", "--suite", "table1"]) == 0

    def test_verify_mismatch_is_three(self, monkeypatch, capsys):
        # a one-entry suite whose one row's formula disagrees with its sweep
        def rows(n):
            yield "made-up", {"n": n, "trailer": 2}, 5, 6, "a deliberate mismatch"

        def suite(max_n, seed, budget):
            return [(rows, max_n)]

        monkeypatch.setattr(parkseq.verify, "_SUITES", {"eq3": (suite, 1)})
        assert run(["verify", "--suite", "eq3"]) == 3
        assert capsys.readouterr().out == (
            "FAIL  made-up  n=1 trailer=2  expected=5 computed=6\n"
            "suite eq3: 1 checks, 0 passed, 1 failed\n"
        )
        assert run(["verify", "--suite", "eq3", "--json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == {"total": 1, "passed": 0, "failed": 1}
        assert doc["records"] == [
            {"check": "made-up", "params": {"n": 1, "trailer": 2}, "expected": 5,
             "computed": 6, "pass": False, "note": "a deliberate mismatch"}
        ]


class TestOutputs:
    def test_count_prints_value(self, capsys):
        assert run(["count", "--formula", "sps-k", "--n", "3", "--k", "3", "--z", "1"]) == 0
        assert capsys.readouterr().out.strip() == "16"

    def test_count_ips_det_on_200_cars(self, capsys):
        rng = random.Random(1729)
        lengths = [rng.randint(1, 4) for _ in range(200)]
        argv = ["count", "--formula", "ips-det", "--lengths", ",".join(map(str, lengths))]
        assert run([*argv, "--trailer", "2", "--json"]) == 0
        value = json.loads(capsys.readouterr().out)["result"]["value"]
        assert value == bounded_nondecreasing_count(lengths, 2)

    def test_enumerate_streams_lexicographically(self, capsys):
        run(["enumerate", "--family", "ps", "--lengths", "1,2"])
        assert capsys.readouterr().out.splitlines() == ["1,1", "1,2", "3,1"]

    def test_enumerate_count_only(self, capsys):
        run(["enumerate", "--family", "ps", "--lengths", "1,2", "--count-only"])
        assert capsys.readouterr().out.strip() == "3"

    def test_enumerate_count_only_behind_a_trailer_of_10_000(self, capsys):
        # the walk is that of z = 1 and the count is read off its steps; the
        # guard still charges (z - 1 + 7)**4 candidates, so the budget is raised
        argv = ["enumerate", "--family", "ps", "--lengths", "1,2,1,3", "--trailer", "10000"]
        assert run([*argv, "--budget", str(10**17), "--count-only"]) == 0
        assert capsys.readouterr().out == f"{count_ps_product((1, 2, 1, 3), 10_000)}\n"
        assert run([*argv, "--count-only"]) == 4

    def test_enumerate_upf_count_only_on_a_boundary_of_10_million(self, capsys):
        # counted by the recurrence, not by 10^7 sorted members
        assert run(["enumerate", "--family", "upf", "--boundary", "10000000", "--count-only"]) == 0
        assert capsys.readouterr().out == "10000000\n"

    def test_enumerate_paths_family(self, capsys):
        run(["enumerate", "--family", "paths", "--boundary", "1,2,3", "--count-only"])
        assert capsys.readouterr().out.strip() == "5"

    def test_check_kstrong_and_upf(self):
        assert run(["check", "--family", "kstrong", "--n", "3", "--prefs", "3,2,1"]) == 0
        assert run(["check", "--family", "upf", "--boundary", "1,2,3,4", "--prefs", "2,2,4,2"]) == 1
        assert run(["check", "--family", "strong", "--lengths", "1,2", "--prefs", "1,2", "--definitional"]) == 0


class TestJson:
    def test_simulate_document_round_trips(self, capsys):
        run(["simulate", "--lengths", "2,2", "--prefs", "2,1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"command", "params", "result"}
        assert doc["command"] == "simulate"
        assert doc["params"]["prefs"] == [2, 1]
        assert doc["result"]["success"] is False
        assert doc["result"]["reason"] == "collision"
        assert json.loads(json.dumps(doc)) == doc

    def test_enumerate_document(self, capsys):
        run(["enumerate", "--family", "ips", "--lengths", "2,2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["cardinality"] == 3
        assert doc["result"]["members"] == [[1, 1], [1, 2], [1, 3]]

    def test_verify_document_has_records(self, capsys):
        assert run(["verify", "--suite", "table1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"command", "params", "result", "records"}
        assert doc["result"] == {"total": 8, "passed": 8, "failed": 0}
        assert len(doc["records"]) == 8
        assert all(record["pass"] for record in doc["records"])


class TestFileDumps:
    def test_csv_dump(self, tmp_path, capsys):
        target = tmp_path / "family.csv"
        run(["enumerate", "--family", "ps", "--lengths", "1,2", "--out", str(target)])
        assert target.read_text().splitlines() == ["1,1", "1,2", "3,1"]
        assert "wrote 3 members" in capsys.readouterr().out
        run(["enumerate", "--family", "ps", "--lengths", "1,2"])
        assert target.read_text() == capsys.readouterr().out

    def test_json_dump(self, tmp_path, capsys):
        target = tmp_path / "family.json"
        run(["enumerate", "--family", "ps", "--lengths", "1,2", "--out", str(target)])
        doc = json.loads(target.read_text())
        assert doc["result"]["members"] == [[1, 1], [1, 2], [3, 1]]
        capsys.readouterr()
        run(["enumerate", "--family", "ps", "--lengths", "1,2", "--json"])
        assert target.read_bytes() == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["members", "count-only"])
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_file_holds_what_stdout_prints(self, tmp_path, capsys, suffix, count_only):
        target = tmp_path / f"family{suffix}"
        argv = ["enumerate", "--family", "ps", "--lengths", "1,2", *count_only]
        assert run([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == f"wrote 3 members to {target}\n"
        held = target.read_bytes()
        assert run(argv + (["--json"] if suffix == ".json" else [])) == 0
        assert held == capsys.readouterr().out.encode()
        # --json leaves the file to its suffix and prints the count-only document
        target.unlink()
        assert run([*argv, "--out", str(target), "--json"]) == 0
        printed = capsys.readouterr().out
        assert target.read_bytes() == held
        assert run(["enumerate", "--family", "ps", "--lengths", "1,2", "--count-only", "--json"]) == 0
        assert printed == capsys.readouterr().out
        assert json.loads(printed)["result"] == {"cardinality": 3}

    @pytest.mark.parametrize(
        "route",
        [
            ["--family", "ps", "--lengths", "1,2,2"],
            ["--family", "strong", "--lengths", "2,1,2", "--definitional"],
            ["--family", "kstrong", "--n", "5", "--k", "3", "--definitional"],
            # one arrangement, so the characterized routes are the walk too
            ["--family", "strong", "--lengths", "2,2,2"],
            ["--family", "kstrong", "--n", "4", "--k", "4"],
            ["--family", "kstrong", "--n", "4", "--k", "1"],
            # the box, and the orderings of the multisets or sorted members
            ["--family", "strong", "--lengths", "2,1,2"],
            ["--family", "kstrong", "--n", "5", "--k", "3"],
            ["--family", "inv", "--lengths", "2,1,2", "--trailer", "2"],
            ["--family", "upf", "--boundary", "1,3,4"],
            # the capped pass, counted by the lattice-path determinant
            ["--family", "ips", "--lengths", "2,1,2", "--trailer", "2"],
            ["--family", "paths", "--boundary", "1,3,4", "--width", "2"],
        ],
        ids=["ps", "strong", "kstrong", "strong-constant", "kstrong-k-total", "kstrong-k-one",
             "strong-box", "kstrong-box", "inv", "upf", "ips", "paths"],
    )
    def test_count_only_reads_the_walk_and_builds_no_member(
        self, monkeypatch, tmp_path, capsys, route
    ):
        argv = ["enumerate", *route]
        assert run([*argv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["cardinality"] == len(doc["result"].pop("members"))
        expected = json.dumps(doc, indent=2) + "\n"

        def refuse(*args):
            raise AssertionError("--count-only built a member")

        # what spells the members of the walk (and translates its nodes), the
        # box, the reordering-closed families and the capped pass
        for speller in ["_spelled", "_emit", "_box_members", "_rearrangements", "_nondecreasing"]:
            monkeypatch.setattr(parkseq.enumeration, speller, refuse)
        assert run([*argv, "--count-only"]) == 0
        assert capsys.readouterr().out == f"{doc['result']['cardinality']}\n"
        assert run([*argv, "--count-only", "--json"]) == 0
        assert capsys.readouterr().out == expected
        target = tmp_path / "family.json"
        assert run([*argv, "--count-only", "--out", str(target)]) == 0
        assert capsys.readouterr().out == f"wrote {doc['result']['cardinality']} members to {target}\n"
        assert target.read_text() == expected
        # 4,782,969 members, which the listing takes seconds and 600 MB to build
        assert run(["enumerate", "--family", "ps", "--lengths", "1,1,1,1,1,1,1,1", "--count-only"]) == 0
        assert capsys.readouterr().out == f"{parkseq.count_ps_product((1,) * 8, 1)}\n"
        # the same 4,782,969 members as the rearrangements of 1,430 multisets
        assert run(["enumerate", "--family", "inv", "--lengths", "1,1,1,1,1,1,1,1", "--count-only"]) == 0
        assert capsys.readouterr().out == f"{parkseq.count_inv_constant(8, 1)}\n"
        # 2,027,025 members of the box, which took a second and 250 MB to build
        assert run(["enumerate", "--family", "strong", "--lengths", "2,2,2,2,2,2,2,3", "--count-only"]) == 0
        assert capsys.readouterr().out == f"{parkseq.count_sps((2,) * 7 + (3,), 1)}\n"
        # 58,786 nondecreasing members, the Catalan number C_11
        assert run(["enumerate", "--family", "ips", "--lengths", ",".join("1" * 11), "--count-only"]) == 0
        assert capsys.readouterr().out == f"{parkseq.count_ips_determinant((1,) * 11, 1)}\n"

    @pytest.mark.parametrize(
        "route",
        [
            ["--family", "ps", "--lengths", "2,1,3", "--trailer", "2"],
            ["--family", "ips", "--lengths", "1,2,2"],
            ["--family", "inv", "--lengths", "1,1,1,1"],
            ["--family", "inv", "--lengths", "1,3,3"],
            ["--family", "strong", "--lengths", "3,1,2"],
            ["--family", "strong", "--lengths", "3,1,2", "--definitional"],
            ["--family", "strong", "--lengths", "2,2", "--trailer", "3"],
            ["--family", "kstrong", "--n", "6", "--k", "4"],
            ["--family", "kstrong", "--n", "6", "--k", "4", "--definitional"],
            ["--family", "kstrong", "--n", "5", "--k", "1"],
            ["--family", "upf", "--boundary", "2,2,5"],
            ["--family", "paths", "--boundary", "1,3,3,4"],
        ],
        ids=" ".join,
    )
    def test_count_only_counts_the_csv_rows(self, capsys, route):
        assert run(["enumerate", *route]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows
        assert run(["enumerate", *route, "--count-only"]) == 0
        assert capsys.readouterr().out == f"{len(rows)}\n"

    def test_refused_listing_leaves_no_file(self, tmp_path, capsys):
        # the walk is refused before --out opens its file
        target = tmp_path / "family.csv"
        argv = ["enumerate", "--family", "ps", "--lengths", "1,1,1", "--budget", "5"]
        assert run([*argv, "--out", str(target)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: enumeration would sweep 27 candidates, budget is 5\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        "name, reason",
        [("missing/family.csv", "No such file or directory"), ("", "Is a directory"),
         (None, "No such file or directory"),
         pytest.param("/dev/full", "No space left on device", marks=pytest.mark.skipif(
             not os.path.exists("/dev/full"), reason="no /dev/full on this system"))],
        ids=["missing-directory", "directory", "empty", "full-device"],
    )
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, name, reason):
        # None: the empty path, which names no file rather than asking for stdout;
        # /dev/full, an absolute name, opens, and the write or the close then fails
        target = "" if name is None else tmp_path / name
        argv = ["enumerate", "--family", "ps", "--lengths", "1,2", "--out", str(target)]
        for json_flag in ([], ["--json"]):
            assert run([*argv, *json_flag]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot write {target}: {reason}\n"


def _closed_pipe_ends_quietly(*out):
    # 16,807 rows, more than a pipe holds, so the command is still writing
    # when the reader goes away
    argv = ["enumerate", "--family", "ps", "--lengths", "1,1,1,1,1,1", *out]
    env = dict(os.environ, PYTHONPATH=str(Path(parkseq.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "parkseq.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"1,1,1,1,1,1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_closed_pipe_ends_quietly():
    _closed_pipe_ends_quietly()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this system")
def test_closed_pipe_ends_quietly_when_out_is_the_pipe():
    # a failed write to --out is a usage error, but not when FILE is the reader's pipe
    _closed_pipe_ends_quietly("--out", "/dev/stdout")


def test_unknown_suite_reported_as_usage_error():
    assert run(["verify", "--suite", "everything"]) == 2


# values from -1 to 6, positive at least seven times in eight, so that most
# requests get past validation
_VALUE = st.one_of(st.integers(1, 6), st.integers(-1, 6))
_BUDGET = st.one_of(st.just(10**5), st.integers(-1, 10**5))
_OFTEN = st.sampled_from((True,) * 7 + (False,))
_RARELY = st.sampled_from((True,) + (False,) * 31)
# each optional flag of a command, with the kind of value it takes (None: a switch)
_OPTIONAL = {
    "simulate": {"--trailer": "int", "--render": None},
    "check": {"--lengths": "csv", "--trailer": "int", "--n": "int", "--k": "int",
              "--boundary": "bounds", "--definitional": None},
    "enumerate": {"--lengths": "csv", "--trailer": "int", "--n": "int", "--k": "int",
                  "--boundary": "bounds", "--width": "int", "--count-only": None,
                  "--definitional": None, "--out": "out"},
    "count": {"--lengths": "csv", "--trailer": "int", "--n": "int", "--k": "int", "--r": "int"},
    "verify": {"--seed": "int", "--budget": "budget"},
}
# an unwritable name (a missing directory, the directory itself) is a usage error
_OUT_NAMES = ("rows.csv", "doc.json", "rows", "missing/rows.csv", "")


@st.composite
def _argv(draw, out_dir):
    """One CLI request, and the flags it sets that its family or formula does not read.

    The request is a command, its required flags, and some of its optional
    ones.  Lists hold one to four values, mostly as many as the request's
    cars, and boundaries are mostly sorted.  ``enumerate``, which has the most
    to keep, is drawn twice as often as each other command.  The flags a
    family or formula reads are drawn seven times in eight, those only other
    choices read one time in 32, and the command's own half the time;
    "present" comes first, so the simplest requests hypothesis tries carry
    every flag, ``--json`` and ``--out`` together among them.
    """
    cars = draw(st.integers(1, 4))
    entries = st.one_of(st.lists(_VALUE, min_size=cars, max_size=cars),
                        st.lists(_VALUE, min_size=1, max_size=4))
    values = {
        "int": _VALUE.map(str),
        "csv": entries.map(lambda drawn: ",".join(map(str, drawn))),
        "bounds": st.one_of(entries.map(sorted), entries).map(lambda drawn: ",".join(map(str, drawn))),
        "budget": _BUDGET.map(str),
        "out": st.sampled_from(_OUT_NAMES).map(lambda name: str(out_dir / name)),
    }
    command = draw(st.sampled_from([*_OPTIONAL, "enumerate"]))
    choices = _COMMANDS[command][3]  # each choice of the selector, and the flags it reads
    argv, reads = [command], ()
    if command == "simulate":
        argv += ["--lengths", draw(values["csv"]), "--prefs", draw(values["csv"])]
    elif command == "check":
        family = draw(st.sampled_from(sorted(choices)))
        argv += ["--family", family, "--prefs", draw(values["csv"])]
        reads = choices[family]
    elif command == "enumerate":
        family = draw(st.sampled_from(sorted(choices)))
        argv += ["--family", family, "--budget", draw(values["budget"])]
        reads = choices[family]
    elif command == "count":
        formula = draw(st.sampled_from(sorted(choices)))
        argv += ["--formula", formula]
        reads = choices[formula]
    else:  # the suites that take milliseconds at --max-n 2
        small = [suite for suite in SUITE_NAMES if suite not in ("all", "determinant")]
        max_n = draw(st.one_of(st.integers(1, 2), st.integers(-1, 2)))
        argv += ["--suite", draw(st.sampled_from(small)), "--max-n", str(max_n)]
    others = set().union(*choices.values()).difference(reads)
    unread = []
    for flag, kind in {**_OPTIONAL[command], "--json": None}.items():
        name = flag[2:]
        if draw(_OFTEN if name in reads else _RARELY if name in others else st.sampled_from((True, False))):
            argv += [flag] if kind is None else [flag, draw(values[kind])]
            if name in others and argv[-2:] != ["--trailer", "1"]:  # 1 is --trailer's default
                unread.append(flag)
    return argv, unread


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.data())
@settings(deadline=None, max_examples=300)
def test_generated_argv_keep_the_cli_contract(tmp_path_factory, data):
    out_dir = tmp_path_factory.getbasetemp() / "cli-contract"
    out_dir.mkdir(exist_ok=True)
    argv, unread = data.draw(_argv(out_dir))
    code, out, err = _run_captured(argv)
    assert code in range(5), (code, err)
    if unread:  # refused as the first flag it names, unless argparse refuses a value first
        assert code == 2
        assert f" does not take {unread[0]}" in err or err.startswith("usage:"), (argv, err)
    if code in (2, 4):
        assert out == ""
        assert err.startswith(("error:", "usage:"))
    elif "--json" in argv:
        json.loads(out)
    if argv[0] == "enumerate" and "--count-only" in argv and code == 0:
        # the listing of the same argv, as CSV rows on stdout
        plain, skip = [], False
        for arg in argv:
            if not skip and arg not in ("--count-only", "--json", "--out"):
                plain.append(arg)
            skip = arg == "--out"
        plain_code, rows, _ = _run_captured(plain)
        assert plain_code == 0
        if "--json" in argv:
            count = json.loads(out)["result"]["cardinality"]
        elif "--out" in argv:
            count = int(out.split()[1])  # wrote N members to FILE
        else:
            count = int(out)
        assert count == len(rows.splitlines())


# Pinned --json documents, one per family and formula: the flags given, then
# the params (in their printed key order) and the result.  A new table entry
# fails here until it gets a pinned case.
ENUMERATE_DOCS = {
    "ps": ("--lengths 1,2 --trailer 2", {"lengths": [1, 2], "trailer": 2, "family": "ps"},
           {"cardinality": 8, "members": [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3], [4, 1], [4, 2]]}),
    "ips": ("--lengths 2,2", {"lengths": [2, 2], "trailer": 1, "family": "ips"},
            {"cardinality": 3, "members": [[1, 1], [1, 2], [1, 3]]}),
    "inv": ("--lengths 1,2,2 --trailer 2", {"lengths": [1, 2, 2], "trailer": 2, "family": "inv"},
            {"cardinality": 8, "members": [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 2],
                                           [2, 1, 1], [2, 1, 2], [2, 2, 1], [2, 2, 2]]}),
    "strong": ("--lengths 2,1", {"lengths": [1, 2], "trailer": 1, "family": "strong"},
               {"cardinality": 2, "members": [[1, 1], [1, 2]]}),
    "kstrong": ("--n 3 --k 2 --trailer 2", {"n": 3, "k": 2, "trailer": 2, "family": "kstrong"},
                {"cardinality": 6, "members": [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3]]}),
    "upf": ("--boundary 1,1,3", {"boundary": [1, 1, 3], "family": "upf"},
            {"cardinality": 7, "members": [[1, 1, 1], [1, 1, 2], [1, 1, 3], [1, 2, 1],
                                           [1, 3, 1], [2, 1, 1], [3, 1, 1]]}),
    "paths": ("--boundary 1,2,3", {"boundary": [1, 2, 3], "width": 2, "family": "paths"},
              {"cardinality": 5, "members": [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 1], [0, 1, 2]]}),
}

# None marks a family that can be enumerated but not checked.
CHECK_DOCS = {
    "ps": ("--lengths 1,2 --prefs 3,1",
           {"family": "ps", "prefs": [3, 1], "trailer": 1, "lengths": [1, 2]}, True),
    "ips": ("--lengths 2,2 --trailer 2 --prefs 2,1",
            {"family": "ips", "prefs": [2, 1], "trailer": 2, "lengths": [2, 2]}, False),
    "inv": ("--lengths 1,2,2 --trailer 2 --prefs 1,1,2",
            {"family": "inv", "prefs": [1, 1, 2], "trailer": 2, "lengths": [1, 2, 2]}, True),
    "strong": ("--lengths 1,2 --prefs 1,2",
               {"family": "strong", "prefs": [1, 2], "trailer": 1, "lengths": [1, 2]}, True),
    "kstrong": ("--n 3 --prefs 2,1",
                {"family": "kstrong", "prefs": [2, 1], "trailer": 1, "n": 3, "k": 2}, False),
    "upf": ("--boundary 1,2,3 --prefs 2,1,1",
            {"family": "upf", "prefs": [2, 1, 1], "trailer": 1, "boundary": [1, 2, 3]}, True),
    "paths": None,
}

COUNT_DOCS = {
    "ps": ("--lengths 1,2,2 --z 2", {"lengths": [1, 2, 2], "trailer": 2, "formula": "ps"}, 60),
    "ips-det": ("--lengths 1,2,2", {"lengths": [1, 2, 2], "trailer": 1, "formula": "ips-det"}, 7),
    "ips-const": ("--k 2 --n 3 --trailer 2", {"k": 2, "n": 3, "trailer": 2, "formula": "ips-const"}, 30),
    "fuss": ("--k 2 --n 4", {"k": 2, "n": 4, "formula": "fuss"}, 55),
    "inv-inc": ("--n 3 --trailer 2", {"n": 3, "trailer": 2, "formula": "inv-inc"}, 8),
    "inv-const": ("--n 3 --trailer 2", {"n": 3, "trailer": 2, "formula": "inv-const"}, 50),
    "inv-two-block": ("--n 4 --r 2 --trailer 2",
                      {"n": 4, "r": 2, "trailer": 2, "formula": "inv-two-block"}, 48),
    "sps": ("--lengths 2,1,2", {"lengths": [2, 1, 2], "trailer": 1, "formula": "sps"}, 8),
    "sps-k": ("--n 4 --k 2 --trailer 2", {"n": 4, "k": 2, "trailer": 2, "formula": "sps-k"}, 6),
}


# simulate, without and with --render
SIMULATE_DOC = (
    "--lengths 2,2 --prefs 2,1",
    {"lengths": [2, 2], "trailer": 1, "prefs": [2, 1]},
    {"street_length": 4, "success": False, "placements": [[2, 3]], "failed_car": 2,
     "reason": "collision", "blocked_spot": 2},
    ["| .|C1|C1| .|", "| 1| 2| 3| 4|", "    ^^", "car 2 cannot park: collision at spot 2"],
)


def _document(command, params, result):
    return json.dumps({"command": command, "params": params, "result": result}, indent=2) + "\n"


class TestPinnedDocuments:
    def test_simulate(self, capsys):
        flags, params, result, diagram = SIMULATE_DOC
        assert run(["simulate", *flags.split(), "--json"]) == 1
        assert capsys.readouterr().out == _document("simulate", params, result)
        assert run(["simulate", *flags.split(), "--render", "--json"]) == 1
        assert capsys.readouterr().out == _document("simulate", params, dict(result, diagram=diagram))
        assert run(["render", *flags.split(), "--json"]) == 2

    def test_simulate_success(self, capsys):
        flags = "--lengths 1,2 --trailer 3 --prefs 1,3"
        params = {"lengths": [1, 2], "trailer": 3, "prefs": [1, 3]}
        result = {"street_length": 5, "success": True, "placements": [[3, 3], [4, 5]],
                  "configuration": [1, 2]}
        assert run(["simulate", *flags.split(), "--json"]) == 0
        assert capsys.readouterr().out == _document("simulate", params, result)

    def test_simulate_behind_a_trailer_of_10_to_the_18(self, capsys):
        z = 10**18
        flags = f"--lengths 2,2 --trailer {z} --prefs {z + 1},1"
        params = {"lengths": [2, 2], "trailer": z, "prefs": [z + 1, 1]}
        result = {"street_length": z + 3, "success": False, "placements": [[z + 1, z + 2]],
                  "failed_car": 2, "reason": "collision", "blocked_spot": z + 1}
        assert run(["simulate", *flags.split(), "--json"]) == 1
        assert capsys.readouterr().out == _document("simulate", params, result)
        flags = f"--lengths 1,2 --trailer {z} --prefs 1,1"
        params = {"lengths": [1, 2], "trailer": z, "prefs": [1, 1]}
        result = {"street_length": z + 2, "success": True,
                  "placements": [[z, z], [z + 1, z + 2]], "configuration": [1, 2]}
        assert run(["simulate", *flags.split(), "--json"]) == 0
        assert capsys.readouterr().out == _document("simulate", params, result)

    def test_check_and_count_behind_a_trailer_of_10_to_the_18(self, capsys):
        z = 10**18
        for prefs, value in ((f"{z + 1},1", False), (f"1,{z + 2}", True)):
            flags = f"--family ps --lengths 2,2 --trailer {z} --prefs {prefs}"
            assert run(["check", *flags.split(), "--json"]) == (0 if value else 1)
            params = {"family": "ps", "prefs": list(map(int, prefs.split(","))), "trailer": z,
                      "lengths": [2, 2]}
            assert capsys.readouterr().out == _document("check", params, {"value": value})
        # lengths (1, 2): car 1 at z then car 2 at z+1..z+2 (z(z+1) ways), or
        # car 1 at z+2 and car 2 at z..z+1 (z ways); car 1 at z+1 strands car 2
        assert run(["count", "--formula", "ps", "--lengths", "1,2", "--trailer", str(z), "--json"]) == 0
        params = {"lengths": [1, 2], "trailer": z, "formula": "ps"}
        assert capsys.readouterr().out == _document("count", params, {"value": z * (z + 2)})

    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_enumerate(self, family, capsys):
        flags, params, result = ENUMERATE_DOCS[family]
        assert run(["enumerate", "--family", family, *flags.split(), "--json"]) == 0
        assert capsys.readouterr().out == _document("enumerate", params, result)
        assert run(["enumerate", "--family", family, "--json"]) == 2

    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_check(self, family, capsys):
        if CHECK_DOCS[family] is None:
            assert run(["check", "--family", family, "--prefs", "1"]) == 2
            return
        flags, params, value = CHECK_DOCS[family]
        assert run(["check", "--family", family, *flags.split(), "--json"]) == (0 if value else 1)
        assert capsys.readouterr().out == _document("check", params, {"value": value})
        prefs = flags.split()[-2:]  # every case ends with its --prefs
        assert run(["check", "--family", family, *prefs, "--json"]) == 2

    @pytest.mark.parametrize("formula", list(_FORMULAS))
    def test_count(self, formula, capsys):
        flags, params, value = COUNT_DOCS[formula]
        assert run(["count", "--formula", formula, *flags.split(), "--json"]) == 0
        assert capsys.readouterr().out == _document("count", params, {"value": value})
        assert run(["count", "--formula", formula, "--json"]) == 2


    @pytest.mark.parametrize("json_flag, digest", [
        (["--json"], "029d9874f1ee5fe3956e4d33f00052d47742a1b8330f9c94be153f6263de84df"),
        ([], "185eb08f73b40efd1f0c762a7aadd1d5d97183d2dcd607100091f82ee4821a27"),
    ], ids=["json", "text"])
    def test_verify(self, capsys, json_flag, digest):
        assert run(["verify", "--suite", "all", "--max-n", "2", *json_flag]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestSharedParser:
    """Every ``run`` call in a process parses with one parser; none leaks state."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_not_built_at_import(self):
        env = dict(os.environ, PYTHONPATH=str(Path(parkseq.__file__).parents[1]))
        code = "import parkseq.cli as c; print(c._tree.cache_info().currsize, c.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0 0\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_render_simulates_once(self, monkeypatch, capsys, json_flag):
        calls = []

        def counted(*args):
            calls.append(args)
            return simulate(*args)

        simulate = parkseq.cli.simulate
        monkeypatch.setattr(parkseq.cli, "simulate", counted)
        assert run(["simulate", "--lengths", "2,2", "--prefs", "2,1", "--render", *json_flag]) == 1
        assert "car 2 cannot park: collision at spot 2" in capsys.readouterr().out
        assert len(calls) == 1

    def test_kstrong_k_comes_from_each_calls_prefs(self, capsys):
        # (2, 1, 1) is not 3-strong on 4 spots, (2, 1, 1, 1) is 4-strong
        for prefs, k, code in [("2,1,1", 3, 1), ("2,1,1,1", 4, 0), ("2,1,1", 3, 1)]:
            assert run(["check", "--family", "kstrong", "--n", "4", "--prefs", prefs, "--json"]) == code
            assert json.loads(capsys.readouterr().out)["params"]["k"] == k

    def test_render_does_not_stick(self, capsys):
        flags = ["simulate", "--lengths", "1,2", "--trailer", "3", "--prefs", "1,3"]
        assert run([*flags, "--render"]) == 0
        assert capsys.readouterr().out.startswith("| T|")
        assert run(flags) == 0
        assert capsys.readouterr().out.splitlines() == [
            "spots 1-2: trailer", "car 1 -> spots 3-3", "car 2 -> spots 4-5", "configuration: T C1 C2",
        ]

    def test_out_does_not_stick(self, tmp_path, capsys):
        argv = ["enumerate", "--family", "ps", "--lengths", "1,2"]
        assert run([*argv, "--out", str(tmp_path / "family.csv")]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["1,1", "1,2", "3,1"]

    def test_usage_error_then_valid_call(self, capsys):
        flags, params, value = COUNT_DOCS["sps-k"]
        assert run(["count", "--formula", "sps-k", "--n", "four", "--json"]) == 2
        capsys.readouterr()
        assert run(["count", "--formula", "sps-k", *flags.split(), "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == _document("count", params, {"value": value})
        assert captured.err == ""

    @pytest.mark.parametrize("command", [None, "simulate", "check", "enumerate", "count", "verify"])
    def test_help_is_stable(self, capsys, command):
        argv = [command, "--help"] if command else ["--help"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("usage: parkseq " + (command or ""))


# Requests that reach every branch of the dispatch: each command, help in each
# position, a missing or unknown command, stray arguments, abbreviated and
# ambiguous options, --flag=value, --z, negative integers and "--".
DISPATCH_ARGV = [
    [], ["-h"], ["--help"], ["--help", "count"], ["bogus"], ["sim"], ["--json", "count"],
    ["--", "count", "--formula", "fuss", "--k", "2", "--n", "3"], ["-1"],
    ["simulate", "--lengths", "2,2", "--prefs", "2,1"],
    ["simulate", "--lengths", "1,2", "--z", "3", "--prefs", "1,3", "--render", "--json"],
    ["simulate", "--len", "1,2", "--pre=3,1", "--ren"],
    ["simulate", "--lengths", "1", "--prefs", "1", "-h"],
    ["simulate", "--lengths", "1"], ["simulate"], ["simulate", "-h", "--lengths", "x"],
    ["simulate", "--lengths", "a", "--prefs", "1"],
    ["simulate", "--lengths", "1", "--prefs", "1", "extra"],
    ["simulate", "--", "--lengths", "1", "--prefs", "1"],
    ["simulate", "--lengths", "1", "--prefs", "1", "--"],
    ["simulate", "--lengths", "1", "--prefs", "1", "--", "x"],
    ["check", "--family=ps", "--lengths=1,2", "--prefs=3,1", "--json"],
    ["check", "--fam", "kstrong", "--n", "4", "--prefs", "2,1,1"],
    ["check", "--family", "ps", "--lengths", "1,2", "--prefs", "-1,1"],
    ["check", "--family", "upf", "--boundary", "1,2,3", "--prefs", "2,1,1", "--json", "--help"],
    ["check", "--family", "kstrong", "--n", "3", "--k", "5", "--prefs", "1"],
    ["check", "--family", "nonsense", "--prefs", "1"], ["check", "--help"],
    ["enumerate", "--family", "upf", "--boundary", "1,1,3", "--json"],
    ["enumerate", "--family", "ips", "--lengths", "1,2,2", "--count-only", "--json"],
    ["enumerate", "--family", "ps", "--lengths", "1", "--b", "5"],
    ["enumerate", "--family", "ps", "--lengths", "1,1,1,1", "--budget", "5"],
    ["enumerate", "--family", "ps", "--lengths", "1,2", "--budget", "-1"],
    ["enumerate", "--family", "ps", "--lengths", "1,2", "--trailer", "2", "--width", "3"],
    ["enumerate", "--family", "ps", "--lengths", "1,2", "--stray"], ["enumerate", "-h"],
    ["count", "--formula", "ps", "--lengths", "1,2,2", "--z", "2", "--json"],
    ["count", "--formula", "ps", "--formula", "ips-det", "--lengths", "1,2,2"],
    ["count", "--formula", "inv-inc", "--n", "-1"],
    ["count", "--formula", "fuss", "--k", "-2", "--n", "3"],
    ["count", "--formula", "ps", "--lengths", "1", "-1"],
    ["count", "--formula", "ps", "--lengths", "1", "--bogus"],
    ["count", "--formula", "sps-k", "--n", "four"], ["count", "--formula", "nope"], ["count", "--help"],
    ["verify", "--suite", "fuss", "--max-n", "2"],
    ["verify", "--suite", "catalan", "--max-n", "2", "--json"],
    ["verify", "--suite", "fuss", "--max-n", "2", "x", "y"],
    ["verify", "--suite", "eq3", "--max-n", "0"], ["verify", "-h"], ["verify", "--help"],
]


def _through_the_tree(argv):
    """(exit code, stdout, stderr) of ``argv`` parsed by the whole tree, then answered by its handler."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args(argv)
            doc, lines, code = args.func(args)
            if args.json:
                print(json.dumps({"command": args.command, **doc}, indent=2))
            else:
                for line in lines:
                    print(line)
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 4
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "(empty)")
def test_a_command_parser_answers_as_the_whole_tree(argv):
    assert _run_captured(argv) == _through_the_tree(argv)


# each command's parser is completed by another path: its own request, its
# help, the whole tree after a stray flag, for check an earlier request that
# the whole tree parsed, and for count, which no request names first, the
# whole tree alone
LAZY_ORDER = [
    ["simulate", "--lengths", "2,2", "--prefs", "2,1"],
    ["verify", "--help"],
    ["enumerate", "--family", "ps", "--lengths", "1,2", "--stray"],
    ["check", "--family", "ps", "--lengths", "1,2", "--prefs", "3,1", "--json"],
    ["--json", "count"],
]


def _in_one_process(*requests):
    """Each request's (exit code, stdout, stderr), answered in turn by ``run`` in one fresh process."""
    code = ("import contextlib, io, json\n"
            "from parkseq.cli import run\n"
            "answers = []\n"
            f"for argv in {list(requests)!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        answers.append((run(argv), out.getvalue(), err.getvalue()))\n"
            "print(json.dumps(answers))")
    env = dict(os.environ, PYTHONPATH=str(Path(parkseq.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return [tuple(answer) for answer in json.loads(done.stdout)]


def test_a_lazily_completed_parser_answers_alike_in_any_order():
    alone = [_in_one_process(argv)[0] for argv in LAZY_ORDER]
    assert [code for code, _, _ in alone] == [1, 0, 2, 0, 2]
    assert alone[-1][2].endswith("parkseq count: error: the following arguments are required: --formula\n")
    assert _in_one_process(*LAZY_ORDER) == alone
    assert _in_one_process(*LAZY_ORDER[::-1]) == alone[::-1]


def test_a_request_its_command_parser_takes_whole_skips_the_tree(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the whole tree parsed a request its command's parser took")

    flags, params, value = COUNT_DOCS["ps"]
    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    assert run(["count", "--formula", "ps", *flags.split(), "--json"]) == 0
    assert capsys.readouterr().out == _document("count", params, {"value": value})
    with pytest.raises(AssertionError, match="whole tree"):
        run(["count", "--formula", "ps", *flags.split(), "stray"])


# Each command's options as argparse holds them: option strings, then (type,
# default, required, choices, action class).  Written from the parser of the
# per-command blocks, before the flags moved into one table, so parsing and
# argparse's prefix matching cannot drift.
STORE, SWITCH = "_StoreAction", "_StoreTrueAction"
CHECKABLE = ("ps", "ips", "inv", "strong", "kstrong", "upf")
PARSE_CONTRACT = {
    "simulate": {
        ("--lengths",): (_ints_csv, None, True, None, STORE),
        ("--trailer", "--z"): (int, 1, False, None, STORE),
        ("--prefs",): (_ints_csv, None, True, None, STORE),
        ("--render",): (None, False, False, None, SWITCH),
        ("--json",): (None, False, False, None, SWITCH),
    },
    "check": {
        ("--family",): (None, None, True, CHECKABLE, STORE),
        ("--lengths",): (_ints_csv, None, False, None, STORE),
        ("--trailer", "--z"): (int, 1, False, None, STORE),
        ("--prefs",): (_ints_csv, None, True, None, STORE),
        ("--n",): (int, None, False, None, STORE),
        ("--k",): (int, None, False, None, STORE),
        ("--boundary",): (_ints_csv, None, False, None, STORE),
        ("--definitional",): (None, False, False, None, SWITCH),
        ("--json",): (None, False, False, None, SWITCH),
    },
    "enumerate": {
        ("--family",): (None, None, True, (*CHECKABLE, "paths"), STORE),
        ("--lengths",): (_ints_csv, None, False, None, STORE),
        ("--trailer", "--z"): (int, 1, False, None, STORE),
        ("--n",): (int, None, False, None, STORE),
        ("--k",): (int, None, False, None, STORE),
        ("--boundary",): (_ints_csv, None, False, None, STORE),
        ("--width",): (int, None, False, None, STORE),
        ("--count-only",): (None, False, False, None, SWITCH),
        ("--budget",): (_positive_int, 10**8, False, None, STORE),
        ("--definitional",): (None, False, False, None, SWITCH),
        ("--out",): (None, None, False, None, STORE),
        ("--json",): (None, False, False, None, SWITCH),
    },
    "count": {
        ("--formula",): (None, None, True, ("ps", "ips-det", "ips-const", "fuss", "inv-inc", "inv-const",
                                            "inv-two-block", "sps", "sps-k"), STORE),
        ("--lengths",): (_ints_csv, None, False, None, STORE),
        ("--trailer", "--z"): (int, 1, False, None, STORE),
        ("--n",): (int, None, False, None, STORE),
        ("--k",): (int, None, False, None, STORE),
        ("--r",): (int, None, False, None, STORE),
        ("--json",): (None, False, False, None, SWITCH),
    },
    "verify": {
        ("--suite",): (None, None, True, ("all", "eq3", "table1", "catalan", "fuss", "determinant",
                                          "inv-characterizations", "strong", "sps-k", "bijections"),
                       STORE),
        ("--max-n",): (_positive_int, None, False, None, STORE),
        ("--seed",): (int, 1729, False, None, STORE),
        ("--budget",): (_positive_int, 10**8, False, None, STORE),
        ("--json",): (None, False, False, None, SWITCH),
    },
}


def _options(command):
    """The options of one command's parser, ``--help`` left out."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [action for action in commands.choices[command]._actions
            if not isinstance(action, argparse._HelpAction)]


class TestParseContract:
    """Every command keeps its options, and the tables name only options their command has."""

    @pytest.mark.parametrize("command", list(PARSE_CONTRACT))
    def test_options_keep_their_contract(self, command):
        held = {
            tuple(action.option_strings): (
                action.type, action.default, action.required,
                None if action.choices is None else tuple(action.choices), type(action).__name__,
            )
            for action in _options(command)
        }
        assert held == PARSE_CONTRACT[command]

    def test_tables_name_options_of_their_commands(self):
        options = {command: {name for action in _options(command) for name in action.option_strings}
                   for command in PARSE_CONTRACT}
        for family, (needs, reads, check, _) in _FAMILIES.items():
            for flag in needs + reads:
                assert f"--{flag}" in options["enumerate"], (family, flag)
                if check is not None:
                    assert f"--{flag}" in options["check"], (family, flag)
        for formula, (flags, _) in _FORMULAS.items():
            for flag in flags:
                assert f"--{flag}" in options["count"], (formula, flag)

    @pytest.mark.parametrize("command", list(PARSE_CONTRACT))
    def test_every_option_has_help(self, command):
        for action in _options(command):
            assert action.help and action.help.strip(), action.option_strings
