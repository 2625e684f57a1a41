import json
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import matroid_interdiction
import matroid_interdiction.interdiction as interdiction
import matroid_interdiction.parametric as parametric
from matroid_interdiction import (
    LinearFn,
    PWLFunction,
    parametric_min_basis,
    pwl_equal,
    solve_intervals,
    solve_naive,
)
from matroid_interdiction.cli import _overfull_window, build_parser, main, run
from matroid_interdiction.instances import load_instance, parse_solution

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"
FIXTURES = sorted(path.name for path in FIXTURE_DIR.glob("*.json"))

# `check` pads every name to its longest, the doubled-instance check's.
CHECK_WIDTH = len("doubled instance reproduces the optimal value function")

P2 = {
    "type": "graphic",
    "name": "P2",
    "nodes": 2,
    "edges": [
        {"u": 0, "v": 1, "a": "0", "b": "1"},
        {"u": 0, "v": 1, "a": "1", "b": "0"},
    ],
    "interval": {"lo": "-1", "hi": "3"},
}

C4P = {
    "type": "graphic",
    "name": "C4P",
    "nodes": 4,
    "edges": [
        {"u": 0, "v": 1, "a": "1", "b": "0"},
        {"u": 1, "v": 2, "a": "2", "b": "0"},
        {"u": 2, "v": 3, "a": "3", "b": "0"},
        {"u": 3, "v": 0, "a": "0", "b": "2"},
    ],
    "interval": {"lo": "0", "hi": "2"},
}

RANK0 = {
    "type": "graphic",
    "name": "loops",
    "nodes": 2,
    "edges": [
        {"u": 0, "v": 0, "a": "1", "b": "0"},
        {"u": 1, "v": 1, "a": "0", "b": "1"},
    ],
    "interval": {"lo": "0", "hi": "2"},
}

# Three loops on one node whose lines all meet at 0: rank 0, and tied.
TIED_RANK0 = {
    "type": "graphic",
    "name": "tied-loops",
    "nodes": 1,
    "edges": [
        {"u": 0, "v": 0, "a": "0", "b": "1"},
        {"u": 0, "v": 0, "a": "0", "b": "-1"},
        {"u": 0, "v": 0, "a": "0", "b": "2"},
    ],
    "interval": {"lo": "-1", "hi": "1"},
}

BRIDGE = {
    "type": "graphic",
    "name": "bridge",
    "nodes": 2,
    "edges": [{"u": 0, "v": 1, "a": "1", "b": "0"}],
    "interval": {"lo": "0", "hi": "1"},
}


# Three lines through (0, 0): three pairs cross at one value, a tie.
PENCIL = {
    "type": "uniform",
    "name": "pencil",
    "m": 3,
    "k": 1,
    "weights": [{"a": "0", "b": "1"}, {"a": "0", "b": "0"}, {"a": "0", "b": "-1"}],
    "interval": {"lo": "-1", "hi": "1"},
}


# Three lines through (0, 0) and one constant line: a bundle of three
# crossings at 0 and lone crossings at -1 and 1, three distinct values.
TIED = {
    "type": "uniform",
    "name": "tied",
    "m": 4,
    "k": 2,
    "weights": [
        {"a": "0", "b": "1"}, {"a": "0", "b": "0"},
        {"a": "0", "b": "-1"}, {"a": "1", "b": "0"},
    ],
    "interval": {"lo": "-2", "hi": "2"},
}


def count_artifact_builds(monkeypatch) -> Counter:
    """Count every route to the interdiction gate, a sweep, a crossing
    enumeration, a candidate filter, a grouping of crossings by value and a
    bundle ordering, including the names other modules imported from their
    module."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    package = [
        module for name, module in sys.modules.items()
        if name.startswith("matroid_interdiction.")
    ]
    for home, name in (
        (parametric, "checked_view"),
        (parametric, "parametric_min_basis"),
        (parametric, "interior_crossings"),
        (parametric, "perturbed_bundle_order"),
        (interdiction, "find_candidates"),
    ):
        original = getattr(home, name)
        for module in package:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    return calls


class TestSolve:
    def test_p2_naive(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--in", instance_file(P2), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["instance"] == "P2"
        assert len(payload["segments"]) == 2
        assert payload["stats"]["changepoints_of_y"] == 1
        assert payload["stats"]["m"] == 2 and payload["stats"]["k"] == 1
        assert payload["stats"]["bound_2km"] == 4
        assert payload["stats"]["bound_mk2_intervals_ok"] is True

    def test_bridge_exits_2_and_names_the_coloop(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--in", instance_file(BRIDGE), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "e0" in err and "coloop" in err

    def test_intervals_payload_identical_to_naive(self, instance_file, tmp_path):
        src = instance_file(C4P)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["solve", "--in", src, "--algorithm", "naive", "--out", str(out_a)]) == 0
        assert main(["solve", "--in", src, "--algorithm", "intervals", "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_oracle_algorithm(self, instance_file, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", "--in", instance_file(C4P), "--algorithm", "oracle", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["segments"][0]["value"] == {"a": "6", "b": "0"}
        assert payload["segments"][0]["most_vital"] == 3
        assert payload["segments"][0]["basis"] == [0, 1, 3]
        assert payload["segments"][0]["replacement"] == 2

    def test_output_byte_identical_across_runs(self, instance_file, tmp_path):
        src = instance_file(C4P)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["solve", "--in", src, "--out", str(out_a)])
        main(["solve", "--in", src, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out.json"
        assert main(["solve", "--in", str(bad), "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_rational_exits_1(self, instance_file, tmp_path, capsys):
        data = json.loads(json.dumps(C4P))
        data["edges"][1]["a"] = "1.25"
        out = tmp_path / "out.json"
        assert main(["solve", "--in", instance_file(data), "--out", str(out)]) == 1
        assert "edges[1].a" in capsys.readouterr().err

    def test_zero_denominator_exits_1(self, instance_file, tmp_path, capsys):
        data = json.loads(json.dumps(C4P))
        data["edges"][0]["a"] = "1/0"
        out = tmp_path / "out.json"
        assert main(["solve", "--in", instance_file(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "edges[0].a" in err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["naive", "intervals", "oracle"])
    def test_one_sweep_and_one_enumeration_per_request(
        self, instance_file, tmp_path, monkeypatch, algorithm
    ):
        calls = count_artifact_builds(monkeypatch)
        out = tmp_path / "sol.json"
        src = instance_file(C4P)
        assert main(["solve", "--in", src, "--algorithm", algorithm, "--out", str(out)]) == 0
        # C4P crosses at three distinct values, each a lone crossing, which
        # the sweep walks without a bundle order.  The sweep runs the gate;
        # the oracle, the trust anchor, runs its own.
        gates = {"naive": 1, "intervals": 1, "oracle": 2}[algorithm]
        assert calls == {
            "checked_view": gates,
            "parametric_min_basis": 1, "interior_crossings": 1, "find_candidates": 1,
        }
        assert calls["perturbed_bundle_order"] == 0

    @pytest.mark.parametrize("algorithm", ["naive", "intervals"])
    def test_tied_solve_groups_once_and_orders_each_value_once(
        self, instance_file, tmp_path, monkeypatch, algorithm
    ):
        calls = count_artifact_builds(monkeypatch)
        out = tmp_path / "sol.json"
        src = instance_file(TIED)
        assert main(["solve", "--in", src, "--algorithm", algorithm, "--out", str(out)]) == 0
        # the main sweep groups the one enumeration's crossings by value and
        # orders the one bundle, at 0; the lone crossings at -1 and 1 need no
        # order, and the removal sweep and the window solver reuse the
        # sweep's walk or need none
        assert calls["interior_crossings"] == 1
        assert calls["perturbed_bundle_order"] == 1

    @pytest.mark.parametrize("algorithm", ["naive", "intervals", "oracle"])
    def test_rank_zero_exits_1(self, instance_file, tmp_path, capsys, algorithm):
        out = tmp_path / "sol.json"
        src = instance_file(RANK0)
        assert main(["solve", "--in", src, "--algorithm", algorithm, "--out", str(out)]) == 1
        assert "error: rank-0 instance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["naive", "intervals", "oracle"])
    def test_tied_rank_zero_refuses_before_the_tie_warning(
        self, instance_file, tmp_path, capsys, algorithm
    ):
        out = tmp_path / "sol.json"
        src = instance_file(TIED_RANK0)
        with warnings.catch_warnings():
            warnings.simplefilter(
                "default", category=parametric.CoincidentEqualityPointsWarning
            )
            assert main(["solve", "--in", src, "--algorithm", algorithm,
                         "--out", str(out)]) == 1
        # the loader's note on the input, then the refusal alone: the
        # crossings, and so their tie, are never enumerated
        assert capsys.readouterr().err.splitlines() == [
            "note: self-loop edges present: e0, e1, e2",
            "error: rank-0 instance: there is nothing to interdict",
        ]
        assert not out.exists()


class TestCheck:
    def test_c4p_all_pass(self, instance_file, capsys):
        assert main(["check", "--in", instance_file(C4P)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 9

    def test_p2_all_pass(self, instance_file, capsys):
        assert main(["check", "--in", instance_file(P2)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_uniform_instance_passes(self, instance_file, capsys):
        uniform = {
            "type": "uniform",
            "name": "U",
            "m": 5,
            "k": 2,
            "weights": [
                {"a": "1", "b": "1"},
                {"a": "4", "b": "-1"},
                {"a": "0", "b": "0"},
                {"a": "2", "b": "2"},
                {"a": "-1", "b": "3"},
            ],
            "interval": {"lo": "-4", "hi": "4"},
        }
        assert main(["check", "--in", instance_file(uniform)]) == 0

    def test_coloopy_exits_2_before_checks(self, instance_file, capsys):
        assert main(["check", "--in", instance_file(BRIDGE)]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_rank_zero_exits_1(self, instance_file, capsys):
        assert main(["check", "--in", instance_file(RANK0)]) == 1
        captured = capsys.readouterr()
        assert "error: rank-0 instance" in captured.err
        assert "PASS" not in captured.out

    def test_check_builds_each_artifact_once(self, instance_file, monkeypatch):
        calls = count_artifact_builds(monkeypatch)
        assert main(["check", "--in", instance_file(C4P)]) == 0
        # one sweep and one enumeration each for the input and its double,
        # which both cross at the same three values: lone crossings in the
        # input, a bundle of twins at each value in the double, so only the
        # double's three values are ordered; the gate runs in each sweep, in
        # the oracle and in the spot check of each of the naive solution's
        # two segments
        assert calls == {
            "checked_view": 5,
            "parametric_min_basis": 2, "interior_crossings": 2, "find_candidates": 1,
            "perturbed_bundle_order": 3,
        }

    def test_solve_and_check_walk_the_removal_gains_once_per_instance(
        self, instance_file, tmp_path, monkeypatch
    ):
        import matroid_interdiction.cli as cli_module

        walked = Counter()
        original = interdiction.removal_gains

        def counted(inst, schedule):
            walked[inst.m] += 1
            return original(inst, schedule)

        monkeypatch.setattr(cli_module, "removal_gains", counted)
        monkeypatch.setattr(interdiction, "removal_gains", counted)
        src = instance_file(C4P)
        assert main(["solve", "--in", src, "--out", str(tmp_path / "sol.json")]) == 0
        assert walked == {4: 1}
        walked.clear()
        # the input's walk feeds both the naive solution and the removal
        # functions it checks; the doubled instance takes one walk of its own
        assert main(["check", "--in", src]) == 0
        assert walked == {4: 1, 8: 1}

    def test_failing_check_exits_3_with_counterexample(
        self, instance_file, capsys, monkeypatch
    ):
        import matroid_interdiction.cli as cli_module

        def broken_intervals(inst, *_):
            sol = solve_naive(inst)
            shifted = [
                type(seg)(
                    seg.window,
                    type(seg.value)(seg.value.a + 1, seg.value.b),
                    seg.most_vital,
                    seg.basis,
                    seg.replacement,
                )
                for seg in sol.segments
            ]
            value = type(sol.value).build(
                sol.value.domain,
                sol.value.cuts,
                [type(p)(p.a + 1, p.b) for p in sol.value.pieces],
            )
            return type(sol)(tuple(shifted), value)

        monkeypatch.setitem(cli_module._SOLVERS, "intervals", broken_intervals)
        monkeypatch.setattr(cli_module, "window_solution", broken_intervals)
        assert main(["check", "--in", instance_file(C4P)]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "first divergence at" in out

    def test_uncovered_gain_cut_fails_the_coverage_check(
        self, instance_file, capsys, monkeypatch
    ):
        import matroid_interdiction.cli as cli_module

        # The plain optimum is 0 throughout; removing element 0 leaves the
        # lighter of 1 + lam and 2 - lam, so only its gain bends, at 1/2.
        crossing = {
            "type": "uniform",
            "name": "bend",
            "m": 3,
            "k": 1,
            "weights": [
                {"a": "0", "b": "0"}, {"a": "1", "b": "1"}, {"a": "2", "b": "-1"},
            ],
            "interval": {"lo": "0", "hi": "1"},
        }

        def without_half(inst, crossings):
            found = interdiction.find_candidates(inst, crossings)
            return type(found)(tuple(
                entry for entry in found.entries if entry.point.lam != Fraction(1, 2)
            ))

        monkeypatch.setattr(cli_module, "find_candidates", without_half)
        monkeypatch.setattr(
            cli_module, "window_solution", lambda inst, _: solve_intervals(inst)
        )
        assert main(["check", "--in", instance_file(crossing)]) == 3
        lines = capsys.readouterr().out.splitlines()
        name = "candidates cover every slope change"
        assert f"{name:<{CHECK_WIDTH}}  FAIL  (uncovered: 1/2)" in lines

    def test_disagreeing_swap_partners_fail_their_check(
        self, instance_file, capsys, monkeypatch
    ):
        import matroid_interdiction.cli as cli_module

        # C4P's one swap is e3 -> e2 at 3/2; e3 is in the start basis.
        def shifted_gains(inst, schedule):
            gains = dict(interdiction.removal_gains(inst, schedule))
            own = gains[3]
            gains[3] = PWLFunction.build(
                own.domain, own.cuts, [LinearFn(p.a + 1, p.b) for p in own.pieces]
            )
            return gains

        def naive_solution(inst, schedule, _):
            return interdiction.naive_solution(
                inst, schedule, interdiction.removal_gains(inst, schedule)
            )

        monkeypatch.setattr(cli_module, "removal_gains", shifted_gains)
        monkeypatch.setattr(cli_module, "naive_solution", naive_solution)
        assert main(["check", "--in", instance_file(C4P)]) == 3
        lines = capsys.readouterr().out.splitlines()
        name = "swap partners agree at every breakpoint"
        assert f"{name:<{CHECK_WIDTH}}  FAIL  (at 3/2: e3 vs e2)" in lines
        assert sum("FAIL" in line for line in lines) == 1


class TestPlot:
    def test_c4p_rows(self, instance_file, tmp_path):
        out = tmp_path / "plot.csv"
        code = main([
            "plot", "--in", instance_file(C4P), "--samples", "4", "--out", str(out)
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,y,w,most_vital,y_decimal"
        rows = [line.split(",") for line in lines[1:]]
        # samples 0, 1/2, 1, 3/2, 2 plus the cut of y at 1/2 (kept as its own row)
        assert [r[0] for r in rows] == ["0", "1/2", "1/2", "1", "3/2", "2"]
        assert [r[1] for r in rows] == ["6", "6", "6", "7", "8", "9"]
        assert [r[2] for r in rows] == ["3", "4", "4", "5", "6", "6"]
        assert rows[0][3] == "e3" and rows[-1][3] == "e0"
        assert rows[3][4] == "7.000000000000"

    def test_p2_rows(self, instance_file, tmp_path):
        out = tmp_path / "plot.csv"
        assert main([
            "plot", "--in", instance_file(P2), "--samples", "2", "--out", str(out)
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["-1", "1", "1", "3"]
        assert [r[1] for r in rows] == ["1", "1", "1", "3"]

    @pytest.mark.parametrize(
        "algorithm, candidate_builds", [("naive", 0), ("intervals", 1), ("oracle", 0)]
    )
    def test_builds_candidates_only_for_the_window_solver(
        self, instance_file, tmp_path, monkeypatch, algorithm, candidate_builds
    ):
        calls = count_artifact_builds(monkeypatch)
        out = tmp_path / "plot.csv"
        assert main([
            "plot", "--in", instance_file(TIED), "--algorithm", algorithm,
            "--samples", "4", "--out", str(out),
        ]) == 0
        assert calls["find_candidates"] == candidate_builds
        assert calls["parametric_min_basis"] == 1
        # the bytes written when every plot still built the candidates
        assert out.read_bytes() == (
            b"lambda,y,w,most_vital,y_decimal\n"
            b"-2,1,-2,e0,1.000000000000\n"
            b"-1,1,-1,e0,1.000000000000\n"
            b"-1,1,-1,e0,1.000000000000\n"
            b"0,0,0,e0,0.000000000000\n"
            b"0,0,0,e0,0.000000000000\n"
            b"1,1,-1,e2,1.000000000000\n"
            b"1,1,-1,e2,1.000000000000\n"
            b"2,1,-2,e2,1.000000000000\n"
        )

    def test_unbounded_interval_exits_1(self, instance_file, tmp_path, capsys):
        data = json.loads(json.dumps(P2))
        data["interval"] = {"lo": "-inf", "hi": "3"}
        out = tmp_path / "plot.csv"
        assert main(["plot", "--in", instance_file(data), "--out", str(out)]) == 1
        assert "bounded" in capsys.readouterr().err

    def test_rank_zero_exits_1(self, instance_file, tmp_path, capsys):
        out = tmp_path / "plot.csv"
        assert main(["plot", "--in", instance_file(RANK0), "--out", str(out)]) == 1
        assert "error: rank-0 instance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_1(self, instance_file, tmp_path, capsys, samples):
        out = tmp_path / "plot.csv"
        assert main([
            "plot", "--in", instance_file(P2), "--samples", samples, "--out", str(out)
        ]) == 1
        assert capsys.readouterr().err.startswith("error: --samples")
        assert not out.exists()


class TestDouble:
    def test_graphic_double_has_parallel_copies(self, instance_file, tmp_path):
        out = tmp_path / "dbl.json"
        assert main(["double", "--in", instance_file(C4P), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["type"] == "graphic"
        assert len(payload["edges"]) == 8
        assert payload["edges"][4] == payload["edges"][0]

    def test_single_edge_becomes_parallel_pair_and_solvable(self, instance_file, tmp_path):
        out = tmp_path / "dbl.json"
        assert main(["double", "--in", instance_file(BRIDGE), "--out", str(out)]) == 0
        sol = tmp_path / "sol.json"
        assert main(["solve", "--in", str(out), "--out", str(sol)]) == 0
        payload = json.loads(sol.read_text())
        assert payload["segments"][0]["value"] == {"a": "1", "b": "0"}

    def test_uniform_double_uses_doubled_type(self, instance_file, tmp_path):
        uniform = {
            "type": "uniform", "name": "U", "m": 3, "k": 2,
            "weights": [{"a": "1", "b": "0"}, {"a": "2", "b": "0"}, {"a": "3", "b": "0"}],
            "interval": {"lo": "0", "hi": "1"},
        }
        out = tmp_path / "dbl.json"
        assert main(["double", "--in", instance_file(uniform), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["type"] == "doubled"
        sol = tmp_path / "sol.json"
        assert main(["solve", "--in", str(out), "--out", str(sol)]) == 0

    @pytest.mark.parametrize(
        "fixture", [name for name in FIXTURES if name != "bridge.json"])
    def test_fixture_double_solves_alike_to_the_plain_optimum(self, fixture, tmp_path):
        # Each line's identical twin replaces it at no cost, so the
        # interdicted optimum of the double is the fixture's plain optimum.
        doubled = tmp_path / "doubled.json"
        assert main(["double", "--in", str(FIXTURE_DIR / fixture), "--out", str(doubled)]) == 0
        written = []
        for algorithm in ("naive", "intervals", "oracle"):
            out = tmp_path / f"{algorithm}.json"
            argv = ["solve", "--algorithm", algorithm, "--in", str(doubled), "--out", str(out)]
            assert main(argv) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]
        _, solution, _ = parse_solution(json.loads(written[0]))
        plain = parametric_min_basis(load_instance(str(FIXTURE_DIR / fixture)))
        assert pwl_equal(solution.value, plain.value)

    def test_double_then_solve_reproduces_plain_optimum(self, instance_file, tmp_path, c4p):
        out = tmp_path / "dbl.json"
        main(["double", "--in", instance_file(C4P), "--out", str(out)])
        sol_path = tmp_path / "sol.json"
        assert main(["solve", "--in", str(out), "--out", str(sol_path)]) == 0
        payload = json.loads(sol_path.read_text())
        values = [seg["value"] for seg in payload["segments"]]
        assert values == [{"a": "3", "b": "2"}, {"a": "6", "b": "0"}]


class TestCandidates:
    def test_c4p_listing(self, instance_file, capsys):
        assert main(["candidates", "--in", instance_file(C4P)]) == 0
        out = capsys.readouterr().out
        assert "1/2\te3->e0\trank" in out
        assert "total: 3 (bound 2km = 24)" in out

    def test_no_crossings(self, instance_file, capsys):
        data = json.loads(json.dumps(C4P))
        for edge in data["edges"]:
            edge["b"] = "0"
        data["name"] = "C4"
        assert main(["candidates", "--in", instance_file(data)]) == 0
        assert "total: 0" in capsys.readouterr().out


class TestDimacsInput:
    def test_solve_from_dimacs(self, tmp_path):
        path = tmp_path / "tri.dimacs"
        path.write_text("p edge 3 3\ne 1 2 1 0\ne 2 3 2 0\ne 1 3 0 1\n")
        out = tmp_path / "sol.json"
        code = main([
            "solve", "--in", str(path), "--interval", "0:2", "--out", str(out)
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["stats"]["m"] == 3

    def test_self_loop_note_on_stderr(self, instance_file, tmp_path, capsys):
        data = json.loads(json.dumps(C4P))
        data["edges"].append({"u": 1, "v": 1, "a": "9", "b": "0"})
        out = tmp_path / "sol.json"
        assert main(["solve", "--in", instance_file(data), "--out", str(out)]) == 0
        assert "self-loop" in capsys.readouterr().err

    def test_negative_interval_as_separate_argument_exits_1(self, tmp_path, capsys):
        # argparse reads "-5:5" as an option, which is a usage error; exit 2
        # stays reserved for coloops.
        path = tmp_path / "tri.dimacs"
        path.write_text("p edge 3 3\ne 1 2 1 0\ne 2 3 2 0\ne 1 3 0 1\n")
        out = tmp_path / "sol.json"
        code = main([
            "solve", "--in", str(path), "--interval", "-5:5", "--out", str(out)
        ])
        assert code == 1
        assert "--interval" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_interval_with_equals_sign_solves(self, tmp_path):
        path = tmp_path / "tri.dimacs"
        path.write_text("p edge 3 3\ne 1 2 1 0\ne 2 3 2 0\ne 1 3 0 1\n")
        out = tmp_path / "sol.json"
        code = main(["solve", "--in", str(path), "--interval=-5:5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["interval"] == {"lo": "-5", "hi": "5"}

    def test_zero_denominator_interval_exits_1(self, tmp_path, capsys):
        path = tmp_path / "tri.dimacs"
        path.write_text("p edge 3 3\ne 1 2 1 0\ne 2 3 2 0\ne 1 3 0 1\n")
        out = tmp_path / "sol.json"
        code = main(["solve", "--in", str(path), "--interval=1/0:5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestFileErrors:
    """An unreadable input or unwritable output is one error line naming it."""

    @staticmethod
    def assert_one_error_naming(path, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("name", ["missing.dimacs", "missing.json"])
    def test_missing_input(self, tmp_path, capsys, name):
        path = tmp_path / name
        out = tmp_path / "sol.json"
        assert main(["solve", "--in", str(path), "--out", str(out)]) == 1
        self.assert_one_error_naming(path, capsys)

    @pytest.mark.parametrize("name", ["bad.dimacs", "bad.json"])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe p edge 2 1\n")
        assert main(["check", "--in", str(path)]) == 1
        self.assert_one_error_naming(path, capsys)

    # Both fail before the instance is read, so nothing is solved or created.
    @pytest.mark.parametrize("verb", ["solve", "plot", "double"])
    def test_output_in_a_missing_directory(
        self, instance_file, tmp_path, capsys, monkeypatch, verb
    ):
        src = instance_file(C4P)
        out = tmp_path / "missing" / "out.txt"
        calls = count_artifact_builds(monkeypatch)
        assert main([verb, "--in", src, "--out", str(out)]) == 1
        self.assert_one_error_naming(out, capsys)
        assert calls["parametric_min_basis"] == 0
        assert not out.parent.exists()

    @pytest.mark.parametrize("verb", ["solve", "plot", "double"])
    def test_output_that_is_a_directory(
        self, instance_file, tmp_path, capsys, monkeypatch, verb
    ):
        src = instance_file(C4P)
        calls = count_artifact_builds(monkeypatch)
        assert main([verb, "--in", src, "--out", str(tmp_path)]) == 1
        self.assert_one_error_naming(tmp_path, capsys)
        assert calls["parametric_min_basis"] == 0

    @pytest.mark.parametrize("verb", ["solve", "plot", "double"])
    def test_empty_output_path(
        self, instance_file, tmp_path, capsys, monkeypatch, verb
    ):
        src = instance_file(C4P)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        calls = count_artifact_builds(monkeypatch)
        assert main([verb, "--in", src, "--out", ""]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: ''\n"
        )
        assert calls["parametric_min_basis"] == 0
        assert not any(cwd.iterdir())


class TestWarnings:
    TIE = (
        "warning: 1 parameter value(s) carry more than one crossing; "
        "ties resolve by element id"
    )

    def test_tie_warning_is_one_line_without_a_source_path(
        self, instance_file, tmp_path
    ):
        src = Path(matroid_interdiction.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "sol.json"
        proc = subprocess.run(
            [sys.executable, "-m", "matroid_interdiction", "solve",
             "--in", instance_file(PENCIL), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [self.TIE]
        assert ".py:" not in proc.stderr

    def test_warning_filters_still_apply(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", category=parametric.CoincidentEqualityPointsWarning
            )
            code = main(["solve", "--in", instance_file(PENCIL), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""

    @staticmethod
    def check_warnings(src, capsys) -> list[str]:
        # The suite ignores the tie warning; restore Python's default here.
        with warnings.catch_warnings():
            warnings.simplefilter(
                "default", category=parametric.CoincidentEqualityPointsWarning
            )
            assert main(["check", "--in", src]) == 0
        err = capsys.readouterr().err
        return [line for line in err.splitlines() if line.startswith("warning:")]

    def test_check_does_not_report_the_doubled_ties(self, instance_file, capsys):
        # The doubled self-check is tied by construction; C4P itself is not.
        assert self.check_warnings(instance_file(C4P), capsys) == []

    def test_check_reports_the_input_ties_once(self, instance_file, capsys):
        assert self.check_warnings(instance_file(PENCIL), capsys) == [self.TIE]

    def test_each_solve_in_one_process_reports_the_ties_once(
        self, instance_file, tmp_path, capsys
    ):
        src, out = instance_file(PENCIL), str(tmp_path / "sol.json")
        with warnings.catch_warnings():
            warnings.simplefilter(
                "default", category=parametric.CoincidentEqualityPointsWarning
            )
            for _ in range(3):
                assert main(["solve", "--in", src, "--out", out]) == 0
                assert capsys.readouterr().err.splitlines() == [self.TIE]


class TestOneParserPerProcess:
    """The parser is built once per process; no call leaks into the next."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_fresh_processes(
        self, instance_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        src = instance_file(C4P)
        dimacs = tmp_path / "tri.dimacs"
        dimacs.write_text("p edge 3 3\ne 1 2 1 0\ne 2 3 2 0\ne 1 3 0 1\n")
        plot, sol = tmp_path / "plot.csv", tmp_path / "sol.json"
        fixture = Path(__file__).resolve().parents[1] / "fixtures" / "C4P.json"
        calls = [
            (["plot", "--in", src, "--samples", "3", "--out", str(plot)], plot),
            (["plot", "--in", src, "--out", str(plot)], plot),
            (["solve", "--in", str(dimacs), "--interval", "-5:5", "--out", str(sol)], sol),
            (["--help"], None),
            (["solve", "--in", src, "--out", str(sol)], sol),
            (["solve", "--in", str(fixture), "--out", str(sol)], sol),
        ]

        def outcome(code, stdout, stderr, path):
            written = None
            if path is not None and path.exists():
                written = path.read_bytes()
                path.unlink()
            last = [text.splitlines()[-1] if text else "" for text in (stdout, stderr)]
            return code, *last, written

        in_process = []
        for argv, path in calls:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append(outcome(code, captured.out, captured.err, path))
        env = dict(
            os.environ, PYTHONPATH=str(Path(matroid_interdiction.__file__).parents[1])
        )
        fresh = []
        for argv, path in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "matroid_interdiction", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            fresh.append(outcome(proc.returncode, proc.stdout, proc.stderr, path))
        assert in_process == fresh
        assert [code for code, *_ in in_process] == [0, 0, 1, 0, 0, 0]
        # 3 and then 16 samples, plus the cut at 1/2: --samples did not carry over
        assert [written.count(b"\n") - 1 for *_, written in in_process[:2]] == [5, 18]


class TestConsoleEntryPoint:
    """``run``, the ``[project.scripts]`` entry point, exits with ``main``'s code."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check", "--in", str(FIXTURE_DIR / "C4P.json")], 0),
            (["check", "--in", str(FIXTURE_DIR / "bridge.json")], 2),
            (["solve", "--algorithm", "fastest"], 1),
        ],
        ids=["check-c4p", "check-bridge", "usage-error"],
    )
    def test_exit_code(self, argv, code, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["matroid-interdiction", *argv])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == code


class TestOverfullWindow:
    def test_bisection_matches_the_linear_scan(self):
        def linear(cuts, lambdas, k):
            for lo, hi in zip([None] + lambdas, lambdas + [None]):
                inside = [
                    c for c in cuts if (lo is None or c > lo) and (hi is None or c < hi)
                ]
                if len(inside) > k - 1:
                    return inside
            return None

        rng = random.Random(5)
        pool = [Fraction(i, 4) for i in range(-12, 13)]
        for _ in range(2000):
            cuts = tuple(sorted(rng.sample(pool, rng.randint(0, 8))))
            # Candidate values are drawn from the same pool, so many equal a cut.
            lambdas = sorted(rng.sample(pool, rng.randint(0, 6)))
            k = rng.randint(1, 4)
            sol = SimpleNamespace(value=SimpleNamespace(cuts=cuts))
            assert _overfull_window(sol, lambdas, k) == linear(cuts, lambdas, k)
