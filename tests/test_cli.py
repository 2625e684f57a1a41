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
import matroid_interdiction.parametric as parametric
from matroid_interdiction import solve_naive
from matroid_interdiction.cli import _overfull_window, main


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
        # Count every route to a sweep or a crossing enumeration, including
        # the names other modules imported from the parametric module.
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
        for name in ("parametric_min_basis", "interior_crossings"):
            original = getattr(parametric, name)
            for module in package:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name, original))
        out = tmp_path / "sol.json"
        src = instance_file(C4P)
        assert main(["solve", "--in", src, "--algorithm", algorithm, "--out", str(out)]) == 0
        assert calls == {"parametric_min_basis": 1, "interior_crossings": 1}

    @pytest.mark.parametrize("algorithm", ["naive", "intervals", "oracle"])
    def test_rank_zero_exits_1(self, instance_file, tmp_path, capsys, algorithm):
        out = tmp_path / "sol.json"
        src = instance_file(RANK0)
        assert main(["solve", "--in", src, "--algorithm", algorithm, "--out", str(out)]) == 1
        assert "error: rank-0 instance" in capsys.readouterr().err
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

    def test_failing_check_exits_3_with_counterexample(
        self, instance_file, capsys, monkeypatch
    ):
        import matroid_interdiction.cli as cli_module

        def broken_intervals(inst):
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
        monkeypatch.setattr(cli_module, "solve_intervals", broken_intervals)
        assert main(["check", "--in", instance_file(C4P)]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "first divergence at" in out


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
