import json

import pytest

from matroid_interdiction import (
    DoubledMatroid,
    GraphicMatroid,
    UniformMatroid,
    solve_naive,
)
from matroid_interdiction.instances import (
    InstanceFormatError,
    dump_instance,
    dump_solution,
    load_instance,
    parse_instance,
    parse_solution,
    read_dimacs,
)
from matroid_interdiction.rationals import ParamInterval


GRAPHIC = {
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

UNIFORM = {
    "type": "uniform",
    "name": "U",
    "m": 3,
    "k": 2,
    "weights": [
        {"a": "1", "b": "0"},
        {"a": "1/2", "b": "-1"},
        {"a": "-3", "b": "2"},
    ],
    "interval": {"lo": "-inf", "hi": "inf"},
}


class TestInstanceParsing:
    def test_graphic_round_trip(self):
        inst = parse_instance(GRAPHIC)
        assert isinstance(inst.backend, GraphicMatroid)
        assert inst.m == 4 and inst.name == "C4P"
        assert dump_instance(inst) == GRAPHIC
        assert parse_instance(dump_instance(inst)) == inst

    def test_uniform_round_trip(self):
        inst = parse_instance(UNIFORM)
        assert isinstance(inst.backend, UniformMatroid)
        assert not inst.interval.is_bounded
        assert dump_instance(inst) == UNIFORM
        assert parse_instance(dump_instance(inst)) == inst

    def test_doubled_round_trip(self):
        doubled = {"type": "doubled", "name": "", "inner": dict(GRAPHIC)}
        inst = parse_instance(doubled)
        assert isinstance(inst.backend, DoubledMatroid)
        assert inst.m == 8
        assert parse_instance(dump_instance(inst)) == inst

    def test_bare_integers_accepted_floats_rejected(self):
        data = json.loads(json.dumps(GRAPHIC))
        data["edges"][0]["a"] = 1
        parse_instance(data)
        data["edges"][0]["a"] = 1.5
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(data)
        assert "edges[0].a" in str(err.value)

    def test_malformed_rational_reports_path(self):
        data = json.loads(json.dumps(UNIFORM))
        data["weights"][2]["b"] = "2.5"
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(data)
        assert "weights[2].b" in str(err.value)

    def test_zero_denominator_reports_path(self):
        data = json.loads(json.dumps(UNIFORM))
        data["weights"][1]["a"] = "1/0"
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(data)
        assert "weights[1].a" in str(err.value)

    def test_node_out_of_range_reports_path(self):
        data = json.loads(json.dumps(GRAPHIC))
        data["edges"][3]["v"] = 9
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(data)
        assert "edges[3]" in str(err.value)

    def test_unknown_keys_rejected(self):
        data = json.loads(json.dumps(GRAPHIC))
        data["extra"] = 1
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

    def test_uniform_k_bounds(self):
        data = json.loads(json.dumps(UNIFORM))
        data["k"] = 5
        with pytest.raises(InstanceFormatError):
            parse_instance(data)
        data["k"] = 0
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

    def test_degenerate_interval_rejected(self):
        data = json.loads(json.dumps(GRAPHIC))
        for lo, hi in (("1", "1"), (5, 1), ("inf", "-inf"), ("inf", "inf")):
            data["interval"] = {"lo": lo, "hi": hi}
            with pytest.raises(InstanceFormatError) as err:
                parse_instance(data)
            assert str(err.value).startswith("instance.interval: ")

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"type": "graphic",\n  "nodes": }')
        with pytest.raises(InstanceFormatError) as err:
            load_instance(str(path))
        assert "line 2" in str(err.value)


class TestSolutionRoundTrip:
    def test_solution_round_trip_field_exact(self, c4p):
        sol = solve_naive(c4p)
        stats = {"m": 4, "k": 3}
        payload = dump_solution(c4p, sol, stats)
        text = json.dumps(payload, indent=2)
        name, parsed, parsed_stats = parse_solution(json.loads(text))
        assert name == "C4P"
        assert parsed_stats == stats
        assert parsed == sol

    def test_segments_must_tile(self, c4p):
        sol = solve_naive(c4p)
        payload = dump_solution(c4p, sol, {})
        payload["segments"][0]["hi"] = "1/4"
        with pytest.raises(InstanceFormatError):
            parse_solution(payload)


    def test_reversed_segment_names_its_path(self, c4p):
        payload = dump_solution(c4p, solve_naive(c4p), {})
        segment = payload["segments"][1]
        segment["lo"], segment["hi"] = segment["hi"], segment["lo"]
        with pytest.raises(InstanceFormatError) as err:
            parse_solution(payload)
        assert str(err.value).startswith("solution.segments[1]: ")


class TestDimacs:
    def test_minimal_edge_format(self):
        text = """c a triangle with explicit weights
p edge 3 3
e 1 2 1 0
e 2 3 2 0
e 1 3 0 1
"""
        inst = read_dimacs(text, ParamInterval.closed(0, 2), name="tri")
        assert inst.m == 3 and inst.backend.node_count == 3
        assert inst.weights[2].b == 1
        solve_naive(inst)

    def test_default_weights(self):
        text = "p edge 2 2\ne 1 2\ne 1 2\n"
        inst = read_dimacs(text, ParamInterval.closed(0, 1))
        assert inst.weights[0].a == 1 and inst.weights[0].b == 0

    def test_errors(self):
        with pytest.raises(InstanceFormatError):
            read_dimacs("e 1 2\n", ParamInterval.closed(0, 1))
        with pytest.raises(InstanceFormatError):
            read_dimacs("p edge 2 1\ne 1 5\n", ParamInterval.closed(0, 1))
        with pytest.raises(InstanceFormatError):
            read_dimacs("q edge 2 1\n", ParamInterval.closed(0, 1))
        for text, lineno in (
            ("p edge x 3\n", 1),
            ("c x\np edge 2 1\ne 1 2.0\n", 3),
            ("p edge 2 x\ne 1 2\ne 1 2\n", 1),
        ):
            with pytest.raises(InstanceFormatError) as err:
                read_dimacs(text, ParamInterval.closed(0, 1))
            assert str(err.value).startswith(f"line {lineno}: ")

    @pytest.mark.parametrize("declared", [1, 3])
    def test_edge_count_must_match_the_header(self, declared):
        text = f"c two parallel edges\np edge 2 {declared}\ne 1 2\ne 1 2\n"
        with pytest.raises(InstanceFormatError) as err:
            read_dimacs(text, ParamInterval.closed(0, 1))
        assert str(err.value) == f"line 2: header declares {declared} edges, found 2"
