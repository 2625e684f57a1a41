"""Every refusal that no other test raises, each with its exact message.

One test per refusal, named by the function that refuses and what it
refuses; each asserts the whole message text, path prefix included.
"""

from fractions import Fraction as F

import pytest

from matroid_interdiction import (
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    ParamInterval,
    PWLFunction,
    UniformMatroid,
    envelope_of_pwl,
    solve_naive,
)
from matroid_interdiction.instances import (
    InstanceFormatError,
    dump_instance,
    dump_solution,
    parse_instance,
    parse_solution,
    read_dimacs,
)
from matroid_interdiction.matroid import MatroidView
from matroid_interdiction.pwl import PWLError

from binary import BinaryMatroid

UNIT = ParamInterval.closed(0, 1)
ZERO = LinearFn(0, 0)


def refused(error, message, call, *args):
    with pytest.raises(error) as caught:
        call(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


def graphic(**changes):
    data = {
        "type": "graphic",
        "nodes": 2,
        "edges": [{"u": 0, "v": 1, "a": "1", "b": "0"}],
        "interval": {"lo": "0", "hi": "1"},
    }
    return {**data, **changes}


def uniform(**changes):
    data = {
        "type": "uniform",
        "m": 3,
        "k": 1,
        "weights": [{"a": "1", "b": "0"}] * 3,
        "interval": {"lo": "0", "hi": "1"},
    }
    return {**data, **changes}


class TestInstanceRefusals:
    def test_as_int_expected_an_integer(self):
        refused(InstanceFormatError, "instance.nodes: expected an integer, got '2'",
                parse_instance, graphic(nodes="2"))

    def test_check_keys_expected_an_object(self):
        refused(InstanceFormatError, "instance: expected an object, got list",
                parse_instance, [])

    def test_check_keys_missing_keys(self):
        data = graphic()
        del data["edges"], data["interval"]
        refused(InstanceFormatError, "instance: missing keys ['edges', 'interval']",
                parse_instance, data)

    def test_parse_instance_name_must_be_a_string(self):
        refused(InstanceFormatError, "instance.name: must be a string",
                parse_instance, graphic(name=7))

    def test_parse_instance_graphic_expected_a_non_empty_list(self):
        refused(InstanceFormatError, "instance.edges: expected a non-empty list",
                parse_instance, graphic(edges=[]))

    def test_parse_instance_uniform_expected_a_list_of_m_weights(self):
        refused(InstanceFormatError, "instance.weights: expected a list of 3 weights",
                parse_instance, uniform(weights=[{"a": "1", "b": "0"}] * 2))

    def test_parse_instance_unknown_instance_type(self):
        refused(InstanceFormatError, "instance.type: unknown instance type 'fano'",
                parse_instance, {"type": "fano"})

    def test_dump_instance_unknown_backend(self):
        inst = MatroidInstance(BinaryMatroid((1, 1)), (ZERO, ZERO), UNIT)
        refused(TypeError, "cannot serialize backend BinaryMatroid", dump_instance, inst)


class TestSolutionFileRefusals:
    @staticmethod
    def dumped():
        inst = parse_instance(graphic(edges=[{"u": 0, "v": 1, "a": "1", "b": "0"}] * 2))
        return dump_solution(inst, solve_naive(inst), {})

    def test_parse_solution_expected_at_least_one_segment(self):
        data = {**self.dumped(), "segments": []}
        refused(InstanceFormatError, "solution.segments: expected at least one segment",
                parse_solution, data)

    def test_parse_solution_segments_do_not_cover_the_interval(self):
        data = {**self.dumped(), "interval": {"lo": "0", "hi": "2"}}
        refused(InstanceFormatError, "solution.segments: segments do not cover the interval",
                parse_solution, data)


class TestDimacsRefusals:
    def test_read_dimacs_expected_p_edge_n_m(self):
        refused(InstanceFormatError, "line 1: expected 'p edge N M'",
                read_dimacs, "p edge 2\n", UNIT)

    def test_read_dimacs_expected_e_u_v_a_b(self):
        refused(InstanceFormatError, "line 2: expected 'e u v [a [b]]'",
                read_dimacs, "p edge 2 1\ne 1\n", UNIT)

    def test_read_dimacs_no_header_or_no_edges(self):
        refused(InstanceFormatError, "no 'p edge' header or no edges",
                read_dimacs, "c nothing here\np edge 2 0\n", UNIT)


class TestMatroidRefusals:
    def test_graphic_matroid_node_out_of_range(self):
        refused(ValueError, "edge e1=(0,2) has a node out of range",
                GraphicMatroid, 2, ((0, 1), (0, 2)))

    @pytest.mark.parametrize("m, k", [(-1, 0), (3, -1)], ids=["m", "k"])
    def test_uniform_matroid_negative_m_or_k(self, m, k):
        refused(ValueError, "m and k must be non-negative", UniformMatroid, m, k)

    def test_replacement_element_of_a_non_member(self):
        view = MatroidView(UniformMatroid(3, 1))
        refused(ValueError, "e1 is not in the basis",
                view.replacement_element, frozenset({0}), 1, lambda e: e)


class TestMatroidInstanceRefusals:
    def test_weight_count_mismatch(self):
        refused(ValueError, "2 weights for 3 elements",
                MatroidInstance, UniformMatroid(3, 1), (ZERO, ZERO), UNIT)

    def test_degenerate_interval(self):
        refused(ValueError, "parameter interval [1, 1] is degenerate",
                MatroidInstance, UniformMatroid(2, 1), (ZERO, ZERO),
                ParamInterval.closed(1, 1))


class TestPWLRefusals:
    def test_build_degenerate_domain(self):
        refused(PWLError, "degenerate domain [1, 1]",
                PWLFunction.build, ParamInterval.closed(1, 1), [], [ZERO])

    def test_build_piece_and_cut_count(self):
        refused(PWLError, "2 pieces do not fit 0 cuts",
                PWLFunction.build, UNIT, [], [ZERO, ZERO])

    def test_build_label_count(self):
        refused(PWLError, "labels must be one per piece",
                PWLFunction.build, UNIT, [], [ZERO], [0, 1])

    def test_piece_index_outside_the_domain(self):
        refused(ValueError, "2 outside domain [0, 1]",
                PWLFunction.from_line(UNIT, ZERO).piece_index, F(2))

    def test_envelope_of_pwl_needs_one_function(self):
        refused(ValueError, "need at least one function", envelope_of_pwl, [], UNIT)


class TestSolutionRefusals:
    def test_segment_at_outside_the_interval(self):
        inst = parse_instance(graphic(edges=[{"u": 0, "v": 1, "a": "1", "b": "0"}] * 2))
        refused(ValueError, "3/2 outside the solved interval",
                solve_naive(inst).segment_at, F(3, 2))
