import random
from collections import Counter
from fractions import Fraction

import pytest

from matroid_interdiction import (
    ColoopError,
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    MatroidView,
    ParamInterval,
    UniformMatroid,
    all_equality_points,
    doubled_graphic_instance,
    doubled_instance,
    find_candidates,
    parametric_min_basis,
    pwl_equal,
    removal_value_functions,
    solve_intervals,
    solve_naive,
)

from randinst import random_graphic, random_rational, random_uniform, sample_window


class TestRemovalValueFunctions:
    def test_p2(self, p2):
        ys = removal_value_functions(p2)
        assert ys[0].pieces == (LinearFn(1, 0),) and ys[0].cuts == ()
        assert ys[1].pieces == (LinearFn(0, 1),) and ys[1].cuts == ()

    def test_c4p(self, c4p):
        # deleting any edge of a cycle leaves exactly one spanning tree,
        # so each function is a single line over the whole interval
        ys = removal_value_functions(c4p)
        assert ys[0].pieces == (LinearFn(5, 2),)
        assert ys[1].pieces == (LinearFn(4, 2),)
        assert ys[2].pieces == (LinearFn(3, 2),)
        assert ys[3].pieces == (LinearFn(6, 0),)

    def test_elements_outside_every_optimum_share_the_plain_value(self):
        # a cheap triangle plus one expensive chord that never enters
        inst = MatroidInstance(
            GraphicMatroid(3, ((0, 1), (1, 2), (0, 2))),
            (LinearFn(0, 0), LinearFn(1, 0), LinearFn(9, 1)),
            ParamInterval.closed(0, 2),
            "",
        )
        ys = removal_value_functions(inst)
        w = parametric_min_basis(inst).value
        assert pwl_equal(ys[2], w)

    def test_rejects_coloops(self, bridge):
        with pytest.raises(ColoopError):
            removal_value_functions(bridge)

    def test_bundles_cost_one_greedy_check_each(self, monkeypatch):
        # Coincident crossings take the lone-crossing path: one greedy run for
        # the start basis, one per deleted basis, one check per bundle.
        inst = random_graphic(random.Random(109), n_range=(6, 6), m_max=12, coeff=2)
        greedy = MatroidView.greedy_min_basis
        calls = []

        def counted(view, weight_at):
            calls.append(view)
            return greedy(view, weight_at)

        monkeypatch.setattr(MatroidView, "greedy_min_basis", counted)
        removal_value_functions(inst)
        per_value = Counter(pt.lam for pt in all_equality_points(inst))
        bundles = sum(1 for count in per_value.values() if count > 1)
        assert bundles > 0
        assert len(calls) <= 1 + inst.rank() + bundles

    def test_matches_per_point_bruteforce(self):
        rng = random.Random(71)
        for _ in range(25):
            inst = random_graphic(rng, m_max=10) if rng.random() < 0.7 else random_uniform(rng, m_max=8)
            ys = removal_value_functions(inst)
            view = inst.view()
            lo, hi = sample_window(inst)
            for _ in range(20):
                lam = random_rational(rng, lo, hi)
                weight_at = inst.weights_at(lam)
                for e in range(inst.m):
                    basis = view.delete(e).greedy_min_basis(weight_at)
                    assert ys[e].value_at(lam) == sum(weight_at(x) for x in basis)


class TestSolveNaive:
    def test_p2_segments(self, p2):
        sol = solve_naive(p2)
        seg1, seg2 = sol.segments
        assert (str(seg1.window), seg1.value, seg1.most_vital) == (
            "[-1, 1]", LinearFn(1, 0), 0)
        assert seg1.basis == {0} and seg1.replacement == 1
        assert (str(seg2.window), seg2.value, seg2.most_vital) == (
            "[1, 3]", LinearFn(0, 1), 1)
        assert seg2.basis == {1} and seg2.replacement == 0

    def test_c4p_segments(self, c4p):
        sol = solve_naive(c4p)
        seg1, seg2 = sol.segments
        assert (str(seg1.window), seg1.value, seg1.most_vital) == (
            "[0, 1/2]", LinearFn(6, 0), 3)
        assert (str(seg2.window), seg2.value, seg2.most_vital) == (
            "[1/2, 2]", LinearFn(5, 2), 0)
        # the plain optimum breaks at 3/2 but the interdicted one does not
        assert sol.value.cuts == (Fraction(1, 2),)

    def test_constant_c4_single_segment(self, c4):
        sol = solve_naive(c4)
        (seg,) = sol.segments
        assert seg.value == LinearFn(9, 0)
        assert seg.most_vital == 0
        assert seg.basis == {0, 1, 2} and seg.replacement == 3

    def test_interdicted_value_dominates_plain_value(self):
        rng = random.Random(73)
        for _ in range(30):
            inst = random_graphic(rng)
            sol = solve_naive(inst)
            w = parametric_min_basis(inst).value
            lo, hi = sample_window(inst)
            for _ in range(20):
                lam = random_rational(rng, lo, hi)
                assert sol.value.value_at(lam) >= w.value_at(lam)

    def test_most_vital_lies_in_the_segment_basis(self):
        rng = random.Random(79)
        for _ in range(40):
            inst = random_graphic(rng, coeff=4)
            for seg in solve_naive(inst).segments:
                assert seg.most_vital in seg.basis


class TestFindCandidates:
    def test_c4p_all_rank_case(self, c4p):
        cand = find_candidates(c4p)
        assert [(e.point.lighter_before, e.point.lighter_after, e.point.lam)
                for e in cand.entries] == [
            (3, 0, Fraction(1, 2)), (3, 1, Fraction(1)), (3, 2, Fraction(3, 2))]
        assert all(e.by_rank and not e.by_singleton for e in cand.entries)
        assert [e.tags for e in cand.entries] == ["rank", "rank", "rank"]

    def test_p2(self, p2):
        cand = find_candidates(p2)
        assert len(cand) == 1
        assert cand.entries[0].point.lam == Fraction(1)
        assert cand.entries[0].by_rank

    def test_parallel_weight_lines_have_no_candidates(self, c4):
        assert len(find_candidates(c4)) == 0

    def test_count_within_2km(self):
        rng = random.Random(83)
        for _ in range(60):
            inst = random_graphic(rng) if rng.random() < 0.7 else random_uniform(rng)
            cand = find_candidates(inst)
            assert len(cand) <= 2 * inst.rank() * inst.m

    def test_candidates_cover_every_slope_change(self):
        rng = random.Random(89)
        for _ in range(40):
            inst = random_graphic(rng) if rng.random() < 0.7 else random_uniform(rng)
            values = set(find_candidates(inst).lambdas())
            sched = parametric_min_basis(inst)
            assert set(sched.value.cuts) <= values
            for fn in removal_value_functions(inst).values():
                assert set(fn.cuts) <= values

    def test_works_on_coloopy_instances(self, bridge):
        assert len(find_candidates(bridge)) == 0


class TestSolveIntervals:
    def test_c4p_matches_stated_solution(self, c4p):
        sol = solve_intervals(c4p)
        assert sol.value.cuts == (Fraction(1, 2),)
        assert sol.value.pieces == (LinearFn(6, 0), LinearFn(5, 2))
        assert [ (str(s.window), s.most_vital) for s in sol.segments ] == [
            ("[0, 1/2]", 3), ("[1/2, 2]", 0)]

    def test_p2(self, p2):
        sol = solve_intervals(p2)
        assert sol.value.cuts == (Fraction(1),)
        assert sol.value.pieces == (LinearFn(1, 0), LinearFn(0, 1))

    def test_constant_c4(self, c4):
        sol = solve_intervals(c4)
        assert sol.value.pieces == (LinearFn(9, 0),)

    def test_agrees_with_naive_everywhere(self):
        rng = random.Random(97)
        for _ in range(50):
            inst = random_graphic(rng, coeff=5) if rng.random() < 0.7 else random_uniform(rng, coeff=5)
            a = solve_naive(inst)
            b = solve_intervals(inst)
            assert pwl_equal(a.value, b.value)
            assert [ (s.most_vital, s.value) for s in a.segments ] == [
                (s.most_vital, s.value) for s in b.segments ]

    def test_tied_bundle_where_the_swap_pair_is_not_a_candidate(self):
        # Regression: at a coincident crossing value, the pair that actually
        # swaps the optimal basis need not itself be flagged as a candidate
        # (an earlier same-value insertion can mask its rank test), so the
        # basis must be advanced with every crossing sharing the value.
        edges = ((0, 4), (4, 2), (2, 5), (5, 3), (3, 1), (1, 0), (2, 5),
                 (2, 0), (3, 4), (1, 2), (5, 0), (4, 0), (0, 3), (0, 3))
        coeffs = [(4, -2), (2, -4), (4, -2), (0, 4), (0, -3), (0, -2), (-1, 0),
                  (-1, -1), (-4, -4), (2, 0), (3, 1), (2, 2), (0, 0), (0, -3)]
        inst = MatroidInstance(
            GraphicMatroid(6, edges),
            tuple(LinearFn(a, b) for a, b in coeffs),
            ParamInterval.closed(-10, 10),
            "tied-bundle",
        )
        a = solve_naive(inst)
        b = solve_intervals(inst)
        assert pwl_equal(a.value, b.value)

    def test_slope_changes_between_candidates_bounded_by_rank(self):
        rng = random.Random(101)
        for _ in range(40):
            inst = random_graphic(rng)
            k = inst.rank()
            sol = solve_naive(inst)
            lambdas = find_candidates(inst).lambdas()
            bounds = [None] + lambdas + [None]
            for lo, hi in zip(bounds, bounds[1:]):
                inside = [
                    c for c in sol.value.cuts
                    if (lo is None or c > lo) and (hi is None or c < hi)
                ]
                assert len(inside) <= k - 1


class TestSwapContinuity:
    def test_swapped_functions_agree_at_breakpoints(self):
        rng = random.Random(103)
        for _ in range(40):
            inst = random_graphic(rng, coeff=5)
            sched = parametric_min_basis(inst)
            ys = removal_value_functions(inst)
            for cut, (out, in_) in zip(sched.cuts, sched.swaps):
                assert ys[out].value_at(cut) == ys[in_].value_at(cut)


class TestDoubledInstance:
    def test_single_edge_double_is_a_parallel_pair(self):
        inst = MatroidInstance(
            GraphicMatroid(2, ((0, 1),)),
            (LinearFn(2, 0),),
            ParamInterval.closed(0, 1),
            "one",
        )
        dbl = doubled_instance(inst)
        assert dbl.m == 2
        sol = solve_naive(dbl)
        assert sol.value.pieces == (LinearFn(2, 0),)

    def test_c4p_double_reproduces_the_plain_optimum(self, c4p):
        dbl = doubled_instance(c4p)
        w = parametric_min_basis(c4p).value
        assert pwl_equal(solve_naive(dbl).value, w)

    def test_rank_unchanged(self, c4p):
        assert doubled_instance(c4p).rank() == c4p.rank()

    def test_twin_weights_equal(self, c4p):
        dbl = doubled_instance(c4p)
        for e in range(c4p.m):
            assert dbl.weights[e] == dbl.weights[e + c4p.m]

    def test_backend_and_parallel_edge_routes_agree(self):
        rng = random.Random(107)
        for _ in range(15):
            inst = random_graphic(rng, m_max=8)
            via_backend = solve_naive(doubled_instance(inst))
            via_edges = solve_naive(doubled_graphic_instance(inst))
            assert pwl_equal(via_backend.value, via_edges.value)

    def test_parallel_edge_route_requires_graphic(self):
        inst = MatroidInstance(
            UniformMatroid(3, 2),
            (LinearFn(1, 0), LinearFn(2, 0), LinearFn(3, 0)),
            ParamInterval.closed(0, 1),
            "",
        )
        with pytest.raises(TypeError):
            doubled_graphic_instance(inst)


class TestDegenerateInstances:
    def test_rank_zero_is_rejected(self):
        loops = MatroidInstance(
            GraphicMatroid(1, ((0, 0), (0, 0))),
            (LinearFn(1, 0), LinearFn(2, 0)),
            ParamInterval.closed(0, 1),
            "",
        )
        with pytest.raises(ValueError):
            solve_naive(loops)

    def test_unbounded_interval_is_solved(self):
        inst = MatroidInstance(
            GraphicMatroid(2, ((0, 1), (0, 1))),
            (LinearFn(0, 1), LinearFn(1, 0)),
            ParamInterval.closed("-inf", "inf"),
            "",
        )
        sol = solve_naive(inst)
        assert sol.value.cuts == (Fraction(1),)
        assert pwl_equal(sol.value, solve_intervals(inst).value)

    def test_crossing_at_interval_end_is_not_a_cut(self):
        inst = MatroidInstance(
            GraphicMatroid(2, ((0, 1), (0, 1))),
            (LinearFn(0, 1), LinearFn(1, 0)),
            ParamInterval.closed(1, 3),  # crossing exactly at the left end
            "",
        )
        assert all_equality_points(inst) == []
        sol = solve_naive(inst)
        assert sol.value.cuts == ()
        assert sol.value.pieces == (LinearFn(0, 1),)
