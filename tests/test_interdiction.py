import json
import random
import sys
import warnings
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from matroid_interdiction import (
    ColoopError,
    EqualityPoint,
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    MatroidView,
    ParamInterval,
    PWLFunction,
    UniformMatroid,
    all_equality_points,
    compare,
    doubled_graphic_instance,
    doubled_instance,
    find_candidates,
    interdict_at,
    parametric_min_basis,
    pwl_equal,
    removal_value_functions,
    solve_bruteforce,
    solve_intervals,
    solve_naive,
)

from matroid_interdiction import interdiction, parametric, pwl
from matroid_interdiction.cli import _run_checks
from matroid_interdiction.instances import dump_solution
from matroid_interdiction.parametric import CoincidentEqualityPointsWarning, interior_crossings
from matroid_interdiction.rationals import extended, interior_point
from matroid_interdiction.solution import build_solution
from randinst import (
    parallel_classes,
    prime_graphic,
    primes,
    random_graphic,
    random_rational,
    random_uniform,
    sample_window,
    tangent_uniform,
)
from subsets import subset_min_basis
from test_properties import window_states, windows_one_by_one


class TestRemovalValueFunctions:
    def test_p2(self, p2):
        ys = removal_value_functions(p2, parametric_min_basis(p2))
        assert ys[0].pieces == (LinearFn(1, 0),) and ys[0].cuts == ()
        assert ys[1].pieces == (LinearFn(0, 1),) and ys[1].cuts == ()

    def test_c4p(self, c4p):
        # deleting any edge of a cycle leaves exactly one spanning tree,
        # so each function is a single line over the whole interval
        ys = removal_value_functions(c4p, parametric_min_basis(c4p))
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
        ys = removal_value_functions(inst, parametric_min_basis(inst))
        w = parametric_min_basis(inst).value
        assert pwl_equal(ys[2], w)

    def test_rejects_coloops(self, bridge):
        with pytest.raises(ColoopError):
            removal_value_functions(bridge, parametric_min_basis(bridge))

    def test_bundles_cost_one_greedy_check_each(self, monkeypatch):
        # One greedy run for the start basis and one check per bundle that
        # joins a member of the basis just left of it to a non-member; a
        # bundle that joins none is certified without a walk.  The removal
        # sweep runs none: it starts from replacement scans.
        inst = random_graphic(random.Random(109), n_range=(6, 6), m_max=12, coeff=2)
        schedule = parametric_min_basis(inst)
        per_value: dict[Fraction, list] = {}
        for pt in schedule.points:
            per_value.setdefault(pt.lam, []).append(pt)
        bundles = [group for group in per_value.values() if len(group) > 1]

        def joins(group):
            left = schedule.bases[bisect_left(schedule.cuts, group[0].lam)]
            return any((pt.lighter_before in left) != (pt.lighter_after in left)
                       for pt in group)

        joining = sum(map(joins, bundles))
        assert 0 < joining < len(bundles)
        greedy = MatroidView.greedy_min_basis
        calls = []

        def counted(view, weight_at):
            calls.append(view)
            return greedy(view, weight_at)

        monkeypatch.setattr(MatroidView, "greedy_min_basis", counted)
        removal_value_functions(inst, parametric_min_basis(inst))
        assert len(calls) == 1 + joining

    def test_matches_per_point_bruteforce(self):
        rng = random.Random(71)
        for _ in range(25):
            inst = random_graphic(rng, m_max=10) if rng.random() < 0.7 else random_uniform(rng, m_max=8)
            ys = removal_value_functions(inst, parametric_min_basis(inst))
            lo, hi = sample_window(inst)
            for _ in range(20):
                lam = random_rational(rng, lo, hi)
                weight_at = inst.weights_at(lam)
                for e in range(inst.m):
                    others = (x for x in range(inst.m) if x != e)
                    basis = subset_min_basis(inst.backend, others, weight_at)
                    assert ys[e].value_at(lam) == sum(weight_at(x) for x in basis)

    def test_matches_builder_optimum_at_cuts_on_tied_instances(self):
        # Coefficients up to 2 make coincident crossings the rule, so the
        # running line sums cross main swaps inside bundles.
        rng = random.Random(73)
        bundled = 0
        for i in range(40):
            interval = ("-inf", "inf") if i % 4 == 0 else (-3, 3)
            if rng.random() < 0.7:
                inst = random_graphic(rng, m_max=10, coeff=2, interval=interval)
            else:
                inst = random_uniform(rng, m_max=8, coeff=2, interval=interval)
            if i % 5 == 0:
                inst = doubled_instance(inst)
            points = all_equality_points(inst)
            bundled += len(points) > len({pt.lam for pt in points})
            ys = removal_value_functions(inst, parametric_min_basis(inst))
            for e, fn in ys.items():
                others = [x for x in range(inst.m) if x != e]
                probes = [*fn.cuts, *(ParamInterval(lo, hi).representative()
                                      for lo, hi, _, _ in fn.piece_windows())]
                for lam in probes:
                    weight_at = inst.weights_at(lam)
                    basis = subset_min_basis(inst.backend, others, weight_at)
                    assert fn.value_at(lam) == sum(weight_at(x) for x in basis)
        assert bundled >= 20


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

    def test_a_label_only_cut_widens_the_segment(self):
        # U(1, 3): the member e1 has a zero-gain twin e2 beside the outsider
        # e0, so every gain is 0.  Labels e0 and e1 across a cut at 1 both
        # resolve to e1 with the line 0, and the second piece widens the
        # first segment.
        inst = MatroidInstance(UniformMatroid(3, 1),
                               (LinearFn(1, 0), LinearFn(0, 0), LinearFn(0, 0)),
                               ParamInterval.closed(0, 2))
        zero = LinearFn(0, 0)
        labeled = PWLFunction.build(inst.interval, [Fraction(1)], [zero, zero], [0, 1])
        sol = build_solution(inst, labeled)
        (seg,) = sol.segments
        assert (str(seg.window), seg.value, seg.most_vital) == ("[0, 2]", zero, 1)
        assert seg.basis == {1} and seg.replacement == 2
        assert compare(sol, solve_bruteforce(inst)).ok

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
        cand = find_candidates(c4p, interior_crossings(c4p))
        assert [(e.point.lighter_before, e.point.lighter_after, e.point.lam)
                for e in cand.entries] == [
            (3, 0, Fraction(1, 2)), (3, 1, Fraction(1)), (3, 2, Fraction(3, 2))]
        assert all(e.by_rank and not e.by_singleton for e in cand.entries)
        assert [e.tags for e in cand.entries] == ["rank", "rank", "rank"]

    def test_p2(self, p2):
        cand = find_candidates(p2, interior_crossings(p2))
        assert len(cand) == 1
        assert cand.entries[0].point.lam == Fraction(1)
        assert cand.entries[0].by_rank

    def test_parallel_weight_lines_have_no_candidates(self, c4):
        assert len(find_candidates(c4, interior_crossings(c4))) == 0

    def test_count_within_2km(self):
        rng = random.Random(83)
        for _ in range(60):
            inst = random_graphic(rng) if rng.random() < 0.7 else random_uniform(rng)
            cand = find_candidates(inst, interior_crossings(inst))
            assert len(cand) <= 2 * inst.rank() * inst.m

    def test_candidates_cover_every_slope_change(self):
        rng = random.Random(89)
        for _ in range(40):
            inst = random_graphic(rng) if rng.random() < 0.7 else random_uniform(rng)
            values = set(find_candidates(inst, interior_crossings(inst)).lambdas())
            sched = parametric_min_basis(inst)
            assert set(sched.value.cuts) <= values
            for fn in removal_value_functions(inst, sched).values():
                assert set(fn.cuts) <= values

    def test_works_on_coloopy_instances(self, bridge):
        assert len(find_candidates(bridge, interior_crossings(bridge))) == 0

    def test_equal_values_held_by_distinct_fractions_are_not_lone(self):
        # Three lines through (0, 0) and a constant line: a bundle of three
        # crossings at 0 and lone crossings at -1 and 1.  Unlike the output
        # of interior_crossings, the bundle does not share one Fraction.
        inst = MatroidInstance(
            UniformMatroid(4, 2),
            tuple(LinearFn(a, b) for a, b in ((0, 1), (0, 0), (0, -1), (1, 0))),
            ParamInterval.closed(-2, 2),
        )
        crossings = [
            EqualityPoint(3, 2, Fraction(-1)),
            EqualityPoint(0, 1, Fraction(0)),
            EqualityPoint(0, 2, Fraction(0)),
            EqualityPoint(1, 2, Fraction(0)),
            EqualityPoint(0, 3, Fraction(1)),
        ]
        assert crossings == interior_crossings(inst)
        assert len({id(pt.lam) for pt in crossings}) == len(crossings)
        entries = find_candidates(inst, crossings).entries
        assert [entry.point for entry in entries] == crossings
        assert [entry.lone for entry in entries] == [True, False, False, False, True]


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
            lambdas = find_candidates(inst, interior_crossings(inst)).lambdas()
            bounds = [None] + lambdas + [None]
            for lo, hi in zip(bounds, bounds[1:]):
                inside = [
                    c for c in sol.value.cuts
                    if (lo is None or c > lo) and (hi is None or c < hi)
                ]
                assert len(inside) <= k - 1


def reference_state(inst: MatroidInstance, lam: Fraction):
    """The (weight, id)-minimum basis at ``lam`` and each member's replacement:
    the one element that the optimum without the member adds to the rest of
    the basis, both grown by the backend's builder."""
    key = inst.weights_at(lam)
    basis = subset_min_basis(inst.backend, range(inst.m), key)
    replacements = {}
    for g in sorted(basis):
        (replacements[g],) = subset_min_basis(
            inst.backend, (x for x in range(inst.m) if x != g), key) - basis
    return basis, replacements


def applied(changes, replacements: dict) -> dict:
    """``replacements`` after ``changes``, each applied as it comes."""
    for g, r in changes:
        if r is None:
            del replacements[g]
        else:
            replacements[g] = r
    return replacements


class TestReplacementChanges:
    """The one crossing rule of both routes, against from-scratch references
    left and right of every lone crossing."""

    @staticmethod
    def instances(family: str):
        rng = random.Random(11)
        for _ in range(12):
            if family == "generic":
                yield random_graphic(rng, n_range=(5, 7), m_max=14, coeff=10**6)
            elif family == "tied":
                yield random_graphic(rng, n_range=(4, 6), m_max=12, coeff=3)
            else:
                yield parallel_classes(rng, [rng.randint(2, 4) for _ in range(3)], coeff=4)

    @pytest.mark.parametrize("family", ["generic", "tied", "parallel classes"])
    def test_changes_lead_to_the_reference_right_of_every_lone_crossing(self, family):
        seen = Counter()
        for inst in self.instances(family):
            view = inst.view()
            points = interior_crossings(inst)
            shared = Counter(pt.lam for pt in points)
            seen["tied values"] += sum(1 for count in shared.values() if count > 1)
            ends = [inst.interval.lo, *(extended(pt.lam) for pt in points),
                    inst.interval.hi]
            for i, pt in enumerate(points):
                if shared[pt.lam] > 1:
                    continue
                e, f = pt.lighter_before, pt.lighter_after
                basis, replacements = reference_state(
                    inst, interior_point(ends[i], ends[i + 1]))
                expected = reference_state(inst, interior_point(ends[i + 1], ends[i + 2]))
                after = view.swap(basis, e, f) or basis
                if after is not basis:
                    seen["swaps"] += 1
                    # f was e's replacement; the member loop must not map e
                    # back to itself.
                    assert replacements[e] == f
                changes = list(interdiction._replacement_changes(
                    view, basis, after, replacements, e, f))
                seen["changed"] += bool(changes)
                # Applied after the whole listing, or one by one while the
                # generator still walks the dict it changes.
                assert (after, applied(changes, dict(replacements))) == expected
                in_place = dict(replacements)
                assert applied(interdiction._replacement_changes(
                    view, basis, after, in_place, e, f), in_place) == expected[1]
                # No change named exactly when the state carries over.
                assert bool(changes) == ((basis, replacements) != expected)
        assert seen["swaps"] > 0 and seen["changed"] > seen["swaps"]
        assert (seen["tied values"] > 0) == (family != "generic")


class TestWindowCarryOver:
    """How often ``window_solution`` recomputes a window's basis and scans."""

    @staticmethod
    def window_work(monkeypatch, inst):
        """(windows, greedy runs, replacement scans) of one window solve,
        counted up to ``build_solution``, which runs its own."""
        candidates = find_candidates(inst, interior_crossings(inst))
        counts = Counter()
        for name in ("greedy_min_basis", "replacement_element"):
            original = getattr(MatroidView, name)

            def counted(*args, _original=original, _name=name):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(MatroidView, name, counted)
        before_build = Counter()
        build = interdiction.build_solution

        def snapshot(*args):
            before_build.update(counts)
            return build(*args)

        monkeypatch.setattr(interdiction, "build_solution", snapshot)
        interdiction.window_solution(inst, candidates)
        return (len(candidates.lambdas()) + 1, before_build["greedy_min_basis"],
                before_build["replacement_element"])

    def test_generic_windows_share_their_basis(self, monkeypatch):
        inst = random_graphic(random.Random(0), n_range=(8, 8), m_max=20, coeff=10**6)
        windows, greedy, scans = self.window_work(monkeypatch, inst)
        k = inst.rank()
        assert windows > 100
        assert 0 < greedy < windows / 2
        # One scan per basis member per run, not per window.
        assert scans == k * greedy < k * windows

    def test_a_window_is_recomputed_exactly_when_its_basis_or_a_replacement_changes(
        self, monkeypatch
    ):
        inst = random_graphic(random.Random(0), n_range=(8, 8), m_max=20, coeff=10**6)
        candidates = find_candidates(inst, interior_crossings(inst))
        # Generic: every candidate value holds one crossing, so every value
        # whose state does not change can carry.
        assert all(entry.lone for entry in candidates.entries)
        states = window_states(inst, candidates)
        changed = [i for i, (_, basis, replacements) in enumerate(states)
                   if i == 0 or (basis, replacements) != states[i - 1][1:]]
        # The wider rule is exercised: some value keeps a window running
        # although its crossing's lighter-before element e is a replacement.
        assert any(
            entry.point.lighter_before in states[i][2].values()
            and entry.point.lighter_after not in states[i][1]
            for i, entry in enumerate(candidates.entries)
            if i + 1 not in changed
        )
        starts = []
        point = interdiction.interior_point

        def recorded(lo, hi):
            starts.append(lo)
            return point(lo, hi)

        monkeypatch.setattr(interdiction, "interior_point", recorded)
        interdiction.window_solution(inst, candidates)
        bounds = [inst.interval.lo, *map(extended, candidates.lambdas())]
        assert starts == [bounds[i] for i in changed]
        assert 1 < len(changed) < len(states)

    def test_an_identical_pair_leaves_lone_values_carrying(self, monkeypatch):
        generic = random_graphic(random.Random(0), n_range=(8, 8), m_max=20, coeff=10**6)
        weights = list(generic.weights)
        weights[1] = weights[0]
        inst = MatroidInstance(generic.backend, tuple(weights), generic.interval, "")
        windows, greedy, scans = self.window_work(monkeypatch, inst)
        assert 0 < greedy < windows
        assert scans == inst.rank() * greedy
        candidates = find_candidates(inst, interior_crossings(inst))
        dumped = [
            json.dumps(dump_solution(inst, solve(inst, candidates), {}), sort_keys=True)
            for solve in (interdiction.window_solution, windows_one_by_one)
        ]
        assert dumped[0] == dumped[1]

    @pytest.mark.parametrize("case", ["identical lines", "coincident crossings"])
    def test_tied_candidate_values_recompute_every_window(self, monkeypatch, case):
        if case == "identical lines":
            # Twins have identical lines, so every value ties at least a pair.
            inst = doubled_instance(
                random_graphic(random.Random(3), n_range=(5, 5), m_max=9, coeff=10**6))
        else:
            # Lines through the origin: every pair crosses at 0.
            inst = MatroidInstance(
                UniformMatroid(5, 2),
                tuple(LinearFn(0, s) for s in (1, -1, 2, -2, 3)),
                ParamInterval.closed(-5, 5),
                "",
            )
        windows, greedy, scans = self.window_work(monkeypatch, inst)
        assert windows > 1
        assert greedy == windows
        assert scans == inst.rank() * windows


class TestTangentFamily:
    """Lines tangent to a parabola: every pair crosses, on few values."""

    def test_naive_and_intervals_write_the_same_solution(self):
        inst = tangent_uniform(40, 8)
        crossings = interior_crossings(inst)
        assert len(crossings) == 780
        assert len({pt.lam for pt in crossings}) == 77
        assert len(find_candidates(inst, crossings)) <= 2 * inst.rank() * inst.m
        dumped = [json.dumps(dump_solution(inst, solve(inst), {}), sort_keys=True)
                  for solve in (solve_naive, solve_intervals)]
        assert dumped[0] == dumped[1]


def three_solver_dumps(inst: MatroidInstance) -> list[str]:
    return [json.dumps(dump_solution(inst, solve(inst), {}), sort_keys=True)
            for solve in (solve_naive, solve_intervals, solve_bruteforce)]


class TestPrimeDenominators:
    """Every coefficient over its own prime: a wide common denominator."""

    def test_three_solvers_write_the_same_solution_and_every_check_passes(self):
        inst = prime_graphic(random.Random(0), n=10, m=20)
        assert inst.scaled.scale == prod(primes(40))
        assert inst.scaled.scale.bit_length() == 227
        dumped = three_solver_dumps(inst)
        assert dumped[0] == dumped[1] == dumped[2]
        assert [name for name, ok, _ in _run_checks(inst) if not ok] == []


class TestParallelClasses:
    """A path of multi-edges: the direct sum of rank-one uniform matroids."""

    @pytest.mark.parametrize("sizes", [(3, 4, 5), (4, 4, 4, 4, 4)])
    def test_three_solvers_write_the_same_solution_and_every_check_passes(self, sizes):
        inst = parallel_classes(random.Random(0), sizes)
        assert (inst.m, inst.rank()) == (sum(sizes), len(sizes))
        dumped = three_solver_dumps(inst)
        assert dumped[0] == dumped[1] == dumped[2]
        # Among the checks: the 2km candidate bound and at most k - 1 slope
        # changes between consecutive candidates.
        assert [name for name, ok, _ in _run_checks(inst) if not ok] == []


class TestOneEnvelopeBuild:
    """``solve_intervals`` checks and joins its envelope in one build."""

    @pytest.mark.parametrize("case", ["generic", "windows never carry over"])
    def test_one_build_and_no_line_envelope(self, monkeypatch, case):
        if case == "generic":
            inst = random_graphic(random.Random(0), n_range=(8, 8), m_max=20, coeff=10**6)
        else:
            # Identical twin lines tie every candidate value: a run per window.
            inst = doubled_instance(
                random_graphic(random.Random(3), n_range=(5, 5), m_max=9, coeff=10**6))
        counts = Counter()
        build, line_envelope = PWLFunction.build, pwl.envelope_of_lines

        def counted_build(*args):
            counts["build"] += 1
            return build(*args)

        def counted_line_envelope(*args):
            counts["envelope_of_lines"] += 1
            return line_envelope(*args)

        monkeypatch.setattr(PWLFunction, "build", staticmethod(counted_build))
        for name, module in list(sys.modules.items()):
            if name.startswith("matroid_interdiction") and hasattr(module, "envelope_of_lines"):
                monkeypatch.setattr(module, "envelope_of_lines", counted_line_envelope)
        solution = solve_intervals(inst)
        assert counts == {"build": 1}
        assert len(find_candidates(inst, interior_crossings(inst)).lambdas()) > 1
        assert len(solution.segments) > 1


class TestSwapContinuity:
    def test_swapped_functions_agree_at_breakpoints(self):
        rng = random.Random(103)
        for _ in range(40):
            inst = random_graphic(rng, coeff=5)
            sched = parametric_min_basis(inst)
            ys = removal_value_functions(inst, sched)
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

    @pytest.mark.parametrize("solve", [solve_naive, solve_intervals, solve_bruteforce])
    def test_rank_zero_is_rejected_by_every_solver(self, solve):
        loops = MatroidInstance(
            GraphicMatroid(2, ((0, 0), (1, 1))),
            (LinearFn(1, 0), LinearFn(0, 1)),
            ParamInterval.closed(0, 2),
            "",
        )
        with pytest.raises(ValueError, match="^rank-0 instance"):
            solve(loops)

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


# A triangle and a bridge (a coloop), all four lines through (0, 0): every
# crossing lies at 0, a tie the sweep would warn about.
TIED_BRIDGE = MatroidInstance(
    GraphicMatroid(4, ((0, 1), (1, 2), (2, 0), (2, 3))),
    (LinearFn(0, 1), LinearFn(0, -1), LinearFn(0, 2), LinearFn(0, -2)),
    ParamInterval.closed(-1, 1),
    "",
)
# Three loops on one node (rank 0) whose lines all meet at 0.
TIED_RANK0 = MatroidInstance(
    GraphicMatroid(1, ((0, 0), (0, 0), (0, 0))),
    (LinearFn(0, 1), LinearFn(0, -1), LinearFn(0, 2)),
    ParamInterval.closed(-1, 1),
    "",
)


class TestRefusalOrder:
    """Every solving route refuses before it enumerates a crossing: no
    enumeration, so no tie warning either."""

    @pytest.mark.parametrize("inst, refusal", [
        pytest.param(TIED_BRIDGE, pytest.raises(ColoopError), id="bridge"),
        pytest.param(TIED_RANK0, pytest.raises(ValueError, match="^rank-0 instance"),
                     id="rank0"),
    ])
    @pytest.mark.parametrize("route", [
        parametric_min_basis, solve_naive, solve_intervals, solve_bruteforce,
        lambda inst: interdict_at(inst, Fraction(1, 2)),
    ], ids=["parametric_min_basis", "solve_naive", "solve_intervals",
            "solve_bruteforce", "interdict_at"])
    def test_refuses_before_enumerating(self, monkeypatch, inst, refusal, route):
        points = interior_crossings(inst)
        assert len(points) > len({pt.lam for pt in points})  # tied
        enumerations = Counter()

        def counted(inst):
            enumerations["interior_crossings"] += 1
            return interior_crossings(inst)

        monkeypatch.setattr(parametric, "interior_crossings", counted)
        # the suite ignores the tie warning; record every one here
        with warnings.catch_warnings(record=True) as caught, refusal:
            warnings.simplefilter("always")
            route(inst)
        assert not [w for w in caught
                    if issubclass(w.category, CoincidentEqualityPointsWarning)]
        assert enumerations["interior_crossings"] == 0
