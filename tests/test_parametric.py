import random
from dataclasses import replace
from fractions import Fraction

import pytest

from matroid_interdiction import (
    CoincidentEqualityPointsWarning,
    ColoopError,
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    ParamInterval,
    UniformMatroid,
    all_equality_points,
    doubled_instance,
    find_candidates,
    parametric_min_basis,
)
from matroid_interdiction import interdiction, parametric
from matroid_interdiction.matroid import MatroidView
from matroid_interdiction.parametric import interior_crossings
from matroid_interdiction.rationals import extended, interior_point

from randinst import (
    parallel_classes,
    prime_graphic,
    random_graphic,
    random_rational,
    random_uniform,
    sample_window,
    tangent_uniform,
)
from sweep_reference import group_by_lambda


class TestAllEqualityPoints:
    def test_p2_single_crossing(self, p2):
        points = all_equality_points(p2)
        assert [(p.lighter_before, p.lighter_after, p.lam) for p in points] == [
            (0, 1, Fraction(1))
        ]

    def test_c4p_three_crossings_sorted(self, c4p):
        points = all_equality_points(c4p)
        assert [(p.lighter_before, p.lighter_after, p.lam) for p in points] == [
            (3, 0, Fraction(1, 2)),
            (3, 1, Fraction(1)),
            (3, 2, Fraction(3, 2)),
        ]

    def test_parallel_weights_have_no_crossings(self, c4):
        assert all_equality_points(c4) == []

    def test_crossings_outside_the_interval_are_dropped(self):
        inst = MatroidInstance(
            GraphicMatroid(2, ((0, 1), (0, 1))),
            (LinearFn(0, 1), LinearFn(1, 0)),
            ParamInterval.closed(2, 3),  # the crossing at 1 is left of this
            "",
        )
        assert all_equality_points(inst) == []

    def test_coincident_crossings_are_warned_about(self):
        # e0 and e1 cross e2 at the same value
        inst = MatroidInstance(
            GraphicMatroid(3, ((0, 1), (1, 2), (0, 2))),
            (LinearFn(0, 2), LinearFn(0, 2), LinearFn(2, 0)),
            ParamInterval.closed(0, 2),
            "",
        )
        with pytest.warns(CoincidentEqualityPointsWarning):
            points = all_equality_points(inst)
        assert [p.lam for p in points] == [Fraction(1), Fraction(1)]


class TestParametricMinBasis:
    def test_p2_schedule(self, p2):
        sched = parametric_min_basis(p2)
        assert sched.cuts == (Fraction(1),)
        assert sched.bases == (frozenset({0}), frozenset({1}))
        assert sched.swaps == ((0, 1),)
        assert sched.value.cuts == (Fraction(1),)
        assert sched.value.pieces == (LinearFn(0, 1), LinearFn(1, 0))

    def test_c4p_schedule(self, c4p):
        sched = parametric_min_basis(c4p)
        assert sched.cuts == (Fraction(3, 2),)
        assert sched.bases == (frozenset({3, 0, 1}), frozenset({0, 1, 2}))
        assert sched.value.pieces == (LinearFn(3, 2), LinearFn(6, 0))

    def test_constant_weights_single_piece(self, c4):
        sched = parametric_min_basis(c4)
        assert sched.cuts == ()
        assert sched.bases == (frozenset({0, 1, 2}),)
        assert sched.value.pieces == (LinearFn(6, 0),)

    def test_coloops_are_refused(self, bridge):
        with pytest.raises(ColoopError) as err:
            parametric_min_basis(bridge)
        assert err.value.elements == (0,)

    def test_value_is_concave(self):
        rng = random.Random(51)
        for _ in range(60):
            inst = random_graphic(rng)
            slopes = [p.b for p in parametric_min_basis(inst).value.pieces]
            assert all(nxt < prev for prev, nxt in zip(slopes, slopes[1:]))

    def test_value_matches_fresh_greedy_at_sampled_points(self):
        rng = random.Random(53)
        for _ in range(25):
            inst = random_graphic(rng) if rng.random() < 0.7 else random_uniform(rng)
            sched = parametric_min_basis(inst)
            view = inst.view()
            lo, hi = sample_window(inst)
            for _ in range(100):
                lam = random_rational(rng, lo, hi)
                weight_at = inst.weights_at(lam)
                basis = view.greedy_min_basis(weight_at)
                assert sched.value.value_at(lam) == sum(weight_at(e) for e in basis)

    def test_consecutive_bases_differ_by_the_recorded_swap(self):
        rng = random.Random(57)
        for _ in range(50):
            inst = random_graphic(rng, coeff=3)  # small coefficients force ties
            sched = parametric_min_basis(inst)
            crossings = {
                (p.lighter_before, p.lighter_after, p.lam)
                for p in all_equality_points(inst)
            }
            for cut, (out, in_), before, after in zip(
                sched.cuts, sched.swaps, sched.bases, sched.bases[1:]
            ):
                assert after == before - {out} | {in_}
                assert (out, in_, cut) in crossings

    def test_cut_count_bounded_by_crossings_and_2km(self):
        rng = random.Random(59)
        for _ in range(60):
            inst = random_graphic(rng)
            sched = parametric_min_basis(inst)
            points = all_equality_points(inst)
            k = inst.rank()
            assert len(sched.value.cuts) <= len(points)
            assert len(sched.value.cuts) <= 2 * k * inst.m

    def test_tie_heavy_instances_stay_consistent(self):
        rng = random.Random(61)
        for _ in range(60):
            inst = random_graphic(rng, coeff=2, m_max=10)
            sched = parametric_min_basis(inst)
            view = inst.view()
            lo, hi = sample_window(inst)
            for _ in range(25):
                lam = random_rational(rng, lo, hi)
                weight_at = inst.weights_at(lam)
                basis = view.greedy_min_basis(weight_at)
                assert sched.value.value_at(lam) == sum(weight_at(e) for e in basis)

    def test_a_corrupted_bundle_walk_still_raises(self, monkeypatch):
        # A multigraph on four nodes whose crossings pile up on few values:
        # walked in the reverse of the perturbed order, the bundle at 1/3
        # ends at a basis that the greedy check refuses.
        inst = MatroidInstance(
            GraphicMatroid(4, ((2, 3), (3, 1), (1, 0), (0, 2), (1, 0), (3, 0), (0, 3), (2, 1))),
            tuple(LinearFn(a, b) for a, b in (
                (2, -2), (0, -2), (-2, -2), (2, -2), (1, -1), (1, -2), (2, -1), (1, 1))),
            ParamInterval.closed(-10, 10),
        )
        parametric_min_basis(inst)
        ordered = parametric.perturbed_bundle_order
        monkeypatch.setattr(parametric, "perturbed_bundle_order",
                            lambda group, slopes: ordered(group, slopes)[::-1])
        with pytest.raises(AssertionError, match="bundle at 1/3: perturbed-order swaps"):
            parametric_min_basis(inst)

    def test_a_bundle_walk_cut_to_one_crossing_still_raises(self, monkeypatch):
        # U(1, 3) with slopes 1, 0, -1 through one point: the bundle at 0
        # moves the basis from {0} to {2}, which one crossing cannot do.
        inst = MatroidInstance(UniformMatroid(3, 1),
                               (LinearFn(0, 1), LinearFn(0, 0), LinearFn(0, -1)),
                               ParamInterval.closed(-1, 1))
        parametric_min_basis(inst)
        ordered = parametric.perturbed_bundle_order
        monkeypatch.setattr(parametric, "perturbed_bundle_order",
                            lambda group, slopes: ordered(group, slopes)[:1])
        with pytest.raises(AssertionError, match="bundle at 0: perturbed-order swaps"):
            parametric_min_basis(inst)


def tie_heavy_instances() -> list[MatroidInstance]:
    """Instances whose crossings pile up on few values, with their doubles."""
    rng = random.Random(67)
    plain = [tangent_uniform(12, 5), parallel_classes(rng, (3, 2, 4, 3), coeff=2)]
    plain += [random_graphic(rng, coeff=2, m_max=10) for _ in range(12)]
    plain.append(replace(random_graphic(rng, coeff=2, m_max=10),
                         interval=ParamInterval.closed(-1, "inf")))
    return plain + [doubled_instance(inst) for inst in plain]


class TestRightOrderAt:
    def test_right_limit_order_is_the_order_before_the_next_value(self):
        for inst in tie_heavy_instances():
            values = [lam for lam, _ in group_by_lambda(interior_crossings(inst))]
            ends = [extended(lam) for lam in values[1:]] + [inst.interval.hi]
            assert values
            for lam, end in zip(values, ends):
                rep = interior_point(extended(lam), end)
                ids = range(inst.m)
                assert sorted(ids, key=inst.right_order_at(lam)) == sorted(
                    ids, key=inst.order_at(rep))


def mixed_uniform() -> MatroidInstance:
    """U(2, 5) with integer coefficients beside ``p/q`` ones over 2, 3, 4, 6, 9."""
    coefficients = (
        (3, Fraction(-1, 2)),
        (Fraction(5, 6), -2),
        (0, 0),
        (Fraction(-7, 4), Fraction(2, 9)),
        (1, Fraction(1, 3)),
    )
    weights = tuple(LinearFn(a, b) for a, b in coefficients)
    return MatroidInstance(UniformMatroid(5, 2), weights, ParamInterval.closed(-10, 10))


class TestScaledLines:
    @pytest.mark.parametrize(
        "inst",
        [prime_graphic(random.Random(0), n=10, m=20), mixed_uniform()],
        ids=["prime_graphic", "mixed_uniform"],
    )
    def test_each_scaled_line_is_its_weight(self, inst):
        _, a, b = inst.scaled
        for e in range(inst.m):
            assert inst.sums_line((a[e], b[e])) == inst.weights[e]

    def test_integer_lines_share_their_numerators(self):
        # An instance keeps its scaling and the integers of weights_at, so
        # new ints would cost memory per instance.
        weights = (LinearFn(10**6, -(10**6) + 1), LinearFn(-777, 9999))
        inst = MatroidInstance(UniformMatroid(2, 1), weights, ParamInterval.closed(-10, 10))
        scale, a, b = inst.scaled
        assert scale == 1
        x, y, d = inst._exact_lines
        for e, w in enumerate(weights):
            assert a[e] is w.a.numerator and b[e] is w.b.numerator
            assert x[e] is w.a.numerator and y[e] is w.b.numerator and d[e] == 1


def unbounded_graphic() -> MatroidInstance:
    inst = random_graphic(random.Random(5), n_range=(5, 5), m_max=10)
    return replace(inst, interval=ParamInterval.closed("-inf", Fraction(7, 3)))


class TestWeightsAt:
    """A weight lookup builds each weight once, from the line's integers and
    without evaluating a :class:`LinearFn`, however often it is read."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        counts = {"lines": 0, "weights": 0}
        call = LinearFn.__call__

        def counted_call(line, lam):
            counts["lines"] += 1
            return call(line, lam)

        def counted_fraction(*args):
            counts["weights"] += 1
            return Fraction(*args)

        monkeypatch.setattr(LinearFn, "__call__", counted_call)
        monkeypatch.setattr(parametric, "Fraction", counted_fraction)
        return counts

    def test_one_evaluation_per_line_for_any_number_of_reads(self, evaluations):
        inst = prime_graphic(random.Random(0), n=6, m=10)
        unbounded = replace(inst, interval=ParamInterval.closed("-inf", Fraction(7, 3)))
        crossing = interior_crossings(inst)[0].lam
        for case, lam in ((inst, crossing), (unbounded, unbounded.interval.representative())):
            evaluations.update(lines=0, weights=0)
            weight_at = case.weights_at(lam)
            for _ in range(3):
                sorted(range(case.m), key=weight_at)
            lookups = [weight_at(e) for e in range(case.m)]
            assert evaluations == {"lines": 0, "weights": case.m}
            assert lookups == [case.weights[e](lam) for e in range(case.m)]

    @pytest.mark.parametrize(
        "inst",
        [random_graphic(random.Random(5), n_range=(5, 5), m_max=10),
         random_uniform(random.Random(3), m_max=12),
         prime_graphic(random.Random(0), n=6, m=10),
         unbounded_graphic()],
        ids=["graphic", "uniform", "prime_graphic", "unbounded"],
    )
    def test_window_solution_evaluates_each_line_once_per_greedy_run(
        self, monkeypatch, evaluations, inst
    ):
        candidates = find_candidates(inst, interior_crossings(inst))
        counts = {"runs": 0, "lookups": 0, "before_build": None}
        greedy, build = MatroidView.greedy_min_basis, interdiction.build_solution
        weights_at = MatroidInstance.weights_at

        def counted_greedy(view, weight_at):
            counts["runs"] += 1
            return greedy(view, weight_at)

        def counted_weights_at(inst, lam):
            counts["lookups"] += 1
            return weights_at(inst, lam)

        def marked_build(inst, labeled):
            counts["before_build"] = (counts["runs"], counts["lookups"], evaluations["weights"])
            return build(inst, labeled)

        monkeypatch.setattr(MatroidView, "greedy_min_basis", counted_greedy)
        monkeypatch.setattr(MatroidInstance, "weights_at", counted_weights_at)
        monkeypatch.setattr(interdiction, "build_solution", marked_build)
        evaluations.update(lines=0, weights=0)
        interdiction.window_solution(inst, candidates)
        # One lookup of m weights per greedy run; the greedy runs of
        # build_solution read integer keys, not weights.
        runs, lookups, weights = counts["before_build"]
        assert lookups == runs > 0
        assert weights == inst.m * runs
        assert evaluations["lines"] == 0
