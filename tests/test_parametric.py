import random
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
    parametric_min_basis,
)

from randinst import (
    prime_graphic,
    random_graphic,
    random_rational,
    random_uniform,
    sample_window,
)


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
        # An instance keeps its scaling, so new ints would cost memory per instance.
        weights = (LinearFn(10**6, -(10**6) + 1), LinearFn(-777, 9999))
        inst = MatroidInstance(UniformMatroid(2, 1), weights, ParamInterval.closed(-10, 10))
        scale, a, b = inst.scaled
        assert scale == 1
        for e, w in enumerate(weights):
            assert a[e] is w.a.numerator and b[e] is w.b.numerator
