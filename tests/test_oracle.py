import random
from fractions import Fraction
from itertools import combinations

import pytest

from matroid_interdiction import (
    ColoopError,
    LinearFn,
    ParamInterval,
    Segment,
    Solution,
    compare,
    doubled_instance,
    interdict_at,
    parametric_min_basis,
    pwl_equal,
    solve_bruteforce,
    solve_naive,
)
from matroid_interdiction.oracle import _deletion_optima
from matroid_interdiction.pwl import PWLFunction
from matroid_interdiction.rationals import extended

from randinst import random_graphic, random_rational, random_uniform, sample_window
from subsets import subset_min_basis


class TestInterdictAt:
    def test_p2_at_zero(self, p2):
        # removing e0 leaves weight 1; removing e1 leaves weight 0
        assert interdict_at(p2, Fraction(0)) == (Fraction(1), 0)

    def test_c4p_at_zero(self, c4p):
        # removing e3 forces the tree of weight 6; everything else gives less
        assert interdict_at(c4p, Fraction(0)) == (Fraction(6), 3)

    def test_c4p_at_one(self, c4p):
        assert interdict_at(c4p, Fraction(1)) == (Fraction(7), 0)

    def test_out_of_interval_rejected(self, c4p):
        with pytest.raises(ValueError):
            interdict_at(c4p, Fraction(5))

    def test_rejects_coloops(self, bridge):
        with pytest.raises(ColoopError):
            interdict_at(bridge, Fraction(1, 2))


def tied_instances(kind: str, count=12) -> list:
    """Seeded instances with coefficients in [-2, 2], so that many weights tie
    at each crossing value, on bounded and unbounded intervals."""
    rng = random.Random(f"tied-{kind}")
    insts = []
    for i in range(count):
        interval = [(-3, 3), ("-inf", "inf"), (0, "inf")][i % 3]
        if kind == "uniform" or (kind == "doubled" and i % 2):
            inst = random_uniform(rng, m_max=9, coeff=2, interval=interval)
        else:
            inst = random_graphic(rng, n_range=(3, 6), m_max=10, coeff=2, interval=interval)
        insts.append(doubled_instance(inst) if kind == "doubled" else inst)
    return insts


def crossings_and_window_points(inst) -> list[Fraction]:
    """Every crossing value inside the interval, then one interior point of
    each window between consecutive crossing values."""
    crossings = {
        Fraction(v.a - u.a, u.b - v.b) for u, v in combinations(inst.weights, 2) if u.b != v.b
    }
    values = sorted(filter(inst.interval.strictly_inside, crossings))
    bounds = [inst.interval.lo, *map(extended, values), inst.interval.hi]
    windows = [ParamInterval(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return values + [window.representative() for window in windows]


class TestDeletionOptima:
    @pytest.mark.parametrize("kind", ["graphic", "uniform", "doubled"])
    def test_one_sort_matches_the_subset_reference_on_ties(self, kind):
        for inst in tied_instances(kind):
            for lam in crossings_and_window_points(inst):
                weight_at = inst.weights_at(lam)
                optima = list(_deletion_optima(inst.backend, weight_at))
                assert [e for e, _ in optima] == list(range(inst.m))
                values = []
                for e, basis in optima:
                    others = [x for x in range(inst.m) if x != e]
                    assert basis == subset_min_basis(inst.backend, others, weight_at)
                    values.append(sum(weight_at(x) for x in basis))
                best = max(values)
                assert interdict_at(inst, lam) == (best, values.index(best))


class TestSolveBruteforce:
    def test_p2_matches_naive(self, p2):
        brute = solve_bruteforce(p2)
        naive = solve_naive(p2)
        assert pwl_equal(brute.value, naive.value)
        assert [(s.most_vital, s.value) for s in brute.segments] == [
            (s.most_vital, s.value) for s in naive.segments
        ]

    def test_c4p_value(self, c4p):
        brute = solve_bruteforce(c4p)
        assert brute.value.cuts == (Fraction(1, 2),)
        assert brute.value.pieces == (LinearFn(6, 0), LinearFn(5, 2))

    def test_doubled_c4p_collapses_to_plain_optimum(self, c4p):
        brute = solve_bruteforce(doubled_instance(c4p))
        w = parametric_min_basis(c4p).value
        assert pwl_equal(brute.value, w)

    def test_self_consistent_with_pointwise_probe(self):
        rng = random.Random(113)
        for _ in range(20):
            inst = random_graphic(rng, m_max=10)
            brute = solve_bruteforce(inst)
            lo, hi = sample_window(inst)
            for _ in range(25):
                lam = random_rational(rng, lo, hi)
                value, _ = interdict_at(inst, lam)
                assert brute.value.value_at(lam) == value


def _artificial_solution(window, segments_spec):
    segments = []
    for lo, hi, line, vital in segments_spec:
        segments.append(
            Segment(
                ParamInterval(extended(lo), extended(hi)),
                line,
                vital,
                frozenset({vital}),
                1 - vital if vital in (0, 1) else 0,
            )
        )
    cuts = [extended(s[1]).value for s in segments_spec[:-1]]
    pieces = [s[2] for s in segments_spec]
    return Solution(
        tuple(segments), PWLFunction.build(window, cuts, pieces)
    )


class TestCompare:
    def test_reflexive(self, p2):
        sol = solve_naive(p2)
        report = compare(sol, sol)
        assert report.value_equal and report.argmax_consistent
        assert report.first_divergence is None

    def test_naive_vs_bruteforce_equal(self, p2):
        report = compare(solve_naive(p2), solve_bruteforce(p2))
        assert report.value_equal

    def test_max_vs_min_first_divergence_at_left_end(self):
        window = ParamInterval.closed(0, 2)
        top = _artificial_solution(
            window, [(0, 1, LinearFn(1, 0), 0), (1, 2, LinearFn(0, 1), 1)]
        )
        bottom = _artificial_solution(
            window, [(0, 1, LinearFn(0, 1), 1), (1, 2, LinearFn(1, 0), 0)]
        )
        report = compare(top, bottom)
        assert not report.value_equal
        assert report.first_divergence is not None
        lam, lhs, rhs = report.first_divergence
        assert (lam, lhs, rhs) == (Fraction(0), Fraction(1), Fraction(0))

    def test_domain_mismatch_rejected(self, p2, c4p):
        with pytest.raises(ValueError):
            compare(solve_naive(p2), solve_naive(c4p))

    def test_samples_include_cuts_of_both(self):
        rng = random.Random(127)
        for _ in range(10):
            inst = random_graphic(rng, m_max=10)
            a = solve_naive(inst)
            b = solve_bruteforce(inst)
            report = compare(a, b)
            assert report.value_equal and report.ok

    def test_segment_at_a_shared_end_is_the_left_segment(self):
        # compare's exactness rests on this attribution
        sol = _artificial_solution(
            ParamInterval.closed(0, 2),
            [(0, 1, LinearFn(1, 0), 0), (1, 2, LinearFn(2, -1), 1)],
        )
        assert sol.segment_at(Fraction(1)) is sol.segments[0]
        assert sol.most_vital_at(Fraction(1)) == 0

    @staticmethod
    def _wrong_last_segment(window, end, wrong):
        """Value 1 everywhere; the segment right of ``end`` carries ``wrong``."""
        segments = (
            Segment(ParamInterval(window.lo, extended(end)), LinearFn(1, 0), 0,
                    frozenset({0}), 1),
            Segment(ParamInterval(extended(end), window.hi), wrong, 1,
                    frozenset({1}), 0),
        )
        return Solution(segments, PWLFunction.build(window, [], [LinearFn(1, 0)]))

    def test_wrong_segment_line_meeting_the_value_at_its_right_end(self):
        # -197 + 99*lam equals 1 only at lam = 2, the interval's end
        sol = self._wrong_last_segment(
            ParamInterval.closed(0, 2), Fraction(199, 100), LinearFn(-197, 99)
        )
        report = compare(sol, sol)
        assert report.value_equal
        assert report.argmax_consistent is False

    def test_wrong_ray_segment_line_meeting_the_value_one_past_the_last_end(self):
        # lam - 1 equals 1 only at lam = 2, the point beyond the last segment
        # end 1; midpoints taken before that point would leave the ray one probe
        sol = self._wrong_last_segment(
            ParamInterval.closed(0, "inf"), Fraction(1), LinearFn(-1, 1)
        )
        report = compare(sol, sol)
        assert report.value_equal
        assert report.argmax_consistent is False


class TestTripleAgreementSpot:
    def test_oracle_never_disagrees_on_uniform(self):
        rng = random.Random(131)
        for _ in range(20):
            inst = random_uniform(rng)
            naive = solve_naive(inst)
            brute = solve_bruteforce(inst)
            assert pwl_equal(naive.value, brute.value)
            assert compare(naive, brute).ok
