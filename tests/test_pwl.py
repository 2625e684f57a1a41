import random
from fractions import Fraction

import pytest

from matroid_interdiction.pwl import (
    LinearFn,
    PWLError,
    PWLFunction,
    envelope_of_lines,
    envelope_of_pwl,
    equality_point,
    pwl_equal,
    pwl_sum,
)
from matroid_interdiction.rationals import ParamInterval


def F(a, b):  # noqa: N802 - tiny test helper
    return LinearFn(a, b)


WINDOW = ParamInterval.closed(0, 2)


class TestEqualityPoint:
    def test_crossing_with_orientation(self):
        pt = equality_point(0, F(0, 1), 1, F(1, 0))
        assert (pt.lighter_before, pt.lighter_after, pt.lam) == (0, 1, Fraction(1))

    def test_parallel_lines_never_cross(self):
        assert equality_point(0, F(0, 1), 1, F(1, 1)) is None
        assert equality_point(0, F(2, 3), 1, F(2, 3)) is None

    def test_hand_solved_crossing(self):
        # 2*lam = 3 at lam = 3/2, checked against direct evaluation
        pt = equality_point(0, F(0, 2), 1, F(3, 0))
        assert pt.lam == Fraction(3, 2)
        assert (pt.lighter_before, pt.lighter_after) == (0, 1)
        we, wf = F(0, 2), F(3, 0)
        assert we(Fraction(1)) < wf(Fraction(1))
        assert we(Fraction(2)) > wf(Fraction(2))

    def test_symmetric_in_value_orientation_flips(self):
        rng = random.Random(7)
        for _ in range(200):
            we = F(rng.randint(-9, 9), rng.randint(-9, 9))
            wf = F(rng.randint(-9, 9), rng.randint(-9, 9))
            ab = equality_point(0, we, 1, wf)
            ba = equality_point(1, wf, 0, we)
            assert (ab is None) == (ba is None)
            if ab is not None:
                assert ab.lam == ba.lam
                assert ab.lighter_before == ba.lighter_before


class TestPWLConstruction:
    def test_redundant_cut_is_merged(self):
        f = PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 1), F(0, 1)])
        assert f.cuts == ()
        assert f.pieces == (F(0, 1),)
        labeled = PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 1), F(0, 1)], [2, 2])
        assert (labeled.cuts, labeled.pieces, labeled.labels) == ((), (F(0, 1),), (2,))

    def test_discontinuity_rejected(self):
        with pytest.raises(PWLError, match=r"^discontinuity at 1: 1 != 2$"):
            PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 1), F(0, 2)])

    def test_cut_outside_domain_rejected(self):
        with pytest.raises(PWLError):
            PWLFunction.build(WINDOW, [Fraction(2)], [F(0, 1), F(2, 0)])

    def test_unsorted_cuts_rejected(self):
        with pytest.raises(PWLError):
            PWLFunction.build(
                WINDOW,
                [Fraction(3, 2), Fraction(1, 2)],
                [F(0, 1), F(1, 0)][:1] * 3,
            )

    def test_label_only_cut_is_kept(self):
        # identical line both sides, but the winner changes
        f = PWLFunction.build(
            WINDOW, [Fraction(1)], [F(0, 1), F(0, 1)], labels=[3, 5]
        )
        assert f.cuts == (Fraction(1),)
        assert f.labels == (3, 5)
        assert f.drop_labels().cuts == ()

class TestEnvelopeOfLines:
    def test_max_of_constant_and_identity(self):
        env = envelope_of_lines([(0, F(1, 0)), (1, F(0, 1))], WINDOW)
        assert env.cuts == (Fraction(1),)
        assert env.pieces == (F(1, 0), F(0, 1))
        assert env.labels == (0, 1)

    def test_three_lines_with_parallel_pair(self):
        # expected values confirmed by direct evaluation at 0, 1/2, 1, 3/2
        lines = [(3, F(6, 0)), (0, F(5, 2)), (1, F(4, 2))]
        window = ParamInterval.closed(0, Fraction(3, 2))
        for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            expected = max(fn(lam) for _, fn in lines)
            assert max(fn(lam) for _, fn in lines) == expected
        env = envelope_of_lines(lines, window)
        assert env.cuts == (Fraction(1, 2),)
        assert env.pieces == (F(6, 0), F(5, 2))
        assert env.labels == (3, 0)

    def test_single_line_identity(self):
        env = envelope_of_lines([(4, F(2, -1))], WINDOW)
        assert env.cuts == () and env.pieces == (F(2, -1),) and env.labels == (4,)

    def test_identical_lines_take_smallest_label(self):
        env = envelope_of_lines([(5, F(1, 1)), (2, F(1, 1))], WINDOW)
        assert env.labels == (2,)

    def test_rejects_empty_or_degenerate(self):
        with pytest.raises(ValueError):
            envelope_of_lines([], WINDOW)
        with pytest.raises(ValueError):
            envelope_of_lines([(0, F(0, 0))], ParamInterval.closed(1, 1))

    def test_pointwise_maximum_property(self):
        rng = random.Random(11)
        sampled = 0
        while sampled < 1000:
            n = rng.randint(1, 7)
            lines = [
                (i, F(rng.randint(-9, 9), rng.randint(-9, 9))) for i in range(n)
            ]
            env = envelope_of_lines(lines, WINDOW)
            for _ in range(25):
                lam = Fraction(rng.randint(0, 128), 64)
                expected = max(fn(lam) for _, fn in lines)
                assert env.value_at(lam) == expected
                winners = {i for i, fn in lines if fn(lam) == expected}
                label = env.labels[env.piece_index(lam)]
                assert label in winners
                winning_forms = {(fn.a, fn.b) for i, fn in lines if i in winners}
                if len(winning_forms) == 1 and lam not in env.cuts:
                    assert label == min(winners)
                sampled += 1

    def test_adjacent_pieces_never_share_a_slope_and_are_continuous(self):
        rng = random.Random(13)
        for _ in range(100):
            lines = [
                (i, F(rng.randint(-5, 5), rng.randint(-5, 5))) for i in range(6)
            ]
            env = envelope_of_lines(lines, WINDOW)
            for left, right, cut in zip(env.pieces, env.pieces[1:], env.cuts):
                assert left.b != right.b
                assert left(cut) == right(cut)


class TestEnvelopeOfPWL:
    def test_single_function_restricts(self):
        f = PWLFunction.build(
            ParamInterval.closed(-1, 3), [Fraction(1)], [F(1, 0), F(0, 1)]
        )
        env = envelope_of_pwl([(0, f)], ParamInterval.closed(0, 2))
        assert env.pieces == (F(1, 0), F(0, 1))
        assert env.labels == (0, 0)

    def test_two_removal_functions_of_p2(self):
        window = ParamInterval.closed(-1, 3)
        y0 = PWLFunction.from_line(window, F(1, 0))
        y1 = PWLFunction.from_line(window, F(0, 1))
        env = envelope_of_pwl([(0, y0), (1, y1)], window)
        assert env.cuts == (Fraction(1),)
        assert env.pieces == (F(1, 0), F(0, 1))
        assert env.labels == (0, 1)

    def test_four_removal_functions_of_c4p(self):
        window = ParamInterval.closed(0, 2)
        fs = [
            (0, PWLFunction.from_line(window, F(5, 2))),
            (1, PWLFunction.from_line(window, F(4, 2))),
            (2, PWLFunction.from_line(window, F(3, 2))),
            (3, PWLFunction.from_line(window, F(6, 0))),
        ]
        env = envelope_of_pwl(fs, window)
        assert env.cuts == (Fraction(1, 2),)
        assert env.pieces == (F(6, 0), F(5, 2))
        assert env.labels == (3, 0)

    def test_cuts_closer_than_their_denominators_tell_apart_keep_their_order(self):
        # Consecutive Fibonacci ratios about 2**-83 apart over denominators
        # near 2**42: a key of half the exact width would tie them.
        fib = [0, 1]
        while len(fib) < 63:
            fib.append(fib[-1] + fib[-2])
        near, far = Fraction(fib[60], fib[61]), Fraction(fib[59], fib[60])
        assert near < far and far - near == Fraction(1, fib[60] * fib[61])
        ramps = [
            (0, PWLFunction.build(WINDOW, [far], [F(0, 0), F(-far, 1)])),
            (1, PWLFunction.build(WINDOW, [near], [F(0, 0), F(-near, 1)])),
        ]
        env = envelope_of_pwl(ramps, WINDOW)
        assert env.cuts == (near,)
        assert env.pieces == (F(0, 0), F(-near, 1))
        assert env.labels == (0, 1)

    def test_pointwise_maximum_property_on_random_pwl(self):
        rng = random.Random(17)
        window = ParamInterval.closed(0, 4)
        domains = [window, ParamInterval.closed(-2, 6), ParamInterval.closed("-inf", "inf")]
        for _ in range(120):
            # Inputs draw their lines from a small shared pool, so whole
            # pieces of different inputs coincide and ties are common.
            pool = [F(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            labels = rng.sample(range(10), rng.randint(1, 5))
            fs = []
            for label in labels:
                lines = [(0, rng.choice(pool)) for _ in range(rng.randint(1, 3))]
                domain = rng.choice(domains)
                fs.append((label, envelope_of_lines(lines, domain).drop_labels()))
            env = envelope_of_pwl(fs, window)
            input_cuts = {c for _, fn in fs for c in fn.cuts}
            for _ in range(20):
                lam = Fraction(rng.randint(0, 96), 24)
                best = max(fn.value_at(lam) for _, fn in fs)
                assert env.value_at(lam) == best
                if lam in input_cuts:
                    continue
                winners = {label for label, fn in fs if fn.value_at(lam) == best}
                assert env.labels[env.piece_index(lam)] in winners
                local_pieces = {
                    fn.pieces[fn.piece_index(lam)] for label, fn in fs if label in winners
                }
                if len(local_pieces) == 1:
                    assert env.labels[env.piece_index(lam)] == min(winners)
            # One input defined on ``window`` only: a wider window must fail.
            narrow = fs + [(10, PWLFunction.from_line(window, F(0, 0)))]
            for outside in (ParamInterval.closed(-1, 2), ParamInterval.closed(2, "inf")):
                with pytest.raises(ValueError):
                    envelope_of_pwl(narrow, outside)


class TestPWLEqual:
    def test_equal_constants(self):
        f = PWLFunction.from_line(WINDOW, F(1, 0))
        g = PWLFunction.from_line(WINDOW, F(1, 0))
        assert pwl_equal(f, g)

    def test_redundant_cut_normalized_away(self):
        f = PWLFunction.build(WINDOW, [], [F(0, 1)])
        g = PWLFunction.build(WINDOW, [Fraction(1, 2)], [F(0, 1), F(0, 1)])
        assert pwl_equal(f, g)

    def test_max_vs_min_differ(self):
        top = PWLFunction.build(WINDOW, [Fraction(1)], [F(1, 0), F(0, 1)])
        bottom = PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 1), F(1, 0)])
        assert not pwl_equal(top, bottom)

    def test_labels_are_ignored(self):
        f = PWLFunction.build(WINDOW, [], [F(0, 1)], labels=[3])
        g = PWLFunction.build(WINDOW, [], [F(0, 1)], labels=[5])
        assert pwl_equal(f, g)

    def test_domain_mismatch_rejected(self):
        f = PWLFunction.from_line(WINDOW, F(0, 1))
        g = PWLFunction.from_line(ParamInterval.closed(0, 3), F(0, 1))
        with pytest.raises(ValueError):
            pwl_equal(f, g)


class TestPWLSum:
    def test_cuts_are_the_union_of_both_inputs_cuts(self):
        # max(0, lam - 1/2) + min(0, 3/2 - lam) on [0, 2]
        left = PWLFunction.build(WINDOW, [Fraction(1, 2)], [F(0, 0), F(Fraction(-1, 2), 1)])
        right = PWLFunction.build(WINDOW, [Fraction(3, 2)], [F(0, 0), F(Fraction(3, 2), -1)])
        total = pwl_sum(left, right)
        assert total.cuts == (Fraction(1, 2), Fraction(3, 2))
        assert total.pieces == (F(0, 0), F(Fraction(-1, 2), 1), F(1, 0))
        assert total.labels is None
        for lam in (Fraction(k, 4) for k in range(9)):
            assert total.value_at(lam) == left.value_at(lam) + right.value_at(lam)

    def test_left_labels_are_kept_and_right_labels_ignored(self):
        left = PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 1), F(0, 1)], labels=[3, 5])
        right = PWLFunction.build(
            WINDOW, [Fraction(1, 2)], [F(0, 0), F(Fraction(1, 2), -1)], labels=[7, 8])
        total = pwl_sum(left, right)
        assert total.cuts == (Fraction(1, 2), Fraction(1))
        assert total.labels == (3, 3, 5)
        assert total.pieces == (F(0, 1), F(Fraction(1, 2), 0), F(Fraction(1, 2), 0))
        unlabeled = pwl_sum(right.drop_labels(), left)
        assert unlabeled.labels is None and unlabeled.cuts == (Fraction(1, 2),)

    def test_coinciding_cuts_become_one_cut(self):
        left = PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 1), F(1, 0)])
        right = PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 2), F(1, 1)])
        total = pwl_sum(left, right)
        assert total.cuts == (Fraction(1),)
        assert total.pieces == (F(0, 3), F(2, 1))

    def test_a_cut_whose_slope_changes_cancel_is_merged_away(self):
        # max(lam, 1) + min(lam, 1) = lam + 1 on [0, 2]
        left = PWLFunction.build(WINDOW, [Fraction(1)], [F(1, 0), F(0, 1)])
        right = PWLFunction.build(WINDOW, [Fraction(1)], [F(0, 1), F(1, 0)])
        total = pwl_sum(left, right)
        assert total.cuts == () and total.pieces == (F(1, 1),)
        # a label change across the cut keeps it
        labeled = PWLFunction.build(WINDOW, [Fraction(1)], [F(1, 0), F(0, 1)], labels=[2, 4])
        assert pwl_sum(labeled, right).cuts == (Fraction(1),)

    def test_unbounded_domains_sum_piecewise(self):
        line = ParamInterval.closed("-inf", "inf")
        left = PWLFunction.build(line, [Fraction(0)], [F(0, 0), F(0, 1)])
        right = PWLFunction.build(line, [Fraction(-1), Fraction(2)], [F(0, -1), F(1, 0), F(3, -1)])
        total = pwl_sum(left, right)
        assert total.cuts == (Fraction(-1), Fraction(0), Fraction(2))
        assert total.pieces == (F(0, -1), F(1, 0), F(1, 1), F(3, 0))

    def test_mismatched_domains_raise(self):
        f = PWLFunction.from_line(WINDOW, F(0, 1))
        g = PWLFunction.from_line(ParamInterval.closed(0, 3), F(0, 1))
        with pytest.raises(ValueError):
            pwl_sum(f, g)
