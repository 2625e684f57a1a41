"""Closed-form references for two structured families, at sizes the oracle
cannot reach.

* Uniform U(k, m): deleting a member of the k lightest brings in the
  (k + 1)-th, so the interdicted optimum is F = S_{k+1} - S_1, where S_j is
  the sum of the j lightest weights.
* :func:`randinst.parallel_classes`, a direct sum of U(1, m_i): deleting the
  lightest edge of class i brings in its second lightest, so
  F = sum_i min_i + max_i (second_i - min_i).

Each reference is evaluated at every probe of ``oracle.compare`` (every value
cut and segment end, a point past each infinite end and every gap's
midpoint), so a solution that agrees at all of them has the same value
function.  The families are tied on purpose: the tangent uniform lines cross
on 2m - 3 values only, and the parallel classes draw small integer
coefficients.
"""

import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest

from matroid_interdiction import solve_intervals, solve_naive
from matroid_interdiction.oracle import _probe_points

from randinst import parallel_classes, tangent_uniform


def uniform_value(inst, lam: Fraction) -> Fraction:
    """F(lam) = S_{k+1} - S_1 on U(k, m)."""
    w = sorted(line(lam) for line in inst.weights)
    return sum(w[: inst.backend.k + 1]) - w[0]


def parallel_value(inst, lam: Fraction) -> Fraction:
    """F(lam) = sum_i min_i + max_i (second_i - min_i) on parallel classes."""
    classes = defaultdict(list)
    for edge, line in zip(inst.backend.edges, inst.weights):
        classes[edge].append(line(lam))
    lightest = [sorted(ws)[:2] for ws in classes.values()]
    return sum(first for first, _ in lightest) + max(second - first for first, second in lightest)


def assert_matches(sol, reference, inst):
    mismatches = [
        lam for lam in _probe_points(sol, sol) if sol.value_at(lam) != reference(inst, lam)
    ]
    assert not mismatches, f"{len(mismatches)} probes differ, first at {mismatches[0]}"


@pytest.mark.parametrize(
    "solve, m, k",
    [(solve_naive, 200, 20), (solve_intervals, 80, 12)],
    ids=["naive", "intervals"],
)
def test_uniform_matches_its_closed_form(solve, m, k):
    # Shuffled, so coincident crossings e -> f come with e < f and e > f alike.
    tangent = tangent_uniform(m, k)
    inst = replace(tangent, weights=tuple(random.Random(m).sample(tangent.weights, m)))
    assert_matches(solve(inst), uniform_value, inst)


@pytest.mark.parametrize(
    "solve, classes", [(solve_naive, 60), (solve_intervals, 20)], ids=["naive", "intervals"]
)
def test_parallel_classes_match_their_closed_form(solve, classes):
    rng = random.Random(classes)
    inst = parallel_classes(rng, [rng.randint(2, 6) for _ in range(classes)], coeff=4)
    assert_matches(solve(inst), parallel_value, inst)


def uniform_label(inst, lam: Fraction) -> int:
    """The most vital element of U(k, m): the lightest by (weight, id)."""
    return min(range(inst.m), key=lambda e: (inst.weights[e](lam), e))


def parallel_label(inst, lam: Fraction) -> int:
    """The most vital element of parallel classes: the lightest edge, by
    (weight, id), of a class with the largest second - lightest gap; the
    smallest such edge id among tied classes."""
    classes = defaultdict(list)
    for e, (edge, line) in enumerate(zip(inst.backend.edges, inst.weights)):
        classes[edge].append((line(lam), e))
    lightest = [sorted(members)[:2] for members in classes.values()]
    gap = max(second[0] - first[0] for first, second in lightest)
    return min(first[1] for first, second in lightest if second[0] - first[0] == gap)


def assert_labels(sol, reference, inst):
    mismatches = [
        seg.window for seg in sol.segments
        if seg.most_vital != reference(inst, seg.window.representative())
    ]
    assert not mismatches, f"{len(mismatches)} segments differ, first on {mismatches[0]}"


@pytest.mark.parametrize(
    "solve, m, k",
    [(solve_naive, 200, 20), (solve_intervals, 80, 12)],
    ids=["naive", "intervals"],
)
def test_uniform_most_vital_is_the_lightest_element(solve, m, k):
    tangent = tangent_uniform(m, k)
    inst = replace(tangent, weights=tuple(random.Random(m).sample(tangent.weights, m)))
    assert_labels(solve(inst), uniform_label, inst)


@pytest.mark.parametrize(
    "solve, classes", [(solve_naive, 60), (solve_intervals, 20)], ids=["naive", "intervals"]
)
def test_parallel_classes_most_vital_is_the_lightest_of_the_widest_gap(solve, classes):
    rng = random.Random(classes)
    inst = parallel_classes(rng, [rng.randint(2, 6) for _ in range(classes)], coeff=4)
    assert_labels(solve(inst), parallel_label, inst)
