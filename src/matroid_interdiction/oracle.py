"""Brute-force reference solver and solution comparator.

This module is the trust anchor: it never touches the sweep machinery in
:mod:`.interdiction` or the greedy kernels (only the backends' builders, the
envelope primitives and the shared interdiction precondition), and it
deliberately considers every element as an interdiction target, deleted by
leaving it out, in every window instead of exploiting the fact that only
basis members matter.
A disagreement with the fast solvers therefore localizes bugs in whichever
structural shortcut they rely on.

:func:`compare` is exact: it probes every value cut and finite segment end of
both solutions, a point past each infinite end, then every gap's midpoint.
No value or segment line bends between two probes, and each segment owns
two probes per gap, so agreeing at the probes is agreeing everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .matroid import Backend, WeightAt
from .parametric import MatroidInstance, checked_view
from .pwl import envelope_of_lines, equality_point, pwl_equal, PWLFunction
from .rationals import ParamInterval, extended
from .solution import Solution, build_solution


def _reference_min_basis(backend: Backend, elements, weight_at: WeightAt) -> frozenset[int]:
    """The (weight, id)-minimum basis of the restriction to ``elements``, grown
    by the backend's incremental builder rather than the solvers' greedy kernel."""
    builder = backend.builder()
    order = sorted(elements, key=lambda e: (weight_at(e), e))
    return frozenset(e for e in order if builder.add(e))


def interdict_at(inst: MatroidInstance, lam: Fraction) -> tuple[Fraction, int]:
    """Best single removal at one parameter value, by exhaustive re-solving.

    Grows a fresh optimum without each element in turn; ties go to the
    smallest element id.  Shares no state with the sweep solvers.
    """
    if not inst.interval.contains(lam):
        raise ValueError(f"{lam} outside {inst.interval}")
    checked_view(inst)
    weight_at = inst.weights_at(lam)
    best_value: Fraction | None = None
    best_element = -1
    for e in range(inst.m):
        others = (x for x in range(inst.m) if x != e)
        basis = _reference_min_basis(inst.backend, others, weight_at)
        value = sum(weight_at(x) for x in basis)
        if best_value is None or value > best_value:
            best_value = value
            best_element = e
    assert best_value is not None
    return best_value, best_element


def solve_bruteforce(inst: MatroidInstance) -> Solution:
    """Reference solution via per-window envelopes over all removals.

    Between two consecutive crossings no weight order changes, so each
    removal optimum is a single line there; the line is recovered from a
    fresh greedy run at the window's interior point.  The window envelope
    ranges over all elements, not just basis members.
    """
    checked_view(inst)
    crossings = sorted(
        {
            pt.lam
            for i, j in combinations(range(inst.m), 2)
            for pt in (equality_point(i, inst.weights[i], j, inst.weights[j]),)
            if pt is not None and inst.interval.strictly_inside(pt.lam)
        }
    )
    bounds = (
        [inst.interval.lo] + [extended(l) for l in crossings] + [inst.interval.hi]
    )

    cuts: list[Fraction] = []
    pieces = []
    labels: list[int] = []
    for i in range(len(bounds) - 1):
        window = ParamInterval(bounds[i], bounds[i + 1])
        rep = window.representative()
        weight_at = inst.weights_at(rep)
        lines = []
        for e in range(inst.m):
            others = (x for x in range(inst.m) if x != e)
            basis = _reference_min_basis(inst.backend, others, weight_at)
            lines.append((e, inst.basis_line(basis)))
        local = envelope_of_lines(lines, window)
        for j, piece in enumerate(local.pieces):
            if pieces:
                cuts.append(local.cuts[j - 1] if j > 0 else crossings[i - 1])
            pieces.append(piece)
            assert local.labels is not None
            labels.append(local.labels[j])

    stitched = PWLFunction.build(inst.interval, cuts, pieces, labels)
    return build_solution(inst, stitched)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two solutions on one interval."""

    value_equal: bool
    first_divergence: tuple[Fraction, Fraction, Fraction] | None
    argmax_consistent: bool

    @property
    def ok(self) -> bool:
        return self.value_equal and self.argmax_consistent


def _probe_points(a: Solution, b: Solution) -> list[Fraction]:
    """The sorted probes of :func:`compare`; the outer points come before the
    midpoints, so a ray segment gets two probes."""
    domain = a.value.domain
    windows = [seg.window for seg in a.segments + b.segments]
    ends = [end.value for w in windows for end in (w.lo, w.hi) if end.is_finite]
    points = {*a.value.cuts, *b.value.cuts, *ends} or {domain.representative()}
    if not domain.lo.is_finite:
        points.add(min(points) - 1)
    if not domain.hi.is_finite:
        points.add(max(points) + 1)
    ordered = sorted(points)
    return sorted(points.union((x + y) / 2 for x, y in zip(ordered, ordered[1:])))


def compare(a: Solution, b: Solution) -> ComparisonReport:
    """Exact comparison of two solutions over the same interval.

    ``value_equal`` compares normalized value functions; the probe pass
    reports the first exact value mismatch and checks that the reported most
    vital elements are value-consistent (each solution's segment value equals
    its own value function, and both values agree, so differing labels can
    only be value ties).

    The probes are exact: every value cut and finite segment end of both
    solutions, a point past each infinite end, then every gap's midpoint.
    Between probes each (continuous) value function and segment line is one
    line, extended past an unbounded end, and the segment over a gap owns its
    midpoint and right end (:meth:`.Solution.segment_at` picks the left one at
    a shared end).  Lines that agree at two points are equal everywhere.
    """
    if a.value.domain != b.value.domain:
        raise ValueError("solutions cover different intervals")
    value_equal = pwl_equal(a.value, b.value)
    first_divergence = None
    argmax_consistent = True
    for lam in _probe_points(a, b):
        va, vb = a.value_at(lam), b.value_at(lam)
        if va != vb and first_divergence is None:
            first_divergence = (lam, va, vb)
        seg_a, seg_b = a.segment_at(lam), b.segment_at(lam)
        if not (seg_a.value(lam) == va and seg_b.value(lam) == vb and va == vb):
            argmax_consistent = False
    return ComparisonReport(value_equal, first_divergence, argmax_consistent)
