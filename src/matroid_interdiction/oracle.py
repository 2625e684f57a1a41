"""Brute-force reference solver and solution comparator.

This module is the trust anchor: it never touches the sweep machinery in
:mod:`.parametric` and :mod:`.interdiction`, and it deliberately considers
every element as an interdiction target in every window instead of
exploiting the fact that only basis members matter.  A disagreement with
the fast solvers therefore localizes bugs in whichever structural shortcut
they rely on.  At each point the ground set is sorted once by (weight, id),
and each deletion's optimum is grown by a fresh builder over that order with
the deleted element skipped: that is greedy on the restriction in the order
it inherits (Edmonds, 1971).

It shares exactly this with the solvers, besides the precondition
:func:`.checked_view`:

* the backends' builders, for the deletion optima; its crossing enumeration
  is its own, every pair's :func:`.equality_point` in ``Fraction``;
* :func:`.envelope_of_pwl` and :meth:`.PWLFunction.build`;
* :meth:`.MatroidInstance.basis_line`, over :attr:`.MatroidInstance.scaled`;
* :func:`.build_solution`, with its greedy kernel and replacement scans.

Of these, :func:`interdict_at` uses only the builders.  :func:`compare` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .matroid import Backend, WeightAt
from .parametric import MatroidInstance, checked_view
from .pwl import LinearFn, PWLFunction, envelope_of_pwl, equality_point, pwl_equal
from .rationals import extended, interior_point
from .solution import Solution, build_solution


def _deletion_optima(
    backend: Backend, weight_at: WeightAt
) -> Iterator[tuple[int, frozenset[int]]]:
    """Each element ``e`` with the (weight, id)-minimum basis without it, grown
    by a fresh builder over the one sorted ground set with ``e`` skipped."""
    order = sorted(range(backend.size), key=lambda e: (weight_at(e), e))
    for e in range(backend.size):
        builder = backend.builder()
        yield e, frozenset(x for x in order if x != e and builder.add(x))


def interdict_at(inst: MatroidInstance, lam: Fraction) -> tuple[Fraction, int]:
    """Best single removal at one parameter value, by exhaustive re-solving.

    Grows a fresh optimum without each element in turn; ties go to the
    smallest element id.  Shares no state with the sweep solvers.
    """
    if not inst.interval.contains(lam):
        raise ValueError(f"{lam} outside {inst.interval}")
    checked_view(inst)
    weight_at = inst.weights_at(lam)
    optima = _deletion_optima(inst.backend, weight_at)
    values = [sum(map(weight_at, basis)) for _, basis in optima]
    best = max(values)
    return best, values.index(best)


def solve_bruteforce(inst: MatroidInstance) -> Solution:
    """Reference solution: the envelope of every element's removal optimum.

    Between two consecutive crossings no weight order changes, so each
    removal optimum is a single line there; the line is recovered from a
    fresh greedy run at the window's interior point.  Each removal optimum
    goes through :meth:`PWLFunction.build`, which checks it continuous, and
    the envelope ranges over all elements, not just basis members.
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
    # One line object per distinct deletion optimum, so equal lines meet by
    # identity in the continuity checks and the envelope scales each once.
    lines: dict[frozenset[int], LinearFn] = {}
    pieces: list[list[LinearFn]] = [[] for _ in range(inst.m)]
    for lo, hi in zip(bounds, bounds[1:]):
        weight_at = inst.weights_at(interior_point(lo, hi))
        for e, basis in _deletion_optima(inst.backend, weight_at):
            if basis not in lines:
                lines[basis] = inst.basis_line(basis)
            pieces[e].append(lines[basis])
    optima = [(e, PWLFunction.build(inst.interval, crossings, p)) for e, p in enumerate(pieces)]
    return build_solution(inst, envelope_of_pwl(optima, inst.interval))


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
