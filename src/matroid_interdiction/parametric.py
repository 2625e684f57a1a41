"""The plain parametric matroid problem: crossings and the basis schedule.

For every parameter value the instance asks for the minimum-weight basis; the
resulting optimal value function is piecewise linear and concave, and its
slope can only change where two element weights become equal.  The sweep here
walks those crossing points in order, applying one tested swap per point.

Coincident crossings (several pairs meeting at the same parameter value, a
"bundle") take the same path as lone ones: the bundle is walked point by
point in the order of an instance perturbed so that ties resolve by element
id, which makes every step an isolated crossing of the perturbed instance.
The removal sweep in :mod:`.interdiction` walks the crossings in that same
order and reuses this schedule instead of tracking the main basis itself.
After each bundle the basis is checked once against a fresh greedy run, so a
degenerate bundle can never silently corrupt the schedule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cmp_to_key
from fractions import Fraction
from itertools import combinations, groupby
from typing import Callable, Sequence

from .matroid import Backend, ColoopError, MatroidView
from .pwl import EqualityPoint, LinearFn, PWLFunction, equality_point, sum_lines
from .rationals import ParamInterval, interior_point, extended


class CoincidentEqualityPointsWarning(UserWarning):
    """Several element pairs cross at one parameter value.

    The sweep stays deterministic (ties resolve by element id), but the
    instance violates the usual genericity assumption, so it is reported.
    """


@dataclass(frozen=True)
class MatroidInstance:
    """A matroid whose element weights vary linearly with one parameter."""

    backend: Backend
    weights: tuple[LinearFn, ...]
    interval: ParamInterval
    name: str = ""

    def __post_init__(self):
        if len(self.weights) != self.backend.size:
            raise ValueError(
                f"{len(self.weights)} weights for {self.backend.size} elements"
            )
        if not self.interval.is_proper:
            raise ValueError(f"parameter interval {self.interval} is degenerate")

    @property
    def m(self) -> int:
        return self.backend.size

    def view(self) -> MatroidView:
        return MatroidView.full(self.backend)

    def rank(self) -> int:
        return self.view().rank()

    def weight_fn(self, e: int) -> LinearFn:
        return self.weights[e]

    def weights_at(self, lam: Fraction) -> Callable[[int], Fraction]:
        weights = self.weights
        return lambda e: weights[e](lam)

    def basis_line(self, basis: frozenset[int]) -> LinearFn:
        return sum_lines(self.weights[e] for e in basis)


def interior_crossings(inst: MatroidInstance) -> list[EqualityPoint]:
    """All directed crossings strictly inside the instance interval.

    Sorted by (value, lighter-before id, lighter-after id).  Crossings shared
    by several pairs are kept; unlike :func:`all_equality_points` this emits
    no warning about them.
    """
    points = []
    for i, j in combinations(range(inst.m), 2):
        pt = equality_point(i, inst.weights[i], j, inst.weights[j])
        if pt is not None and inst.interval.strictly_inside(pt.lam):
            points.append(pt)
    points.sort(key=lambda p: (p.lam, p.lighter_before, p.lighter_after))
    return points


def all_equality_points(inst: MatroidInstance) -> list[EqualityPoint]:
    """:func:`interior_crossings`, reporting coincident ones as a warning.

    Crossings shared by several pairs mark a degenerate (tied) instance, so
    they are additionally reported through the warning channel.
    """
    points = interior_crossings(inst)
    coincident = sum(1 for _, group in group_by_lambda(points) if len(group) > 1)
    if coincident:
        warnings.warn(
            f"{coincident} parameter value(s) carry more than one crossing; "
            "ties resolve by element id",
            CoincidentEqualityPointsWarning,
            stacklevel=2,
        )
    return points


def group_by_lambda(
    points: Sequence[EqualityPoint],
) -> list[tuple[Fraction, list[EqualityPoint]]]:
    return [
        (lam, list(group)) for lam, group in groupby(points, key=lambda p: p.lam)
    ]


def start_representative(
    interval: ParamInterval, points: Sequence[EqualityPoint]
) -> Fraction:
    """A parameter value inside ``interval`` left of every sorted crossing."""
    if points:
        return interior_point(interval.lo, extended(points[0].lam))
    return interval.representative()


@dataclass(frozen=True)
class SwapRecord:
    """One applied basis exchange: ``out`` leaves, ``in_`` enters, at ``lam``."""

    lam: Fraction
    out: int
    in_: int
    basis: frozenset[int]


def perturbed_bundle_order(
    group: Sequence[EqualityPoint], weights: Sequence[LinearFn]
) -> list[EqualityPoint]:
    """Order coincident crossings as the id tie-break perturbation would.

    Shift every weight line down by a symbolic ``eps**(id+1)``; ties then
    resolve toward the smaller id, all crossings of a bundle separate, and
    the crossing of ``e -> f`` moves by ``(eps**(e+1) - eps**(f+1)) /
    (b_e - b_f)``.  Comparing those offsets exactly as ``eps -> 0+`` (smallest
    exponent with a nonzero coefficient decides) yields the order in which
    the perturbed sweep meets the crossings.
    """

    def offset_terms(pt: EqualityPoint) -> dict[int, Fraction]:
        gap = weights[pt.lighter_before].b - weights[pt.lighter_after].b
        # gap > 0 by the crossing orientation
        return {pt.lighter_before: Fraction(1, 1) / gap,
                pt.lighter_after: Fraction(-1, 1) / gap}

    def cmp(p1: EqualityPoint, p2: EqualityPoint) -> int:
        terms = offset_terms(p1)
        for exponent, coeff in offset_terms(p2).items():
            terms[exponent] = terms.get(exponent, Fraction(0)) - coeff
        for exponent in sorted(terms):
            if terms[exponent] < 0:
                return -1
            if terms[exponent] > 0:
                return 1
        return 0

    return sorted(group, key=cmp_to_key(cmp))


def advance_min_basis(
    view: MatroidView,
    basis: frozenset[int],
    group: Sequence[EqualityPoint],
    right_rep: Fraction,
    weights_at: Callable[[Fraction], Callable[[int], Fraction]],
    weights: Sequence[LinearFn] | None = None,
) -> tuple[frozenset[int], list[SwapRecord]]:
    """Advance the minimum basis across one crossing value.

    A lone crossing needs a single independence test.  A coincident bundle is
    processed point by point in the id-perturbation order, which makes every
    step an ordinary isolated crossing of the perturbed instance; the result
    is then verified against a fresh greedy run just right of the bundle as a
    hard internal invariant.
    """
    records: list[SwapRecord] = []
    if len(group) == 1:
        ordered = list(group)
    else:
        assert weights is not None, "bundles need the weight lines for ordering"
        ordered = perturbed_bundle_order(group, weights)
    for pt in ordered:
        e, f = pt.lighter_before, pt.lighter_after
        if e in basis and f not in basis:
            candidate = [x for x in basis if x != e] + [f]
            if view.is_independent(candidate):
                basis = frozenset(candidate)
                records.append(SwapRecord(pt.lam, e, f, basis))
    if len(group) > 1:
        fresh = view.greedy_min_basis(weights_at(right_rep))
        if fresh != basis:
            raise AssertionError(
                f"bundle at {group[0].lam}: perturbed-order swaps ended at "
                f"{sorted(basis)} but the optimum is {sorted(fresh)}"
            )
    return basis, records


@dataclass(frozen=True)
class BasisSchedule:
    """Optimal bases over the whole interval plus the value function.

    ``cuts[i]`` carries ``swaps[i]`` and switches from ``bases[i]`` to
    ``bases[i+1]``.  Coincident crossings can repeat a cut value; the value
    function skips the resulting zero-width pieces.  ``points`` are the
    sorted crossings the sweep walked (see :func:`interior_crossings`).
    """

    cuts: tuple[Fraction, ...]
    bases: tuple[frozenset[int], ...]
    swaps: tuple[tuple[int, int], ...]
    value: PWLFunction
    points: tuple[EqualityPoint, ...]


def parametric_min_basis(inst: MatroidInstance) -> BasisSchedule:
    """Sweep the crossings and report every optimal basis with its window.

    Refuses instances with coloops so that all solvers fail uniformly on
    them.  The assembled value function is asserted concave (strictly
    decreasing slopes); a violation would mean a sweep bug.
    """
    view = inst.view()
    coloops = view.coloop_scan()
    if coloops:
        raise ColoopError(coloops)

    points = all_equality_points(inst)
    groups = group_by_lambda(points)
    interval = inst.interval

    start_rep = start_representative(interval, points)
    basis = view.greedy_min_basis(inst.weights_at(start_rep))

    cuts: list[Fraction] = []
    bases: list[frozenset[int]] = [basis]
    swaps: list[tuple[int, int]] = []
    for idx, (lam, group) in enumerate(groups):
        right_end = extended(groups[idx + 1][0]) if idx + 1 < len(groups) else interval.hi
        right_rep = interior_point(extended(lam), right_end)
        basis, records = advance_min_basis(
            view, basis, group, right_rep, inst.weights_at, inst.weights
        )
        for rec in records:
            cuts.append(rec.lam)
            bases.append(rec.basis)
            swaps.append((rec.out, rec.in_))

    value = _schedule_value(inst, cuts, bases)
    slopes = [p.b for p in value.pieces]
    if any(nxt >= prev for prev, nxt in zip(slopes, slopes[1:])):
        raise AssertionError("optimal value function is not concave")
    return BasisSchedule(tuple(cuts), tuple(bases), tuple(swaps), value, tuple(points))


def _schedule_value(
    inst: MatroidInstance, cuts: Sequence[Fraction], bases: Sequence[frozenset[int]]
) -> PWLFunction:
    bounds = [inst.interval.lo] + [extended(c) for c in cuts] + [inst.interval.hi]
    keep_cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    for i, basis in enumerate(bases):
        if not bounds[i] < bounds[i + 1]:
            continue  # zero-width window inside a coincident bundle
        if pieces:
            keep_cuts.append(cuts[i - 1])
        pieces.append(inst.basis_line(basis))
    return PWLFunction.build(inst.interval, keep_cuts, pieces)
