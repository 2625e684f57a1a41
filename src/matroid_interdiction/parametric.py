"""The plain parametric matroid problem: crossings and the basis schedule.

For every parameter value the instance asks for the minimum-weight basis; the
resulting optimal value function is piecewise linear and concave, and its
slope can only change where two element weights become equal.  The sweep here
walks those crossing points in order, applying one tested swap per point.

Coincident crossings (several pairs meeting at the same parameter value, a
"bundle") take the same path as lone ones: the bundle is walked point by
point in the order of an instance perturbed so that ties resolve by element
id, which makes every step an isolated crossing of the perturbed instance.
This sweep is the only code that puts bundles in that order; it records the
crossings as walked in :attr:`BasisSchedule.walk`, which the removal sweep in
:mod:`.interdiction` replays instead of tracking the main basis itself.
A bundle in which no crossing joins a member of the basis to a non-member
is certified and not advanced: by Edmonds' cycle rule its basis stays
minimum and no step of its walk would swap.  After every other bundle the
basis is checked once against a fresh greedy run in the order just right of
the bundle's value, so a degenerate bundle can never silently corrupt the
schedule.  The sweep groups the crossings by value once, by the identity of
their shared ``Fraction`` (see :func:`interior_crossings`), and walks a lone
crossing inline: it can swap only a basis member for a non-member, so any
other costs a membership test and no independence test.

Orders, crossings and basis lines are computed on the instance's weight lines
scaled to integers (:meth:`MatroidInstance.order_at`,
:meth:`MatroidInstance.right_order_at`, :meth:`MatroidInstance.basis_sums`),
and the crossings are filtered and sorted by exact integer keys
(:func:`interior_crossings`); ``Fraction`` appears only where a value leaves
the sweep: crossing positions, the start point and value lines.  The value
function is built once, from the lines the sweep records as it walks: the
start basis's line and, after each crossing value that changed the basis,
the new basis's line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

from .matroid import Backend, ColoopError, MatroidView
from .pwl import EqualityPoint, LinearFn, PWLFunction, common_scale, scaled_line
from .rationals import ParamInterval, interior_point, extended


class CoincidentEqualityPointsWarning(UserWarning):
    """Several element pairs cross at one parameter value.

    The sweep stays deterministic (ties resolve by element id), but the
    instance violates the usual genericity assumption, so it is reported.
    """


class ScaledLines(NamedTuple):
    """The weight lines as integers: ``w_e(lam) = (a[e] + lam*b[e]) / scale``."""

    scale: int
    a: tuple[int, ...]
    b: tuple[int, ...]


BasisSums = tuple[int, int]  # see MatroidInstance.basis_sums


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
        return MatroidView(self.backend)

    def rank(self) -> int:
        return self.view().rank()

    @cached_property
    def _exact_lines(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The lines ``a + lam*b`` as integers ``x[e]``, ``y[e]``, ``d[e]`` with
        ``a = x/d`` and ``b = y/d``, from each line's own numerators and
        denominators.  The instance keeps them, so a numerator whose partner
        denominator is 1 is kept itself rather than copied by a product.
        """
        x, y, d = [], [], []
        for w in self.weights:
            (an, ad), (bn, bd) = w.a.as_integer_ratio(), w.b.as_integer_ratio()
            x.append(an if bd == 1 else an * bd)
            y.append(bn if ad == 1 else bn * ad)
            d.append(ad * bd)
        return tuple(x), tuple(y), tuple(d)

    def weights_at(self, lam: Fraction) -> Callable[[int], Fraction]:
        """The exact weights ``w_e(lam)``, looked up by id as :meth:`order_at`'s keys are.

        Each of the m weights is built once, here, as the one ``Fraction``
        ``(x*q + y*p) / (d*q)`` of the line's integers and ``lam = p/q``, so
        sorts and scans that read the lookup many times do no further
        ``Fraction`` arithmetic.  The integers are each line's own, not
        :attr:`scaled`, so the oracle shares no integer kernel with the
        solvers' keys.
        """
        p, q = lam.numerator, lam.denominator
        x, y, d = self._exact_lines
        return [Fraction(x_e * q + y_e * p, d_e * q)
                for x_e, y_e, d_e in zip(x, y, d)].__getitem__

    @cached_property
    def scaled(self) -> ScaledLines:
        """The weight lines over their least common denominator ``scale``.

        Computed on first use, not at construction: O(m) integers per
        instance.
        """
        scale = common_scale(self.weights)
        pairs = [scaled_line(w, scale) for w in self.weights]
        return ScaledLines(scale, tuple(a for a, _ in pairs), tuple(b for _, b in pairs))

    def order_at(self, lam: Fraction) -> Callable[[int], int]:
        """Integer sort keys that order the elements exactly as ``weights_at(lam)``.

        With ``lam = p/q`` and ``q > 0``, ``a[e]*q + b[e]*p`` is ``w_e(lam)``
        times the positive constant ``q*scale``, so comparisons and ties agree.
        """
        return self.order_at_ratio(lam.numerator, lam.denominator)

    def order_at_ratio(self, p: int, q: int) -> Callable[[int], int]:
        """:meth:`order_at` of ``lam = p/q``, ``q > 0``, in lowest terms or not:
        the keys only scale by a positive constant, which keeps the order."""
        _, a, b = self.scaled
        return [a_e * q + b_e * p for a_e, b_e in zip(a, b)].__getitem__

    def right_order_at(self, lam: Fraction) -> Callable[[int], int]:
        """Integer sort keys in the order ``(w_e(lam), slope, id)``: the order
        just right of ``lam``, and at every point before the next crossing.

        The key is :meth:`order_at`'s key times ``W = max(b) - min(b) + 1``
        plus ``b[e] - min(b)``, which lies in ``[0, W)``, over the scaled
        slopes ``b``: a weight tie goes to the smaller slope, and the sort's
        stability breaks what remains by id.
        """
        p, q = lam.numerator, lam.denominator
        _, a, b = self.scaled
        low = min(b, default=0)
        spread = max(b, default=0) - low + 1
        return [(a_e * q + b_e * p) * spread + b_e - low for a_e, b_e in zip(a, b)].__getitem__

    def basis_sums(self, basis: Iterable[int]) -> BasisSums:
        """A basis's line as integer sums ``(A, B)`` over :attr:`scaled`: the
        line is ``(A + lam*B) / scale``, so exchanges move it exactly."""
        _, a, b = self.scaled
        return sum(a[e] for e in basis), sum(b[e] for e in basis)

    def sums_line(self, sums: BasisSums) -> LinearFn:
        """The line ``(A + lam*B) / scale`` of integer sums ``(A, B)``."""
        scale = self.scaled.scale
        return LinearFn(Fraction(sums[0], scale), Fraction(sums[1], scale))

    def basis_line(self, basis: Iterable[int]) -> LinearFn:
        return self.sums_line(self.basis_sums(basis))


RANK_ZERO = "rank-0 instance: there is nothing to interdict"


def checked_view(inst: MatroidInstance) -> MatroidView:
    """The full view, after the interdiction precondition: no coloops, rank > 0.

    The one place that refuses an instance, with :class:`.ColoopError` or the
    rank-0 ``ValueError``; every solving route calls it before it enumerates
    a crossing.
    """
    view = inst.view()
    coloops = view.coloop_scan()
    if coloops:
        raise ColoopError(coloops)
    if view.rank() == 0:
        raise ValueError(RANK_ZERO)
    return view


def interior_crossings(inst: MatroidInstance) -> list[EqualityPoint]:
    """All directed crossings strictly inside the instance interval.

    Sorted by (value, lighter-before id, lighter-after id).  Crossings shared
    by several pairs are kept; unlike :func:`all_equality_points` this emits
    no warning about them.

    Everything before the output is integer arithmetic on the scaled lines:
    a crossing ``num/den`` (``den > 0``) is tested against the interval by
    cross-multiplication and sorted by ``((num << s) // den, e, f)``, the
    floor of value * 2**s, with ``s`` twice the bit length of the slope
    spread ``D = max(b) - min(b)``.  That key is exact: ``den <= D``, so two
    different values differ by at least ``1/D**2 > 2**-s`` and get different
    keys, and equal keys mean equal values.  All crossings at one value share
    one ``Fraction`` object, built when the key changes, and no two values
    share one: two crossings lie at the same value exactly when their
    ``lam`` is the same object.  The sweep, :func:`all_equality_points` and
    the candidate values compare values by that identity.
    """
    _, a, b = inst.scaled
    shift = 2 * (max(b, default=0) - min(b, default=0)).bit_length()
    # (p, q) of each finite end of the interval; q = 0 marks an infinite end.
    lo, hi = inst.interval.lo, inst.interval.hi
    lo_p, lo_q = (lo.value.numerator, lo.value.denominator) if lo.is_finite else (0, 0)
    hi_p, hi_q = (hi.value.numerator, hi.value.denominator) if hi.is_finite else (0, 0)
    found = []
    for i, j in combinations(range(inst.m), 2):
        if b[i] > b[j]:
            # the steeper line is the lighter one before the crossing
            e, f, num, den = i, j, a[j] - a[i], b[i] - b[j]
        elif b[i] < b[j]:
            e, f, num, den = j, i, a[i] - a[j], b[j] - b[i]
        else:
            continue  # parallel lines never cross
        if (lo_q and num * lo_q <= lo_p * den) or (hi_q and num * hi_q >= hi_p * den):
            continue
        found.append(((num << shift) // den, e, f, num, den))
    found.sort()
    points = []
    last = lam = None
    for key, e, f, num, den in found:
        if key != last:
            last, lam = key, Fraction(num, den)
        points.append(EqualityPoint(e, f, lam))
    return points


def all_equality_points(inst: MatroidInstance) -> list[EqualityPoint]:
    """:func:`interior_crossings`, reporting coincident ones as a warning.

    Crossings shared by several pairs mark a degenerate (tied) instance, so
    they are additionally reported through the warning channel.
    """
    points = interior_crossings(inst)
    # The values shared by neighbours in the sorted list, each counted once;
    # a shared value is one shared object (see interior_crossings).
    coincident = len({id(pt.lam) for pt, nxt in zip(points, points[1:]) if pt.lam is nxt.lam})
    if coincident:
        warnings.warn(
            f"{coincident} parameter value(s) carry more than one crossing; "
            "ties resolve by element id",
            CoincidentEqualityPointsWarning,
            stacklevel=2,
        )
    return points


def start_representative(
    interval: ParamInterval, points: Sequence[EqualityPoint]
) -> Fraction:
    """A parameter value inside ``interval`` left of every sorted crossing."""
    if points:
        return interior_point(interval.lo, extended(points[0].lam))
    return interval.representative()


def perturbed_bundle_order(
    group: Sequence[EqualityPoint], slopes: Sequence[int]
) -> list[EqualityPoint]:
    """Order coincident crossings as the id tie-break perturbation would.

    Shift every weight line down by a symbolic ``eps**(id+1)``; ties then
    resolve toward the smaller id, all crossings of a bundle separate, and
    the crossing of ``e -> f`` moves by ``(eps**(e+1) - eps**(f+1)) / gap``,
    ``gap = slopes[e] - slopes[f] > 0``.  As ``eps -> 0+`` the smaller id
    decides the sign and leading term: ``-eps**(f+1) / gap`` if ``e > f``
    (earlier for a smaller ``f``, then a smaller gap), ``+eps**(e+1) / gap``
    if ``e < f`` (earlier for a larger ``e``, then a larger gap).  The larger
    id's term breaks what remains.  Hence the key ``(0, f, gap, -e)`` or
    ``(1, -e, -gap, f)``.  ``slopes`` may be any positive multiple of the
    slopes, such as :attr:`MatroidInstance.scaled` ``.b``.
    """

    def key(pt: EqualityPoint) -> tuple[int, int, int, int]:
        e, f = pt.lighter_before, pt.lighter_after
        gap = slopes[e] - slopes[f]
        return (0, f, gap, -e) if e > f else (1, -e, -gap, f)

    return sorted(group, key=key)


def advance_min_basis(
    view: MatroidView,
    basis: frozenset[int],
    group: Sequence[EqualityPoint],
    right_order_at: Callable[[Fraction], Callable[[int], int]],
) -> tuple[frozenset[int], list[tuple[int, int, frozenset[int]]]]:
    """Advance the minimum basis across one crossing value.

    ``group`` holds every crossing at that value, in the order they are
    walked: a coincident bundle must come in :func:`perturbed_bundle_order`,
    which makes every step an ordinary isolated crossing of the perturbed
    instance.  The sweep walks lone crossings inline and sends here only the
    bundles that join a member of the basis to a non-member.  The result is
    verified, as a hard internal invariant, against a fresh greedy run on
    the keys ``right_order_at(value)`` (such as
    :meth:`MatroidInstance.right_order_at`), the order just right of the
    value, so a walk that loses or misorders crossings raises.  Returns the
    basis after the value and each applied exchange as ``(out, in_, after)``.
    """
    swaps: list[tuple[int, int, frozenset[int]]] = []
    for pt in group:
        e, f = pt.lighter_before, pt.lighter_after
        swapped = view.swap(basis, e, f)
        if swapped is not None:
            basis = swapped
            swaps.append((e, f, basis))
    fresh = view.greedy_min_basis(right_order_at(group[0].lam))
    if fresh != basis:
        raise AssertionError(
            f"bundle at {group[0].lam}: perturbed-order swaps ended at "
            f"{sorted(basis)} but the optimum is {sorted(fresh)}"
        )
    return basis, swaps


@dataclass(frozen=True)
class BasisSchedule:
    """Optimal bases over the whole interval plus the value function.

    ``cuts[i]`` carries ``swaps[i]`` and switches from ``bases[i]`` to
    ``bases[i+1]``.  Coincident crossings can repeat a cut value; ``value``
    has no zero-width pieces, since the sweep gives it one cut per crossing
    value that changed the basis, with the basis's line after that value.
    ``points`` are the sorted crossings (see :func:`interior_crossings`);
    ``walk`` holds the same crossings in the order the sweep walked them,
    each bundle in :func:`perturbed_bundle_order`.  The crossings at one
    value share one ``Fraction`` object and no two values share one, and
    ``cuts`` and the cuts of ``value`` are those objects, so a consumer may
    compare these values by identity.
    """

    cuts: tuple[Fraction, ...]
    bases: tuple[frozenset[int], ...]
    swaps: tuple[tuple[int, int], ...]
    value: PWLFunction
    points: tuple[EqualityPoint, ...]
    walk: tuple[EqualityPoint, ...]


def parametric_min_basis(inst: MatroidInstance) -> BasisSchedule:
    """Sweep the crossings and report every optimal basis with its window.

    Refuses coloops and rank 0, through :func:`checked_view`, before it
    enumerates, so that all solvers fail uniformly on them.  A bundle that
    joins no member of the basis just left of its value to a non-member is
    ordered and put in ``walk`` but keeps the basis with no test: just left
    of the value each non-member comes after every member on its
    fundamental circuit (Edmonds' cycle rule), and only the pairs crossing
    there change order.  The certificate reads the value's crossings in
    ``points``, not the walked order, so a walk that loses a crossing still
    meets the greedy check.  The assembled value function is asserted
    concave (strictly decreasing slopes); a violation would mean a sweep
    bug.
    """
    view = checked_view(inst)
    points = all_equality_points(inst)
    interval = inst.interval

    start_rep = start_representative(interval, points)
    basis = view.greedy_min_basis(inst.order_at(start_rep))

    cuts: list[Fraction] = []
    bases: list[frozenset[int]] = [basis]
    swaps: list[tuple[int, int]] = []
    walk: list[EqualityPoint] = []
    value_cuts: list[Fraction] = []
    lines = [inst.basis_line(basis)]
    i, n = 0, len(points)
    while i < n:
        pt = points[i]
        lam = pt.lam
        i += 1
        if i == n or points[i].lam is not lam:  # one object per value
            # A lone crossing e -> f can swap only e in the basis for f outside it.
            walk.append(pt)
            e, f = pt.lighter_before, pt.lighter_after
            if e not in basis or f in basis:
                continue
            swapped = view.swap(basis, e, f)
            if swapped is None:
                continue
            basis = swapped
            applied = [(e, f, basis)]
        else:
            start = i - 1
            while i < n and points[i].lam is lam:
                i += 1
            group = perturbed_bundle_order(points[start:i], inst.scaled.b)
            walk += group
            if all((pt.lighter_before in basis) == (pt.lighter_after in basis)
                   for pt in points[start:i]):
                continue
            basis, applied = advance_min_basis(view, basis, group, inst.right_order_at)
            if not applied:
                continue
        for out, in_, after in applied:
            cuts.append(lam)
            bases.append(after)
            swaps.append((out, in_))
        value_cuts.append(lam)
        lines.append(inst.basis_line(basis))

    value = PWLFunction.build(interval, value_cuts, lines)
    slopes = [p.b for p in value.pieces]
    if any(nxt >= prev for prev, nxt in zip(slopes, slopes[1:])):
        raise AssertionError("optimal value function is not concave")
    return BasisSchedule(tuple(cuts), tuple(bases), tuple(swaps), value, tuple(points), tuple(walk))

