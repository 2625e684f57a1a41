"""Reference sweeps that the package's faster walks are checked against.

:func:`group_by_lambda` groups sorted crossings by value, compared as integer
``(numerator, denominator)`` pairs, so it groups equal values that are
different objects too.  :func:`reference_min_basis` is the plain sweep that
sends every crossing value, lone or not, through
:func:`.perturbed_bundle_order` and :func:`.advance_min_basis`, greedy
check included.
:func:`reference_removal_gains` replays the schedule's walk and hands every
crossing with both ends outside the basis to the replacement rule, without
asking whether any member holds its e, and builds one line per recorded
gain.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Sequence

from matroid_interdiction.interdiction import _lasting_members, _replacement_changes
from matroid_interdiction.parametric import (
    BasisSchedule,
    BasisSums,
    MatroidInstance,
    advance_min_basis,
    checked_view,
    interior_crossings,
    perturbed_bundle_order,
    start_representative,
)
from matroid_interdiction.pwl import EqualityPoint, PWLFunction


def group_by_lambda(
    points: Sequence[EqualityPoint],
) -> list[tuple[Fraction, list[EqualityPoint]]]:
    """Sorted crossings grouped by value, compared as integer ``(numerator,
    denominator)`` pairs: exact, since a ``Fraction`` is always normalized."""
    groups = groupby(points, key=lambda p: (p.lam.numerator, p.lam.denominator))
    return [(group[0].lam, group) for group in (list(g) for _, g in groups)]


def reference_min_basis(inst: MatroidInstance) -> BasisSchedule:
    """The sweep with one :func:`.advance_min_basis` call per crossing value."""
    view = checked_view(inst)
    points = interior_crossings(inst)
    basis = view.greedy_min_basis(inst.order_at(start_representative(inst.interval, points)))
    cuts: list[Fraction] = []
    bases = [basis]
    swaps: list[tuple[int, int]] = []
    walk: list[EqualityPoint] = []
    value_cuts: list[Fraction] = []
    lines = [inst.basis_line(basis)]
    for lam, group in group_by_lambda(points):
        group = perturbed_bundle_order(group, inst.scaled.b)
        walk += group
        basis, applied = advance_min_basis(view, basis, group, inst.right_order_at)
        for out, in_, after in applied:
            cuts.append(lam)
            bases.append(after)
            swaps.append((out, in_))
        if applied:
            value_cuts.append(lam)
            lines.append(inst.basis_line(basis))
    value = PWLFunction.build(inst.interval, value_cuts, lines)
    return BasisSchedule(tuple(cuts), tuple(bases), tuple(swaps), value,
                         tuple(points), tuple(walk))


_NO_GAIN: BasisSums = (0, 0)


def reference_removal_gains(
    inst: MatroidInstance, schedule: BasisSchedule
) -> dict[int, PWLFunction]:
    """:func:`.removal_gains` without the skip of crossings whose e no member
    holds, and with a fresh line for every recorded gain."""
    basis = schedule.bases[0]
    view = inst.view()
    _, a, b = inst.scaled
    order = inst.order_at(start_representative(inst.interval, schedule.points))
    replacement = {g: view.replacement_element(basis, g, order) for g in sorted(basis)}

    def gain(g: int, r: int) -> BasisSums:
        return a[r] - a[g], b[r] - b[g]

    transitions = {
        e: [(None, gain(e, replacement[e]) if e in basis else _NO_GAIN)]
        for e in frozenset().union(*schedule.bases)
    }

    def record(e: int, lam: Fraction, line: BasisSums):
        own = transitions[e]
        if own[-1][0] == lam:
            own.pop()
        own.append((lam, line))

    main_swaps = zip(schedule.swaps, schedule.bases[1:])
    main_swap, next_basis = next(main_swaps, (None, None))
    for pt in schedule.walk:
        e, f = pt.lighter_before, pt.lighter_after
        if (e, f) == main_swap:
            after = next_basis
            main_swap, next_basis = next(main_swaps, (None, None))
        elif e in basis or f in basis:
            continue
        else:
            after = basis
        for g, r in _replacement_changes(view, basis, after, replacement, e, f):
            if r is None:
                del replacement[g]
                record(g, pt.lam, _NO_GAIN)
            else:
                replacement[g] = r
                record(g, pt.lam, gain(g, r))
        basis = after

    zero = PWLFunction.from_line(inst.interval, inst.sums_line(_NO_GAIN))
    members = _lasting_members(schedule)
    return {
        e: PWLFunction.build(
            inst.interval,
            [lam for lam, _ in transitions[e][1:]],
            [inst.sums_line(line) for _, line in transitions[e]],
        ) if e in members else zero
        for e in range(inst.m)
    }
