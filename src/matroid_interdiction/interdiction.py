"""Solvers for the parametric one-interdiction problem.

Two exact routes to the optimal interdiction value function, each an
assembler over artifacts that are built once per instance and passed down:

* :func:`naive_solution` envelopes the :func:`removal_gains`, how much
  deleting each element raises the plain optimum, and adds the plain
  optimum once.  The gains replay the plain schedule's walk over the
  crossings, keeping the optimum with each basis member deleted as the basis
  minus it plus its replacement element (every other deleted optimum is the
  plain one, a gain of 0).  :func:`removal_value_functions` gives the
  removal optima themselves; no solver or CLI verb needs them.
* :func:`window_solution` solves each window between the crossings that
  :func:`find_candidates` keeps (rank growth or singleton-component
  absorption in growing restrictions) from the basis, found by one greedy
  run, and its replacement elements.  A run of windows joined by candidate
  values that change neither is solved once, by one integer hull pass over
  its removal lines; one :meth:`.PWLFunction.build` joins all the runs.

Both routes follow the basis and the replacements across an isolated
crossing by one rule, :func:`_replacement_changes`.  :func:`solve_naive` and
:func:`solve_intervals` compose them from an instance, after one
:func:`.checked_view` before any crossing is enumerated: it refuses coloops
(interdicting one makes the objective infinite) and rank 0.
:func:`doubled_instance` adds a parallel twin per element, which forces the
interdicted optimum to collapse onto the plain optimum -- a handy self-test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Sequence

from .matroid import DoubledMatroid, GraphicMatroid, GrowingRestriction, MatroidView
from .parametric import (
    BasisSchedule,
    BasisSums,
    MatroidInstance,
    all_equality_points,
    checked_view,
    parametric_min_basis,
    start_representative,
)
from .pwl import EqualityPoint, LinearFn, PWLFunction, envelope_of_pwl, pwl_sum, upper_hull
from .rationals import extended, interior_point
from .solution import Solution, build_solution

_NO_GAIN: BasisSums = (0, 0)  # the gain of an element outside the basis


def removal_gains(inst: MatroidInstance, schedule: BasisSchedule) -> dict[int, PWLFunction]:
    """For every element, how much deleting it raises the plain optimum.

    Deleting a member ``g`` of the main basis ``B`` leaves the optimum
    ``B - g + r[g]``, ``r[g]`` its cheapest replacement element, so its gain
    is the line ``w(r[g]) - w(g)``; deleting any other element gains 0.  One
    :meth:`.MatroidView.replacement_element` scan per member seeds ``r`` at
    the start.  Replaying the ``walk`` of ``schedule`` (the instance's
    :func:`parametric_min_basis`), whose crossings are isolated ones of the
    id-perturbed instance, updates it by :func:`_replacement_changes`, given
    the schedule's next basis at its next swap (so a swap runs no
    independence test), and a crossing records only the gains it changes.
    A crossing with both ends outside the basis can change only the members
    holding its e, so the walk counts how many members hold each element
    and skips such a crossing when none holds its e.
    Changes at one value collapse into the last one.  Gains stay integer
    pairs over :attr:`MatroidInstance.scaled` until they become pieces, and
    every gain is continuous, so each :meth:`.PWLFunction.build` checks
    every cut; each distinct gain becomes one shared :class:`.LinearFn`.
    The elements that hold no place in the basis on an interval
    of positive length (see :func:`_lasting_members`) share one zero
    function.
    """
    basis = schedule.bases[0]
    view = inst.view()
    _, a, b = inst.scaled
    order = inst.order_at(start_representative(inst.interval, schedule.points))
    replacement = {g: view.replacement_element(basis, g, order) for g in sorted(basis)}
    held = Counter(replacement.values())  # members holding each element

    def gain(g: int, r: int) -> BasisSums:
        return a[r] - a[g], b[r] - b[g]

    transitions: dict[int, list[tuple[Fraction | None, BasisSums]]] = {
        e: [(None, gain(e, replacement[e]) if e in basis else _NO_GAIN)]
        for e in frozenset().union(*schedule.bases)
    }

    def record(e: int, lam: Fraction, line: BasisSums):
        own = transitions[e]
        if own[-1][0] is lam:  # one object per value (see BasisSchedule)
            own.pop()  # a zero-width span inside a bundle
        own.append((lam, line))

    main_swaps = zip(schedule.swaps, schedule.bases[1:])
    main_swap, next_basis = next(main_swaps, (None, None))
    for pt in schedule.walk:
        e, f = pt.lighter_before, pt.lighter_after
        if (e, f) == main_swap:
            after = next_basis
            main_swap, next_basis = next(main_swaps, (None, None))
        elif e in basis or f in basis or not held.get(e):
            continue  # only a member holding e can change here
        else:
            after = basis
        for g, r in _replacement_changes(view, basis, after, replacement, e, f):
            if g in replacement:
                held[replacement[g]] -= 1
            if r is None:
                del replacement[g]
                record(g, pt.lam, _NO_GAIN)
            else:
                replacement[g] = r
                held[r] += 1
                record(g, pt.lam, gain(g, r))
        basis = after

    members = _lasting_members(schedule)
    # One LinearFn per distinct gain, shared by every piece that carries it.
    lines = {_NO_GAIN: inst.sums_line(_NO_GAIN)}
    for e in members:
        for _, line in transitions[e]:
            if line not in lines:
                lines[line] = inst.sums_line(line)
    zero = PWLFunction.from_line(inst.interval, lines[_NO_GAIN])
    gains = {
        e: PWLFunction.build(
            inst.interval,
            [lam for lam, _ in transitions[e][1:]],
            [lines[line] for _, line in transitions[e]],
        )
        for e in members
    }
    return {e: gains.get(e, zero) for e in range(inst.m)}


def _lasting_members(schedule: BasisSchedule) -> frozenset[int]:
    """The elements in the optimal basis on an interval of positive length:
    the start basis and the basis after each swap value's last swap, the cut
    values compared by identity (see :class:`.BasisSchedule`).  Any other
    element of ``schedule.bases`` enters and leaves inside one bundle."""
    cuts, bases = schedule.cuts, schedule.bases
    return frozenset().union(bases[0], *(
        bases[i + 1] for i in range(len(cuts))
        if i + 1 == len(cuts) or cuts[i + 1] is not cuts[i]))


def removal_value_functions(
    inst: MatroidInstance, schedule: BasisSchedule
) -> dict[int, PWLFunction]:
    """For every element, the optimum of the instance with it removed.

    That is the plain optimum ``schedule.value`` plus the element's
    :func:`removal_gains`.  The elements that share the zero gain share
    ``schedule.value`` itself.  No solver or CLI verb calls it: they read
    the gains.
    """
    members = _lasting_members(schedule)
    return {e: pwl_sum(schedule.value, gain) if e in members else schedule.value
            for e, gain in removal_gains(inst, schedule).items()}


def solve_naive(inst: MatroidInstance) -> Solution:
    """The full sweep: the envelope of every element's removal optimum."""
    schedule = parametric_min_basis(inst)
    return naive_solution(inst, schedule, removal_gains(inst, schedule))


def naive_solution(
    inst: MatroidInstance, schedule: BasisSchedule, gains: dict[int, PWLFunction]
) -> Solution:
    """The plain optimum plus the upper envelope of the :func:`removal_gains`.

    Adding ``schedule.value`` to every input moves no maximizer, so the
    labeled envelope of the gains, plus that value once (:func:`.pwl_sum`),
    is the labeled envelope of the removal value functions.  Each distinct
    gain function goes in once, under its smallest owning label.
    """
    by_identity: dict[int, tuple[int, PWLFunction]] = {}
    for e in range(inst.m):
        by_identity.setdefault(id(gains[e]), (e, gains[e]))
    labeled = envelope_of_pwl(list(by_identity.values()), inst.interval)
    return build_solution(inst, pwl_sum(labeled, schedule.value))


@dataclass(frozen=True, slots=True)
class CandidateEntry:
    """A crossing kept as a potential slope change, with the reasons why.

    ``lone`` marks a crossing that no other crossing of the instance shares
    its value with.
    """

    point: EqualityPoint
    by_rank: bool
    by_singleton: bool
    lone: bool

    @property
    def tags(self) -> str:
        names = []
        if self.by_rank:
            names.append("rank")
        if self.by_singleton:
            names.append("singleton")
        return "+".join(names)


@dataclass(frozen=True)
class CandidateSet:
    """Sound superset of all slope changes: the kept crossings, sorted."""

    entries: tuple[CandidateEntry, ...]

    def lambdas(self) -> list[Fraction]:
        """The distinct candidate values, in order (the entries are sorted)."""
        return [lam for lam, _ in groupby(entry.point.lam for entry in self.entries)]

    def __len__(self) -> int:
        return len(self.entries)


def find_candidates(
    inst: MatroidInstance, crossings: Sequence[EqualityPoint]
) -> CandidateSet:
    """Filter the crossings down to at most ``2 * rank * m`` candidates.

    ``crossings`` are the sorted interior crossings, e.g. a schedule's ``points``.

    For each element ``e`` the sweep grows the set of elements that are both
    cheaper than ``e`` and past their crossing with it.  A crossing e->f is
    kept when inserting ``f`` either extends a maximal independent set of
    that restriction (rank case) or merges a singleton component into ``f``'s
    component (singleton case); every slope change of the plain or any
    removal value function happens at a kept crossing.

    Both tests are incremental, since the restrictions only grow: each
    element keeps a :class:`.GrowingRestriction`, seeded with its initial
    set in id order, whose ``add`` answers both.  Its coloops are the
    restriction's singleton components apart from loops, which never merge.
    A kept crossing is marked ``lone`` when neither neighbour in the sorted
    ``crossings`` has its value, compared as integer ``(numerator,
    denominator)`` pairs (``as_integer_ratio``).
    """
    view = inst.view()
    m = inst.m
    slope = inst.scaled.b
    order = inst.order_at(start_representative(inst.interval, crossings))
    # f is cheaper than e at the start and never crosses back above it: the
    # lines are parallel or they already crossed left of the start.
    growers = [
        GrowingRestriction(view, (
            f for f in range(m) if f != e and order(f) < order(e) and slope[f] <= slope[e]
        ))
        for e in range(m)
    ]
    entries: list[CandidateEntry] = []
    last = len(crossings) - 1
    for i, pt in enumerate(crossings):
        by_rank, by_singleton = growers[pt.lighter_before].add(pt.lighter_after)
        if by_rank or by_singleton:
            value = pt.lam.as_integer_ratio()
            lone = ((i == 0 or crossings[i - 1].lam.as_integer_ratio() != value)
                    and (i == last or crossings[i + 1].lam.as_integer_ratio() != value))
            entries.append(CandidateEntry(pt, by_rank, by_singleton, lone))
    return CandidateSet(tuple(entries))


def solve_intervals(inst: MatroidInstance) -> Solution:
    """The paper's route: filter the crossings, then solve every window.

    Refuses through :func:`.checked_view` before it enumerates the crossings.
    """
    checked_view(inst)
    return window_solution(inst, find_candidates(inst, all_equality_points(inst)))


def window_solution(inst: MatroidInstance, candidates: CandidateSet) -> Solution:
    """Solve each run of windows between candidate crossings, in one envelope.

    Inside a window the optimal basis is fixed (every basis change is a slope
    change, hence a candidate), so one greedy run at the window's
    representative finds it and each basis member's removal optimum is one
    line: basis minus member plus its replacement element.  Every other
    element's removal optimum is the plain basis line.  The window's
    interdicted optimum is the upper envelope of those lines.

    The basis ``B`` and the replacements stay in force across a candidate
    value that holds a single crossing e->f of the whole instance (its
    entry's ``lone`` mark: a twin of e or f would cross the other at the same
    value) at which :func:`_replacement_changes` names no change, given the
    basis after it, :meth:`.MatroidView.swap` of e for f or else ``B``.  So
    a run of windows joined by such values takes one greedy run, one
    replacement scan per member and one integer hull pass
    (:func:`.upper_hull`) over its lines, kept as integer sums over
    :attr:`.MatroidInstance.scaled`; only the hull's winners become
    :class:`.LinearFn` pieces.  Every run appends to the same cuts, pieces
    and labels, with the run's end as a cut, and one
    :meth:`.PWLFunction.build` on the instance interval checks every cut,
    seams included, and merges each seam across which neither the line nor
    the label changes.  The instance must have passed :func:`.checked_view`,
    as in :func:`solve_intervals` or before a sweep.
    """
    view = inst.view()
    scale, a, b = inst.scaled
    # The first candidate entry at each candidate value, in order.
    firsts = [next(group) for _, group in groupby(
        candidates.entries, key=lambda entry: entry.point.lam)]
    bounds = [inst.interval.lo, *(extended(entry.point.lam) for entry in firsts),
              inst.interval.hi]
    cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    labels: list[int] = []
    run_lo = bounds[0].value if bounds[0].is_finite else None
    basis = None
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if basis is None:
            rep = interior_point(lo, hi)
            basis = view.greedy_min_basis(inst.order_at(rep))
            weight_at = inst.weights_at(rep)
            replacements = {e: view.replacement_element(basis, e, weight_at)
                            for e in sorted(basis)}
        if i < len(firsts) and firsts[i].lone:
            e, f = firsts[i].point.lighter_before, firsts[i].point.lighter_after
            after = view.swap(basis, e, f) or basis
            if next(_replacement_changes(view, basis, after, replacements, e, f), None) is None:
                continue
        sa, sb = inst.basis_sums(basis)
        lines = [(sa - a[e] + a[r], sb - b[e] + b[r], e, None)
                 for e, r in replacements.items()]
        # Removing any element outside the basis leaves the plain optimum;
        # the smallest such id stands for all of them in the hull's
        # tie-break, so labels match a sweep over every element.  One
        # exists: a basis of the whole ground set would be all coloops.
        outside = next(x for x in range(inst.m) if x not in basis)
        lines.append((sa, sb, outside, None))
        run_hi = hi.value if hi.is_finite else None
        upper_hull(lines, run_lo, run_hi, cuts, pieces, labels, scale)
        if i < len(firsts):
            cuts.append(run_hi)
        run_lo, basis = run_hi, None
    return build_solution(inst, PWLFunction.build(inst.interval, cuts, pieces, labels))


def _replacement_changes(
    view: MatroidView, basis: frozenset[int], after: frozenset[int],
    replacements: dict[int, int], e: int, f: int,
) -> Iterator[tuple[int, int | None]]:
    """The changes ``(g, r[g])`` to the replacements at an isolated crossing
    e->f, lazily; ``after`` is the basis right of it, ``basis - e + f`` at a
    swap and ``basis`` itself otherwise.

    Right of the crossing the (weight, id) order is the one left of it with
    e and f exchanged.  At a swap e leaves (``None``), and every member
    holding f, then f itself, take e, with no independence test.  With e and
    f both outside ``basis``, the members holding e for which ``basis - g +
    f`` is independent take f, one swap test each.  Nothing else changes.
    e and f are named outside the member loop, so a caller may apply each
    change to ``replacements`` as it comes.
    """
    if after is not basis:
        yield e, None
        for g, r in replacements.items():
            if r == f and g != e:  # basis - g + f is still the optimum without g
                yield g, e
        yield f, e
    else:
        for g, r in replacements.items():
            if r == e and view.swap(basis, g, f) is not None:
                yield g, f


def doubled_instance(inst: MatroidInstance) -> MatroidInstance:
    """Give every element a parallel twin with the identical weight line.

    Removing any element of the doubled instance is repaired for free by its
    twin, so the interdicted optimum of the double equals the plain optimum
    of the original.
    """
    backend = DoubledMatroid(inst.backend)
    weights = inst.weights + inst.weights
    name = f"{inst.name}-doubled" if inst.name else "doubled"
    return MatroidInstance(backend, weights, inst.interval, name)


def doubled_graphic_instance(inst: MatroidInstance) -> MatroidInstance:
    """The doubling of a graphic instance as a plain multigraph.

    Same construction realized with parallel edges instead of the twin
    backend; both routes must produce interchangeable value functions.
    """
    if not isinstance(inst.backend, GraphicMatroid):
        raise TypeError("parallel-copy doubling requires a graphic backend")
    edges = inst.backend.edges
    return replace(doubled_instance(inst),
                   backend=GraphicMatroid(inst.backend.node_count, edges + edges))
