"""Solvers for the parametric one-interdiction problem.

Two exact routes to the optimal interdiction value function, each an
assembler over artifacts that are built once per instance and passed down:

* :func:`naive_solution` envelopes the :func:`removal_value_functions`, which
  walk the plain schedule's crossings once more, maintaining the optimum with
  each basis member deleted (every other deleted optimum is the plain one).
* :func:`window_solution` solves each window between the crossings that
  :func:`find_candidates` keeps (rank growth or singleton-component
  absorption in growing restrictions) from the basis and its replacement
  elements, and stitches the windows together.

:func:`solve_naive` and :func:`solve_intervals` compose them from an instance.
Both refuse instances with coloops: interdicting such an element makes the
objective infinite, so the problem degenerates.  :func:`doubled_instance`
adds a parallel twin per element, which forces the interdicted optimum to
collapse onto the plain optimum -- a handy self-test.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matroid import DoubledMatroid, GraphicMatroid
from .parametric import (
    RANK_ZERO,
    BasisSchedule,
    MatroidInstance,
    advance_min_basis,
    all_equality_points,
    checked_view,
    group_by_lambda,
    parametric_min_basis,
    perturbed_bundle_order,
    start_representative,
)
from .pwl import (
    EqualityPoint,
    LinearFn,
    PWLFunction,
    envelope_of_lines,
    envelope_of_pwl,
    stitch,
)
from .rationals import ParamInterval, extended
from .solution import Solution, build_solution

_FOLLOWS_MAIN = None  # sentinel line meaning "this element tracks the optimum"


def removal_value_functions(
    inst: MatroidInstance, schedule: BasisSchedule
) -> dict[int, PWLFunction]:
    """For every element, the optimum of the instance with it removed.

    The main basis comes from ``schedule``, the instance's
    :func:`parametric_min_basis`.  One more walk over its crossings, in the
    same id-perturbed order, maintains the deleted optima of the basis
    members.  Every crossing e->f, lone or part of a coincident bundle, is
    handled as an isolated crossing of the perturbed instance: at most rank
    swap tests run (one per maintained deleted basis containing e but not f),
    and when the main basis swaps, e's deleted optimum becomes the plain one
    and f's becomes the old basis.  Changes at one parameter value collapse
    into the last one.  Elements outside the optimal basis share the
    undeleted optimum, so their functions are the plain value function
    itself.  Coloops are refused by the schedule; rank 0 is refused here.
    """
    basis = schedule.bases[0]
    if not basis:
        raise ValueError(RANK_ZERO)
    view = inst.view()
    order = inst.order_at(start_representative(inst.interval, schedule.points))
    deleted_views = {g: view.delete(g) for g in basis}
    deleted_bases = {g: deleted_views[g].greedy_min_basis(order) for g in basis}

    own_transitions: dict[int, list[tuple[Fraction | None, LinearFn | None]]] = {
        e: [(None, inst.basis_line(deleted_bases[e]) if e in basis else _FOLLOWS_MAIN)]
        for e in range(inst.m)
    }

    def record_own(e: int, lam: Fraction, line: LinearFn | None):
        transitions = own_transitions[e]
        if transitions[-1][0] == lam:
            transitions.pop()  # a zero-width span inside a bundle
        transitions.append((lam, line))

    # Each pair crosses once, so (value, swap) identifies a main-basis swap.
    old_basis_at = {
        (cut, swap): old
        for cut, swap, old in zip(schedule.cuts, schedule.swaps, schedule.bases)
    }
    for lam, group in group_by_lambda(schedule.points):
        for pt in perturbed_bundle_order(group, inst.scaled.b):
            e, f = pt.lighter_before, pt.lighter_after
            for g, basis_g in deleted_bases.items():
                if g == f or e not in basis_g or f in basis_g:
                    continue
                candidate = [x for x in basis_g if x != e] + [f]
                if deleted_views[g].is_independent(candidate):
                    deleted_bases[g] = frozenset(candidate)
                    record_own(g, lam, inst.basis_line(deleted_bases[g]))
            old_basis = old_basis_at.get((lam, (e, f)))
            if old_basis is not None:
                # e leaves: its deleted optimum now coincides with the plain
                # optimum; f enters: its deleted optimum is the old basis.
                del deleted_bases[e]
                del deleted_views[e]
                record_own(e, lam, _FOLLOWS_MAIN)
                deleted_views[f] = view.delete(f)
                deleted_bases[f] = old_basis
                record_own(f, lam, inst.basis_line(old_basis))

    out: dict[int, PWLFunction] = {}
    for e in range(inst.m):
        transitions = own_transitions[e]
        if all(line is _FOLLOWS_MAIN for _, line in transitions):
            out[e] = schedule.value
        else:
            out[e] = _assemble(transitions, schedule.value)
    return out


def _assemble(
    transitions: Sequence[tuple[Fraction | None, LinearFn | None]],
    main: PWLFunction,
) -> PWLFunction:
    """Splice explicit line spans with spans that track the main optimum."""
    cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    for i, (start, line) in enumerate(transitions):
        if start is not None:
            cuts.append(start)
        if line is not _FOLLOWS_MAIN:
            pieces.append(line)
            continue
        end = transitions[i + 1][0] if i + 1 < len(transitions) else None
        first = 0 if start is None else bisect_right(main.cuts, start)
        last = len(main.cuts) if end is None else bisect_left(main.cuts, end)
        pieces.append(main.pieces[first])
        for j in range(first + 1, last + 1):
            cuts.append(main.cuts[j - 1])
            pieces.append(main.pieces[j])
    return PWLFunction.build(main.domain, cuts, pieces)


def solve_naive(inst: MatroidInstance) -> Solution:
    """The full sweep: the envelope of every element's removal optimum."""
    schedule = parametric_min_basis(inst)
    return naive_solution(inst, removal_value_functions(inst, schedule))


def naive_solution(inst: MatroidInstance, removal: dict[int, PWLFunction]) -> Solution:
    """Upper envelope of the :func:`removal_value_functions` ``removal``."""
    # Many elements share the plain optimum object; feed each distinct
    # function once with its smallest owning label.
    by_identity: dict[int, tuple[int, PWLFunction]] = {}
    for e in range(inst.m):
        fn = removal[e]
        key = id(fn)
        if key not in by_identity or e < by_identity[key][0]:
            by_identity[key] = (e, fn)
    labeled = envelope_of_pwl(
        sorted(by_identity.values(), key=lambda pair: pair[0]), inst.interval
    )
    return build_solution(inst, labeled)


@dataclass(frozen=True)
class CandidateEntry:
    """A crossing kept as a potential slope change, with the reasons why."""

    point: EqualityPoint
    by_rank: bool
    by_singleton: bool

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
    """Sound superset of all slope changes, and the sorted crossings it filtered."""

    entries: tuple[CandidateEntry, ...]
    crossings: tuple[EqualityPoint, ...]

    def lambdas(self) -> list[Fraction]:
        return sorted({entry.point.lam for entry in self.entries})

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

    Both tests are incremental, since the restrictions only grow.  Each
    element keeps the greedy builder of its restriction's basis, whose
    ``add`` is the rank test, and the restriction's coloops, which are its
    singleton components apart from loops (loops never merge).  An insertion
    that raises the rank makes ``f`` a new coloop; otherwise exactly the
    coloops on ``f``'s fundamental circuit, those ``g`` with ``basis - g + f``
    independent, stop being coloops and join ``f``'s component.
    """
    view = inst.view()
    m = inst.m
    slope = inst.scaled.b
    order = inst.order_at(start_representative(inst.interval, crossings))

    builders = []
    bases: list[set[int]] = []
    coloops: list[set[int]] = []
    for e in range(m):
        # f is cheaper at the start and never crosses back above e: the lines
        # are parallel or they already crossed left of the start.
        grown = {
            f
            for f in range(m)
            if f != e
            and order(f) < order(e)
            and slope[f] <= slope[e]
        }
        builder = inst.backend.builder()
        builders.append(builder)
        bases.append({f for f in sorted(grown) if builder.add(f)})
        coloops.append(set(view.restrict(grown).coloop_scan()))

    entries: list[CandidateEntry] = []
    for pt in crossings:
        e, f = pt.lighter_before, pt.lighter_after
        by_rank = builders[e].add(f)
        if by_rank:
            bases[e].add(f)
            coloops[e].add(f)
            by_singleton = False
        else:
            merged = {
                g
                for g in coloops[e]
                if view.is_independent([x for x in bases[e] if x != g] + [f])
            }
            coloops[e] -= merged
            by_singleton = bool(merged)
        if by_rank or by_singleton:
            entries.append(CandidateEntry(pt, by_rank, by_singleton))
    return CandidateSet(tuple(entries), tuple(crossings))


def solve_intervals(inst: MatroidInstance) -> Solution:
    """The paper's route: filter the crossings, then solve every window."""
    return window_solution(inst, find_candidates(inst, all_equality_points(inst)))


def window_solution(inst: MatroidInstance, candidates: CandidateSet) -> Solution:
    """Solve each window between candidate crossings, then stitch.

    Inside a window the optimal basis is fixed, so each basis member's
    removal optimum is one line: basis minus member plus its replacement
    element.  Every other element's removal optimum is the plain basis line.
    The window's interdicted optimum is the upper envelope of those lines.
    """
    view = checked_view(inst)
    lambdas = candidates.lambdas()
    # Advance across a candidate value with every crossing that shares it:
    # under heavy ties the pair that actually swaps the basis need not be the
    # flagged candidate from the same bundle.
    points_at = dict(group_by_lambda(candidates.crossings))

    bounds = [inst.interval.lo] + [extended(l) for l in lambdas] + [inst.interval.hi]
    windows = [
        ParamInterval(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)
    ]

    basis = view.greedy_min_basis(inst.order_at(windows[0].representative()))
    parts = []
    for i, window in enumerate(windows):
        rep = window.representative()
        if i > 0:
            group = points_at[lambdas[i - 1]]
            basis, _ = advance_min_basis(
                view, basis, group, rep, inst.order_at, inst.scaled.b
            )
        weight_at = inst.weights_at(rep)
        plain = inst.basis_line(basis)
        lines = []
        for e in sorted(basis):
            replacement = view.replacement_element(basis, e, weight_at)
            assert replacement is not None
            lines.append((e, plain - inst.weight_fn(e) + inst.weight_fn(replacement)))
        # Removing any element outside the basis leaves the plain optimum; the
        # smallest such id stands for all of them in the envelope's tie-break,
        # so labels match a sweep over every element.
        outside = min(set(range(inst.m)) - basis, default=None)
        if outside is not None:
            lines.append((outside, plain))
        parts.append(envelope_of_lines(lines, window))
    return build_solution(inst, stitch(inst.interval, parts))


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
    backend = GraphicMatroid(
        inst.backend.node_count, inst.backend.edges + inst.backend.edges
    )
    weights = inst.weights + inst.weights
    name = f"{inst.name}-doubled" if inst.name else "doubled"
    return MatroidInstance(backend, weights, inst.interval, name)
