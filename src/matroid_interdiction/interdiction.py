"""Solvers for the parametric one-interdiction problem.

Two exact routes to the optimal interdiction value function:

* :func:`solve_naive` sweeps all crossings once, maintaining the optimal
  basis plus one deleted-element optimum per basis member (every other
  deleted-element optimum coincides with the undeleted one), and takes the
  upper envelope of the resulting per-element value functions.
* :func:`solve_intervals` first narrows the crossings down to a small
  candidate set (rank growth or singleton-component absorption in growing
  restrictions), then solves each candidate window independently from the
  basis and its replacement elements, and stitches the windows together.

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

from .matroid import ColoopError, DoubledMatroid, GraphicMatroid, MatroidView
from .parametric import (
    MatroidInstance,
    advance_min_basis,
    all_equality_points,
    group_by_lambda,
    interior_crossings,
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
)
from .rationals import ParamInterval, extended
from .solution import Solution, build_solution

_FOLLOWS_MAIN = None  # sentinel line meaning "this element tracks the optimum"


def _checked_view(inst: MatroidInstance) -> MatroidView:
    view = inst.view()
    coloops = view.coloop_scan()
    if coloops:
        raise ColoopError(coloops)
    if view.rank() == 0:
        raise ValueError("rank-0 instance: there is nothing to interdict")
    return view


def removal_value_functions(inst: MatroidInstance) -> dict[int, PWLFunction]:
    """For every element, the optimum of the instance with it removed.

    The main basis comes from :func:`parametric_min_basis`.  One more walk
    over the same crossings, in the same id-perturbed order, maintains the
    deleted optima of the basis members.  Every crossing e->f, lone or part
    of a coincident bundle, is handled as an isolated crossing of the
    perturbed instance: at most rank swap tests run (one per maintained
    deleted basis containing e but not f), and when the main basis swaps, e's
    deleted optimum becomes the plain one and f's becomes the old basis.
    Changes at one parameter value collapse into the last one.  Elements
    outside the optimal basis share the undeleted optimum, so their
    functions are the plain value function itself.
    """
    schedule = parametric_min_basis(inst)
    basis = schedule.bases[0]
    if not basis:
        raise ValueError("rank-0 instance: there is nothing to interdict")
    view = inst.view()
    weight_at = inst.weights_at(start_representative(inst.interval, schedule.points))
    deleted_views = {g: view.delete(g) for g in basis}
    deleted_bases = {g: deleted_views[g].greedy_min_basis(weight_at) for g in basis}

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
        for pt in perturbed_bundle_order(group, inst.weights):
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
    """Upper envelope of all removal value functions."""
    removal = removal_value_functions(inst)
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
    """Sound superset of every slope change of the value functions."""

    entries: tuple[CandidateEntry, ...]

    @property
    def points(self) -> tuple[EqualityPoint, ...]:
        return tuple(entry.point for entry in self.entries)

    def lambdas(self) -> list[Fraction]:
        return sorted({entry.point.lam for entry in self.entries})

    def __len__(self) -> int:
        return len(self.entries)


def find_candidates(inst: MatroidInstance) -> CandidateSet:
    """Filter the crossings down to at most ``2 * rank * m`` candidates.

    For each element ``e`` the sweep grows the set of elements that are both
    cheaper than ``e`` and past their crossing with it.  A crossing e->f is
    kept when inserting ``f`` either extends a maximal independent set of
    that restriction (rank case) or merges a singleton component into ``f``'s
    component (singleton case); every slope change of the plain or any
    removal value function happens at a kept crossing.

    Components are recomputed per insertion (2-connected components for
    graphic backends, fundamental circuits otherwise); the amortized
    incremental structures this trades away are documented in the README.
    """
    view = inst.view()
    m = inst.m
    weights = inst.weights
    in_window = interior_crossings(inst)
    weight_at = inst.weights_at(start_representative(inst.interval, in_window))

    active: list[set[int]] = []
    bases: list[set[int]] = []
    comps = []
    for e in range(m):
        # f is cheaper at the start and never crosses back above e: the lines
        # are parallel or they already crossed left of the start.
        grown = {
            f
            for f in range(m)
            if f != e
            and weight_at(f) < weight_at(e)
            and weights[f].b <= weights[e].b
        }
        active.append(grown)
        builder = inst.backend.builder()
        bases.append({f for f in sorted(grown) if builder.add(f)})
        comps.append(view.restrict(grown).components())

    entries: list[CandidateEntry] = []
    for pt in in_window:
        e, f = pt.lighter_before, pt.lighter_after
        by_rank = view.is_independent(bases[e] | {f})
        if by_rank:
            bases[e].add(f)
        before = comps[e]
        active[e].add(f)
        after = view.restrict(active[e]).components()
        comps[e] = after
        merged = after.members[after.component_of(f)]
        by_singleton = any(
            g != f and g in before.comp_of and before.is_singleton(g) for g in merged
        )
        if by_rank or by_singleton:
            entries.append(CandidateEntry(pt, by_rank, by_singleton))
    return CandidateSet(tuple(entries))


def solve_intervals(inst: MatroidInstance) -> Solution:
    """Solve each window between candidate crossings, then stitch.

    Inside a window the optimal basis is fixed, so each basis member's
    removal optimum is one line: basis minus member plus its replacement
    element.  Every other element's removal optimum is the plain basis line.
    The window's interdicted optimum is the upper envelope of those lines.
    """
    view = _checked_view(inst)
    candidates = find_candidates(inst)
    lambdas = candidates.lambdas()
    # Advance across a candidate value with every crossing that shares it:
    # under heavy ties the pair that actually swaps the basis need not be the
    # flagged candidate from the same bundle.
    candidate_values = set(lambdas)
    points_at: dict[Fraction, list[EqualityPoint]] = {}
    for pt in all_equality_points(inst):
        if pt.lam in candidate_values:
            points_at.setdefault(pt.lam, []).append(pt)

    bounds = [inst.interval.lo] + [extended(l) for l in lambdas] + [inst.interval.hi]
    windows = [
        ParamInterval(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)
    ]

    basis = view.greedy_min_basis(inst.weights_at(windows[0].representative()))
    cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    labels: list[int] = []
    for i, window in enumerate(windows):
        if i > 0:
            lam = lambdas[i - 1]
            basis, _ = advance_min_basis(
                view,
                basis,
                points_at[lam],
                window.representative(),
                inst.weights_at,
                inst.weights,
            )
        rep = window.representative()
        weight_at = inst.weights_at(rep)
        lines = []
        for e in sorted(basis):
            replacement = view.replacement_element(basis, e, weight_at)
            assert replacement is not None
            lines.append(
                (
                    e,
                    inst.basis_line(basis)
                    - inst.weight_fn(e)
                    + inst.weight_fn(replacement),
                )
            )
        # Removing any element outside the basis leaves the plain optimum; the
        # smallest such id stands for all of them in the envelope's tie-break,
        # so labels match a sweep over every element.
        outside = min(set(range(inst.m)) - basis, default=None)
        if outside is not None:
            lines.append((outside, inst.basis_line(basis)))
        local = envelope_of_lines(lines, window)
        for j, piece in enumerate(local.pieces):
            if pieces:
                cuts.append(local.cuts[j - 1] if j > 0 else lambdas[i - 1])
            pieces.append(piece)
            assert local.labels is not None
            labels.append(local.labels[j])

    stitched = PWLFunction.build(inst.interval, cuts, pieces, labels)
    return build_solution(inst, stitched)


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
