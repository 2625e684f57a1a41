"""Solution container shared by every interdiction solver.

A solution partitions the parameter interval into segments; each segment
carries the linear formula of the interdicted optimum, the most vital
element, the optimal basis recovered at the segment's interior point, and the
replacement element of the most vital element.  The unlabeled value function
is kept alongside, fully normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .parametric import MatroidInstance
from .pwl import LinearFn, PWLFunction
from .rationals import ParamInterval, interior_point


@dataclass(frozen=True, slots=True)
class Segment:
    """One maximal window with a fixed value line and most vital element.

    The identity ``value = basis weight - most_vital weight + replacement
    weight`` holds as lines over the whole window; basis and replacement are
    the ones recovered at the window's interior point (the basis itself may
    change inside the window without affecting the segment's value line).
    """

    window: ParamInterval
    value: LinearFn
    most_vital: int
    basis: frozenset[int]
    replacement: int


@dataclass(frozen=True)
class Solution:
    """Segments tiling the instance interval, plus the value function."""

    segments: tuple[Segment, ...]
    value: PWLFunction

    def value_at(self, lam: Fraction) -> Fraction:
        return self.value.value_at(lam)

    def segment_at(self, lam: Fraction) -> Segment:
        """The segment containing ``lam``; the left one at a shared end."""
        for seg in self.segments:
            if seg.window.contains(lam):
                return seg
        raise ValueError(f"{lam} outside the solved interval")

    def most_vital_at(self, lam: Fraction) -> int:
        return self.segment_at(lam).most_vital


def build_solution(inst: MatroidInstance, labeled: PWLFunction) -> Solution:
    """Assemble segments from a labeled envelope of removal value functions.

    The envelope labels are smallest-id maximizers over everything fed to the
    envelope; a most vital element must additionally lie in the optimal
    basis.  When weights tie so hard that a non-basis element shares the
    winning value line, the smallest basis element with the same line is
    reported instead -- its removal is exactly as damaging.  The basis and
    the replacement scans of each piece use the integer order keys
    (:meth:`.MatroidInstance.order_at`) at the piece's interior point.
    A piece with the last segment's line and most vital element widens that
    segment, which keeps its basis and replacement.  Segments with equal
    bases share one ``frozenset``.
    """
    view = inst.view()
    segments: list[Segment] = []
    bases: dict[frozenset[int], frozenset[int]] = {}
    for lo, hi, line, label in labeled.piece_windows():
        rep = interior_point(lo, hi)
        order = inst.order_at(rep)
        basis = view.greedy_min_basis(order)
        basis = bases.setdefault(basis, basis)
        most_vital = label
        assert most_vital is not None
        if most_vital not in basis:
            most_vital = _matching_basis_element(inst, view, basis, line, order)
        replacement = view.replacement_element(basis, most_vital, order)
        if replacement is None:
            raise AssertionError("replacement vanished on a coloop-free instance")
        identity = inst.basis_line(basis - {most_vital} | {replacement})
        if identity != line:
            raise AssertionError(
                f"segment line {line} does not match basis identity {identity}"
            )
        last = segments[-1] if segments else None
        if last is not None and last.value == line and last.most_vital == most_vital:
            segments[-1] = replace(last, window=ParamInterval(last.window.lo, hi))
        else:
            segments.append(
                Segment(ParamInterval(lo, hi), line, most_vital, basis, replacement)
            )
    return Solution(tuple(segments), labeled.drop_labels())


def _matching_basis_element(
    inst: MatroidInstance,
    view,
    basis: frozenset[int],
    line: LinearFn,
    order: Callable[[int], int],
) -> int:
    for e in sorted(basis):
        repl = view.replacement_element(basis, e, order)
        if repl is not None and inst.basis_line(basis - {e} | {repl}) == line:
            return e
    raise AssertionError("no basis element matches the winning value line")

