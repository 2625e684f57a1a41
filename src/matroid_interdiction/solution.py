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

from .parametric import BasisSums, MatroidInstance
from .pwl import LinearFn, PWLFunction
from .rationals import ParamInterval, interior_ratio


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
    the replacement scans of each piece use integer order keys
    (:meth:`.MatroidInstance.order_at_ratio`) at the piece's interior point,
    taken as an unreduced integer ratio (:func:`.interior_ratio`), and each
    ``basis - most_vital + replacement`` identity is checked on integer sums
    over :attr:`.MatroidInstance.scaled` against the piece's line.
    A piece with the last segment's line and most vital element widens that
    segment, which keeps its basis and replacement.  Segments with equal
    bases share one ``frozenset``.
    """
    view = inst.view()
    scale = inst.scaled.scale
    segments: list[Segment] = []
    bases: dict[frozenset[int], frozenset[int]] = {}
    for lo, hi, line, label in labeled.piece_windows():
        order = inst.order_at_ratio(*interior_ratio(lo, hi))
        basis = view.greedy_min_basis(order)
        basis = bases.setdefault(basis, basis)
        sums = inst.basis_sums(basis)
        most_vital = label
        assert most_vital is not None
        if most_vital in basis:
            replacement = view.replacement_element(basis, most_vital, order)
        else:
            most_vital, replacement = _matching_basis_element(inst, view, basis, sums, line, order)
        if replacement is None:
            raise AssertionError("replacement vanished on a coloop-free instance")
        identity = _exchanged(inst, sums, most_vital, replacement)
        if not _is_line(identity, scale, line):
            raise AssertionError(
                f"segment line {line} does not match basis identity "
                f"{inst.sums_line(identity)}"
            )
        last = segments[-1] if segments else None
        if last is not None and last.value == line and last.most_vital == most_vital:
            segments[-1] = replace(last, window=ParamInterval(last.window.lo, hi))
        else:
            segments.append(
                Segment(ParamInterval(lo, hi), line, most_vital, basis, replacement)
            )
    return Solution(tuple(segments), labeled.drop_labels())


def _exchanged(inst: MatroidInstance, sums: BasisSums, out: int, in_: int) -> BasisSums:
    """The integer sums of ``basis - out + in_`` from those of ``basis``."""
    _, a, b = inst.scaled
    return sums[0] - a[out] + a[in_], sums[1] - b[out] + b[in_]


def _is_line(sums: BasisSums, scale: int, line: LinearFn) -> bool:
    """Whether ``(A + lam*B) / scale`` is ``line``, by cross-multiplication."""
    (an, ad), (bn, bd) = line.a.as_integer_ratio(), line.b.as_integer_ratio()
    return sums[0] * ad == an * scale and sums[1] * bd == bn * scale


def _matching_basis_element(
    inst: MatroidInstance,
    view,
    basis: frozenset[int],
    sums: BasisSums,
    line: LinearFn,
    order: Callable[[int], int],
) -> tuple[int, int]:
    """The smallest basis element whose exchange has ``line``, and its replacement."""
    scale = inst.scaled.scale
    for e in sorted(basis):
        repl = view.replacement_element(basis, e, order)
        if repl is not None and _is_line(_exchanged(inst, sums, e, repl), scale, line):
            return e, repl
    raise AssertionError("no basis element matches the winning value line")
