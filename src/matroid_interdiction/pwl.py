"""Parametric linear weights and exact piecewise-linear upper envelopes.

A weight is a line ``a + lam*b``; a value function is a continuous piecewise
linear function stored as interior cut positions plus one line per piece, so
unbounded domains need no special vertices.  Upper envelopes are exact and
built one way: a line envelope (:func:`envelope_of_lines`) per window on
which every input is a single line, joined by :func:`stitch`.  Ties in value
are broken by the smallest element id so the winning labels are reproducible
across solvers and platforms.

Normalization: a cut is kept only if the line, or the piece label, changes
across it.  Label-only cuts (same line, different winner) can occur when two
elements tie along a whole piece; value-level comparisons always ignore them
(see :func:`pwl_equal`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .rationals import (
    ExtendedRational,
    ParamInterval,
    extended,
    rational,
)


@dataclass(frozen=True)
class LinearFn:
    """The line ``a + lam*b`` (intercept ``a``, slope ``b``), exactly."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))

    def __call__(self, lam: Fraction) -> Fraction:
        return self.a + lam * self.b

    def __add__(self, other: "LinearFn") -> "LinearFn":
        return LinearFn(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "LinearFn") -> "LinearFn":
        return LinearFn(self.a - other.a, self.b - other.b)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*lam"


@dataclass(frozen=True)
class EqualityPoint:
    """The directed crossing of two weight lines.

    ``lighter_before`` is strictly lighter for smaller parameters and strictly
    heavier beyond ``lam`` (so it has the larger slope of the pair).
    """

    lighter_before: int
    lighter_after: int
    lam: Fraction

    def __str__(self) -> str:
        return f"e{self.lighter_before}->e{self.lighter_after} @ {self.lam}"


def equality_point(e: int, we: LinearFn, f: int, wf: LinearFn) -> EqualityPoint | None:
    """Where the weights of ``e`` and ``f`` become equal, oriented.

    Returns None when the lines are parallel (including identical); callers
    that need the convention "never crosses" map None to minus infinity.
    """
    if we.b == wf.b:
        return None
    lam = (wf.a - we.a) / (we.b - wf.b)
    if we.b > wf.b:
        return EqualityPoint(e, f, lam)
    return EqualityPoint(f, e, lam)


class PWLError(ValueError):
    """A proposed piecewise-linear function violates its invariants."""


@dataclass(frozen=True)
class PWLFunction:
    """A continuous piecewise-linear function on a parameter interval.

    ``cuts`` are strictly increasing and strictly inside the domain; piece ``i``
    applies between cut ``i-1`` and cut ``i`` (with the domain ends at the
    extremes).  Adjacent pieces always agree in value at their shared cut.
    ``labels`` optionally record the winning element per piece.
    """

    domain: ParamInterval
    cuts: tuple[Fraction, ...]
    pieces: tuple[LinearFn, ...]
    labels: tuple[int, ...] | None = None

    @staticmethod
    def build(
        domain: ParamInterval,
        cuts: Sequence[Fraction],
        pieces: Sequence[LinearFn],
        labels: Sequence[int] | None = None,
    ) -> "PWLFunction":
        """Validate and normalize raw pieces into canonical form.

        Raises :class:`PWLError` on a count mismatch, unsorted or non-interior
        cuts, or a discontinuity.  Merges every cut across which neither the
        line nor the label changes.
        """
        if not domain.is_proper:
            raise PWLError(f"degenerate domain {domain}")
        if len(pieces) != len(cuts) + 1:
            raise PWLError(
                f"{len(pieces)} pieces do not fit {len(cuts)} cuts"
            )
        if labels is not None and len(labels) != len(pieces):
            raise PWLError("labels must be one per piece")
        for i, cut in enumerate(cuts):
            if i > 0 and not cuts[i - 1] < cut:
                raise PWLError(f"cuts not strictly increasing at {cut}")
            if not domain.strictly_inside(cut):
                raise PWLError(f"cut {cut} not interior to {domain}")
            left, right = pieces[i], pieces[i + 1]
            if left(cut) != right(cut):
                raise PWLError(
                    f"discontinuity at {cut}: {left(cut)} != {right(cut)}"
                )
        out_cuts: list[Fraction] = []
        out_pieces: list[LinearFn] = [pieces[0]]
        out_labels: list[int] | None = [labels[0]] if labels is not None else None
        for i, cut in enumerate(cuts):
            piece = pieces[i + 1]
            label = labels[i + 1] if labels is not None else None
            same_line = piece == out_pieces[-1]
            same_label = out_labels is None or label == out_labels[-1]
            if same_line and same_label:
                continue
            out_cuts.append(cut)
            out_pieces.append(piece)
            if out_labels is not None:
                out_labels.append(label)  # type: ignore[arg-type]
        return PWLFunction(
            domain,
            tuple(out_cuts),
            tuple(out_pieces),
            tuple(out_labels) if out_labels is not None else None,
        )

    @staticmethod
    def from_line(domain: ParamInterval, line: LinearFn, label: int | None = None) -> "PWLFunction":
        labels = (label,) if label is not None else None
        return PWLFunction(domain, (), (line,), labels)

    def piece_index(self, lam: Fraction) -> int:
        if not self.domain.contains(lam):
            raise ValueError(f"{lam} outside domain {self.domain}")
        return bisect_left(self.cuts, lam)

    def value_at(self, lam: Fraction) -> Fraction:
        return self.pieces[self.piece_index(lam)](lam)

    def label_at(self, lam: Fraction) -> int | None:
        """Winning label at ``lam``; at a cut, the smaller adjacent label."""
        if self.labels is None:
            return None
        idx = self.piece_index(lam)
        if idx < len(self.cuts) and self.cuts[idx] == lam:
            return min(self.labels[idx], self.labels[idx + 1])
        return self.labels[idx]

    def drop_labels(self) -> "PWLFunction":
        if self.labels is None:
            return self
        return PWLFunction.build(self.domain, self.cuts, self.pieces, None)

    def piece_windows(self) -> list[tuple[ExtendedRational, ExtendedRational, LinearFn, int | None]]:
        """The pieces as (start, end, line, label) with extended endpoints."""
        bounds = [self.domain.lo] + [extended(c) for c in self.cuts] + [self.domain.hi]
        out = []
        for i, piece in enumerate(self.pieces):
            label = self.labels[i] if self.labels is not None else None
            out.append((bounds[i], bounds[i + 1], piece, label))
        return out


def pwl_equal(f: PWLFunction, g: PWLFunction) -> bool:
    """Exact equality as functions: identical normalized cuts and pieces.

    Labels are ignored.  Requires equal domains.
    """
    if f.domain != g.domain:
        raise ValueError(f"domains differ: {f.domain} vs {g.domain}")
    fn, gn = f.drop_labels(), g.drop_labels()
    return fn.cuts == gn.cuts and fn.pieces == gn.pieces


def envelope_of_lines(
    lines: Sequence[tuple[int, LinearFn]], window: ParamInterval
) -> PWLFunction:
    """Pointwise maximum of labeled lines, restricted to ``window``.

    Value ties are resolved toward the smallest label.  The result is
    normalized; the classic slope-ordered hull construction keeps the total
    work at O(n log n).  The hull runs on the lines scaled to integers over
    their common denominator: slopes are int keys, crossings are compared by
    cross-multiplication, and only the cuts inside ``window`` become
    ``Fraction`` values.
    """
    if not lines:
        raise ValueError("need at least one line")
    if not window.is_proper:
        raise ValueError(f"degenerate window {window}")

    scale = lcm(*(d for _, ln in lines for d in (ln.a.denominator, ln.b.denominator)))
    # For equal slopes only the highest intercept can ever win; among fully
    # identical lines the smallest label represents the tie.
    best_per_slope: dict[int, tuple[int, int, LinearFn]] = {}
    for label, line in lines:
        a = line.a.numerator * (scale // line.a.denominator)
        b = line.b.numerator * (scale // line.b.denominator)
        incumbent = best_per_slope.get(b)
        if (
            incumbent is None
            or a > incumbent[0]
            or (a == incumbent[0] and label < incumbent[1])
        ):
            best_per_slope[b] = (a, label, line)

    # hull[i] and hull[i + 1] cross at crossings[i] = num / den, with den > 0.
    hull: list[tuple[int, int, int, LinearFn]] = []
    crossings: list[tuple[int, int]] = []
    for b in sorted(best_per_slope):
        a, label, line = best_per_slope[b]
        while hull:
            num, den = hull[-1][0] - a, b - hull[-1][1]
            if crossings and num * crossings[-1][1] <= crossings[-1][0] * den:
                hull.pop()
                crossings.pop()
                continue
            crossings.append((num, den))
            break
        hull.append((a, b, label, line))

    first, last = 0, len(crossings)
    if window.lo.is_finite:
        p, q = window.lo.value.numerator, window.lo.value.denominator
        first = sum(1 for num, den in crossings if num * q <= p * den)
    if window.hi.is_finite:
        p, q = window.hi.value.numerator, window.hi.value.denominator
        last = sum(1 for num, den in crossings if num * q < p * den)
    segment = hull[first : last + 1]
    return PWLFunction.build(
        window,
        [Fraction(num, den) for num, den in crossings[first:last]],
        [line for _, _, _, line in segment],
        [label for _, _, label, _ in segment],
    )


def envelope_of_pwl(
    fs: Sequence[tuple[int, PWLFunction]], window: ParamInterval
) -> PWLFunction:
    """Pointwise maximum of labeled piecewise-linear functions on ``window``.

    Every input must be defined on all of ``window``.  The inputs' cuts
    strictly inside ``window`` split it into sub-windows on which every input
    is a single line; each sub-window takes one :func:`envelope_of_lines` over
    the pieces of all inputs there, and :func:`stitch` joins the results.  The
    cost is one line envelope over all ``t`` inputs per sub-window.  Each open
    piece is labeled with the smallest label among its maximizers.
    """
    if not fs:
        raise ValueError("need at least one function")
    if not window.is_proper:
        raise ValueError(f"degenerate window {window}")
    for _, fn in fs:
        if not (fn.domain.lo <= window.lo and window.hi <= fn.domain.hi):
            raise ValueError(f"window {window} not inside domain {fn.domain}")
    cuts = sorted({c for _, fn in fs for c in fn.cuts if window.strictly_inside(c)})
    bounds = [window.lo] + [extended(c) for c in cuts] + [window.hi]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        sub = ParamInterval(lo, hi)
        rep = sub.representative()
        lines = [(label, fn.pieces[bisect_left(fn.cuts, rep)]) for label, fn in fs]
        parts.append(envelope_of_lines(lines, sub))
    return stitch(window, parts)


def stitch(domain: ParamInterval, parts: Sequence[PWLFunction]) -> PWLFunction:
    """Join labeled functions whose domains tile ``domain``, left to right.

    The start of every part after the first becomes a cut; a single
    :meth:`PWLFunction.build` checks continuity at those seams and merges the
    ones across which neither the line nor the label changes.  The oracle
    (:func:`.oracle.solve_bruteforce`) keeps its own copy of this loop on
    purpose: the reference solver shares no assembly code with the solvers
    it checks.
    """
    cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    labels: list[int] = []
    for part in parts:
        if pieces:
            cuts.append(part.domain.lo.value)
        cuts.extend(part.cuts)
        pieces.extend(part.pieces)
        labels.extend(part.labels)
    return PWLFunction.build(domain, cuts, pieces, labels)
