"""Parametric linear weights and exact piecewise-linear upper envelopes.

A weight is a line ``a + lam*b``; a value function is a continuous piecewise
linear function stored as interior cut positions plus one line per piece, so
unbounded domains need no special vertices.  Upper envelopes are exact and
built one way: integer hull passes (:func:`upper_hull`), each over the lines
of a window on which every input is a single line, fill one set of cut,
piece and label lists, and one :meth:`PWLFunction.build` turns them into the
result.  :func:`envelope_of_pwl` runs one pass per window between its
inputs' cuts, for the naive solver's removal gains and the oracle's removal
optima, and the window solver one pass per run of windows;
:func:`envelope_of_lines` is the one-window case of :func:`envelope_of_pwl`.
:func:`pwl_sum` adds two functions on one domain, the naive solver's plain
optimum to its envelope of removal gains.  Ties in
value are broken by the smallest element id so the winning labels are
reproducible across solvers and platforms.

Normalization: a cut is kept only if the line, or the piece label, changes
across it.  Label-only cuts (same line, different winner) can occur when two
elements tie along a whole piece; value-level comparisons always ignore them
(see :func:`pwl_equal`).

Validation: every cut is checked once, where it enters a function.
:meth:`PWLFunction.build` checks its cuts in integers (order and continuity
by cross-multiplication, no line evaluated in ``Fraction``), seams between
hull passes included; :meth:`PWLFunction.drop_labels` only normalizes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .rationals import (
    ExtendedRational,
    ParamInterval,
    extended,
    rational,
)


@dataclass(frozen=True, slots=True)
class LinearFn:
    """The line ``a + lam*b`` (intercept ``a``, slope ``b``), exactly."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))

    def __call__(self, lam: Fraction) -> Fraction:
        return self.a + lam * self.b

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*lam"


@dataclass(frozen=True, slots=True)
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


def _check_meet(left: LinearFn, right: LinearFn, cut: Fraction):
    """Raise :class:`PWLError` unless ``left(cut) == right(cut)``.

    With ``cut = p/q``, ``q * line(cut) = a*q + b*p``; the two sides are
    compared as integers by cross-multiplying the coefficients' denominators,
    so no ``Fraction`` is built unless the check fails.
    """
    if left is right:
        return
    p, q = cut.numerator, cut.denominator
    la, lb, ra, rb = left.a, left.b, right.a, right.b
    lad, lbd, rad, rbd = la.denominator, lb.denominator, ra.denominator, rb.denominator
    if (la.numerator * lbd * q + lb.numerator * lad * p) * (rad * rbd) != (
        ra.numerator * rbd * q + rb.numerator * rad * p
    ) * (lad * lbd):
        raise PWLError(f"discontinuity at {cut}: {left(cut)} != {right(cut)}")


def _merged(
    domain: ParamInterval,
    cuts: Sequence[Fraction],
    pieces: Sequence[LinearFn],
    labels: Sequence[int] | None,
) -> "PWLFunction":
    """Drop every cut across which neither the line nor the label changes.

    No validation: the caller has checked the cuts and pieces.
    """
    out_cuts: list[Fraction] = []
    out_pieces: list[LinearFn] = [pieces[0]]
    out_labels: list[int] | None = [labels[0]] if labels is not None else None
    for i, cut in enumerate(cuts):
        piece = pieces[i + 1]
        label = labels[i + 1] if labels is not None else None
        same_line = piece is out_pieces[-1] or piece == out_pieces[-1]
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
        cuts, or a discontinuity.  Each cut is checked once: strictly
        increasing cuts are all interior once the outermost two are, and
        order and continuity are integer identities (cross-multiplied
        numerators and denominators, see :func:`_check_meet`).  Merges
        every cut across which neither the line nor the label changes.
        """
        if not domain.is_proper:
            raise PWLError(f"degenerate domain {domain}")
        if len(pieces) != len(cuts) + 1:
            raise PWLError(
                f"{len(pieces)} pieces do not fit {len(cuts)} cuts"
            )
        if labels is not None and len(labels) != len(pieces):
            raise PWLError("labels must be one per piece")
        inside = domain.strictly_inside
        if cuts and not (inside(cuts[0]) and inside(cuts[-1])):
            outside = next(cut for cut in cuts if not inside(cut))
            raise PWLError(f"cut {outside} not interior to {domain}")
        for i, cut in enumerate(cuts):
            p, q = cut.numerator, cut.denominator
            if i > 0 and not prev_p * q < p * prev_q:
                raise PWLError(f"cuts not strictly increasing at {cut}")
            prev_p, prev_q = p, q
            _check_meet(pieces[i], pieces[i + 1], cut)
        return _merged(domain, cuts, pieces, labels)

    @staticmethod
    def from_line(domain: ParamInterval, line: LinearFn) -> "PWLFunction":
        return PWLFunction(domain, (), (line,))

    def piece_index(self, lam: Fraction) -> int:
        if not self.domain.contains(lam):
            raise ValueError(f"{lam} outside domain {self.domain}")
        return bisect_left(self.cuts, lam)

    def value_at(self, lam: Fraction) -> Fraction:
        return self.pieces[self.piece_index(lam)](lam)

    def drop_labels(self) -> "PWLFunction":
        """The same function unlabeled; label-only cuts merge, nothing is re-checked."""
        if self.labels is None:
            return self
        return _merged(self.domain, self.cuts, self.pieces, None)

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


def upper_hull(
    lines: Iterable[tuple[int, int, int, LinearFn]],
    lo: Fraction | None,
    hi: Fraction | None,
    cuts: list[Fraction],
    pieces: list[LinearFn],
    labels: list[int],
    scale: int,
):
    """Append the labeled upper envelope of lines on ``[lo, hi]`` to
    ``cuts``, ``pieces`` and ``labels``; None marks an unbounded end.

    Each line comes as ``(a, b, label, line)``: its intercept and slope as
    integers over ``scale``, shared by all of them, and its
    :class:`LinearFn`, or None to build ``(a + lam*b) / scale`` only if the
    line wins a piece.  Slopes are int keys, crossings are compared by
    cross-multiplication, and only the crossings strictly inside the window
    become ``Fraction`` cuts.
    """
    # For equal slopes only the highest intercept can ever win; among fully
    # identical lines the smallest label represents the tie.
    best_per_slope: dict[int, tuple[int, int, LinearFn]] = {}
    for a, b, label, line in lines:
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
    if lo is not None:
        p, q = lo.numerator, lo.denominator
        first = sum(1 for num, den in crossings if num * q <= p * den)
    if hi is not None:
        p, q = hi.numerator, hi.denominator
        last = sum(1 for num, den in crossings if num * q < p * den)
    cuts.extend(Fraction(num, den) for num, den in crossings[first:last])
    for a, b, label, line in hull[first : last + 1]:
        pieces.append(
            line if line is not None else LinearFn(Fraction(a, scale), Fraction(b, scale))
        )
        labels.append(label)


def common_scale(lines: Iterable[LinearFn]) -> int:
    """The lcm of every coefficient denominator of ``lines`` (1 for none)."""
    return lcm(*{d for line in lines for d in (line.a.denominator, line.b.denominator)})


def scaled_line(line: LinearFn, scale: int) -> tuple[int, int]:
    """The coefficients of ``line`` times ``scale``, a multiple of their
    denominators, as integers.

    A line already over ``scale`` (every integer line over 1) gives its own
    numerators, not equal products: a cached scaling then holds no new ints.
    """
    a, b = line.a, line.b
    if a.denominator == b.denominator == scale:
        return a.numerator, b.numerator
    return a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator)


def envelope_of_lines(
    lines: Sequence[tuple[int, LinearFn]], window: ParamInterval
) -> PWLFunction:
    """Pointwise maximum of labeled lines on ``window``: the one-window case of
    :func:`envelope_of_pwl`, value ties resolved toward the smallest label."""
    if not lines:
        raise ValueError("need at least one line")
    return envelope_of_pwl(
        [(label, PWLFunction.from_line(window, line)) for label, line in lines], window
    )


def envelope_of_pwl(
    fs: Sequence[tuple[int, PWLFunction]], window: ParamInterval
) -> PWLFunction:
    """Pointwise maximum of labeled piecewise-linear functions on ``window``.

    Every input must be defined on all of ``window``.  The inputs' cuts
    strictly inside ``window`` split it into sub-windows on which every input
    is a single line; each sub-window takes one integer hull pass
    (:func:`upper_hull`) over the pieces of all inputs there.  Each distinct
    piece object is scaled to integers once, over one common denominator,
    and each input steps to its next scaled piece at each of its own cuts,
    so no piece is searched for.  The cuts are grouped by their integer
    ``(numerator, denominator)`` pairs and ordered by exact integer keys.
    The hull crossings and the sub-window seams go to one
    :meth:`PWLFunction.build`, which checks every cut and merges each seam
    across which neither the line nor the label changes.  Each open piece is
    labeled with the smallest label among its maximizers.
    """
    if not fs:
        raise ValueError("need at least one function")
    if not window.is_proper:
        raise ValueError(f"degenerate window {window}")
    for _, fn in fs:
        if not (fn.domain.lo <= window.lo and window.hi <= fn.domain.hi):
            raise ValueError(f"window {window} not inside domain {fn.domain}")
    lo = window.lo.value if window.lo.is_finite else None
    hi = window.hi.value if window.hi.is_finite else None
    # spans[j]: input j's pieces on the window; owners[(p, q)]: the cut p/q
    # and the inputs with a cut there.
    spans: list[tuple[int, Sequence[LinearFn]]] = []
    owners: dict[tuple[int, int], tuple[Fraction, list[int]]] = {}
    for j, (label, fn) in enumerate(fs):
        start = 0 if lo is None else bisect_right(fn.cuts, lo)
        stop = len(fn.cuts) if hi is None else bisect_left(fn.cuts, hi)
        for cut in fn.cuts[start:stop]:
            owners.setdefault(cut.as_integer_ratio(), (cut, []))[1].append(j)
        spans.append((label, fn.pieces[start : stop + 1]))
    distinct = {id(line): line for _, span in spans for line in span}
    scale = common_scale(distinct.values())
    scaled = {key: scaled_line(line, scale) for key, line in distinct.items()}
    # steps[j] yields input j's pieces, scaled; current[j] is the one in force.
    steps = [
        iter([(*scaled[id(line)], label, line) for line in span])
        for label, span in spans
    ]
    current = [next(step) for step in steps]
    cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    labels: list[int] = []
    # (p << s) // q orders the cuts exactly, as in interior_crossings: two
    # different cuts over denominators below 2**(s/2) differ by more than 2**-s.
    shift = 2 * max((q for _, q in owners), default=0).bit_length()
    for p, q in sorted(owners, key=lambda ratio: (ratio[0] << shift) // ratio[1]):
        cut, owned = owners[p, q]
        upper_hull(current, lo, cut, cuts, pieces, labels, scale)
        cuts.append(cut)
        for j in owned:
            current[j] = next(steps[j])
        lo = cut
    upper_hull(current, lo, hi, cuts, pieces, labels, scale)
    return PWLFunction.build(window, cuts, pieces, labels)


def pwl_sum(left: PWLFunction, right: PWLFunction) -> PWLFunction:
    """The pointwise sum of two functions on one domain, with ``left``'s labels.

    Its cuts are the union of both inputs' cuts, each piece the sum of the
    two pieces in force there under the label of ``left``'s.  One
    :meth:`PWLFunction.build` checks every cut and merges each across which
    neither the summed line nor the label changes, such as a cut of both
    inputs whose slope changes cancel.
    """
    if left.domain != right.domain:
        raise ValueError(f"domains differ: {left.domain} vs {right.domain}")
    lc, rc = left.cuts, right.cuts
    cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    labels: list[int] | None = [] if left.labels is not None else None
    i = j = 0
    while True:
        lp, rp = left.pieces[i], right.pieces[j]
        pieces.append(LinearFn(lp.a + rp.a, lp.b + rp.b))
        if labels is not None:
            labels.append(left.labels[i])  # type: ignore[index]
        if i < len(lc) and (j == len(rc) or lc[i] <= rc[j]):
            cut = lc[i]
            i += 1
            if j < len(rc) and rc[j] == cut:
                j += 1
        elif j < len(rc):
            cut = rc[j]
            j += 1
        else:
            break
        cuts.append(cut)
    return PWLFunction.build(left.domain, cuts, pieces, labels)
