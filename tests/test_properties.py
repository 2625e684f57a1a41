"""Property-based differential tests on tie-heavy instances.

Small graphic, uniform and doubled instances with weight coefficients in
{-2, ..., 2}, or in a few fractions with mixed denominators, so coincident
crossings, parallel and identical weight lines are the common case, over
bounded, half-bounded and unbounded intervals.  The three solvers must agree
exactly, the integer order kernel must agree with ``Fraction`` arithmetic,
the incremental candidate filter (its lone marks included) must agree with a
recomputation by rank tests, the integer line envelope with a plain one, and
every ``check`` self-check must pass.  The integer continuity check,
crossing order and crossing grouping are also run on coefficients up to
2**80 with values 2**-70 apart, and the crossing order on values about as
close as its integer key can tell apart, against
``Fraction`` arithmetic; the crossings at one value must share one
``Fraction``.  The bundle order is checked against the exact perturbed
crossing positions, the schedule's recorded walk against that order, its
value function against one found from its cuts and bases on instances with
several swaps at one value, and every exchange answer
against a plain independence test.  Each backend's one-loop independence
and greedy kernels are checked against its incremental builder, every
replacement scan against the cheapest exchange by (key, id) under both key
kinds, the coloop scan against the rank-drop definition on multigraphs with
loops and parallel edges and on uniform and doubled backends, the coloops,
basis and flags of a restriction grown in any order against the same
definition and a fresh builder run, the single-pass
envelope of piecewise-linear functions against line envelopes per window
joined by :func:`stitch`, the window solver, which carries a basis across
candidate values and builds one envelope, against one greedy run and one line
envelope per window, joined the same way, and the removal sweep, which keeps
one replacement per basis member, against the sweep over k deleted bases that
it replaced, on multigraphs, uniform instances up to k = m - 1 and doubles;
on the same instances, the naive solver's labeled envelope of removal gains
plus the plain optimum against the labeled envelope of that sweep's removal
optima.  On the same instances and on several swaps at one value, the sweep,
which walks lone crossings inline, against a sweep that sends every value
through the bundle order and :func:`.advance_min_basis`, and the gains walk,
which skips the crossings whose e no member holds, against a walk that skips
none (``sweep_reference``).  Examples are derandomized so every run checks
the same instances.
"""

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby, product
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matroid_interdiction import (
    EqualityPoint,
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    MatroidView,
    ParamInterval,
    PWLFunction,
    UniformMatroid,
    doubled_graphic_instance,
    doubled_instance,
    envelope_of_lines,
    envelope_of_pwl,
    equality_point,
    find_candidates,
    parametric_min_basis,
    removal_value_functions,
    solve_bruteforce,
    solve_intervals,
    solve_naive,
)
from matroid_interdiction.cli import _run_checks
from matroid_interdiction.instances import dump_solution
from matroid_interdiction import interdiction
from matroid_interdiction.interdiction import (
    CandidateEntry,
    naive_solution,
    removal_gains,
    window_solution,
)
from matroid_interdiction.matroid import DoubledMatroid, GrowingRestriction
from matroid_interdiction.pwl import PWLError
from matroid_interdiction.parametric import (
    RANK_ZERO,
    BasisSchedule,
    BasisSums,
    checked_view,
    interior_crossings,
    perturbed_bundle_order,
    start_representative,
)
from matroid_interdiction.rationals import extended
from matroid_interdiction.solution import Solution, build_solution
from subsets import subset_min_basis, subset_rank
from sweep_reference import group_by_lambda, reference_min_basis, reference_removal_gains

INTEGER_COEFF = st.sampled_from(range(-2, 3))
# Mixed denominators make the common scale of the integer kernel 6, not 1.
FRACTION_COEFF = st.sampled_from(
    [Fraction(p, q) for p, q in ((-1, 1), (-2, 3), (-1, 2), (-1, 3), (0, 1),
                                 (1, 3), (1, 2), (2, 3), (1, 1))]
)
INTERVALS = st.sampled_from(
    [
        ParamInterval.closed(-2, 2),
        ParamInterval.closed(0, 1),
        ParamInterval.closed("-inf", "inf"),
        ParamInterval.closed("-inf", 1),
        ParamInterval.closed(-1, "inf"),
    ]
)


@st.composite
def weight_lines(draw, m: int) -> tuple[LinearFn, ...]:
    coeff = draw(st.sampled_from([INTEGER_COEFF, INTEGER_COEFF, FRACTION_COEFF]))
    shape = draw(st.sampled_from(["free"] * 3 + ["all-parallel", "all-identical"]))
    if shape == "all-identical":
        return (LinearFn(draw(coeff), draw(coeff)),) * m
    if shape == "all-parallel":
        slope = draw(coeff)
        return tuple(LinearFn(draw(coeff), slope) for _ in range(m))
    return tuple(LinearFn(draw(coeff), draw(coeff)) for _ in range(m))


@st.composite
def graphic_backends(draw, max_edges: int, bridges_ok: bool) -> GraphicMatroid:
    """A connected multigraph, possibly with self-loops.

    Without ``bridges_ok`` it is a Hamiltonian cycle plus chords, which has
    no coloops; with it, a random spanning tree plus extra edges.
    """
    n = draw(st.integers(2, 5))
    order = draw(st.permutations(range(n)))
    if bridges_ok:
        edges = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    else:
        edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    node = st.integers(0, n - 1)
    extra = draw(
        st.lists(st.tuples(node, node), min_size=1, max_size=max_edges - len(edges))
    )
    return GraphicMatroid(n, tuple(edges) + tuple(extra))


@st.composite
def uniform_backends(draw, max_size: int, coloops_ok: bool) -> UniformMatroid:
    m = draw(st.integers(3, max_size))
    k = draw(st.integers(1, m if coloops_ok else m - 1))
    return UniformMatroid(m, k)


@st.composite
def instances(draw, coloops_ok: bool = False) -> MatroidInstance:
    """Solver inputs; ``coloops_ok`` also admits bridges and uniform k = m."""
    kind = draw(st.sampled_from(["graphic", "uniform", "doubled"]))
    if kind == "doubled":
        # Doubling repairs every coloop, so the base may have bridges.
        backend = draw(
            st.one_of(
                graphic_backends(5, bridges_ok=True),
                uniform_backends(4, coloops_ok=True),
            )
        )
    elif kind == "graphic":
        backend = draw(graphic_backends(8, bridges_ok=coloops_ok))
    else:
        backend = draw(uniform_backends(7, coloops_ok=coloops_ok))
    inst = MatroidInstance(
        backend, draw(weight_lines(backend.size)), draw(INTERVALS), ""
    )
    return doubled_instance(inst) if kind == "doubled" else inst


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_three_solvers_agree_exactly(inst):
    naive = solve_naive(inst)
    assert solve_intervals(inst) == naive
    assert solve_bruteforce(inst) == naive


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    instances(),
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        min_size=1,
        max_size=4,
    ),
    st.data(),
)
def test_integer_kernel_matches_fraction_arithmetic(inst, lams, data):
    # Equal comparisons and ties imply equal (key, id) sorts, i.e. equal greedy runs.
    for lam in lams:
        order, weight = inst.order_at(lam), inst.weights_at(lam)
        for e, f in product(range(inst.m), repeat=2):
            assert (order(e) < order(f)) == (weight(e) < weight(f))
            assert (order(e) == order(f)) == (weight(e) == weight(f))

    expected = [
        pt
        for i, j in combinations(range(inst.m), 2)
        for pt in (equality_point(i, inst.weights[i], j, inst.weights[j]),)
        if pt is not None and inst.interval.strictly_inside(pt.lam)
    ]
    expected.sort(key=lambda p: (p.lam, p.lighter_before, p.lighter_after))
    assert interior_crossings(inst) == expected
    fraction_slopes = [w.b for w in inst.weights]
    for _, group in group_by_lambda(expected):
        assert perturbed_bundle_order(group, inst.scaled.b) == perturbed_bundle_order(
            group, fraction_slopes
        )

    subset = data.draw(st.frozensets(st.integers(0, inst.m - 1)))
    line = inst.basis_line(subset)
    assert line.a == sum((inst.weights[e].a for e in subset), Fraction(0))
    assert line.b == sum((inst.weights[e].b for e in subset), Fraction(0))


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_schedule_walk_puts_each_bundle_in_perturbed_order(inst):
    schedule = parametric_min_basis(inst)
    assert schedule.walk == tuple(
        pt
        for _, group in group_by_lambda(schedule.points)
        for pt in perturbed_bundle_order(group, inst.scaled.b)
    )


@st.composite
def swap_bundles(draw) -> MatroidInstance:
    """Tie-heavy instances with k >= 2 basis swaps at one value.

    A uniform matroid U(k, m), sometimes doubled, whose first 2k lines have
    distinct slopes and meet at one point at lam = 1/2, inside every interval
    of INTERVALS: the k steepest are the basis just left of it and the k
    shallowest just right of it.  The other lines, as tied among themselves
    as :func:`weight_lines` makes them, are lifted to be heavier there.
    """
    k = draw(st.integers(2, 3))
    centre, height = Fraction(1, 2), draw(INTEGER_COEFF)
    slopes = draw(st.sets(st.integers(-3, 3), min_size=2 * k, max_size=2 * k))
    lines = [LinearFn(height - b * centre, b) for b in slopes]
    for line in draw(weight_lines(draw(st.integers(0, 3)))):
        lift = max(height + 1 - line(centre), Fraction(0))
        lines.append(LinearFn(line.a + lift, line.b))
    lines = draw(st.permutations(lines))
    inst = MatroidInstance(UniformMatroid(len(lines), k), tuple(lines), draw(INTERVALS))
    return doubled_instance(inst) if draw(st.booleans()) else inst


def schedule_value(
    inst: MatroidInstance, cuts: Sequence[Fraction], bases: Sequence[frozenset[int]]
) -> PWLFunction:
    """The plain value function from a schedule's cuts and bases: each
    basis's line on its window, skipping the zero-width windows inside a
    coincident bundle by comparing the windows' ends as extended rationals.

    The reference for the lines :func:`parametric_min_basis` records as it
    walks, found here from the cuts alone.
    """
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


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(swap_bundles())
def test_recorded_value_lines_match_the_reference_over_the_schedule(inst):
    schedule = parametric_min_basis(inst)
    assert len(set(schedule.cuts)) < len(schedule.cuts)  # several swaps at one value
    assert schedule.value == schedule_value(inst, schedule.cuts, schedule.bases)


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_every_structural_check_passes(inst):
    failed = [(name, detail) for name, ok, detail in _run_checks(inst) if not ok]
    assert not failed


def rank_drop_coloops(backend, elements) -> set[int]:
    """The coloops of the restriction to ``elements`` by definition: the ``g``
    whose deletion drops its rank."""
    elements = set(elements)
    rank = subset_rank(backend, elements)
    return {g for g in elements if subset_rank(backend, elements - {g}) < rank}


def recomputed_candidates(inst: MatroidInstance, crossings) -> list[CandidateEntry]:
    """The candidate filter with ranks and coloops recomputed per insertion by
    the rank-drop definition, and each crossing's lone mark from a count of
    the crossings per value.

    A singleton component of a restriction is a coloop or a loop, and a loop
    never joins another component, so "a singleton component joins f's" is
    "some coloop before the insertion is no coloop after it"."""
    per_value = Counter(pt.lam for pt in crossings)
    weight = inst.weights_at(start_representative(inst.interval, crossings))
    grown = [
        {
            f
            for f in range(inst.m)
            if f != e
            and weight(f) < weight(e)
            and inst.weights[f].b <= inst.weights[e].b
        }
        for e in range(inst.m)
    ]
    coloops = [rank_drop_coloops(inst.backend, restriction) for restriction in grown]
    out = []
    for pt in crossings:
        e, f = pt.lighter_before, pt.lighter_after
        rank_before = subset_rank(inst.backend, grown[e])
        grown[e].add(f)
        by_rank = subset_rank(inst.backend, grown[e]) > rank_before
        after = rank_drop_coloops(inst.backend, grown[e])
        by_singleton = bool(coloops[e] - after)
        coloops[e] = after
        if by_rank or by_singleton:
            out.append(CandidateEntry(pt, by_rank, by_singleton, per_value[pt.lam] == 1))
    return out


@st.composite
def window_instances(draw) -> MatroidInstance:
    """The solver inputs above, or their backends with coefficients in
    -9..9, where most candidate values hold one crossing and windows carry
    over, plus a few identical lines."""
    inst = draw(instances())
    if draw(st.booleans()):
        coeff = st.integers(-9, 9)
        lines = [LinearFn(draw(coeff), draw(coeff)) for _ in range(inst.m)]
        element = st.integers(0, inst.m - 1)
        for e, f in draw(st.lists(st.tuples(element, element), max_size=2)):
            lines[e] = lines[f]
        inst = MatroidInstance(inst.backend, tuple(lines), inst.interval, "")
    return inst


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances(coloops_ok=True))
def test_incremental_candidate_filter_matches_recomputed_components(inst):
    crossings = interior_crossings(inst)
    found = find_candidates(inst, crossings)
    assert list(found.entries) == recomputed_candidates(inst, crossings)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(window_instances())
def test_candidate_filter_matches_recomputed_components_on_lone_crossings(inst):
    # Coefficients in -9..9 make most crossings lone, over bounded and
    # unbounded intervals alike.
    crossings = interior_crossings(inst)
    found = find_candidates(inst, crossings)
    assert list(found.entries) == recomputed_candidates(inst, crossings)


# Denominators 2, 3 and 5 make the envelope's common scale 30.
MIXED_COEFF = st.sampled_from(
    sorted({Fraction(p, q) for q in (1, 2, 3, 5) for p in range(-2 * q, 2 * q + 1)})
)


@st.composite
def envelope_cases(draw) -> tuple[list[tuple[int, LinearFn]], ParamInterval]:
    """Free lines, a pencil through one point (coincident hull crossings) and
    copies of earlier lines (identical lines), under shuffled labels, over a
    window whose finite ends may sit on the pencil's point."""
    x0, y0 = draw(MIXED_COEFF), draw(MIXED_COEFF)
    free = draw(st.integers(0, 4))
    lines = [LinearFn(draw(MIXED_COEFF), draw(MIXED_COEFF)) for _ in range(free)]
    for b in draw(st.lists(MIXED_COEFF, max_size=4)):
        lines.append(LinearFn(y0 - b * x0, b))
    if not lines:
        lines.append(LinearFn(y0, 0))
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(st.sampled_from(lines)))
    labels = draw(st.permutations(range(len(lines))))
    end = st.one_of(MIXED_COEFF, st.just(x0))
    lo = draw(st.one_of(st.just("-inf"), end))
    hi = draw(st.one_of(st.just("inf"), end))
    if lo != "-inf" and hi != "inf" and not lo < hi:
        lo, hi = ("-inf", hi) if lo == hi else (hi, lo)
    return list(zip(labels, lines)), ParamInterval.closed(lo, hi)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(envelope_cases())
def test_line_envelope_is_the_pointwise_maximum(case):
    lines, window = case
    env = envelope_of_lines(lines, window)
    events = {
        pt.lam
        for (_, f), (_, g) in combinations(lines, 2)
        for pt in (equality_point(0, f, 1, g),)
        if pt is not None and window.strictly_inside(pt.lam)
    }
    events |= {end.value for end in (window.lo, window.hi) if end.is_finite}
    events = sorted(events) or [Fraction(0)]
    # Every event, a point between each pair of neighbours, and one beyond
    # each end that is open to infinity.
    between = [(lo + hi) / 2 for lo, hi in zip(events, events[1:])]
    if not window.lo.is_finite:
        between.append(events[0] - 1)
    if not window.hi.is_finite:
        between.append(events[-1] + 1)
    for lam in events + between:
        if window.contains(lam):
            assert env.value_at(lam) == max(line(lam) for _, line in lines)
    # Between events the maximizers are fixed: the label is the smallest one.
    for lam in between:
        top = max(line(lam) for _, line in lines)
        assert env.labels[env.piece_index(lam)] == min(
            label for label, line in lines if line(lam) == top
        )


# Huge coefficients: the integer checks must not lose exactness at any size.
HUGE = 2**80
TINY = Fraction(1, 2**70)
HUGE_FRACTION = st.builds(
    Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)
)


@st.composite
def joined_pieces(draw) -> tuple[list[Fraction], list[LinearFn]]:
    """Lines joined at increasing cuts, each seam exact or off by 2**-70."""
    cuts = sorted(draw(st.sets(HUGE_FRACTION, min_size=1, max_size=3)))
    pieces = [LinearFn(draw(HUGE_FRACTION), draw(HUGE_FRACTION))]
    for cut in cuts:
        left = pieces[-1]
        if draw(st.booleans()):
            pieces.append(left)
            continue
        slope = draw(HUGE_FRACTION)
        offset = draw(st.sampled_from([0, 0, TINY, -TINY]))
        pieces.append(LinearFn(left(cut) - slope * cut + offset, slope))
    return cuts, pieces


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(joined_pieces())
def test_integer_continuity_check_matches_fraction_arithmetic(case):
    cuts, pieces = case
    domain = ParamInterval.closed("-inf", "inf")
    broken = [
        (cut, left(cut), right(cut))
        for cut, left, right in zip(cuts, pieces, pieces[1:])
        if left(cut) != right(cut)
    ]
    if not broken:
        fn = PWLFunction.build(domain, cuts, pieces)
        assert [fn.value_at(cut) for cut in cuts] == [
            left(cut) for cut, left in zip(cuts, pieces)
        ]
        return
    cut, lhs, rhs = broken[0]
    with pytest.raises(PWLError) as err:
        PWLFunction.build(domain, cuts, pieces)
    assert str(err.value) == f"discontinuity at {cut}: {lhs} != {rhs}"


@st.composite
def close_crossings(draw) -> MatroidInstance:
    """Two pencils of lines through points 2**-70 apart (coincident bundles
    whose values share the integer sort key), plus free lines, all with
    coefficients up to 2**80, over an interval whose ends may sit on a pencil."""
    x0 = draw(HUGE_FRACTION)
    centres = [x0, x0 + TINY]
    lines = []
    for x in centres:
        y = draw(HUGE_FRACTION)
        for b in draw(st.sets(st.integers(-HUGE, HUGE), min_size=2, max_size=3)):
            lines.append(LinearFn(y - b * x, b))
    for _ in range(draw(st.integers(0, 2))):
        lines.append(LinearFn(draw(HUGE_FRACTION), draw(HUGE_FRACTION)))
    order = draw(st.permutations(range(len(lines))))
    end = st.sampled_from(centres + [x0 - 1, x0 + 1])
    lo = draw(st.one_of(st.just("-inf"), end))
    hi = draw(st.one_of(st.just("inf"), end))
    if lo != "-inf" and hi != "inf" and not lo < hi:
        lo, hi = ("-inf", hi) if lo == hi else (hi, lo)
    return MatroidInstance(
        UniformMatroid(len(lines), 1),
        tuple(lines[i] for i in order),
        ParamInterval.closed(lo, hi),
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(close_crossings())
def test_integer_crossing_order_is_the_exact_order(inst):
    points = [
        pt
        for i, j in combinations(range(inst.m), 2)
        for pt in (equality_point(i, inst.weights[i], j, inst.weights[j]),)
        if pt is not None and inst.interval.strictly_inside(pt.lam)
    ]
    expected = sorted(points, key=lambda p: (p.lam, p.lighter_before, p.lighter_after))
    assert interior_crossings(inst) == expected


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(instances(), close_crossings()))
def test_crossings_share_one_fraction_per_value_and_group_by_value(inst):
    points = interior_crossings(inst)
    for p, q in zip(points, points[1:]):
        assert (p.lam is q.lam) == (p.lam == q.lam)
    # Unshared copies check the grouping on any sorted input, not just shared ones.
    unshared = [
        EqualityPoint(
            p.lighter_before, p.lighter_after, Fraction(p.lam.numerator, p.lam.denominator)
        )
        for p in points
    ]
    for pts in (points, unshared):
        expected = [(lam, list(group)) for lam, group in groupby(pts, key=lambda p: p.lam)]
        assert group_by_lambda(pts) == expected


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@st.composite
def near_ties(draw) -> MatroidInstance:
    """Crossings about as close as the integer sort key can tell apart.

    With Fibonacci numbers ``F``, the lines ``F(n+1)*(lam - x) - F(n)`` and
    ``F(n+2)*(lam - x) - F(n+1)`` meet the zero line at ``x + F(n)/F(n+1)``
    and ``x + F(n+1)/F(n+2)``, only ``1/(F(n+1)*F(n+2))`` apart: about the
    reciprocal of the squared slope spread, and below ``2**-64`` for the
    ``n`` drawn here.  Each line is scaled by its own positive rational, which
    keeps those two crossings, and free lines with coefficients up to
    ``2**80`` join them, over an interval whose ends may sit on a crossing.
    """
    n = draw(st.integers(50, 90))
    f0, f1, f2 = fibonacci(n), fibonacci(n + 1), fibonacci(n + 2)
    x = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 8)))
    factor = st.builds(Fraction, st.integers(1, 2**8), st.integers(1, 2**8))
    lines = [LinearFn(0, 0)] + [
        LinearFn(c * (-slope * x - drop), c * slope)
        for slope, drop in ((f1, f0), (f2, f1))
        for c in (draw(factor),)
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(LinearFn(draw(HUGE_FRACTION), draw(HUGE_FRACTION)))
    lines = draw(st.permutations(lines))
    ends = sorted({x, x + Fraction(f0, f1), x + Fraction(f1, f2), x + 1})
    lo = draw(st.sampled_from(["-inf", *ends[:-1]]))
    hi = draw(st.sampled_from(["inf", *(end for end in ends if lo == "-inf" or end > lo)]))
    return MatroidInstance(
        UniformMatroid(len(lines), 1), tuple(lines), ParamInterval.closed(lo, hi)
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(near_ties())
def test_near_tie_crossings_take_the_exact_order_and_share_one_fraction(inst):
    points = [
        pt
        for i, j in combinations(range(inst.m), 2)
        for pt in (equality_point(i, inst.weights[i], j, inst.weights[j]),)
        if pt is not None and inst.interval.strictly_inside(pt.lam)
    ]
    expected = sorted(points, key=lambda p: (p.lam, p.lighter_before, p.lighter_after))
    found = interior_crossings(inst)
    assert found == expected
    shared: dict[Fraction, Fraction] = {}
    for pt in found:
        assert shared.setdefault(pt.lam, pt.lam) is pt.lam


@st.composite
def labeled_functions(draw) -> PWLFunction:
    """Continuous functions whose pieces often repeat a line, under few labels,
    so both label-only cuts and cuts that merge once labels go are common."""
    domain = draw(INTERVALS)
    inner = [c for c in (Fraction(k, 4) for k in range(-12, 13)) if domain.strictly_inside(c)]
    cuts = sorted(draw(st.sets(st.sampled_from(inner), max_size=6)))
    pieces = [LinearFn(draw(FRACTION_COEFF), draw(FRACTION_COEFF))]
    for cut in cuts:
        slope = draw(st.sampled_from([pieces[-1].b, pieces[-1].b, draw(FRACTION_COEFF)]))
        pieces.append(LinearFn(pieces[-1](cut) - slope * cut, slope))
    labels = [draw(st.integers(0, 2)) for _ in pieces]
    return PWLFunction.build(domain, cuts, pieces, labels)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(labeled_functions())
def test_drop_labels_is_the_checked_build_without_labels(fn):
    assert fn.drop_labels() == PWLFunction.build(fn.domain, fn.cuts, fn.pieces)


@st.composite
def bundles(draw) -> tuple[list[EqualityPoint], list[int]]:
    """Crossings at one value among ids below 16, slopes in +-2**7.

    A few small slopes make equal gaps and shared ids common."""
    slope = st.one_of(st.integers(-(2**7), 2**7), st.integers(-2, 2))
    slopes = draw(st.lists(slope, min_size=16, max_size=16))
    ids = draw(st.lists(st.integers(0, 15), min_size=2, max_size=7, unique=True))
    pairs = [(i, j) for i, j in combinations(ids, 2) if slopes[i] != slopes[j]]
    pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # the steeper line is the lighter one before the crossing
    group = [
        EqualityPoint(i, j, Fraction(0)) if slopes[i] > slopes[j]
        else EqualityPoint(j, i, Fraction(0))
        for i, j in pairs
    ]
    return group, slopes


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(bundles())
def test_bundle_order_is_the_perturbed_crossing_order(case):
    group, slopes = case
    eps = Fraction(1, 2**64)

    def position(pt):
        e, f = pt.lighter_before, pt.lighter_after
        return (eps ** (e + 1) - eps ** (f + 1)) / (slopes[e] - slopes[f])

    assert perturbed_bundle_order(group, slopes) == sorted(group, key=position)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances(coloops_ok=True), st.data())
def test_swap_is_one_independence_test(inst, data):
    view = inst.view()
    rank_of = data.draw(st.permutations(range(inst.m)))
    # A basis of the whole matroid, or one without an element, as in the oracle.
    deleted = data.draw(st.one_of(st.none(), st.integers(0, inst.m - 1)))
    basis = subset_min_basis(
        inst.backend, (x for x in range(inst.m) if x != deleted), rank_of.__getitem__)
    for e, f in product(range(inst.m), repeat=2):
        exchanged = basis - {e} | {f}
        expected = (
            exchanged
            if e in basis and f not in basis and view.is_independent(exchanged)
            else None
        )
        assert view.swap(basis, e, f) == expected


@st.composite
def multigraphs(draw) -> GraphicMatroid:
    """Random edges on a few nodes: self-loops, parallel edges and isolated
    nodes are all common."""
    n = draw(st.integers(1, 5))
    node = st.integers(0, n - 1)
    return GraphicMatroid(n, tuple(draw(st.lists(st.tuples(node, node), max_size=8))))


@st.composite
def any_uniform(draw) -> UniformMatroid:
    """k = 0, 0 < k < m and k >= m."""
    m = draw(st.integers(0, 6))
    return UniformMatroid(m, draw(st.integers(0, m + 2)))


KERNEL_BACKENDS = st.one_of(
    multigraphs(),
    any_uniform(),
    st.builds(DoubledMatroid, st.one_of(multigraphs(), any_uniform())),
)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(KERNEL_BACKENDS, st.data())
def test_independence_kernel_matches_the_builder(backend, data):
    subset = data.draw(
        st.lists(st.integers(0, backend.size - 1), unique=True)
        if backend.size
        else st.just([])
    )
    if isinstance(backend, DoubledMatroid) and subset and data.draw(st.booleans()):
        twin = backend.twin(subset[0])  # both twins of one pair
        if twin not in subset:
            subset.insert(data.draw(st.integers(0, len(subset))), twin)
    builder = backend.builder()
    expected = all(builder.add(e) for e in subset)
    assert backend.independent(subset) == expected
    assert backend.independent(frozenset(subset)) == expected


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    instances(coloops_ok=True),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.data(),
)
def test_replacement_element_is_the_cheapest_exchange(inst, lam, data):
    view = inst.view()
    rank_of = data.draw(st.permutations(range(inst.m)))
    basis = view.greedy_min_basis(rank_of.__getitem__)
    for key in (inst.weights_at(lam), inst.order_at(lam)):
        for e in basis:
            expected = min(
                (
                    (key(r), r)
                    for r in set(range(inst.m)) - basis
                    if view.is_independent(basis - {e} | {r})
                ),
                default=(None, None),
            )[1]
            assert view.replacement_element(basis, e, key) == expected


KEYS = {
    "int": st.integers(-1, 1),
    # 1/2 and 2/4 are one value: ties between Fractions, not only ints.
    "fraction": st.sampled_from([Fraction(-1, 3), Fraction(1, 2), Fraction(2, 4), Fraction(3, 2)]),
}


def builder_greedy(backend, order) -> frozenset[int]:
    builder = backend.builder()
    return frozenset(e for e in order if builder.add(e))


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(KERNEL_BACKENDS, st.sampled_from(sorted(KEYS)), st.data())
def test_greedy_kernel_matches_the_builder(backend, kind, data):
    m = backend.size
    keys = data.draw(st.lists(KEYS[kind], min_size=m, max_size=m))
    if isinstance(backend, DoubledMatroid) and m and data.draw(st.booleans()):
        keys[backend.twin(0)] = keys[0]  # both twins of a pair tied
    expected = subset_min_basis(backend, range(m), keys.__getitem__)
    assert MatroidView(backend).greedy_min_basis(keys.__getitem__) == expected
    # Any subset in any order, not only the sorted ground set.
    order = data.draw(st.lists(st.integers(0, m - 1), unique=True) if m else st.just([]))
    assert backend.greedy(order) == builder_greedy(backend, order)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    st.one_of(
        graphic_backends(8, bridges_ok=True),
        uniform_backends(7, coloops_ok=True),
        st.builds(DoubledMatroid, st.one_of(
            graphic_backends(5, bridges_ok=True), uniform_backends(4, coloops_ok=True))),
    ),
)
def test_coloop_scan_is_the_rank_drop_definition(backend):
    expected = rank_drop_coloops(backend, range(backend.size))
    assert MatroidView(backend).coloop_scan() == expected


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    st.one_of(
        graphic_backends(8, bridges_ok=True),
        uniform_backends(7, coloops_ok=True),
        st.builds(DoubledMatroid, st.one_of(
            graphic_backends(5, bridges_ok=True), uniform_backends(4, coloops_ok=True))),
    ),
    st.data(),
)
def test_growing_restriction_keeps_the_coloops_in_any_insertion_order(backend, data):
    ground = range(backend.size)
    if isinstance(backend, DoubledMatroid):
        n = backend.inner.size  # every inner element, only some of the twins
        ground = [*range(n), *data.draw(st.sets(st.integers(n, 2 * n - 1)))]
    order = data.draw(st.permutations(list(ground)))
    grower = GrowingRestriction(MatroidView(backend))
    rank, coloops = 0, set()
    for i, f in enumerate(order):
        grew, merged = grower.add(f)
        new_rank = subset_rank(backend, order[: i + 1])
        new_coloops = rank_drop_coloops(backend, order[: i + 1])
        assert grower.coloops == new_coloops
        assert (grew, merged) == (new_rank > rank, bool(coloops - new_coloops))
        rank, coloops = new_rank, new_coloops


def stitch(domain: ParamInterval, parts: list[PWLFunction]) -> PWLFunction:
    """Join labeled functions whose domains tile ``domain``, left to right.

    The reference join of the per-window envelopes below, independent of the
    single :meth:`PWLFunction.build` that the solvers make.  Every part's own
    cuts were checked when it was built; this checks that the parts tile
    ``domain`` and that the lines meet at every seam, in ``Fraction``
    arithmetic.  The start of every part after the first becomes a cut
    unless neither the line nor the label changes across it.
    """
    if not parts or parts[0].domain.lo != domain.lo or parts[-1].domain.hi != domain.hi:
        raise PWLError(f"parts do not tile {domain}")
    cuts = list(parts[0].cuts)
    pieces = list(parts[0].pieces)
    labels = list(parts[0].labels)
    for prev, part in zip(parts, parts[1:]):
        if prev.domain.hi != part.domain.lo:
            raise PWLError(f"parts do not tile {domain}")
        seam = part.domain.lo.value
        left, right = pieces[-1](seam), part.pieces[0](seam)
        if left != right:
            raise PWLError(f"discontinuity at {seam}: {left} != {right}")
        merge = part.pieces[0] == pieces[-1] and part.labels[0] == labels[-1]
        if not merge:
            cuts.append(seam)
        cuts.extend(part.cuts)
        pieces.extend(part.pieces[merge:])  # on a merge, part.pieces[0] equals pieces[-1]
        labels.extend(part.labels[merge:])
    return PWLFunction(domain, tuple(cuts), tuple(pieces), tuple(labels))


def envelope_by_windows(
    fs: list[tuple[int, PWLFunction]], window: ParamInterval
) -> PWLFunction:
    """The envelope by its definition: one line envelope on every window
    between the inputs' cuts, joined by :func:`stitch`."""
    inner = sorted({c for _, fn in fs for c in fn.cuts if window.strictly_inside(c)})
    bounds = [window.lo, *map(extended, inner), window.hi]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        sub = ParamInterval(lo, hi)
        rep = sub.representative()
        lines = [(label, fn.pieces[fn.piece_index(rep)]) for label, fn in fs]
        parts.append(envelope_of_lines(lines, sub))
    return stitch(window, parts)


@st.composite
def envelope_inputs(draw) -> tuple[list[tuple[int, PWLFunction]], ParamInterval]:
    """Functions over the whole line built from a small shared pool of lines,
    as upper or lower envelopes of some of them, so shared pieces, coincident
    cuts and identical inputs are common, and a window whose finite ends may
    fall on input cuts."""
    everywhere = ParamInterval.closed("-inf", "inf")
    coeff = st.one_of(INTEGER_COEFF, FRACTION_COEFF)
    pairs = st.tuples(coeff, coeff)
    pool = [
        LinearFn(a, b) for a, b in draw(st.lists(pairs, min_size=3, max_size=6, unique=True))
    ]
    shapes = st.sampled_from(["upper", "lower", "lower", "copy"])
    subsets = st.lists(st.sampled_from(pool), min_size=2, max_size=5, unique=True)
    fs: list[PWLFunction] = []
    for shape, chosen in draw(st.lists(st.tuples(shapes, subsets), min_size=1, max_size=6)):
        if shape == "copy" and fs:
            fs.append(draw(st.sampled_from(fs)))  # one function, several owners
        elif shape == "upper":
            fs.append(envelope_of_lines(list(enumerate(chosen)), everywhere).drop_labels())
        else:
            upper = envelope_of_lines(
                [(i, LinearFn(-ln.a, -ln.b)) for i, ln in enumerate(chosen)], everywhere
            )
            fs.append(PWLFunction.build(
                everywhere, upper.cuts, [LinearFn(-p.a, -p.b) for p in upper.pieces]
            ))
    labels = draw(st.permutations(range(len(fs))))
    # The window runs between two of the ends and cuts, in order, possibly
    # with a few arbitrary values among the cuts.
    extra = draw(st.sets(MIXED_COEFF, max_size=2))
    ends = ["-inf", *sorted({c for fn in fs for c in fn.cuts} | extra), "inf"]
    i = draw(st.sampled_from(range(len(ends) - 1)))
    lo, hi = ends[i], ends[draw(st.sampled_from(range(i + 1, len(ends))))]
    return list(zip(labels, fs)), ParamInterval.closed(lo, hi)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(envelope_inputs())
def test_single_envelope_pass_is_the_per_window_composition(case):
    fs, window = case
    # The same cuts, pieces and labels.
    assert envelope_of_pwl(fs, window) == envelope_by_windows(fs, window)


def window_states(inst: MatroidInstance, candidates):
    """``(window, basis, replacements)`` of every window between candidate
    values, each from its own greedy run and replacement scans."""
    view = checked_view(inst)
    bounds = [inst.interval.lo, *map(extended, candidates.lambdas()), inst.interval.hi]
    states = []
    for lo, hi in zip(bounds, bounds[1:]):
        window = ParamInterval(lo, hi)
        rep = window.representative()
        basis = view.greedy_min_basis(inst.order_at(rep))
        weight_at = inst.weights_at(rep)
        replacements = {e: view.replacement_element(basis, e, weight_at)
                        for e in sorted(basis)}
        states.append((window, basis, replacements))
    return states


def windows_one_by_one(inst: MatroidInstance, candidates) -> Solution:
    """The window solver without carry-over: one greedy run, k replacement
    scans and one line envelope on every window between candidate values."""
    parts = []
    for window, basis, replacements in window_states(inst, candidates):
        lines = [(e, inst.basis_line(basis - {e} | {r})) for e, r in replacements.items()]
        outside = min(set(range(inst.m)) - basis, default=None)
        if outside is not None:
            lines.append((outside, inst.basis_line(basis)))
        parts.append(envelope_of_lines(lines, window))
    return build_solution(inst, stitch(inst.interval, parts))


@settings(
    derandomize=True,
    max_examples=500,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(window_instances())
def test_window_carry_over_matches_one_run_per_window(inst):
    candidates = find_candidates(inst, interior_crossings(inst))
    dumped = [
        json.dumps(dump_solution(inst, solve(inst, candidates), {}), sort_keys=True).encode()
        for solve in (window_solution, windows_one_by_one)
    ]
    assert dumped[0] == dumped[1]


_FOLLOWS_MAIN = None  # sentinel line meaning "this element tracks the optimum"


def _assemble(
    inst: MatroidInstance,
    transitions: Sequence[tuple[Fraction | None, BasisSums | None]],
    main: PWLFunction,
) -> PWLFunction:
    """Splice explicit line spans with spans that track the main optimum."""
    cuts: list[Fraction] = []
    pieces: list[LinearFn] = []
    for i, (start, line) in enumerate(transitions):
        if start is not None:
            cuts.append(start)
        if line is not _FOLLOWS_MAIN:
            pieces.append(inst.sums_line(line))
            continue
        end = transitions[i + 1][0] if i + 1 < len(transitions) else None
        first = 0 if start is None else bisect_right(main.cuts, start)
        last = len(main.cuts) if end is None else bisect_left(main.cuts, end)
        pieces.append(main.pieces[first])
        for j in range(first + 1, last + 1):
            cuts.append(main.cuts[j - 1])
            pieces.append(main.pieces[j])
    return PWLFunction.build(main.domain, cuts, pieces)


def deleted_bases_sweep(
    inst: MatroidInstance, schedule: BasisSchedule
) -> dict[int, PWLFunction]:
    """The removal sweep as it was before it kept one replacement per member:
    one deleted basis per member, from a builder run without that member, each
    offered the exchange at every crossing it holds e but not f of."""
    basis = schedule.bases[0]
    if not basis:
        raise ValueError(RANK_ZERO)
    view = inst.view()
    _, a, b = inst.scaled
    order = inst.order_at(start_representative(inst.interval, schedule.points))
    deleted_bases = {
        g: subset_min_basis(inst.backend, (x for x in range(inst.m) if x != g), order)
        for g in basis
    }
    sums = {g: inst.basis_sums(bg) for g, bg in deleted_bases.items()}
    main_sums = inst.basis_sums(basis)

    own_transitions: dict[int, list[tuple[Fraction | None, BasisSums | None]]] = {
        e: [(None, sums[e] if e in basis else _FOLLOWS_MAIN)] for e in range(inst.m)
    }

    def record_own(e: int, lam: Fraction, line: BasisSums | None):
        transitions = own_transitions[e]
        if transitions[-1][0] == lam:
            transitions.pop()  # a zero-width span inside a bundle
        transitions.append((lam, line))

    main_swaps = zip(schedule.swaps, schedule.bases)
    main_swap, old_basis = next(main_swaps, (None, None))
    for pt in schedule.walk:
        e, f, lam = pt.lighter_before, pt.lighter_after, pt.lam
        for g, basis_g in deleted_bases.items():
            if e in basis_g and f not in basis_g and g != f:
                swapped = view.swap(basis_g, e, f)
                if swapped is not None:
                    deleted_bases[g] = swapped
                    sa, sb = sums[g]
                    sums[g] = line = (sa + a[f] - a[e], sb + b[f] - b[e])
                    record_own(g, lam, line)
        if (e, f) == main_swap:
            # e leaves: its deleted optimum now coincides with the plain
            # optimum; f enters: its deleted optimum is the old basis.
            del deleted_bases[e], sums[e]
            record_own(e, lam, _FOLLOWS_MAIN)
            deleted_bases[f], sums[f] = old_basis, main_sums
            record_own(f, lam, main_sums)
            sa, sb = main_sums
            main_sums = (sa + a[f] - a[e], sb + b[f] - b[e])
            main_swap, old_basis = next(main_swaps, (None, None))

    out: dict[int, PWLFunction] = {}
    for e in range(inst.m):
        transitions = own_transitions[e]
        if all(line is _FOLLOWS_MAIN for _, line in transitions):
            out[e] = schedule.value
        else:
            out[e] = _assemble(inst, transitions, schedule.value)
    return out


@st.composite
def removal_instances(draw) -> MatroidInstance:
    """Tie-heavy multigraphs with loops and parallel edges, uniform
    instances up to k = m - 1, and their doubles, by the twin backend or, for
    graphic ones, by parallel edges."""
    kind = draw(st.sampled_from(
        ["graphic", "uniform", "uniform-top", "doubled", "doubled-graphic"]))
    if kind == "graphic":
        backend = draw(graphic_backends(8, bridges_ok=False))
    elif kind == "uniform":
        backend = draw(uniform_backends(7, coloops_ok=False))
    elif kind == "uniform-top":
        m = draw(st.integers(2, 7))
        backend = UniformMatroid(m, m - 1)
    elif kind == "doubled":
        backend = draw(st.one_of(graphic_backends(5, bridges_ok=True),
                                 uniform_backends(4, coloops_ok=True)))
    else:
        backend = draw(graphic_backends(5, bridges_ok=True))
    inst = MatroidInstance(backend, draw(weight_lines(backend.size)), draw(INTERVALS), "")
    if kind == "doubled":
        return doubled_instance(inst)
    return doubled_graphic_instance(inst) if kind == "doubled-graphic" else inst


@settings(
    derandomize=True,
    max_examples=500,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(removal_instances())
def test_replacement_sweep_matches_the_deleted_bases_sweep(inst):
    schedule = parametric_min_basis(inst)
    # The same cuts, pieces and shared plain-value objects for every element.
    expected = deleted_bases_sweep(inst, schedule)
    found = removal_value_functions(inst, schedule)
    assert found == expected
    assert all((found[e] is schedule.value) == (expected[e] is schedule.value)
               for e in range(inst.m))


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(removal_instances())
def test_plain_optimum_plus_gain_envelope_is_the_removal_envelope(inst):
    # Adding the plain optimum to every removal gain moves no maximizer, so
    # the labeled envelope naive_solution builds from the gains is the one of
    # the reference removal optima, cut for cut and label for label.
    schedule = parametric_min_basis(inst)
    reference = deleted_bases_sweep(inst, schedule)
    distinct: dict[int, tuple[int, PWLFunction]] = {}
    for e in range(inst.m):
        distinct.setdefault(id(reference[e]), (e, reference[e]))
    expected = envelope_of_pwl(list(distinct.values()), inst.interval)
    gains = removal_gains(inst, schedule)
    with mock.patch.object(interdiction, "build_solution", wraps=build_solution) as built:
        naive = naive_solution(inst, schedule, gains)
    (_, labeled), _ = built.call_args
    assert labeled == expected
    assert naive == build_solution(inst, expected)
    # Exactly the elements whose reference removal optimum is the plain one
    # itself share one zero gain.
    shared = {id(gains[e]) for e in range(inst.m) if reference[e] is schedule.value}
    assert len(shared) <= 1
    for e in range(inst.m):
        assert (id(gains[e]) in shared) == (reference[e] is schedule.value)
        if id(gains[e]) in shared:
            assert gains[e].cuts == () and gains[e].pieces == (LinearFn(0, 0),)


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(removal_instances(), swap_bundles()))
def test_sweep_matches_the_reference_sweep_over_every_value(inst):
    # The sweep walks lone crossings inline and groups by identity; the
    # reference sends every value through the bundle order and
    # advance_min_basis, grouped by integer (numerator, denominator) pairs.
    found, expected = parametric_min_basis(inst), reference_min_basis(inst)
    assert found.cuts == expected.cuts
    assert found.bases == expected.bases
    assert found.swaps == expected.swaps
    assert found.walk == expected.walk
    assert found.value == expected.value


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(removal_instances())
def test_gains_walk_skip_matches_the_walk_without_it(inst):
    # A crossing with both ends outside the basis whose e no member holds is
    # skipped; the reference hands every such crossing to the replacement rule.
    schedule = parametric_min_basis(inst)
    assert removal_gains(inst, schedule) == reference_removal_gains(inst, schedule)
