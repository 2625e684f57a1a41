"""Property-based differential tests on tie-heavy instances.

Small graphic, uniform and doubled instances with weight coefficients in
{-2, ..., 2}, or in a few fractions with mixed denominators, so coincident
crossings, parallel and identical weight lines are the common case, over
bounded, half-bounded and unbounded intervals.  The three solvers must agree
exactly, the integer order kernel must agree with ``Fraction`` arithmetic,
the incremental candidate filter and the integer line envelope must agree
with plain recomputations, and every ``check`` self-check must pass.
Examples are derandomized so every run checks the same instances.
"""

from fractions import Fraction
from itertools import combinations, product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matroid_interdiction import (
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    ParamInterval,
    UniformMatroid,
    doubled_instance,
    envelope_of_lines,
    equality_point,
    find_candidates,
    solve_bruteforce,
    solve_intervals,
    solve_naive,
)
from matroid_interdiction.cli import _run_checks
from matroid_interdiction.interdiction import CandidateEntry
from matroid_interdiction.parametric import (
    group_by_lambda,
    interior_crossings,
    perturbed_bundle_order,
    start_representative,
)

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
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_every_structural_check_passes(inst):
    failed = [(name, detail) for name, ok, detail in _run_checks(inst) if not ok]
    assert not failed


def recomputed_candidates(inst: MatroidInstance, crossings) -> list[CandidateEntry]:
    """The candidate filter with components and ranks recomputed per insertion."""
    view = inst.view()
    weight = inst.weights_at(start_representative(inst.interval, crossings))
    active = [
        {
            f
            for f in range(inst.m)
            if f != e
            and weight(f) < weight(e)
            and inst.weights[f].b <= inst.weights[e].b
        }
        for e in range(inst.m)
    ]
    comps = [view.restrict(grown).components() for grown in active]
    out = []
    for pt in crossings:
        e, f = pt.lighter_before, pt.lighter_after
        before = comps[e]
        rank_before = view.restrict(active[e]).rank()
        active[e].add(f)
        after = view.restrict(active[e]).components()
        comps[e] = after
        by_rank = view.restrict(active[e]).rank() > rank_before
        by_singleton = any(
            g != f and g in before.comp_of and before.is_singleton(g)
            for g in after.members[after.component_of(f)]
        )
        if by_rank or by_singleton:
            out.append(CandidateEntry(pt, by_rank, by_singleton))
    return out


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
    assert found.crossings == tuple(crossings)


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
        assert env.label_at(lam) == min(
            label for label, line in lines if line(lam) == top
        )
