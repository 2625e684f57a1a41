"""Property-based differential tests on tie-heavy instances.

Small graphic, uniform and doubled instances with weight coefficients in
{-2, ..., 2}, or in a few fractions with mixed denominators, so coincident
crossings, parallel and identical weight lines are the common case, over
bounded, half-bounded and unbounded intervals.  The three solvers must agree
exactly, the integer order kernel must agree with ``Fraction`` arithmetic,
and every ``check`` self-check must pass.  Examples are derandomized so
every run checks the same instances.
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
    equality_point,
    solve_bruteforce,
    solve_intervals,
    solve_naive,
)
from matroid_interdiction.cli import _run_checks
from matroid_interdiction.parametric import (
    group_by_lambda,
    interior_crossings,
    perturbed_bundle_order,
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
def instances(draw) -> MatroidInstance:
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
        backend = draw(graphic_backends(8, bridges_ok=False))
    else:
        backend = draw(uniform_backends(7, coloops_ok=False))
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
