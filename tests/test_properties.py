"""Property-based differential tests on tie-heavy instances.

Small graphic, uniform and doubled instances with weight coefficients in
{-2, ..., 2}, so coincident crossings, parallel and identical weight lines
are the common case, over bounded, half-bounded and unbounded intervals.
The three solvers must agree exactly.  Examples are derandomized so every
run checks the same instances.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matroid_interdiction import (
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    ParamInterval,
    UniformMatroid,
    doubled_instance,
    solve_bruteforce,
    solve_intervals,
    solve_naive,
)

COEFF = st.sampled_from(range(-2, 3))
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
    shape = draw(st.sampled_from(["free"] * 3 + ["all-parallel", "all-identical"]))
    if shape == "all-identical":
        return (LinearFn(draw(COEFF), draw(COEFF)),) * m
    if shape == "all-parallel":
        slope = draw(COEFF)
        return tuple(LinearFn(draw(COEFF), slope) for _ in range(m))
    return tuple(LinearFn(draw(COEFF), draw(COEFF)) for _ in range(m))


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
