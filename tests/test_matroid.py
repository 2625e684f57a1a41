import random
from fractions import Fraction
from itertools import combinations

import pytest

from matroid_interdiction import doubled_instance, find_candidates, solve_intervals, solve_naive
from matroid_interdiction.matroid import (
    DoubledMatroid,
    GraphicMatroid,
    GrowingRestriction,
    MatroidView,
    UniformMatroid,
)
from matroid_interdiction.parametric import interior_crossings

from randinst import parallel_classes, random_graphic, random_uniform, tangent_uniform
from subsets import subset_min_basis, subset_rank

C4 = GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


def const_weights(*values):
    table = {e: Fraction(v) for e, v in enumerate(values)}
    return lambda e: table[e]


def all_bases(backend, elements=None):
    """Exhaustive enumeration of the bases of the restriction to ``elements``
    (by default the whole ground set); the brute-force oracle for greedy."""
    if elements is None:
        elements = range(backend.size)
    rank = subset_rank(backend, elements)
    return [
        frozenset(combo)
        for combo in combinations(elements, rank)
        if backend.independent(combo)
    ]


class TestIndependence:
    def test_three_edges_of_a_four_cycle_are_a_tree(self):
        view = MatroidView(C4)
        assert view.is_independent({1, 2, 3})

    def test_the_full_cycle_is_dependent(self):
        view = MatroidView(C4)
        assert not view.is_independent({0, 1, 2, 3})

    def test_twin_pair_is_dependent(self):
        doubled = DoubledMatroid(GraphicMatroid(2, ((0, 1),)))
        view = MatroidView(doubled)
        assert not view.is_independent({0, 1})
        assert view.is_independent({0})
        assert view.is_independent({1})

    def test_self_loop_is_dependent(self):
        loop = GraphicMatroid(2, ((0, 1), (1, 1)))
        view = MatroidView(loop)
        assert not view.is_independent({1})
        assert view.is_independent({0})

    def test_doubled_matches_projection_without_twin_collisions(self):
        rng = random.Random(3)
        for _ in range(50):
            inst = random_graphic(rng, n_range=(3, 5), m_max=7)
            inner = inst.backend
            doubled = DoubledMatroid(inner)
            inner_view = MatroidView(inner)
            doubled_view = MatroidView(doubled)
            for _ in range(20):
                projection = [
                    e for e in range(inner.size) if rng.random() < 0.4
                ]
                lifted = [
                    e + inner.size if rng.random() < 0.5 else e for e in projection
                ]
                assert doubled_view.is_independent(lifted) == inner_view.is_independent(
                    projection
                )


class TestGreedy:
    def test_uniform_picks_cheapest_k(self):
        view = MatroidView(UniformMatroid(3, 2))
        assert view.greedy_min_basis(const_weights(1, 2, 3)) == {0, 1}

    def test_c4_parametric_weights_at_zero(self):
        # hand-run: order e3(0), e0(1), e1(2), e2(3); e2 closes the cycle
        view = MatroidView(C4)
        basis = view.greedy_min_basis(const_weights(1, 2, 3, 0))
        assert basis == {3, 0, 1}
        enumerated = all_bases(C4)
        best = min(
            enumerated, key=lambda b: sum(const_weights(1, 2, 3, 0)(e) for e in b)
        )
        assert sum(const_weights(1, 2, 3, 0)(e) for e in basis) == sum(
            const_weights(1, 2, 3, 0)(e) for e in best
        )

    def test_tie_broken_by_smaller_id(self):
        view = MatroidView(UniformMatroid(2, 1))
        assert view.greedy_min_basis(const_weights(5, 5)) == {0}

    def test_empty_matroid_yields_empty_basis(self):
        view = MatroidView(UniformMatroid(0, 0))
        assert view.greedy_min_basis(lambda e: Fraction(0)) == frozenset()

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_graphic(rng, n_range=(3, 5), m_max=9)
            view = inst.view()
            weight_at = inst.weights_at(Fraction(rng.randint(-5, 5)))
            greedy = view.greedy_min_basis(weight_at)
            assert view.is_independent(greedy)
            assert len(greedy) == view.rank()
            best = min(sum(weight_at(e) for e in b) for b in all_bases(inst.backend))
            assert sum(weight_at(e) for e in greedy) == best


class TestComponents:
    def test_two_triangles_sharing_a_vertex(self):
        backend = GraphicMatroid(
            5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2))
        )
        assert MatroidView(backend).components() == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_forest_has_only_singletons(self):
        backend = GraphicMatroid(3, ((0, 1), (1, 2)))
        assert MatroidView(backend).components() == {frozenset({0}), frozenset({1})}

    def test_uniform_all_in_one_component(self):
        assert MatroidView(UniformMatroid(4, 2)).components() == {frozenset({0, 1, 2, 3})}

    def test_self_loop_is_its_own_component(self):
        backend = GraphicMatroid(2, ((0, 1), (0, 1), (1, 1)))
        assert MatroidView(backend).components() == {frozenset({0, 1}), frozenset({2})}

    def test_doubled_path_pairs_each_edge_with_its_twin(self):
        backend = DoubledMatroid(GraphicMatroid(3, ((0, 1), (1, 2))))
        assert MatroidView(backend).components() == {
            frozenset({0, 2}),
            frozenset({1, 3}),
        }


class TestReplacementElement:
    def test_only_non_tree_edge_replaces_anything(self):
        view = MatroidView(C4)
        weight_at = const_weights(1, 2, 3, 4)
        basis = frozenset({0, 1, 2})
        assert view.replacement_element(basis, 0, weight_at) == 3
        enumerated = all_bases(C4, [1, 2, 3])
        best = min(enumerated, key=lambda b: (sum(weight_at(e) for e in b),))
        assert best == basis - {0} | {3}

    def test_parallel_edge(self):
        view = MatroidView(GraphicMatroid(2, ((0, 1), (0, 1))))
        assert view.replacement_element(frozenset({0}), 0, const_weights(0, 1)) == 1

    def test_coloop_has_no_replacement(self):
        view = MatroidView(GraphicMatroid(2, ((0, 1),)))
        assert view.replacement_element(frozenset({0}), 0, const_weights(1)) is None

    def test_deleted_optimum_is_basis_minus_e_plus_replacement(self):
        rng = random.Random(31)
        for _ in range(60):
            inst = random_graphic(rng, n_range=(3, 6), m_max=12)
            view = inst.view()
            lam = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            weight_at = inst.weights_at(lam)
            basis = view.greedy_min_basis(weight_at)
            for e in basis:
                replacement = view.replacement_element(basis, e, weight_at)
                others = (x for x in range(inst.m) if x != e)
                deleted_opt = subset_min_basis(inst.backend, others, weight_at)
                if replacement is None:
                    assert len(deleted_opt) < len(basis)
                else:
                    assert deleted_opt == basis - {e} | {replacement}


class TestExchangeTestCount:
    """Every exchange that passes ``swap``'s membership guard is one call of
    ``MatroidView.is_independent``, the call that profilers and the benchmark
    tracer count as the paper's cost unit."""

    @pytest.mark.parametrize("solve", [solve_naive, solve_intervals])
    def test_each_guarded_swap_is_one_counted_test(self, monkeypatch, solve):
        counts = {"tests": 0, "guarded_swaps": 0}
        is_independent, swap = MatroidView.is_independent, MatroidView.swap

        def counted_test(view, subset):
            counts["tests"] += 1
            return is_independent(view, subset)

        def counted_swap(view, basis, e, f):
            counts["guarded_swaps"] += e in basis and f not in basis
            return swap(view, basis, e, f)

        monkeypatch.setattr(MatroidView, "is_independent", counted_test)
        monkeypatch.setattr(MatroidView, "swap", counted_swap)
        solve(random_graphic(random.Random(5), n_range=(5, 5), m_max=10))
        assert counts["tests"] == counts["guarded_swaps"] > 0


class TestColoopScan:
    def test_cycle_has_none(self):
        assert MatroidView(C4).coloop_scan() == frozenset()

    def test_path_edges_are_bridges(self):
        backend = GraphicMatroid(3, ((0, 1), (1, 2)))
        assert MatroidView(backend).coloop_scan() == {0, 1}

    def test_free_matroid_is_all_coloops(self):
        assert MatroidView(UniformMatroid(3, 3)).coloop_scan() == {0, 1, 2}

    def test_uniform_below_rank_has_none(self):
        assert MatroidView(UniformMatroid(5, 3)).coloop_scan() == frozenset()

    def test_doubled_never_has_coloops(self):
        doubled = DoubledMatroid(GraphicMatroid(2, ((0, 1),)))
        assert MatroidView(doubled).coloop_scan() == frozenset()

    def test_agrees_with_rank_drop_definition(self):
        rng = random.Random(41)
        for _ in range(40):
            backend = random_graphic(rng, n_range=(3, 5), m_max=8).backend
            # bite off an edge to sometimes create bridges
            if rng.random() < 0.5 and backend.size > 3:
                edges = list(backend.edges)
                del edges[rng.randrange(len(edges))]
                backend = GraphicMatroid(backend.node_count, tuple(edges))
            ground = range(backend.size)
            rank = subset_rank(backend, ground)
            expected = frozenset(
                e for e in ground if subset_rank(backend, set(ground) - {e}) < rank
            )
            assert MatroidView(backend).coloop_scan() == expected


def loopy_multigraph(rng: random.Random) -> GraphicMatroid:
    """Random edges on few nodes: self-loops, parallel edges and bridges."""
    n = rng.randint(1, 5)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
    edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))  # parallels
    return GraphicMatroid(n, tuple(edges))


def circuit_backends(seed: int, count: int) -> list:
    """Graphic, uniform and doubled backends of either, drawn from ``seed``."""
    rng = random.Random(seed)
    backends = []
    for _ in range(count):
        m = rng.randint(0, 8)
        plain = loopy_multigraph(rng) if rng.random() < 0.6 else UniformMatroid(m, rng.randint(0, m))
        backends.append(DoubledMatroid(plain) if rng.random() < 0.3 else plain)
    return backends


class SwapTestRestriction:
    """The insertion rule with one swap test per coloop: the reference for
    :class:`GrowingRestriction`, whose builder names the circuit instead."""

    def __init__(self, view: MatroidView):
        self.view = view
        self.builder = view.backend.builder()
        self.basis: set[int] = set()
        self.coloops: set[int] = set()

    def add(self, f: int) -> tuple[bool, bool]:
        if self.builder.add(f):
            self.basis.add(f)
            self.coloops.add(f)
            return True, False
        merged = {g for g in self.coloops if self.view.swap(self.basis, g, f)}
        self.coloops -= merged
        return False, bool(merged)


class TestBuilderCircuit:
    @pytest.mark.parametrize("seed", range(4))
    def test_circuit_is_the_swap_test_circuit(self, seed):
        for backend in circuit_backends(seed, 120):
            view = MatroidView(backend)
            order = random.Random(seed).sample(range(backend.size), backend.size)
            builder, basis = backend.builder(), set()
            for f in order:
                if builder.add(f):
                    basis.add(f)
                    continue
                circuit = builder.circuit(f)
                assert len(circuit) == len(set(circuit))
                assert set(circuit) == {f, *(g for g in basis if view.swap(basis, g, f))}
                # minimally dependent
                assert not view.is_independent(circuit)
                assert all(view.is_independent(set(circuit) - {x}) for x in circuit)

    @pytest.mark.parametrize("seed", range(4))
    def test_growing_restriction_matches_the_swap_test_rule(self, seed):
        rng = random.Random(100 + seed)
        for backend in circuit_backends(100 + seed, 120):
            view = MatroidView(backend)
            order = rng.sample(range(backend.size), rng.randint(0, backend.size))
            grower, reference = GrowingRestriction(view), SwapTestRestriction(view)
            for f in order:
                assert grower.add(f) == reference.add(f)
                assert grower.coloops == reference.coloops

    @pytest.mark.parametrize(
        "inst",
        [random_graphic(random.Random(5), n_range=(5, 5), m_max=10),
         random_graphic(random.Random(6), n_range=(6, 8), m_max=16, coeff=2),
         parallel_classes(random.Random(0), (3, 2, 4)),
         random_uniform(random.Random(3), m_max=12),
         tangent_uniform(9, 4),
         doubled_instance(random_uniform(random.Random(4), m_max=8))],
        ids=["graphic", "tied_graphic", "parallel_classes", "uniform", "tangent_uniform",
             "doubled"],
    )
    def test_candidate_filter_and_coloop_scan_run_no_independence_test(
        self, monkeypatch, inst
    ):
        tests = {"count": 0}
        is_independent = MatroidView.is_independent

        def counted_test(view, subset):
            tests["count"] += 1
            return is_independent(view, subset)

        monkeypatch.setattr(MatroidView, "is_independent", counted_test)
        assert len(find_candidates(inst, interior_crossings(inst))) > 0
        inst.view().coloop_scan()
        assert tests["count"] == 0


class TestDoubledBackend:
    def test_rank_is_preserved(self):
        inner = GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert MatroidView(DoubledMatroid(inner)).rank() == MatroidView(
            inner
        ).rank()

    def test_twin_indexing(self):
        doubled = DoubledMatroid(UniformMatroid(3, 2))
        assert doubled.twin(0) == 3 and doubled.twin(3) == 0
        assert doubled.project(4) == 1
