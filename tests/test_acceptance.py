"""Acceptance suite: one test per criterion, one printed verdict line each.

The random suite is 500 graphic instances (3..8 nodes, 2-edge-connected by
construction, up to 16 edges, integer coefficients in [-9, 9], interval
[-10, 10]) plus 100 uniform instances (m <= 12, 1 <= k < m; k = m would make
every element a coloop, which the solvers refuse by contract).  Everything is
exact rational; there are no tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import random
import time
from dataclasses import dataclass, field
from hashlib import sha256

import pytest

from matroid_interdiction import (
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    ParamInterval,
    all_equality_points,
    compare,
    doubled_instance,
    find_candidates,
    interdict_at,
    parametric_min_basis,
    pwl_equal,
    removal_value_functions,
    solve_bruteforce,
    solve_intervals,
    solve_naive,
)
from matroid_interdiction.instances import dump_solution

from randinst import random_graphic, random_rational, random_uniform, sample_window
from subsets import subset_min_basis

SEED = 20260808
# Criterion 10's outputs, byte for byte: the canonical solution JSON and the
# candidate filter's entry list (see test_criterion_10_scale_smoke).
SCALE_SOLUTION_SHA256 = "0caf0abca2bda18ddce4ff5743d70805300d8a6475f73e8e0f179e6c530df198"
SCALE_CANDIDATES_SHA256 = "a39c8456e488f384dd4faeba83653ff5e4aa90cb59d61548d240d9c580f1a2af"
N_GRAPHIC = 500
N_UNIFORM = 100


@dataclass
class SolvedInstance:
    inst: MatroidInstance
    naive: object
    intervals: object
    brute: object


@dataclass
class Corpus:
    solved: list[SolvedInstance]
    solve_seconds: float
    _removal: dict = field(default_factory=dict)
    _schedule: dict = field(default_factory=dict)
    _candidates: dict = field(default_factory=dict)

    def removal(self, i):
        if i not in self._removal:
            self._removal[i] = removal_value_functions(
                self.solved[i].inst, self.schedule(i)
            )
        return self._removal[i]

    def schedule(self, i):
        if i not in self._schedule:
            self._schedule[i] = parametric_min_basis(self.solved[i].inst)
        return self._schedule[i]

    def candidates(self, i):
        if i not in self._candidates:
            self._candidates[i] = find_candidates(
                self.solved[i].inst, self.schedule(i).points
            )
        return self._candidates[i]


def _build_suite() -> Corpus:
    instances = []
    for i in range(N_GRAPHIC):
        rng = random.Random(SEED * 1_000_003 + i)
        instances.append(random_graphic(rng, name=f"g{i}"))
    for i in range(N_UNIFORM):
        rng = random.Random(SEED * 1_000_003 + 700_000 + i)
        instances.append(random_uniform(rng, name=f"u{i}"))
    solved = []
    started = time.perf_counter()
    for inst in instances:
        solved.append(
            SolvedInstance(
                inst, solve_naive(inst), solve_intervals(inst), solve_bruteforce(inst)
            )
        )
    elapsed = time.perf_counter() - started
    return Corpus(solved, elapsed)


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return _build_suite()


def verdict(n: int, ok: bool, detail: str):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {n:2d}] {state}: {detail}")
    assert ok, detail


def test_criterion_01_solver_triple_equivalence(corpus):
    for i, item in enumerate(corpus.solved):
        assert pwl_equal(item.naive.value, item.intervals.value), item.inst.name
        assert pwl_equal(item.naive.value, item.brute.value), item.inst.name
        assert compare(item.naive, item.intervals).ok, item.inst.name
        assert compare(item.naive, item.brute).ok, item.inst.name
    ok = corpus.solve_seconds < 120.0
    verdict(
        1,
        ok,
        f"{len(corpus.solved)} instances solved 3 ways, all value functions and "
        f"labels agree exactly ({corpus.solve_seconds:.1f}s < 120s)",
    )


def test_criterion_02_candidate_soundness_and_2km_bound(corpus):
    worst = 0.0
    for i, item in enumerate(corpus.solved):
        cand = corpus.candidates(i)
        k = item.inst.rank()
        assert len(cand) <= 2 * k * item.inst.m, item.inst.name
        worst = max(worst, len(cand) / (2 * k * item.inst.m))
        values = set(cand.lambdas())
        assert set(corpus.schedule(i).value.cuts) <= values, item.inst.name
        for fn in corpus.removal(i).values():
            assert set(fn.cuts) <= values, item.inst.name
    verdict(
        2,
        True,
        f"every slope change sits in the candidate set; |C| <= 2km everywhere "
        f"(worst fill {worst:.0%})",
    )


def test_criterion_03_slope_changes_between_candidates(corpus):
    for i, item in enumerate(corpus.solved):
        k = item.inst.rank()
        bounds = [None] + corpus.candidates(i).lambdas() + [None]
        for lo, hi in zip(bounds, bounds[1:]):
            inside = [
                c
                for c in item.naive.value.cuts
                if (lo is None or c > lo) and (hi is None or c < hi)
            ]
            assert len(inside) <= k - 1, item.inst.name
    verdict(3, True, "at most k-1 slope changes between consecutive candidates")


def test_criterion_04_replacement_identity(corpus):
    rng = random.Random(SEED ^ 0x5EED)
    checked = 0
    for item in corpus.solved:
        inst = item.inst
        view = inst.view()
        lo, hi = sample_window(inst)
        for _ in range(50):
            lam = random_rational(rng, lo, hi)
            weight_at = inst.weights_at(lam)
            basis = view.greedy_min_basis(weight_at)
            for e in basis:
                replacement = view.replacement_element(basis, e, weight_at)
                assert replacement is not None, inst.name
                others = (x for x in range(inst.m) if x != e)
                deleted_opt = subset_min_basis(inst.backend, others, weight_at)
                assert deleted_opt == basis - {e} | {replacement}, inst.name
                checked += 1
    verdict(
        4,
        True,
        f"deleted optimum equals basis - e + replacement at {checked} "
        "(instance, parameter, element) triples",
    )


def test_criterion_05_most_vital_element_in_basis(corpus):
    for item in corpus.solved:
        for seg in item.naive.segments:
            assert seg.most_vital in seg.basis, item.inst.name
            rep = seg.window.representative()
            value, _ = interdict_at(item.inst, rep)
            assert value == item.naive.value_at(rep), item.inst.name
            assert value == seg.value(rep), item.inst.name
    verdict(
        5,
        True,
        "every segment's most vital element lies in its basis and matches the "
        "exhaustive per-point optimum at the segment midpoint",
    )


def test_criterion_06_swap_partner_values_agree_at_breakpoints(corpus):
    checked = 0
    for i, item in enumerate(corpus.solved):
        sched = corpus.schedule(i)
        removal = corpus.removal(i)
        for cut, (out, in_) in zip(sched.cuts, sched.swaps):
            assert removal[out].value_at(cut) == removal[in_].value_at(cut), (
                item.inst.name
            )
            checked += 1
    verdict(6, True, f"swapped-out/in removal values agree at {checked} breakpoints")


def test_criterion_07_doubled_identity(corpus):
    for i, item in enumerate(corpus.solved):
        doubled = solve_naive(doubled_instance(item.inst))
        assert pwl_equal(doubled.value, corpus.schedule(i).value), item.inst.name
    verdict(
        7,
        True,
        "interdicting the parallel-twin double reproduces the plain optimal "
        "value function on every suite instance",
    )


def test_criterion_08_fixture_regression():
    p2 = MatroidInstance(
        GraphicMatroid(2, ((0, 1), (0, 1))),
        (LinearFn(0, 1), LinearFn(1, 0)),
        ParamInterval.closed(-1, 3),
        "P2",
    )
    c4 = MatroidInstance(
        GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
        (LinearFn(1, 0), LinearFn(2, 0), LinearFn(3, 0), LinearFn(4, 0)),
        ParamInterval.closed(0, 2),
        "C4",
    )
    c4p = MatroidInstance(
        GraphicMatroid(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
        (LinearFn(1, 0), LinearFn(2, 0), LinearFn(3, 0), LinearFn(0, 2)),
        ParamInterval.closed(0, 2),
        "C4P",
    )
    golden = {
        "P2": [
            ("[-1, 1]", LinearFn(1, 0), 0, {0}, 1),
            ("[1, 3]", LinearFn(0, 1), 1, {1}, 0),
        ],
        "C4": [("[0, 2]", LinearFn(9, 0), 0, {0, 1, 2}, 3)],
        "C4P": [
            ("[0, 1/2]", LinearFn(6, 0), 3, {0, 1, 3}, 2),
            ("[1/2, 2]", LinearFn(5, 2), 0, {0, 1, 3}, 2),
        ],
    }
    for inst in (p2, c4, c4p):
        sol = solve_naive(inst)
        brute = solve_bruteforce(inst)
        assert pwl_equal(sol.value, brute.value), inst.name
        got = [
            (str(s.window), s.value, s.most_vital, set(s.basis), s.replacement)
            for s in sol.segments
        ]
        assert got == golden[inst.name], inst.name
    verdict(8, True, "fixtures P2, C4, C4P reproduce their frozen segment lists")


def test_criterion_09_concavity_of_plain_optimum(corpus):
    for i, item in enumerate(corpus.solved):
        slopes = [p.b for p in corpus.schedule(i).value.pieces]
        assert all(nxt < prev for prev, nxt in zip(slopes, slopes[1:])), (
            item.inst.name
        )
    verdict(9, True, "plain optimum slopes strictly decrease on every instance")


def test_criterion_10_scale_smoke():
    rng = random.Random(SEED ^ 0xB16)
    n, m = 30, 500
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    weights = tuple(
        LinearFn(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        for _ in range(m)
    )
    inst = MatroidInstance(
        GraphicMatroid(n, tuple(edges)), weights, ParamInterval.closed(-10, 10),
        "smoke",
    )
    started = time.perf_counter()
    sol = solve_naive(inst)
    elapsed = time.perf_counter() - started
    ok = elapsed < 300.0
    verdict(
        10,
        ok,
        f"solve_naive on m={m}, n={n} took {elapsed:.1f}s < 300s "
        f"({len(sol.segments)} segments)",
    )
    dumped = json.dumps(dump_solution(inst, sol, {}), sort_keys=True, separators=(",", ":"))
    assert sha256(dumped.encode()).hexdigest() == SCALE_SOLUTION_SHA256
    entries = find_candidates(inst, all_equality_points(inst)).entries
    listing = "".join(
        f"{en.point.lighter_before} {en.point.lighter_after} {en.point.lam} {en.tags}\n"
        for en in entries
    )
    assert sha256(listing.encode()).hexdigest() == SCALE_CANDIDATES_SHA256
