"""The binary backend of ``tests/binary.py``: F7 and F7* as a dual pair, and
the three solvers agreeing on binary instances.  Its builder's circuits are
checked against the swap-test rule with the other backends', in
``test_matroid.py::TestBuilderCircuit``."""

import random
from itertools import combinations

import pytest

from matroid_interdiction import (
    compare,
    doubled_instance,
    solve_bruteforce,
    solve_intervals,
    solve_naive,
)
from matroid_interdiction.matroid import MatroidView

from binary import FANO, FANO_DUAL, binary_instance, random_binary_instance


def bases(backend) -> set[frozenset[int]]:
    ground = range(backend.size)
    rank = MatroidView(backend).rank()
    return {frozenset(c) for c in combinations(ground, rank) if backend.independent(c)}


def test_fano_dual_bases_are_the_complements_of_fano_bases():
    assert MatroidView(FANO).rank() == 3 and MatroidView(FANO_DUAL).rank() == 4
    assert bases(FANO_DUAL) == {frozenset(range(7)) - b for b in bases(FANO)}
    # every pair of Fano points spans exactly one more: 7 dependent triples
    assert len(bases(FANO)) == 35 - 7


def binary_corpus(seed: int) -> list:
    """Seeded coloop-free binary instances with the doubles of the smaller
    ones, then F7 and F7* under several weightings, with their doubles."""
    rng = random.Random(seed)
    intervals = [(-3, 3), ("-inf", "inf"), (0, "inf"), ("-inf", 2)]
    corpus = []
    for i in range(60):
        inst = random_binary_instance(rng, [2, 3, 9][i % 3], intervals[i % 4], m_max=12)
        corpus.append(inst)
        if inst.m <= 8:
            corpus.append(doubled_instance(inst))
    for i, backend in enumerate([FANO, FANO_DUAL] * 4):
        inst = binary_instance(rng, backend, [2, 9][i % 2], intervals[i % 4])
        corpus += [inst, doubled_instance(inst)]
    return corpus


@pytest.mark.parametrize("seed", range(2))
def test_three_solvers_agree_on_binary_instances(seed):
    for inst in binary_corpus(seed):
        naive, intervals = solve_naive(inst), solve_intervals(inst)
        brute = solve_bruteforce(inst)
        for left, right in ((naive, intervals), (naive, brute), (intervals, brute)):
            report = compare(left, right)
            assert report.value_equal and report.ok, (inst, report)
