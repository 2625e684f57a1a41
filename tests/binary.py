"""A binary matroid backend for the tests: the columns of a matrix over GF(2).

Each column is an int bitmask.  A set is independent when its columns are
linearly independent over GF(2), that is, when no nonempty subset of them
xors to zero.  Binary matroids include non-graphic ones, such as the Fano
matroid F7 and its dual F7* (Oxley, "Matroid Theory", 2nd ed., 2011), so
the solvers meet circuits that are neither forest paths nor a whole basis.

The builder keeps a reduced xor basis: one row per pivot bit, no other row
having that bit, and with each row the set of taken elements whose columns
xor to it.  Reducing a rejected column to zero xors together exactly the
rows of its basis members, so :meth:`_BinaryBuilder.circuit` reads the
fundamental circuit off the collected set.  The backend has no I/O format
and no CLI route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Iterable

from matroid_interdiction import LinearFn, MatroidInstance, ParamInterval

from subsets import subset_rank


@dataclass(frozen=True)
class BinaryMatroid:
    columns: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.columns)

    def builder(self) -> "_BinaryBuilder":
        return _BinaryBuilder(self.columns)

    def independent(self, subset: Collection[int]) -> bool:
        builder = self.builder()
        return all(builder.add(e) for e in subset)

    def greedy(self, ordered: Iterable[int]) -> frozenset[int]:
        builder = self.builder()
        return frozenset(e for e in ordered if builder.add(e))


class _BinaryBuilder:
    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[int, ...]):
        self.columns = columns
        self.rows: dict[int, tuple[int, frozenset[int]]] = {}  # pivot -> (row, members)

    def _reduce(self, e: int) -> tuple[int, frozenset[int]]:
        """``e``'s column less the rows at its pivot bits, and ``e`` with the
        members of those rows: the remainder is the xor of that set's columns."""
        vector, members = self.columns[e], frozenset({e})
        for pivot, (row, row_members) in self.rows.items():
            if vector & pivot:
                vector ^= row
                members ^= row_members
        return vector, members

    def add(self, e: int) -> bool:
        vector, members = self._reduce(e)
        if not vector:
            return False
        pivot = vector & -vector
        for other, (row, row_members) in self.rows.items():
            if row & pivot:
                self.rows[other] = (row ^ vector, row_members ^ members)
        self.rows[pivot] = (vector, members)
        return True

    def circuit(self, f: int) -> list[int]:
        """``f`` and the taken elements whose columns xor to ``f``'s (a zero
        column, a loop, alone)."""
        vector, members = self._reduce(f)
        assert not vector, f"e{f} was taken"
        return [f, *sorted(members - {f})]


# F7: the seven nonzero vectors of GF(2)^3.  F7*: [A^T | I_4] for F7 = [I_3 | A].
FANO = BinaryMatroid((0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111))
FANO_DUAL = BinaryMatroid((0b1011, 0b1101, 0b1110, 0b0001, 0b0010, 0b0100, 0b1000))


def random_binary(rng: random.Random, m_max: int, rank_range=(2, 5)) -> BinaryMatroid:
    """Up to ``m_max`` random columns of ``rank`` bits, zero and repeated
    columns allowed."""
    rank = rng.randint(*rank_range)
    return BinaryMatroid(
        tuple(rng.randrange(1 << rank) for _ in range(rng.randint(0, m_max)))
    )


def binary_instance(
    rng: random.Random, backend: BinaryMatroid, coeff: int, interval
) -> MatroidInstance:
    weights = tuple(
        LinearFn(rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        for _ in range(backend.size)
    )
    return MatroidInstance(backend, weights, ParamInterval.closed(*interval))


def random_binary_instance(
    rng: random.Random, coeff: int, interval, m_max: int
) -> MatroidInstance:
    """A random binary instance with rank > 0 and no coloop (no deletion drops
    the rank, by the builder alone), redrawn until so."""
    while True:
        backend = random_binary(rng, m_max)
        ground = range(backend.size)
        rank = subset_rank(backend, ground)
        if rank > 0 and all(subset_rank(backend, set(ground) - {e}) == rank for e in ground):
            return binary_instance(rng, backend, coeff, interval)
