"""Rank and minimum basis of a subset of the ground set, for test references.

The package's views always work on the whole matroid.  A reference that
needs a restriction (an element deleted, a set grown one insertion at a
time) takes it from here: both helpers feed the backend's incremental
builder, not the greedy kernels that the solvers use.
"""

from __future__ import annotations

from typing import Callable, Iterable


def subset_rank(backend, elements: Iterable[int]) -> int:
    """The rank of the restriction to ``elements``."""
    builder = backend.builder()
    return sum(1 for e in elements if builder.add(e))


def subset_min_basis(backend, elements: Iterable[int], key: Callable) -> frozenset[int]:
    """The minimum basis of the restriction to ``elements`` in (key, id) order."""
    builder = backend.builder()
    order = sorted(elements, key=lambda e: (key(e), e))
    return frozenset(e for e in order if builder.add(e))
