"""Matroid oracles with graphic, uniform and twinned backends.

The backends answer independence queries; everything else (greedy optimum,
basis exchanges, replacement elements, coloops, and the component partition
as a frozenset of frozensets of element ids) is built on top of them through
:class:`MatroidView`, which always works on the whole ground set: the solvers
count independence tests on the whole matroid, and a deleted element is one
left out of a test's set.  Every exchange test goes through
:meth:`MatroidView.swap`.

Each backend answers a one-shot query with its ``independent`` kernel, one
loop over the set, and takes a greedy basis of an ordered sequence with its
``greedy`` kernel, one loop as well; its ``builder`` is the incremental rank
structure that the rank and :class:`GrowingRestriction` grow one element at a
time, and the reference both kernels are tested against.  A builder also
names the fundamental circuit of an element it rejected, with respect to the
basis it took, without an independence test, the package's one circuit
query: the graphic builder by the path in the forest it grows, the uniform
one by its whole (full) basis, the doubled one by the taken twin, or else by
the inner circuit mapped back.  :class:`GrowingRestriction` keeps a growing
restriction's coloops by the insertion rule, merging them by that circuit; it
is the one coloop computation, behind both the coloop scan and the candidate
filter, and runs no independence test.

Views and bases are immutable and all queries are pure, so a view can be
shared between threads; a :class:`GrowingRestriction` is mutable and belongs
to its caller.  Graphic independence is an acyclicity check: one loop
over the set with the disjoint-set find inlined on a fresh parent list,
O(|S| alpha) per test; that is deliberate desk-scale machinery, not the
asymptotically optimal dynamic structure.  Greedy runs and replacement scans
sort the ids by the bare weight key; the sort is stable, so ties stay in id
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Collection, Iterable, Union


class ColoopError(ValueError):
    """An instance has elements whose deletion drops the rank.

    Interdicting such an element yields an unbounded objective, so the
    parametric interdiction solvers refuse the instance and report the
    offending elements instead.
    """

    def __init__(self, elements: Iterable[int]):
        self.elements = tuple(sorted(elements))
        names = ", ".join(f"e{e}" for e in self.elements)
        super().__init__(f"coloop elements present: {names}")


class _DisjointSet:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


@dataclass(frozen=True)
class GraphicMatroid:
    """Edge set of a multigraph; independent sets are the acyclic subsets.

    Parallel edges and self-loops are permitted.  A self-loop is a dependent
    singleton and can never enter a basis.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge e{e}=({u},{v}) has a node out of range")

    @property
    def size(self) -> int:
        return len(self.edges)

    def self_loops(self) -> tuple[int, ...]:
        return tuple(e for e, (u, v) in enumerate(self.edges) if u == v)

    def builder(self) -> "_GraphicBuilder":
        return _GraphicBuilder(self)

    def independent(self, subset: Collection[int]) -> bool:
        """Acyclicity: the builder's union-find in one loop, path halving inlined."""
        parent = list(range(self.node_count))
        edges = self.edges
        for e in subset:
            u, v = edges[e]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                return False
            parent[v] = u
        return True

    def greedy(self, ordered: Iterable[int]) -> frozenset[int]:
        """The edges of ``ordered`` that close no cycle with those taken
        before them (a loop closes one alone), in one loop like
        :meth:`independent`."""
        parent = list(range(self.node_count))
        edges = self.edges
        taken = []
        for e in ordered:
            u, v = edges[e]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                taken.append(e)
        return frozenset(taken)


class _GraphicBuilder:
    """A union-find for ``add``, and the forest it grows as parent links for
    ``circuit``: each node's ``(parent, edge to it)``, None at a root."""

    __slots__ = ("edges", "parent", "up")

    def __init__(self, backend: GraphicMatroid):
        self.edges = backend.edges
        self.parent = list(range(backend.node_count))
        self.up: list[tuple[int, int] | None] = [None] * backend.node_count

    def add(self, e: int) -> bool:
        u, v = ru, rv = self.edges[e]
        parent = self.parent
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            return False
        parent[rv] = ru
        # Re-root v's tree at v by reversing its path to the root, then hang
        # it below u through e.
        up = self.up
        node, link = v, (u, e)
        while True:
            old = up[node]
            up[node] = link
            if old is None:
                return True
            parent, edge = old
            node, link = parent, (node, edge)

    def circuit(self, f: int) -> list[int]:
        """``f`` and the forest path between its ends (a loop alone)."""
        u, v = self.edges[f]
        up = self.up
        depth_of = {u: 0}  # u's ancestors, by their distance from u
        from_u = []
        node = u
        while up[node] is not None:
            node, edge = up[node]
            from_u.append(edge)
            depth_of[node] = len(from_u)
        from_v = []
        node = v
        while node not in depth_of:
            node, edge = up[node]
            from_v.append(edge)
        return [f, *from_u[:depth_of[node]], *from_v]


@dataclass(frozen=True)
class UniformMatroid:
    """Ground set of ``m`` elements; a set is independent iff its size <= k."""

    m: int
    k: int

    def __post_init__(self):
        if self.k < 0 or self.m < 0:
            raise ValueError("m and k must be non-negative")

    @property
    def size(self) -> int:
        return self.m

    def builder(self) -> "_UniformBuilder":
        return _UniformBuilder(self.k)

    def independent(self, subset: Collection[int]) -> bool:
        return len(subset) <= self.k

    def greedy(self, ordered: Iterable[int]) -> frozenset[int]:
        """The first ``k`` elements of ``ordered``."""
        return frozenset(islice(ordered, self.k))


class _UniformBuilder:
    __slots__ = ("k", "taken")

    def __init__(self, k: int):
        self.k = k
        self.taken: list[int] = []

    def add(self, e: int) -> bool:
        if len(self.taken) >= self.k:
            return False
        self.taken.append(e)
        return True

    def circuit(self, f: int) -> list[int]:
        """``f`` and the whole basis, which is full."""
        return [f, *self.taken]


@dataclass(frozen=True)
class DoubledMatroid:
    """Every inner element gains a parallel twin.

    Element ``e`` of the inner matroid appears as ``e`` and ``e + inner.size``;
    a set is independent iff it hits each twin pair at most once and its
    projection to the inner ground set is independent there.
    """

    inner: "Backend"

    @property
    def size(self) -> int:
        return 2 * self.inner.size

    def project(self, e: int) -> int:
        return e if e < self.inner.size else e - self.inner.size

    def twin(self, e: int) -> int:
        return e + self.inner.size if e < self.inner.size else e - self.inner.size

    def builder(self) -> "_DoubledBuilder":
        return _DoubledBuilder(self)

    def independent(self, subset: Collection[int]) -> bool:
        """No twin pair hit twice, and the projection is independent inside."""
        n = self.inner.size
        projected = {e - n if e >= n else e for e in subset}
        return len(projected) == len(subset) and self.inner.independent(projected)

    def greedy(self, ordered: Iterable[int]) -> frozenset[int]:
        """Skip each element whose twin came first, then ask the inner kernel.

        A twin that comes second is dependent either way: its first twin was
        taken, or was dependent on a subset of what the inner pass takes.
        """
        n = self.inner.size
        first: dict[int, int] = {}  # projection -> its first element, in order
        for e in ordered:
            first.setdefault(e - n if e >= n else e, e)
        return frozenset(first[p] for p in self.inner.greedy(first))


class _DoubledBuilder:
    __slots__ = ("backend", "taken", "inner")

    def __init__(self, backend: DoubledMatroid):
        self.backend = backend
        self.taken: dict[int, int] = {}  # projection -> the basis element
        self.inner = backend.inner.builder()

    def add(self, e: int) -> bool:
        p = self.backend.project(e)
        if p in self.taken:
            return False
        if not self.inner.add(p):
            return False
        self.taken[p] = e
        return True

    def circuit(self, f: int) -> list[int]:
        """``f`` and its twin if that is taken, else the inner circuit of
        ``f``'s projection with each other member mapped back to the basis."""
        p = self.backend.project(f)
        if p in self.taken:
            return [f, self.taken[p]]
        return [f, *(self.taken[q] for q in self.inner.circuit(p) if q != p)]


Backend = Union[GraphicMatroid, UniformMatroid, DoubledMatroid]


# Sort keys per element: exact weights, or integer keys in the same order.
WeightAt = Callable[[int], Union[Fraction, int]]


@dataclass(frozen=True)
class MatroidView:
    """The exchange and greedy queries on the whole ground set of a backend.

    Every query runs over the element ids ``0 .. size - 1``; a test on a
    given set looks at that set alone.
    """

    backend: Backend

    def is_independent(self, subset: Collection[int]) -> bool:
        """Independence test of distinct elements."""
        return self.backend.independent(subset)

    def swap(self, basis: frozenset[int], e: int, f: int) -> frozenset[int] | None:
        """``basis - e + f`` if ``e`` is in ``basis``, ``f`` is not, and the
        exchange is independent, else None: one test."""
        if e not in basis or f in basis:
            return None
        exchanged = basis - {e} | {f}
        return exchanged if self.is_independent(exchanged) else None

    def greedy_min_basis(self, weight_at: WeightAt) -> frozenset[int]:
        """The unique minimum basis under the order (weight, element id).

        The id tie-break makes the minimum basis unique even with repeated
        weights, so every solver in the package sees the same optimum.  The
        stable sort of the ids by bare key gives that order, and the
        backend's ``greedy`` kernel takes the basis in one loop.
        """
        return self.backend.greedy(sorted(range(self.backend.size), key=weight_at))

    def rank(self) -> int:
        builder = self.backend.builder()
        return sum(1 for e in range(self.backend.size) if builder.add(e))

    def components(self) -> frozenset[frozenset[int]]:
        """The share-a-circuit partition of the element ids, from one basis.

        The fundamental circuits of a single basis generate the whole
        relation, so uniting their members suffices.  The builder names each
        as it rejects the element: the circuit inside the basis taken so far
        is the one inside the final basis.  No solver calls it; it
        remains because ``perfbench/tracer.py`` looks it up by name, and goes
        once the benchmark drops that target (ROADMAP item 5).
        """
        ground = range(self.backend.size)
        builder = self.backend.builder()
        dsu = _DisjointSet(len(ground))
        for f in ground:
            if not builder.add(f):
                for g in builder.circuit(f):
                    dsu.union(f, g)
        members: dict[int, set[int]] = {}
        for e in ground:
            members.setdefault(dsu.find(e), set()).add(e)
        return frozenset(map(frozenset, members.values()))

    def replacement_element(
        self, basis: frozenset[int], e: int, weight_at: WeightAt
    ) -> int | None:
        """Cheapest element restoring a basis after deleting ``e``.

        Scans the non-basis elements in (weight, id) order with one
        :meth:`swap` each; None means ``e`` is in every basis.
        """
        if e not in basis:
            raise ValueError(f"e{e} is not in the basis")
        outside = (r for r in range(self.backend.size) if r not in basis)
        return next((r for r in sorted(outside, key=weight_at) if self.swap(basis, e, r)), None)

    def coloop_scan(self) -> frozenset[int]:
        """Elements whose deletion drops the rank: the coloops of a
        :class:`GrowingRestriction` fed the whole ground set."""
        return frozenset(GrowingRestriction(self, range(self.backend.size)).coloops)


class GrowingRestriction:
    """A restriction that only grows, with its coloops.

    Inserting ``f`` either raises the rank, and then ``f`` joins the basis
    and becomes a coloop while every old coloop stays one, or it does not,
    and then exactly the coloops on ``f``'s fundamental circuit, those ``g``
    with ``basis - g + f`` independent, stop being coloops (a loop's circuit
    is itself).  The builder names that circuit for its own basis, so the
    coloops merge by one intersection and no independence test; with no
    coloop left, the circuit is not asked for.  Inserting a set one element
    at a time, in any order, ends at that set's coloops.
    """

    __slots__ = ("builder", "coloops")

    def __init__(self, view: MatroidView, elements: Iterable[int] = ()):
        self.builder = view.backend.builder()
        self.coloops: set[int] = set()
        for f in elements:
            self.add(f)

    def add(self, f: int) -> tuple[bool, bool]:
        """Insert ``f``: (the rank grew, some coloops merged into ``f``'s
        component)."""
        if self.builder.add(f):
            self.coloops.add(f)
            return True, False
        if not self.coloops:
            return False, False
        merged = self.coloops.intersection(self.builder.circuit(f))
        self.coloops -= merged
        return False, bool(merged)
