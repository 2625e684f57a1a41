"""Seeded random instances for the test suite.

Graphic instances are 2-edge-connected by construction (a Hamiltonian cycle
plus random chords), so they never contain coloops; uniform instances keep
k < m for the same reason.  :func:`tangent_uniform` is a deterministic
family whose crossings pile up on few values.  :func:`prime_graphic` puts
every coefficient over its own prime, so the instance-wide common
denominator is the product of 2m primes.  :func:`parallel_classes` is a
direct sum of rank-one uniform matroids, a path of multi-edges.
"""

from __future__ import annotations

import random
from fractions import Fraction

from matroid_interdiction import (
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    ParamInterval,
    UniformMatroid,
)


def _cycle_plus_chords(rng: random.Random, n: int, m: int) -> GraphicMatroid:
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return GraphicMatroid(n, tuple(edges))


def random_graphic(
    rng: random.Random,
    n_range=(3, 8),
    m_max=16,
    coeff=9,
    interval=(-10, 10),
    name="",
) -> MatroidInstance:
    n = rng.randint(*n_range)
    m = rng.randint(n, m_max)
    backend = _cycle_plus_chords(rng, n, m)
    weights = [
        LinearFn(rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        for _ in range(m)
    ]
    return MatroidInstance(backend, tuple(weights), ParamInterval.closed(*interval), name)


def primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def prime_graphic(
    rng: random.Random, n: int, m: int, coeff=9, interval=(-10, 10), name=""
) -> MatroidInstance:
    """A Hamiltonian cycle on ``n`` nodes plus random chords up to ``m`` edges,
    each of the 2m coefficients a fraction in [-coeff, coeff] over its own
    prime, the first 2m primes in turn."""
    backend = _cycle_plus_chords(rng, n, m)

    def over(p: int) -> Fraction:
        num = 0
        while num % p == 0:
            num = rng.randint(-coeff * p, coeff * p)
        return Fraction(num, p)

    dens = iter(primes(2 * m))
    weights = tuple(LinearFn(over(next(dens)), over(next(dens))) for _ in range(m))
    return MatroidInstance(backend, weights, ParamInterval.closed(*interval), name)


def parallel_classes(
    rng: random.Random, sizes, coeff=9, interval=(-10, 10), name=""
) -> MatroidInstance:
    """A path of ``k = len(sizes)`` multi-edges: class i is ``sizes[i]``
    parallel edges between nodes i and i + 1, ids class by class.

    The matroid is the direct sum of the U(1, sizes[i]), of rank k; every
    size must be at least 2, or the class is a coloop.
    """
    edges = tuple((i, i + 1) for i, size in enumerate(sizes) for _ in range(size))
    weights = tuple(
        LinearFn(rng.randint(-coeff, coeff), rng.randint(-coeff, coeff)) for _ in edges
    )
    return MatroidInstance(
        GraphicMatroid(len(sizes) + 1, edges), weights, ParamInterval.closed(*interval), name
    )


def random_uniform(
    rng: random.Random, m_max=12, coeff=9, interval=(-10, 10), name=""
) -> MatroidInstance:
    m = rng.randint(2, m_max)
    k = rng.randint(1, m - 1)
    weights = [
        LinearFn(rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        for _ in range(m)
    ]
    return MatroidInstance(
        UniformMatroid(m, k), tuple(weights), ParamInterval.closed(*interval), name
    )


def tangent_uniform(m: int, k: int, name="") -> MatroidInstance:
    """U(k, m) with the lines ``w_t(lam) = t**2 - 2*t*lam``, t = 0..m-1, on [-1, m].

    Each line is tangent to ``-lam**2`` at ``lam = t``, and lines t and s
    cross at ``(t + s) / 2``: all m(m-1)/2 crossings lie inside the interval,
    on only 2m - 3 distinct values.
    """
    weights = tuple(LinearFn(t * t, -2 * t) for t in range(m))
    return MatroidInstance(UniformMatroid(m, k), weights, ParamInterval.closed(-1, m), name)


def random_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly inside (lo, hi) with a modest denominator."""
    den = rng.randint(7, 64)
    num = rng.randint(1, den - 1)
    return lo + (hi - lo) * Fraction(num, den)


def sample_window(inst: MatroidInstance, clamp=10) -> tuple[Fraction, Fraction]:
    lo = inst.interval.lo.value if inst.interval.lo.is_finite else Fraction(-clamp)
    hi = inst.interval.hi.value if inst.interval.hi.is_finite else Fraction(clamp)
    return lo, hi
