"""Seeded random instances for the test suite.

Graphic instances are 2-edge-connected by construction (a Hamiltonian cycle
plus random chords), so they never contain coloops; uniform instances keep
k < m for the same reason.  :func:`tangent_uniform` is a deterministic
family whose crossings pile up on few values.
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
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    weights = [
        LinearFn(rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        for _ in range(m)
    ]
    return MatroidInstance(
        GraphicMatroid(n, tuple(edges)),
        tuple(weights),
        ParamInterval.closed(*interval),
        name,
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
