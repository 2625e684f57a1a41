"""Phase times of the naive route at scale, outside the gated benchmark.

Builds acceptance criterion 10's instance shape (a Hamiltonian cycle on n
nodes plus random chords, integer coefficients in [-10**6, 10**6], the
interval [-10, 10], ``random.Random(7)``) at m = 200 and 500 (n = 30), the
doubled m = 200 instance (400 elements, every crossing value a bundle) and,
with ``--large``, m = 1000 (n = 60) and the doubled m = 500 instance (1,000
elements).  For each it prints one JSON line: the best of ``REPEAT`` wall
times of the sweep (``parametric_min_basis``, crossing enumeration included),
``removal_gains``, the naive tail (``naive_solution``) and
``find_candidates``, a few counts, and the sha256 of the solution's
canonical JSON.  It has no gate and no bound; the times depend on the host.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/scale_phases.py [--large]
"""

from __future__ import annotations

import argparse
import json
import random
import time
import warnings
from hashlib import sha256

from matroid_interdiction import (
    GraphicMatroid,
    LinearFn,
    MatroidInstance,
    ParamInterval,
    doubled_instance,
    find_candidates,
    parametric_min_basis,
)
from matroid_interdiction.instances import dump_solution
from matroid_interdiction.interdiction import naive_solution, removal_gains
from matroid_interdiction.parametric import CoincidentEqualityPointsWarning

REPEAT = 3  # runs per phase; the best is kept


def scale_instance(n: int, m: int) -> MatroidInstance:
    rng = random.Random(7)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    weights = tuple(
        LinearFn(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(m)
    )
    return MatroidInstance(GraphicMatroid(n, tuple(edges)), weights,
                           ParamInterval.closed(-10, 10), f"scale-{m}")


def best_of(phase, *args):
    """The last result of ``phase(*args)`` and its best wall time over ``REPEAT`` runs."""
    best = float("inf")
    for _ in range(REPEAT):
        started = time.perf_counter()
        result = phase(*args)
        best = min(best, time.perf_counter() - started)
    return result, round(best, 4)


def measure(inst: MatroidInstance) -> dict:
    schedule, sweep_s = best_of(parametric_min_basis, inst)
    gains, gains_s = best_of(removal_gains, inst, schedule)
    sol, tail_s = best_of(naive_solution, inst, schedule, gains)
    candidates, candidates_s = best_of(find_candidates, inst, schedule.points)
    dumped = json.dumps(dump_solution(inst, sol, {}), sort_keys=True, separators=(",", ":"))
    return {
        "instance": inst.name,
        "m": inst.m,
        "crossings": len(schedule.points),
        "swaps": len(schedule.swaps),
        "segments": len(sol.segments),
        "candidates": len(candidates),
        "sweep_s": sweep_s,
        "removal_gains_s": gains_s,
        "naive_tail_s": tail_s,
        "find_candidates_s": candidates_s,
        "solution_sha256": sha256(dumped.encode()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true",
                        help="also run m = 1000 (n = 60) and the doubled m = 500")
    args = parser.parse_args()
    warnings.simplefilter("ignore", CoincidentEqualityPointsWarning)
    small, medium = scale_instance(30, 200), scale_instance(30, 500)
    cases = [small, medium, doubled_instance(small)]
    if args.large:
        cases += [scale_instance(60, 1000), doubled_instance(medium)]
    for inst in cases:
        print(json.dumps(measure(inst)), flush=True)


if __name__ == "__main__":
    main()
