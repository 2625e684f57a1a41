"""Seeded inputs for the benchmark workloads and the request each one sends.

Every workload is a closed loop with one client: the next request goes out
when the previous one has returned.  Inputs come only from the seed; the
solvers see nothing but the generated instances.

Instance shapes are drawn in shuffled blocks that hold every shape of the
workload once, so every run, whatever its seed, solves the same mix of sizes
and run-to-run spread comes from the instances themselves, not from the mix.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Graphic instances are a Hamiltonian cycle plus random chords, so they are
# 2-edge-connected and have no coloops (the solvers refuse coloops); uniform
# instances keep k < m for the same reason.

# cli-small: a pool of topologies, CLI_TOPOLOGIES_PER_SHAPE of each shape
# (eight graphic shapes with n in 6..14 and m <= 3n, two uniform), and small
# integer coefficients as in the acceptance corpus, so coincident crossings
# occur.  Several topologies per shape keep one unusually slow random graph
# from deciding a run's figures.  Four shapes (m 15-18, n 6-10) cost within
# about 25% of the run's median request, so the median lies among many
# requests rather than in a gap between two shapes.
CLI_SHAPES = (
    ("graphic", 6, 12),
    ("graphic", 6, 18),
    ("graphic", 7, 12),
    ("graphic", 8, 16),
    ("graphic", 9, 15),
    ("graphic", 10, 16),
    ("graphic", 12, 18),
    ("graphic", 14, 21),
    ("uniform", 8, 3),
    ("uniform", 12, 5),
)
CLI_TOPOLOGIES_PER_SHAPE = 8
CLI_COEFF = 9
CLI_REQUESTS = 800

# intervals-medium: distinct generic graphic and uniform instances whose
# shapes take similar time (within about 15% of each other), so the median
# lies where many requests are, not in a gap between two shapes.
INTERVALS_SHAPES = (
    ("graphic", 10, 26),
    ("graphic", 11, 26),
    ("graphic", 10, 27),
    ("uniform", 28, 9),
    ("uniform", 25, 12),
    ("uniform", 32, 8),
)
INTERVALS_REQUESTS = 256

INTERVALS_COEFF = 10**6
INTERVAL = (-10, 10)


@dataclass(frozen=True)
class Request:
    index: int
    inst: object  # MatroidInstance
    topology: int  # index into the workload's shape list or topology pool
    path: str = ""  # instance file (cli-small)
    out: str = ""  # solution file (cli-small)


def _edges(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return tuple(edges)


def _backend(mi, rng: random.Random, shape):
    kind, a, b = shape
    if kind == "graphic":
        return mi.GraphicMatroid(a, _edges(rng, a, b))
    return mi.UniformMatroid(a, b)


def _instance(mi, rng: random.Random, backend, coeff: int, name: str):
    weights = tuple(
        mi.LinearFn(rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        for _ in range(backend.size)
    )
    return mi.MatroidInstance(
        backend, weights, mi.ParamInterval.closed(*INTERVAL), name
    )


def _block_order(rng: random.Random, kinds: int, count: int) -> list[int]:
    order: list[int] = []
    while len(order) < count:
        block = list(range(kinds))
        rng.shuffle(block)
        order.extend(block)
    return order[:count]


class Workload:
    name = ""
    digest_ops = 0  # outputs hashed into the run's digest, in request order
    brute_ops = 0  # outputs per run also compared with solve_bruteforce

    def setup(self, mi, seed: int) -> list[Request]:
        """The workload's requests, generated from ``seed`` (timed as set-up)."""
        raise NotImplementedError

    def write_inputs(self, mi, requests: list[Request], workdir: Path) -> list[Request]:
        """Write the input files the requests read, if any (not timed)."""
        return requests

    def solve(self, mi, request: Request):
        """The timed request; returns the raw result."""
        raise NotImplementedError

    def result(self, mi, request: Request, raw):
        """(Solution, canonical solution JSON bytes) of a completed request."""
        sol = raw
        payload = mi.instances.dump_solution(request.inst, sol, {})
        return sol, _canonical(payload)


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class IntervalsMedium(Workload):
    name = "intervals-medium"
    digest_ops = 8
    brute_ops = 1

    def setup(self, mi, seed):
        rng = random.Random(f"{self.name}/{seed}")
        shapes = _block_order(rng, len(INTERVALS_SHAPES), INTERVALS_REQUESTS)
        out = []
        for i, shape in enumerate(shapes):
            backend = _backend(mi, rng, INTERVALS_SHAPES[shape])
            inst = _instance(mi, rng, backend, INTERVALS_COEFF, f"r{i}")
            out.append(Request(i, inst, shape))
        return out

    def solve(self, mi, request):
        return mi.interdiction.solve_intervals(request.inst)


class CliSmall(Workload):
    name = "cli-small"
    digest_ops = 32
    brute_ops = 4

    def setup(self, mi, seed):
        rng = random.Random(f"{self.name}/{seed}")
        pool = [
            _backend(mi, rng, shape)
            for shape in CLI_SHAPES
            for _ in range(CLI_TOPOLOGIES_PER_SHAPE)
        ]
        return [
            Request(i, _instance(mi, rng, pool[topo], CLI_COEFF, f"r{i}"), topo)
            for i, topo in enumerate(_block_order(rng, len(pool), CLI_REQUESTS))
        ]

    def write_inputs(self, mi, requests, workdir):
        in_dir, out_dir = workdir / "in", workdir / "out"
        in_dir.mkdir(parents=True, exist_ok=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = []
        for request in requests:
            path = in_dir / f"{request.index:04d}.json"
            mi.instances.save_instance(request.inst, str(path))
            out.append(dataclasses.replace(
                request, path=str(path), out=str(out_dir / f"{request.index:04d}.json")
            ))
        return out

    def solve(self, mi, request):
        with redirect_stdout(io.StringIO()):
            return mi.cli.main(["solve", "--in", request.path, "--out", request.out])

    def result(self, mi, request, raw):
        if raw != 0:
            raise RuntimeError(f"cli exit code {raw}")
        with open(request.out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        _, sol, _ = mi.instances.parse_solution(payload, request.out)
        return sol, _canonical(payload)


WORKLOADS = {w.name: w for w in (CliSmall(), IntervalsMedium())}


def topology_reuse(requests: list[Request]) -> float:
    """Share of requests whose topology an earlier request already used."""
    seen: set[int] = set()
    reused = 0
    for request in requests:
        reused += request.topology in seen
        seen.add(request.topology)
    return reused / len(requests) if requests else 0.0
