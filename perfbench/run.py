"""Closed-loop benchmark of the matroid-interdiction package.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 45 --trace 0

One client in one process sends the workload's requests back to back for
``--seconds`` seconds, then checks every output for exactness (untimed) and
prints a report followed, as its last line, by one JSON object holding the
verdict and the metrics.  ``--trace 0`` reports the end-to-end metrics with
the package unmodified; ``--trace 1`` wraps every layer's public functions,
reports per-layer metrics from a traced first half, and replays the same
requests untraced in the second half to measure the tracing overhead.

The timed end-to-end figures are given in reference units: after every
request the loop times a fixed piece of pure-Python work that does not touch
the package (:func:`reference_job`), and each request's latency is divided by
the mean of the reference times taken just before and just after it.  The
host this runs on changes speed by up to 2x over seconds to minutes, and the
reference slows with it, so the quotient follows the program far more
closely than the host.  The raw milliseconds are printed in the report too.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402

SUBMODULES = (
    "rationals", "pwl", "matroid", "parametric", "solution",
    "interdiction", "oracle", "instances", "cli",
)
SETUP_REPEATS = 11
REF_ITEMS = 1000  # size of the reference job


def fresh_import():
    """Import the package from scratch (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mi = importlib.import_module(PACKAGE)
    for sub in SUBMODULES:
        importlib.import_module(f"{PACKAGE}.{sub}")
    return mi


def set_up(workload, seed: int, workdir: Path):
    """Import and generate the inputs SETUP_REPEATS times; keep the last.

    Writing the input files of the last repetition is not timed: on the
    host the benchmark was defined on, the system time of creating the 800
    files of ``cli-small`` varied from 0.2 s to 2.5 s, whatever the package
    did.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        mi = fresh_import()
        requests = workload.setup(mi, seed)
        times.append(time.perf_counter() - started)
    requests = workload.write_inputs(mi, requests, workdir)
    warnings.filterwarnings(
        "ignore", category=mi.parametric.CoincidentEqualityPointsWarning
    )
    return mi, requests, times


def reference_job() -> int:
    """A fixed piece of pure-Python work of a few milliseconds.

    Exact rational sums reduced by ``math.gcd``, a sort of tuples and a
    union-find: the same kind of interpreter work as the package's exact
    arithmetic and matroid oracles, written with ints only so that nothing
    the package imports or changes can alter it.
    """
    parent = list(range(64))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    items = sorted(((i * 7919) % 201 - 100, (i * 104729) % 97 + 1, i) for i in range(REF_ITEMS))
    num, den = 0, 1
    for p, q, i in items:
        a, b = find(i % 64), find((i * 37 + 11) % 64)
        if a != b:
            parent[a] = b
        num, den = num * q + p * den, den * q
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return num


def timed_reference() -> float:
    started = time.perf_counter()
    reference_job()
    return time.perf_counter() - started


def closed_loop(workload, mi, requests, seconds: float, tracer=None):
    """Send requests back to back until ``seconds`` have passed (at least one).

    The reference job is timed once before the first request and once after
    each request, outside the request's latency.  Returns the raw outputs,
    the per-request latencies, the reference times (one more than the
    latencies) and whether every request was sent before the time was up.
    """
    outputs, latencies = [], []
    clock = time.perf_counter
    reference_job()  # warm-up
    refs = [timed_reference()]
    started = clock()
    for request in requests:
        if outputs and clock() - started >= seconds:
            break
        if tracer is not None:
            tracer.begin_op(request.index)
        t0 = clock()
        try:
            raw = workload.solve(mi, request)
        except Exception as exc:  # a failed request is counted, the loop goes on
            raw = exc
            traceback.print_exc(file=sys.stderr)
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.end_op()
        outputs.append(raw)
        refs.append(timed_reference())
    return outputs, latencies, refs, len(outputs) == len(requests)


# -- exactness ---------------------------------------------------------------


def removal_optima(inst, lam) -> list:
    """Exact optimum after deleting each element at ``lam``, by re-solving.

    Greedy on the (weight, id) order with the element skipped, once per basis
    element; deleting an element outside the greedy basis leaves that basis
    unchanged.  The same exhaustive definition as ``oracle.interdict_at``,
    with the weights and the order computed once per point, and the weights
    scaled to integers by their common denominator.  A greedy run that skips
    ``e`` picks the same elements as the undeleted run up to ``e``'s position,
    so it starts from those.  ``None`` marks a coloop.
    """
    exact = [line(lam) for line in inst.weights]
    scale = 1
    for value in exact:
        scale = math.lcm(scale, value.denominator)
    w = [value.numerator * (scale // value.denominator) for value in exact]
    order = sorted(range(inst.m), key=lambda e: (w[e], e))
    builder = inst.backend.builder()
    basis = [e for e in order if builder.add(e)]
    rank = len(basis)
    values = [sum(w[e] for e in basis)] * inst.m
    for i, e in enumerate(basis):
        builder = inst.backend.builder()
        for x in basis[:i]:
            builder.add(x)
        picked, total = i, sum(w[x] for x in basis[:i])
        for x in order[order.index(e) + 1:]:
            if builder.add(x):
                total += w[x]
                picked += 1
                if picked == rank:
                    break
        values[e] = total if picked == rank else None
    return [None if v is None else Fraction(v, scale) for v in values]


def check_solution(mi, inst, sol, rng: random.Random) -> tuple[bool, int]:
    """Check value and most vital element at every cut and segment interior.

    At each point the solution's value must equal the best single-deletion
    optimum, and every segment containing the point must report a most vital
    element of its basis whose deletion reaches that optimum.  One point per
    solution, chosen by ``rng``, is also checked against
    ``oracle.interdict_at`` itself.  Returns (ok, points checked).
    """
    points = sorted(
        set(sol.value.cuts) | {seg.window.representative() for seg in sol.segments}
    )
    spot = rng.choice(points)
    for lam in points:
        values = removal_optima(inst, lam)
        if None in values:
            return False, 0
        best = max(values)
        if sol.value_at(lam) != best:
            return False, 0
        for seg in sol.segments:
            if not seg.window.contains(lam):
                continue
            mv = seg.most_vital
            if seg.value(lam) != best or mv not in seg.basis or values[mv] != best:
                return False, 0
        if lam == spot and mi.oracle.interdict_at(inst, lam) != (best, values.index(best)):
            return False, 0
    return True, len(points)


def collect(workload, mi, requests, outputs) -> list:
    """Per completed request, (Solution, canonical JSON bytes) or the exception."""
    results = []
    for request, raw in zip(requests, outputs):
        if isinstance(raw, Exception):
            results.append(raw)
            continue
        try:
            results.append(workload.result(mi, request, raw))
        except Exception as exc:  # a malformed output is a wrong answer
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
    return results


def check_outputs(mi, workload, requests, results, seed: int) -> dict:
    """Untimed exactness pass over every completed request, in request order.

    Returns the per-request verdicts (True = wrong or failed), the output
    digest and what was checked.
    """
    rng = random.Random(f"check/{workload.name}/{seed}")
    brute = set(rng.sample(range(len(results)), min(workload.brute_ops, len(results))))
    digest = hashlib.sha256()
    digest_ops = min(workload.digest_ops, len(results))
    wrong, points = [], 0
    started = time.perf_counter()
    for i, (request, result) in enumerate(zip(requests, results)):
        ok, n = False, 0
        if not isinstance(result, Exception):
            try:
                ok, n = check_solution(mi, request.inst, result[0], rng)
                if ok and i in brute:
                    brute_sol = mi.oracle.solve_bruteforce(request.inst)
                    ok = mi.oracle.compare(result[0], brute_sol).ok
            except Exception:  # a malformed output is a wrong answer
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print(f"wrong answer: request {i} ({request.inst.name})", file=sys.stderr)
        wrong.append(not ok)
        points += n
        if i < digest_ops:
            digest.update(b"" if isinstance(result, Exception) else result[1])
            digest.update(b"\n")
    return {
        "wrong": wrong,
        "points": points,
        "brute_compares": len(brute),
        "digest": digest.hexdigest(),
        "digest_ops": digest_ops,
        "check_s": time.perf_counter() - started,
    }


# -- metrics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def reference_costs(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency over the mean of the reference times on either side of it."""
    return [t * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(latencies)]


def end_to_end(setup_times, latencies, refs, rss_mb) -> dict:
    costs = reference_costs(latencies, refs)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_per_kref": (1000 * len(costs) / sum(costs), "ops/kref"),
        "latency_p50_ref": (statistics.median(costs), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr: Tracer, traced_wall: float, untraced_wall: float, check_s: float) -> dict:
    calls, busy, self_s, counts = tr.calls, tr.busy, tr.self_time, tr.counts
    out = {
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "instances.load_instance.s": (busy["instances.load_instance"], "s"),
        "instances.dump_solution.s": (busy["instances.dump_solution"], "s"),
        "instances.bytes_out": (counts["bytes_out"], "bytes"),
        "interdiction.removal_value_functions.self_s": (
            self_s["interdiction.removal_value_functions"], "s"),
        "interdiction.solve_intervals.self_s": (self_s["interdiction.solve_intervals"], "s"),
        "interdiction.find_candidates.s": (busy["interdiction.find_candidates"], "s"),
        "interdiction.candidate_ratio": (
            _ratio(counts["candidates"], counts["candidate_base"]), "ratio"),
        "interdiction.windows": (counts["windows"], "count"),
        "parametric.all_equality_points.s": (busy["parametric.all_equality_points"], "s"),
        "parametric.equality_points": (counts["equality_points"], "count"),
        "parametric.bundles": (counts["bundles"], "count"),
        "parametric.advance_min_basis.calls": (calls["parametric.advance_min_basis"], "count"),
        "parametric.advance_min_basis.s": (busy["parametric.advance_min_basis"], "s"),
        "parametric.swap_ratio": (_ratio(counts["swaps"], counts["crossings_advanced"]), "ratio"),
        "parametric.parametric_min_basis.s": (busy["parametric.parametric_min_basis"], "s"),
        "matroid.is_independent.calls": (calls["matroid.is_independent"], "count"),
        "matroid.is_independent.s": (busy["matroid.is_independent"], "s"),
        "matroid.is_independent.true_ratio": (
            _ratio(counts["independent_true"], calls["matroid.is_independent"]), "ratio"),
        "matroid.greedy_min_basis.calls": (calls["matroid.greedy_min_basis"], "count"),
        "matroid.greedy_min_basis.s": (busy["matroid.greedy_min_basis"], "s"),
        "matroid.replacement_element.calls": (calls["matroid.replacement_element"], "count"),
        "matroid.replacement_element.s": (busy["matroid.replacement_element"], "s"),
        "matroid.replacement_element.tests_per_call": (
            _ratio(counts["replacement_tests"], calls["matroid.replacement_element"]), "count"),
        "matroid.components.calls": (calls["matroid.components"], "count"),
        "matroid.components.s": (busy["matroid.components"], "s"),
        "matroid.coloop_scan.s": (busy["matroid.coloop_scan"], "s"),
        "pwl.envelope_of_pwl.s": (busy["pwl.envelope_of_pwl"], "s"),
        "pwl.envelope_of_pwl.self_s": (self_s["pwl.envelope_of_pwl"], "s"),
        "pwl.envelope_of_pwl.pieces_in": (counts["pieces_in"], "count"),
        "pwl.envelope_of_pwl.pieces_out": (counts["pieces_out"], "count"),
        "pwl.envelope_of_lines.calls": (calls["pwl.envelope_of_lines"], "count"),
        "pwl.envelope_of_lines.s": (busy["pwl.envelope_of_lines"], "s"),
        "pwl.PWLFunction.build.calls": (calls["pwl.PWLFunction.build"], "count"),
        "pwl.PWLFunction.build.s": (busy["pwl.PWLFunction.build"], "s"),
        "solution.build_solution.s": (busy["solution.build_solution"], "s"),
        "solution.segments": (counts["segments"], "count"),
        "oracle.check_s": (check_s, "s"),
    }
    for layer, seconds in tr.layer_self_time().items():
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.share"] = (_ratio(seconds, traced_wall), "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_ratio"] = (_ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    return out


# -- main --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / PACKAGE} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    try:
        return run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, args, workdir: Path) -> int:
    mi, requests, setup_times = set_up(workload, args.seed, workdir)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            outputs, latencies, refs, exhausted = closed_loop(
                workload, mi, requests, args.seconds / 2, tracer
            )
        finally:
            tracer.uninstall()
    else:
        outputs, latencies, refs, exhausted = closed_loop(
            workload, mi, requests, args.seconds
        )
    if exhausted:
        print(f"note: all {len(requests)} prepared requests were sent", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = requests[: len(outputs)]
    results = collect(workload, mi, done, outputs)

    if tracer is not None:
        # Solution files the CLI wrote (cli-small only).
        tracer.counts["bytes_out"] = sum(
            os.path.getsize(r.out) for r in done if r.out and os.path.exists(r.out)
        )
        replay, replay_latencies, _, _ = closed_loop(workload, mi, done, float("inf"))
        # The wrappers must not change any answer.
        replayed = collect(workload, mi, done, replay)

    checked = check_outputs(mi, workload, done, results, args.seed)
    wrong = checked["wrong"]
    if tracer is not None:
        differ = [
            isinstance(a, Exception) or isinstance(b, Exception) or a[1] != b[1]
            for a, b in zip(results, replayed)
        ]
        if any(differ):
            print(f"traced and untraced outputs differ on {sum(differ)} request(s)",
                  file=sys.stderr)
        wrong = [w or d for w, d in zip(wrong, differ)]
    failed = sum(wrong)

    attempted = len(outputs)
    print(f"requests {attempted} failed {failed} failed_frac {failed / attempted:.6g} ratio")
    print(f"exactness {'PASS' if failed == 0 else 'FAIL'}: {checked['points']} points "
          f"checked against single-deletion optima, one oracle.interdict_at spot "
          f"check per request, {checked['brute_compares']} "
          f"solve_bruteforce compares, {checked['check_s']:.3f} s")
    print(f"output_digest ops={checked['digest_ops']} sha256={checked['digest']}")
    if workload.name == "cli-small":
        pool = len(workloads.CLI_SHAPES) * workloads.CLI_TOPOLOGIES_PER_SHAPE
        print(f"topology_reuse {workloads.topology_reuse(done):.4f} ratio "
              f"({pool} topologies)")

    if tracer is None:
        metrics = end_to_end(setup_times, latencies, refs, rss_mb)
        n = len(latencies)
        print(f"setup_s {metrics['setup_s'][0]:.6f} s (median of {len(setup_times)})")
        print(f"reference job: median {statistics.median(refs) * 1e3:.4f} ms, "
              f"min {min(refs) * 1e3:.4f} ms, max {max(refs) * 1e3:.4f} ms (n={len(refs)})")
        print(f"throughput_ops_per_kref {metrics['throughput_ops_per_kref'][0]:.6f} "
              f"ops/kref; raw {n / sum(latencies):.6f} ops/s "
              f"({n} ops in {sum(latencies):.3f} s busy)")
        print(f"latency_p50_ref {metrics['latency_p50_ref'][0]:.6f} ref; raw "
              f"{statistics.median(latencies) * 1e3:.6f} ms (n={n})")
        if n >= 100:
            # Reported only where at least ten samples lie above the p90.
            p90 = percentile(reference_costs(latencies, refs), 0.9)
            print(f"latency_p90_ref {p90:.6f} ref; raw "
                  f"{percentile(latencies, 0.9) * 1e3:.6f} ms (n={n})")
        print(f"peak_rss_mb {rss_mb:.3f} MB")
    else:
        traced_wall, untraced_wall = sum(latencies), sum(replay_latencies)
        metrics = per_layer(tracer, traced_wall, untraced_wall, checked["check_s"])
        print(f"traced ops {attempted}: traced wall {traced_wall:.3f} s, untraced "
              f"replay {untraced_wall:.3f} s, overhead {traced_wall - untraced_wall:.3f} s")
        print("layer         self_s      share")
        attributed = 0.0
        for layer in LAYERS:
            seconds, share = metrics[f"{layer}.self_s"][0], metrics[f"{layer}.share"][0]
            attributed += share
            print(f"{layer:<12} {seconds:9.4f} {share:9.2%}")
        print(f"{'(other)':<12} {traced_wall * (1 - attributed):9.4f} {1 - attributed:9.2%}")
        spans = tracer.write_spans(HERE / ".traces" / f"{workload.name}.spans.tsv")
        print(f"spans: {tracer.spans_total} recorded, {spans} written to "
              f"perfbench/.traces/{workload.name}.spans.tsv")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
