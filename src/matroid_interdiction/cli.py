"""Command-line front end.

Verbs:

* ``solve``      -- write the segment list and stats for one instance file
* ``check``      -- run all solvers and every structural self-check
* ``plot``       -- sample the value functions into a CSV
* ``double``     -- emit the parallel-twin double of an instance
* ``candidates`` -- list the candidate crossings with their case tags

Exit codes: 0 success, 1 input, output or usage error, 2 assumption violation
(coloops present), 3 a check failed.  Output files are byte-identical across
runs on the same input; there is no timestamping and no parallelism.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import warnings
from fractions import Fraction

from .instances import (
    InstanceFormatError,
    dump_solution,
    load_instance,
    read_dimacs,
    read_text,
    save_instance,
)
from .interdiction import (
    doubled_graphic_instance,
    doubled_instance,
    find_candidates,
    naive_solution,
    removal_gains,
    solve_naive,
    window_solution,
)
from .matroid import ColoopError, GraphicMatroid
from .oracle import compare, interdict_at, solve_bruteforce
from .parametric import CoincidentEqualityPointsWarning, MatroidInstance
from .parametric import interior_crossings, parametric_min_basis
from .pwl import pwl_equal
from .rationals import ParamInterval, extended

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COLOOPS = 2
EXIT_CHECK_FAILED = 3

_SOLVERS = {
    "naive": lambda inst, schedule, candidates: naive_solution(
        inst, schedule, removal_gains(inst, schedule)
    ),
    "intervals": lambda inst, schedule, candidates: window_solution(inst, candidates),
    "oracle": lambda inst, schedule, candidates: solve_bruteforce(inst),
}


def _load(args) -> MatroidInstance:
    path = args.infile
    fmt = args.format
    if fmt == "auto":
        fmt = "dimacs" if path.endswith((".dimacs", ".col")) else "json"
    if fmt == "dimacs":
        lo, _, hi = args.interval.partition(":")
        window = ParamInterval(extended(lo.strip()), extended(hi.strip()))
        inst = read_dimacs(read_text(path), window, name=path.rsplit("/", 1)[-1])
    else:
        inst = load_instance(path)
    backend = inst.backend
    if isinstance(backend, GraphicMatroid) and backend.self_loops():
        loops = ", ".join(f"e{e}" for e in backend.self_loops())
        print(f"note: self-loop edges present: {loops}", file=sys.stderr)
    return inst


def _solve(algorithm: str, inst: MatroidInstance, *, stats: bool = True):
    """The plain schedule, the candidates and the solution built from them, once.

    Without ``stats`` the candidates are built only for the window solver,
    and are None otherwise.
    """
    schedule = parametric_min_basis(inst)
    candidates = None
    if stats or algorithm == "intervals":
        candidates = find_candidates(inst, schedule.points)
    return schedule, candidates, _SOLVERS[algorithm](inst, schedule, candidates)


def _stats(inst: MatroidInstance, schedule, candidates, sol) -> dict:
    k = len(schedule.bases[0])
    overfull = _overfull_window(sol, candidates.lambdas(), k)
    return {
        "m": inst.m,
        "k": k,
        "equality_points": len(schedule.points),
        "candidates": len(candidates),
        "breakpoints_of_w": len(schedule.value.cuts),
        "changepoints_of_y": len(sol.value.cuts),
        "bound_2km": 2 * k * inst.m,
        "bound_mk2_intervals_ok": overfull is None,
    }


def _overfull_window(sol, lambdas, k) -> list[Fraction] | None:
    """The slope changes of the first candidate window holding more than k - 1.

    One merge walk: a cut above ``j`` candidate values lies in window ``j``,
    unless it equals the next value.
    """
    windows: dict[int, list[Fraction]] = {}
    j = 0
    for cut in sol.value.cuts:
        while j < len(lambdas) and lambdas[j] < cut:
            j += 1
        if j == len(lambdas) or lambdas[j] != cut:
            windows.setdefault(j, []).append(cut)
    return next((cuts for cuts in windows.values() if len(cuts) > k - 1), None)


def cmd_solve(args) -> int:
    inst = _load(args)
    schedule, candidates, sol = _solve(args.algorithm, inst)
    payload = dump_solution(inst, sol, _stats(inst, schedule, candidates, sol))
    text = json.dumps(payload, indent=2) + "\n"
    with open(args.outfile, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.outfile}: {len(sol.segments)} segment(s)")
    return EXIT_OK


def _run_checks(inst: MatroidInstance) -> list[tuple[str, bool, str]]:
    schedule = parametric_min_basis(inst)
    gains = removal_gains(inst, schedule)
    naive = naive_solution(inst, schedule, gains)
    candidates = find_candidates(inst, schedule.points)
    intervals = window_solution(inst, candidates)
    brute = solve_bruteforce(inst)
    k = len(schedule.bases[0])
    checks: list[tuple[str, bool, str]] = []

    for name, left, right in (
        ("naive vs intervals", naive, intervals),
        ("naive vs oracle", naive, brute),
        ("intervals vs oracle", intervals, brute),
    ):
        report = compare(left, right)
        detail = ""
        if report.first_divergence:
            lam, lhs, rhs = report.first_divergence
            detail = f"first divergence at {lam}: {lhs} vs {rhs}"
        checks.append((f"solver agreement: {name}", report.ok, detail))

    bound = 2 * k * inst.m
    checks.append(
        (
            "candidate count within 2km bound",
            len(candidates) <= bound,
            f"{len(candidates)} candidates vs bound {bound}",
        )
    )

    lambdas = candidates.lambdas()
    candidate_set = set(lambdas)
    # A removal optimum is the plain optimum plus the element's gain, so the
    # cuts beyond the plain optimum's are exactly the gain's own.
    missing = [c for c in schedule.value.cuts if c not in candidate_set]
    for fn in gains.values():
        missing += [c for c in fn.cuts if c not in candidate_set]
    checks.append(
        (
            "candidates cover every slope change",
            not missing,
            f"uncovered: {missing[0]}" if missing else "",
        )
    )

    overfull = _overfull_window(naive, lambdas, k)
    window_detail = (
        f"{len(overfull)} slope changes after {overfull[0]}" if overfull else ""
    )
    checks.append(
        ("per-window slope changes at most k-1", overfull is None, window_detail)
    )

    slopes = [p.b for p in schedule.value.pieces]
    concave = all(nxt < prev for prev, nxt in zip(slopes, slopes[1:]))
    concave_detail = "" if concave else next(
        f"slope does not drop at {cut}"
        for cut, prev, nxt in zip(schedule.value.cuts, slopes, slopes[1:])
        if nxt >= prev
    )
    checks.append(("optimal value function concave", concave, concave_detail))

    vital_ok = True
    detail = ""
    for seg in naive.segments:
        rep = seg.window.representative()
        if seg.most_vital not in seg.basis:
            vital_ok, detail = False, f"at {rep}: e{seg.most_vital} not in basis"
            break
        value, _ = interdict_at(inst, rep)
        if value != naive.value_at(rep):
            vital_ok, detail = False, f"at {rep}: {value} vs {naive.value_at(rep)}"
            break
    checks.append(("most vital element lies in the optimal basis", vital_ok, detail))

    swap_ok = True
    detail = ""
    for cut, (out, in_) in zip(schedule.cuts, schedule.swaps):
        if gains[out].value_at(cut) != gains[in_].value_at(cut):  # both plus w(cut)
            swap_ok = False
            detail = f"at {cut}: e{out} vs e{in_}"
            break
    checks.append(("swap partners agree at every breakpoint", swap_ok, detail))

    with warnings.catch_warnings():  # the double is tied by construction
        warnings.simplefilter("ignore", CoincidentEqualityPointsWarning)
        doubled = solve_naive(doubled_instance(inst))
    doubled_ok = pwl_equal(doubled.value, schedule.value)
    doubled_detail = ""
    if not doubled_ok:
        for lam in list(doubled.value.cuts) + list(schedule.value.cuts):
            if doubled.value.value_at(lam) != schedule.value.value_at(lam):
                doubled_detail = f"values differ at {lam}"
                break
    checks.append(
        (
            "doubled instance reproduces the optimal value function",
            doubled_ok,
            doubled_detail,
        )
    )
    return checks


def cmd_check(args) -> int:
    inst = _load(args)
    checks = _run_checks(inst)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        state = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail and not ok else ""
        print(f"{name.ljust(width)}  {state}{suffix}")
    if any(not ok for _, ok, _ in checks):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_plot(args) -> int:
    if args.samples < 1:
        print(
            f"error: --samples must be at least 1, got {args.samples}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    inst = _load(args)
    if not inst.interval.is_bounded:
        print("error: plotting needs a bounded interval", file=sys.stderr)
        return EXIT_INPUT
    schedule, _, solution = _solve(args.algorithm, inst, stats=False)
    lo, hi = inst.interval.lo.value, inst.interval.hi.value
    samples = [lo + Fraction(i * (hi - lo), args.samples) for i in range(args.samples + 1)]
    rows = sorted(list(solution.value.cuts) + samples)
    with open(args.outfile, "w", encoding="utf-8") as handle:
        handle.write("lambda,y,w,most_vital,y_decimal\n")
        for lam in rows:
            y = solution.value_at(lam)
            w = schedule.value.value_at(lam)
            vital = solution.most_vital_at(lam)
            decimal = f"{float(y):.12f}"
            handle.write(
                f"{lam!s},{y!s},{w!s},e{vital},{decimal}\n"
            )
    print(f"wrote {args.outfile}: {len(rows)} row(s)")
    return EXIT_OK


def cmd_double(args) -> int:
    inst = _load(args)
    if isinstance(inst.backend, GraphicMatroid):
        doubled = doubled_graphic_instance(inst)
    else:
        doubled = doubled_instance(inst)
    save_instance(doubled, args.outfile)
    print(f"wrote {args.outfile}: {doubled.m} element(s)")
    return EXIT_OK


def cmd_candidates(args) -> int:
    inst = _load(args)
    candidates = find_candidates(inst, interior_crossings(inst))
    print("lambda\tcrossing\tcases")
    for entry in candidates.entries:
        pt = entry.point
        print(
            f"{pt.lam!s}\te{pt.lighter_before}->e{pt.lighter_after}\t{entry.tags}"
        )
    print(f"total: {len(candidates)} (bound 2km = {2 * inst.rank() * inst.m})")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use and reused after."""
    parser = argparse.ArgumentParser(
        prog="matroid-interdiction",
        description="Exact parametric one-interdiction solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--in", dest="infile", required=True, help="instance file")
        p.add_argument(
            "--format", choices=("auto", "json", "dimacs"), default="auto"
        )
        p.add_argument(
            "--interval",
            default="-10:10",
            help="DIMACS parameter interval LO:HI; a negative LO needs --interval=-5:5",
        )

    p_solve = sub.add_parser("solve", help="solve one instance")
    add_common(p_solve)
    p_solve.add_argument(
        "--algorithm", choices=sorted(_SOLVERS), default="naive"
    )
    p_solve.add_argument("--out", dest="outfile", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="run all solvers and self-checks")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_plot = sub.add_parser("plot", help="sample the value functions to CSV")
    add_common(p_plot)
    p_plot.add_argument("--algorithm", choices=sorted(_SOLVERS), default="naive")
    p_plot.add_argument("--samples", type=int, default=16)
    p_plot.add_argument("--out", dest="outfile", required=True)
    p_plot.set_defaults(func=cmd_plot)

    p_double = sub.add_parser("double", help="emit the parallel-twin double")
    add_common(p_double)
    p_double.add_argument("--out", dest="outfile", required=True)
    p_double.set_defaults(func=cmd_double)

    p_cand = sub.add_parser("candidates", help="list candidate crossings")
    add_common(p_cand)
    p_cand.set_defaults(func=cmd_candidates)

    return parser


def _check_outfile(path: str) -> None:
    """Fail as ``open(path, "w")`` would, but before any work and creating nothing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        if hasattr(args, "outfile"):
            _check_outfile(args.outfile)
        # Recorded, not shown: Python's format would print a source path.
        with warnings.catch_warnings(record=True) as caught:
            try:
                return args.func(args)
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    except ColoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLOOPS
    except (InstanceFormatError, ValueError, OSError) as exc:  # OSError: an output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run():  # console-script entry point
    raise SystemExit(main())
