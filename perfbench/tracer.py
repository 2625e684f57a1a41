"""In-memory span tracer that wraps the package's public functions from outside.

A traced run installs one wrapper per public entry point of each module (the
layers) and records, per call, a span ``(id, name, parent span, op id, start,
end)`` plus counts taken from the call's arguments and result.  Names that a
module imported with ``from .x import f`` are rebound in every module that
holds them (module globals and module-level dicts such as the CLI's solver
table), so calls between modules are traced as well.  The untraced runs never
construct a :class:`Tracer`, so they run the package unmodified.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from itertools import groupby
from pathlib import Path

PACKAGE = "matroid_interdiction"

# (span name, module, attribute path) of every traced entry point.  The
# first part of the span name is the layer, which is the module.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("instances.load_instance", "instances", "load_instance"),
    ("instances.dump_solution", "instances", "dump_solution"),
    ("interdiction.solve_naive", "interdiction", "solve_naive"),
    ("interdiction.solve_intervals", "interdiction", "solve_intervals"),
    ("interdiction.removal_value_functions", "interdiction", "removal_value_functions"),
    ("interdiction.find_candidates", "interdiction", "find_candidates"),
    ("parametric.parametric_min_basis", "parametric", "parametric_min_basis"),
    ("parametric.all_equality_points", "parametric", "all_equality_points"),
    ("parametric.advance_min_basis", "parametric", "advance_min_basis"),
    ("matroid.is_independent", "matroid", "MatroidView.is_independent"),
    ("matroid.greedy_min_basis", "matroid", "MatroidView.greedy_min_basis"),
    ("matroid.replacement_element", "matroid", "MatroidView.replacement_element"),
    ("matroid.components", "matroid", "MatroidView.components"),
    ("matroid.coloop_scan", "matroid", "MatroidView.coloop_scan"),
    ("pwl.envelope_of_pwl", "pwl", "envelope_of_pwl"),
    ("pwl.envelope_of_lines", "pwl", "envelope_of_lines"),
    ("pwl.PWLFunction.build", "pwl", "PWLFunction.build"),
    ("solution.build_solution", "solution", "build_solution"),
)
LAYERS = ("cli", "instances", "interdiction", "parametric", "matroid", "pwl", "solution")

# Raw spans kept for the span file; aggregates cover every call regardless.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[list] = []  # [span id, name id, child seconds]
        self._next_id = 0
        self._span_cols = (array("q"), array("i"), array("q"), array("i"))
        self._span_times = (array("d"), array("d"))
        self._installed: list[tuple[object, str, object]] = []
        self._op_points: dict[int, int] = {}
        self._op_candidates: dict[int, int] = {}
        self.t0 = time.perf_counter()

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self._op_points.clear()
        self._op_candidates.clear()

    def end_op(self):
        # candidate_ratio pairs each find_candidates call with the crossing
        # count all_equality_points reported for the same instance object.
        for key, cands in self._op_candidates.items():
            if key in self._op_points:
                self.counts["candidates"] += cands
                self.counts["candidate_base"] += self._op_points[key]
        self.op = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, nid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _close(self, frame, start: float, end: float):
        sid, nid, child = frame
        name = self.names[nid]
        dur = end - start
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[0]
        if sid < MAX_SPANS:
            ids, name_ids, parents, ops = self._span_cols
            ids.append(sid)
            name_ids.append(nid)
            parents.append(parent)
            ops.append(self.op)
            self._span_times[0].append(start - self.t0)
            self._span_times[1].append(end - self.t0)

    def install(self):
        """Wrap every target and rebind each reference the package holds."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for name, module_name, attr in TARGETS:
            module = modules[f"{PACKAGE}.{module_name}"]
            after = _AFTER.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__, after))
                else:
                    wrapped = self._wrap(name, raw, after)
                self._set(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, after)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._installed.append((value, dkey, dvalue))
                                value[dkey] = wrapped

    def _set(self, owner, attr: str, value):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as TSV, times in microseconds from start."""
        ids, name_ids, parents, ops = self._span_cols
        starts, ends = self._span_times
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tparent\top\tstart_us\tend_us\n")
            for i in range(len(ids)):
                handle.write(
                    f"{ids[i]}\t{self.names[name_ids[i]]}\t{parents[i]}\t{ops[i]}\t"
                    f"{starts[i] * 1e6:.1f}\t{ends[i] * 1e6:.1f}\n"
                )
        return len(ids)

    @property
    def spans_total(self) -> int:
        return self._next_id


# -- counts taken from arguments and results ------------------------------


def _after_is_independent(tracer, args, result):
    if result:
        tracer.counts["independent_true"] += 1
    if tracer._stack and tracer.names[tracer._stack[-1][1]] == "matroid.replacement_element":
        tracer.counts["replacement_tests"] += 1


def _after_all_equality_points(tracer, args, result):
    tracer.counts["equality_points"] += len(result)
    tracer.counts["bundles"] += sum(
        1 for _, group in groupby(result, key=lambda p: p.lam) if len(list(group)) > 1
    )
    tracer._op_points[id(args[0])] = len(result)


def _after_find_candidates(tracer, args, result):
    tracer._op_candidates[id(args[0])] = len(result)
    if tracer._stack and tracer.names[tracer._stack[-1][1]] == "interdiction.solve_intervals":
        tracer.counts["windows"] += len(result.lambdas()) + 1


def _after_advance_min_basis(tracer, args, result):
    tracer.counts["crossings_advanced"] += len(args[2])
    tracer.counts["swaps"] += len(result[1])


def _after_envelope_of_pwl(tracer, args, result):
    tracer.counts["pieces_in"] += sum(len(fn.pieces) for _, fn in args[0])
    tracer.counts["pieces_out"] += len(result.pieces)


def _after_build_solution(tracer, args, result):
    tracer.counts["segments"] += len(result.segments)


_AFTER = {
    "matroid.is_independent": _after_is_independent,
    "parametric.all_equality_points": _after_all_equality_points,
    "interdiction.find_candidates": _after_find_candidates,
    "parametric.advance_min_basis": _after_advance_min_basis,
    "pwl.envelope_of_pwl": _after_envelope_of_pwl,
    "solution.build_solution": _after_build_solution,
}
