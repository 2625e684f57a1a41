"""Instance and solution files.

Instances and solutions are JSON with every number carried as an exact
rational string ("p/q", denominator omitted when 1, "inf"/"-inf" for open
interval ends).  Bare JSON integers are accepted on input for convenience;
floats are always rejected.  A minimal DIMACS edge importer is provided for
graphic instances; there is deliberately no further format zoo.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .matroid import DoubledMatroid, GraphicMatroid, UniformMatroid
from .parametric import MatroidInstance
from .pwl import LinearFn, PWLError, PWLFunction
from .rationals import ExtendedRational, ParamInterval, extended, rational
from .solution import Segment, Solution


class InstanceFormatError(ValueError):
    """A file failed validation; the message carries the offending path."""


def _fail(path: str, message: str) -> "InstanceFormatError":
    return InstanceFormatError(f"{path}: {message}")


def _as_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, float):
        raise _fail(path, f"floats are not accepted, got {value!r}")
    try:
        return rational(value)
    except (TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from None


def _as_extended(value: Any, path: str) -> ExtendedRational:
    if isinstance(value, str) and value.strip() in ("inf", "-inf"):
        return extended(value.strip())
    return extended(_as_rational(value, path))


def _as_int(value: Any, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _check_keys(data: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(data, dict):
        raise _fail(path, f"expected an object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise _fail(path, f"unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise _fail(path, f"missing keys {sorted(missing)}")


def _check_list(data: Any, path: str):
    if not isinstance(data, list):
        raise _fail(path, f"expected a list, got {type(data).__name__}")


def _line(a: Any, b: Any, path: str) -> LinearFn:
    return LinearFn(_as_rational(a, f"{path}.a"), _as_rational(b, f"{path}.b"))


def _parse_weight(data: Any, path: str) -> LinearFn:
    _check_keys(data, {"a", "b"}, {"a", "b"}, path)
    return _line(data["a"], data["b"], path)


def _window(lo: Any, hi: Any, path: str) -> ParamInterval:
    lo, hi = _as_extended(lo, f"{path}.lo"), _as_extended(hi, f"{path}.hi")
    if not lo < hi:
        raise _fail(path, f"interval lo={lo}, hi={hi} is empty or a single point")
    return ParamInterval(lo, hi)


def _parse_interval(data: Any, path: str) -> ParamInterval:
    _check_keys(data, {"lo", "hi"}, {"lo", "hi"}, path)
    return _window(data["lo"], data["hi"], path)


def parse_instance(data: Any, path: str = "instance") -> MatroidInstance:
    _check_keys(
        data,
        {"type", "name", "nodes", "edges", "m", "k", "weights", "interval", "inner"},
        {"type"},
        path,
    )
    kind = data["type"]
    name = data.get("name", "")
    if not isinstance(name, str):
        raise _fail(f"{path}.name", "must be a string")

    if kind == "graphic":
        _check_keys(
            data, {"type", "name", "nodes", "edges", "interval"},
            {"type", "nodes", "edges", "interval"}, path,
        )
        nodes = _as_int(data["nodes"], f"{path}.nodes", minimum=1)
        if not isinstance(data["edges"], list) or not data["edges"]:
            raise _fail(f"{path}.edges", "expected a non-empty list")
        edges = []
        weights = []
        for i, item in enumerate(data["edges"]):
            epath = f"{path}.edges[{i}]"
            _check_keys(item, {"u", "v", "a", "b"}, {"u", "v", "a", "b"}, epath)
            u = _as_int(item["u"], f"{epath}.u", minimum=0)
            v = _as_int(item["v"], f"{epath}.v", minimum=0)
            if u >= nodes or v >= nodes:
                raise _fail(epath, f"node index out of range [0, {nodes})")
            edges.append((u, v))
            weights.append(_line(item["a"], item["b"], epath))
        backend = GraphicMatroid(nodes, tuple(edges))
        interval = _parse_interval(data["interval"], f"{path}.interval")
        return MatroidInstance(backend, tuple(weights), interval, name)

    if kind == "uniform":
        _check_keys(
            data, {"type", "name", "m", "k", "weights", "interval"},
            {"type", "m", "k", "weights", "interval"}, path,
        )
        m = _as_int(data["m"], f"{path}.m", minimum=1)
        k = _as_int(data["k"], f"{path}.k", minimum=1)
        if k > m:
            raise _fail(f"{path}.k", f"k={k} exceeds m={m}")
        if not isinstance(data["weights"], list) or len(data["weights"]) != m:
            raise _fail(f"{path}.weights", f"expected a list of {m} weights")
        weights = [
            _parse_weight(w, f"{path}.weights[{i}]")
            for i, w in enumerate(data["weights"])
        ]
        interval = _parse_interval(data["interval"], f"{path}.interval")
        return MatroidInstance(UniformMatroid(m, k), tuple(weights), interval, name)

    if kind == "doubled":
        _check_keys(data, {"type", "name", "inner"}, {"type", "inner"}, path)
        inner = parse_instance(data["inner"], f"{path}.inner")
        backend = DoubledMatroid(inner.backend)
        return MatroidInstance(
            backend, inner.weights + inner.weights, inner.interval, name or inner.name
        )

    raise _fail(f"{path}.type", f"unknown instance type {kind!r}")


def dump_instance(inst: MatroidInstance) -> dict:
    backend = inst.backend
    if isinstance(backend, GraphicMatroid):
        return {
            "type": "graphic",
            "name": inst.name,
            "nodes": backend.node_count,
            "edges": [
                {"u": u, "v": v, "a": str(w.a), "b": str(w.b)}
                for (u, v), w in zip(backend.edges, inst.weights)
            ],
            "interval": {"lo": str(inst.interval.lo), "hi": str(inst.interval.hi)},
        }
    if isinstance(backend, UniformMatroid):
        return {
            "type": "uniform",
            "name": inst.name,
            "m": backend.m,
            "k": backend.k,
            "weights": [{"a": str(w.a), "b": str(w.b)} for w in inst.weights],
            "interval": {"lo": str(inst.interval.lo), "hi": str(inst.interval.hi)},
        }
    if isinstance(backend, DoubledMatroid):
        half = backend.inner.size
        if inst.weights[:half] != inst.weights[half:]:
            raise ValueError("cannot serialize a doubled instance whose twins differ in weight")
        inner = MatroidInstance(
            backend.inner, inst.weights[:half], inst.interval, inst.name
        )
        return {"type": "doubled", "name": inst.name, "inner": dump_instance(inner)}
    raise TypeError(f"cannot serialize backend {type(backend).__name__}")


def read_text(path: str) -> str:
    """The text of a UTF-8 input file; failing to read it names the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail(path, str(exc)) from None


def load_instance(path: str) -> MatroidInstance:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return parse_instance(data, path)


def save_instance(inst: MatroidInstance, path: str):
    data = dump_instance(inst)  # a refusal creates no file
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def dump_solution(inst: MatroidInstance, sol: Solution, stats: dict) -> dict:
    return {
        "instance": inst.name,
        "interval": {"lo": str(inst.interval.lo), "hi": str(inst.interval.hi)},
        "segments": [
            {
                "lo": str(seg.window.lo),
                "hi": str(seg.window.hi),
                "value": {"a": str(seg.value.a), "b": str(seg.value.b)},
                "most_vital": seg.most_vital,
                "basis": sorted(seg.basis),
                "replacement": seg.replacement,
            }
            for seg in sol.segments
        ],
        "stats": stats,
    }


def parse_solution(data: Any, path: str = "solution") -> tuple[str, Solution, dict]:
    """Round-trip reader for solution files (used for diffing and tests)."""
    _check_keys(
        data, {"instance", "interval", "segments", "stats"},
        {"instance", "interval", "segments", "stats"}, path,
    )
    interval = _parse_interval(data["interval"], f"{path}.interval")
    _check_list(data["segments"], f"{path}.segments")
    segments = []
    for i, item in enumerate(data["segments"]):
        spath = f"{path}.segments[{i}]"
        _check_keys(
            item, {"lo", "hi", "value", "most_vital", "basis", "replacement"},
            {"lo", "hi", "value", "most_vital", "basis", "replacement"}, spath,
        )
        window = _window(item["lo"], item["hi"], spath)
        value = _parse_weight(item["value"], f"{spath}.value")
        _check_list(item["basis"], f"{spath}.basis")
        segments.append(
            Segment(
                window,
                value,
                _as_int(item["most_vital"], f"{spath}.most_vital", minimum=0),
                frozenset(
                    _as_int(e, f"{spath}.basis[{j}]", minimum=0)
                    for j, e in enumerate(item["basis"])
                ),
                _as_int(item["replacement"], f"{spath}.replacement", minimum=0),
            )
        )
    value_fn = _value_from_segments(interval, segments, path)
    return data["instance"], Solution(tuple(segments), value_fn), data["stats"]


def _value_from_segments(interval, segments, path):
    if not segments:
        raise _fail(f"{path}.segments", "expected at least one segment")
    cuts = []
    pieces = [segments[0].value]
    for prev, seg in zip(segments, segments[1:]):
        if prev.window.hi != seg.window.lo:
            raise _fail(f"{path}.segments", "segments do not tile the interval")
        cuts.append(seg.window.lo.value)
        pieces.append(seg.value)
    if segments[0].window.lo != interval.lo or segments[-1].window.hi != interval.hi:
        raise _fail(f"{path}.segments", "segments do not cover the interval")
    try:
        return PWLFunction.build(interval, cuts, pieces)
    except PWLError as exc:  # value lines that do not meet at a shared end
        raise _fail(f"{path}.segments", str(exc)) from None


def _dimacs_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise InstanceFormatError(
            f"line {lineno}: expected an integer, got {text!r}"
        ) from None


def read_dimacs(text: str, interval: ParamInterval, name: str = "") -> MatroidInstance:
    """Minimal DIMACS edge reader.

    Accepts ``p edge <nodes> <edges>`` and 1-indexed ``e u v [a [b]]`` lines,
    where the optional trailing columns are exact rationals (default weight
    ``1 + 0*lam``); ``c`` lines are comments.  There is one header, and its
    edge count must equal the number of ``e`` lines.
    """
    nodes = header = declared = None
    edges: list[tuple[int, int]] = []
    weights: list[LinearFn] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise InstanceFormatError(f"line {lineno}: expected 'p edge N M'")
            if header is not None:
                raise InstanceFormatError(f"line {lineno}: second 'p edge' header")
            nodes = _as_int(_dimacs_int(parts[2], lineno), f"line {lineno}", minimum=1)
            header, declared = lineno, _dimacs_int(parts[3], lineno)
        elif parts[0] == "e":
            if nodes is None:
                raise InstanceFormatError(f"line {lineno}: 'e' before 'p edge'")
            if len(parts) not in (3, 4, 5):
                raise InstanceFormatError(f"line {lineno}: expected 'e u v [a [b]]'")
            u = _dimacs_int(parts[1], lineno) - 1
            v = _dimacs_int(parts[2], lineno) - 1
            if not (0 <= u < nodes and 0 <= v < nodes):
                raise InstanceFormatError(f"line {lineno}: node out of range")
            a = _as_rational(parts[3], f"line {lineno}") if len(parts) > 3 else Fraction(1)
            b = _as_rational(parts[4], f"line {lineno}") if len(parts) > 4 else Fraction(0)
            edges.append((u, v))
            weights.append(LinearFn(a, b))
        else:
            raise InstanceFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if nodes is None or not edges:
        raise InstanceFormatError("no 'p edge' header or no edges")
    if declared != len(edges):
        raise InstanceFormatError(
            f"line {header}: header declares {declared} edges, found {len(edges)}"
        )
    return MatroidInstance(
        GraphicMatroid(nodes, tuple(edges)), tuple(weights), interval, name
    )
