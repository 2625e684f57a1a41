"""Self-test of the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@functools.cache
def tiny_run(name: str, trace: int) -> subprocess.CompletedProcess:
    """One request (--seconds 0) of a workload, run once per test session."""
    return bench(ROOT, name, 7, trace)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc: subprocess.CompletedProcess) -> str:
    lines = [l for l in proc.stdout.splitlines() if l.startswith("output_digest")]
    assert len(lines) == 1
    return lines[0]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name):
    plain = tiny_run(name, 0)
    traced = tiny_run(name, 1)
    for proc, group in ((plain, "end_to_end"), (traced, "per_layer")):
        result = last_json(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] == 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected
    for metric in SPEC["end_to_end"]:
        assert last_json(plain)["metrics"][metric["name"]]["value"] > 0
    # Tracing must not change the answer.
    assert digest(plain) == digest(traced)


def test_traced_layers_show_the_intended_contrast():
    layer = {
        name: {k: v["value"] for k, v in last_json(tiny_run(name, 1))["metrics"].items()}
        for name in workloads.WORKLOADS
    }
    assert layer["cli-small"]["pwl.envelope_of_pwl.self_s"] > 0
    assert layer["intervals-medium"]["pwl.envelope_of_pwl.s"] == 0
    shares = {k: v for k, v in layer["intervals-medium"].items() if k.endswith(".share")}
    assert max(shares, key=shares.get) == "matroid.share"
    assert layer["intervals-medium"]["matroid.replacement_element.s"] > (
        layer["intervals-medium"]["matroid.self_s"] / 2
    )
    for name, metrics in layer.items():
        front_end = metrics["cli.main.calls"] > 0 and metrics["instances.load_instance.s"] > 0
        assert front_end == (name == "cli-small")


def _inputs(workload, seed: int, workdir: Path) -> list[bytes]:
    mi = run.fresh_import()
    requests = workload.write_inputs(mi, workload.setup(mi, seed), workdir)
    if requests[0].path:
        return [Path(r.path).read_bytes() for r in requests]
    return [
        json.dumps(mi.instances.dump_instance(r.inst), sort_keys=True).encode()
        for r in requests
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _inputs(workload, 11, tmp_path / "a")
    again = _inputs(workload, 11, tmp_path / "b")
    other = _inputs(workload, 12, tmp_path / "c")
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".traces"))
    proc = bench(tmp_path, "cli-small", 1, 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
