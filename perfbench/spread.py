"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/spread.json
    python3 perfbench/spread.py --workloads intervals-medium --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --against perfbench/spread.json

Runs are sequential, one process at a time, untraced.  For every workload
and end-to-end metric it prints the median and the quartile spread
``(q3 - q1) / median`` over the seeds, as ``statistics.quantiles(n=4)`` gives
the quartiles, next to the metric's bound from BENCHMARK.json; every spread
but that of ``setup_s`` must stay within its bound.  With
``--against`` it also checks this set against an earlier one: every median
may be worse by at most the metric's bound, and every seed must print the
same output digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(
        (line.split("sha256=")[1] for line in lines if line.startswith("output_digest")), ""
    )
    result["elapsed_s"] = time.monotonic() - started
    return result


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default="")
    parser.add_argument("--against", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in names:
        runs = []
        for seed in seeds:
            result = run_once(spec, workload, seed)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} digest={result['digest'][:16]} "
                  f"elapsed={result['elapsed_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "values": values,
            }
            # setup_s is held only to its median, not to its spread.
            if metric["name"] != "setup_s":
                ok &= spread <= metric["bound"]
            line = (f"  {metric['name']:<18} median {median:.6g} {metric['unit']}  "
                    f"spread {spread:.4f}  bound {metric['bound']}")
            if earlier is not None:
                before = earlier["workloads"][workload]["metrics"][metric["name"]]["median"]
                worse = worse_by(metric, before, median)
                ok &= worse <= metric["bound"]
                line += f"  vs earlier median {before:.6g}: worse by {worse:+.4f}"
            print(line)
        digests = [r["digest"] for r in runs]
        if earlier is not None:
            same = digests == earlier["workloads"][workload]["digests"]
            ok &= same
            print(f"  digests {'identical to' if same else 'DIFFER from'} the earlier set")
        report["workloads"][workload] = {
            "metrics": summary,
            "digests": digests,
            "all_correct": all(r["correct"] for r in runs),
        }
        ok &= report["workloads"][workload]["all_correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print("verdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
