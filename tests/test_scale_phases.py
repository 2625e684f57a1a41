import importlib.util
import json
from hashlib import sha256
from pathlib import Path

from matroid_interdiction.instances import dump_solution
from matroid_interdiction.interdiction import solve_naive

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_phases.py"


def load_script():
    spec = importlib.util.spec_from_file_location("scale_phases", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_reports_every_phase_and_the_naive_solution_hash():
    script = load_script()
    inst = script.scale_instance(10, 24)
    row = script.measure(inst)
    assert set(row) == {
        "instance", "m", "crossings", "swaps", "segments", "candidates",
        "sweep_s", "removal_gains_s", "naive_tail_s", "find_candidates_s",
        "sweep_peak_mib", "solution_sha256",
    }
    assert (row["instance"], row["m"]) == ("scale-24", 24)
    sol = solve_naive(inst)
    dumped = json.dumps(dump_solution(inst, sol, {}), sort_keys=True, separators=(",", ":"))
    assert row["solution_sha256"] == sha256(dumped.encode()).hexdigest()
    assert row["segments"] == len(sol.segments)
    assert row["sweep_peak_mib"] > 0
