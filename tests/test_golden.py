"""Golden CLI outputs for every instance under ``fixtures/``.

``golden_fixtures.json`` pins, for each fixture, the exit code, stdout,
stderr and written file of ``solve`` with each algorithm, ``plot``,
``double``, ``candidates`` and ``check``, and of ``solve`` with each
algorithm, ``candidates`` and ``check`` on the file that ``double`` writes
(``... doubled``).  The ``--out`` path reads as ``<out>``.  The three
solvers must also write identical files.  Regenerate the data with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from matroid_interdiction.cli import main
from matroid_interdiction.parametric import CoincidentEqualityPointsWarning

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted(path.name for path in (ROOT / "fixtures").glob("*.json"))
DATA = Path(__file__).with_name("golden_fixtures.json")
COMMANDS = {
    "solve naive": ["solve", "--algorithm", "naive"],
    "solve intervals": ["solve", "--algorithm", "intervals"],
    "solve oracle": ["solve", "--algorithm", "oracle"],
    "plot": ["plot"],
    "double": ["double"],
    "candidates": ["candidates"],
    "check": ["check"],
    "candidates doubled": ["candidates"],
    "solve naive doubled": ["solve", "--algorithm", "naive"],
    "solve intervals doubled": ["solve", "--algorithm", "intervals"],
    "solve oracle doubled": ["solve", "--algorithm", "oracle"],
    "check doubled": ["check"],
}
WRITERS = ("solve", "plot", "double")


def run(fixture: str, command: str, workdir: Path) -> dict:
    """One CLI call as a fresh process would show it."""
    out = workdir / "out"
    source = ROOT / "fixtures" / fixture
    if command.endswith(" doubled"):
        source = workdir / "doubled.json"
        with redirect_stdout(StringIO()):
            assert main(["double", "--in", str(ROOT / "fixtures" / fixture),
                         "--out", str(source)]) == 0
    argv = COMMANDS[command] + ["--in", str(source)]
    if command.startswith(WRITERS):
        argv += ["--out", str(out)]
    stdout, stderr = StringIO(), StringIO()
    # The suite ignores the tie warning; restore Python's default here.
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("default", CoincidentEqualityPointsWarning)
        code = main(argv)
    written = out.read_text(encoding="utf-8") if out.exists() else None
    out.unlink(missing_ok=True)
    return {
        "exit": code,
        "stdout": stdout.getvalue().replace(str(out), "<out>"),
        "stderr": stderr.getvalue().replace(str(out), "<out>"),
        "file": written,
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_outputs_match_golden(fixture, command, tmp_path):
    expected = json.loads(DATA.read_text(encoding="utf-8"))[fixture][command]
    assert run(fixture, command, tmp_path) == expected


@pytest.mark.parametrize("fixture", FIXTURES)
def test_solvers_write_identical_files(fixture, tmp_path):
    for doubled in ("", " doubled"):
        files = {run(fixture, f"solve {algorithm}{doubled}", tmp_path)["file"]
                 for algorithm in ("naive", "intervals", "oracle")}
        assert len(files) == 1, f"solve{doubled}: the solvers' files differ"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            fixture: {command: run(fixture, command, Path(tmp)) for command in COMMANDS}
            for fixture in FIXTURES
        }
    DATA.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
