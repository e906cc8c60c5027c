"""Recorded CLI runs, replayed byte for byte through `sdlp.cli.main`.

`tests/data/cli_golden.json` holds, for every run, its argument list and
the stdout, stderr and exit code it gave when recorded. The instance files
are in `tests/data/cli/`. An `attack` run reads the transcript that the
recorded `exchange --with-secrets` run of the same instance and oracle
printed. After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py --record

which prints the id of every run whose output or exit code changed.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from sdlp.cli import main
from sdlp.solvers import SOLVER_NAMES

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli_golden.json"
INSTANCES = ("readme", "heisenberg_65521", "gl2_f9", "linear_65521_3", "power_1024", "power_1024_endo", "vector_x_cyclic")
# --max-walk keeps brute force from walking a large orbit before it declines
COMMON = ("--seed", "1", "--max-walk", "65536")


def planned_runs():
    """(run id, argv) in recording order; "{instance}" and "{transcript}"
    stand for the instance file and the exchange transcript."""
    runs = []
    for name in INSTANCES:
        for oracle in ("bsgs", "rho"):
            opts = ("--oracle", oracle) + COMMON
            for solver in SOLVER_NAMES:
                runs.append((f"{name}/{oracle}/solve-{solver}", ["solve", "--instance", "{instance}", "--explain", "--solver", solver, *opts]))
            runs.append((f"{name}/{oracle}/orbit", ["orbit", "--instance", "{instance}", *opts]))
            runs.append((f"{name}/{oracle}/exchange", ["exchange", "--instance", "{instance}", "--with-secrets", *opts]))
            runs.append((f"{name}/{oracle}/attack", ["attack", "--transcript", "{transcript}", *opts]))
    return runs


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def resolve(run_id, argv, transcripts, tmp_dir):
    """argv with its placeholders filled; an attack reads the transcript
    its exchange run printed."""
    instance = str(DATA / "cli" / (run_id.split("/")[0] + ".json"))
    out = []
    for arg in argv:
        if arg == "{instance}":
            arg = instance
        elif arg == "{transcript}":
            path = pathlib.Path(tmp_dir) / "transcript.json"
            path.write_text(transcripts[run_id.rsplit("/", 1)[0]], encoding="utf-8")
            arg = str(path)
        out.append(arg)
    return out


def record():
    """Re-run every planned run into the golden file; returns the run ids
    whose stdout, stderr or exit code differ from the previous recording
    (new runs included)."""
    old = _golden() if GOLDEN.exists() else {}
    records = {}
    transcripts = {}
    with tempfile.TemporaryDirectory() as tmp_dir:
        for run_id, argv in planned_runs():
            result = run_cli(resolve(run_id, argv, transcripts, tmp_dir))
            if run_id.endswith("/exchange"):
                transcripts[run_id.rsplit("/", 1)[0]] = result["stdout"]
            records[run_id] = dict(argv=argv, **result)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return [run_id for run_id, rec in records.items() if _outcome(rec) != _outcome(old.get(run_id, {}))]


def _outcome(rec):
    return {k: rec.get(k) for k in ("stdout", "stderr", "code")}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recorded_runs_are_the_planned_runs():
    assert {run_id: argv for run_id, argv in planned_runs()} == {k: v["argv"] for k, v in _golden().items()}


@pytest.mark.parametrize("name", INSTANCES)
def test_cli_output_matches_recording(name, tmp_path):
    golden = _golden()
    transcripts = {k.rsplit("/", 1)[0]: v["stdout"] for k, v in golden.items() if k.endswith("/exchange")}
    for run_id, argv in planned_runs():
        if run_id.split("/")[0] != name:
            continue
        want = golden[run_id]
        got = run_cli(resolve(run_id, argv, transcripts, tmp_path))
        assert got == {k: want[k] for k in ("stdout", "stderr", "code")}, run_id


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    for run_id in record():
        print(f"changed: {run_id}")
