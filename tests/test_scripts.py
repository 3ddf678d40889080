"""Smoke runs of the analysis scripts on small arguments.

Each script runs in a subprocess against this checkout's sources; it must
exit 0 and report no broken round trip, census mismatch or disagreement.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ["region_census.py", "--mode", "bd", "--max-arity", "2", "--step", "4"],
    ["region_census.py", "--mode", "bd", "--max-arity", "2", "--step", "4", "--bounded"],
    ["region_census.py", "--mode", "slr", "--points", "0,1", "--max-arity", "2", "--step", "4"],
    ["ta_differential.py", "--seed", "1", "--count", "1"],
    ["selection_growth.py", "--rounds", "2", "--sizes", "10"],
    ["stream_digest.py", "--bsr", "4", "--timed", "1"],
    ["stream_digest.py", "--bsr", "4", "--timed", "1", "--decide"],
]

FAILURE_MARKS = ("BROKEN", "MISMATCH", "DISAGREE")


def run_script(argv) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_script_runs_clean(argv):
    lines = run_script(argv)
    assert len(lines) > 1
    assert not [line for line in lines if any(m in line for m in FAILURE_MARKS)]


def test_stream_digest_prints_normal_digest():
    lines = run_script(["stream_digest.py", "--bsr", "2", "--timed", "0"])
    normal = [line.split() for line in lines if line.startswith("normal ")]
    assert len(normal) == 1 and normal[0][1] == "2" and len(normal[0][-1]) == 64


def test_decide_pool_lists_the_costliest_draws():
    lines = run_script(["decide_pool.py", "--count", "6"])
    assert lines[0].startswith("decide 6 sets: ")
    assert re.fullmatch(r"encode and normalize 6 sets: \d+\.\d\ds", lines[1])
    listed = [line.split() for line in lines[lines.index("costliest 6:") + 1:]]
    assert len(listed) == 6
    assert {row[0] for row in listed} == {f"bsr:{i}" for i in range(6)}
    assert {row[2] for row in listed} <= {"sat", "unsat"}


def test_decide_pool_times_the_automata_with_the_draws():
    lines = run_script(["decide_pool.py", "--count", "2", "--timed", "2"])
    assert lines[0].startswith("decide 4 sets: ")
    listed = [line.split() for line in lines[lines.index("costliest 4:") + 1:]]
    assert {row[0] for row in listed} == {"bsr:0", "bsr:1", "ta:0", "ta:1"}
    assert {row[2] for row in listed} <= {"sat", "unsat"}
