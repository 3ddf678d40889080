"""Smoke runs of the analysis scripts on small arguments.

Each script runs in a subprocess against this checkout's sources; it must
exit 0 and report no broken round trip, census mismatch or disagreement.
``ta_differential.py`` also runs in this process once, to count its oracle
calls.
"""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from bsrsat import corpus, timed

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


def run_process(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )


def run_script(argv) -> list[str]:
    proc = run_process(argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_script_runs_clean(argv):
    lines = run_script(argv)
    assert len(lines) > 1
    assert not [line for line in lines if any(m in line for m in FAILURE_MARKS)]


@pytest.mark.parametrize("argv,message", [
    (["--mode", "slr", "--max-arity", "1", "--bounded"],
     "argument --bounded: not allowed with --mode slr"),
    (["--mode", "bd", "--max-arity", "1", "--points", "5"],
     "argument --points: not allowed with --mode bd"),
], ids=["slr --bounded", "bd --points"])
def test_region_census_rejects_an_option_of_the_other_mode(argv, message):
    proc = run_process(["region_census.py", *argv])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("argv,message", [
    (["region_census.py", "--mode", "bd", "--step", "0"],
     "argument --step: must be at least 1, got 0"),
    (["region_census.py", "--mode", "bd", "--kappa", "-1"],
     "argument --kappa: must be at least 0, got -1"),
    (["region_census.py", "--mode", "bd", "--max-arity", "0"],
     "argument --max-arity: must be at least 1, got 0"),
    (["ta_differential.py", "--lam", "0"],
     "argument --lam: must be at least 1, got 0"),
    (["ta_differential.py", "--count", "-1"],
     "argument --count: must be at least 1, got -1"),
], ids=["census --step 0", "census --kappa -1", "census --max-arity 0",
        "differential --lam 0", "differential --count -1"])
def test_scripts_reject_a_number_out_of_range(argv, message):
    # as the CLI does: a usage error, before any work
    proc = run_process(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


def test_ta_differential_counts_the_reachable_rows_of_its_table(monkeypatch, capsys):
    # the summary counts the region verdicts of the table: one oracle call
    # per automaton, at --lam (``corpus``, imported above, keeps the real
    # oracle that picks the automata)
    assert corpus.region_reach is timed.region_reach
    lams = []
    real = timed.region_reach

    def recording(aut, goal, lam=None):
        lams.append(lam)
        return real(aut, goal, lam)

    monkeypatch.setattr(timed, "region_reach", recording)
    monkeypatch.setattr(sys, "argv", ["ta_differential.py", "--seed", "1", "--count", "3", "--lam", "1"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / "scripts" / "ta_differential.py"), run_name="__main__")
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    region = [line.split()[-4] for line in lines[1:-1]]
    assert len(region) == 3 and set(region) <= {"True", "False"}
    assert lines[-1] == (f"3 instances, {region.count('True')} reachable, "
                         "0 disagreement(s)")
    assert lams == [1, 1, 1]


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


def test_decide_pool_times_the_draws_from_their_text():
    lines = run_script(["decide_pool.py", "--count", "4", "--text"])
    assert lines[0] == "text to verdict, 4 draws, each stage the best of 3 passes:"
    assert [line.split()[0] for line in lines[1:4]] == ["parse", "normalize", "decide"]
    for line in lines[1:4]:
        assert re.fullmatch(r"  \w+ +total +\d+\.\d{3}s  median +\d+\.\d{3}ms", line)
    shares = re.fullmatch(r"middle 1 draws by total cost: parse (\S+) %, "
                          r"normalize (\S+) %, decide (\S+) %", lines[4])
    assert shares and abs(sum(map(float, shares.groups())) - 100) < 0.2
    assert len(lines) == 5
