"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run smoke-size slices (``--limit``), about 15 s in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bsrsat.decide as decide_mod  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_LIMIT = {"ta-reachable": 1, "bsr-random": 6}


def _run(workload: str, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--limit", str(SMOKE_LIMIT[workload])]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    stdout, result = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']}: {got['value']} {m['unit']}" in stdout
    if trace and workload == "ta-reachable":
        for name in ("decide.verify_calls", "decide.verify_s",
                     "regions.representative_calls", "regions.representative_s"):
            assert result["metrics"][name]["value"] == 0


def test_corrupted_expected_verdict_fails_the_run(monkeypatch, capsys):
    expected = workloads.load_expected()
    first = workloads.slice_for("bsr-random", 0, expected)[0]
    for row in expected["bsr"]["instances"]:
        if row["id"] == first:
            row["verdict"] = "unsat" if row["verdict"] == "sat" else "sat"
    monkeypatch.setattr(workloads, "load_expected", lambda: expected)
    code = run.main(["--workload", "bsr-random", "--seed", "0", "--seconds", "0",
                     "--trace", "1", "--limit", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert f"WRONG VERDICT {first}:" in out


def test_traced_run_restores_every_wrapped_name(capsys):
    originals = {name: getattr(decide_mod, name) for name in tracing.WRAPPED}
    assert run.main(["--workload", "bsr-random", "--seed", "0", "--seconds", "0",
                     "--trace", "1", "--limit", "3"]) == 0
    for name, fn in originals.items():
        assert getattr(decide_mod, name) is fn, name
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().patched():
            assert getattr(decide_mod, "verify_model") is not originals["verify_model"]
            1 / 0
    for name, fn in originals.items():
        assert getattr(decide_mod, name) is fn, name


def test_pool_mismatch_stops_setup(monkeypatch):
    expected = workloads.load_expected()
    expected["ta"]["instances"][0]["digest"] = "0" * 16
    monkeypatch.setattr(workloads, "load_expected", lambda: expected)
    with pytest.raises(SystemExit, match="differs from expected.json"):
        run.build("ta-reachable", 0, None)
