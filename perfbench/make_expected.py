"""Regenerate expected.json: reference verdicts and costs for both pools.

    python3 perfbench/make_expected.py

For every timed pool member it checks decide against the region-graph
oracle; for every random clause set it checks decide against naive_decide
where that fits its atom budget (oracle "naive") and records decide's own
verdict otherwise (oracle "seed").  Any disagreement aborts without writing.
Reference costs only order the pools into strata for slicing (see
workloads.SLICES), so their noise moves which members share a stratum, not
any verdict.  They are single-shot wall times taken two at a time, except
for the automata the slices draw from (single-shot cost under REFINE_MS),
which are timed REFINE_REPEATS more times one at a time and get the median.
Takes about 20 minutes on two cores.
"""

import json
import multiprocessing
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from bsrsat.decide import NaiveBudgetError, naive_decide  # noqa: E402
from bsrsat.report import STATUS_UNSAT  # noqa: E402
from bsrsat.timed import region_reach  # noqa: E402

JOBS = 2
REFINE_MS = 5000
REFINE_REPEATS = 3


def reference_row(task) -> dict:
    """Verdict, oracle and single-shot cost for one pool member, in a worker.

    Raises when the solver and the oracle disagree, so a wrong verdict never
    lands in the expected file.
    """
    kind, inst, reachable = task
    t0 = time.perf_counter()
    report = workloads.solve(inst)
    ms = (time.perf_counter() - t0) * 1000
    row = {"id": inst.id, "digest": inst.digest, "ref_ms": round(ms, 3),
           "classes": report.stats.classes}
    if kind == "ta":
        if (report.status == STATUS_UNSAT) != reachable:
            raise RuntimeError(f"{inst.id}: decide says {report.status}, "
                               f"region graph says reachable={reachable}")
        row["reachable"] = reachable
        return row
    row["verdict"] = report.status
    try:
        naive = naive_decide(workloads.clause_set_of(inst)).status
    except NaiveBudgetError:
        row["oracle"] = "seed"
        return row
    if naive != report.status:
        raise RuntimeError(f"{inst.id}: decide says {report.status}, naive says {naive}")
    row["oracle"] = "naive"
    return row


def refine(rows: list[dict]) -> None:
    """Re-time the cheap automata sequentially, round-robin, median of the
    repeats; two workers timing at once skew each other's costs."""
    pool = {inst.id: inst for inst, _, _ in workloads.ta_pool()}
    cheap = [r for r in rows if r["ref_ms"] < REFINE_MS]
    times = {r["id"]: [] for r in cheap}
    for _ in range(REFINE_REPEATS):
        for r in cheap:
            t0 = time.perf_counter()
            workloads.solve(pool[r["id"]])
            times[r["id"]].append((time.perf_counter() - t0) * 1000)
    for r in cheap:
        r["ref_ms"] = round(statistics.median(times[r["id"]]), 3)


def main() -> int:
    ta = [("ta", inst, region_reach(aut, goal)) for inst, aut, goal in workloads.ta_pool()]
    bsr = [("bsr", inst, None) for inst in workloads.bsr_pool()]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=ctx) as pool:
        rows = list(pool.map(reference_row, ta + bsr))
    refine(rows[:len(ta)])
    out = {
        "ta": {**workloads.TA_POOL, "instances": rows[:len(ta)]},
        "bsr": {**workloads.BSR_POOL, "instances": rows[len(ta):]},
    }
    workloads.EXPECTED.write_text(json.dumps(out, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {workloads.EXPECTED.name}: {len(ta)} automata, {len(bsr)} clause sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
