"""bsrsat benchmark: time to verdict from text, checked against oracles.

    python3 perfbench/run.py --workload ta-reachable --seed 0 --seconds 55 --trace 0

One process, one thread, closed loop: each instance of the seed's slice is
parsed, encoded (automata), normalized and decided before the next starts,
the way ``bsrsat ta reach --backend bsr`` and ``bsrsat decide`` run it.  The
slice is solved in passes while another pass still fits in ``--seconds``,
counted from process start (at least once).  Verdicts are checked after the
timed passes: automata against the region graph, clause sets against
``expected.json``.  A wrong verdict prints ``"correct": false`` and exits 1;
an exception counts as a failed instance.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics; the spans
go to ``perfbench/out/``.  The last line of output is one JSON object.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from bsrsat.report import STATUS_ERROR  # noqa: E402

SETUP_REPEATS = 5
WORKLOADS = ("ta-reachable", "bsr-random")


@dataclass
class Result:
    id: str
    verdict: str
    ms: float
    stats: object = None  # SolveStats, absent on error
    detail: str = ""


def build(workload: str, seed: int, limit: int | None):
    """Set-up: draw the pools, check them against expected.json, cut the
    seed's slice.  Returns (instances, oracle); ``oracle()`` maps instance
    id to the verdict decide must return and runs outside timed regions."""
    import workloads

    expected = workloads.load_expected()
    if workload == "bsr-random":
        pool = {inst.id: inst for inst in workloads.bsr_pool()}
        rows = expected["bsr"]["instances"]
    else:
        triples = {inst.id: (inst, aut, goal) for inst, aut, goal in workloads.ta_pool()}
        pool = {i: t[0] for i, t in triples.items()}
        rows = expected["ta"]["instances"]
    if [r["id"] for r in rows] != list(pool) or any(
            pool[r["id"]].digest != r["digest"] for r in rows):
        raise SystemExit("error: the drawn pool differs from expected.json; "
                         "regenerate it with perfbench/make_expected.py")
    ids = workloads.slice_for(workload, seed, expected)[:limit]
    instances = [pool[i] for i in ids]
    if workload == "bsr-random":
        by_id = {r["id"]: r for r in rows}

        def oracle():
            naive = sum(by_id[i]["oracle"] == "naive" for i in ids)
            print(f"oracle: naive_decide for {naive} instances, the verdict recorded "
                  f"at the defining commit for {len(ids) - naive}")
            return {i: by_id[i]["verdict"] for i in ids}
    else:
        from bsrsat.timed import region_reach

        def oracle():
            return {i: "unsat" if region_reach(*triples[i][1:]) else "sat" for i in ids}
    return instances, oracle


def run_pass(instances, tracer=None) -> tuple[list[Result], float]:
    import workloads

    kwargs = {} if tracer is None else {"span": tracer.span}
    out = []
    t_pass = time.perf_counter()
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.id
        t0 = time.perf_counter()
        try:
            report = workloads.solve(inst, **kwargs)
        except Exception as err:  # counted as a failed instance, run goes on
            ms = (time.perf_counter() - t0) * 1000
            out.append(Result(inst.id, STATUS_ERROR, ms, detail=f"{type(err).__name__}: {err}"))
            continue
        ms = (time.perf_counter() - t0) * 1000
        out.append(Result(inst.id, report.status, ms, report.stats))
    return out, time.perf_counter() - t_pass


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, draw, serialise and stop
    where the first timed instance would start.  No timeout: waiting with
    one polls the child at up to 50 ms intervals, which would round the
    times up to that grain."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def percentile(values: list[float], pct: int) -> float:
    """Interpolated within the samples, never beyond the largest."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check(passes: list[list[Result]], expected: dict[str, str]) -> list[str]:
    """Messages for every verdict that disagrees with the oracle."""
    bad = []
    for results in passes:
        for r in results:
            if r.verdict != STATUS_ERROR and r.verdict != expected[r.id]:
                bad.append(f"{r.id}: got {r.verdict}, oracle says {expected[r.id]}")
    return bad


def digest(results: list[Result]) -> str:
    text = "\n".join(f"{r.id} {r.verdict}" for r in sorted(results, key=lambda r: r.id))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def print_rows(results: list[Result]) -> None:
    for r in results:
        if r.stats is None:
            print(f"row {r.id} {r.verdict} {r.ms:.3f} ms  {r.detail}")
        else:
            st = r.stats
            print(f"row {r.id} {r.verdict} {r.ms:.3f} ms classes={st.classes} "
                  f"candidates={st.candidates} prop_clauses={st.prop_clauses}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None, metavar="N",
                    help="solve only the N cheapest instances of the slice (smoke runs)")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; used to time set-up in fresh processes")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    instances, oracle = build(args.workload, args.seed, args.limit)
    if args.setup_only:
        return 0
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances")

    passes: list[list[Result]] = []
    walls: list[float] = []
    if args.trace == 0:
        setups = measure_setup(args.workload, args.seed)
        # another pass only if one more of the last pass's length still fits
        while not walls or time.perf_counter() - START + walls[-1] <= args.seconds:
            results, wall = run_pass(instances)
            passes.append(results)
            walls.append(wall)
        ms = [r.ms for results in passes for r in results]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "verdict_ms_p50": (statistics.median(ms), "ms"),
            "verdict_ms_p90": (percentile(ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"set-up runs: {', '.join(f'{t:.3f}' for t in setups)} s")
        print(f"passes: {len(walls)}, walls: {', '.join(f'{w:.3f}' for w in walls)} s; "
              f"verdict samples: {len(ms)}")
    else:
        import tracing

        results, untraced = run_pass(instances)
        passes.append(results)
        tracer = tracing.Tracer()
        with tracer.patched():
            traced_results, traced = run_pass(instances, tracer)
        passes.append(traced_results)
        values = tracer.layer_metrics(traced)
        stats = [r.stats for r in traced_results if r.stats is not None]
        for name, field in (("decide.preorders", "preorders"),
                            ("decide.candidates", "candidates"),
                            ("propsat.prop_vars", "prop_vars"),
                            ("propsat.prop_clauses", "prop_clauses"),
                            ("propsat.decisions", "decisions")):
            values[name] = (sum(getattr(st, field) for st in stats), "count")
        values["bench.trace_overhead"] = (traced / untraced - 1, "1")
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s; "
              f"{len(tracer.spans)} spans written to {out.relative_to(HERE.parent)}")

    print_rows(passes[0])
    verdicts = oracle()
    bad = check(passes, verdicts)
    for msg in bad:
        print(f"WRONG VERDICT {msg}")
    attempted = sum(len(p) for p in passes)
    failed = sum(r.verdict == STATUS_ERROR for p in passes for r in p)
    if args.trace == 1:
        values["error_frac"] = (failed / attempted, "1")
    print(f"verdict digest {digest(passes[0])} over {len(passes[0])} instances "
          f"({sum(v == 'sat' for v in verdicts.values())} sat, "
          f"{sum(v == 'unsat' for v in verdicts.values())} unsat)")
    print(f"errors: {failed} of {attempted} attempted")
    for name, (value, unit) in values.items():
        print(f"metric {name}: {value} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
