"""Differential reachability run: region-graph oracle vs clause encoding.

Draws a seeded corpus of small two-clock automata, checks every goal with
both backends, and prints a per-instance table with the delay granularity
and timing split.  Any disagreement is reported and sets the exit status.
"""

import argparse
import sys
import time

from bsrsat.cli import _int_at_least
from bsrsat.corpus import timed_instances
from bsrsat.decide import decide
from bsrsat.normalize import normalize
from bsrsat.report import STATUS_UNSAT
from bsrsat.timed import default_lambda, encode_reachability, region_reach


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=_int_at_least(1), default=20)
    ap.add_argument("--lam", type=_int_at_least(1), default=None,
                    help="override the delay granularity for both backends")
    args = ap.parse_args()

    cases = timed_instances(args.seed, args.count)
    print(f"{'#':>3} {'goal':<24} {'lam':>3} {'region':>7} {'clauses':>8} "
          f"{'t_reg':>6} {'t_cls':>7}")
    mism = []
    reach = 0
    for i, (aut, goal) in enumerate(cases):
        lam = args.lam if args.lam is not None else default_lambda(aut, goal)
        t0 = time.time()
        by_region = region_reach(aut, goal, lam)
        t1 = time.time()
        cs = normalize(encode_reachability(aut, goal, lam))
        by_clauses = decide(cs).status == STATUS_UNSAT
        t2 = time.time()
        reach += by_region
        mark = "" if by_region == by_clauses else "   <-- DISAGREE"
        if by_region != by_clauses:
            mism.append(i)
        print(f"{i:>3} {str(goal):<24} {lam:>3} {by_region!s:>7} "
              f"{by_clauses!s:>8} {t1 - t0:>5.1f}s {t2 - t1:>6.1f}s{mark}")
    print(f"{len(cases)} instances, {reach} reachable, "
          f"{len(mism)} disagreement(s)")
    return 1 if mism else 0


if __name__ == "__main__":
    sys.exit(main())
