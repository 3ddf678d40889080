"""Tabulate region-class counts against dense-grid classification.

Enumerates every class for a range of arities, classifies all grid tuples at
a configurable step, and reports both counts plus the round-trip status of
the canonical representatives.  Exact disagreement anywhere is a bug.
"""

import argparse
import itertools
import sys
import time
from fractions import Fraction

from bsrsat.cli import _int_at_least
from bsrsat.regions import (PartitionJ, class_of_bd, class_of_slr,
                            enumerate_bd_bounded, enumerate_bd_unbounded,
                            enumerate_slr_classes, representative)


def grid(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    out, v = [], lo
    while v <= hi:
        out.append(v)
        v += step
    return out


def slr_rows(args):
    points = [Fraction(p) for p in args.points.split(",")] if args.points else []
    part = PartitionJ.make(points)
    lo = min(points) - 1 if points else Fraction(0)
    hi = max(points) + 1 if points else Fraction(1)
    axis = grid(lo, hi, Fraction(1, args.step))
    for k in range(1, args.max_arity + 1):
        t0 = time.time()
        classes = set(enumerate_slr_classes(k, part))
        hits = {class_of_slr(t, part) for t in itertools.product(axis, repeat=k)}
        rt = all(class_of_slr(representative(c, part), part) == c for c in classes)
        label = ",".join(str(p) for p in points) or "-"
        yield f"slr pts={label}", k, len(classes), len(hits), rt, time.time() - t0


def bd_rows(args):
    kappa = args.kappa
    eps = Fraction(1, args.step)
    if args.bounded:
        axis = grid(-(kappa + 1) + eps, kappa + 1 - eps, eps)
        enum, tag = enumerate_bd_bounded, "bd bounded"
    else:
        pad = 3 * eps
        axis = grid(-(kappa + 1) - pad, kappa + 1 + pad, eps)
        enum, tag = enumerate_bd_unbounded, "bd unbounded"
    for k in range(1, args.max_arity + 1):
        t0 = time.time()
        classes = set(enum(k, kappa))
        hits = {class_of_bd(t, kappa, bounded=args.bounded)
                for t in itertools.product(axis, repeat=k)}
        rt = all(class_of_bd(representative(c), kappa, bounded=args.bounded) == c
                 for c in classes)
        yield f"{tag} kappa={kappa}", k, len(classes), len(hits), rt, time.time() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("slr", "bd"), required=True)
    ap.add_argument("--max-arity", type=_int_at_least(1), default=3)
    ap.add_argument("--kappa", type=_int_at_least(0), default=1)
    ap.add_argument("--points", default="", help="partition points (slr)")
    ap.add_argument("--bounded", action="store_true")
    ap.add_argument("--step", type=_int_at_least(1), default=16, help="grid step 1/STEP")
    args = ap.parse_args()
    if args.mode == "slr" and args.bounded:
        ap.error("argument --bounded: not allowed with --mode slr")
    if args.mode == "bd" and args.points:
        ap.error("argument --points: not allowed with --mode bd")

    rows = slr_rows(args) if args.mode == "slr" else bd_rows(args)
    bad = 0
    print(f"{'family':<24}{'k':>3}{'classes':>9}{'grid':>7}  round-trip")
    for family, k, n_classes, n_grid, rt, dt in rows:
        ok = n_classes == n_grid and rt
        bad += not ok
        print(f"{family:<24}{k:>3}{n_classes:>9}{n_grid:>7}  "
              f"{'ok' if rt else 'BROKEN'}{'' if ok else '  <-- MISMATCH'}"
              f"  ({dt:.1f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
