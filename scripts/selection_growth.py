"""Query-count growth of the monochromatic ascending selection.

For random colorings, measures how many oracle queries the extraction chain
spends as the input set grows, split by color count and tuple arity.  Gives
a quick feel for the (unquantified) input sizes the constructions need.
"""

import argparse
import random
import statistics
import sys
from fractions import Fraction

from bsrsat.ramsey import ColoringOracle, InsufficientInputError, mono_ascending


def run_cell(m: int, n: int, ncol: int, size: int, seeds: range):
    queries, fails = [], 0
    for seed in seeds:
        def fn(t, seed=seed):
            return random.Random(hash((seed, t))).randrange(ncol)
        chi = ColoringOracle(fn, m, ncol)
        rs = [Fraction(k, 4) for k in range(1, size + 1)]
        try:
            mono_ascending(rs, m, n, chi)
            queries.append(chi.queries)
        except InsufficientInputError:
            fails += 1
    return queries, fails


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--arity", type=int, default=2, help="tuple arity m")
    ap.add_argument("--target", type=int, default=3, help="subset size n")
    ap.add_argument("--rounds", type=int, default=25)
    ap.add_argument("--sizes", default="10,20,40,80,160")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"m={args.arity} n={args.target}, {args.rounds} seeds per cell")
    print(f"{'colors':>7} {'size':>6} {'ok':>4} {'fail':>5} "
          f"{'median queries':>15} {'max':>6}")
    for ncol in (2, 3):
        for size in sizes:
            queries, fails = run_cell(args.arity, args.target, ncol, size,
                                      range(args.rounds))
            med = int(statistics.median(queries)) if queries else "-"
            mx = max(queries) if queries else "-"
            print(f"{ncol:>7} {size:>6} {len(queries):>4} {fails:>5} "
                  f"{med!s:>15} {mx!s:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
