"""Time ``decide`` over the benchmark's clause-set pool.

Draws the first ``--count`` sets of the ``bsr-random`` pool
(``random.Random(1706)``, alternating ``corpus._raw_bd`` and
``corpus._raw_slr``, as ``stream_digest.py`` draws them; pool member
``bsr:i`` is draw ``i``) and normalizes them all before the clock starts.
Then runs ``decide`` once on each set and prints the total time and the
ten costliest draws with their verdicts.

Two checkouts compare by running this script against each one's sources,
one after the other on an otherwise idle machine:
``PYTHONPATH=<checkout>/src python3 scripts/decide_pool.py``.
"""

import argparse
import sys
import time

from bsrsat.decide import decide
from stream_digest import bsr_sets


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=1200, help="clause-set draws")
    args = ap.parse_args()
    if args.count < 0:
        ap.error("--count must be nonnegative")

    sets = list(bsr_sets(args.count))
    rows = []
    for i, cs in enumerate(sets):
        t0 = time.perf_counter()
        status = decide(cs).status
        rows.append((time.perf_counter() - t0, f"bsr:{i}", cs.mode, status))
    total = sum(r[0] for r in rows)
    print(f"decide {len(rows)} sets: {total:.2f}s")
    print(f"costliest {min(10, len(rows))}:")
    for secs, ident, kind, status in sorted(rows, reverse=True)[:10]:
        print(f"  {ident:<10}{kind:<5}{status:<7}{secs:>8.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
