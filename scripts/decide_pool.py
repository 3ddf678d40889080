"""Time ``decide`` over the benchmark's clause-set and automaton pools.

Draws the first ``--count`` sets of the ``bsr-random`` pool
(``random.Random(1706)``, alternating ``corpus._raw_bd`` and
``corpus._raw_slr``, as ``stream_digest.py`` draws them; pool member
``bsr:i`` is draw ``i``) and the ``--timed`` automata of
``timed_instances(0, --timed)`` (as ``stream_digest.py --timed`` draws
them; at 120 they are the benchmark's timed pool, ``ta:i`` being automaton
``i``), each encoded at its default delay granularity.  All are encoded and
normalized before the clock starts.  Then runs ``decide`` once on each and
prints the total time, the time the encoding and normalizing took before
it, and the ten costliest with their verdicts.

Two checkouts compare by running this script against each one's sources,
one after the other on an otherwise idle machine:
``PYTHONPATH=<checkout>/src python3 scripts/decide_pool.py``.
"""

import argparse
import sys
import time

from bsrsat.decide import decide
from stream_digest import bsr_sets, timed_sets


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=1200, help="clause-set draws")
    ap.add_argument("--timed", type=int, default=0, help="timed automata")
    args = ap.parse_args()
    if args.count < 0 or args.timed < 0:
        ap.error("counts must be nonnegative")

    t0 = time.perf_counter()
    sets = [(f"bsr:{i}", cs) for i, cs in enumerate(bsr_sets(args.count))]
    sets += [(f"ta:{i}", cs) for i, cs in enumerate(timed_sets(args.timed))]
    prepared = time.perf_counter() - t0
    rows = []
    for ident, cs in sets:
        t0 = time.perf_counter()
        status = decide(cs).status
        rows.append((time.perf_counter() - t0, ident, cs.mode, status))
    total = sum(r[0] for r in rows)
    print(f"decide {len(rows)} sets: {total:.2f}s")
    print(f"encode and normalize {len(sets)} sets: {prepared:.2f}s")
    print(f"costliest {min(10, len(rows))}:")
    for secs, ident, kind, status in sorted(rows, reverse=True)[:10]:
        print(f"  {ident:<10}{kind:<5}{status:<7}{secs:>8.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
