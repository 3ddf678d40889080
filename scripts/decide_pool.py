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

``--text`` times the draws the way a user runs them instead: each from its
printed text (``print_clause_set``) through ``parse_clause_set``,
``normalize`` and ``decide``, each stage timed per draw and kept as the best
of three passes that each start again from the text.  It prints every
stage's total and median over the draws, and the stages' shares of the time
from text to verdict on the middle tenth of the draws by total cost.

Two checkouts compare by running this script against each one's sources,
one after the other on an otherwise idle machine:
``PYTHONPATH=<checkout>/src python3 scripts/decide_pool.py``.
"""

import argparse
import statistics
import sys
import time

from bsrsat.decide import decide
from bsrsat.normalize import normalize
from bsrsat.parser import parse_clause_set, print_clause_set
from stream_digest import bsr_sets, raw_bsr_sets, timed_sets

STAGES = ("parse", "normalize", "decide")
PASSES = 3


def text_to_verdict(texts) -> list[list[float]]:
    """Per text, the seconds of each stage, the best of ``PASSES`` passes."""
    best = [[float("inf")] * len(STAGES) for _ in texts]
    for _ in range(PASSES):
        for row, text in zip(best, texts):
            t0 = time.perf_counter()
            cs = parse_clause_set(text)
            t1 = time.perf_counter()
            cs = normalize(cs)
            t2 = time.perf_counter()
            decide(cs)
            t3 = time.perf_counter()
            for k, secs in enumerate((t1 - t0, t2 - t1, t3 - t2)):
                row[k] = min(row[k], secs)
    return best


def print_text_stages(rows) -> None:
    print(f"text to verdict, {len(rows)} draws, each stage the best of {PASSES} passes:")
    for k, stage in enumerate(STAGES):
        secs = [row[k] for row in rows]
        print(f"  {stage:<10} total {sum(secs):8.3f}s  median {statistics.median(secs) * 1000:8.3f}ms")
    ranked = sorted(rows, key=sum)
    size = max(1, len(ranked) // 10)
    start = (len(ranked) - size) // 2
    middle = ranked[start:start + size]
    whole = sum(sum(row) for row in middle)
    shares = ", ".join(f"{stage} {100 * sum(row[k] for row in middle) / whole:.1f} %"
                       for k, stage in enumerate(STAGES))
    print(f"middle {size} draws by total cost: {shares}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=1200, help="clause-set draws")
    ap.add_argument("--timed", type=int, default=0, help="timed automata")
    ap.add_argument("--text", action="store_true",
                    help="time the draws from their text, stage by stage")
    args = ap.parse_args()
    if args.count < 0 or args.timed < 0:
        ap.error("counts must be nonnegative")
    if args.text:
        if args.timed:
            ap.error("--text times the clause-set draws only")
        if not args.count:
            ap.error("--text needs at least one draw")
        print_text_stages(text_to_verdict([print_clause_set(cs) for cs in raw_bsr_sets(args.count)]))
        return 0

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
