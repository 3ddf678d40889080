"""Digest the region-class streams of every clause of two seeded corpora.

For every clause set, arithmetic context and clause, streams the classes
that the clause's whole premise admits and those that its constant bounds
alone admit, and folds both, in order, into one SHA-256 per corpus.  An
exception raised while compiling or streaming is folded in as its type and
message.  Two checkouts that print the same digests stream the same classes
in the same order and raise the same errors.

The ``normal`` line digests the ``print_clause_set`` text of every
normalized clause set of both corpora in turn, so two checkouts that print
the same ``normal`` digest produce the same normal forms.

``--decide`` adds a fourth digest, ``decide``: for every clause set of both
corpora in turn, the ``decide --output structured`` report without its
``stat wall ms`` line (or the error that ``decide`` raised).  Two
checkouts that print the same ``decide`` digest report the same verdicts,
models, legends and counters.

Corpora: ``bsr``, the first ``--bsr`` draws of ``random.Random(1706)``,
alternating ``corpus._raw_bd`` and ``corpus._raw_slr`` (the benchmark's
clause-set pool); ``timed``, the automata of ``timed_instances(0, --timed)``,
each encoded at its default delay granularity.  Both are normalized first.
"""

import argparse
import hashlib
import itertools
import random
import sys
import time

from bsrsat.corpus import _raw_bd, _raw_slr, timed_instances
from bsrsat.decide import _contexts, _plan, decide
from bsrsat.normalize import normalize
from bsrsat.parser import print_clause_set
from bsrsat.report import SolveStats, emit_result
from bsrsat.terms import VarConst
from bsrsat.timed import default_lambda, encode_reachability


def bsr_sets(count: int):
    rng = random.Random(1706)
    for i in range(count):
        yield normalize((_raw_bd if i % 2 == 0 else _raw_slr)(rng))


def timed_sets(count: int):
    for aut, goal in timed_instances(0, count):
        yield normalize(encode_reachability(aut, goal, default_lambda(aut, goal)))


def _stream(ctx, cl, bounds_only: bool) -> list:
    plan = _plan(ctx, cl)
    if plan is None:
        return []
    checks = plan.checks
    if bounds_only:
        checks = ctx.checks([c for c in cl.lam if isinstance(c, VarConst)], plan.vidx)
    return list(ctx.classes(len(plan.bvars), checks))


def digest(sets) -> tuple[int, int, int, int, str]:
    """(clause sets, streams, classes, errors, hex digest) of a corpus."""
    h = hashlib.sha256()
    n_sets = n_streams = n_classes = n_errors = 0
    for si, cs in enumerate(sets):
        n_sets += 1
        for ci, ctx in enumerate(_contexts(cs, SolveStats())):
            for ki, cl in enumerate(cs.clauses):
                for kind in ("all", "bounds"):
                    h.update(f"{si} {ci} {ki} {kind}\n".encode())
                    n_streams += 1
                    try:
                        stream = _stream(ctx, cl, kind == "bounds")
                    except Exception as exc:  # folded in: errors must match too
                        n_errors += 1
                        h.update(f"error {type(exc).__name__}: {exc}\n".encode())
                        continue
                    n_classes += len(stream)
                    for cls in stream:
                        h.update(repr(cls.cells).encode() + b"\n")
    return n_sets, n_streams, n_classes, n_errors, h.hexdigest()


def normal_digest(sets) -> tuple[int, str]:
    """(clause sets, hex digest) of the printed normal forms."""
    h = hashlib.sha256()
    n_sets = 0
    for si, cs in enumerate(sets):
        n_sets += 1
        h.update(f"{si}\n{print_clause_set(cs)}".encode())
    return n_sets, h.hexdigest()


def decide_digest(sets) -> tuple[int, int, str]:
    """(clause sets, errors, hex digest) of the structured decide reports."""
    h = hashlib.sha256()
    n_sets = n_errors = 0
    for si, cs in enumerate(sets):
        n_sets += 1
        h.update(f"{si}\n".encode())
        try:
            text = emit_result(decide(cs), "structured")
        except Exception as exc:  # folded in: errors must match too
            n_errors += 1
            h.update(f"error {type(exc).__name__}: {exc}\n".encode())
            continue
        for line in text.splitlines(keepends=True):
            if not line.startswith("stat wall ms:"):
                h.update(line.encode())
    return n_sets, n_errors, h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bsr", type=int, default=1200, help="clause-set draws")
    ap.add_argument("--timed", type=int, default=20, help="timed automata")
    ap.add_argument("--decide", action="store_true",
                    help="also digest the structured decide report of every set")
    args = ap.parse_args()
    if args.bsr < 0 or args.timed < 0:
        ap.error("counts must be nonnegative")

    print(f"{'corpus':<7}{'sets':>6}{'streams':>9}{'classes':>10}{'errors':>7}"
          f"{'time':>8}  sha256")
    for name, sets in (("bsr", bsr_sets(args.bsr)), ("timed", timed_sets(args.timed))):
        t0 = time.time()
        n_sets, n_streams, n_classes, n_errors, hexd = digest(sets)
        print(f"{name:<7}{n_sets:>6}{n_streams:>9}{n_classes:>10}{n_errors:>7}"
              f"{time.time() - t0:>7.1f}s  {hexd}")
    t0 = time.time()
    n_sets, hexd = normal_digest(itertools.chain(bsr_sets(args.bsr), timed_sets(args.timed)))
    print(f"{'normal':<7}{n_sets:>6}{'-':>9}{'-':>10}{'-':>7}"
          f"{time.time() - t0:>7.1f}s  {hexd}")
    if args.decide:
        t0 = time.time()
        n_sets, n_errors, hexd = decide_digest(
            itertools.chain(bsr_sets(args.bsr), timed_sets(args.timed)))
        print(f"{'decide':<7}{n_sets:>6}{'-':>9}{'-':>10}{n_errors:>7}"
              f"{time.time() - t0:>7.1f}s  {hexd}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
