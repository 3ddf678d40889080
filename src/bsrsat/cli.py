"""Command-line front end.

Subcommands: decide, normalize, regions, ta encode, ta reach, ramsey demo.
File formats are the line-based clause-set and automaton grammars handled by
the parser module; reports come out either human-readable or as stable
line-oriented key/value text.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from .decide import ResourceLimitError, decide, naive_decide
from .normalize import NormalFormError, normalize
from .parser import (ParseError, parse_clause_set, parse_goal, parse_ta,
                     print_clause_set)
from .ramsey import ColoringOracle, check_mono_ascending, check_mono_mapped, \
    mono_ascending, mono_mapped
from .regions import (PartitionJ, RegionClass, enumerate_bd_bounded,
                      enumerate_bd_unbounded, enumerate_slr_classes,
                      representative)
from .report import (STATUS_ERROR, STATUS_UNSAT, ResultReport, emit_result)
from .terms import FragmentError, GuardViolationError, SortDisciplineError, rat
from .timed import (TimedAutomatonError, default_lambda, encode_fol_la,
                    encode_reachability, region_reach)

OUTPUTS = ("human", "structured")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""
    def convert(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n
    return convert


def _rationals(text: str) -> list[Fraction]:
    """argparse type: comma-separated rationals such as ``0,1/2,-3``."""
    try:
        return [rat(p) for p in text.split(",")] if text else []
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a list of rationals: {text!r}") from None


def _cmd_decide(args) -> int:
    cs = parse_clause_set(_read(args.file))
    n = normalize(cs)
    try:
        if args.naive:
            report = naive_decide(n, atom_budget=args.atom_budget)
        else:
            report = decide(n, max_candidates=args.max_candidates)
    except ResourceLimitError as err:
        report = ResultReport(STATUS_ERROR, stats=err.stats, detail=str(err))
    sys.stdout.write(emit_result(report, args.output))
    return 1 if report.status == STATUS_ERROR else 0


def _cmd_normalize(args) -> int:
    sys.stdout.write(print_clause_set(normalize(parse_clause_set(_read(args.file)))))
    return 0


def _slr_class_line(cls: RegionClass) -> str:
    blocks = " < ".join(
        f"J{iv}{{{','.join(str(c) for c in coords)}}}" for iv, coords in cls.slr_blocks())
    return blocks or "()"


def _blockchain(blocks) -> str:
    return " < ".join("{" + ",".join(str(i) for i in b) + "}" for b in blocks)


def _bd_class_line(cls: RegionClass) -> str:
    floors, zero, fr, below, above = cls.bd_blocks()
    parts = []
    if below:
        parts.append(f"below {_blockchain(below)}")
    if any(f is not None for f in floors) or not (below or above):
        parts.append(f"floors ({','.join(str(f) for f in floors)})")
        parts.append(f"zero {{{','.join(str(i) for i in zero)}}}")
        parts.append(f"fr {_blockchain(fr) or '-'}")
    if above:
        parts.append(f"above {_blockchain(above)}")
    return " ".join(parts)


def _cmd_regions(args) -> int:
    if args.mode == "slr":
        partition = PartitionJ.make(args.points)
        classes = list(enumerate_slr_classes(args.arity, partition))
        lines = [
            (_slr_class_line(c), representative(c, partition)) for c in classes
        ]
    else:
        if args.bounded:
            classes = list(enumerate_bd_bounded(args.arity, args.kappa))
        else:
            classes = list(enumerate_bd_unbounded(args.arity, args.kappa))
        lines = [(_bd_class_line(c), representative(c)) for c in classes]
    if args.output == "structured":
        print(f"count: {len(lines)}")
        for i, (desc, rep) in enumerate(lines):
            print(f"class {i}: rep {' '.join(str(v) for v in rep)} | {desc}")
    else:
        print(f"{len(lines)} classes")
        for i, (desc, rep) in enumerate(lines):
            print(f"  #{i:<4} rep ({', '.join(str(v) for v in rep)})  {desc}")
    return 0


def _cmd_ta_encode(args) -> int:
    aut = parse_ta(_read(args.file))
    if args.goal is None:
        sys.stdout.write(print_clause_set(encode_fol_la(aut)))
    else:
        query = parse_goal(args.goal, aut)
        sys.stdout.write(print_clause_set(encode_reachability(aut, query, args.lam)))
    return 0


def _cmd_ta_reach(args) -> int:
    aut = parse_ta(_read(args.file))
    query = parse_goal(args.goal, aut)
    lam = args.lam if args.lam is not None else default_lambda(aut, query)
    results: dict[str, bool] = {}
    if args.backend in ("region", "both"):
        results["region"] = region_reach(aut, query, lam)
    if args.backend in ("bsr", "both"):
        report = decide(normalize(encode_reachability(aut, query, lam)))
        results["bsr"] = report.status == STATUS_UNSAT
    agree = len(set(results.values())) == 1
    if args.output == "structured":
        print(f"goal: {query}")
        print(f"lambda: {lam}")
        for name, reach in results.items():
            print(f"backend {name}: {'reachable' if reach else 'unreachable'}")
        if len(results) > 1:
            print(f"agree: {'true' if agree else 'false'}")
    else:
        verdict = "reachable" if next(iter(results.values())) else "unreachable"
        names = "+".join(results)
        if len(results) > 1 and not agree:
            print(f"goal {query}: backends disagree: {results}")
        else:
            print(f"goal {query}: {verdict} ({names}, lambda={lam})")
    return 0 if agree else 1


def _cmd_ramsey_demo(args) -> int:
    seed = args.seed
    colors = 2

    def coloring(tup):
        return random.Random(hash((seed,) + tup)).randrange(colors)

    chi = ColoringOracle(coloring, 2, colors)
    print(f"seeded 2-coloring of pairs, seed {seed}")
    print(f"ascending selection over 0..29, pair-monochromatic subset of size 3:")
    q = mono_ascending(range(30), 2, 3, chi, trace=lambda s: print("  " + s))
    print(f"  -> Q = {q}, verified: {check_mono_ascending(q, 2, chi)}")
    print(f"  oracle queries: {chi.queries}")

    chi1 = ColoringOracle(lambda t: random.Random(hash((seed, 1) + t)).randrange(3), 1, 3)
    print("pattern-closed selection, two sets and one fixed real, m=1, n=2:")
    qs = mono_mapped([range(0, 15), range(20, 35)], [rat(Fraction(1, 2))], 1, 2,
                     chi1, trace=lambda s: print("  " + s))
    print(f"  -> Q1 = {qs[0]}, Q2 = {qs[1]}, "
          f"verified: {check_mono_mapped(qs, [Fraction(1, 2)], 1, chi1)}")
    print(f"  oracle queries: {chi1.queries}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bsrsat", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide satisfiability of a clause file")
    p.add_argument("file")
    p.add_argument("--output", choices=OUTPUTS, default="human")
    p.add_argument("--max-candidates", type=_int_at_least(0), default=None, metavar="N")
    p.add_argument("--naive", action="store_true",
                   help="use the naive uniform-interpretation enumerator")
    p.add_argument("--atom-budget", type=_int_at_least(0), default=16, metavar="N",
                   help="atom limit for --naive")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("normalize", help="print the normal form of a clause file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("regions", help="enumerate region classes")
    p.add_argument("--mode", choices=("slr", "bd"), required=True)
    p.add_argument("--arity", type=_int_at_least(0), required=True, metavar="K")
    p.add_argument("--kappa", type=_int_at_least(0), default=1, metavar="KAPPA")
    p.add_argument("--points", type=_rationals, default="", metavar="Q1,Q2,...",
                   help="partition points for slr mode")
    p.add_argument("--bounded", action="store_true",
                   help="bounded classes only (bd mode)")
    p.add_argument("--output", choices=OUTPUTS, default="human")
    p.set_defaults(fn=_cmd_regions)

    p = sub.add_parser("ta", help="timed-automaton commands")
    tsub = p.add_subparsers(dest="ta_command", required=True)

    pe = tsub.add_parser("encode", help="print the clause encoding of an automaton")
    pe.add_argument("file")
    pe.add_argument("--goal", default=None, metavar="LOC:CC",
                    help="emit the full reachability clause set for this goal")
    pe.add_argument("--lam", type=_int_at_least(1), default=None, metavar="N",
                    help="delay-lowering granularity override")
    pe.set_defaults(fn=_cmd_ta_encode)

    pr = tsub.add_parser("reach", help="check goal reachability")
    pr.add_argument("file")
    pr.add_argument("--goal", required=True, metavar="LOC:CC")
    pr.add_argument("--backend", choices=("region", "bsr", "both"), default="both")
    pr.add_argument("--lam", type=_int_at_least(1), default=None, metavar="N")
    pr.add_argument("--output", choices=OUTPUTS, default="human")
    pr.set_defaults(fn=_cmd_ta_reach)

    p = sub.add_parser("ramsey", help="monochromatic-subset constructions")
    rsub = p.add_subparsers(dest="ramsey_command", required=True)
    pd = rsub.add_parser("demo", help="run a worked example with its shrinking trace")
    pd.add_argument("--seed", type=int, default=0, metavar="N")
    pd.set_defaults(fn=_cmd_ramsey_demo)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command == "regions" and args.mode == "slr" and args.bounded:
        ap.error("argument --bounded: not allowed with --mode slr")
    if args.command == "regions" and args.mode == "bd" and args.points:
        ap.error("argument --points: not allowed with --mode bd")
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (FragmentError, GuardViolationError, SortDisciplineError,
            NormalFormError, TimedAutomatonError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
