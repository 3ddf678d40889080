"""Seeded random instance corpora for differential testing.

Each generator is deterministic in its seed and applies the shape limits the
acceptance checks assume: small signatures, few constants, and instance
filters that keep the naive enumerator within its atom budget.  Instances
rejected by a filter are skipped deterministically, so a (seed, count) pair
always denotes the same corpus.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from .decide import (NaiveBudgetError, decide, naive_decide, verify_model)
from .linarith import GroundSystem
from .normalize import normalize
from .report import STATUS_SAT
from .terms import (Clause, ClauseSet, DiffConst, Equation, FreeTerm,
                    GroundCmp, GroundTerm, MODE_BD, MODE_SLR, PredAtom,
                    Relation, VarConst, VarVar)
from .timed import (ClockConstraint, ReachQuery, TimedAutomaton, Transition,
                    region_reach)

_BOUND_RELS = (Relation.LE, Relation.LT, Relation.GE, Relation.GT)
_ALL_RELS = _BOUND_RELS + (Relation.EQ,)


def flipped_descriptor(desc, atom):
    """Copy of a model descriptor with one predicate table bit inverted."""
    table = dict(desc.table)
    table[atom] = not table[atom]
    return dataclasses.replace(desc, table=table)


def detectable_flips(n: ClauseSet, desc) -> list:
    """Table atoms whose flip makes the descriptor fail re-verification.

    Every table atom stems from grounding, so its class already survived
    the premise constraints of some clause.
    """
    out = []
    for atom in sorted(desc.table, key=lambda a: (a.pred, a.free_args, desc.class_index[a.cls])):
        if not verify_model(n, flipped_descriptor(desc, atom)):
            out.append(atom)
    return out


def _signature(rng: random.Random, n_preds: int) -> dict[str, tuple[int, int]]:
    names = ["P", "Q"][:n_preds]
    sig = {}
    for i, p in enumerate(names):
        base = rng.choice((1, 1, 2)) if i == 0 else rng.choice((1, 2))
        sig[p] = (rng.choice((0, 1)), base)
    return sig


def _atoms(rng: random.Random, sig, fconsts, n_atoms: int):
    gamma, delta = [], []
    for _ in range(n_atoms):
        if rng.random() < 0.12:
            terms = [FreeTerm("u", False)] + [FreeTerm(c, True) for c in fconsts]
            left, right = rng.sample(terms, 2)
            atom = Equation(left, right)
        else:
            pred = rng.choice(sorted(sig))
            mf, mb = sig[pred]
            free = tuple(
                FreeTerm("u", False) if rng.random() < 0.5
                else FreeTerm(rng.choice(fconsts), True)
                for _ in range(mf))
            base = tuple(rng.choice(("x", "y")) for _ in range(mb))
            atom = PredAtom(pred, free, base)
        (gamma if rng.random() < 0.5 else delta).append(atom)
    return gamma, delta


def _bd_lambda(rng: random.Random, base_vars) -> list:
    lam = []
    bounded = set()
    for v in base_vars:
        shape = rng.random()
        if shape < 0.72:
            lo = rng.choice((-1, 0))
            hi = rng.choice((0, 1))
            if lo > hi:
                lo, hi = hi, lo
            lam.append(VarConst(v, rng.choice((Relation.GE, Relation.GT)) if lo < hi
                                else Relation.GE, GroundTerm.constant(lo)))
            lam.append(VarConst(v, rng.choice((Relation.LE, Relation.LT)) if lo < hi
                                else Relation.LE, GroundTerm.constant(hi)))
            bounded.add(v)
        elif shape < 0.86:
            rel = rng.choice(_BOUND_RELS)
            lam.append(VarConst(v, rel, GroundTerm.constant(rng.choice((-1, 0, 1)))))
    if len(base_vars) == 2:
        x, y = sorted(base_vars)
        if rng.random() < 0.3:
            lam.append(VarVar(x, rng.choice(_ALL_RELS), y))
        if bounded == {x, y} and rng.random() < 0.45:
            lam.append(DiffConst(x, y, rng.choice(_BOUND_RELS),
                                 Fraction(rng.choice((-1, 0, 1)))))
    return lam


def _raw_bd(rng: random.Random) -> ClauseSet:
    sig = _signature(rng, rng.choice((1, 2)))
    fconsts = ["a", "b"][: rng.choice((1, 2))]
    cs = ClauseSet(MODE_BD, [], sig, fconsts, [])
    for _ in range(rng.randint(2, 4)):
        gamma, delta = _atoms(rng, sig, fconsts, rng.randint(1, 3))
        used = sorted({v for a in gamma + delta
                       for v in (a.base_args if isinstance(a, PredAtom) else ())})
        cs.clauses.append(Clause.make(_bd_lambda(rng, used), gamma, delta))
    return cs


def _slr_lambda(rng: random.Random, base_vars, skolems) -> list:
    lam = []
    bounds = [GroundTerm.constant(0), GroundTerm.constant(1)]
    bounds += [GroundTerm.skolem(s) for s in skolems]
    for v in base_vars:
        for _ in range(rng.choice((0, 1, 1, 2))):
            lam.append(VarConst(v, rng.choice(_ALL_RELS), rng.choice(bounds)))
    if len(base_vars) == 2:
        x, y = sorted(base_vars)
        if rng.random() < 0.35:
            lam.append(VarVar(x, rng.choice(_ALL_RELS), y))
    if skolems and rng.random() < 0.3:
        s = rng.choice(skolems)
        other = rng.choice([GroundTerm.constant(0), GroundTerm.constant(1)]
                           + [GroundTerm.skolem(t) for t in skolems if t != s])
        lam.append(GroundCmp(GroundTerm.skolem(s), rng.choice(_ALL_RELS), other))
    if skolems and rng.random() < 0.15:
        # compound bound; normalization splits it into a definitional clause
        s = rng.choice(skolems)
        v = rng.choice(sorted(base_vars)) if base_vars else None
        if v is not None:
            lam.append(VarConst(v, rng.choice((Relation.LE, Relation.GE)),
                                GroundTerm.make(1, {s: 1})))
    return lam


def _raw_slr(rng: random.Random) -> ClauseSet:
    sig = _signature(rng, rng.choice((1, 2)))
    fconsts = ["a", "b"][: rng.choice((1, 2))]
    skolems = ["d", "e"][: rng.choice((0, 1, 1, 2))]
    cs = ClauseSet(MODE_SLR, [], sig, fconsts, skolems)
    for _ in range(rng.randint(2, 4)):
        gamma, delta = _atoms(rng, sig, fconsts, rng.randint(1, 3))
        used = sorted({v for a in gamma + delta
                       for v in (a.base_args if isinstance(a, PredAtom) else ())})
        cs.clauses.append(Clause.make(_slr_lambda(rng, used, skolems), gamma, delta))
    return cs


def _usable(n: ClauseSet) -> tuple[str, object] | None:
    """Verdict and model descriptor if the instance suits the differential.

    Rejects instances that blow the naive atom budget and satisfiable ones
    whose models leave no single table bit observable, since the
    fault-injection check needs at least one detectable flip.
    """
    try:
        naive = naive_decide(n)
    except NaiveBudgetError:
        return None
    if naive.status != STATUS_SAT:
        return naive.status, None
    full = decide(n)
    if full.status != STATUS_SAT:
        # disagreement: keep it, the differential test must see it
        return full.status, None
    if not full.model.table or not detectable_flips(n, full.model):
        return None
    return full.status, full.model


def _instances(seed: int, count: int, raw, min_each: int) -> list[ClauseSet]:
    rng = random.Random(seed)
    out: list[ClauseSet] = []
    tally = {"sat": 0, "unsat": 0}
    for _ in range(200 * count):
        if len(out) == count:
            return out
        n = normalize(raw(rng))
        got = _usable(n)
        if got is None:
            continue
        status, _ = got
        short = min(tally.values())
        need_both = count - len(out) <= 2 * (min_each - short)
        if need_both and tally.get(status, 0) > short:
            continue
        tally[status] = tally.get(status, 0) + 1
        out.append(n)
    raise RuntimeError(f"corpus generation stalled: {tally} after {200 * count} draws")


def bd_instances(seed: int, count: int = 50) -> list[ClauseSet]:
    """Difference-bound clause sets: <=2 predicates, base arity <=2, <=2 base
    variables per clause, constants in {-1,0,1}, <=2 free constants."""
    return _instances(seed, count, _raw_bd, min_each=max(1, count // 4))


def slr_instances(seed: int, count: int = 30) -> list[ClauseSet]:
    """Ordered-rational clause sets: <=2 Skolem constants, rationals in {0,1}."""
    return _instances(seed, count, _raw_slr, min_each=max(1, count // 4))


# --- timed automata --------------------------------------------------------


def _cc(rng: random.Random, clocks, n_atoms: int, upper_only: bool = False) -> ClockConstraint:
    atoms = []
    for _ in range(n_atoms):
        c = rng.choice((0, 1))
        if not upper_only and len(clocks) == 2 and rng.random() < 0.2:
            x, y = clocks
            atoms.append(DiffConst(x, y, rng.choice(_BOUND_RELS), Fraction(c)))
        elif upper_only:
            atoms.append(VarConst(rng.choice(clocks), rng.choice((Relation.LE, Relation.LT)),
                                  GroundTerm.constant(c)))
        else:
            atoms.append(VarConst(rng.choice(clocks), rng.choice(_ALL_RELS),
                                  GroundTerm.constant(c)))
    return ClockConstraint.make(atoms)


def _raw_automaton(rng: random.Random) -> tuple[TimedAutomaton, ReachQuery]:
    clocks = ("x", "y")
    locations = tuple(f"l{i}" for i in range(rng.randint(2, 3)))
    invariants = {}
    for i, loc in enumerate(locations):
        if rng.random() < 0.6:
            # the initial location keeps upper bounds only, so the zero
            # valuation stays admissible and the automaton is not dead on
            # arrival most of the time
            invariants[loc] = _cc(rng, clocks, rng.choice((1, 1, 2)), upper_only=(i == 0))
    transitions = []
    for _ in range(rng.randint(2, 4)):
        src, dst = rng.choice(locations), rng.choice(locations)
        guard = _cc(rng, clocks, rng.choice((0, 1, 1, 2)))
        resets = frozenset(x for x in clocks if rng.random() < 0.4)
        transitions.append(Transition(src, guard, resets, dst))
    aut = TimedAutomaton(clocks, locations, locations[0], invariants, tuple(transitions))
    goal = ReachQuery(rng.choice(locations),
                      _cc(rng, clocks, rng.choice((0, 1, 1))))
    return aut, goal


def timed_instances(seed: int, count: int = 20) -> list[tuple[TimedAutomaton, ReachQuery]]:
    """Random two-clock automata with constants in {0,1} and <=3 locations,
    roughly balanced between reachable and unreachable goals."""
    rng = random.Random(seed)
    out: list[tuple[TimedAutomaton, ReachQuery]] = []
    tally = {True: 0, False: 0}
    min_each = max(1, count // 3)
    for _ in range(200 * count):
        if len(out) == count:
            break
        aut, goal = _raw_automaton(rng)
        verdict = region_reach(aut, goal)
        short = min(tally.values())
        need_both = count - len(out) <= 2 * (min_each - short)
        if need_both and tally[verdict] > short:
            continue
        tally[verdict] += 1
        out.append((aut, goal))
    if len(out) < count:
        raise RuntimeError(f"automaton generation stalled: {tally}")
    return out


# --- ground linear systems -------------------------------------------------


def ground_systems(seed: int, count: int = 200, box: int = 2) -> list[GroundSystem]:
    """Random conjunctions over <=3 variables with unit coefficients on at
    most two variables per atom and half-integer bounds.

    Every variable is boxed into [-box, box] with non-strict bounds, which
    keeps any nonempty closed solution set anchored at a vertex with small
    denominator; a sixteenth-step grid is therefore an exhaustive oracle
    for the closed fragment and a practical one for the strict fragment.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.choice((1, 2, 2, 3, 3))
        names = [f"v{i + 1}" for i in range(nv)]
        sys = GroundSystem()
        for _ in range(rng.randint(1, 5)):
            support = rng.sample(names, rng.choice((1, 1, 2)) if nv > 1 else 1)
            coeffs = {v: rng.choice((-1, 1)) for v in support}
            rel = Relation.NEQ if rng.random() < 0.12 else rng.choice(_ALL_RELS)
            rhs = Fraction(rng.randint(-2 * box, 2 * box), 2)
            sys.add(GroundTerm.make(0, coeffs), rel, GroundTerm.constant(rhs))
        for v in names:
            sys.add(GroundTerm.skolem(v), Relation.GE, GroundTerm.constant(-box))
            sys.add(GroundTerm.skolem(v), Relation.LE, GroundTerm.constant(box))
        out.append(sys)
    return out
