"""Timed automata: reachability as difference-bound satisfiability.

The pipeline mirrors the classic reduction.  ``encode_fol_la`` produces the
intermediate clause set with synchronous delay (x' = x + z).  The delay
clauses are then rewritten so that, instead of one shared increment, all
pairwise clock differences must stay within the same cell of the threshold
partition induced by the integers -lambda..lambda while every clock weakly
increases; over a bounded box and uniform interpretations this preserves the
reachability verdict.  ``bound_clocks`` finally boxes all clock variables
into [0, lambda+1), after which the set is a valid BSR(BD) problem whose
unsatisfiability is equivalent to reachability.

``region_reach`` answers the same query by an explicit breadth-first search
over (location, region) pairs and serves as the independent oracle in the
differential tests.

Each input is checked once, where it is built or enters: a
``TimedAutomaton`` checks itself on construction, ``encode_reachability``
and ``region_reach`` check the goal against it with one shared check, and
the delay equations of the intermediate set are admitted by
``ClauseSet.validate`` in ``folla`` mode only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .regions import RegionClass, class_of_bd, enumerate_bd_bounded, representative_bd
from .terms import (
    MODE_BD,
    MODE_FOLLA,
    Clause,
    ClauseSet,
    DeltaEq,
    DiffConst,
    FreeTerm,
    GroundTerm,
    PredAtom,
    Relation,
    VarConst,
    VarVar,
    constraint_vars,
    eval_constraint,
    rename_constraint,
)

REACH = "Reach"
DELTA_VAR = "z"


class TimedAutomatonError(ValueError):
    """Structurally invalid automaton or query."""


# --- model -----------------------------------------------------------------


@dataclass(frozen=True)
class ClockConstraint:
    """Conjunction of atoms x rel c and x - y rel c with integer c."""

    atoms: tuple[VarConst | DiffConst, ...] = ()

    @staticmethod
    def make(atoms: Iterable[VarConst | DiffConst] = ()) -> "ClockConstraint":
        out = []
        for a in atoms:
            if isinstance(a, VarConst):
                if not a.bound.is_rational:
                    raise TimedAutomatonError(f"clock bound must be numeric: {a}")
                c = a.bound.offset
            elif isinstance(a, DiffConst):
                c = a.const
            else:
                raise TimedAutomatonError(f"not a clock constraint atom: {a}")
            if c.denominator != 1:
                raise TimedAutomatonError(f"clock constraint constant {c} is not an integer")
            out.append(a)
        return ClockConstraint(tuple(out))

    @property
    def is_true(self) -> bool:
        return not self.atoms

    def clocks(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.atoms:
            out.add(a.var)
            if isinstance(a, DiffConst):
                out.add(a.other)
        return frozenset(out)

    def max_const(self) -> int:
        m = 0
        for a in self.atoms:
            c = a.bound.offset if isinstance(a, VarConst) else a.const
            m = max(m, abs(int(c)))
        return m

    def holds(self, values: Mapping[str, Fraction]) -> bool:
        return all(eval_constraint(a, values, {}) for a in self.atoms)

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return ", ".join(str(a) for a in self.atoms)


TRUE_CC = ClockConstraint()


@dataclass(frozen=True)
class Transition:
    source: str
    guard: ClockConstraint
    resets: frozenset[str]
    target: str

    def __str__(self) -> str:
        rs = " ".join(sorted(self.resets))
        return f"trans {self.source} -> {self.target} guard {self.guard} reset {{{rs}}}"


@dataclass
class TimedAutomaton:
    """A timed automaton, checked once, when it is built: every entry point
    (parser, corpus, encoders, oracle) can rely on a well-formed one."""

    clocks: tuple[str, ...]
    locations: tuple[str, ...]
    initial: str
    invariants: dict[str, ClockConstraint] = field(default_factory=dict)
    transitions: tuple[Transition, ...] = ()

    def invariant(self, location: str) -> ClockConstraint:
        return self.invariants.get(location, TRUE_CC)

    def __post_init__(self) -> None:
        if not self.clocks:
            raise TimedAutomatonError("automaton needs at least one clock")
        if len(set(self.clocks)) != len(self.clocks):
            raise TimedAutomatonError("duplicate clock names")
        for x in self.clocks:
            if x.endswith("'") or x in (DELTA_VAR, "true"):
                raise TimedAutomatonError(f"reserved clock name {x!r}")
        if not self.locations:
            raise TimedAutomatonError("automaton needs at least one location")
        if len(set(self.locations)) != len(self.locations):
            raise TimedAutomatonError("duplicate location names")
        if self.initial not in self.locations:
            raise TimedAutomatonError(f"unknown initial location {self.initial!r}")
        known = set(self.clocks)
        for loc, cc in self.invariants.items():
            if loc not in self.locations:
                raise TimedAutomatonError(f"invariant for unknown location {loc!r}")
            self._check_cc(cc, known)
        for t in self.transitions:
            if t.source not in self.locations or t.target not in self.locations:
                raise TimedAutomatonError(f"transition between unknown locations: {t}")
            if not t.resets <= known:
                raise TimedAutomatonError(f"reset of unknown clock in: {t}")
            self._check_cc(t.guard, known)

    def _check_cc(self, cc: ClockConstraint, known: set[str]) -> None:
        if not cc.clocks() <= known:
            raise TimedAutomatonError(f"unknown clock in constraint {cc}")

    def max_const(self) -> int:
        m = 0
        for cc in self.invariants.values():
            m = max(m, cc.max_const())
        for t in self.transitions:
            m = max(m, t.guard.max_const())
        return m


@dataclass(frozen=True)
class ReachQuery:
    location: str
    constraint: ClockConstraint = TRUE_CC

    def __str__(self) -> str:
        return f"{self.location}:{self.constraint}"


def _check_goal(aut: TimedAutomaton, query: ReachQuery) -> None:
    """The goal's location, then its clocks, must be the automaton's."""
    if query.location not in aut.locations:
        raise TimedAutomatonError(f"unknown goal location {query.location!r}")
    if not query.constraint.clocks() <= set(aut.clocks):
        raise TimedAutomatonError(f"unknown clock in goal constraint {query.constraint}")


def default_lambda(aut: TimedAutomaton, query: ReachQuery | None = None) -> int:
    """lambda = |clocks| * k with k the largest absolute constraint constant.

    Goal-constraint constants count towards k: the bounded box must keep the
    goal condition distinguishable, not just the automaton's own guards.
    """
    k = aut.max_const()
    if query is not None:
        k = max(k, query.constraint.max_const())
    return max(1, len(aut.clocks) * k)


# --- FOL(LA) encoding ------------------------------------------------------


def _prime(name: str) -> str:
    return name + "'"


def _primed_atoms(cc: ClockConstraint) -> list[VarConst | DiffConst]:
    return [rename_constraint(a, _prime) for a in cc.atoms]


def reach_atom(location: str, clocks: Sequence[str], primed: bool = False) -> PredAtom:
    args = tuple(_prime(x) if primed else x for x in clocks)
    return PredAtom(REACH, (FreeTerm(location, True),), args)


def encode_fol_la(aut: TimedAutomaton) -> ClauseSet:
    """Initial clause, one delay clause per location, one clause per
    transition; locations become free constants, Reach : S^1 x R^|clocks|."""
    xs = aut.clocks
    clauses: list[Clause] = []
    lam0: list = [VarConst(x, Relation.EQ, GroundTerm.constant(0)) for x in xs]
    lam0 += list(aut.invariant(aut.initial).atoms)
    clauses.append(Clause.make(lam0, [], [reach_atom(aut.initial, xs)]))
    for loc in aut.locations:
        lam: list = [VarConst(DELTA_VAR, Relation.GE, GroundTerm.constant(0))]
        lam += [DeltaEq(_prime(x), x, DELTA_VAR) for x in xs]
        lam += _primed_atoms(aut.invariant(loc))
        clauses.append(
            Clause.make(lam, [reach_atom(loc, xs)], [reach_atom(loc, xs, primed=True)])
        )
    for t in aut.transitions:
        lam = list(t.guard.atoms)
        for x in xs:
            if x in t.resets:
                lam.append(VarConst(_prime(x), Relation.EQ, GroundTerm.constant(0)))
            else:
                lam.append(VarVar(_prime(x), Relation.EQ, x))
        lam += _primed_atoms(aut.invariant(t.target))
        clauses.append(
            Clause.make(lam, [reach_atom(t.source, xs)], [reach_atom(t.target, xs, primed=True)])
        )
    return ClauseSet(
        MODE_FOLLA,
        clauses,
        signature={REACH: (1, len(xs))},
        fconsts=list(aut.locations),
    )


# --- delay lowering --------------------------------------------------------
#
# The synchronous delay premise x' = x + z is replaced, following the
# difference-bound reformulation, by: every pairwise difference x_i - x_j
# lies in the same cell of the threshold partition {<=k, >=k : |k| <= lambda}
# before and after, and every clock weakly increases.  A premise-side
# conjunction of biconditionals does not fit into single clauses, so we emit
# one clause per realizable cell profile: the profile's defining atoms pin
# both the unprimed and the primed variables to that profile.  The resulting
# conjunction of clauses is equivalent to the biconditional formula because
# each tuple matches exactly one profile.

Cell = tuple[str, int]


def _diff_cell(fi: int, ranki: int, fj: int, rankj: int, lam: int) -> Cell:
    """Cell of x_i - x_j given floors and fractional ranks of a region."""
    if ranki == rankj:
        d = fi - fj
        if d < -lam:
            return ("lt", -lam)
        if d > lam:
            return ("gt", lam)
        return ("eq", d)
    k = fi - fj if ranki > rankj else fi - fj - 1
    if k >= lam:
        return ("gt", lam)
    if k <= -lam - 1:
        return ("lt", -lam)
    return ("open", k)


def profile_of_class(cls: RegionClass) -> tuple[Cell, ...]:
    """Difference cells for all coordinate pairs i < j."""
    return tuple(
        _diff_cell(fi, ri, fj, rj, cls.kappa)
        for (_, fi, ri), (_, fj, rj) in itertools.combinations(cls.cells, 2)
    )


def delay_profiles(n_clocks: int, lam: int) -> list[tuple[Cell, ...]]:
    """All difference-cell profiles realizable inside [0, lambda+1)^n."""
    seen: set[tuple[Cell, ...]] = set()
    for cls in enumerate_bd_bounded(n_clocks, lam, floor_lo=0):
        seen.add(profile_of_class(cls))
    return sorted(seen)


def _cell_atoms(x: str, y: str, cell: Cell) -> list[DiffConst]:
    kind, k = cell
    if kind == "eq":
        return [DiffConst(x, y, Relation.EQ, Fraction(k))]
    if kind == "open":
        return [DiffConst(x, y, Relation.GT, Fraction(k)), DiffConst(x, y, Relation.LT, Fraction(k + 1))]
    if kind == "lt":
        return [DiffConst(x, y, Relation.LT, Fraction(k))]
    return [DiffConst(x, y, Relation.GT, Fraction(k))]


def _is_delay_clause(cl: Clause) -> bool:
    return any(isinstance(c, DeltaEq) for c in cl.lam)


def lower_delay_clauses(cs: ClauseSet, lam: int) -> ClauseSet:
    """Rewrite every synchronous delay clause into its profile clauses.

    Non-delay clauses pass through unchanged; the result no longer contains
    DeltaEq constraints nor the shared increment variable.
    """
    if lam < 1:
        raise ValueError("lambda must be a positive integer")
    out: list[Clause] = []
    profiles_cache: dict[int, list[tuple[Cell, ...]]] = {}
    for cl in cs.clauses:
        if not _is_delay_clause(cl):
            out.append(cl)
            continue
        deltas = [c for c in cl.lam if isinstance(c, DeltaEq)]
        zs = {d.delta for d in deltas}
        if len(zs) != 1:
            raise ValueError(f"delay clause must share one increment variable: {cl}")
        z = next(iter(zs))
        clocks = sorted(d.old for d in deltas)
        primed = {d.old: d.new for d in deltas}
        rest = [
            c
            for c in cl.lam
            if not isinstance(c, DeltaEq) and z not in constraint_vars(c)
        ]
        n = len(clocks)
        if n not in profiles_cache:
            profiles_cache[n] = delay_profiles(n, lam)
        pairs = list(itertools.combinations(range(n), 2))
        for profile in profiles_cache[n]:
            lam_atoms: list = []
            for (i, j), cell in zip(pairs, profile):
                lam_atoms += _cell_atoms(clocks[i], clocks[j], cell)
                lam_atoms += _cell_atoms(primed[clocks[i]], primed[clocks[j]], cell)
            lam_atoms += [VarVar(primed[x], Relation.GE, x) for x in clocks]
            lam_atoms += rest
            out.append(Clause.make(lam_atoms, cl.gamma, cl.delta))
    return ClauseSet(cs.mode, out, dict(cs.signature), list(cs.fconsts), list(cs.skolems))


def bound_clocks(cs: ClauseSet, kappa: int) -> ClauseSet:
    """Conjoin 0 <= v and v < kappa for every base variable of every clause.

    This turns the lowered encoding into a valid BSR(BD) clause set: every
    difference constraint becomes two-sided bounded.
    """
    lo = GroundTerm.constant(0)
    hi = GroundTerm.constant(kappa)
    out: list[Clause] = []
    for cl in cs.clauses:
        if _is_delay_clause(cl):
            raise ValueError("delay clauses must be lowered before bounding")
        lam = list(cl.lam)
        present = set(cl.lam)
        for v in cl.base_vars():
            for atom in (VarConst(v, Relation.GE, lo), VarConst(v, Relation.LT, hi)):
                if atom not in present:
                    lam.append(atom)
        out.append(Clause.make(lam, cl.gamma, cl.delta))
    return ClauseSet(MODE_BD, out, dict(cs.signature), list(cs.fconsts), [])


def encode_reachability(
    aut: TimedAutomaton, query: ReachQuery, lam: int | None = None
) -> ClauseSet:
    """BSR(BD) clause set that is unsatisfiable iff the query is reachable.

    The automaton checked itself when it was built; the goal is checked here
    against it, by the check ``region_reach`` shares.  The delay equations
    of ``encode_fol_la`` are lowered here, and ``ClauseSet.validate`` admits
    none outside ``folla`` mode.  The result is not validated here:
    ``normalize`` validates the clause set it is given, so the encoding is
    checked where it enters the pipeline."""
    _check_goal(aut, query)
    if lam is None:
        lam = default_lambda(aut, query)
    cs = lower_delay_clauses(encode_fol_la(aut), lam)
    goal = Clause.make(list(query.constraint.atoms), [reach_atom(query.location, aut.clocks)], [])
    cs.clauses.append(goal)
    return bound_clocks(cs, lam + 1)


# --- region-graph oracle ---------------------------------------------------


def time_successor(cls: RegionClass) -> RegionClass | None:
    """Next region hit when all coordinates advance uniformly.

    Integer-valued coordinates enter the open segment just above them;
    otherwise the largest fractional block reaches the next integer.  None
    once that would push a coordinate to kappa + 1 (out of the box).
    """
    cells = cls.cells
    if not cells:
        return None
    if any(r == 0 for _, _, r in cells):
        return cls._replace(cells=tuple((bk, f, r + 1) for bk, f, r in cells))
    top = max(r for _, _, r in cells)
    if any(f >= cls.kappa for _, f, r in cells if r == top):
        return None
    return cls._replace(
        cells=tuple((bk, f + 1, 0) if r == top else (bk, f, r) for bk, f, r in cells)
    )


def _cc_holds_class(cc: ClockConstraint, cls: RegionClass, clocks: Sequence[str]) -> bool:
    rep = representative_bd(cls)
    values = dict(zip(clocks, rep))
    return cc.holds(values)


def region_reach(aut: TimedAutomaton, query: ReachQuery, lam: int | None = None) -> bool:
    """Breadth-first search over (location, region) pairs inside the box.

    Delay successors chain through ``time_successor``; only the endpoint of a
    delay needs to satisfy the location invariant (invariants may be
    non-convex, e.g. via !=, so intermediate regions must not be filtered).
    Discrete successors apply resets to a representative and reclassify.
    The automaton checked itself when it was built; the goal gets the check
    that ``encode_reachability`` makes.
    """
    _check_goal(aut, query)
    if lam is None:
        lam = default_lambda(aut, query)
    xs = aut.clocks
    n = len(xs)
    start_cls = class_of_bd([Fraction(0)] * n, lam, bounded=True)
    if not _cc_holds_class(aut.invariant(aut.initial), start_cls, xs):
        return False
    by_source: dict[str, list[Transition]] = {}
    for t in aut.transitions:
        by_source.setdefault(t.source, []).append(t)

    seen: set[tuple[str, RegionClass]] = set()
    frontier: list[tuple[str, RegionClass]] = [(aut.initial, start_cls)]
    seen.add(frontier[0])
    while frontier:
        nxt: list[tuple[str, RegionClass]] = []
        for loc, cls in frontier:
            if loc == query.location and _cc_holds_class(query.constraint, cls, xs):
                return True
            succs: list[tuple[str, RegionClass]] = []
            inv = aut.invariant(loc)
            d = time_successor(cls)
            while d is not None:
                if _cc_holds_class(inv, d, xs):
                    succs.append((loc, d))
                d = time_successor(d)
            rep = representative_bd(cls)
            values = dict(zip(xs, rep))
            for t in by_source.get(loc, ()):
                if not t.guard.holds(values):
                    continue
                reset_vals = [Fraction(0) if x in t.resets else values[x] for x in xs]
                tgt_cls = class_of_bd(reset_vals, lam, bounded=True)
                if not _cc_holds_class(aut.invariant(t.target), tgt_cls, xs):
                    continue
                succs.append((t.target, tgt_cls))
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return False


# --- executable content of the delay-set lemma -----------------------------


def _in_delay_closure(target: Sequence[Fraction], source: RegionClass) -> bool:
    """Is target = q + t for some q in source and t >= 0?

    The class of target - t changes only when a coordinate crosses an
    integer, so scanning the crossing breakpoints and their midpoints covers
    every class the backwards diagonal passes through.
    """
    lo = min(target)
    breakpoints = {Fraction(0)}
    for v in target:
        f = v.numerator // v.denominator
        for b in range(0, f + 1):
            t = v - b
            if 0 <= t <= lo:
                breakpoints.add(t)
    pts = sorted(breakpoints)
    candidates = list(pts)
    for a, b in zip(pts, pts[1:]):
        candidates.append((a + b) / 2)
    for t in candidates:
        if t < 0 or t > lo:
            continue
        shifted = [v - t for v in target]
        if any(s < 0 for s in shifted):
            continue
        if class_of_bd(shifted, source.kappa, bounded=True) == source:
            return True
    return False


def _in_difference_hull(target: Sequence[Fraction], source: RegionClass, lam: int) -> bool:
    """Same difference cells as the source region and componentwise above it.

    Some q in the source lies weakly below the target iff the target clears
    every source floor (strictly where the source coordinate is fractional);
    the fractional parts of such a q can be squeezed towards 0 uniformly
    without leaving the source region.
    """
    tgt = class_of_bd(target, lam, bounded=True)
    if profile_of_class(tgt) != profile_of_class(source):
        return False
    return all(v >= f if r == 0 else v > f for v, (_, f, r) in zip(target, source.cells))


def delay_sets_equal_check(source: RegionClass, lam: int) -> bool:
    """Compare the two characterizations of a region's delay successors.

    S1 collects the box regions reachable from the source by a uniform
    nonnegative shift; S2 those whose difference cells match the source's
    while sitting componentwise weakly above it.  The lemma asserts S1 = S2;
    this computes both as region sets and checks equality.
    """
    if source.kappa != lam:
        raise ValueError("source region must be encoded at kappa = lambda")
    s1: set[RegionClass] = set()
    s2: set[RegionClass] = set()
    for cls in enumerate_bd_bounded(source.arity, lam, floor_lo=0):
        rep = representative_bd(cls)
        if _in_delay_closure(rep, source):
            s1.add(cls)
        if _in_difference_hull(rep, source, lam):
            s2.add(cls)
    return s1 == s2
