"""Decision procedures for the two clause fragments.

Satisfiability is decided by exhaustively realizing the nondeterministic
choices of the uniform-model construction: an ordered partition of the
base constants (slr only), a ground witness gamma for it, a partition of
the free constants (the free domain, one element per block), and finally
the predicate table.  The table is one bit per (predicate, free
arguments, region class), found by reduction to propositional
satisfiability; a candidate that solves the propositional instance is
re-verified semantically on class representatives before SAT is reported.

Each clause is read once per context into a plan (``_plan``): its
compiled premise, its equations and its predicate atoms.  Grounding,
instantiation and re-verification all work from plans, and ``_cases``
resolves a plan's atoms for every free assignment that no equation
settles.  Both grounding and re-verification work by projection: an atom
reads only the class of its own base arguments, so grounding selects that
class once per distinct tuple of picked cells, and re-verification streams
each variable-disjoint component of a clause on its own and judges each
distinct row of projected classes once.

All choice points are iterated in a fixed order, so verdicts, models and
statistics are deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterator, NamedTuple

from .linarith import GroundSystem, solve_ground
from .normalize import validate_normal_form
from .propsat import PropInstance
from .propsat import solve as _dpll
from .regions import (
    INF,
    PartitionJ,
    _zone,
    check_holds,
    class_of_bd,
    class_of_bd_scaled,
    class_of_slr,
    class_of_slr_scaled,
    compile_checks,
    enumerate_bd_unbounded,
    enumerate_slr_classes,
    ordered_set_partitions,
    representative,
    representative_bd_scaled,
    representative_slr_scaled,
    scale,
    select_class,
)
from .report import (
    STATUS_SAT,
    STATUS_UNSAT,
    ResultReport,
    SolveStats,
)
from .terms import (
    MODE_BD,
    MODE_SLR,
    ClauseSet,
    DeltaEq,
    DiffConst,
    Equation,
    FragmentError,
    FreeTerm,
    GroundCmp,
    GroundTerm,
    Relation,
    SkolemDef,
    VarConst,
    VarVar,
    constraint_vars,
    eval_constraint,
)


class ResourceLimitError(RuntimeError):
    """A budget exhausted before a verdict, with the partial stats;
    distinct from UNSAT."""

    def __init__(self, message: str, stats: SolveStats):
        super().__init__(message)
        self.stats = stats


class NaiveBudgetError(ResourceLimitError):
    """The naive table enumerator would exceed its atom budget."""


class PropAtom(NamedTuple):
    """One bit of a uniform interpretation: P on a free tuple and a class.

    A tuple: it equals and hashes as the plain ``(pred, free_args, cls)``.
    """

    pred: str
    free_args: tuple[str, ...]
    cls: object


@dataclass
class InterpretationDescriptor:
    """A candidate uniform interpretation, complete enough to re-verify:
    the arithmetic context it was found in and its predicate table.

    The predicate table is total on the atoms that occurred during
    grounding; atoms never touched by any clause instance default to
    false, which is sound because no clause constrains them.  The class
    numbering and the legend are derived from the table when read.
    """

    ctx: _Context
    domain: tuple[str, ...]
    fconst_assign: dict[str, str]
    table: dict[PropAtom, bool]

    @property
    def gamma(self) -> dict[str, Fraction]:
        return self.ctx.gamma

    @cached_property
    def class_index(self) -> dict:
        classes = sorted({a.cls for a in self.table}, key=lambda c: (c.arity, c.sort_key()))
        return {c: i for i, c in enumerate(classes)}

    def table_lines(self) -> list[str]:
        order = sorted(
            self.table, key=lambda a: (a.pred, a.free_args, self.class_index[a.cls])
        )
        return [
            f"{a.pred} ({','.join(a.free_args)}) class#{self.class_index[a.cls]}"
            f" = {'true' if self.table[a] else 'false'}"
            for a in order
        ]

    def legend_lines(self) -> list[str]:
        return [
            f"class#{i} rep: ({', '.join(str(v) for v in self.ctx.rep(cls))})"
            for cls, i in self.class_index.items()
        ]


# --- grounding context ------------------------------------------------------


@dataclass
class _Context:
    """One fully fixed arithmetic side: mode plus gamma plus kappa/partition.

    Class streams are generated afresh on every request and kept by no
    one.  The checks that prune them (a clause's compiled premise, in its
    ``_plan``) differ from clause to clause.  A SAT verdict asks for
    streams twice: after grounding has streamed each clause whole in the
    verdict's context, ``verify_model`` streams each variable-disjoint
    component of every clause that some free assignment leaves open, over
    the component's variables and pruned by its own checks.  Those streams
    are not kept either.  Only the naive oracle asks for the full stream
    (no checks).
    ``rep`` and ``classify`` work on rationals, for legends and the naive
    oracle; ``scaled`` gives ``verify_model`` their integer forms.
    """

    mode: str
    gamma: dict[str, Fraction]
    kappa: int | None = None
    partition: PartitionJ | None = None

    def classes(self, arity: int, checks=()) -> Iterator:
        if self.mode == MODE_SLR:
            return enumerate_slr_classes(arity, self.partition, checks)
        return enumerate_bd_unbounded(arity, self.kappa, checks)

    def checks(self, constraints, vidx) -> list[tuple]:
        return compile_checks(self.mode, constraints, vidx, self.gamma, self.partition)

    def rep(self, cls) -> tuple[Fraction, ...]:
        return representative(cls, self.partition)

    def classify(self, values):
        if self.mode == MODE_SLR:
            return class_of_slr(values, self.partition)
        return class_of_bd(values, self.kappa, bounded=False)

    def scaled(self, arity: int):
        """For the classes of one arity: (d, rep, classify), their one
        denominator d, a class's representative as numerators over d, and
        the class of a tuple of numerators over d."""
        if self.mode == MODE_SLR:
            d = self.partition.denominator(arity)
            points = self.partition.scaled(d)
            return (
                d,
                partial(representative_slr_scaled, points=points, d=d),
                partial(class_of_slr_scaled, points=points),
            )
        d = arity + 2  # the ladder denominator of representative_bd
        return (
            d,
            partial(representative_bd_scaled, d=d),
            partial(class_of_bd_scaled, d=d, kappa=self.kappa, bounded=False),
        )


def _kappa_of(cs: ClauseSet) -> int:
    biggest = max((abs(r) for r in cs.rationals()), default=Fraction(0))
    return max(1, int(biggest))


# --- clause grounding -------------------------------------------------------


class _Plan(NamedTuple):
    """A clause read in one context: its base variables and their indices,
    the compiled checks of its variable premise conjuncts, its free
    variables, the equations of its premise and of its conclusion, and its
    predicate atoms as (positive, pred, free terms, base indices), premise
    atoms first."""

    bvars: tuple[str, ...]
    vidx: dict[str, int]
    checks: list[tuple]
    free_vars: tuple[str, ...]
    eq_neg: tuple[Equation, ...]
    eq_pos: tuple[Equation, ...]
    atoms: tuple[tuple[bool, str, tuple[FreeTerm, ...], tuple[int, ...]], ...]


def _class_ok(cls, checks) -> bool:
    """Whether every premise check holds on the class."""
    cells = cls.cells
    return all(check_holds(ch, cells) for ch in checks)


def _plan(ctx: _Context, cl) -> _Plan | None:
    """The plan of a clause in context, or None when a ground premise
    conjunct is false, so that the clause holds everywhere."""
    if any(isinstance(c, DeltaEq) for c in cl.lam):
        raise FragmentError("delay equations must be lowered before deciding")
    ground = (GroundCmp, SkolemDef)
    if not all(eval_constraint(c, {}, ctx.gamma) for c in cl.lam if isinstance(c, ground)):
        return None
    bvars = cl.base_vars()
    vidx = {v: i for i, v in enumerate(bvars)}
    checks = ctx.checks([c for c in cl.lam if not isinstance(c, ground)], vidx)
    atoms = tuple(
        (positive, a.pred, a.free_args, tuple(vidx[v] for v in a.base_args))
        for positive, part in ((False, cl.gamma), (True, cl.delta))
        for a in part
        if not isinstance(a, Equation)
    )
    return _Plan(
        bvars,
        vidx,
        checks,
        cl.free_vars(),
        tuple(a for a in cl.gamma if isinstance(a, Equation)),
        tuple(a for a in cl.delta if isinstance(a, Equation)),
        atoms,
    )


def _cases(plan: _Plan, domain, assign) -> list[list[tuple]]:
    """For each assignment of the free variables into the domain that no
    equation settles (a premise equation false or a conclusion equation
    true would make the clause hold outright), every atom of the plan as
    (positive, pred, free args)."""
    out = []
    for env_vals in itertools.product(domain, repeat=len(plan.free_vars)):
        env = dict(zip(plan.free_vars, env_vals))

        def res(t: FreeTerm) -> str:
            return assign[t.name] if t.is_const else env[t.name]

        if any(res(e.left) != res(e.right) for e in plan.eq_neg):
            continue
        if any(res(e.left) == res(e.right) for e in plan.eq_pos):
            continue
        out.append([(positive, pred, tuple(res(t) for t in fts))
                    for positive, pred, fts, _ in plan.atoms])
    return out


def _ground_clause(ctx: _Context, cl, stats: SolveStats) -> tuple[_Plan, list] | None:
    """Candidate-independent grounding: (plan, rows), a row per distinct
    tuple of the classes that a surviving class selects for the plan's
    atoms; None when the clause can never constrain a candidate (a ground
    premise conjunct is false, or no region class satisfies the variable
    premise).

    The class stream is pruned by all premise checks and read once;
    ``_class_ok`` still judges every class it yields.  ``select_class``
    reads nothing but the picked cells, and family and kappa are fixed per
    stream, so it runs once per distinct tuple of picked cells.
    """
    plan = _plan(ctx, cl)
    if plan is None:
        return None
    idxs = [a[3] for a in plan.atoms]
    selected: dict = {}
    # One object per distinct selected class, shared by all rows: there are
    # far fewer of them than rows, and the rows live as long as the context.
    shared: dict = {}
    rows: dict = {}
    for cls in ctx.classes(len(plan.bvars), plan.checks):
        stats.classes += 1
        if not _class_ok(cls, plan.checks):
            continue
        cells = cls.cells
        row = []
        for idx in idxs:
            picked = tuple([cells[i] for i in idx])
            scls = selected.get(picked)
            if scls is None:
                scls = select_class(cls, idx)
                scls = selected[picked] = shared.setdefault(scls, scls)
            row.append(scls)
        rows[tuple(row)] = None
    if not rows:
        return None
    return plan, list(rows)


def _instantiate(grounded, domain, assign):
    """Propositional instance for one candidate (domain, assignment), and
    the variable of each (pred, free args, class) atom, numbered by first
    occurrence.

    Rows repeat a few selected classes per atom, so within a case each atom
    position keeps the literal of each class it has met.  Only a premise
    atom and a conclusion atom with the same predicate and free arguments
    can make a row a tautology, so a case without such a pair skips the
    tautology test."""
    atom_ids: dict[tuple, int] = {}
    clauses: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for plan, rows in grounded:
        for case in _cases(plan, domain, assign):
            heads = {(pred, fa) for positive, pred, fa in case if positive}
            clash = any((pred, fa) in heads for positive, pred, fa in case if not positive)
            memo: list[dict] = [{} for _ in case]
            for row in rows:
                lits = []
                for (positive, pred, fa), known, scls in zip(case, memo, row):
                    lit = known.get(scls)
                    if lit is None:
                        vid = atom_ids.setdefault((pred, fa, scls), len(atom_ids) + 1)
                        lit = known[scls] = vid if positive else -vid
                    lits.append(lit)
                key = frozenset(lits)
                if clash and any(-l in key for l in key):
                    continue
                if key in seen:
                    continue
                seen.add(key)
                clauses.append(tuple(lits))
    return PropInstance(len(atom_ids), clauses), atom_ids


# --- preorder enumeration (slr) --------------------------------------------


def enumerate_preorders(skolems, rationals=()):
    """Ordered partitions of the base constants, rational-order consistent.

    Elements are skolem names and rational values; distinct rationals
    occupy distinct blocks in ascending order.  Built, not filtered: one
    ``ordered_set_partitions`` over the rationals (ascending) and then the
    Skolems, each rational held in a block before the next larger one's, so
    a partial placement out of order is cut with all its extensions.
    """
    rats = sorted(set(rationals))
    signs = {}
    for r, q in zip(rats, rats[1:]):
        signs[r, q], signs[q, r] = (-1,), (1,)
    return ordered_set_partitions((*rats, *sorted(set(skolems))), signs)


def _gterm(e) -> GroundTerm:
    return GroundTerm.constant(e) if isinstance(e, Fraction) else GroundTerm.skolem(e)


def _preorder_gamma(pre, def_constraints, skolems):
    """Witness realizing the preorder exactly: equal within blocks, strictly
    increasing across blocks; None when infeasible.

    Strictness across blocks keeps the branch enumeration complete: a
    witness that merged two blocks would duplicate the coarser ordered
    partition, which is enumerated in its own right.

    The system is a chain over the flattened preorder: ``=`` between
    neighbours in one block, ``<`` from the last element of a block to the
    first of the next, nothing between two rationals (whose order the
    preorder already respects).  By transitivity it has the same solutions
    as the system over all pairs, and so the same witness: back-substitution
    picks from the exact projection intervals, which depend only on the
    solution set and the elimination order (the sorted names).
    """
    sys = GroundSystem()
    for left, rel, right in def_constraints:
        sys.add(left, rel, right)
    flat = [(bi, e) for bi, block in enumerate(pre) for e in block]
    for (bi, c), (bj, c2) in zip(flat, flat[1:]):
        if isinstance(c, Fraction) and isinstance(c2, Fraction):
            continue
        sys.add(_gterm(c), Relation.EQ if bi == bj else Relation.LT, _gterm(c2))
    return solve_ground(sys, names=list(skolems))


class _DifferenceScreen:
    """Refutes slr preorders by their difference constraints alone, before
    Fourier-Motzkin: a zone (``regions._zone``, a closed difference-bound
    matrix) over the Skolem constants that holds the preorder's chain and
    the definitions ``s = t + c`` and ``s = c``.

    The rationals and those definitions are scaled to integers once, in
    the constructor.  Per preorder, a rational next to a Skolem constant in
    the chain bounds it, two neighbouring Skolem constants are related by
    ``=`` or ``<``, and each definition adds its difference.  A definition
    of any other shape (a coefficient other than 1, two Skolem constants in
    its term) stays out, so the zone relaxes the preorder's system: an
    empty zone refutes the preorder, and a nonempty one says nothing.  With
    difference-form definitions only, the zone is empty exactly when the
    system is infeasible."""

    def __init__(self, skolems, rationals, definitions):
        forms = [(sk, t) for sk, t in definitions
                 if not t.coeffs or (len(t.coeffs) == 1 and t.coeffs[0][1] == 1)]
        unit = math.lcm(*(q.denominator for q in rationals),
                        *(t.offset.denominator for _, t in forms))
        self.index = {sk: i for i, sk in enumerate(skolems)}
        self.scaled = {q: (q * unit).numerator for q in rationals}
        self.bounds = [[INF, INF] for _ in skolems]  # zone entries [0][s] and [s][0]
        self.relations = []
        for sk, t in forms:
            c = (t.offset * unit).numerator
            if t.coeffs:  # sk - t' = c
                self.relations.append(("diff", Relation.EQ, self.index[sk],
                                       self.index[t.coeffs[0][0]], c))
            else:  # sk = c
                b = self.bounds[self.index[sk]]
                b[0], b[1] = min(b[0], (-c, 1)), min(b[1], (c, 1))

    def admits(self, pre) -> bool:
        """False when the chain of ``pre`` and the difference-form
        definitions have no common solution."""
        bounds = [list(b) for b in self.bounds]
        relations = list(self.relations)
        flat = [(bi, e) for bi, block in enumerate(pre) for e in block]
        for (bi, a), (bj, b) in zip(flat, flat[1:]):
            weak = int(bi == bj)  # a = b, else a < b
            if isinstance(a, Fraction):
                if not isinstance(b, Fraction):  # a lower bound on b, and an upper one if equal
                    entries = bounds[self.index[b]]
                    q = self.scaled[a]
                    entries[0] = min(entries[0], (-q, weak))
                    if weak:
                        entries[1] = min(entries[1], (q, 1))
            elif isinstance(b, Fraction):  # an upper bound on a, and a lower one if equal
                entries = bounds[self.index[a]]
                q = self.scaled[b]
                entries[1] = min(entries[1], (q, weak))
                if weak:
                    entries[0] = min(entries[0], (-q, 1))
            else:
                relations.append(("varvar", Relation.EQ if weak else Relation.LT,
                                  self.index[a], self.index[b]))
        return _zone(bounds, relations) is not None


def _contexts(cs: ClauseSet, stats: SolveStats):
    """The arithmetic branches: one for bd, one per feasible preorder of
    the Skolem constants and rationals for slr.  Each witness realizes its
    preorder exactly (``_preorder_gamma``), so no two branches share a
    gamma order type.

    ``stats.preorders`` counts every preorder.  Fourier-Motzkin runs only
    on those that ``_DifferenceScreen`` admits: the screen is exact when
    every definition has the form ``s = t + c`` or ``s = c``, and a
    relaxation otherwise, so it refutes no feasible preorder and leaves
    the others to ``_preorder_gamma``."""
    if cs.mode == MODE_BD:
        yield _Context(MODE_BD, {}, kappa=_kappa_of(cs))
        return
    skolems = sorted(cs.skolems)
    rats = sorted(cs.rationals())
    definitions = [(c.lam[0].skolem, c.lam[0].term) for c in cs.def_clauses()]
    defs = [(GroundTerm.skolem(sk), Relation.EQ, t) for sk, t in definitions]
    screen = _DifferenceScreen(skolems, rats, definitions)
    for pre in enumerate_preorders(skolems, rats):
        stats.preorders += 1
        if not screen.admits(pre):
            continue
        gamma = _preorder_gamma(pre, defs, skolems)
        if gamma is None:
            continue
        points = set(gamma.values()) | set(rats)
        yield _Context(MODE_SLR, gamma, partition=PartitionJ.make(points))


# --- candidate enumeration --------------------------------------------------


def _candidates(fconsts):
    """One candidate (domain, assignment) per set partition of the free
    constants: by block count k, then lexicographic in the assignment
    tuple.  The domain is the first k names, and blocks take them in
    order of first appearance (a restricted growth string), so every
    assignment is onto its domain.

    Nothing else needs trying.  Clauses are universal, and substructures
    of models of universal clauses are models: the image of the
    assignment carries a model whenever the whole domain does, so the
    assignment may be taken onto its domain.  Two surjective candidates
    that induce the same partition differ by a renaming of the domain.

    The normal form has at least one free constant
    (``validate_normal_form``), so every domain is nonempty.
    """
    names = sorted(fconsts)
    for k in range(1, len(names) + 1):
        for blocks in _growth_strings(len(names), k):
            yield tuple(names[:k]), {n: names[b] for n, b in zip(names, blocks)}


def _growth_strings(n: int, k: int, prefix: tuple[int, ...] = ()):
    """Restricted growth strings of length n over exactly k blocks, in
    lexicographic order: each entry is at most one more than the largest
    before it."""
    used = max(prefix, default=-1) + 1
    if len(prefix) == n:
        if used == k:
            yield prefix
        return
    if k - used > n - len(prefix):
        return  # too few places left to open the missing blocks
    for b in range(min(used + 1, k)):
        yield from _growth_strings(n, k, prefix + (b,))


# --- deciding ---------------------------------------------------------------


def decide(
    cs: ClauseSet,
    *,
    max_candidates: int | None = None,
) -> ResultReport:
    """Exhaustive uniform-model search over a clause set in normal form
    (``normalize``); SAT with a verified model, or UNSAT.

    It relies on nothing about ``cs`` beyond what ``validate_normal_form``
    enforces, and counts the whole run, DPLL decisions included, in one
    ``SolveStats``, which ends in the report or in the error.  Raises
    NormalFormError if ``cs`` is not in normal form, and ResourceLimitError
    once more than ``max_candidates`` candidate interpretations have been
    attempted.
    """
    t0 = time.perf_counter()
    stats = SolveStats()
    try:
        validate_normal_form(cs)
        for ctx in _contexts(cs, stats):
            grounded = [g for g in (_ground_clause(ctx, cl, stats) for cl in cs.clauses)
                        if g is not None]
            for domain, assign in _candidates(cs.fconsts):
                stats.candidates += 1
                if max_candidates is not None and stats.candidates > max_candidates:
                    raise ResourceLimitError(
                        f"candidate limit exceeded ({max_candidates})", stats
                    )
                inst, atom_ids = _instantiate(grounded, domain, assign)
                stats.prop_vars += inst.n_vars
                stats.prop_clauses += len(inst.clauses)
                model = _dpll(inst, stats)
                if model is None:
                    continue
                table = {PropAtom._make(atom): model[vid] for atom, vid in atom_ids.items()}
                desc = InterpretationDescriptor(ctx, domain, assign, table)
                if not verify_model(cs, desc):
                    raise RuntimeError(
                        "internal error: candidate model failed semantic re-verification"
                    )
                return ResultReport(STATUS_SAT, desc, stats)
        return ResultReport(STATUS_UNSAT, None, stats)
    finally:
        stats.wall_ms = int((time.perf_counter() - t0) * 1000)


def verify_model(cs: ClauseSet, desc: InterpretationDescriptor) -> bool:
    """Semantic check of every clause of the normal form ``cs`` on every
    class representative and free assignment.

    The free assignments that no equation settles are listed once per
    clause (``_cases``).  A clause is checked per variable-disjoint
    component (``_components``): under a fixed assignment it fails exactly
    when every component has a point that meets the component's premise
    conjuncts and falsifies its atoms, since points of different components
    combine freely.  So each component streams the classes of its own
    variables, pruned by its own checks, and a clause costs the sum of its
    components' streams, not their product; one whose premise admits no
    class makes the clause hold.  A component's distinct rows
    (``_component_rows``) are each checked once per assignment against the
    table (``_falsifiable``).

    Each streamed class is judged once, on integers: its representative, as
    numerators over the component's one denominator (``_Context.scaled``),
    must satisfy every premise conjunct of the component, its constants
    scaled once per component (``_scaled_premise``).  No ``Fraction`` is
    built per class: rationals stay in ``gamma`` and in the model's legend.
    """
    ctx = desc.ctx
    for cl in cs.clauses:
        plan = _plan(ctx, cl)
        if plan is None:
            continue
        cases = _cases(plan, desc.domain, desc.fconst_assign)
        if not cases:
            continue
        parts = []
        for vidx, conjuncts, positions, idxs in _components(plan, cl.lam):
            rows = _component_rows(ctx, vidx, conjuncts, idxs)
            if not rows:
                break  # no point meets this component's premise: the clause holds
            parts.append((positions, rows))
        else:
            for case in cases:
                if all(_falsifiable(desc.table, [case[p] for p in positions], rows)
                       for positions, rows in parts):
                    return False
    return True


def _components(plan: _Plan, lam) -> list[tuple]:
    """The variable-disjoint components of a clause, as (vidx, conjuncts,
    positions, idxs): the component's base variables indexed from 0 in
    clause order, its variable premise conjuncts, the positions of its
    atoms in ``plan.atoms`` and their base indices within the component.

    Two variables share a component when a premise conjunct or an atom
    reads both.  The atoms without base arguments form a component of their
    own, with no variables.
    """
    conjuncts = [c for c in lam if isinstance(c, (VarConst, VarVar, DiffConst))]
    reads = [{plan.vidx[v] for v in constraint_vars(c)} for c in conjuncts]
    groups = [{i} for i in range(len(plan.bvars))]
    for read in reads + [set(a[3]) for a in plan.atoms]:
        if read:
            joined = set().union(*(g for g in groups if g & read))
            groups = [g for g in groups if not g & read] + [joined]
    out = []
    for group in sorted(groups, key=min):
        local = {i: k for k, i in enumerate(sorted(group))}
        positions = [p for p, a in enumerate(plan.atoms) if a[3] and a[3][0] in group]
        out.append((
            {plan.bvars[i]: k for i, k in local.items()},
            [c for c, read in zip(conjuncts, reads) if read & group],
            positions,
            [tuple(local[i] for i in plan.atoms[p][3]) for p in positions],
        ))
    base_free = [p for p, a in enumerate(plan.atoms) if not a[3]]
    if base_free:
        out.append(({}, [], base_free, [()] * len(base_free)))
    return out


def _component_rows(ctx: _Context, vidx, conjuncts, idxs) -> set[tuple]:
    """The distinct rows of one component: for each class of its variables
    ``vidx`` whose representative meets its premise ``conjuncts``, the
    classes of the projections ``idxs``.  ``classify`` reads nothing but
    the numerators, so it runs once per distinct tuple of them."""
    arity = len(vidx)
    d, rep, classify = ctx.scaled(arity)
    scaled = _scaled_premise(ctx, conjuncts, vidx, d)
    classified: dict = {}
    rows = set()
    for cls in ctx.classes(arity, ctx.checks(conjuncts, vidx)):
        nums = rep(cls)
        if not all(
            rel.holds(nums[i] if j is None else nums[i] - nums[j], k)
            for rel, i, j, k in scaled
        ):
            continue
        row = []
        for idx in idxs:
            projected = tuple([nums[i] for i in idx])
            pcls = classified.get(projected)
            if pcls is None:
                pcls = classified[projected] = classify(projected)
            row.append(pcls)
        rows.add(tuple(row))
    return rows


def _falsifiable(table, atoms, rows) -> bool:
    """Whether the table falsifies every atom, as (positive, pred, free
    args), on the classes of some row, in order: each premise atom true and
    each conclusion atom false."""
    return any(
        all(table.get((pred, free_args, pcls), False) != positive
            for (positive, pred, free_args), pcls in zip(atoms, row))
        for row in rows
    )


def _scaled_premise(ctx: _Context, lam, vidx, d: int) -> list[tuple]:
    """The variable conjuncts of a premise as (rel, i, j, k) for
    x_i - x_j rel k on numerators over ``d``: j is None for a bound and k
    is 0 for var-var.  Ground conjuncts are settled per clause
    (``_plan``)."""
    out = []
    for c in lam:
        if isinstance(c, VarConst):
            out.append((c.rel, vidx[c.var], None, scale(c.bound.evaluate(ctx.gamma), d)))
        elif isinstance(c, VarVar):
            out.append((c.rel, vidx[c.var], vidx[c.other], 0))
        elif isinstance(c, DiffConst):
            out.append((c.rel, vidx[c.var], vidx[c.other], scale(c.const, d)))
    return out


# --- naive oracle -----------------------------------------------------------


def naive_decide(cs: ClauseSet, *, atom_budget: int = 16) -> ResultReport:
    """Uniform-interpretation search on a clause set in normal form by
    exhaustive predicate-table enumeration over every nonempty domain
    subset and every free-constant assignment into it, no propositional
    reduction, no class-stream restriction; clause truth comes from
    representative evaluation and classify-after-project.  Test oracle for
    decide; raises NormalFormError as decide does, and NaiveBudgetError
    once a candidate needs more than ``atom_budget`` atoms."""
    t0 = time.perf_counter()
    stats = SolveStats()
    validate_normal_form(cs)
    names = sorted(cs.fconsts)
    try:
        for ctx in _contexts(cs, stats):
            sem = _semantic_clauses(ctx, cs, stats)
            candidates = (
                (domain, dict(zip(names, values)))
                for size in range(1, len(names) + 1)
                for domain in itertools.combinations(names, size)
                for values in itertools.product(domain, repeat=len(names))
            )
            for domain, assign in candidates:
                stats.candidates += 1
                found = _naive_candidate(sem, domain, assign, atom_budget, stats)
                if found is None:
                    continue
                bits, t = found
                table = {atom: bool(t >> b & 1) for atom, b in bits.items()}
                desc = InterpretationDescriptor(ctx, domain, assign, table)
                if not verify_model(cs, desc):
                    raise RuntimeError(
                        "internal error: naive model failed semantic re-verification"
                    )
                return ResultReport(STATUS_SAT, desc, stats)
        return ResultReport(STATUS_UNSAT, None, stats)
    finally:
        stats.wall_ms = int((time.perf_counter() - t0) * 1000)


def _semantic_clauses(ctx: _Context, cs: ClauseSet, stats: SolveStats):
    """Clause truth material, derived semantically per class representative."""
    out = []
    for cl in cs.clauses:
        bvars = cl.base_vars()
        stream = list(ctx.classes(len(bvars)))
        stats.classes += len(stream)
        rows = []
        for cls in stream:
            base = dict(zip(bvars, ctx.rep(cls)))
            if not all(eval_constraint(c, base, ctx.gamma) for c in cl.lam):
                continue
            atoms = []
            for sign, part in ((-1, cl.gamma), (1, cl.delta)):
                for a in part:
                    if isinstance(a, Equation):
                        continue
                    vals = tuple(base[v] for v in a.base_args)
                    atoms.append((sign, a.pred, a.free_args, ctx.classify(vals)))
            rows.append(tuple(atoms))
        rows = list(dict.fromkeys(rows))
        if not rows:
            continue
        eq_neg = tuple(a for a in cl.gamma if isinstance(a, Equation))
        eq_pos = tuple(a for a in cl.delta if isinstance(a, Equation))
        out.append((cl.free_vars(), eq_neg, eq_pos, rows))
    return out


def _naive_candidate(sem, domain, assign, atom_budget, stats):
    """Exhaustive table search for one candidate; (bits, table) or None."""
    bits: dict[PropAtom, int] = {}
    masks: set[tuple[int, int]] = set()
    for fvars, eq_neg, eq_pos, rows in sem:
        for env_vals in itertools.product(domain, repeat=len(fvars)):
            env = dict(zip(fvars, env_vals))

            def res(t: FreeTerm) -> str:
                return assign[t.name] if t.is_const else env[t.name]

            if any(res(e.left) != res(e.right) for e in eq_neg):
                continue
            if any(res(e.left) == res(e.right) for e in eq_pos):
                continue
            for row in rows:
                neg = pos = 0
                for sign, pred, fts, cls in row:
                    atom = PropAtom(pred, tuple(res(t) for t in fts), cls)
                    b = bits.setdefault(atom, len(bits))
                    if len(bits) > atom_budget:
                        raise NaiveBudgetError(
                            f"naive oracle needs {len(bits)} atoms, budget {atom_budget}",
                            stats,
                        )
                    if sign < 0:
                        neg |= 1 << b
                    else:
                        pos |= 1 << b
                if not neg & pos:
                    masks.add((neg, pos))
    if (0, 0) in masks:
        return None
    for t in range(1 << len(bits)):
        if all((t & neg) != neg or (t & pos) for neg, pos in masks):
            return bits, t
    return None
