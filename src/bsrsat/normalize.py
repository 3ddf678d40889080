"""Normal-form transformation for the two clause fragments.

The pipeline pads predicates to a uniform sort, scales difference-bound
constants to integers, eliminates variables that occur only in the
constraint part (Fourier-Motzkin, with disequations split into clause
copies), names compound ground terms through definitional Skolem clauses,
renames clauses apart, and guarantees at least one free constant.  The
result is equisatisfiable with the input and satisfies the normal-form
invariants checked by ``validate_normal_form``.

Each check runs once, where its input enters: ``normalize`` validates the
clause set it is given and refuses any mode but ``slr`` and ``bd``, and
``decide`` and ``naive_decide`` run ``validate_normal_form`` on the set
they receive.  That function is the deciders' whole contract: they rely on
nothing it does not enforce (an ``slr`` or ``bd`` set, at least one free
constant, no constraint-only variable, ...).  Delay equations (x' = x + z)
are rejected there too: ``ClauseSet.validate`` admits them in ``folla``
mode only, so no step here meets one.  Automata and reachability goals are
checked in ``timed`` before they are encoded.  ``normalize`` does not
re-check its own output; the tests run that check over generated sets.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from .linarith import GroundSystem, fm_project
from .terms import (
    MODE_BD,
    MODE_SLR,
    Clause,
    ClauseSet,
    Constraint,
    DiffConst,
    Equation,
    FragmentError,
    FreeTerm,
    GroundCmp,
    GroundTerm,
    PredAtom,
    Relation,
    SkolemDef,
    VarConst,
    VarVar,
    atom_base_vars,
    atom_free_vars,
    constraint_vars,
    rename_constraint,
)

_VAR_MARK = "#"  # prefix marking clause variables inside FM ground terms

SKOLEM_PREFIX = "_sk"
VAR_PREFIX = "_v"
FCONST_PREFIX = "_fc"


class NormalFormError(ValueError):
    """The clause set violates a normal-form invariant."""


# --- padding ---------------------------------------------------------------


def pad_predicates(cs: ClauseSet) -> ClauseSet:
    """Give every predicate the maximal sort S^mf x R^mb.

    Each atom occurrence is padded with one fresh variable per sort,
    repeated across all the new positions of that occurrence.
    """
    if not cs.signature:
        return _copy(cs)
    mf = max(a for a, _ in cs.signature.values())
    mb = max(b for _, b in cs.signature.values())
    if all((a, b) == (mf, mb) for a, b in cs.signature.values()):
        return _copy(cs)
    counter = _FreshNames(VAR_PREFIX, _used_names(cs))
    clauses = []
    for cl in cs.clauses:
        gamma = [_pad_atom(a, cs.signature, mf, mb, counter) for a in cl.gamma]
        delta = [_pad_atom(a, cs.signature, mf, mb, counter) for a in cl.delta]
        clauses.append(Clause.make(cl.lam, gamma, delta))
    signature = {p: (mf, mb) for p in cs.signature}
    return ClauseSet(cs.mode, clauses, signature, list(cs.fconsts), list(cs.skolems))


def _pad_atom(atom, signature, mf: int, mb: int, counter: "_FreshNames"):
    if isinstance(atom, Equation):
        return atom
    pf, pb = signature[atom.pred]
    free = atom.free_args
    base = atom.base_args
    if pf < mf:
        v = counter.next()
        free = free + (FreeTerm(v, False),) * (mf - pf)
    if pb < mb:
        v = counter.next()
        base = base + (v,) * (mb - pb)
    return PredAtom(atom.pred, free, base)


# --- scaling ---------------------------------------------------------------


def scale_to_integers(cs: ClauseSet) -> ClauseSet:
    """Multiply all difference-bound constants by the least common multiple
    of their denominators; satisfiability is preserved by rescaling models."""
    if cs.mode != MODE_BD:
        raise FragmentError("scaling applies to bd mode only")
    denoms = [q.denominator for q in cs.rationals()]
    scale = math.lcm(*denoms) if denoms else 1
    if scale == 1:
        return _copy(cs)
    clauses = []
    for cl in cs.clauses:
        lam = [_scale_constraint(c, scale) for c in cl.lam]
        clauses.append(Clause.make(lam, cl.gamma, cl.delta))
    return ClauseSet(cs.mode, clauses, dict(cs.signature), list(cs.fconsts), list(cs.skolems))


def _scale_constraint(c: Constraint, scale: int) -> Constraint:
    if isinstance(c, VarConst):
        return VarConst(c.var, c.rel, c.bound.scale(scale))
    if isinstance(c, DiffConst):
        return DiffConst(c.var, c.other, c.rel, c.const * scale)
    if isinstance(c, GroundCmp):
        return GroundCmp(c.left.scale(scale), c.rel, c.right.scale(scale))
    if isinstance(c, VarVar):
        return c
    raise FragmentError(f"cannot scale constraint {c}")


# --- constraint-only variable elimination ----------------------------------


def eliminate_constraint_only_vars(cs: ClauseSet) -> ClauseSet:
    """Project out variables that occur in constraints but in no atom.

    Disequations over such variables split the clause in two (premise-side
    disjunction), then each copy goes through exact Fourier-Motzkin.  Clauses
    whose constraint part becomes unsatisfiable are dropped (they hold
    vacuously); tautological residue constraints are folded away.
    """
    clauses: list[Clause] = []
    for cl in cs.clauses:
        clauses.extend(_eliminate_clause(cl, cs.mode))
    deduped = list(dict.fromkeys(clauses))
    return ClauseSet(cs.mode, deduped, dict(cs.signature), list(cs.fconsts), list(cs.skolems))


def _eliminate_clause(cl: Clause, mode: str) -> list[Clause]:
    atom_vars = set()
    for a in cl.gamma + cl.delta:
        atom_vars.update(atom_base_vars(a))
    elim: list[str] = []
    for c in cl.lam:
        for v in constraint_vars(c):
            if v not in atom_vars and v not in elim:
                elim.append(v)
    if not elim:
        return [cl]
    out: list[Clause] = []
    for lam in _split_disequations(list(cl.lam), set(elim)):
        reduced = _project_vars(lam, elim, mode)
        if reduced is not None:
            out.append(Clause.make(reduced, cl.gamma, cl.delta))
    return out


def _split_disequations(lam: list[Constraint], elim: set[str]) -> list[list[Constraint]]:
    for i, c in enumerate(lam):
        if _is_var_neq(c) and set(constraint_vars(c)) & elim:
            lo = lam[:i] + [replace(c, rel=Relation.LT)] + lam[i + 1 :]
            hi = lam[:i] + [replace(c, rel=Relation.GT)] + lam[i + 1 :]
            return _split_disequations(lo, elim) + _split_disequations(hi, elim)
    return [lam]


def _is_var_neq(c: Constraint) -> bool:
    return isinstance(c, (VarConst, VarVar, DiffConst)) and c.rel is Relation.NEQ


def _mark(var: str) -> GroundTerm:
    return GroundTerm.skolem(_VAR_MARK + var)


def _encode_constraint(c: Constraint) -> tuple[GroundTerm, Relation, GroundTerm] | None:
    """Constraint as a ground comparison with clause variables marked."""
    if isinstance(c, VarConst):
        return _mark(c.var), c.rel, c.bound
    if isinstance(c, VarVar):
        return _mark(c.var), c.rel, _mark(c.other)
    if isinstance(c, DiffConst):
        return _mark(c.var).sub(_mark(c.other)), c.rel, GroundTerm.constant(c.const)
    if isinstance(c, GroundCmp):
        return c.left, c.rel, c.right
    return None  # SkolemDef: variable-free, reattached verbatim


def _project_vars(lam: list[Constraint], elim: list[str], mode: str) -> list[Constraint] | None:
    kept: list[Constraint] = []
    sys = GroundSystem()
    for c in lam:
        enc = _encode_constraint(c)
        if enc is None:
            kept.append(c)
        else:
            sys.add(*enc)
    for v in elim:
        sys = fm_project(sys, _VAR_MARK + v)
    for left, rel, right in sys.constraints:
        dec = _decode_constraint(left, rel, right, mode)
        if dec is _VALID:
            continue
        if dec is _UNSAT:
            return None
        kept.append(dec)
    return kept


_VALID = object()
_UNSAT = object()


def _decode_constraint(left: GroundTerm, rel: Relation, right: GroundTerm, mode: str):
    e = left.sub(right)
    vars_part = {n[len(_VAR_MARK) :]: q for n, q in e.coeffs if n.startswith(_VAR_MARK)}
    ground = GroundTerm.make(
        e.offset, {n: q for n, q in e.coeffs if not n.startswith(_VAR_MARK)}
    )
    if not vars_part:
        if ground.is_rational:
            return _VALID if rel.holds(ground.offset, Fraction(0)) else _UNSAT
        return GroundCmp(GroundTerm.make(0, dict(ground.coeffs)), rel, GroundTerm.constant(-ground.offset))
    if len(vars_part) == 1:
        (x, a), = vars_part.items()
        rel2 = rel if a > 0 else rel.flip()
        return VarConst(x, rel2, ground.scale(Fraction(-1, 1) / a))
    if len(vars_part) == 2:
        (x, a), (y, b) = sorted(vars_part.items())
        if a + b != 0:
            raise FragmentError(f"elimination left a non-difference constraint on {x}, {y}")
        if a < 0:
            x, y, a, b = y, x, b, a
        const = ground.scale(Fraction(-1, 1) / a)
        if not const.is_rational:
            raise FragmentError(f"difference of {x}, {y} bounded by a non-constant term")
        if const.offset == 0:
            return VarVar(x, rel, y)
        if mode != MODE_BD:
            raise FragmentError("elimination would need a difference constraint outside bd mode")
        return DiffConst(x, y, rel, const.offset)
    raise FragmentError("elimination left a constraint over three or more variables")


# --- ground-term naming ----------------------------------------------------


def split_ground_terms(cs: ClauseSet) -> ClauseSet:
    """Name every compound ground term with a definitional Skolem constant.

    The result lists the definitional clauses first (existing ones, then
    fresh ones), then the rewritten core clauses.  Structurally equal terms
    share one name.
    """
    defs = cs.def_clauses()
    skolems = list(cs.skolems)
    counter = _FreshNames(SKOLEM_PREFIX, set(skolems))
    by_term: dict[GroundTerm, str] = {}
    for cl in defs:
        d = cl.lam[0]
        by_term.setdefault(d.term, d.skolem)

    def name_of(t: GroundTerm) -> GroundTerm:
        if t.is_constant_ref:
            return t
        if t not in by_term:
            fresh = counter.next()
            by_term[t] = fresh
            skolems.append(fresh)
            defs.append(Clause.make([SkolemDef(fresh, t)], [], []))
        return GroundTerm.skolem(by_term[t])

    core: list[Clause] = []
    for cl in cs.clauses:
        if cl.is_def_clause():
            continue
        lam = []
        for c in cl.lam:
            if isinstance(c, VarConst):
                lam.append(VarConst(c.var, c.rel, name_of(c.bound)))
            elif isinstance(c, GroundCmp):
                lam.append(GroundCmp(name_of(c.left), c.rel, name_of(c.right)))
            elif isinstance(c, SkolemDef):
                lam.append(GroundCmp(GroundTerm.skolem(c.skolem), Relation.NEQ, name_of(c.term)))
            else:
                lam.append(c)
        core.append(Clause.make(lam, cl.gamma, cl.delta))
    return ClauseSet(cs.mode, defs + core, dict(cs.signature), list(cs.fconsts), skolems)


# --- renaming and assembly -------------------------------------------------


class _FreshNames:
    def __init__(self, prefix: str, used: set[str]):
        self.prefix = prefix
        self.used = set(used)
        self.n = 0

    def next(self) -> str:
        while True:
            name = f"{self.prefix}{self.n}"
            self.n += 1
            if name not in self.used:
                self.used.add(name)
                return name


def _used_names(cs: ClauseSet) -> set[str]:
    used = set(cs.fconsts) | set(cs.skolems) | set(cs.signature)
    for cl in cs.clauses:
        used.update(cl.base_vars())
        used.update(cl.free_vars())
    return used


def _copy(cs: ClauseSet) -> ClauseSet:
    return ClauseSet(cs.mode, list(cs.clauses), dict(cs.signature), list(cs.fconsts), list(cs.skolems))


def rename_apart(cs: ClauseSet) -> ClauseSet:
    """Give every clause its own disjoint variable names (_v0, _v1, ...).

    Definitional clauses have no variables and come out unchanged."""
    counter = _FreshNames(VAR_PREFIX, set(cs.fconsts) | set(cs.skolems) | set(cs.signature))
    clauses = []
    for cl in cs.clauses:
        mapping: dict[str, str] = {}
        for v in cl.base_vars() + cl.free_vars():
            if v not in mapping:
                mapping[v] = counter.next()
        clauses.append(_rename_clause(cl, mapping))
    return ClauseSet(cs.mode, clauses, dict(cs.signature), list(cs.fconsts), list(cs.skolems))


def _rename_clause(cl: Clause, mapping: dict[str, str]) -> Clause:
    def rv(v: str) -> str:
        return mapping.get(v, v)

    lam = [rename_constraint(c, rv) for c in cl.lam]

    def ra(a):
        if isinstance(a, Equation):
            return Equation(_rt(a.left, rv), _rt(a.right, rv))
        return PredAtom(a.pred, tuple(_rt(t, rv) for t in a.free_args), tuple(rv(v) for v in a.base_args))

    return Clause.make(lam, [ra(a) for a in cl.gamma], [ra(a) for a in cl.delta])


def _rt(t: FreeTerm, rv) -> FreeTerm:
    return t if t.is_const else FreeTerm(rv(t.name), False)


def normalize(cs: ClauseSet) -> ClauseSet:
    """Full pipeline; the result is equisatisfiable and in normal form.

    Validates its argument only: the deciders check the normal form when
    they receive it."""
    cs.validate()
    if cs.mode not in (MODE_SLR, MODE_BD):
        raise FragmentError(f"cannot normalize mode {cs.mode!r}")
    out = pad_predicates(cs)
    if cs.mode == MODE_BD:
        out = scale_to_integers(out)
    out = eliminate_constraint_only_vars(out)
    if cs.mode == MODE_SLR:
        out = split_ground_terms(out)
    out = rename_apart(out)
    if not out.fconsts:
        out.fconsts.append(_FreshNames(FCONST_PREFIX, _used_names(out)).next())
    return out


# --- validation ------------------------------------------------------------


def validate_normal_form(cs: ClauseSet) -> None:
    """Check the normal-form invariants, the one contract of ``decide`` and
    ``naive_decide``: a valid ``slr`` or ``bd`` set with at least one free
    constant, and on every clause that is not definitional
    (``Clause.is_def_clause``) no Skolem definition, only constant
    references as ground terms, no constraint-only variable, integer
    constants in ``bd``, and variables of its own."""
    cs.validate()
    if cs.mode not in (MODE_SLR, MODE_BD):
        raise NormalFormError(f"normal form requires mode slr or bd, not {cs.mode!r}")
    if not cs.fconsts:
        raise NormalFormError("normal form requires at least one free constant")
    seen_vars: set[str] = set()
    for cl in cs.clauses:
        if cl.is_def_clause():
            continue
        atom_vars = set()
        for a in cl.gamma + cl.delta:
            atom_vars.update(atom_base_vars(a))
        for c in cl.lam:
            if isinstance(c, SkolemDef):
                raise NormalFormError(f"definitional constraint in a core clause: {c}")
            if isinstance(c, GroundCmp):
                if not (c.left.is_constant_ref and c.right.is_constant_ref):
                    raise NormalFormError(f"compound ground comparison remains: {c}")
            if isinstance(c, VarConst) and not c.bound.is_constant_ref:
                raise NormalFormError(f"compound variable bound remains: {c}")
            for v in constraint_vars(c):
                if v not in atom_vars:
                    raise NormalFormError(f"constraint-only variable {v!r} remains in {cl}")
        if cs.mode == MODE_BD:
            for q in cl.rationals():
                if q.denominator != 1:
                    raise NormalFormError(f"non-integer constant remains: {q}")
        cl_vars = set(cl.base_vars()) | {v for a in cl.gamma + cl.delta for v in atom_free_vars(a)}
        if cl_vars & seen_vars:
            raise NormalFormError(f"clauses share variables: {sorted(cl_vars & seen_vars)}")
        seen_vars |= cl_vars
