"""Normal-form transformation for the two clause fragments.

The pipeline pads predicates to a uniform sort, scales difference-bound
constants to integers, eliminates variables that occur only in the
constraint part (Fourier-Motzkin, with disequations split into clause
copies), names compound ground terms through definitional Skolem clauses,
renames clauses apart, and guarantees at least one free constant.  The
result is equisatisfiable with the input and satisfies the normal-form
invariants checked by ``validate_normal_form``.

Each stage returns a new ``ClauseSet``, derived with ``_replace``, and
writes nothing into the set it is given.  A stage that has nothing to change
(``pad_predicates`` on a uniform signature, ``scale_to_integers`` on integer
constants) returns its input itself.  Each stage also rebuilds only the
clauses it changes and returns the others as they are, the same objects:
``pad_predicates`` a clause with no atom to pad, ``scale_to_integers`` a
clause without constants,
``eliminate_constraint_only_vars`` a clause with no constraint-only variable
(it still drops a repeated clause), ``split_ground_terms`` a core clause with
no compound term and no Skolem definition, and ``rename_apart`` a clause
without variables.  ``rename_apart`` builds each renamed clause once.  The
stages read a clause's variables from ``Clause.shape``, which is found once
per clause and kept with it.

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
        return cs
    mf = max(a for a, _ in cs.signature.values())
    mb = max(b for _, b in cs.signature.values())
    if all((a, b) == (mf, mb) for a, b in cs.signature.values()):
        return cs
    counter = _FreshNames(VAR_PREFIX, _used_names(cs))
    short = {p: sort for p, sort in cs.signature.items() if sort != (mf, mb)}
    clauses = []
    for cl in cs.clauses:
        if not any(type(a) is PredAtom and a.pred in short for part in (cl.gamma, cl.delta) for a in part):
            clauses.append(cl)
            continue
        gamma = [_pad_atom(a, short, mf, mb, counter) for a in cl.gamma]
        delta = [_pad_atom(a, short, mf, mb, counter) for a in cl.delta]
        clauses.append(cl.with_atoms(gamma, delta))
    return cs._replace(clauses=tuple(clauses), signature={p: (mf, mb) for p in cs.signature})


def _pad_atom(atom, short, mf: int, mb: int, counter: "_FreshNames"):
    """``atom`` padded to S^mf R^mb, or ``atom`` itself when its predicate
    is not one of the ``short`` ones."""
    if type(atom) is not PredAtom or atom.pred not in short:
        return atom
    pf, pb = short[atom.pred]
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
    scale = math.lcm(*{q.denominator for cl in cs.clauses for q in cl.shape.rationals})
    if scale == 1:
        return cs
    clauses = []
    for cl in cs.clauses:
        if cl.shape.rationals:
            lam = [_scale_constraint(c, scale) for c in cl.lam]
            cl = Clause.make(lam, cl.gamma, cl.delta)
        clauses.append(cl)
    return cs._replace(clauses=tuple(clauses))


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
        if cl.shape.only_vars:
            clauses.extend(_eliminate_clause(cl, cs.mode))
        else:
            clauses.append(cl)
    return cs._replace(clauses=_distinct(clauses))


def _distinct(clauses: list[Clause]) -> tuple[Clause, ...]:
    """``clauses`` without repeats, first occurrences kept.  Clauses are
    compared only within groups of the same part lengths and variables:
    hashing a whole clause hashes every constraint, term and atom."""
    groups: dict[tuple, list[Clause]] = {}
    out = []
    for cl in clauses:
        shape = cl.shape
        key = (len(cl.lam), len(cl.gamma), len(cl.delta), shape.base_vars, shape.free_vars)
        group = groups.setdefault(key, [])
        if cl not in group:
            group.append(cl)
            out.append(cl)
    return tuple(out)


def _eliminate_clause(cl: Clause, mode: str) -> list[Clause]:
    elim = list(cl.shape.only_vars)
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


def _encode_constraint(c: VarConst | VarVar | DiffConst) -> tuple[GroundTerm, Relation, GroundTerm]:
    """A bound, comparison or difference as a ground comparison with clause
    variables marked."""
    if isinstance(c, VarConst):
        return _mark(c.var), c.rel, c.bound
    if isinstance(c, VarVar):
        return _mark(c.var), c.rel, _mark(c.other)
    return _mark(c.var).sub(_mark(c.other)), c.rel, GroundTerm.constant(c.const)


def _project_vars(lam: list[Constraint], elim: list[str], mode: str) -> list[Constraint] | None:
    """The conjunction lam with the variables elim projected out, or None
    when it is unsatisfiable.  Only the constraints that mention a variable
    of elim go through Fourier-Motzkin; the others are kept as they are."""
    kept: list[Constraint] = []
    sys = GroundSystem()
    for c in lam:
        if any(v in elim for v in constraint_vars(c)):
            sys.add(*_encode_constraint(c))
        else:
            kept.append(c)
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
    fresh_skolems: list[str] = []
    counter = _FreshNames(SKOLEM_PREFIX, cs.skolems)
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
            fresh_skolems.append(fresh)
            defs.append(Clause.make([SkolemDef(fresh, t)], [], []))
        return GroundTerm.skolem(by_term[t])

    core: list[Clause] = []
    for cl in cs.clauses:
        if cl.shape.core_fault is None:  # no definition, no compound term
            core.append(cl)
            continue
        if cl.is_def_clause():
            continue
        lam = []
        for c in cl.lam:
            if isinstance(c, VarConst) and not c.bound.is_constant_ref:
                c = VarConst(c.var, c.rel, name_of(c.bound))
            elif isinstance(c, GroundCmp) and not (c.left.is_constant_ref and c.right.is_constant_ref):
                c = GroundCmp(name_of(c.left), c.rel, name_of(c.right))
            elif isinstance(c, SkolemDef):
                c = GroundCmp(GroundTerm.skolem(c.skolem), Relation.NEQ, name_of(c.term))
            lam.append(c)
        changed = any(new is not old for new, old in zip(lam, cl.lam))
        core.append(Clause.make(lam, cl.gamma, cl.delta) if changed else cl)
    return cs._replace(clauses=tuple(defs + core), skolems=(*cs.skolems, *fresh_skolems))


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


def rename_apart(cs: ClauseSet) -> ClauseSet:
    """Give every clause its own disjoint variable names (_v0, _v1, ...).

    Definitional clauses have no variables and come out unchanged."""
    counter = _FreshNames(VAR_PREFIX, set(cs.fconsts) | set(cs.skolems) | set(cs.signature))
    clauses = []
    for cl in cs.clauses:
        shape = cl.shape
        if shape.base_vars or shape.free_vars:
            clauses.append(_rename_clause(cl, shape, counter))
        else:
            clauses.append(cl)
    return cs._replace(clauses=tuple(clauses))


def _rename_clause(cl: Clause, shape, counter: "_FreshNames") -> Clause:
    """``cl`` with each variable renamed to the next fresh name, in the
    order of ``shape``, built once."""
    rename = {v: counter.next() for v in shape.base_vars}
    rv = rename.__getitem__
    free = {v: FreeTerm(counter.next(), False) for v in shape.free_vars}
    atoms: tuple[list, list] = ([], [])
    for part, out in zip((cl.gamma, cl.delta), atoms):
        for a in part:
            if isinstance(a, PredAtom):
                args = tuple([t if t.is_const else free[t.name] for t in a.free_args])
                out.append(PredAtom(a.pred, args, tuple(map(rv, a.base_args))))
            else:
                out.append(Equation(*(t if t.is_const else free[t.name] for t in (a.left, a.right))))
    return Clause.make([rename_constraint(c, rv) for c in cl.lam], *atoms)


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
        out = out._replace(fconsts=(_FreshNames(FCONST_PREFIX, _used_names(out)).next(),))
    return out


# --- validation ------------------------------------------------------------


def validate_normal_form(cs: ClauseSet) -> None:
    """Check the normal-form invariants, the one contract of ``decide`` and
    ``naive_decide``: a valid ``slr`` or ``bd`` set with at least one free
    constant, and on every clause that is not definitional
    (``Clause.is_def_clause``) no Skolem definition, only constant
    references as ground terms, no constraint-only variable, integer
    constants in ``bd``, and variables of its own.

    The rules read ``Clause.shape``, which ``cs.validate()`` has found in
    its walk over each clause, so no clause is walked a second time."""
    cs.validate()
    if cs.mode not in (MODE_SLR, MODE_BD):
        raise NormalFormError(f"normal form requires mode slr or bd, not {cs.mode!r}")
    if not cs.fconsts:
        raise NormalFormError("normal form requires at least one free constant")
    seen_vars: set[str] = set()
    for cl in cs.clauses:
        if cl.is_def_clause():
            continue
        shape = cl.shape
        fault = shape.core_fault
        if isinstance(fault, SkolemDef):
            raise NormalFormError(f"definitional constraint in a core clause: {fault}")
        if isinstance(fault, GroundCmp):
            raise NormalFormError(f"compound ground comparison remains: {fault}")
        if isinstance(fault, VarConst):
            raise NormalFormError(f"compound variable bound remains: {fault}")
        if fault is not None:
            raise NormalFormError(f"constraint-only variable {fault!r} remains in {cl}")
        if cs.mode == MODE_BD:
            for q in shape.rationals:
                if q.denominator != 1:
                    raise NormalFormError(f"non-integer constant remains: {q}")
        if not (seen_vars.isdisjoint(shape.base_vars) and seen_vars.isdisjoint(shape.free_vars)):
            shared = seen_vars.intersection(shape.base_vars) | seen_vars.intersection(shape.free_vars)
            raise NormalFormError(f"clauses share variables: {sorted(shared)}")
        seen_vars.update(shape.base_vars, shape.free_vars)
