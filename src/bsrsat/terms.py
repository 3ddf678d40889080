"""Core syntax for BSR clause sets with linear real constraints.

A clause is written ``lambda || gamma -> delta`` and is read as the
universally quantified implication ``(/\\ lambda /\\ gamma) -> \\/ delta``.
The constraint part ``lambda`` compares base-sort (real) variables against
rational or Skolem constants; ``gamma`` and ``delta`` hold free-sort atoms:
predicate atoms and equations between free-sort terms.

All arithmetic is exact: rationals are ``fractions.Fraction`` and floats are
rejected everywhere at construction time.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

RationalLike = Union[int, str, Fraction]


class FloatRejectedError(TypeError):
    pass


class UnboundSymbolError(KeyError):
    """Raised when evaluation meets a symbol with no assigned value."""


def rat(x: RationalLike) -> Fraction:
    """Coerce to an exact rational, rejecting floats outright."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise FloatRejectedError(f"floats are not allowed, got {x!r}")
    return Fraction(x)


_OPERATORS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}


class Relation(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    NEQ = "!="
    GE = ">="
    GT = ">"

    def __init__(self, symbol: str):
        # ``rel.holds(a, b)`` is whether a rel b: the relation's own
        # ``operator`` function, called directly, with no dispatch on rel.
        self.holds = _OPERATORS[symbol]

    def flip(self) -> "Relation":
        """Relation seen from the right-hand side: a R b iff b flip(R) a."""
        return _FLIP[self]


_FLIP = {
    Relation.LT: Relation.GT,
    Relation.LE: Relation.GE,
    Relation.EQ: Relation.EQ,
    Relation.NEQ: Relation.NEQ,
    Relation.GE: Relation.LE,
    Relation.GT: Relation.LT,
}


@dataclass(frozen=True, order=True)
class GroundTerm:
    """Linear combination of Skolem constants plus a rational offset.

    coeffs is sorted by Skolem name and never contains zero coefficients,
    so structurally equal terms compare equal.
    """

    offset: Fraction
    coeffs: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def make(offset: RationalLike = 0, coeffs: Mapping[str, RationalLike] | None = None) -> "GroundTerm":
        cs = []
        for name, c in sorted((coeffs or {}).items()):
            c = rat(c)
            if c != 0:
                cs.append((name, c))
        return GroundTerm(rat(offset), tuple(cs))

    @staticmethod
    def constant(q: RationalLike) -> "GroundTerm":
        return GroundTerm(rat(q), ())

    @staticmethod
    def skolem(name: str) -> "GroundTerm":
        return GroundTerm(Fraction(0), ((name, Fraction(1)),))

    @property
    def is_rational(self) -> bool:
        return not self.coeffs

    @property
    def is_skolem(self) -> bool:
        return self.offset == 0 and len(self.coeffs) == 1 and self.coeffs[0][1] == 1

    @property
    def is_constant_ref(self) -> bool:
        """A bare rational literal or a bare Skolem constant."""
        return self.is_rational or self.is_skolem

    def skolems(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    def evaluate(self, gamma: Mapping[str, Fraction]) -> Fraction:
        v = self.offset
        for name, c in self.coeffs:
            if name not in gamma:
                raise UnboundSymbolError(f"Skolem constant {name!r} has no value")
            v += c * gamma[name]
        return v

    def scale(self, k: RationalLike) -> "GroundTerm":
        k = rat(k)
        return GroundTerm.make(self.offset * k, {n: c * k for n, c in self.coeffs})

    def sub(self, other: "GroundTerm") -> "GroundTerm":
        d = dict(self.coeffs)
        for n, c in other.coeffs:
            d[n] = d.get(n, Fraction(0)) - c
        return GroundTerm.make(self.offset - other.offset, d)

    def __str__(self) -> str:
        parts: list[str] = []
        for n, c in self.coeffs:
            if c == 1:
                t = n
            elif c == -1:
                t = f"-{n}"
            else:
                t = f"{c}*{n}"
            if parts and not t.startswith("-"):
                parts.append(f"+ {t}")
            elif parts:
                parts.append(f"- {t[1:]}")
            else:
                parts.append(t)
        if self.offset != 0 or not parts:
            s = str(self.offset)
            if parts and self.offset > 0:
                parts.append(f"+ {s}")
            elif parts:
                parts.append(f"- {-self.offset}")
            else:
                parts.append(s)
        return " ".join(parts)


# --- constraints -----------------------------------------------------------


@dataclass(frozen=True)
class VarConst:
    """x rel b where b is a rational constant or (SLR only) a Skolem constant."""

    var: str
    rel: Relation
    bound: GroundTerm

    def __str__(self) -> str:
        return f"{self.var} {self.rel.value} {self.bound}"


@dataclass(frozen=True)
class VarVar:
    var: str
    rel: Relation
    other: str

    def __str__(self) -> str:
        return f"{self.var} {self.rel.value} {self.other}"


@dataclass(frozen=True)
class DiffConst:
    """x - y rel c (bounded-difference mode only)."""

    var: str
    other: str
    rel: Relation
    const: Fraction

    def __str__(self) -> str:
        return f"{self.var} - {self.other} {self.rel.value} {self.const}"


@dataclass(frozen=True)
class GroundCmp:
    """Comparison between two ground terms (no clause variables)."""

    left: GroundTerm
    rel: Relation
    right: GroundTerm

    def __str__(self) -> str:
        return f"{self.left} {self.rel.value} {self.right}"


@dataclass(frozen=True)
class SkolemDef:
    """Definitional disequation ``def c != t``; used in clauses c != t || -> []."""

    skolem: str
    term: GroundTerm

    def __str__(self) -> str:
        return f"def {self.skolem} != {self.term}"


@dataclass(frozen=True)
class DeltaEq:
    """new = old + delta; only appears in the intermediate timed encoding."""

    new: str
    old: str
    delta: str

    def __str__(self) -> str:
        return f"{self.new} = {self.old} + {self.delta}"


Constraint = Union[VarConst, VarVar, DiffConst, GroundCmp, SkolemDef, DeltaEq]


def constraint_vars(c: Constraint) -> tuple[str, ...]:
    """Base-sort variables of a constraint, in occurrence order."""
    if isinstance(c, VarConst):
        return (c.var,)
    if isinstance(c, VarVar):
        return (c.var, c.other) if c.var != c.other else (c.var,)
    if isinstance(c, DiffConst):
        return (c.var, c.other) if c.var != c.other else (c.var,)
    if isinstance(c, DeltaEq):
        return tuple(dict.fromkeys((c.new, c.old, c.delta)))
    return ()


def rename_constraint(c: Constraint, rename: Callable[[str], str]) -> Constraint:
    """A bound, comparison or difference with each variable v replaced by
    rename(v); any other constraint is returned as it is."""
    if isinstance(c, VarConst):
        return VarConst(rename(c.var), c.rel, c.bound)
    if isinstance(c, VarVar):
        return VarVar(rename(c.var), c.rel, rename(c.other))
    if isinstance(c, DiffConst):
        return DiffConst(rename(c.var), rename(c.other), c.rel, c.const)
    return c


def constraint_skolems(c: Constraint) -> frozenset[str]:
    if isinstance(c, VarConst):
        return c.bound.skolems()
    if isinstance(c, GroundCmp):
        return c.left.skolems() | c.right.skolems()
    if isinstance(c, SkolemDef):
        return frozenset({c.skolem}) | c.term.skolems()
    return frozenset()


def constraint_rationals(c: Constraint) -> frozenset[Fraction]:
    """Rational constants a variable or constant is compared against."""
    if isinstance(c, VarConst) and c.bound.is_rational:
        return frozenset({c.bound.offset})
    if isinstance(c, DiffConst):
        return frozenset({c.const})
    if isinstance(c, GroundCmp):
        out = set()
        for side in (c.left, c.right):
            if side.is_rational:
                out.add(side.offset)
        return frozenset(out)
    return frozenset()


def eval_constraint(
    c: Constraint,
    base: Mapping[str, Fraction],
    gamma: Mapping[str, Fraction] | None = None,
) -> bool:
    """Truth of a single constraint under a base-variable assignment and gamma."""
    gamma = gamma or {}

    def val(v: str) -> Fraction:
        if v not in base:
            raise UnboundSymbolError(f"variable {v!r} has no value")
        return base[v]

    if isinstance(c, VarConst):
        return c.rel.holds(val(c.var), c.bound.evaluate(gamma))
    if isinstance(c, VarVar):
        return c.rel.holds(val(c.var), val(c.other))
    if isinstance(c, DiffConst):
        return c.rel.holds(val(c.var) - val(c.other), c.const)
    if isinstance(c, GroundCmp):
        return c.rel.holds(c.left.evaluate(gamma), c.right.evaluate(gamma))
    if isinstance(c, SkolemDef):
        if c.skolem not in gamma:
            raise UnboundSymbolError(f"Skolem constant {c.skolem!r} has no value")
        return gamma[c.skolem] != c.term.evaluate(gamma)
    if isinstance(c, DeltaEq):
        return val(c.new) == val(c.old) + val(c.delta)
    raise TypeError(f"unknown constraint {c!r}")


# --- free-sort atoms -------------------------------------------------------


@dataclass(frozen=True, order=True)
class FreeTerm:
    """A free-sort argument: either a free constant or a free-sort variable."""

    name: str
    is_const: bool

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Equation:
    left: FreeTerm
    right: FreeTerm

    def __str__(self) -> str:
        return f"{self.left} ~ {self.right}"


@dataclass(frozen=True)
class PredAtom:
    """P(free args..., base args...); base arguments are always variables."""

    pred: str
    free_args: tuple[FreeTerm, ...]
    base_args: tuple[str, ...]

    def __str__(self) -> str:
        args = [str(a) for a in self.free_args] + list(self.base_args)
        return f"{self.pred}({', '.join(args)})"


FreeAtom = Union[Equation, PredAtom]


def atom_free_vars(a: FreeAtom) -> tuple[str, ...]:
    terms = (a.left, a.right) if isinstance(a, Equation) else a.free_args
    return tuple(dict.fromkeys(t.name for t in terms if not t.is_const))


def atom_base_vars(a: FreeAtom) -> tuple[str, ...]:
    if isinstance(a, Equation):
        return ()
    return tuple(dict.fromkeys(a.base_args))


# --- clauses ---------------------------------------------------------------


_REL_KEY = {r: i for i, r in enumerate(Relation)}  # declaration order


def _term_key(t: GroundTerm):
    return (t.offset, t.coeffs)


def constraint_sort_key(c: Constraint):
    if isinstance(c, VarConst):
        return (0, c.var, _REL_KEY[c.rel], _term_key(c.bound))
    if isinstance(c, VarVar):
        return (1, c.var, _REL_KEY[c.rel], c.other)
    if isinstance(c, DiffConst):
        return (2, c.var, c.other, _REL_KEY[c.rel], c.const)
    if isinstance(c, GroundCmp):
        return (3, _term_key(c.left), _REL_KEY[c.rel], _term_key(c.right))
    if isinstance(c, SkolemDef):
        return (4, c.skolem, _term_key(c.term))
    return (5, c.new, c.old, c.delta)


def atom_sort_key(a: FreeAtom):
    if isinstance(a, Equation):
        return (0, a.left, a.right)
    return (1, a.pred, a.free_args, a.base_args)


@dataclass(frozen=True)
class Clause:
    """lambda || gamma -> delta with parts kept as canonically sorted tuples.

    Duplicates are preserved (the parts are multisets); sorting only fixes a
    canonical order so that structural equality is meaningful.
    """

    lam: tuple[Constraint, ...]
    gamma: tuple[FreeAtom, ...]
    delta: tuple[FreeAtom, ...]

    @staticmethod
    def make(
        lam: Iterable[Constraint] = (),
        gamma: Iterable[FreeAtom] = (),
        delta: Iterable[FreeAtom] = (),
    ) -> "Clause":
        return Clause(
            tuple(sorted(lam, key=constraint_sort_key)),
            tuple(sorted(gamma, key=atom_sort_key)),
            tuple(sorted(delta, key=atom_sort_key)),
        )

    def base_vars(self) -> tuple[str, ...]:
        """Base-sort variables in first-occurrence order over lam, gamma, delta."""
        vs = [v for c in self.lam for v in constraint_vars(c)]
        vs += [v for a in self.gamma + self.delta for v in atom_base_vars(a)]
        return tuple(dict.fromkeys(vs))

    def free_vars(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(v for a in self.gamma + self.delta for v in atom_free_vars(a)))

    def rationals(self) -> frozenset[Fraction]:
        s: frozenset[Fraction] = frozenset()
        for c in self.lam:
            s |= constraint_rationals(c)
        return s

    def is_def_clause(self) -> bool:
        return (
            len(self.lam) == 1
            and isinstance(self.lam[0], SkolemDef)
            and not self.gamma
            and not self.delta
        )

    def __str__(self) -> str:
        lam = "; ".join(str(c) for c in self.lam)
        gam = "; ".join(str(a) for a in self.gamma)
        dlt = "; ".join(str(a) for a in self.delta)
        return f"[{lam}] [{gam}] -> [{dlt}]"


def _two_sided(lam: Iterable[Constraint]) -> set[str]:
    """Variables with both a lower and an upper rational bound in ``lam``;
    every x - y cmp c of a bd clause needs both on x and on y."""
    lower: set[str] = set()
    upper: set[str] = set()
    for c in lam:
        if isinstance(c, VarConst) and c.bound.is_rational:
            if c.rel in (Relation.GE, Relation.GT, Relation.EQ):
                lower.add(c.var)
            if c.rel in (Relation.LE, Relation.LT, Relation.EQ):
                upper.add(c.var)
    return lower & upper


class SortDisciplineError(ValueError):
    pass


class GuardViolationError(ValueError):
    """A difference constraint lacks the required two-sided variable bounds."""


class FragmentError(ValueError):
    pass


MODE_SLR = "slr"
MODE_BD = "bd"
MODE_FOLLA = "folla"  # intermediate timed encoding; not decidable directly


@dataclass
class ClauseSet:
    mode: str
    clauses: list[Clause] = field(default_factory=list)
    signature: dict[str, tuple[int, int]] = field(default_factory=dict)
    fconsts: list[str] = field(default_factory=list)
    skolems: list[str] = field(default_factory=list)

    def rationals(self) -> set[Fraction]:
        out: set[Fraction] = set()
        for cl in self.clauses:
            out |= cl.rationals()
        return out

    def def_clauses(self) -> list[Clause]:
        return [c for c in self.clauses if c.is_def_clause()]

    def validate(self) -> None:
        """Check sort discipline, arities, the difference-bound guard, and
        that delay equations occur in ``folla`` mode only."""
        if self.mode not in (MODE_SLR, MODE_BD, MODE_FOLLA):
            raise FragmentError(f"unknown mode {self.mode!r}")
        if self.mode in (MODE_BD, MODE_FOLLA) and self.skolems:
            raise FragmentError("Skolem constants are not allowed in bd mode")
        declared = set(self.skolems)
        for cl in self.clauses:
            self._validate_clause(cl, declared)

    def _validate_clause(self, cl: Clause, declared_sk: set[str]) -> None:
        base = set(cl.base_vars())
        bounded: set[str] | None = None  # built at the clause's first guarded x - y
        for c in cl.lam:
            if isinstance(c, DeltaEq) and self.mode != MODE_FOLLA:
                raise FragmentError(f"delay equation {c} is allowed in folla mode only")
            if isinstance(c, DiffConst) and self.mode == MODE_SLR:
                raise FragmentError(f"difference constraint {c} is not allowed in slr mode")
            if isinstance(c, (GroundCmp, SkolemDef)) and self.mode in (MODE_BD, MODE_FOLLA):
                for sk in constraint_skolems(c):
                    raise FragmentError(f"Skolem constant {sk!r} in bd mode")
            if isinstance(c, VarConst) and not c.bound.is_constant_ref:
                if self.mode != MODE_SLR:
                    raise FragmentError(f"compound bound {c.bound} outside slr mode")
            for sk in constraint_skolems(c):
                if sk not in declared_sk:
                    raise SortDisciplineError(f"undeclared Skolem constant {sk!r}")
            if isinstance(c, DiffConst) and c.var != c.other and self.mode == MODE_BD:
                if bounded is None:
                    bounded = _two_sided(cl.lam)
                for v in (c.var, c.other):
                    if v not in bounded:
                        raise GuardViolationError(
                            f"difference constraint {c} needs two-sided bounds on {v!r}"
                        )
        for a in cl.gamma + cl.delta:
            if isinstance(a, PredAtom):
                if a.pred not in self.signature:
                    raise SortDisciplineError(f"undeclared predicate {a.pred!r}")
                mf, mb = self.signature[a.pred]
                if len(a.free_args) != mf or len(a.base_args) != mb:
                    raise SortDisciplineError(
                        f"{a.pred} expects S^{mf} R^{mb}, got {a}"
                    )
                for t in a.free_args:
                    if t.is_const and t.name not in self.fconsts:
                        raise SortDisciplineError(f"undeclared free constant {t.name!r}")
                    if not t.is_const and t.name in base:
                        raise SortDisciplineError(
                            f"{t.name!r} used at both sorts in {a}"
                        )
                for v in a.base_args:
                    if not isinstance(v, str):
                        raise FragmentError(f"non-variable base argument {v!r} in {a.pred}")
                    if v in self.fconsts or v in declared_sk:
                        raise SortDisciplineError(
                            f"base positions take variables only, got {v!r} in {a}"
                        )
            else:
                for t in (a.left, a.right):
                    if t.is_const and t.name not in self.fconsts:
                        raise SortDisciplineError(f"undeclared free constant {t.name!r}")
