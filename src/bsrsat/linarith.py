"""Ground linear rational constraint solving via Fourier-Motzkin.

Systems are conjunctions of comparisons between ground terms over Skolem
constants.  solve_ground returns a satisfying assignment or None; witness
extraction back-substitutes through the elimination order with a fixed
selection rule (interval midpoint, bound +/- 1 when one-sided, 0 when
unconstrained) so models are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .terms import GroundTerm, Relation, rat

LinConstraint = tuple[GroundTerm, Relation, GroundTerm]

# internal canonical form: (expr, strict) standing for expr <= 0 / expr < 0
Ineq = tuple[GroundTerm, bool]


@dataclass
class GroundSystem:
    constraints: list[LinConstraint] = field(default_factory=list)

    @property
    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for left, _, right in self.constraints:
            for name in (*left.skolems(), *right.skolems()):
                seen.setdefault(name)
        return list(seen)

    def add(self, left: GroundTerm, rel: Relation, right: GroundTerm) -> None:
        self.constraints.append((left, rel, right))

    def solve(self) -> dict[str, Fraction] | None:
        return solve_ground(self)


def _as_ineqs(left: GroundTerm, rel: Relation, right: GroundTerm) -> list[Ineq]:
    """Rewrite left rel right into <=/< 0 form; disequations are not handled
    here (callers case-split them first)."""
    e = left.sub(right)
    if rel is Relation.LE:
        return [(e, False)]
    if rel is Relation.LT:
        return [(e, True)]
    if rel is Relation.GE:
        return [(e.scale(rat(-1)), False)]
    if rel is Relation.GT:
        return [(e.scale(rat(-1)), True)]
    if rel is Relation.EQ:
        return [(e, False), (e.scale(rat(-1)), False)]
    raise ValueError("disequations must be case-split before FM")


def _coeff(e: GroundTerm, name: str) -> Fraction:
    for n, c in e.coeffs:
        if n == name:
            return c
    return Fraction(0)


def _drop_var(e: GroundTerm, name: str, coeff: Fraction) -> GroundTerm:
    return e.sub(GroundTerm.skolem(name).scale(coeff))


def _combine(low: Ineq, up: Ineq, name: str) -> Ineq:
    """Eliminate name from a pair with negative / positive coefficient."""
    el, sl = low
    eu, su = up
    a = _coeff(eu, name)
    b = _coeff(el, name)
    combined = eu.scale(-b).add(el.scale(a))
    return combined, sl or su


def fm_project(sys: GroundSystem, name: str) -> GroundSystem:
    """One Fourier-Motzkin elimination step.

    The result mentions name nowhere and is satisfiable iff sys is.
    Constraints not involving name pass through verbatim; trivially true or
    false residues (e.g. 1 <= 1) are kept, not folded.
    """
    passthrough: list[LinConstraint] = []
    lowers: list[Ineq] = []
    uppers: list[Ineq] = []
    for left, rel, right in sys.constraints:
        if name not in left.skolems() and name not in right.skolems():
            passthrough.append((left, rel, right))
            continue
        for e, strict in _as_ineqs(left, rel, right):
            a = _coeff(e, name)
            if a == 0:
                passthrough.append(
                    (e, Relation.LT if strict else Relation.LE, GroundTerm.constant(0))
                )
            elif a > 0:
                uppers.append((e, strict))
            else:
                lowers.append((e, strict))
    out = GroundSystem(list(passthrough))
    for low in lowers:
        for up in uppers:
            e, strict = _combine(low, up, name)
            out.add(e, Relation.LT if strict else Relation.LE, GroundTerm.constant(0))
    return out


def _solve_ineqs(ineqs: list[Ineq]) -> dict[str, Fraction] | None:
    """Solve a pure <=/< system; exact FM with recorded elimination steps."""
    current: list[Ineq] = []
    for e, strict in ineqs:
        if e.is_rational:
            if e.offset < 0 or (e.offset == 0 and not strict):
                continue
            return None
        current.append((e, strict))

    names = sorted({n for e, _ in current for n in e.skolems()})
    steps: list[tuple[str, list[Ineq], list[Ineq]]] = []
    for name in names:
        lowers: list[Ineq] = []
        uppers: list[Ineq] = []
        rest: list[Ineq] = []
        for e, strict in current:
            a = _coeff(e, name)
            if a == 0:
                rest.append((e, strict))
            elif a > 0:
                uppers.append((e, strict))
            else:
                lowers.append((e, strict))
        steps.append((name, lowers, uppers))
        current = rest
        for low in lowers:
            for up in uppers:
                e, strict = _combine(low, up, name)
                if e.is_rational:
                    if e.offset < 0 or (e.offset == 0 and not strict):
                        continue
                    return None
                current.append((e, strict))
    if current:
        raise RuntimeError("internal error: FM elimination left a variable behind")

    gamma: dict[str, Fraction] = {}
    for name, lowers, uppers in reversed(steps):
        lo: Fraction | None = None
        lo_strict = False
        hi: Fraction | None = None
        hi_strict = False
        for e, strict in lowers:
            a = _coeff(e, name)
            bound = -_drop_var(e, name, a).evaluate(gamma) / a
            if lo is None or bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
        for e, strict in uppers:
            a = _coeff(e, name)
            bound = -_drop_var(e, name, a).evaluate(gamma) / a
            if hi is None or bound < hi or (bound == hi and strict):
                hi, hi_strict = bound, strict
        if lo is None and hi is None:
            gamma[name] = Fraction(0)
        elif lo is None:
            gamma[name] = hi - 1
        elif hi is None:
            gamma[name] = lo + 1
        else:
            if not (lo < hi or (lo == hi and not lo_strict and not hi_strict)):
                raise RuntimeError(
                    f"internal error: empty interval for {name} after FM elimination"
                )
            gamma[name] = (lo + hi) / 2
    return gamma


def solve_ground(
    sys: GroundSystem | Iterable[LinConstraint],
    names: Sequence[str] = (),
) -> dict[str, Fraction] | None:
    """Satisfying assignment for the system, or None.

    Disequations are handled by a depth-first case split over the two strict
    sides, explored in deterministic constraint order; branch sets that
    already failed are memoized.  names lists extra Skolems that must appear
    in the output even if unconstrained (they default to 0).
    """
    constraints = sys.constraints if isinstance(sys, GroundSystem) else list(sys)
    base: list[Ineq] = []
    neqs: list[GroundTerm] = []
    for left, rel, right in constraints:
        if rel is Relation.NEQ:
            e = left.sub(right)
            if e.is_rational:
                if e.offset == 0:
                    return None
                continue
            neqs.append(e)
        else:
            base.extend(_as_ineqs(left, rel, right))

    failed: set[frozenset] = set()

    def dfs(i: int, extra: list[Ineq]) -> dict[str, Fraction] | None:
        if i == len(neqs):
            return _solve_ineqs(base + extra)
        for branch in (neqs[i], neqs[i].scale(rat(-1))):
            key = frozenset((e.offset, e.coeffs) for e, _ in extra) | {
                (branch.offset, branch.coeffs)
            }
            if key in failed:
                continue
            result = dfs(i + 1, extra + [(branch, True)])
            if result is not None:
                return result
            failed.add(key)
        return None

    gamma = dfs(0, [])
    if gamma is None:
        return None
    for name in names:
        gamma.setdefault(name, Fraction(0))
    all_names = {n for left, _, right in constraints for n in (*left.skolems(), *right.skolems())}
    for name in all_names:
        gamma.setdefault(name, Fraction(0))
    return gamma
