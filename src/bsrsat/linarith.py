"""Ground linear rational constraint solving via Fourier-Motzkin.

Systems are conjunctions of comparisons between ground terms over Skolem
constants.  Both entry points rest on one exact elimination step,
``_eliminate``: ``fm_project`` takes one step to project a variable out
(``normalize`` uses it on clause variables), and ``solve_ground`` (used by
``decide`` for preorder witnesses) takes one step per Skolem constant in
sorted order, then back-substitutes with a fixed selection rule (interval
midpoint, bound +/- 1 when one-sided, 0 when unconstrained) so models are
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .terms import GroundTerm, Relation, rat

LinConstraint = tuple[GroundTerm, Relation, GroundTerm]

# internal canonical form: (expr, strict) standing for expr <= 0 / expr < 0
Ineq = tuple[GroundTerm, bool]


@dataclass
class GroundSystem:
    constraints: list[LinConstraint] = field(default_factory=list)

    def add(self, left: GroundTerm, rel: Relation, right: GroundTerm) -> None:
        self.constraints.append((left, rel, right))


def _as_ineqs(left: GroundTerm, rel: Relation, right: GroundTerm) -> list[Ineq]:
    """Rewrite left rel right into <=/< 0 form; disequations are not handled
    here (callers case-split them first)."""
    if rel is Relation.LE:
        return [(left.sub(right), False)]
    if rel is Relation.LT:
        return [(left.sub(right), True)]
    if rel is Relation.GE:
        return [(right.sub(left), False)]
    if rel is Relation.GT:
        return [(right.sub(left), True)]
    if rel is Relation.EQ:
        return [(left.sub(right), False), (right.sub(left), False)]
    raise ValueError("disequations must be case-split before FM")


def _coeff(e: GroundTerm, name: str) -> Fraction:
    for n, c in e.coeffs:
        if n == name:
            return c
    return Fraction(0)


def _eliminate(rows: list[Ineq], name: str) -> tuple[list[Ineq], ...]:
    """One Fourier-Motzkin step: the rows without name, the lower rows
    (negative coefficient), the upper rows (positive coefficient) and one
    combined row eu*(-b) + el*a per lower/upper pair, lowers outermost, in
    which name cancels."""
    rest: list[Ineq] = []
    lowers: list[Ineq] = []
    uppers: list[Ineq] = []
    for row in rows:
        a = _coeff(row[0], name)
        (rest if a == 0 else uppers if a > 0 else lowers).append(row)
    combined: list[Ineq] = []
    for el, sl in lowers:
        b = _coeff(el, name)
        for eu, su in uppers:
            a = _coeff(eu, name)
            coeffs = {n: -b * c for n, c in eu.coeffs}
            for n, c in el.coeffs:
                coeffs[n] = coeffs.get(n, Fraction(0)) + a * c
            combined.append(
                (GroundTerm.make(-b * eu.offset + a * el.offset, coeffs), sl or su)
            )
    return rest, lowers, uppers, combined


def fm_project(sys: GroundSystem, name: str) -> GroundSystem:
    """One Fourier-Motzkin elimination step.

    The result mentions name nowhere and is satisfiable iff sys is.
    Constraints not involving name pass through verbatim and come first;
    trivially true or false residues (e.g. 1 <= 1) are kept, not folded.
    """
    out = GroundSystem()
    rows: list[Ineq] = []
    for left, rel, right in sys.constraints:
        if name in left.skolems() or name in right.skolems():
            rows.extend(_as_ineqs(left, rel, right))
        else:
            out.add(left, rel, right)
    rest, _, _, combined = _eliminate(rows, name)
    for e, strict in rest + combined:
        out.add(e, Relation.LT if strict else Relation.LE, GroundTerm.constant(0))
    return out


def _open_rows(rows: list[Ineq]) -> list[Ineq] | None:
    """The rows that mention a Skolem constant, or None when a rational row
    is false; true rational rows are dropped."""
    out: list[Ineq] = []
    for e, strict in rows:
        if not e.is_rational:
            out.append((e, strict))
        elif e.offset > 0 or (e.offset == 0 and strict):
            return None
    return out


def _bound(e: GroundTerm, name: str, gamma: dict[str, Fraction]) -> Fraction:
    """The value of name at which the row e is tight, the other Skolem
    constants taken from gamma."""
    a, v = Fraction(0), e.offset
    for n, c in e.coeffs:
        if n == name:
            a = c
        else:
            v += c * gamma[n]
    return -v / a


def _solve_ineqs(ineqs: list[Ineq]) -> dict[str, Fraction] | None:
    """Solve a pure <=/< system; exact FM with recorded elimination steps."""
    current = _open_rows(ineqs)
    if current is None:
        return None
    names = sorted({n for e, _ in current for n in e.skolems()})
    steps: list[tuple[str, list[Ineq], list[Ineq]]] = []
    for name in names:
        rest, lowers, uppers, combined = _eliminate(current, name)
        steps.append((name, lowers, uppers))
        current = _open_rows(rest + combined)
        if current is None:
            return None
    if current:
        raise RuntimeError("internal error: FM elimination left a variable behind")

    gamma: dict[str, Fraction] = {}
    for name, lowers, uppers in reversed(steps):
        lo: Fraction | None = None
        lo_strict = False
        hi: Fraction | None = None
        hi_strict = False
        for e, strict in lowers:
            bound = _bound(e, name, gamma)
            if lo is None or bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
        for e, strict in uppers:
            bound = _bound(e, name, gamma)
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


def solve_ground(sys: GroundSystem, names: Sequence[str] = ()) -> dict[str, Fraction] | None:
    """Satisfying assignment for the system, or None.

    Disequations are handled by a depth-first case split over the two strict
    sides, explored in deterministic constraint order.  names lists extra
    Skolems that must appear in the output even if unconstrained (they
    default to 0).
    """
    base: list[Ineq] = []
    neqs: list[GroundTerm] = []
    for left, rel, right in sys.constraints:
        if rel is Relation.NEQ:
            e = left.sub(right)
            if e.is_rational:
                if e.offset == 0:
                    return None
                continue
            neqs.append(e)
        else:
            base.extend(_as_ineqs(left, rel, right))

    # the leaves of the depth-first split, in its order: each disequation
    # e != 0 as e > 0 first, then as -e > 0
    for sides in itertools.product(*((e, e.scale(rat(-1))) for e in neqs)):
        gamma = _solve_ineqs(base + [(side, True) for side in sides])
        if gamma is not None:
            break
    else:
        return None
    for name in names:
        gamma.setdefault(name, Fraction(0))
    for left, _, right in sys.constraints:
        for name in left.skolems() | right.skolems():
            gamma.setdefault(name, Fraction(0))
    return gamma
