"""Minimal complete propositional solver (DPLL over occurrence lists).

Variables are 1-based integers; literals are nonzero ints with sign as
polarity.  Search order is fixed: lowest-index unassigned variable first,
False before True.  Unit propagation reaches the same closure whatever
order it visits clauses in, so the model returned is the least one in
that order (variable 1 first, False below True), and ``decide``'s models
rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .report import SolveStats


@dataclass
class PropInstance:
    n_vars: int
    clauses: list[tuple[int, ...]] = field(default_factory=list)

    def add(self, lits: tuple[int, ...]) -> None:
        self.clauses.append(lits)


def check_assignment(clauses, model: dict[int, bool]) -> bool:
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in c) for c in clauses
    )


def solve(inst: PropInstance, stats: SolveStats | None = None) -> dict[int, bool] | None:
    """Total satisfying assignment over 1..n_vars, or None.

    When ``stats`` is given, its ``decisions`` field is incremented once per
    branching variable picked during the search, so a caller that solves
    many instances sums them in one account.
    """
    clauses: list[tuple[int, ...]] = []
    for raw in inst.clauses:
        c = tuple(dict.fromkeys(raw))
        if not c:
            return None
        if any(-l in c for l in c):
            continue
        clauses.append(c)

    n = inst.n_vars
    assign: list[int] = [0] * (n + 1)  # 0 unassigned, +1 true, -1 false
    occurs: dict[int, list[tuple[int, ...]]] = {}
    for c in clauses:
        for l in c:
            occurs.setdefault(l, []).append(c)

    trail: list[int] = []
    # decision stack entries: (trail length before decision, literal tried)
    decisions: list[tuple[int, int]] = []

    def propagate(lit: int) -> bool:
        """Assign lit true and propagate; False on conflict."""
        pending = [lit]
        while pending:
            l = pending.pop()
            v = assign[l] if l > 0 else -assign[-l]
            if v == 1:
                continue
            if v == -1:
                return False
            assign[abs(l)] = 1 if l > 0 else -1
            trail.append(l)
            for c in occurs.get(-l, ()):
                unit = 0
                for x in c:
                    v = assign[x] if x > 0 else -assign[-x]
                    if v == 1 or (v == 0 and unit):
                        break  # satisfied, or a second open literal
                    if v == 0:
                        unit = x
                else:
                    if not unit:
                        return False
                    pending.append(unit)
        return True

    ok = all(propagate(c[0]) for c in clauses if len(c) == 1)
    cursor = 1
    while True:
        if ok:
            while cursor <= n and assign[cursor] != 0:
                cursor += 1
            if cursor > n:
                return {v: assign[v] == 1 for v in range(1, n + 1)}
            if stats is not None:
                stats.decisions += 1
            lit = -cursor
        else:
            # undo up to the latest decision that tried False and flip it
            while decisions and decisions[-1][1] > 0:
                decisions.pop()
            if not decisions:
                return None
            mark, lit = decisions.pop()
            for l in trail[mark:]:
                assign[abs(l)] = 0
            del trail[mark:]
            lit = cursor = -lit  # every variable below it stays assigned
        decisions.append((len(trail), lit))
        ok = propagate(lit)
