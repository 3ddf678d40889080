"""Solver result reports and their textual rendering.

A report carries the verdict, the model descriptor for satisfiable
instances, and search statistics.  Rendering is deterministic; the
structured form is line-oriented ``key: value`` text meant to be parsed
by tests and scripts, the human form is a compact summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

STATUS_SAT = "sat"
STATUS_UNSAT = "unsat"
STATUS_ERROR = "error"


@dataclass
class SolveStats:
    """The one account of a run: every counter a decider keeps lives here.

    ``decide`` and ``naive_decide`` fill one object per call, and
    ``propsat.solve`` adds its branching decisions to the object it is
    handed; a ``ResourceLimitError`` carries the object as it stood.  Each
    field is one stat line, named after the field with ``_`` read as a
    space (``prop_vars`` is ``prop vars``), in field order; zero-filled
    fields simply stay zero.

    ``classes`` (the ``classes`` stat line) counts the region classes handed
    to grounding, summed over clauses.  ``decide`` streams only the classes
    a clause's premise admits, and its premise filter passes every class
    streamed, so this is exactly the number of surviving classes;
    ``naive_decide`` counts the full streams.
    """

    preorders: int = 0
    candidates: int = 0
    classes: int = 0
    prop_vars: int = 0
    prop_clauses: int = 0
    decisions: int = 0
    wall_ms: int = 0

    def as_pairs(self) -> list[tuple[str, int]]:
        return [(f.name.replace("_", " "), getattr(self, f.name)) for f in fields(self)]


@dataclass
class ResultReport:
    """Verdict plus optional model; ``model`` is present exactly for SAT.

    The model object is duck-typed: rendering uses ``domain``,
    ``fconst_assign``, ``gamma``, ``table_lines()`` and ``legend_lines()``.
    """

    status: str
    model: object | None = None
    stats: SolveStats = field(default_factory=SolveStats)
    detail: str = ""

    def __post_init__(self) -> None:
        if (self.model is not None) != (self.status == STATUS_SAT):
            raise ValueError("model must be present exactly when status is sat")


def emit_result(r: ResultReport, format: str = "human") -> str:
    if format == "structured":
        lines = _structured(r)
    elif format == "human":
        lines = _human(r)
    else:
        raise ValueError(f"unknown output format {format!r}")
    return "\n".join(lines) + "\n"


def _structured(r: ResultReport) -> list[str]:
    lines = [f"status: {r.status}"]
    if r.detail:
        lines.append(f"error: {r.detail}")
    for key, value in r.stats.as_pairs():
        lines.append(f"stat {key}: {value}")
    m = r.model
    if m is not None:
        lines.append("domain: " + " ".join(m.domain))
        for name in sorted(m.fconst_assign):
            lines.append(f"fconst {name}: {m.fconst_assign[name]}")
        for name in sorted(m.gamma):
            lines.append(f"gamma {name}: {m.gamma[name]}")
        for line in m.table_lines():
            lines.append(f"model: {line}")
        for line in m.legend_lines():
            lines.append(line)
    return lines


def _human(r: ResultReport) -> list[str]:
    lines = [f"status: {r.status.upper()}"]
    if r.detail:
        lines.append(f"reason: {r.detail}")
    m = r.model
    if m is not None:
        lines.append("domain: {" + ", ".join(m.domain) + "}")
        if m.fconst_assign:
            pairs = ", ".join(
                f"{k} -> {m.fconst_assign[k]}" for k in sorted(m.fconst_assign)
            )
            lines.append(f"fconst assignment: {pairs}")
        if m.gamma:
            pairs = ", ".join(f"{k} = {m.gamma[k]}" for k in sorted(m.gamma))
            lines.append(f"gamma: {pairs}")
        table = m.table_lines()
        lines.append(f"predicate table ({len(table)} atoms):")
        lines.extend(f"  {t}" for t in table)
        legend = m.legend_lines()
        if legend:
            lines.append("class representatives:")
            lines.extend(f"  {t}" for t in legend)
    stats = " ".join(f"{k.replace(' ', '_')}={v}" for k, v in r.stats.as_pairs())
    lines.append(f"stats: {stats}")
    return lines
