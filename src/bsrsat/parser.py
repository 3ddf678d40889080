"""Text formats: clause files, timed-automaton files, goal strings.

Both formats are line oriented with '#' comments.  Clause files:

    mode slr
    pred P : S^1 R^2
    freeconst a b
    skolem c d
    clause [x < 1; c <= d; def e != 2*c + 1] [P(a, x, y)] -> [P(b, y, y)]

Automaton files:

    clocks x y
    loc a init inv x <= 1
    loc b inv true
    trans a -> b guard x >= 1, x - y < 2 reset {x}

How tokens flow: ``_Line`` cuts a line into two parallel lists, the token
kinds (``"name"``, ``"num"``, or the symbol text itself) and the token
texts, with one ``findall`` and no object per token, and ends both with an
``EOL`` sentinel.  The parsing functions read those lists by index: each
takes a ``_Line`` and the index of its first token and returns what it
parsed with the index after it.  The sentinel lets every lookahead index
the lists without a bounds check, since no function steps past it.  Only
a ``ParseError`` needs a column: ``_Line.col`` finds it by tokenizing the
line once more, so the error carries the line and the column of the token
it names, or the column just past the last token for the end of the line.

Printers invert the parsers on canonicalized inputs: parse(print(s)) == s.
"""

from __future__ import annotations

import functools
import re
import string
from fractions import Fraction
from typing import Sequence

from .terms import (
    MODE_BD,
    MODE_SLR,
    Clause,
    ClauseSet,
    Constraint,
    DiffConst,
    Equation,
    FreeAtom,
    FreeTerm,
    GroundCmp,
    GroundTerm,
    PredAtom,
    Relation,
    SkolemDef,
    VarConst,
    VarVar,
)
from .timed import ClockConstraint, ReachQuery, TimedAutomaton, Transition


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# one token per match, in the order tried: a name, a number, a symbol, the
# "#" that starts a comment, or any other character, which is an error
_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*'*"
    r"|\d+(?:/\d+)?"
    r"|<=|>=|!=|->|[<>=~()\[\]{},;:+\-*^]"
    r"|#"
    r"|\S"
)
_SYMBOLS = ("<=", ">=", "!=", "->", *"<>=~()[]{},;:+-*^")
# a token's kind, by its first character: "name", "num", or the text itself
_KIND_OF = {c: "name" for c in string.ascii_letters + "_"} | {c: "num" for c in string.digits}
_KINDS = {"name", "num", *_SYMBOLS}

EOL = "eol"  # kind of the sentinel that ends every line's tokens; its text is ""

_RELATIONS = {r.value: r for r in Relation}
_ZERO = Fraction(0)
_TERM_GOES_ON = ("*", "+", "-")  # kinds after an addend that another one follows


class _Line:
    """One line's tokens as parallel lists of kinds and texts, ended by the
    ``EOL`` sentinel.  Columns are found again only for an error."""

    __slots__ = ("kinds", "texts", "raw", "no")

    def __init__(self, raw: str, no: int):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        texts = _TOKEN_RE.findall(raw)
        kinds = [_KIND_OF.get(t[0], t) for t in texts]
        self.kinds, self.texts, self.raw, self.no = kinds, texts, raw, no
        if not _KINDS.issuperset(kinds):
            i = next(i for i, k in enumerate(kinds) if k not in _KINDS)
            raise self.error(i, f"unexpected character {texts[i]!r}")
        kinds.append(EOL)
        texts.append("")

    def col(self, i: int) -> int:
        """The column of token ``i``; the sentinel's lies just past the last token."""
        spans = [m.span() for m in _TOKEN_RE.finditer(self.raw)]
        if i < len(spans):
            return spans[i][0] + 1
        return spans[-1][1] + 1 if spans else 1

    def error(self, i: int, message: str) -> ParseError:
        """``message`` at token ``i``, or at the end of the line."""
        return ParseError(message, self.no, self.col(i))

    def expected(self, i: int, what: str) -> ParseError:
        """Token ``i`` is not the ``what`` that the grammar needs there."""
        found = "end of line" if self.kinds[i] == EOL else repr(self.texts[i])
        return self.error(i, f"expected {what}, found {found}")


def _lines(text: str):
    """The lines of ``text`` that hold a token."""
    for no, raw in enumerate(text.splitlines(), start=1):
        ln = _Line(raw, no)
        if len(ln.kinds) > 1:
            yield ln


def _name(ln: _Line, i: int, what: str) -> str:
    """The text of token ``i``, which must be a name; ``what`` says which."""
    if ln.kinds[i] != "name":
        raise ln.expected(i, what)
    return ln.texts[i]


def _expect(ln: _Line, i: int, text: str) -> int:
    """The index after token ``i``, which must be the symbol or keyword ``text``."""
    if ln.texts[i] != text:
        raise ln.expected(i, f"'{text}'")
    return i + 1


def _end(ln: _Line, i: int) -> None:
    if ln.kinds[i] != EOL:
        raise ln.error(i, f"unexpected trailing {ln.texts[i]!r}")


def _fraction(ln: _Line, i: int) -> tuple[Fraction, int]:
    neg = ln.kinds[i] == "-"
    if neg:
        i += 1
    kind = ln.kinds[i]
    if kind != "num":
        if kind == EOL:
            raise ln.expected(i, "number")
        raise ln.expected(i, "a number")
    q = _literal(ln.texts[i])
    if q is None:
        raise ln.error(i, "zero denominator in rational literal")
    return -q if neg else q, i + 1


@functools.lru_cache(maxsize=1024)
def _literal(text: str) -> Fraction | None:
    """The value of a number token, or None for a zero denominator."""
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        return None
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _relation(ln: _Line, i: int) -> tuple[Relation, int]:
    rel = _RELATIONS.get(ln.kinds[i])
    if rel is None:
        raise ln.expected(i, "a relation")
    return rel, i + 1


# --- clause files ----------------------------------------------------------


class _ClauseFileState:
    """The declarations read so far; dicts keep declaration order and
    answer membership at once."""

    def __init__(self) -> None:
        self.mode: str | None = None
        self.signature: dict[str, tuple[int, int]] = {}
        self.fconsts: dict[str, None] = {}
        self.skolems: dict[str, None] = {}
        self.clauses: list[Clause] = []
        self.free_terms: dict[str, FreeTerm] = {}  # one per name, built at its first use

    def declare_const(self, ln: _Line, i: int, kind: str) -> None:
        name = _name(ln, i, "a name")
        if name in self.fconsts or name in self.skolems:
            raise ln.error(i, f"redeclaration of constant {name!r}")
        (self.fconsts if kind == "freeconst" else self.skolems)[name] = None
        self.free_terms.pop(name, None)  # a variable until now


def parse_clause_set(text: str) -> ClauseSet:
    st = _ClauseFileState()
    for ln in _lines(text):
        kinds = ln.kinds
        head = _name(ln, 0, "a declaration or clause")
        if head == "clause":
            if st.mode is None:
                raise ln.error(0, "mode must be declared before clauses")
            st.clauses.append(_parse_clause(ln, st))
        elif head == "mode":
            if st.mode is not None:
                raise ln.error(0, "duplicate mode declaration")
            if kinds[1] == EOL:
                raise ln.expected(1, "a mode")
            if ln.texts[1] not in (MODE_SLR, MODE_BD):
                raise ln.error(1, f"unknown mode {ln.texts[1]!r} (use slr or bd)")
            st.mode = ln.texts[1]
            _end(ln, 2)
        elif head == "pred":
            name = _name(ln, 1, "a predicate name")
            if name in st.signature:
                raise ln.error(1, f"redeclaration of predicate {name!r}")
            i = _expect(ln, 2, ":")
            mf, i = _sort_power(ln, i, "S")
            mb, i = _sort_power(ln, i, "R")
            st.signature[name] = (mf, mb)
            _end(ln, i)
        elif head in ("freeconst", "skolem"):
            if kinds[1] == EOL:
                raise ln.error(1, f"{head} needs at least one name")
            for i in range(1, len(kinds) - 1):
                st.declare_const(ln, i, head)
        else:
            raise ln.error(0, f"unknown declaration {head!r}")
    if st.mode is None:
        raise ParseError("missing mode declaration", 1, 1)
    cs = ClauseSet(st.mode, tuple(st.clauses), st.signature, tuple(st.fconsts), tuple(st.skolems))
    cs.validate()
    return cs


def _sort_power(ln: _Line, i: int, sort_name: str) -> tuple[int, int]:
    if ln.kinds[i] == EOL:
        raise ln.expected(i, f"'{sort_name}'")
    if ln.texts[i] != sort_name:
        raise ln.error(i, f"expected sort {sort_name!r}, found {ln.texts[i]!r}")
    i = _expect(ln, i + 1, "^")
    if ln.kinds[i] != "num" or "/" in ln.texts[i]:
        raise ln.expected(i, "an arity" if ln.kinds[i] == EOL else "an integer arity")
    return int(ln.texts[i]), i + 1


def _parse_clause(ln: _Line, st: _ClauseFileState) -> Clause:
    lam, i = _parse_bracketed(ln, 1, _parse_constraint, st)
    gamma, i = _parse_bracketed(ln, i, _parse_atom, st)
    i = _expect(ln, i, "->")
    delta, i = _parse_bracketed(ln, i, _parse_atom, st)
    _end(ln, i)
    return Clause.make(lam, gamma, delta)


def _parse_bracketed(ln: _Line, i: int, item, st: _ClauseFileState) -> tuple[list, int]:
    kinds = ln.kinds
    i = _expect(ln, i, "[")
    out: list = []
    if kinds[i] == "]":
        return out, i + 1
    x, i = item(ln, i, st)
    out.append(x)
    while kinds[i] == ";":
        x, i = item(ln, i + 1, st)
        out.append(x)
    return out, _expect(ln, i, "]")


def _parse_constraint(ln: _Line, i: int, st: _ClauseFileState) -> tuple[Constraint, int]:
    kinds, texts = ln.kinds, ln.texts
    kind, text = kinds[i], texts[i]
    if kind == EOL:
        raise ln.error(i, "expected a constraint")
    if kind == "name" and text == "def":
        if kinds[i + 1] == EOL:
            raise ln.expected(i + 1, "a Skolem constant")
        sk = texts[i + 1]
        if sk not in st.skolems:
            raise ln.error(i + 1, f"def requires a declared Skolem constant, got {sk!r}")
        i = _expect(ln, i + 2, "!=")
        term, i = _parse_ground_term(ln, i, st)
        return SkolemDef(sk, term), i
    if kind == "name" and text not in st.skolems:
        if text in st.fconsts:
            raise ln.error(i, f"free constant {text!r} cannot appear in a constraint")
        i += 1
        if kinds[i] == "-":
            i += 1
            if kinds[i] == EOL:
                raise ln.expected(i, "a variable")
            other = texts[i]
            if kinds[i] != "name" or other in st.skolems or other in st.fconsts:
                raise ln.error(i, "difference constraints take two variables")
            rel, i = _relation(ln, i + 1)
            const, i = _fraction(ln, i)
            return DiffConst(text, other, rel, const), i
        rel, i = _relation(ln, i)
        rhs = texts[i]
        if kinds[i] == "name" and rhs not in st.skolems:
            if rhs in st.fconsts:
                raise ln.error(i, f"free constant {rhs!r} cannot appear in a constraint")
            return VarVar(text, rel, rhs), i + 1
        bound, i = _parse_ground_term(ln, i, st)
        return VarConst(text, rel, bound), i
    left, i = _parse_ground_term(ln, i, st)
    rel, i = _relation(ln, i)
    right, i = _parse_ground_term(ln, i, st)
    return GroundCmp(left, rel, right), i


def _parse_ground_term(ln: _Line, i: int, st: _ClauseFileState) -> tuple[GroundTerm, int]:
    kinds, texts = ln.kinds, ln.texts
    sign = 1
    if kinds[i] == "-":
        i += 1
        sign = -1
    # a lone number or Skolem constant, the usual bound, is built directly
    kind = kinds[i]
    if kind == "num" and kinds[i + 1] not in _TERM_GOES_ON:
        q, i = _fraction(ln, i)
        return GroundTerm(q if sign == 1 else -q), i
    if kind == "name" and kinds[i + 1] not in _TERM_GOES_ON:
        _require_skolem(ln, i, st)
        return GroundTerm(_ZERO, ((texts[i], Fraction(sign)),)), i + 1
    offset = _ZERO
    coeffs: dict[str, Fraction] = {}
    while True:
        kind = kinds[i]
        if kind == "num":
            q, i = _fraction(ln, i)
            if kinds[i] == "*":
                i += 1
                if kinds[i] == EOL:
                    raise ln.expected(i, "a Skolem constant")
                name = texts[i]
                _require_skolem(ln, i, st)
                coeffs[name] = coeffs.get(name, _ZERO) + sign * q
                i += 1
            else:
                offset += sign * q
        elif kind == "name":
            name = texts[i]
            _require_skolem(ln, i, st)
            coeffs[name] = coeffs.get(name, _ZERO) + sign
            i += 1
        elif kind == EOL:
            raise ln.error(i, "expected a ground term")
        else:
            raise ln.error(i, f"expected a ground term, found {texts[i]!r}")
        if kinds[i] == "+":
            sign = 1
        elif kinds[i] == "-":
            sign = -1
        else:
            return GroundTerm.make(offset, coeffs), i
        i += 1


def _require_skolem(ln: _Line, i: int, st: _ClauseFileState) -> None:
    if ln.texts[i] not in st.skolems:
        raise ln.error(i, f"undeclared Skolem constant {ln.texts[i]!r}")


def _parse_atom(ln: _Line, i: int, st: _ClauseFileState) -> tuple[FreeAtom, int]:
    kinds, texts = ln.kinds, ln.texts
    head = _name(ln, i, "an atom")
    at = i
    i += 1
    if kinds[i] == "~":
        if kinds[i + 1] == EOL:
            raise ln.expected(i + 1, "a free-sort term")
        return Equation(_free_term(ln, at, st), _free_term(ln, i + 1, st)), i + 2
    if kinds[i] != "(":
        raise ln.error(i, "expected '~' or '(' after atom head")
    if head not in st.signature:
        raise ln.error(at, f"undeclared predicate {head!r}")
    mf, mb = st.signature[head]
    i += 1
    args: list[int] = []  # token indices
    if kinds[i] != ")":
        if kinds[i] == EOL:
            raise ln.expected(i, "an argument")
        args.append(i)
        i += 1
        while kinds[i] == ",":
            i += 1
            if kinds[i] == EOL:
                raise ln.expected(i, "an argument")
            args.append(i)
            i += 1
    i = _expect(ln, i, ")")
    if len(args) != mf + mb:
        raise ln.error(at, f"{head} expects {mf + mb} arguments (S^{mf} R^{mb}), got {len(args)}")
    free = tuple(_free_term(ln, a, st) for a in args[:mf])
    for a in args[mf:]:
        if kinds[a] != "name" or texts[a] in st.fconsts or texts[a] in st.skolems:
            raise ln.error(a, f"base-sort arguments must be variables, got {texts[a]!r}")
    return PredAtom(head, free, tuple(texts[a] for a in args[mf:])), i


def _free_term(ln: _Line, i: int, st: _ClauseFileState) -> FreeTerm:
    name = ln.texts[i]
    term = st.free_terms.get(name)
    if term is None:
        if ln.kinds[i] != "name":
            raise ln.error(i, f"expected a free-sort term, found {name!r}")
        if name in st.skolems:
            raise ln.error(i, f"Skolem constant {name!r} in a free-sort position")
        term = st.free_terms[name] = FreeTerm(name, name in st.fconsts)
    return term


def print_clause_set(cs: ClauseSet) -> str:
    out = [f"mode {cs.mode}"]
    for name, (mf, mb) in cs.signature.items():
        out.append(f"pred {name} : S^{mf} R^{mb}")
    if cs.fconsts:
        out.append("freeconst " + " ".join(cs.fconsts))
    if cs.skolems:
        out.append("skolem " + " ".join(cs.skolems))
    for cl in cs.clauses:
        out.append(f"clause {cl}")
    return "\n".join(out) + "\n"


# --- timed-automaton files -------------------------------------------------


def parse_ta(text: str) -> TimedAutomaton:
    clocks: list[str] = []
    locations: list[str] = []
    initial: str | None = None
    invariants: dict[str, ClockConstraint] = {}
    transitions: list[Transition] = []
    for ln in _lines(text):
        kinds, texts = ln.kinds, ln.texts
        head = _name(ln, 0, "a declaration")
        if head == "clocks":
            if clocks:
                raise ln.error(0, "duplicate clocks declaration")
            if kinds[1] == EOL:
                raise ln.error(1, "clocks needs at least one name")
            for i in range(1, len(kinds) - 1):
                tok = texts[i]
                if kinds[i] != "name" or tok.endswith("'"):
                    raise ln.error(i, f"bad clock name {tok!r}")
                if tok in clocks:
                    raise ln.error(i, f"duplicate clock {tok!r}")
                clocks.append(tok)
        elif head == "loc":
            name = _name(ln, 1, "a location name")
            if name in locations:
                raise ln.error(1, f"duplicate location {name!r}")
            locations.append(name)
            i = 2
            if kinds[i] == "name" and texts[i] == "init":
                i += 1
                if initial is not None:
                    raise ln.error(1, "more than one initial location")
                initial = name
            cc, i = _parse_cc(ln, _expect(ln, i, "inv"), clocks)
            _end(ln, i)
            if not cc.is_true:
                invariants[name] = cc
        elif head == "trans":
            if kinds[1] == EOL:
                raise ln.expected(1, "a location name")
            i = _expect(ln, 2, "->")
            if kinds[i] == EOL:
                raise ln.expected(i, "a location name")
            for j in (1, i):
                if texts[j] not in locations:
                    raise ln.error(j, f"unknown location {texts[j]!r}")
            guard, i = _parse_cc(ln, _expect(ln, i + 1, "guard"), clocks, stop_at="reset")
            i = _expect(ln, _expect(ln, i, "reset"), "{")
            resets: set[str] = set()
            while kinds[i] != "}":
                if kinds[i] == EOL:
                    raise ln.expected(i, "a clock name")
                if texts[i] not in clocks:
                    raise ln.error(i, f"unknown clock {texts[i]!r}")
                resets.add(texts[i])
                i += 1
            _end(ln, i + 1)
            transitions.append(Transition(texts[1], guard, frozenset(resets), texts[3]))
        else:
            raise ln.error(0, f"unknown declaration {head!r}")
    if initial is None:
        raise ParseError("no location is marked init", 1, 1)
    return TimedAutomaton(tuple(clocks), tuple(locations), initial, invariants, tuple(transitions))


def _parse_cc(
    ln: _Line, i: int, clocks: Sequence[str], stop_at: str | None = None
) -> tuple[ClockConstraint, int]:
    kinds, texts = ln.kinds, ln.texts
    if kinds[i] == "name" and texts[i] == "true":
        return ClockConstraint(), i + 1
    atom, i = _parse_cc_atom(ln, i, clocks)
    atoms = [atom]
    while kinds[i] == ",":
        atom, i = _parse_cc_atom(ln, i + 1, clocks)
        atoms.append(atom)
    if stop_at is not None and not (kinds[i] == "name" and texts[i] == stop_at):
        if kinds[i] != EOL:
            raise ln.error(i, f"expected ',' or '{stop_at}'")
    return ClockConstraint.make(atoms), i


def _clock(ln: _Line, i: int, clocks: Sequence[str]) -> str:
    if ln.kinds[i] == EOL:
        raise ln.expected(i, "a clock name")
    if ln.kinds[i] != "name" or ln.texts[i] not in clocks:
        raise ln.error(i, f"unknown clock {ln.texts[i]!r}")
    return ln.texts[i]


def _parse_cc_atom(ln: _Line, i: int, clocks: Sequence[str]) -> tuple[VarConst | DiffConst, int]:
    x = _clock(ln, i, clocks)
    if ln.kinds[i + 1] == "-":
        y = _clock(ln, i + 2, clocks)
        rel, i = _relation(ln, i + 3)
        c, i = _int_const(ln, i)
        return DiffConst(x, y, rel, c), i
    rel, i = _relation(ln, i + 1)
    c, i = _int_const(ln, i)
    return VarConst(x, rel, GroundTerm.constant(c)), i


def _int_const(ln: _Line, i: int) -> tuple[Fraction, int]:
    q, j = _fraction(ln, i)
    if q.denominator != 1:
        raise ln.error(i, f"clock constraint constant must be an integer, got {q}")
    return q, j


def print_ta(aut: TimedAutomaton) -> str:
    out = ["clocks " + " ".join(aut.clocks)]
    for loc in aut.locations:
        init = " init" if loc == aut.initial else ""
        out.append(f"loc {loc}{init} inv {aut.invariant(loc)}")
    for t in aut.transitions:
        out.append(str(t))
    return "\n".join(out) + "\n"


def parse_goal(text: str, aut: TimedAutomaton) -> ReachQuery:
    """'<location>:<clock constraint>'; a bare location means no constraint."""
    loc_part, sep, cc_part = text.partition(":")
    loc = loc_part.strip()
    if loc not in aut.locations:
        col = len(loc_part) - len(loc_part.lstrip()) + 1
        raise ParseError(f"unknown goal location {loc!r}", 1, col)
    if not sep or not cc_part.strip():
        return ReachQuery(loc)
    # the location blanked out, so that columns count from the goal's start
    ln = _Line(" " * len(loc_part + sep) + cc_part, 1)
    cc, i = _parse_cc(ln, 0, aut.clocks)
    _end(ln, i)
    return ReachQuery(loc, cc)
