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

Printers invert the parsers on canonicalized inputs: parse(print(s)) == s.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Sequence

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


class Token(NamedTuple):
    kind: str  # "name", "num", or the symbol text itself
    text: str
    line: int
    col: int


# whitespace is skipped between matches, "#" ends the line's tokens and any
# other character that starts no token is an error
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<sym><=|>=|!=|->|[<>=~()\[\]{},;:+\-*^])"
    r"|(?P<end>#)"
    r"|(?P<bad>\S)"
)

_RELATIONS = {r.value: r for r in Relation}


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "end":
            break
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line_no, m.start() + 1)
        out.append(Token(tok if kind == "sym" else kind, tok, line_no, m.start() + 1))
    return out


class _Stream:
    def __init__(self, tokens: list[Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _eol_col(self) -> int:
        return self.tokens[-1].col + len(self.tokens[-1].text) if self.tokens else 1

    def next(self, what: str = "token") -> Token:
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {what}, found end of line", self.line, self._eol_col())
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        """The next token, which must be the symbol or keyword ``text``."""
        t = self.next(f"'{text}'")
        if t.text != text:
            raise ParseError(f"expected '{text}', found {t.text!r}", t.line, t.col)
        return t

    def name(self, what: str) -> Token:
        """The next token, which must be a name; ``what`` says which."""
        t = self.next(what)
        if t.kind != "name":
            raise ParseError(f"expected {what}, found {t.text!r}", t.line, t.col)
        return t

    def at(self, kind: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == kind

    def done(self) -> bool:
        return self.peek() is None

    def end(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)

    def error(self, message: str) -> ParseError:
        t = self.peek()
        if t is None:
            return ParseError(message, self.line, self._eol_col())
        return ParseError(message, t.line, t.col)


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, i)
        if toks:
            yield _Stream(toks, i)


def _fraction(s: _Stream) -> Fraction:
    neg = False
    if s.at("-"):
        s.next()
        neg = True
    t = s.next("number")
    if t.kind != "num":
        raise ParseError(f"expected a number, found {t.text!r}", t.line, t.col)
    num, _, den = t.text.partition("/")
    if den and int(den) == 0:
        raise ParseError("zero denominator in rational literal", t.line, t.col)
    q = Fraction(int(num), int(den)) if den else Fraction(int(num))
    return -q if neg else q


def _relation(s: _Stream) -> Relation:
    t = s.next("a relation")
    rel = _RELATIONS.get(t.kind)
    if rel is None:
        raise ParseError(f"expected a relation, found {t.text!r}", t.line, t.col)
    return rel


# --- clause files ----------------------------------------------------------


class _ClauseFileState:
    def __init__(self) -> None:
        self.mode: str | None = None
        self.signature: dict[str, tuple[int, int]] = {}
        self.fconsts: list[str] = []
        self.skolems: list[str] = []
        self.clauses: list[Clause] = []

    def declare_const(self, tok: Token, kind: str) -> None:
        if tok.text in self.fconsts or tok.text in self.skolems:
            raise ParseError(f"redeclaration of constant {tok.text!r}", tok.line, tok.col)
        (self.fconsts if kind == "freeconst" else self.skolems).append(tok.text)


def parse_clause_set(text: str) -> ClauseSet:
    st = _ClauseFileState()
    for s in _lines(text):
        head = s.name("a declaration or clause")
        if head.text == "mode":
            if st.mode is not None:
                raise ParseError("duplicate mode declaration", head.line, head.col)
            m = s.next("a mode")
            if m.text not in (MODE_SLR, MODE_BD):
                raise ParseError(f"unknown mode {m.text!r} (use slr or bd)", m.line, m.col)
            st.mode = m.text
            s.end()
        elif head.text == "pred":
            name = s.name("a predicate name")
            if name.text in st.signature:
                raise ParseError(f"redeclaration of predicate {name.text!r}", name.line, name.col)
            s.expect(":")
            mf = _sort_power(s, "S")
            mb = _sort_power(s, "R")
            st.signature[name.text] = (mf, mb)
            s.end()
        elif head.text in ("freeconst", "skolem"):
            if s.done():
                raise s.error(f"{head.text} needs at least one name")
            while not s.done():
                st.declare_const(s.name("a name"), head.text)
        elif head.text == "clause":
            if st.mode is None:
                raise ParseError("mode must be declared before clauses", head.line, head.col)
            st.clauses.append(_parse_clause(s, st))
            s.end()
        else:
            raise ParseError(f"unknown declaration {head.text!r}", head.line, head.col)
    if st.mode is None:
        raise ParseError("missing mode declaration", 1, 1)
    cs = ClauseSet(st.mode, tuple(st.clauses), st.signature, tuple(st.fconsts), tuple(st.skolems))
    cs.validate()
    return cs


def _sort_power(s: _Stream, sort_name: str) -> int:
    t = s.next(f"'{sort_name}'")
    if t.text != sort_name:
        raise ParseError(f"expected sort {sort_name!r}, found {t.text!r}", t.line, t.col)
    s.expect("^")
    n = s.next("an arity")
    if n.kind != "num" or "/" in n.text:
        raise ParseError(f"expected an integer arity, found {n.text!r}", n.line, n.col)
    return int(n.text)


def _parse_clause(s: _Stream, st: _ClauseFileState) -> Clause:
    lam = _parse_bracketed(s, lambda: _parse_constraint(s, st))
    gamma = _parse_bracketed(s, lambda: _parse_atom(s, st))
    s.expect("->")
    delta = _parse_bracketed(s, lambda: _parse_atom(s, st))
    return Clause.make(lam, gamma, delta)


def _parse_bracketed(s: _Stream, item) -> list:
    s.expect("[")
    out = []
    if s.at("]"):
        s.next()
        return out
    out.append(item())
    while s.at(";"):
        s.next()
        out.append(item())
    s.expect("]")
    return out


def _parse_constraint(s: _Stream, st: _ClauseFileState) -> Constraint:
    t = s.peek()
    if t is None:
        raise s.error("expected a constraint")
    if t.kind == "name" and t.text == "def":
        s.next()
        sk = s.next("a Skolem constant")
        if sk.text not in st.skolems:
            raise ParseError(f"def requires a declared Skolem constant, got {sk.text!r}", sk.line, sk.col)
        s.expect("!=")
        term = _parse_ground_term(s, st)
        return SkolemDef(sk.text, term)
    if t.kind == "name" and t.text not in st.skolems:
        if t.text in st.fconsts:
            raise ParseError(f"free constant {t.text!r} cannot appear in a constraint", t.line, t.col)
        var = s.next().text
        if s.at("-"):
            s.next()
            other = s.next("a variable")
            if other.kind != "name" or other.text in st.skolems or other.text in st.fconsts:
                raise ParseError("difference constraints take two variables", other.line, other.col)
            rel = _relation(s)
            const = _fraction(s)
            return DiffConst(var, other.text, rel, const)
        rel = _relation(s)
        rhs = s.peek()
        if rhs is not None and rhs.kind == "name" and rhs.text not in st.skolems:
            if rhs.text in st.fconsts:
                raise ParseError(f"free constant {rhs.text!r} cannot appear in a constraint", rhs.line, rhs.col)
            s.next()
            return VarVar(var, rel, rhs.text)
        return VarConst(var, rel, _parse_ground_term(s, st))
    left = _parse_ground_term(s, st)
    rel = _relation(s)
    right = _parse_ground_term(s, st)
    return GroundCmp(left, rel, right)


def _parse_ground_term(s: _Stream, st: _ClauseFileState) -> GroundTerm:
    offset = Fraction(0)
    coeffs: dict[str, Fraction] = {}

    def addend(sign: Fraction) -> None:
        nonlocal offset
        t = s.peek()
        if t is None:
            raise s.error("expected a ground term")
        if t.kind == "num":
            q = _fraction(s)
            if s.at("*"):
                s.next()
                name = s.next("a Skolem constant")
                _require_skolem(name, st)
                coeffs[name.text] = coeffs.get(name.text, Fraction(0)) + sign * q
            else:
                offset += sign * q
        elif t.kind == "name":
            s.next()
            _require_skolem(t, st)
            coeffs[t.text] = coeffs.get(t.text, Fraction(0)) + sign
        else:
            raise ParseError(f"expected a ground term, found {t.text!r}", t.line, t.col)

    sign = Fraction(1)
    if s.at("-"):
        s.next()
        sign = Fraction(-1)
    addend(sign)
    while s.at("+") or s.at("-"):
        sign = Fraction(1) if s.next().kind == "+" else Fraction(-1)
        addend(sign)
    return GroundTerm.make(offset, coeffs)


def _require_skolem(tok: Token, st: _ClauseFileState) -> None:
    if tok.text not in st.skolems:
        raise ParseError(f"undeclared Skolem constant {tok.text!r}", tok.line, tok.col)


def _parse_atom(s: _Stream, st: _ClauseFileState) -> FreeAtom:
    t = s.name("an atom")
    if s.at("~"):
        s.next()
        right = s.next("a free-sort term")
        return Equation(_free_term(t, st), _free_term(right, st))
    if s.at("("):
        if t.text not in st.signature:
            raise ParseError(f"undeclared predicate {t.text!r}", t.line, t.col)
        mf, mb = st.signature[t.text]
        s.next()
        args: list[Token] = []
        if not s.at(")"):
            args.append(s.next("an argument"))
            while s.at(","):
                s.next()
                args.append(s.next("an argument"))
        s.expect(")")
        if len(args) != mf + mb:
            raise ParseError(
                f"{t.text} expects {mf + mb} arguments (S^{mf} R^{mb}), got {len(args)}",
                t.line,
                t.col,
            )
        free = tuple(_free_term(a, st) for a in args[:mf])
        base: list[str] = []
        for a in args[mf:]:
            if a.kind != "name" or a.text in st.fconsts or a.text in st.skolems:
                raise ParseError(
                    f"base-sort arguments must be variables, got {a.text!r}", a.line, a.col
                )
            base.append(a.text)
        return PredAtom(t.text, free, tuple(base))
    raise s.error("expected '~' or '(' after atom head")


def _free_term(tok: Token, st: _ClauseFileState) -> FreeTerm:
    if tok.kind != "name":
        raise ParseError(f"expected a free-sort term, found {tok.text!r}", tok.line, tok.col)
    if tok.text in st.skolems:
        raise ParseError(f"Skolem constant {tok.text!r} in a free-sort position", tok.line, tok.col)
    return FreeTerm(tok.text, tok.text in st.fconsts)


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
    for s in _lines(text):
        head = s.name("a declaration")
        if head.text == "clocks":
            if clocks:
                raise ParseError("duplicate clocks declaration", head.line, head.col)
            if s.done():
                raise s.error("clocks needs at least one name")
            while not s.done():
                tok = s.next("a clock name")
                if tok.kind != "name" or tok.text.endswith("'"):
                    raise ParseError(f"bad clock name {tok.text!r}", tok.line, tok.col)
                if tok.text in clocks:
                    raise ParseError(f"duplicate clock {tok.text!r}", tok.line, tok.col)
                clocks.append(tok.text)
        elif head.text == "loc":
            name = s.name("a location name")
            if name.text in locations:
                raise ParseError(f"duplicate location {name.text!r}", name.line, name.col)
            locations.append(name.text)
            if s.at("name") and s.peek().text == "init":
                s.next()
                if initial is not None:
                    raise ParseError("more than one initial location", name.line, name.col)
                initial = name.text
            s.expect("inv")
            cc = _parse_cc(s, clocks)
            s.end()
            if not cc.is_true:
                invariants[name.text] = cc
        elif head.text == "trans":
            src = s.next("a location name")
            s.expect("->")
            dst = s.next("a location name")
            for tok in (src, dst):
                if tok.text not in locations:
                    raise ParseError(f"unknown location {tok.text!r}", tok.line, tok.col)
            s.expect("guard")
            guard = _parse_cc(s, clocks, stop_at="reset")
            s.expect("reset")
            s.expect("{")
            resets: set[str] = set()
            while not s.at("}"):
                tok = s.next("a clock name")
                if tok.text not in clocks:
                    raise ParseError(f"unknown clock {tok.text!r}", tok.line, tok.col)
                resets.add(tok.text)
            s.expect("}")
            s.end()
            transitions.append(Transition(src.text, guard, frozenset(resets), dst.text))
        else:
            raise ParseError(f"unknown declaration {head.text!r}", head.line, head.col)
    if initial is None:
        raise ParseError("no location is marked init", 1, 1)
    return TimedAutomaton(tuple(clocks), tuple(locations), initial, invariants, tuple(transitions))


def _parse_cc(s: _Stream, clocks: Sequence[str], stop_at: str | None = None) -> ClockConstraint:
    t = s.peek()
    if t is not None and t.kind == "name" and t.text == "true":
        s.next()
        return ClockConstraint()
    atoms = [_parse_cc_atom(s, clocks)]
    while s.at(","):
        s.next()
        atoms.append(_parse_cc_atom(s, clocks))
    if stop_at is not None and not (s.at("name") and s.peek().text == stop_at):
        if not s.done():
            raise s.error(f"expected ',' or '{stop_at}'")
    return ClockConstraint.make(atoms)


def _parse_cc_atom(s: _Stream, clocks: Sequence[str]) -> VarConst | DiffConst:
    x = s.next("a clock name")
    if x.kind != "name" or x.text not in clocks:
        raise ParseError(f"unknown clock {x.text!r}", x.line, x.col)
    if s.at("-"):
        s.next()
        y = s.next("a clock name")
        if y.kind != "name" or y.text not in clocks:
            raise ParseError(f"unknown clock {y.text!r}", y.line, y.col)
        rel = _relation(s)
        c = _int_const(s)
        return DiffConst(x.text, y.text, rel, c)
    rel = _relation(s)
    c = _int_const(s)
    return VarConst(x.text, rel, GroundTerm.constant(c))


def _int_const(s: _Stream) -> Fraction:
    t = s.peek()
    q = _fraction(s)
    if q.denominator != 1:
        raise ParseError(f"clock constraint constant must be an integer, got {q}", t.line, t.col)
    return q


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
    s = _Stream(_tokenize_line(" " * len(loc_part + sep) + cc_part, 1), 1)
    cc = _parse_cc(s, aut.clocks)
    s.end()
    return ReachQuery(loc, cc)
