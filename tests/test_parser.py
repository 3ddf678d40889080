"""Clause-file and automaton-file formats."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsrsat import corpus
from bsrsat.parser import (
    ParseError,
    parse_clause_set,
    parse_goal,
    parse_ta,
    print_clause_set,
    print_ta,
)
from bsrsat.terms import (
    MODE_BD,
    MODE_SLR,
    Clause,
    ClauseSet,
    DiffConst,
    Equation,
    FreeTerm,
    GroundCmp,
    GroundTerm,
    GuardViolationError,
    PredAtom,
    Relation,
    SkolemDef,
    VarConst,
    VarVar,
)
from bsrsat.timed import ClockConstraint, TimedAutomaton, Transition

SLR_TEXT = """\
# full slr surface
mode slr
pred P : S^1 R^2
freeconst a b
skolem c d e
clause [x < 1; c <= d; def e != 2*c + 1] [P(a, x, y)] -> [P(b, y, y)]
"""

TA_TEXT = """\
clocks x y
loc a init inv x <= 1
loc b inv true
trans a -> b guard x >= 1, x - y < 2 reset {x}
"""


# --- clause files -----------------------------------------------------------


def test_parse_clause_set_full_surface():
    cs = parse_clause_set(SLR_TEXT)
    assert cs.mode == MODE_SLR
    assert cs.signature == {"P": (1, 2)}
    assert cs.fconsts == ("a", "b")
    assert cs.skolems == ("c", "d", "e")
    (cl,) = cs.clauses
    assert len(cl.lam) == 3 and len(cl.gamma) == 1 and len(cl.delta) == 1


def test_clause_set_print_parse_identity():
    cs = parse_clause_set(SLR_TEXT)
    assert parse_clause_set(print_clause_set(cs)) == cs


def test_parse_rejects_missing_clause_bracket():
    with pytest.raises(ParseError) as exc:
        parse_clause_set("mode slr\npred P : S^1 R^1\nclause [x <] [] -> []\n")
    assert exc.value.line == 3
    assert exc.value.col > 0


def test_parse_rejects_undeclared_predicate():
    text = "mode bd\npred P : S^0 R^1\nfreeconst a\nclause [] [] -> [Q(x)]\n"
    with pytest.raises(ParseError, match="undeclared predicate 'Q'"):
        parse_clause_set(text)


def test_parse_rejects_redeclared_constant():
    with pytest.raises(ParseError, match="redeclaration"):
        parse_clause_set("mode slr\nfreeconst a\nskolem a\n")


def test_parse_rejects_unguarded_difference():
    text = (
        "mode bd\npred P : S^0 R^2\nfreeconst a\n"
        "clause [x - y <= 1] [] -> [P(x, y)]\n"
    )
    with pytest.raises(GuardViolationError, match="x - y <= 1"):
        parse_clause_set(text)


def test_parse_rejects_skolem_in_bd():
    text = "mode bd\nskolem d\npred P : S^0 R^1\nfreeconst a\n"
    with pytest.raises((ParseError, Exception)):
        parse_clause_set(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_clause_set("mode slr\nclaws []\n")
    assert exc.value.line == 2


def test_parse_equation_atoms():
    text = (
        "mode bd\npred P : S^1 R^1\nfreeconst a b\n"
        "clause [] [u ~ a] -> [P(u, x); a ~ b]\n"
    )
    cs = parse_clause_set(text)
    (cl,) = cs.clauses
    assert len(cl.gamma) == 1
    assert parse_clause_set(print_clause_set(cs)) == cs


def test_round_trip_generated_bd_sets():
    rng = random.Random(11)
    for _ in range(25):
        cs = corpus._raw_bd(rng)
        assert parse_clause_set(print_clause_set(cs)) == cs


def test_round_trip_generated_slr_sets():
    rng = random.Random(12)
    for _ in range(25):
        cs = corpus._raw_slr(rng)
        assert parse_clause_set(print_clause_set(cs)) == cs


# the name and keyword checks of both formats: one case per place that
# takes a name or a keyword token, with the message and column it reports
@pytest.mark.parametrize("parse, text, message", [
    (parse_clause_set, "mode bd\n(x\n",
     "line 2, col 1: expected a declaration or clause, found '('"),
    (parse_clause_set, "mode bd\npred 1 : S^0 R^1\n",
     "line 2, col 6: expected a predicate name, found '1'"),
    (parse_clause_set, "mode bd\nfreeconst a 2\n",
     "line 2, col 13: expected a name, found '2'"),
    (parse_clause_set, "mode slr\nskolem c ,\n",
     "line 2, col 10: expected a name, found ','"),
    (parse_clause_set, "mode bd\npred P : S^0 R^1\nclause [] [] -> [1]\n",
     "line 3, col 18: expected an atom, found '1'"),
    (parse_ta, "clocks x\n-> a\n",
     "line 2, col 1: expected a declaration, found '->'"),
    (parse_ta, "clocks x\nloc 3 init inv true\n",
     "line 2, col 5: expected a location name, found '3'"),
    (parse_ta, "clocks x\nloc a init x <= 1\n",
     "line 2, col 12: expected 'inv', found 'x'"),
    (parse_ta, "clocks x\nloc a init\n",
     "line 2, col 11: expected 'inv', found end of line"),
    (parse_ta, "clocks x\nloc a init inv true\ntrans a -> a reset {}\n",
     "line 3, col 14: expected 'guard', found 'reset'"),
    (parse_ta, "clocks x\nloc a init inv true\ntrans a -> a guard true {x}\n",
     "line 3, col 25: expected 'reset', found '{'"),
    # the errors raised at the token in hand, or at the end of the line
    (parse_clause_set, "mode bd\nfreeconst\n",
     "line 2, col 10: freeconst needs at least one name"),
    (parse_clause_set, "mode slr\nskolem\n",
     "line 2, col 7: skolem needs at least one name"),
    (parse_ta, "clocks\n",
     "line 1, col 7: clocks needs at least one name"),
    (parse_clause_set, "mode bd\npred P : S^0 R^1\nclause [x <\n",
     "line 3, col 12: expected a ground term"),
    (parse_clause_set, "mode bd\npred P : S^0 R^1\nclause [] [P] -> []\n",
     "line 3, col 13: expected '~' or '(' after atom head"),
    (parse_ta, "clocks x y\nloc a init inv true\nloc b inv true\n"
               "trans a -> b guard x < 1 y reset {}\n",
     "line 4, col 26: expected ',' or 'reset'"),
])
def test_name_and_keyword_errors_keep_their_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def _parse_goal(text):
    return parse_goal(text, parse_ta(TA_TEXT))


_SLR_HEAD = "mode slr\npred P : S^1 R^1\nfreeconst a\nskolem c\n"
_BD_HEAD = "mode bd\npred P : S^0 R^1\nfreeconst a\n"
_BD2_HEAD = "mode bd\npred P : S^0 R^2\nfreeconst a\n"
_TA_HEAD = "clocks x\nloc a init inv true\n"


# one malformed input per place that raises a ParseError, with the message,
# line and column it reports
@pytest.mark.parametrize("parse, text, line, col, message", [
    # tokens and the token stream
    (parse_clause_set, "mode bd\nfreeconst a $\n", 2, 13, "unexpected character '$'"),
    (parse_clause_set, "mode\n", 1, 5, "expected a mode, found end of line"),
    (parse_clause_set, "mode bd\npred P S^0 R^1\n", 2, 8, "expected ':', found 'S'"),
    (parse_clause_set, "mode bd\n(x\n", 2, 1, "expected a declaration or clause, found '('"),
    (parse_clause_set, "mode bd x\n", 1, 9, "unexpected trailing 'x'"),
    (parse_clause_set, "mode bd\npred P : S^0 R^2\nfreeconst a\nclause [x - y 1] [] -> []\n",
     4, 15, "expected a relation, found '1'"),
    (parse_clause_set, _BD2_HEAD + "clause [x - y < a] [] -> []\n",
     4, 17, "expected a number, found 'a'"),
    (parse_clause_set, _SLR_HEAD + "clause [x < 1/0] [] -> []\n",
     5, 13, "zero denominator in rational literal"),
    # declarations
    (parse_clause_set, "mode bd\nmode bd\n", 2, 1, "duplicate mode declaration"),
    (parse_clause_set, "mode lra\n", 1, 6, "unknown mode 'lra' (use slr or bd)"),
    (parse_clause_set, "mode bd\npred P : S^0 R^1\npred P : S^0 R^1\n",
     3, 6, "redeclaration of predicate 'P'"),
    (parse_clause_set, "mode bd\npred P : T^0 R^1\n", 2, 10, "expected sort 'S', found 'T'"),
    (parse_clause_set, "mode bd\npred P : S^1/2 R^1\n",
     2, 12, "expected an integer arity, found '1/2'"),
    (parse_clause_set, "mode bd\nfreeconst\n", 2, 10, "freeconst needs at least one name"),
    (parse_clause_set, "mode slr\nfreeconst a\nskolem a\n", 3, 8, "redeclaration of constant 'a'"),
    (parse_clause_set, "pred P : S^0 R^1\nclause [] [] -> [P(x)]\n",
     2, 1, "mode must be declared before clauses"),
    (parse_clause_set, "mode bd\nclaws []\n", 2, 1, "unknown declaration 'claws'"),
    (parse_clause_set, "pred P : S^0 R^1\n", 1, 1, "missing mode declaration"),
    # constraints and ground terms
    (parse_clause_set, _SLR_HEAD + "clause [\n", 5, 9, "expected a constraint"),
    (parse_clause_set, _SLR_HEAD + "clause [def x != 1] [] -> []\n",
     5, 13, "def requires a declared Skolem constant, got 'x'"),
    (parse_clause_set, _SLR_HEAD + "clause [a < 1] [] -> []\n",
     5, 9, "free constant 'a' cannot appear in a constraint"),
    (parse_clause_set, _SLR_HEAD + "clause [x < a] [] -> [P(a, x)]\n",
     5, 13, "free constant 'a' cannot appear in a constraint"),
    (parse_clause_set, _BD_HEAD + "clause [x - 1 < 2] [] -> []\n",
     4, 13, "difference constraints take two variables"),
    (parse_clause_set, _SLR_HEAD + "clause [x < 1 +\n", 5, 16, "expected a ground term"),
    (parse_clause_set, _SLR_HEAD + "clause [x < (] [] -> []\n",
     5, 13, "expected a ground term, found '('"),
    (parse_clause_set, _SLR_HEAD + "clause [c < 2*e] [] -> []\n",
     5, 15, "undeclared Skolem constant 'e'"),
    # atoms
    (parse_clause_set, _BD_HEAD + "clause [] [] -> [Q(x)]\n", 4, 18, "undeclared predicate 'Q'"),
    (parse_clause_set, _BD_HEAD + "clause [] [] -> [P(x, y)]\n",
     4, 18, "P expects 1 arguments (S^0 R^1), got 2"),
    (parse_clause_set, _BD_HEAD + "clause [] [] -> [P(a)]\n",
     4, 20, "base-sort arguments must be variables, got 'a'"),
    (parse_clause_set, _BD_HEAD + "clause [] [P] -> []\n",
     4, 13, "expected '~' or '(' after atom head"),
    (parse_clause_set, _SLR_HEAD + "clause [] [] -> [P(1, x)]\n",
     5, 20, "expected a free-sort term, found '1'"),
    (parse_clause_set, _SLR_HEAD + "clause [] [] -> [P(c, x)]\n",
     5, 20, "Skolem constant 'c' in a free-sort position"),
    # automaton files
    (parse_ta, "clocks x\nclocks y\n", 2, 1, "duplicate clocks declaration"),
    (parse_ta, "clocks\n", 1, 7, "clocks needs at least one name"),
    (parse_ta, "clocks x'\n", 1, 8, "bad clock name \"x'\""),
    (parse_ta, "clocks x x\n", 1, 10, "duplicate clock 'x'"),
    (parse_ta, _TA_HEAD + "loc a inv true\n", 3, 5, "duplicate location 'a'"),
    (parse_ta, _TA_HEAD + "loc b init inv true\n", 3, 5, "more than one initial location"),
    (parse_ta, _TA_HEAD + "trans a -> q guard true reset {}\n", 3, 12, "unknown location 'q'"),
    (parse_ta, _TA_HEAD + "trans a -> a guard true reset {z}\n", 3, 32, "unknown clock 'z'"),
    (parse_ta, "clocks x\nlocation a\n", 2, 1, "unknown declaration 'location'"),
    (parse_ta, "clocks x\nloc a inv true\n", 1, 1, "no location is marked init"),
    (parse_ta, "clocks x y\nloc a init inv true\ntrans a -> a guard x < 1 y reset {}\n",
     3, 26, "expected ',' or 'reset'"),
    (parse_ta, "clocks x\nloc a init inv w <= 1\n", 2, 16, "unknown clock 'w'"),
    (parse_ta, "clocks x\nloc a init inv x - w <= 1\n", 2, 20, "unknown clock 'w'"),
    (parse_ta, "clocks x\nloc a init inv x < 1/2\n",
     2, 20, "clock constraint constant must be an integer, got 1/2"),
    # goal strings
    (_parse_goal, "q: x < 1", 1, 1, "unknown goal location 'q'"),
    (_parse_goal, "b: y $ 1", 1, 6, "unexpected character '$'"),
    (_parse_goal, "b: x <", 1, 7, "expected number, found end of line"),
    (_parse_goal, "b: x < 1 y", 1, 10, "unexpected trailing 'y'"),
])
def test_every_parse_error_site_keeps_its_message_and_position(parse, text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"line {line}, col {col}: {message}"
    assert (exc.value.line, exc.value.col) == (line, col)


# drawn clause sets: both modes, compound ground terms, definitions,
# equations, negative and fractional constants and primed names
FCONSTS = ("a", "b'")
SKOLEMS = ("c", "d", "e'")
BASE_VARS = ("x", "y", "x'", "w_1")
FREE_VARS = ("u", "v'")
SIGNATURE = {"P": (1, 2), "Q": (0, 1), "R'": (2, 0)}

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
relations = st.sampled_from(list(Relation))


@st.composite
def ground_terms(draw, compound: bool):
    if not compound:
        return draw(st.one_of(rationals.map(GroundTerm.constant),
                              st.sampled_from(SKOLEMS).map(GroundTerm.skolem)))
    coeffs = draw(st.dictionaries(st.sampled_from(SKOLEMS), rationals, max_size=3))
    return GroundTerm.make(draw(rationals), coeffs)


@st.composite
def slr_constraints(draw):
    var = st.sampled_from(BASE_VARS)
    return draw(st.one_of(
        st.builds(VarConst, var, relations, ground_terms(compound=True)),
        st.builds(VarVar, var, relations, var),
        st.builds(GroundCmp, ground_terms(compound=True), relations, ground_terms(compound=True)),
        st.builds(SkolemDef, st.sampled_from(SKOLEMS), ground_terms(compound=True)),
    ))


@st.composite
def bd_constraints(draw):
    x, y = draw(st.sampled_from(BASE_VARS)), draw(st.sampled_from(BASE_VARS))
    kind = draw(st.sampled_from(("bound", "varvar", "diff")))
    if kind == "bound":
        return [VarConst(x, draw(relations), GroundTerm.constant(draw(rationals)))]
    if kind == "varvar":
        return [VarVar(x, draw(relations), y)]
    # a difference over two variables needs two-sided bounds on both
    guard = [VarConst(v, rel, GroundTerm.constant(draw(rationals)))
             for v in {x, y} for rel in (Relation.GE, Relation.LT)]
    return [DiffConst(x, y, draw(relations), draw(rationals)), *guard]


free_terms = st.one_of(st.sampled_from(FCONSTS).map(lambda n: FreeTerm(n, True)),
                       st.sampled_from(FREE_VARS).map(lambda n: FreeTerm(n, False)))


@st.composite
def atoms(draw):
    pred = draw(st.sampled_from(sorted(SIGNATURE) + ["~"]))
    if pred == "~":
        return Equation(draw(free_terms), draw(free_terms))
    mf, mb = SIGNATURE[pred]
    return PredAtom(pred, tuple(draw(free_terms) for _ in range(mf)),
                    tuple(draw(st.sampled_from(BASE_VARS)) for _ in range(mb)))


@st.composite
def clause_sets(draw):
    mode = draw(st.sampled_from((MODE_SLR, MODE_BD)))
    clauses = []
    for _ in range(draw(st.integers(0, 4))):
        if mode == MODE_SLR:
            lam = draw(st.lists(slr_constraints(), max_size=4))
        else:
            lam = [c for cs in draw(st.lists(bd_constraints(), max_size=3)) for c in cs]
        gamma = draw(st.lists(atoms(), max_size=2))
        delta = draw(st.lists(atoms(), max_size=2))
        clauses.append(Clause.make(lam, gamma, delta))
    skolems = SKOLEMS if mode == MODE_SLR else ()
    cs = ClauseSet(mode, tuple(clauses), dict(SIGNATURE), FCONSTS, skolems)
    cs.validate()
    return cs


@settings(max_examples=200, deadline=None)
@given(clause_sets())
def test_drawn_clause_sets_print_and_parse_back(cs):
    text = print_clause_set(cs)
    back = parse_clause_set(text)
    assert back == cs
    assert print_clause_set(back) == text


CLOCKS = ("x", "y", "w")
LOCATIONS = ("l0", "l1", "l2'")


@st.composite
def clock_constraints(draw, clocks):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.sampled_from(clocks))
        c = Fraction(draw(st.integers(-3, 3)))
        if draw(st.booleans()):
            out.append(VarConst(x, draw(relations), GroundTerm.constant(c)))
        else:
            out.append(DiffConst(x, draw(st.sampled_from(clocks)), draw(relations), c))
    return ClockConstraint.make(out)


@st.composite
def automata(draw):
    clocks = CLOCKS[: draw(st.integers(1, 3))]
    locations = LOCATIONS[: draw(st.integers(1, 3))]
    invariants = {}
    for loc in locations:
        cc = draw(clock_constraints(clocks))
        if not cc.is_true:
            invariants[loc] = cc
    transitions = tuple(
        Transition(draw(st.sampled_from(locations)), draw(clock_constraints(clocks)),
                   frozenset(draw(st.sets(st.sampled_from(clocks)))),
                   draw(st.sampled_from(locations)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return TimedAutomaton(clocks, locations, draw(st.sampled_from(locations)),
                          invariants, transitions)


@settings(max_examples=200, deadline=None)
@given(automata())
def test_drawn_automata_print_and_parse_back(aut):
    text = print_ta(aut)
    back = parse_ta(text)
    assert back == aut
    assert print_ta(back) == text


# --- automaton files --------------------------------------------------------


def test_parse_ta_full_surface():
    aut = parse_ta(TA_TEXT)
    assert aut.clocks == ("x", "y")
    assert aut.locations == ("a", "b")
    assert aut.initial == "a"
    assert len(aut.transitions) == 1
    t = aut.transitions[0]
    assert t.source == "a" and t.target == "b" and t.resets == frozenset({"x"})


def test_ta_print_parse_identity():
    aut = parse_ta(TA_TEXT)
    assert parse_ta(print_ta(aut)) == aut


def test_parse_ta_rejects_fractional_constant():
    with pytest.raises(ParseError, match="integer"):
        parse_ta("clocks x\nloc a init inv x < 1/2\n")


def test_parse_ta_rejects_unknown_clock_in_reset():
    text = "clocks x\nloc a init inv true\ntrans a -> a guard true reset {z}\n"
    with pytest.raises(ParseError, match="unknown clock 'z'"):
        parse_ta(text)


def test_parse_ta_rejects_unknown_location():
    text = "clocks x\nloc a init inv true\ntrans a -> q guard true reset {}\n"
    with pytest.raises(ParseError, match="unknown location 'q'"):
        parse_ta(text)


def test_round_trip_generated_automata():
    rng = random.Random(13)
    for _ in range(25):
        aut, _ = corpus._raw_automaton(rng)
        assert parse_ta(print_ta(aut)) == aut


# --- goal strings -----------------------------------------------------------


def test_parse_goal_with_constraint():
    aut = parse_ta(TA_TEXT)
    q = parse_goal("b: x - y >= 1", aut)
    assert q.location == "b"
    assert q.constraint.atoms[0].rel == Relation.GE


def test_parse_goal_bare_location():
    aut = parse_ta(TA_TEXT)
    q = parse_goal("b", aut)
    assert q.location == "b"
    assert not q.constraint.atoms


def test_parse_goal_rejects_unknown_location():
    aut = parse_ta(TA_TEXT)
    with pytest.raises(ParseError, match="unknown goal location"):
        parse_goal("q: x < 1", aut)


@pytest.mark.parametrize("goal, col, message", [
    ("b: y $ 1", 6, "unexpected character '\\$'"),
    ("b : z < 1", 5, "unknown clock 'z'"),
    ("   q: x < 1", 4, "unknown goal location 'q'"),
])
def test_parse_goal_errors_count_columns_from_the_goal_start(goal, col, message):
    aut = parse_ta(TA_TEXT)
    with pytest.raises(ParseError, match=message) as exc:
        parse_goal(goal, aut)
    assert (exc.value.line, exc.value.col) == (1, col)
