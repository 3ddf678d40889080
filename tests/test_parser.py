"""Clause-file and automaton-file formats."""

import random

import pytest

from bsrsat import corpus
from bsrsat.parser import (
    ParseError,
    parse_clause_set,
    parse_goal,
    parse_ta,
    print_clause_set,
    print_ta,
)
from bsrsat.terms import GuardViolationError, MODE_SLR, Relation

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
    assert cs.fconsts == ["a", "b"]
    assert cs.skolems == ["c", "d", "e"]
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
