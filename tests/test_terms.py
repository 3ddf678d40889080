"""Core term, constraint, and clause layer."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsrsat.terms import (
    Clause,
    ClauseSet,
    DiffConst,
    FloatRejectedError,
    FragmentError,
    FreeTerm,
    GroundCmp,
    GroundTerm,
    GuardViolationError,
    MODE_BD,
    MODE_SLR,
    PredAtom,
    Relation,
    SortDisciplineError,
    VarConst,
    VarVar,
    eval_constraint,
    rat,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


# --- rationals ---------------------------------------------------------------


def test_rat_accepts_exact_inputs():
    assert rat(3) == Fraction(3)
    assert rat("2/7") == Fraction(2, 7)
    assert rat(Fraction(-1, 2)) == Fraction(-1, 2)
    f = Fraction(5, 3)
    assert rat(f) is f


def test_rat_rejects_floats():
    with pytest.raises(FloatRejectedError):
        rat(0.5)


# --- ground terms ----------------------------------------------------------


def test_ground_term_make_drops_zero_coeffs():
    t = GroundTerm.make(1, {"d": 0, "e": 2})
    assert t.coeffs == (("e", Fraction(2)),)
    assert not t.is_rational


def test_ground_term_classification():
    assert GroundTerm.constant(Fraction(1, 2)).is_rational
    d = GroundTerm.skolem("d")
    assert d.is_skolem
    assert d.is_constant_ref
    assert not GroundTerm.make(1, {"d": 1}).is_constant_ref


def test_ground_term_arithmetic():
    a = GroundTerm.make(1, {"d": 2})
    assert a.sub(a) == GroundTerm.constant(0)
    assert a.scale(3).evaluate({"d": Fraction(1)}) == 9


@given(rationals, rationals, rationals)
def test_ground_term_evaluate_is_linear(o, c, v):
    t = GroundTerm.make(o, {"d": c})
    assert t.evaluate({"d": v}) == o + c * v
    assert t.scale(2).evaluate({"d": v}) == 2 * t.evaluate({"d": v})


def test_ground_term_str_round_readable():
    assert str(GroundTerm.make(0, {})) == "0"
    assert str(GroundTerm.make(-1, {"d": 1})) == "d - 1"


# --- relations and constraints ---------------------------------------------


def test_relation_flip_and_negate():
    assert Relation.LT.flip() is Relation.GT
    for r in Relation:
        assert r.flip().flip() is r


OPERATORS = {
    Relation.LT: operator.lt,
    Relation.LE: operator.le,
    Relation.EQ: operator.eq,
    Relation.NEQ: operator.ne,
    Relation.GE: operator.ge,
    Relation.GT: operator.gt,
}
INTS = st.integers(-4, 4)


@given(st.one_of(
    st.tuples(INTS, INTS),
    st.tuples(rationals, rationals),
    st.tuples(INTS, rationals),
    st.tuples(rationals, INTS),
))
def test_relation_holds_matches_python(pair):
    # ints, Fractions and mixed pairs: the class layer compares ints, the
    # semantic layer Fractions, and normalize a Fraction against 0
    a, b = pair
    assert set(OPERATORS) == set(Relation)
    for rel, op in OPERATORS.items():
        assert rel.holds(a, b) is op(a, b)


@given(rationals, rationals, rationals)
def test_eval_constraint_semantics(x, y, c):
    base = {"x": x, "y": y}
    assert eval_constraint(VarConst("x", Relation.LE, GroundTerm.constant(c)), base) == (x <= c)
    assert eval_constraint(VarVar("x", Relation.GT, "y"), base) == (x > y)
    assert eval_constraint(DiffConst("x", "y", Relation.LT, c), base) == (x - y < c)
    assert eval_constraint(
        GroundCmp(GroundTerm.skolem("d"), Relation.EQ, GroundTerm.constant(c)),
        {},
        {"d": c},
    )


def test_eval_constraint_skolem_lookup():
    vc = VarConst("x", Relation.GE, GroundTerm.skolem("d"))
    assert eval_constraint(vc, {"x": Fraction(1)}, {"d": Fraction(0)})
    assert not eval_constraint(vc, {"x": Fraction(-1)}, {"d": Fraction(0)})


# --- clauses ----------------------------------------------------------------


def atom(pred, *base, free=()):
    return PredAtom(pred, tuple(FreeTerm(f, True) for f in free), tuple(base))


def test_clause_make_is_canonical():
    lam = [VarVar("x", Relation.LT, "y"), VarConst("x", Relation.GE, GroundTerm.constant(0))]
    gamma = [atom("P", "x"), atom("Q", "y")]
    a = Clause.make(lam, gamma, [])
    b = Clause.make(list(reversed(lam)), list(reversed(gamma)), [])
    assert a == b


def test_clause_collects_variables_and_rationals():
    cl = Clause.make(
        [VarConst("x", Relation.LT, GroundTerm.constant("3/2"))],
        [atom("P", "x", "y")],
        [atom("P", "y", "x")],
    )
    assert set(cl.base_vars()) == {"x", "y"}
    assert Fraction(3, 2) in cl.rationals()


# --- clause sets and fragment discipline -----------------------------------


def sig(**preds):
    return dict(preds)


def test_clause_set_validate_bd_guard():
    guarded = Clause.make(
        [
            VarConst("x", Relation.GE, GroundTerm.constant(0)),
            VarConst("x", Relation.LE, GroundTerm.constant(1)),
            VarConst("y", Relation.GE, GroundTerm.constant(0)),
            VarConst("y", Relation.LE, GroundTerm.constant(1)),
            DiffConst("x", "y", Relation.LT, 1),
        ],
        [],
        [atom("P", "x", "y")],
    )
    cs = ClauseSet(MODE_BD, [guarded], sig(P=(0, 2)), fconsts=["a"])
    cs.validate()


def _bounds(var, *rels):
    return [VarConst(var, Relation(r), GroundTerm.constant(q)) for r, q in rels]


@pytest.mark.parametrize(
    "lam, message",
    [
        ([DiffConst("x", "y", Relation.LT, 1)], "x - y < 1 needs two-sided bounds on 'x'"),
        (
            _bounds("x", (">=", 0), ("<=", 1)) + _bounds("y", (">=", 0))
            + [DiffConst("x", "y", Relation.LT, 1)],
            "x - y < 1 needs two-sided bounds on 'y'",
        ),
        (
            _bounds("x", (">=", 0), ("<=", 1)) + _bounds("y", (">", 0), ("<", 1))
            + [DiffConst("x", "y", Relation.LT, 1), DiffConst("x", "z", Relation.LT, 1)],
            "x - z < 1 needs two-sided bounds on 'z'",
        ),
        (
            [DiffConst("x", "x", Relation.LT, 1), DiffConst("x", "y", Relation.LT, 1)],
            "x - y < 1 needs two-sided bounds on 'x'",
        ),
        (
            _bounds("x", ("=", 0)) + _bounds("y", (">=", 0))
            + [DiffConst("x", "y", Relation.LT, 1)],
            "x - y < 1 needs two-sided bounds on 'y'",
        ),
    ],
    ids=["bare", "y_lacks_upper", "second_of_two", "self_difference_unguarded", "eq_is_two_sided"],
)
def test_clause_set_validate_rejects_unguarded_diff(lam, message):
    cl = Clause.make(lam, [], [atom("P", "x", "y", "z")])
    cs = ClauseSet(MODE_BD, [cl], sig(P=(0, 3)), fconsts=["a"])
    with pytest.raises(GuardViolationError) as err:
        cs.validate()
    assert str(err.value) == f"difference constraint {message}"


def test_clause_set_validate_rejects_diff_in_slr():
    cl = Clause.make(
        [
            VarConst("x", Relation.GE, GroundTerm.constant(0)),
            VarConst("x", Relation.LE, GroundTerm.constant(1)),
            VarConst("y", Relation.GE, GroundTerm.constant(0)),
            VarConst("y", Relation.LE, GroundTerm.constant(1)),
            DiffConst("x", "y", Relation.LT, 1),
        ],
        [],
        [atom("P", "x", "y")],
    )
    cs = ClauseSet(MODE_SLR, [cl], sig(P=(0, 2)), fconsts=["a"])
    with pytest.raises(FragmentError):
        cs.validate()


def test_clause_set_validate_rejects_skolem_in_bd():
    cl = Clause.make(
        [VarConst("x", Relation.LE, GroundTerm.skolem("d"))],
        [],
        [atom("P", "x")],
    )
    cs = ClauseSet(MODE_BD, [cl], sig(P=(0, 1)), fconsts=["a"], skolems=["d"])
    with pytest.raises(FragmentError):
        cs.validate()


def test_clause_set_validate_rejects_arity_mismatch():
    cl = Clause.make([], [], [atom("P", "x")])
    cs = ClauseSet(MODE_SLR, [cl], sig(P=(1, 1)), fconsts=["a"])
    with pytest.raises(SortDisciplineError):
        cs.validate()
