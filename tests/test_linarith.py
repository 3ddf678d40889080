"""Exact Fourier-Motzkin over rationals with disequation case splits."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bsrsat.linarith import GroundSystem, fm_project, solve_ground
from bsrsat.terms import GroundTerm, Relation

C = GroundTerm.constant
S = GroundTerm.skolem


def term(offset=0, **coeffs):
    return GroundTerm.make(offset, coeffs)


def holds(left, rel, right, assign):
    return rel.holds(left.evaluate(assign), right.evaluate(assign))


def names_of(sys):
    return {n for left, _, right in sys.constraints for n in left.skolems() | right.skolems()}


def check_witness(sys, assign):
    assert assign is not None
    for left, rel, right in sys.constraints:
        assert holds(left, rel, right, assign), (left, rel, right, assign)


# --- basic verdicts ---------------------------------------------------------


def test_empty_system_is_sat():
    assert solve_ground(GroundSystem()) == {}


def test_unconstrained_names_default_to_zero():
    assert solve_ground(GroundSystem(), names=["d", "e"]) == {
        "d": Fraction(0),
        "e": Fraction(0),
    }


def test_simple_interval():
    sys = GroundSystem()
    sys.add(S("d"), Relation.GE, C(1))
    sys.add(S("d"), Relation.LE, C(3))
    w = solve_ground(sys)
    check_witness(sys, w)


def test_contradictory_bounds():
    sys = GroundSystem()
    sys.add(S("d"), Relation.LT, C(0))
    sys.add(S("d"), Relation.GT, C(0))
    assert solve_ground(sys) is None


def test_strict_chain_needs_room():
    # d < e < d + 0 has no solution; d < e < d + 1 does
    bad = GroundSystem()
    bad.add(S("d"), Relation.LT, S("e"))
    bad.add(S("e"), Relation.LT, S("d"))
    assert solve_ground(bad) is None
    good = GroundSystem()
    good.add(S("d"), Relation.LT, S("e"))
    good.add(S("e"), Relation.LT, term(1, d=1))
    check_witness(good, solve_ground(good))


def test_equalities_propagate():
    sys = GroundSystem()
    sys.add(S("d"), Relation.EQ, term(2, e=1))
    sys.add(S("e"), Relation.EQ, C("1/2"))
    w = solve_ground(sys)
    check_witness(sys, w)
    assert w["d"] == Fraction(5, 2)


def test_neq_alone_is_sat():
    sys = GroundSystem()
    sys.add(S("d"), Relation.NEQ, C(0))
    w = solve_ground(sys)
    check_witness(sys, w)


def test_neq_squeezed_to_point_is_unsat():
    sys = GroundSystem()
    sys.add(S("d"), Relation.GE, C(1))
    sys.add(S("d"), Relation.LE, C(1))
    sys.add(S("d"), Relation.NEQ, C(1))
    assert solve_ground(sys) is None


def test_neq_case_split_finds_gap():
    # d in [0, 2], d != 1: both branches exist
    sys = GroundSystem()
    sys.add(S("d"), Relation.GE, C(0))
    sys.add(S("d"), Relation.LE, C(2))
    sys.add(S("d"), Relation.NEQ, C(1))
    check_witness(sys, solve_ground(sys))


def test_many_neqs_force_search():
    # d in [0, 1] with five forbidden points still has room
    sys = GroundSystem()
    sys.add(S("d"), Relation.GE, C(0))
    sys.add(S("d"), Relation.LE, C(1))
    for k in range(5):
        sys.add(S("d"), Relation.NEQ, C(Fraction(k, 4)))
    w = solve_ground(sys)
    check_witness(sys, w)


def test_ground_contradiction_without_variables():
    sys = GroundSystem()
    sys.add(C(1), Relation.LT, C(0))
    assert solve_ground(sys) is None
    tauto = GroundSystem()
    tauto.add(C(0), Relation.LE, C(1))
    assert solve_ground(tauto) == {}


def test_ground_neq_verdicts():
    sys = GroundSystem()
    sys.add(C(1), Relation.NEQ, C(1))
    assert solve_ground(sys) is None
    ok = GroundSystem()
    ok.add(C(1), Relation.NEQ, C(2))
    assert solve_ground(ok) == {}


# --- projection -------------------------------------------------------------


def test_fm_project_drops_variable():
    sys = GroundSystem()
    sys.add(S("d"), Relation.LE, S("e"))
    sys.add(S("e"), Relation.LE, C(3))
    sys.add(S("d"), Relation.GE, C(0))
    proj = fm_project(sys, "e")
    assert "e" not in names_of(proj)
    # 0 <= d <= 3 survives
    assert solve_ground(proj) is not None


def test_fm_project_preserves_satisfiability():
    sys = GroundSystem()
    sys.add(S("d"), Relation.GT, C(0))
    sys.add(S("e"), Relation.GT, S("d"))
    sys.add(S("e"), Relation.LT, C(0))
    proj = fm_project(sys, "e")
    assert solve_ground(sys) is None
    assert solve_ground(proj) is None


def test_fm_project_passthrough_unrelated():
    sys = GroundSystem()
    sys.add(S("d"), Relation.LE, C(1))
    proj = fm_project(sys, "e")
    assert proj.constraints == sys.constraints


# --- randomized agreement ---------------------------------------------------

rel_st = st.sampled_from(
    [Relation.LE, Relation.LT, Relation.GE, Relation.GT, Relation.EQ, Relation.NEQ]
)
coef_st = st.integers(-2, 2)
rhs_st = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(coef_st, coef_st, rel_st, rhs_st), min_size=1, max_size=6
    )
)
def test_witness_always_satisfies(rows):
    sys = GroundSystem()
    for a, b, rel, c in rows:
        sys.add(term(0, d=a, e=b), rel, C(c))
    w = solve_ground(sys, names=["d", "e"])
    if w is not None:
        check_witness(sys, w)
        assert set(w) == {"d", "e"}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(coef_st, rel_st, st.integers(-2, 2)), min_size=1, max_size=5
    )
)
def test_one_var_verdict_matches_interval_reasoning(rows):
    sys = GroundSystem()
    for a, rel, c in rows:
        sys.add(term(0, d=a), rel, C(c))
    w = solve_ground(sys)
    # reference: scan candidate rationals (endpoints, midpoints, outliers)
    anchors = sorted({Fraction(c, a) for a, _, c in rows if a != 0} | {Fraction(0)})
    cands = set(anchors) | {Fraction(-10), Fraction(10)}
    cands |= {(x + y) / 2 for x, y in zip(anchors, anchors[1:])}
    ref_sat = any(
        all(rel.holds(a * v, Fraction(c)) for a, rel, c in rows) for v in cands
    )
    assert (w is not None) == ref_sat
    if w is not None:
        check_witness(sys, w)


ordered_st = st.sampled_from(
    [Relation.LE, Relation.LT, Relation.GE, Relation.GT, Relation.EQ]
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(coef_st, coef_st, coef_st, ordered_st, rhs_st), min_size=1, max_size=6
    ),
    st.lists(st.tuples(coef_st, coef_st, rhs_st), max_size=2),
)
def test_fm_project_eliminates_and_keeps_satisfiability(rows, neqs):
    sys = GroundSystem()
    for a, b, c, rel, q in rows:
        sys.add(term(0, d=a, e=b, f=c), rel, C(q))
    for a, c, q in neqs:  # disequations without e pass through
        sys.add(term(0, d=a, f=c), Relation.NEQ, C(q))
    proj = fm_project(sys, "e")
    assert "e" not in names_of(proj)
    assert (solve_ground(proj) is None) == (solve_ground(sys) is None)


def test_solve_is_deterministic():
    sys = GroundSystem()
    sys.add(S("d"), Relation.GE, C(0))
    sys.add(S("d"), Relation.LE, C(4))
    sys.add(S("d"), Relation.NEQ, C(2))
    sys.add(S("e"), Relation.GT, S("d"))
    assert solve_ground(sys) == solve_ground(sys)
