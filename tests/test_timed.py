"""Timed-automaton encoding and the region-graph oracle."""

import itertools
from fractions import Fraction

import pytest

from bsrsat.corpus import timed_instances
from bsrsat.decide import decide
from bsrsat.parser import parse_goal, parse_ta, print_ta
from bsrsat.normalize import normalize
from bsrsat.regions import class_of_bd, enumerate_bd_bounded, representative_bd
from bsrsat.report import STATUS_SAT, STATUS_UNSAT
from bsrsat.terms import (
    Clause,
    DeltaEq,
    DiffConst,
    GroundTerm,
    MODE_BD,
    MODE_FOLLA,
    Relation,
    VarConst,
)
from bsrsat.timed import (
    ClockConstraint,
    ReachQuery,
    TRUE_CC,
    TimedAutomaton,
    TimedAutomatonError,
    Transition,
    default_lambda,
    delay_profiles,
    delay_sets_equal_check,
    encode_fol_la,
    encode_reachability,
    lower_delay_clauses,
    profile_of_class,
    region_reach,
    time_successor,
)

DEMO = parse_ta(
    """clocks x y
loc work init inv x <= 2
loc idle inv true
trans work -> idle guard x >= 1 reset {x}
trans idle -> work guard true reset {y}
"""
)

LOCKSTEP = parse_ta(
    """clocks x y
loc a init inv true
loc b inv true
trans a -> b guard x <= 0 reset {}
"""
)


def cc(*atoms):
    return ClockConstraint.make(atoms)


def le(var, c):
    return VarConst(var, Relation.LE, GroundTerm.constant(c))


def ge(var, c):
    return VarConst(var, Relation.GE, GroundTerm.constant(c))


# --- clock constraints ------------------------------------------------------


def test_cc_rejects_fractional_constant():
    with pytest.raises(TimedAutomatonError, match="integer"):
        cc(le("x", Fraction(1, 2)))


def test_cc_holds():
    g = cc(ge("x", 1), DiffConst("x", "y", Relation.LT, 2))
    assert g.holds({"x": Fraction(2), "y": Fraction(1)})
    assert not g.holds({"x": Fraction(0), "y": Fraction(1)})
    assert TRUE_CC.holds({})
    assert g.max_const() == 2


# --- automaton validation, when an automaton is built -----------------------


def test_validate_accepts_demo():
    fields = (DEMO.clocks, DEMO.locations, DEMO.initial, DEMO.invariants, DEMO.transitions)
    assert TimedAutomaton(*fields) == DEMO


def test_validate_rejects_reserved_clock_names():
    for bad in ("x'", "z", "true"):
        with pytest.raises(TimedAutomatonError):
            TimedAutomaton((bad,), ("a",), "a")


def test_validate_rejects_unknown_references():
    with pytest.raises(TimedAutomatonError, match="initial"):
        TimedAutomaton(("x",), ("a",), "q")
    with pytest.raises(TimedAutomatonError, match="reset"):
        TimedAutomaton(
            ("x",),
            ("a",),
            "a",
            {},
            (Transition("a", TRUE_CC, frozenset({"w"}), "a"),),
        )
    with pytest.raises(TimedAutomatonError, match="unknown clock"):
        TimedAutomaton(("x",), ("a",), "a", {"a": cc(le("w", 1))})


def test_each_timed_path_checks_the_automaton_once(monkeypatch):
    calls = []
    check = TimedAutomaton.__post_init__

    def counted(aut):
        calls.append(aut)
        check(aut)

    monkeypatch.setattr(TimedAutomaton, "__post_init__", counted)
    # the path of `bsrsat ta reach --backend both`: the parser builds the
    # automaton, and neither the encoding nor the oracle checks it again
    aut = parse_ta(print_ta(LOCKSTEP))
    goal = parse_goal("b: x >= 1", aut)
    decide(normalize(encode_reachability(aut, goal)))
    assert len(calls) == 1
    region_reach(aut, goal)
    assert len(calls) == 1
    assert not hasattr(TimedAutomaton, "validate")


def test_default_lambda():
    assert default_lambda(DEMO) == 4  # 2 clocks * max const 2
    assert default_lambda(DEMO, ReachQuery("idle", cc(ge("x", 3)))) == 6
    assert default_lambda(LOCKSTEP) == 1  # floor at 1 even with max const 0


# --- intermediate encoding --------------------------------------------------


def test_encode_fol_la_clause_count():
    cs = encode_fol_la(DEMO)
    assert cs.mode == MODE_FOLLA
    assert len(cs.clauses) == 1 + len(DEMO.locations) + len(DEMO.transitions)


def test_encode_fol_la_delay_clauses_per_location():
    cs = encode_fol_la(DEMO)
    delay = [
        cl
        for cl in cs.clauses
        if any(isinstance(c, DeltaEq) for c in cl.lam)
    ]
    assert len(delay) == len(DEMO.locations)


# --- delay lowering ---------------------------------------------------------


def test_delay_profiles_census():
    for lam in (1, 2, 3):
        assert len(delay_profiles(2, lam)) == 4 * lam + 3
    assert delay_profiles(1, 2) == [()]


def test_profile_of_class_reads_difference_cells():
    cls = class_of_bd([Fraction(3, 2), Fraction(1, 4)], 2, bounded=True)
    ((kind, k),) = profile_of_class(cls)
    assert kind == "open" and k == 1  # x - y in (1, 2)
    eq = class_of_bd([Fraction(1), Fraction(1)], 2, bounded=True)
    assert profile_of_class(eq) == (("eq", 0),)


def test_lower_delay_clause_count():
    lam = 2
    cs = encode_fol_la(DEMO)
    low = lower_delay_clauses(cs, lam)
    n_delay = len(DEMO.locations)
    n_rest = len(cs.clauses) - n_delay
    assert len(low.clauses) == n_rest + n_delay * len(delay_profiles(2, lam))
    for cl in low.clauses:
        assert not any(isinstance(c, DeltaEq) for c in cl.lam)


def test_lower_delay_rejects_bad_lambda():
    with pytest.raises(ValueError):
        lower_delay_clauses(encode_fol_la(DEMO), 0)


# --- region successor -------------------------------------------------------


def test_time_successor_chain_from_origin():
    cls = class_of_bd([Fraction(0), Fraction(0)], 1, bounded=True)
    reps = []
    while cls is not None:
        reps.append(representative_bd(cls))
        cls = time_successor(cls)
    assert reps[0] == (Fraction(0), Fraction(0))
    # alternates point/segment regions along the diagonal until the top
    # segment (1, 2)^2 has no in-box successor
    assert reps == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(1)),
        (Fraction(3, 2), Fraction(3, 2)),
    ]


def test_time_successor_never_skips_a_region():
    lam = 2
    for cls in enumerate_bd_bounded(2, lam, floor_lo=0):
        succ = time_successor(cls)
        rep = representative_bd(cls)
        hit = []
        for n in range(1, 24 * (lam + 1)):
            d = Fraction(n, 24)
            shifted = tuple(v + d for v in rep)
            if any(v >= lam + 1 for v in shifted):
                break
            c = class_of_bd(shifted, lam, bounded=True)
            if c != cls and (not hit or c != hit[-1]):
                hit.append(c)
        if succ is None:
            assert not hit
        else:
            assert hit and hit[0] == succ


# --- delay-set equivalence --------------------------------------------------


@pytest.mark.parametrize("lam", [1])
def test_delay_sets_equal_on_all_box_regions(lam):
    for cls in enumerate_bd_bounded(2, lam, floor_lo=0):
        assert delay_sets_equal_check(cls, lam)


def test_delay_sets_equal_on_all_three_clock_box_regions():
    # the lemma at the arity of the three-clock goals, with lambda = 1
    sources = list(enumerate_bd_bounded(3, 1, floor_lo=0))
    assert len(sources) == 208
    assert all(delay_sets_equal_check(cls, 1) for cls in sources)


def test_delay_sets_check_requires_matching_kappa():
    cls = class_of_bd([Fraction(0), Fraction(0)], 1, bounded=True)
    with pytest.raises(ValueError):
        delay_sets_equal_check(cls, 2)


# --- reachability: oracle and encoding --------------------------------------


def test_region_reach_hand_verdicts():
    # LOCKSTEP: the a->b edge fires only at x = 0, so in b both clocks agree
    assert region_reach(LOCKSTEP, ReachQuery("b", TRUE_CC))
    assert region_reach(LOCKSTEP, ReachQuery("b", cc(ge("x", 1))))
    assert not region_reach(
        LOCKSTEP, ReachQuery("b", cc(DiffConst("x", "y", Relation.GE, 1)))
    )
    # DEMO: reaching idle needs x >= 1 first, and x resets on entry
    assert region_reach(DEMO, ReachQuery("idle", TRUE_CC))
    assert not region_reach(
        DEMO, ReachQuery("idle", cc(DiffConst("x", "y", Relation.GT, 0)))
    )


def test_region_reach_initial_location_is_reachable():
    assert region_reach(LOCKSTEP, ReachQuery("a", TRUE_CC))


def test_encode_reachability_matches_oracle_on_hand_cases():
    cases = [
        (LOCKSTEP, ReachQuery("b", TRUE_CC)),
        (LOCKSTEP, ReachQuery("b", cc(ge("x", 1)))),
        (LOCKSTEP, ReachQuery("b", cc(DiffConst("x", "y", Relation.GE, 1)))),
    ]
    for aut, query in cases:
        want = region_reach(aut, query)
        cs = encode_reachability(aut, query)
        assert cs.mode == MODE_BD
        got = decide(normalize(cs)).status
        assert got == (STATUS_UNSAT if want else STATUS_SAT)


def test_encode_reachability_rejects_unknown_goal():
    # the oracle shares the encoding's goal check, so both raise alike
    bad = [
        (ReachQuery("q", TRUE_CC), "unknown goal location 'q'"),
        (ReachQuery("b", cc(le("w", 1))), "unknown clock in goal constraint w <= 1"),
    ]
    for query, message in bad:
        for entry in (encode_reachability, region_reach):
            with pytest.raises(TimedAutomatonError) as exc:
                entry(LOCKSTEP, query)
            assert str(exc.value) == message


def test_lambda_monotone_verdicts():
    # enlarging the box beyond the default cannot change the verdict
    query = ReachQuery("b", cc(ge("x", 1)))
    base = region_reach(LOCKSTEP, query)
    for lam in (2, 3, 4):
        assert region_reach(LOCKSTEP, query, lam) == base
    cs = encode_reachability(LOCKSTEP, query, 2)
    got = decide(normalize(cs)).status
    assert got == (STATUS_UNSAT if base else STATUS_SAT)


def test_goal_string_round_trip():
    q = parse_goal("idle: x - y >= 1", DEMO)
    assert str(q) == "idle:x - y >= 1"


def test_no_timed_instances_asked_none_drawn():
    assert timed_instances(0, 0) == []
