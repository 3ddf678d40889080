"""Normal-form pipeline stages and the validator."""

import copy
import random
from fractions import Fraction

import pytest

from bsrsat import corpus, decide as decide_mod, normalize as normalize_mod
from bsrsat.decide import decide, naive_decide
from bsrsat.normalize import (
    NormalFormError,
    eliminate_constraint_only_vars,
    normalize,
    pad_predicates,
    rename_apart,
    scale_to_integers,
    split_ground_terms,
    validate_normal_form,
)
from bsrsat.parser import parse_clause_set, parse_goal, parse_ta, print_clause_set
from bsrsat.terms import (
    Clause,
    ClauseSet,
    DeltaEq,
    DiffConst,
    FragmentError,
    FreeTerm,
    GroundCmp,
    GroundTerm,
    MODE_BD,
    MODE_FOLLA,
    MODE_SLR,
    PredAtom,
    Relation,
    SkolemDef,
    VarConst,
    VarVar,
)
from bsrsat.timed import encode_reachability

# Three clocks at default lambda 3: goal l2: y < 1 is reachable, l2: y - w > 0
# is not.
THREE_CLOCKS = parse_ta(
    """clocks x y w
loc l0 init inv x <= 1
loc l1 inv true
loc l2 inv true
trans l0 -> l1 guard x >= 1 reset {y}
trans l1 -> l2 guard w > 1 reset {x}
"""
)


def atom(pred, *base, free=()):
    return PredAtom(pred, tuple(FreeTerm(f, True) for f in free), tuple(base))


def bd_set(clauses, signature, fconsts=("a",)):
    return ClauseSet(MODE_BD, tuple(clauses), dict(signature), tuple(fconsts))


def slr_set(clauses, signature, fconsts=("a",), skolems=()):
    return ClauseSet(MODE_SLR, tuple(clauses), dict(signature), tuple(fconsts), tuple(skolems))


# --- padding ----------------------------------------------------------------


def test_pad_unifies_mixed_sorts():
    cs = slr_set(
        [
            Clause.make([], [], [atom("P", "x", free=("a",))]),
            Clause.make([], [], [atom("Q", "x", "y", free=("a", "a"))]),
        ],
        {"P": (1, 1), "Q": (2, 2)},
    )
    out = pad_predicates(cs)
    assert out.signature == {"P": (2, 2), "Q": (2, 2)}
    for cl in out.clauses:
        for a in cl.gamma + cl.delta:
            assert len(a.free_args) == 2 and len(a.base_args) == 2


def test_pad_is_identity_on_uniform_signature():
    cs = bd_set([Clause.make([], [], [atom("P", "x")])], {"P": (0, 1)})
    assert pad_predicates(cs).clauses == cs.clauses


def test_stages_with_nothing_to_change_return_their_input():
    cl = Clause.make([VarConst("x", Relation.LT, GroundTerm.constant(1))], [], [atom("P", "x")])
    cs = bd_set([cl], {"P": (0, 1)})
    assert pad_predicates(cs) is cs
    assert scale_to_integers(cs) is cs


def test_normalize_leaves_its_argument_unchanged():
    # mixed sorts (padding), a fraction (scaling), a constraint-only w
    # (elimination), a compound bound (splitting) and no free constant
    sets = [parse_clause_set(
        "mode bd\npred P : S^0 R^1\npred Q : S^1 R^2\n"
        "clause [x >= 0; x <= 1/2; w != x] [] -> [P(x)]\n"
        "clause [] [P(y)] -> [Q(u, y, y)]\n"
    ), parse_clause_set(
        "mode slr\npred P : S^0 R^1\nskolem d\nclause [x <= d + 1] [] -> [P(x)]\n"
    )]
    rng = random.Random(3)
    sets += [(corpus._raw_bd, corpus._raw_slr)[k % 2](rng) for k in range(20)]
    for cs in sets:
        before = copy.deepcopy(cs)
        normalize(cs)
        assert cs == before


def test_pad_repeats_one_fresh_variable_per_occurrence():
    cs = slr_set(
        [Clause.make([], [], [atom("P"), atom("Q", "x", "y", "z")])],
        {"P": (0, 0), "Q": (0, 3)},
    )
    out = pad_predicates(cs)
    (cl,) = out.clauses
    padded = [a for a in cl.delta if a.pred == "P"][0]
    assert len(set(padded.base_args)) == 1  # same fresh variable repeated


def test_pad_preserves_verdict():
    rng = random.Random(21)
    checked = 0
    while checked < 6:
        cs = corpus._raw_bd(rng)
        a = decide(normalize(cs)).status
        b = decide(normalize(pad_predicates(cs))).status
        assert a == b
        checked += 1


# --- scaling ----------------------------------------------------------------


def test_scale_clears_denominators():
    cl = Clause.make(
        [
            VarConst("x", Relation.GE, GroundTerm.constant(0)),
            VarConst("x", Relation.LE, GroundTerm.constant("3/2")),
        ],
        [],
        [atom("P", "x")],
    )
    out = scale_to_integers(bd_set([cl], {"P": (0, 1)}))
    assert all(q.denominator == 1 for q in out.rationals())
    assert Fraction(3) in out.rationals()


def test_scale_rejects_slr():
    with pytest.raises(FragmentError):
        scale_to_integers(slr_set([], {}))


def test_scale_preserves_verdict():
    cl = Clause.make(
        [
            VarConst("x", Relation.GE, GroundTerm.constant("1/2")),
            VarConst("x", Relation.LE, GroundTerm.constant("1/3")),
        ],
        [],
        [atom("P", "x")],
    )
    cs = bd_set([cl], {"P": (0, 1)})
    assert naive_decide(normalize(cs)).status == naive_decide(
        normalize(scale_to_integers(cs))
    ).status


# --- constraint-only variable elimination -----------------------------------


def test_eliminate_projects_lambda_only_variable():
    cl = Clause.make(
        [VarConst("y", Relation.GT, GroundTerm.constant(0)), VarVar("x", Relation.LT, "y")],
        [],
        [atom("P", "x")],
    )
    out = eliminate_constraint_only_vars(bd_set([cl], {"P": (0, 1)}))
    for c in out.clauses:
        assert "y" not in {v for con in c.lam for v in _cvars(con)}


def _cvars(con):
    from bsrsat.terms import constraint_vars

    return constraint_vars(con)


def test_eliminate_drops_vacuous_clause():
    cl = Clause.make(
        [
            VarConst("y", Relation.LT, GroundTerm.constant(0)),
            VarConst("y", Relation.GT, GroundTerm.constant(1)),
        ],
        [],
        [atom("P", "x")],
    )
    out = eliminate_constraint_only_vars(bd_set([cl], {"P": (0, 1)}))
    assert out.clauses == ()


def test_eliminate_splits_disequation():
    # y != 0 over an eliminated variable becomes two one-sided copies
    cl = Clause.make(
        [
            VarConst("y", Relation.NEQ, GroundTerm.constant(0)),
            VarConst("y", Relation.GE, GroundTerm.constant(0)),
            VarConst("y", Relation.LE, GroundTerm.constant(1)),
            VarVar("x", Relation.LE, "y"),
        ],
        [],
        [atom("P", "x")],
    )
    out = eliminate_constraint_only_vars(bd_set([cl], {"P": (0, 1)}))
    assert out.clauses
    for c in out.clauses:
        assert "y" not in {v for con in c.lam for v in _cvars(con)}


def test_eliminate_rewrites_only_what_it_eliminates():
    # constraints that do not mention w come through as they are: x - y >= 0
    # stays a difference, and the ground e <= d needs no fresh Skolem name
    bd = parse_clause_set(
        "mode bd\npred P : S^0 R^2\nfreeconst a\n"
        "clause [x >= 0; x <= 1; y >= 0; y <= 1; x - y >= 0; w != x] [] -> [P(x, y)]\n"
    )
    diff = DiffConst("x", "y", Relation.GE, Fraction(0))
    for cl in eliminate_constraint_only_vars(bd).clauses:
        assert diff in cl.lam
    assert "_v0 - _v1 >= 0" in print_clause_set(normalize(bd))
    slr = parse_clause_set(
        "mode slr\npred P : S^0 R^1\nfreeconst a\nskolem d e\n"
        "clause [e <= d; x < 1; w != x] [] -> [P(x)]\n"
    )
    n = normalize(slr)
    assert n.skolems == ("d", "e") and not n.def_clauses()
    ground = GroundCmp(GroundTerm.skolem("e"), Relation.LE, GroundTerm.skolem("d"))
    assert all(ground in cl.lam for cl in n.clauses)


def test_eliminate_keeps_atom_variables():
    cl = Clause.make(
        [VarConst("x", Relation.LT, GroundTerm.constant(1))],
        [],
        [atom("P", "x")],
    )
    out = eliminate_constraint_only_vars(bd_set([cl], {"P": (0, 1)}))
    assert out.clauses == (cl,)


def test_eliminate_drops_repeated_clauses_only():
    # a clause given twice, and one that elimination makes equal to it, are
    # dropped; clauses over the same variables with other constants stay
    def bound(k):
        return Clause.make([VarConst("x", Relation.LT, GroundTerm.constant(k))], [], [atom("P", "x")])

    projected = Clause.make(
        [VarConst("x", Relation.LT, GroundTerm.constant(1)), VarConst("y", Relation.GT, GroundTerm.constant(0))],
        [],
        [atom("P", "x")],
    )
    out = eliminate_constraint_only_vars(bd_set([bound(1), bound(2), bound(1), projected, bound(3)], {"P": (0, 1)}))
    assert out.clauses == (bound(1), bound(2), bound(3))


def _with_premise(cs, i, extra):
    """cs with clause i given the premise conjuncts extra as well."""
    cl = cs.clauses[i]
    extended = Clause.make([*cl.lam, *extra], cl.gamma, cl.delta)
    return cs._replace(clauses=(*cs.clauses[:i], extended, *cs.clauses[i + 1:]))


def test_eliminated_variables_keep_the_verdict_on_pool_draws():
    # a fresh w, in the constraint part only, that normalize must project out:
    # x <= w; w < y says x < y, and w != x says nothing, so that the set
    # normalizes to the draw's own normal form: elimination rewrites only
    # the constraints that mention w
    rng = random.Random(5)
    probes = 0
    for k in range(60):
        cs = (corpus._raw_bd, corpus._raw_slr)[k % 2](rng)
        open_ = [i for i, cl in enumerate(cs.clauses) if cl.base_vars()]
        if not open_:
            continue
        i = rng.choice(open_)
        x, y = (rng.choice(cs.clauses[i].base_vars()) for _ in "xy")
        between = [VarVar(x, Relation.LE, "w"), VarVar("w", Relation.LT, y)]
        assert decide(normalize(_with_premise(cs, i, between))).status == decide(
            normalize(_with_premise(cs, i, [VarVar(x, Relation.LT, y)]))).status
        apart = normalize(_with_premise(cs, i, [VarVar("w", Relation.NEQ, x)]))
        own = normalize(cs)
        assert decide(apart).status == decide(own).status
        assert print_clause_set(apart) == print_clause_set(own)
        probes += 2
    assert probes >= 100


# --- ground-term splitting (SLR) --------------------------------------------


def test_split_names_compound_bound():
    bound = GroundTerm.make(1, {"d": 1})
    cl = Clause.make(
        [VarConst("x", Relation.LE, bound)],
        [],
        [atom("P", "x")],
    )
    cs = slr_set([cl], {"P": (0, 1)}, skolems=("d",))
    out = split_ground_terms(cs)
    (d, core) = out.clauses
    assert d.is_def_clause() and not core.is_def_clause()
    (vc,) = [c for c in core.lam if isinstance(c, VarConst)]
    assert vc.bound.is_skolem
    (name,) = vc.bound.skolems()
    assert d.lam[0] == SkolemDef(name, bound)


def test_split_shares_names_for_equal_terms():
    bound = GroundTerm.make(1, {"d": 1})
    cls = [
        Clause.make([VarConst("x", Relation.LE, bound)], [], [atom("P", "x")]),
        Clause.make([VarConst("y", Relation.GT, bound)], [], [atom("P", "y")]),
    ]
    out = split_ground_terms(slr_set(cls, {"P": (0, 1)}, skolems=("d",)))
    assert len(out.def_clauses()) == 1


def test_split_leaves_plain_bounds_alone():
    cl = Clause.make(
        [VarConst("x", Relation.LE, GroundTerm.skolem("d"))],
        [],
        [atom("P", "x")],
    )
    out = split_ground_terms(slr_set([cl], {"P": (0, 1)}, skolems=("d",)))
    assert out.def_clauses() == []
    assert out.clauses == (cl,)


# --- variable disjointness --------------------------------------------------


def test_rename_apart_disjoint_clauses():
    cls = [
        Clause.make([], [], [atom("P", "x")]),
        Clause.make([], [], [atom("P", "x")]),
    ]
    out = rename_apart(bd_set(cls, {"P": (0, 1)}))
    v0 = set(out.clauses[0].base_vars())
    v1 = set(out.clauses[1].base_vars())
    assert not (v0 & v1)


# --- end-to-end pipeline ----------------------------------------------------


def test_normalize_validates_output_on_generated_sets():
    rng = random.Random(22)
    for _ in range(15):
        n = normalize(corpus._raw_bd(rng))
        validate_normal_form(n)
    for _ in range(15):
        n = normalize(corpus._raw_slr(rng))
        validate_normal_form(n)
        k = len(n.def_clauses())
        assert all(cl.is_def_clause() for cl in n.clauses[:k])
    # normalize and encode_reachability leave their output unchecked, so check
    # it here: the benchmark's first clause-set draws ...
    rng = random.Random(1706)
    for i in range(200):
        validate_normal_form(normalize((corpus._raw_bd if i % 2 == 0 else corpus._raw_slr)(rng)))
    # ... the first 20 automata of its timed pool, and both three-clock goals
    goals = corpus.timed_instances(0, 20)
    goals += [(THREE_CLOCKS, parse_goal(g, THREE_CLOCKS)) for g in ("l2: y < 1", "l2: y - w > 0")]
    for aut, goal in goals:
        encoded = encode_reachability(aut, goal)
        encoded.validate()
        validate_normal_form(normalize(encoded))


def test_normalize_adds_free_constant_when_absent():
    cl = Clause.make([], [], [atom("P", "x")])
    cs = ClauseSet(MODE_BD, [cl], {"P": (0, 1)}, [], [])
    n = normalize(cs)
    assert len(n.fconsts) == 1


def test_normalize_rejects_folla():
    with pytest.raises(FragmentError):
        normalize(ClauseSet("folla", [], {}, ["a"], []))


def _delay_sets():
    # y = x + z with z only in the constraint part, and with z in an atom
    box = [VarConst(v, rel, GroundTerm.constant(c))
           for v in "xy" for rel, c in ((Relation.GE, 0), (Relation.LE, 1))]
    yield bd_set([Clause.make([DeltaEq("y", "x", "z"), *box], [], [atom("P", "x", "y")])],
                 {"P": (0, 2)})
    yield bd_set([Clause.make([DeltaEq("y", "x", "z")], [], [atom("Q", "x", "y", "z")])],
                 {"Q": (0, 3)})


@pytest.mark.parametrize("solver", [normalize, decide, naive_decide])
def test_delay_equations_are_rejected_outside_folla(solver):
    for cs in _delay_sets():
        with pytest.raises(FragmentError) as exc:
            solver(cs)
        assert str(exc.value) == "delay equation y = x + z is allowed in folla mode only"


def test_validate_rejects_non_variable_base_argument():
    cs = bd_set([Clause.make([], [], [atom("P", Fraction(1))])], {"P": (0, 1)})
    with pytest.raises(FragmentError):
        cs.validate()
    with pytest.raises(FragmentError):
        normalize(cs)


# --- validator errors -------------------------------------------------------


def test_validator_requires_free_constant():
    with pytest.raises(NormalFormError):
        validate_normal_form(bd_set([], {}, fconsts=()))


def test_validator_rejects_shared_variables():
    cls = [
        Clause.make([], [], [atom("P", "x")]),
        Clause.make([], [], [atom("P", "x")]),
    ]
    with pytest.raises(NormalFormError, match="share variables"):
        validate_normal_form(bd_set(cls, {"P": (0, 1)}))


def test_validator_rejects_fractional_bd_constant():
    cl = Clause.make(
        [VarConst("x", Relation.LT, GroundTerm.constant("1/2"))],
        [],
        [atom("P", "x")],
    )
    with pytest.raises(NormalFormError, match="non-integer"):
        validate_normal_form(bd_set([cl], {"P": (0, 1)}))


def test_validator_rejects_constraint_only_variable():
    cl = Clause.make(
        [VarVar("x", Relation.LT, "y")],
        [],
        [atom("P", "x")],
    )
    with pytest.raises(NormalFormError, match="constraint-only"):
        validate_normal_form(bd_set([cl], {"P": (0, 1)}))


def test_validator_rejects_skolem_def_among_other_constraints():
    sd = SkolemDef("d", GroundTerm.make(1, {"e": 1}))
    bound = VarConst("x", Relation.LE, GroundTerm.skolem("d"))
    alone = Clause.make([sd], [], [])
    core = Clause.make([bound], [], [atom("P", "x")])
    validate_normal_form(slr_set([alone, core], {"P": (0, 1)}, skolems=("d", "e")))
    mixed = Clause.make([sd, bound], [], [atom("P", "x")])
    with pytest.raises(NormalFormError, match="definitional constraint"):
        validate_normal_form(slr_set([mixed], {"P": (0, 1)}, skolems=("d", "e")))


def test_normalize_lists_definitional_clauses_first():
    bound = GroundTerm.make(1, {"d": 1})
    cls = [
        Clause.make([VarConst("x", Relation.GE, GroundTerm.skolem("d"))], [], [atom("P", "x")]),
        Clause.make([VarConst("y", Relation.LE, bound)], [atom("P", "y")], []),
    ]
    n = normalize(slr_set(cls, {"P": (0, 1)}, skolems=("d",)))
    kinds = [cl.is_def_clause() for cl in n.clauses]
    assert kinds == [True, False, False]


def test_each_user_path_checks_a_clause_set_once_per_boundary(monkeypatch):
    calls = {"validate": 0, "normal_form": 0}
    validate, normal_form = ClauseSet.validate, validate_normal_form

    def counted_validate(cs):
        calls["validate"] += 1
        validate(cs)

    def counted_normal_form(cs):
        calls["normal_form"] += 1
        normal_form(cs)

    monkeypatch.setattr(ClauseSet, "validate", counted_validate)
    monkeypatch.setattr(normalize_mod, "validate_normal_form", counted_normal_form)
    monkeypatch.setattr(decide_mod, "validate_normal_form", counted_normal_form)

    # normalize checks the encoding, decide checks the normal form
    ((aut, goal),) = corpus.timed_instances(0, 1)
    decide(normalize(encode_reachability(aut, goal)))
    assert calls == {"validate": 2, "normal_form": 1}

    # and the parser checks the text it parsed
    calls.update(validate=0, normal_form=0)
    decide(normalize(parse_clause_set(
        "mode bd\npred P : S^1 R^2\nfreeconst a\n"
        "clause [x >= 0; x <= 2; y >= 0; y <= 2; x - y < 1] [] -> [P(a, x, y)]\n"
    )))
    assert calls == {"validate": 3, "normal_form": 1}


@pytest.mark.parametrize("solver", [decide, naive_decide])
def test_deciders_reject_a_set_not_in_normal_form(solver):
    # parsed but not normalized: no free constant
    cs = parse_clause_set("mode bd\npred P : S^0 R^1\nclause [] [] -> [P(x)]\n")
    with pytest.raises(NormalFormError):
        solver(cs)


def _folla_sets():
    # a clause any mode admits, and one with a difference premise
    below = VarConst("x", Relation.LT, GroundTerm.constant(1))
    yield ClauseSet(MODE_FOLLA, [Clause.make([below], [], [atom("P", "x")])],
                    {"P": (0, 1)}, ["a"])
    diff = DiffConst("x", "y", Relation.LT, Fraction(1))
    yield ClauseSet(MODE_FOLLA, [Clause.make([diff], [], [atom("P", "x", "y")])],
                    {"P": (0, 2)}, ["a"])


@pytest.mark.parametrize("solver", [validate_normal_form, decide, naive_decide])
def test_only_slr_and_bd_sets_are_in_normal_form(solver):
    for cs in _folla_sets():
        cs.validate()
        with pytest.raises(NormalFormError) as exc:
            solver(cs)
        assert str(exc.value) == "normal form requires mode slr or bd, not 'folla'"
