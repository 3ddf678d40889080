"""Check-directed class streams: pruning drops only classes the premise
checks reject, and keeps the order of the full stream."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsrsat import corpus, regions
from bsrsat.decide import _class_ok, _contexts, _plan
from bsrsat.normalize import normalize
from bsrsat.regions import (
    PartitionJ,
    check_holds,
    class_of_bd,
    compile_checks,
    enumerate_bd_unbounded,
    enumerate_slr_classes,
    representative,
)
from bsrsat.report import SolveStats
from bsrsat.terms import (
    MODE_BD,
    MODE_SLR,
    DiffConst,
    FragmentError,
    GroundCmp,
    GroundTerm,
    Relation,
    SkolemDef,
    VarConst,
    VarVar,
    eval_constraint,
)
from bsrsat.timed import default_lambda, encode_reachability

RELS = st.sampled_from(list(Relation))
LOWER = st.sampled_from([Relation.GE, Relation.GT, Relation.EQ])
UPPER = st.sampled_from([Relation.LE, Relation.LT, Relation.EQ])


def _names(arity):
    return [f"x{i}" for i in range(arity)]


def _pairs(draw, names):
    if not names:
        return []
    return draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=2))


@st.composite
def bd_premises(draw):
    """(arity, kappa, constraints); every difference is guarded by two-sided
    bounds on both of its variables, as the normal form requires."""
    arity = draw(st.integers(0, 4))
    kappa = draw(st.integers(1, 3))
    names = _names(arity)
    const = st.integers(-kappa, kappa).map(Fraction)
    bounds, varvars, diffs = [], [], []
    for v in names:
        for _ in range(draw(st.integers(0, 2))):
            bounds.append(VarConst(v, draw(RELS), GroundTerm.constant(draw(const))))
    for x, y in _pairs(draw, names):
        varvars.append(VarVar(x, draw(RELS), y))
    for x, y in _pairs(draw, names):
        diffs.append(DiffConst(x, y, draw(RELS), Fraction(draw(st.integers(-2 * kappa, 2 * kappa)))))
        for v in (x, y):
            bounds.append(VarConst(v, draw(LOWER), GroundTerm.constant(draw(const))))
            bounds.append(VarConst(v, draw(UPPER), GroundTerm.constant(draw(const))))
    return arity, kappa, bounds + varvars + diffs


@st.composite
def slr_premises(draw):
    """(arity, partition, gamma, constraints) over up to three points."""
    arity = draw(st.integers(0, 4))
    points = draw(st.lists(st.integers(-3, 3).map(Fraction), max_size=3, unique=True))
    partition = PartitionJ.make(points)
    gamma = {}
    terms = [GroundTerm.constant(p) for p in points]
    if points:
        gamma["d"] = draw(st.sampled_from(points))
        terms.append(GroundTerm.skolem("d"))
    names = _names(arity)
    cons = []
    if terms:
        for v in names:
            for _ in range(draw(st.integers(0, 2))):
                cons.append(VarConst(v, draw(RELS), draw(st.sampled_from(terms))))
    for x, y in _pairs(draw, names):
        cons.append(VarVar(x, draw(RELS), y))
    return arity, partition, gamma, cons


def _assert_filter_equal(full, pruned, checks):
    # the pruned stream is exactly the filtered full stream, in order
    want = [c for c in full if _class_ok(c, checks)]
    assert list(pruned) == want


def _assert_bound_stream_complete(full, pruned, constraints, names, gamma, partition=None):
    """Every class whose representative satisfies all the constraints is kept."""
    kept = set(pruned)
    for cls in full:
        if cls not in kept:
            base = dict(zip(names, representative(cls, partition)))
            assert not all(eval_constraint(c, base, gamma) for c in constraints)


def _guarded(x, y, lo, hi):
    return [
        VarConst(v, rel, GroundTerm.constant(c))
        for v in (x, y)
        for rel, c in ((Relation.GE, lo), (Relation.LE, hi))
    ]


def _diffs(*chain):
    return [DiffConst(x, y, rel, Fraction(c)) for x, y, rel, c in chain]


# x0 - x1 = 1 and x1 - x2 = 1 inside the guards [-2, 2]: the zone confines
# x0 to [0, 2], x1 to [-1, 1] and x2 to [-2, 0], tighter than the guards.
CHAIN = (3, 2, _guarded("x0", "x1", -2, 2) + _guarded("x1", "x2", -2, 2)
         + _diffs(("x0", "x1", Relation.EQ, 1), ("x1", "x2", Relation.EQ, 1)))
# The same chain with x0 - x2 < 2: the zone is empty.
EMPTY_CHAIN = (CHAIN[0], CHAIN[1], CHAIN[2] + _diffs(("x0", "x2", Relation.LT, 2)))


def _self_pairs(rel):
    """x0 rel x0 on a coordinate of any bucket and x1 rel x1 on one above
    kappa 1 (slr: beyond the last point 1)."""
    return [VarConst("x1", Relation.GT, GroundTerm.constant(Fraction(1))),
            VarVar("x0", rel, "x0"), VarVar("x1", rel, "x1")]


SELF_PAIR_RELS = (Relation.LT, Relation.NEQ, Relation.LE)
P01 = PartitionJ.make([0, 1])


# The bd draws are fixed: one at arity 4 and kappa 3 streams 282,781
# classes, so fresh draws would swing the run time by tens of seconds.  The
# examples make the zone closure bite: derived bounds, derived pair
# differences with strict and unit-interval cases, and an empty zone.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(bd_premises())
@example(CHAIN)
@example(EMPTY_CHAIN)
@example((3, 1, _guarded("x0", "x1", -1, 1) + _guarded("x2", "x2", 0, 1)
          + [VarVar("x1", Relation.LT, "x2"), VarVar("x0", Relation.NEQ, "x2")]
          + _diffs(("x0", "x1", Relation.GT, 0), ("x2", "x0", Relation.GE, 0))))
@example((4, 2, _guarded("x0", "x1", -2, 1) + _guarded("x2", "x3", -1, 2)
          + [VarVar("x3", Relation.LE, "x1")]
          + _diffs(("x1", "x0", Relation.LE, -1), ("x2", "x1", Relation.LT, 2),
                   ("x3", "x2", Relation.GE, -1), ("x0", "x3", Relation.NEQ, -1))))
@example((3, 2, _guarded("x0", "x1", -2, 2) + _guarded("x2", "x2", -1, 1)
          + [VarVar("x0", Relation.NEQ, "x1")]
          + _diffs(("x2", "x0", Relation.GE, -1), ("x1", "x2", Relation.LT, 1))))
@example((2, 1, _self_pairs(Relation.LT)))
@example((2, 1, _self_pairs(Relation.NEQ)))
@example((2, 1, _self_pairs(Relation.LE)))
def test_bd_pruned_stream_filters_like_full_stream(premise):
    arity, kappa, cons = premise
    vidx = {v: i for i, v in enumerate(_names(arity))}
    checks = compile_checks(MODE_BD, cons, vidx)
    _assert_filter_equal(
        enumerate_bd_unbounded(arity, kappa),
        enumerate_bd_unbounded(arity, kappa, checks),
        checks,
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bd_premises())
def test_bd_bound_pruned_stream_keeps_every_admitted_class(premise):
    arity, kappa, cons = premise
    names = _names(arity)
    bounds = [c for c in cons if isinstance(c, VarConst)]
    checks = compile_checks(MODE_BD, bounds, {v: i for i, v in enumerate(names)})
    _assert_bound_stream_complete(
        enumerate_bd_unbounded(arity, kappa),
        enumerate_bd_unbounded(arity, kappa, checks),
        bounds, names, {},
    )


@settings(max_examples=60, deadline=None)
@given(slr_premises())
@example((2, P01, {}, _self_pairs(Relation.LT)))
@example((2, P01, {}, _self_pairs(Relation.NEQ)))
@example((2, P01, {}, _self_pairs(Relation.LE)))
def test_slr_pruned_stream_filters_like_full_stream(premise):
    arity, partition, gamma, cons = premise
    vidx = {v: i for i, v in enumerate(_names(arity))}
    checks = compile_checks(MODE_SLR, cons, vidx, gamma, partition)
    _assert_filter_equal(
        enumerate_slr_classes(arity, partition),
        enumerate_slr_classes(arity, partition, checks),
        checks,
    )


@settings(max_examples=60, deadline=None)
@given(slr_premises())
def test_slr_bound_pruned_stream_keeps_every_admitted_class(premise):
    arity, partition, gamma, cons = premise
    names = _names(arity)
    bounds = [c for c in cons if isinstance(c, VarConst)]
    checks = compile_checks(MODE_SLR, bounds, {v: i for i, v in enumerate(names)}, gamma, partition)
    _assert_bound_stream_complete(
        enumerate_slr_classes(arity, partition),
        enumerate_slr_classes(arity, partition, checks),
        bounds, names, gamma, partition,
    )


# Soundness of pruning by the whole premise, as verify_model does: a skipped
# class must falsify some premise constraint on its representative.  The
# fixed draws seldom cut a stream by a relational check, so the examples
# make sure var-var and difference pruning are exercised.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(bd_premises())
@example((2, 1, [VarVar("x0", Relation.LT, "x1")]))
@example((2, 1, _guarded("x0", "x1", 0, 1) + [DiffConst("x0", "x1", Relation.LT, Fraction(0))]))
@example((3, 2, _guarded("x0", "x2", -1, 2) + [DiffConst("x2", "x0", Relation.GE, Fraction(1))]))
def test_bd_pruned_stream_keeps_every_premise_class(premise):
    arity, kappa, cons = premise
    names = _names(arity)
    checks = compile_checks(MODE_BD, cons, {v: i for i, v in enumerate(names)})
    _assert_bound_stream_complete(
        enumerate_bd_unbounded(arity, kappa),
        enumerate_bd_unbounded(arity, kappa, checks),
        cons, names, {},
    )


@settings(max_examples=60, deadline=None)
@given(slr_premises())
def test_slr_pruned_stream_keeps_every_premise_class(premise):
    arity, partition, gamma, cons = premise
    names = _names(arity)
    checks = compile_checks(MODE_SLR, cons, {v: i for i, v in enumerate(names)}, gamma, partition)
    _assert_bound_stream_complete(
        enumerate_slr_classes(arity, partition),
        enumerate_slr_classes(arity, partition, checks),
        cons, names, gamma, partition,
    )


@pytest.mark.parametrize("raw", [corpus._raw_bd, corpus._raw_slr])
def test_corpus_clauses_pruned_stream_filters_like_full_stream(raw):
    rng = random.Random(2024)
    for _ in range(50):
        n = normalize(raw(rng))
        for ctx in _contexts(n, SolveStats()):
            for cl in n.clauses:
                bvars = cl.base_vars()
                var_cons = [c for c in cl.lam if not isinstance(c, (GroundCmp, SkolemDef))]
                checks = ctx.checks(var_cons, {v: i for i, v in enumerate(bvars)})
                _assert_filter_equal(
                    ctx.classes(len(bvars)), ctx.classes(len(bvars), checks), checks
                )


@pytest.mark.parametrize("rel", SELF_PAIR_RELS, ids=lambda rel: rel.name)
def test_a_check_of_a_coordinate_against_itself_holds_on_every_class_or_none(rel):
    # < and != stream nothing, <= every class that the bound on x1 admits
    cons = _self_pairs(rel)
    vidx = {"x0": 0, "x1": 1}

    def bd(part):
        return list(enumerate_bd_unbounded(2, 1, compile_checks(MODE_BD, part, vidx)))

    def slr(part):
        return list(enumerate_slr_classes(2, P01, compile_checks(MODE_SLR, part, vidx, {}, P01)))

    for stream in (bd, slr):
        bounded = stream(cons[:1])
        assert bounded
        assert stream(cons) == (bounded if rel is Relation.LE else [])


def _admitted_stream_classes(sets) -> int:
    """How many classes the pruned premise streams of the clause sets yield,
    over every clause and context, asserting that each passes every premise
    check of its clause: what ``decide._class_ok`` re-judges."""
    classes = 0
    for cs in sets:
        for ctx in _contexts(cs, SolveStats()):
            for cl in cs.clauses:
                plan = _plan(ctx, cl)
                if plan is None:
                    continue
                for cls in ctx.classes(len(plan.bvars), plan.checks):
                    assert all(check_holds(ch, cls.cells) for ch in plan.checks), (cl, cls)
                    classes += 1
    return classes


def test_timed_pruned_streams_yield_only_classes_their_checks_admit():
    # the first 20 automata of the benchmark's timed pool
    assert _admitted_stream_classes(
        normalize(encode_reachability(aut, goal, default_lambda(aut, goal)))
        for aut, goal in corpus.timed_instances(0, 20)
    ) == 19519


# Draws 21 and 108 stream 790,459 and 89,210 classes over all their
# contexts; the other 198 stream 98,739 together.
HEAVY_DRAWS = (21, 108)


def test_pool_pruned_streams_yield_only_classes_their_checks_admit():
    # the first 200 draws of the benchmark's clause-set pool, but the heavy ones
    rng = random.Random(1706)
    sets = [normalize((corpus._raw_bd if i % 2 == 0 else corpus._raw_slr)(rng))
            for i in range(200)]
    assert _admitted_stream_classes(
        cs for i, cs in enumerate(sets) if i not in HEAVY_DRAWS
    ) == 98739


def _checks(arity, cons):
    return compile_checks(MODE_BD, cons, {v: i for i, v in enumerate(_names(arity))})


def test_zone_bounds_are_tighter_than_the_guards():
    arity, kappa, cons = CHAIN
    stream = list(enumerate_bd_unbounded(arity, kappa, _checks(arity, cons)))
    assert stream
    lows = [min(cls.cells[c][1] for cls in stream) for c in range(arity)]
    highs = [max(cls.cells[c] for cls in stream)[1:] for c in range(arity)]
    assert lows == [0, -1, -2]
    assert highs == [(2, 0), (1, 0), (0, 0)]


def test_empty_zone_streams_nothing():
    arity, kappa, cons = EMPTY_CHAIN
    checks = _checks(arity, cons)
    assert list(enumerate_bd_unbounded(arity, kappa, checks)) == []
    assert not [c for c in enumerate_bd_unbounded(arity, kappa) if _class_ok(c, checks)]


@pytest.mark.parametrize("x1_bounds", [
    [],
    [VarConst("x1", Relation.GE, GroundTerm.constant(Fraction(0)))],
    [VarConst("x1", Relation.LE, GroundTerm.constant(Fraction(1)))],
])
def test_unguarded_difference_is_a_fragment_error_before_any_class(x1_bounds):
    # x0 in [0, 1] and x0 - x1 = 0: the zone would hold x1 in range too, but
    # x1's own bounds do not, so the difference is outside the fragment even
    # where classes with x1 in range come first in the stream.
    cons = (_guarded("x0", "x0", 0, 1) + x1_bounds
            + _diffs(("x0", "x1", Relation.EQ, 0)))
    stream = enumerate_bd_unbounded(2, 1, _checks(2, cons))
    with pytest.raises(FragmentError):
        next(stream)


def test_difference_check_beyond_kappa_is_a_fragment_error():
    # x0 below -kappa, x1 = 0: x0 - x1 has no class-determined sign
    cls = class_of_bd([Fraction(-2), Fraction(0)], 1, bounded=False)
    check = ("diff", Relation.LT, 0, 1, 1)
    with pytest.raises(FragmentError):
        _class_ok(cls, [check])
    with pytest.raises(FragmentError):
        list(enumerate_bd_unbounded(2, 1, [check]))


def test_bound_beyond_kappa_is_a_fragment_error_before_any_class():
    # at kappa 1 the class above kappa (representative 7/3) would pass for
    # x >= 5: a bound reads whole cells only within +/-kappa
    x = VarConst("x", Relation.GE, GroundTerm.constant(Fraction(5)))
    stream = enumerate_bd_unbounded(1, 1, compile_checks(MODE_BD, [x], {"x": 0}))
    with pytest.raises(FragmentError):
        next(stream)


def test_zero_sets_with_an_empty_band_skip_their_fractional_orders(monkeypatch):
    # x0 - x2 = -1 and x1 - x3 = -1 tie the fractional parts of x0, x2 and
    # of x1, x3, so only the zero sets {}, {x0, x2}, {x1, x3} and all four
    # leave every band of a vanishing fractional part open, and within them
    # only the 3 + 1 + 1 + 1 fractional orders that keep each tied pair in
    # one block are built.  Each of them reaches the floor limits, where
    # filtering built orders would make 75 + 3 + 3 + 1 calls, of 150 orders.
    names = _names(4)
    cons = [VarConst(v, rel, GroundTerm.constant(Fraction(c)))
            for v in names for rel, c in ((Relation.GE, 0), (Relation.LT, 2))]
    cons += [VarVar("x1", Relation.GE, "x0"), VarVar("x3", Relation.GE, "x2")]
    cons += _diffs(("x0", "x2", Relation.EQ, -1), ("x1", "x3", Relation.EQ, -1))
    checks = _checks(4, cons)
    calls = []
    floor_limits = regions._floor_limits

    def counted(*args):
        calls.append(args)
        return floor_limits(*args)

    monkeypatch.setattr(regions, "_floor_limits", counted)
    stream = list(enumerate_bd_unbounded(4, 2, checks))
    assert len(calls) <= 6
    assert len(stream) == 4
    assert stream == [c for c in enumerate_bd_unbounded(4, 2) if _class_ok(c, checks)]


HALF_OPEN = [VarConst(v, rel, GroundTerm.constant(Fraction(c)))
             for v in ("x0", "x1") for rel, c in ((Relation.GE, 0), (Relation.LT, 2))]


@pytest.mark.parametrize("cons, count", [
    # value orders beyond +/-kappa, both coordinates below -kappa in one class
    ([VarVar("x0", Relation.LT, "x1")], 73),
    # x1 in range, x0 in range or above kappa
    (_guarded("x1", "x1", 0, 1) + [VarVar("x1", Relation.LT, "x0")], 15),
    # != in range, in both orientations of the coordinate positions
    (HALF_OPEN + _diffs(("x1", "x0", Relation.NEQ, 1)), 22),
    (HALF_OPEN + _diffs(("x0", "x1", Relation.NEQ, 1)), 22),
], ids=["below-kappa", "across-buckets", "neq-later", "neq-earlier"])
def test_pair_checks_are_cuts_that_evaluate_no_check(monkeypatch, cons, count):
    checks = _checks(2, cons)

    def evaluated(*args):
        raise AssertionError(f"a pruned stream evaluated a check: {args}")

    with monkeypatch.context() as patched:
        patched.setattr(regions, "check_holds", evaluated)
        pruned = list(enumerate_bd_unbounded(2, 2, checks))
    assert len(pruned) == count
    assert pruned == [c for c in enumerate_bd_unbounded(2, 2) if _class_ok(c, checks)]
