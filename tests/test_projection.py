"""Grounding and verification by projection against whole-clause references.

``_ground_clause`` selects each atom's class once per distinct tuple of
picked cells, and ``verify_model`` checks each variable-disjoint component
of a clause on its own stream and each distinct row once.  The references
below are the whole-clause forms they replace: a ``select_class`` call per
streamed class and atom, and a verifier that streams every class of the
whole clause and checks every free assignment against every class.
"""

import random

import pytest

from bsrsat import decide as decide_mod
from bsrsat.corpus import _raw_bd, _raw_slr, flipped_descriptor, timed_instances
from bsrsat.decide import (
    _cases,
    _class_ok,
    _components,
    _contexts,
    _ground_clause,
    _plan,
    _scaled_premise,
    decide,
    verify_model,
)
from bsrsat.normalize import normalize
from bsrsat.parser import parse_clause_set
from bsrsat.regions import select_class
from bsrsat.report import STATUS_SAT, SolveStats
from bsrsat.timed import default_lambda, encode_reachability


def reference_ground(ctx, cl):
    """(classes streamed, rows): a ``select_class`` call per surviving class
    and atom, rows deduplicated in first-occurrence order; rows is None
    when no class survives or a ground premise conjunct is false."""
    plan = _plan(ctx, cl)
    if plan is None:
        return 0, None
    stream = list(ctx.classes(len(plan.bvars), plan.checks))
    survivors = [cls for cls in stream if _class_ok(cls, plan.checks)]
    rows = list(dict.fromkeys(
        tuple(select_class(cls, a[3]) for a in plan.atoms) for cls in survivors
    ))
    return len(stream), rows or None


def reference_verify(cs, desc) -> bool:
    """Whole-clause verification: every class of a clause's premise stream
    whose representative meets the premise, against every free assignment
    that no equation settles."""
    ctx = desc.ctx
    for cl in cs.clauses:
        plan = _plan(ctx, cl)
        if plan is None:
            continue
        cases = _cases(plan, desc.domain, desc.fconst_assign)
        if not cases:
            continue
        idxs = [a[3] for a in plan.atoms]
        d, rep, classify = ctx.scaled(len(plan.bvars))
        scaled = _scaled_premise(ctx, cl.lam, plan.vidx, d)
        for cls in ctx.classes(len(plan.bvars), plan.checks):
            nums = rep(cls)
            if not all(
                rel.holds(nums[i] if j is None else nums[i] - nums[j], k)
                for rel, i, j, k in scaled
            ):
                continue
            projected = {}
            for case in cases:
                for (positive, pred, free_args), idx in zip(case, idxs):
                    pcls = projected.get(idx)
                    if pcls is None:
                        pcls = projected[idx] = classify(tuple(nums[i] for i in idx))
                    if desc.table.get((pred, free_args, pcls), False) == positive:
                        break
                else:
                    return False
    return True


def drawn(count: int, seed: int):
    rng = random.Random(seed)
    return [normalize((_raw_bd if i % 2 == 0 else _raw_slr)(rng)) for i in range(count)]


def timed(count: int):
    return [
        normalize(encode_reachability(aut, goal, default_lambda(aut, goal)))
        for aut, goal in timed_instances(0, count)
    ]


# --- grounding --------------------------------------------------------------


def test_memoised_grounding_matches_per_class_selection():
    sets = drawn(100, 2718) + timed(4)
    grounded = 0
    for cs in sets:
        for ctx in _contexts(cs, SolveStats()):
            for cl in cs.clauses:
                stats = SolveStats()
                got = _ground_clause(ctx, cl, stats)
                streamed, rows = reference_ground(ctx, cl)
                assert stats.classes == streamed
                assert (got and got[1]) == rows
                grounded += rows is not None
    assert grounded > 500


# --- verification -----------------------------------------------------------


def test_verify_agrees_with_whole_clause_reference_on_models_and_flips():
    sets = drawn(24, 1706)
    models = flips = rejected = split = 0
    for cs in sets:
        r = decide(cs)
        if r.status != STATUS_SAT:
            continue
        models += 1
        ctx = r.model.ctx
        split += sum(
            len(_components(plan, cl.lam)) > 1
            for cl in cs.clauses
            if (plan := _plan(ctx, cl)) is not None
        )
        assert verify_model(cs, r.model)
        assert reference_verify(cs, r.model)
        for atom in r.model.table:
            flipped = flipped_descriptor(r.model, atom)
            got = verify_model(cs, flipped)
            assert got == reference_verify(cs, flipped), atom
            flips += 1
            rejected += not got
    assert models > 15 and split > 5
    assert 0 < rejected < flips


# --- cost and edge cases of the split ----------------------------------------


def _count_representatives(monkeypatch) -> list:
    built = []
    real = decide_mod.representative_bd_scaled

    def counting(cls, *args, **kwargs):
        built.append(cls.arity)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(decide_mod, "representative_bd_scaled", counting)
    return built


def _premise_classes(ctx, arity, premise) -> int:
    # the classes that a one-atom clause over the first ``arity`` of x, y, z
    # streams in ``ctx``
    names = ", ".join("xyz"[:arity])
    (cl,) = parse_clause_set(
        f"mode bd\npred P : S^0 R^{arity}\nclause [{premise}] [] -> [P({names})]\n"
    ).clauses
    plan = _plan(ctx, cl)
    return len(list(ctx.classes(len(plan.bvars), plan.checks)))


def test_disjoint_parts_build_the_sum_of_their_streams(monkeypatch):
    # one atom reads x and y, the other z and w, and no conjunct joins them:
    # verify builds a representative per class of each part, not per pair
    n = normalize(parse_clause_set(
        "mode bd\npred P : S^0 R^2\n"
        "clause [x >= 0; x <= 2; y >= 0; y <= 2; x < y; z >= -1; z <= 1; w >= 0; w <= 1] [] "
        "-> [P(x, y); P(z, w)]\n"
    ))
    r = decide(n)
    assert r.status == STATUS_SAT
    (ctx,) = _contexts(n, SolveStats())
    xy = _premise_classes(ctx, 2, "x >= 0; x <= 2; y >= 0; y <= 2; x < y")
    zw = _premise_classes(ctx, 2, "x >= -1; x <= 1; y >= 0; y <= 1")
    plan = _plan(ctx, n.clauses[0])
    whole = len(list(ctx.classes(len(plan.bvars), plan.checks)))
    built = _count_representatives(monkeypatch)
    assert verify_model(n, r.model)
    assert built == [2] * (xy + zw)
    assert whole >= xy * zw > 5 * len(built)


def test_clause_with_an_unsatisfiable_component_holds():
    # x < 0 and x > 0 admit no point: the clause asks nothing of the table,
    # although its other component, y in [0, 1] with Q false, has points
    text = (
        "mode bd\npred P : S^0 R^1\npred Q : S^0 R^1\n"
        "clause [x < 0; x > 0; y >= 0; y <= 1] [] -> [P(x); Q(y)]\n"
    )
    n = normalize(parse_clause_set(text))
    r = decide(n)
    assert r.status == STATUS_SAT and r.model.table == {}
    (ctx,) = _contexts(n, SolveStats())
    cl = n.clauses[0]
    assert len(_components(_plan(ctx, cl), cl.lam)) == 2
    assert verify_model(n, r.model)
    alone = normalize(parse_clause_set(text.replace("x < 0; x > 0; ", "")))
    assert not verify_model(alone, r.model)


@pytest.mark.parametrize("mode", ["bd", "slr"])
def test_base_free_atom_alone_follows_its_table_bit(mode):
    n = normalize(parse_clause_set(
        f"mode {mode}\npred R : S^1 R^0\nfreeconst a\nclause [] [] -> [R(a)]\n"
    ))
    r = decide(n)
    assert r.status == STATUS_SAT
    (atom,) = r.model.table
    assert atom.cls.arity == 0 and r.model.table[atom]
    (ctx,) = _contexts(n, SolveStats())
    cl = n.clauses[0]
    assert _components(_plan(ctx, cl), cl.lam) == [({}, [], [0], [()])]
    assert verify_model(n, r.model)
    flipped = flipped_descriptor(r.model, atom)
    assert not verify_model(n, flipped)
    assert not reference_verify(n, flipped)
