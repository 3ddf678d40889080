"""Decision procedure: hand instances, model soundness, search limits."""

import ast
import inspect
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bsrsat import corpus, decide as decide_mod, regions
from bsrsat.decide import (
    NaiveBudgetError,
    ResourceLimitError,
    _candidates,
    _contexts,
    _ground_clause,
    _gterm,
    _preorder_gamma,
    decide,
    enumerate_preorders,
    naive_decide,
    verify_model,
)
from bsrsat.linarith import GroundSystem, solve_ground
from bsrsat.normalize import normalize
from bsrsat.parser import parse_clause_set
from bsrsat.regions import ordered_set_partitions
from bsrsat.report import (
    STATUS_SAT,
    STATUS_UNSAT,
    ResultReport,
    SolveStats,
    emit_result,
)
from bsrsat.terms import (
    Clause,
    DiffConst,
    Equation,
    FreeTerm,
    GroundTerm,
    GuardViolationError,
    PredAtom,
    Relation,
    VarConst,
    VarVar,
)
from test_golden_output import DECIDE_CASES


def run(text):
    return decide(normalize(parse_clause_set(text)))


def run_checked(text):
    n = normalize(parse_clause_set(text))
    r = decide(n)
    if r.status == STATUS_SAT:
        assert verify_model(n, r.model)
    return r


# --- hand instances ---------------------------------------------------------


def test_unconditional_fact_is_sat():
    r = run("mode bd\npred P : S^1 R^1\nfreeconst a\nclause [] [] -> [P(a, x)]\n")
    assert r.status == STATUS_SAT
    assert r.model is not None


def test_fact_and_its_negation_is_unsat():
    r = run(
        "mode bd\npred P : S^1 R^1\nfreeconst a\n"
        "clause [] [] -> [P(a, x)]\n"
        "clause [] [P(a, y)] -> []\n"
    )
    assert r.status == STATUS_UNSAT
    assert r.model is None


def test_empty_clause_is_unsat():
    r = run("mode bd\npred P : S^1 R^1\nfreeconst a\nclause [] [] -> []\n")
    assert r.status == STATUS_UNSAT


def test_region_split_predicate_is_sat():
    # P required below 0, forbidden above 1: satisfiable by a region-uniform P
    r = run_checked(
        "mode bd\npred P : S^1 R^1\nfreeconst a\n"
        "clause [x < 0] [] -> [P(a, x)]\n"
        "clause [y > 1] [P(a, y)] -> []\n"
    )
    assert r.status == STATUS_SAT


def test_overlapping_obligations_are_unsat():
    r = run(
        "mode bd\npred P : S^1 R^1\nfreeconst a\n"
        "clause [x >= 0; x <= 1] [] -> [P(a, x)]\n"
        "clause [y >= 0; y <= 1] [P(a, y)] -> []\n"
    )
    assert r.status == STATUS_UNSAT


def test_difference_guarded_clause():
    text = (
        "mode bd\npred P : S^1 R^2\nfreeconst a\n"
        "clause [x >= 0; x <= 2; y >= 0; y <= 2; x - y > 1] [] -> [P(a, x, y)]\n"
        "clause [x >= 0; x <= 2; y >= 0; y <= 2; x - y < 1] [P(a, x, y)] -> []\n"
    )
    r = run_checked(text)
    assert r.status == STATUS_SAT


def test_grounded_rows_share_equal_selected_classes():
    # 25 rows of two unary classes each, drawn from five distinct classes:
    # the rows hold one object per distinct class, not one per entry
    n = normalize(parse_clause_set(
        "mode bd\npred P : S^1 R^1\nfreeconst a\n"
        "clause [x >= 0; x <= 2; y >= 0; y <= 2] [] -> [P(a, x); P(a, y)]\n"
    ))
    (ctx,) = _contexts(n, SolveStats())
    _, rows = _ground_clause(ctx, n.clauses[0], SolveStats())
    picked = [c for row in rows for c in row]
    assert len(rows) == 25
    assert len({id(c) for c in picked}) == len(set(picked)) == 5


def test_skolem_threshold_is_sat():
    r = run(
        "mode slr\npred P : S^1 R^1\nfreeconst a\nskolem d\n"
        "clause [x < d] [] -> [P(a, x)]\n"
        "clause [y >= d] [P(a, y)] -> []\n"
    )
    assert r.status == STATUS_SAT


def test_skolem_strict_premises_escape_at_zero():
    r = run(
        "mode slr\npred P : S^1 R^1\nfreeconst a\nskolem d\n"
        "clause [d < 0] [] -> [P(a, x)]\n"
        "clause [d > 0] [] -> [P(a, x)]\n"
        "clause [] [P(a, y)] -> []\n"
    )
    # whichever sign gamma(d) takes, one premise holds and P is both
    # forced and forbidden; d = 0 escapes both premises
    assert r.status == STATUS_SAT


def test_skolem_forced_contradiction_is_unsat():
    r = run(
        "mode slr\npred P : S^1 R^1\nfreeconst a\nskolem d\n"
        "clause [d <= 0] [] -> [P(a, x)]\n"
        "clause [d >= 0] [] -> [P(a, x)]\n"
        "clause [] [P(a, y)] -> []\n"
    )
    assert r.status == STATUS_UNSAT


def test_equation_collapse_and_separation():
    sat_eq = run(
        "mode bd\npred P : S^1 R^1\nfreeconst a b\nclause [] [] -> [a ~ b]\n"
    )
    assert sat_eq.status == STATUS_SAT
    assert sat_eq.model.fconst_assign["a"] == sat_eq.model.fconst_assign["b"]
    sat_neq = run(
        "mode bd\npred P : S^1 R^1\nfreeconst a b\nclause [] [a ~ b] -> []\n"
    )
    assert sat_neq.status == STATUS_SAT
    assert sat_neq.model.fconst_assign["a"] != sat_neq.model.fconst_assign["b"]
    unsat = run(
        "mode bd\npred P : S^1 R^1\nfreeconst a b\n"
        "clause [] [] -> [a ~ b]\nclause [] [a ~ b] -> []\n"
    )
    assert unsat.status == STATUS_UNSAT


# --- model soundness --------------------------------------------------------


@pytest.fixture(scope="module")
def sat_instance():
    text = (
        "mode bd\npred P : S^1 R^1\nfreeconst a\n"
        "clause [x < 0] [] -> [P(a, x)]\n"
        "clause [y > 1] [P(a, y)] -> []\n"
    )
    n = normalize(parse_clause_set(text))
    return n, decide(n)


def test_verify_model_accepts_solver_output(sat_instance):
    n, r = sat_instance
    assert r.status == STATUS_SAT
    assert verify_model(n, r.model)


def test_verify_model_rejects_flipped_bits(sat_instance):
    n, r = sat_instance
    flips = corpus.detectable_flips(n, r.model)
    assert flips
    for atom in flips:
        assert not verify_model(n, corpus.flipped_descriptor(r.model, atom))


def test_all_generated_sat_models_verify():
    rng = random.Random(31)
    seen = 0
    while seen < 5:
        cs = corpus._raw_bd(rng)
        r = decide(normalize(cs))
        if r.status != STATUS_SAT:
            continue
        assert verify_model(normalize(cs), r.model)
        seen += 1


def test_verify_model_builds_one_representative_per_premise_class(monkeypatch):
    # the var-var and difference premise of the last clause cut its
    # bound-admitted stream; its equation settles u = a and leaves two of
    # the four free assignments open, and each class still gets one
    # representative
    n = normalize(parse_clause_set(
        "mode bd\npred P : S^1 R^1\npred Q : S^2 R^2\nfreeconst a b\n"
        "clause [x < 0] [] -> [P(a, x)]\n"
        "clause [x < 0] [P(b, x)] -> []\n"
        "clause [x >= 0; x <= 2; y >= 0; y <= 2; x < y; x - y > -2] [] "
        "-> [u ~ a; Q(u, v, x, y)]\n"
    ))
    r = decide(n)
    assert r.status == STATUS_SAT
    # the model holds Q only where the equation leaves the clause open
    q_args = {atom.free_args for atom in r.model.table if atom.pred == "Q"}
    assert q_args == {("b", "a"), ("b", "b")}
    (ctx,) = _contexts(n, SolveStats())
    premise_classes = bound_classes = 0
    for cl in n.clauses:
        bvars = cl.base_vars()
        vidx = {v: i for i, v in enumerate(bvars)}
        bounds = [c for c in cl.lam if isinstance(c, VarConst)]
        premise_classes += len(list(ctx.classes(len(bvars), ctx.checks(cl.lam, vidx))))
        bound_classes += len(list(ctx.classes(len(bvars), ctx.checks(bounds, vidx))))
    assert premise_classes < bound_classes
    built = []
    real = decide_mod.representative_bd_scaled

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(decide_mod, "representative_bd_scaled", counting)
    assert verify_model(n, r.model)
    assert len(built) == premise_classes


def test_verify_model_builds_no_fraction_per_class(monkeypatch):
    # verify scales the premise constants once per clause and then compares
    # integers: the Fractions it builds stay within the number of premise
    # constants however many classes it streams
    seen = {}
    for top in (1, 3):
        n = normalize(parse_clause_set(
            "mode bd\npred P : S^1 R^3\nfreeconst a\n"
            f"clause [x >= -{top}; x <= {top}; y >= 0; y <= {top}; x - y < 1] [] "
            "-> [P(a, x, y, z)]\n"
        ))
        constants = sum(len(cl.rationals()) for cl in n.clauses)
        r = decide(n)
        assert r.status == STATUS_SAT
        made = streamed = 0
        real_new, real_rep = Fraction.__new__, decide_mod.representative_bd_scaled

        def counting_new(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return real_new(cls, *args, **kwargs)

        def counting_rep(*args, **kwargs):
            nonlocal streamed
            streamed += 1
            return real_rep(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(decide_mod, "representative_bd_scaled", counting_rep)
            m.setattr(Fraction, "__new__", counting_new)
            assert verify_model(n, r.model)
        assert made <= constants
        seen[top] = made, streamed
    assert seen[3][1] > 10 * seen[1][1]
    assert seen[3][0] <= seen[1][0], seen


def _reached_from(*roots: str) -> dict:
    # the top-level functions and classes of bsrsat.decide that the roots
    # name outside type annotations, directly or through those they name in
    # turn, by name
    tree = ast.parse(inspect.getsource(decide_mod))
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    annotations = {
        id(name)
        for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if ann is not None
        for name in ast.walk(ann)
    }
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = defs[name]
        todo.extend(
            node.id for node in ast.walk(defs[name])
            if isinstance(node, ast.Name) and node.id in defs and id(node) not in annotations
        )
    return reached


def _names_read(defs) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for fn in defs.values()
        for node in ast.walk(fn)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_verify_model_judges_values_not_cells():
    # verify re-checks the premise on representatives; neither it nor any
    # function of decide it reaches reads the cell checks that pruned the
    # stream or the class selection of grounding.  It calls the context's
    # methods through ``desc.ctx``, which names no definition, so
    # ``_Context`` is a root of its own.
    cells = {"check_holds", "select_class", "_class_ok"}
    reached = _reached_from("verify_model", "_Context")
    assert {"_scaled_premise", "_plan", "_cases"} <= reached.keys()
    assert not _names_read(reached) & cells
    assert _names_read(_reached_from("_ground_clause")) >= {"select_class", "_class_ok"}


# --- resource limits and options --------------------------------------------


def test_max_candidates_raises_with_stats():
    text = (
        "mode bd\npred P : S^1 R^1\nfreeconst a b c\n"
        "clause [] [] -> [a ~ b]\nclause [] [a ~ b] -> []\n"
    )
    n = normalize(parse_clause_set(text))
    with pytest.raises(ResourceLimitError) as exc:
        decide(n, max_candidates=1)
    assert exc.value.stats.candidates == 2


# --- free-constant candidates -----------------------------------------------


@pytest.mark.parametrize("n, bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_candidates_are_one_per_set_partition(n, bell):
    names = [f"c{i}" for i in range(n)]
    cands = list(_candidates(reversed(names)))
    assert len(cands) == bell
    partitions = set()
    for domain, assign in cands:
        k = len(domain)
        assert domain == tuple(names[:k])
        assert set(assign) == set(names)
        assert set(assign.values()) == set(domain)
        partitions.add(frozenset(
            frozenset(c for c in names if assign[c] == d) for d in domain
        ))
    assert len(partitions) == bell
    # by block count, then lexicographic in the assignment tuple, blocks
    # labelled in order of first appearance
    keys = [(len(d), tuple(a[c] for c in names)) for d, a in cands]
    assert keys == sorted(keys)
    for _, values in keys:
        firsts = list(dict.fromkeys(values))
        assert firsts == names[: len(firsts)]


def _exhaustive_candidates(fconsts):
    """Every nonempty domain subset crossed with every assignment into it."""
    names = sorted(fconsts)
    for size in range(1, len(names) + 1):
        for domain in itertools.combinations(names, size):
            for values in itertools.product(domain, repeat=len(names)):
                yield domain, dict(zip(names, values))


def _with_constant_c(cs):
    """cs plus a free constant c, distinct from a, standing for a in a copy
    of cs's first clause."""
    a, c = FreeTerm("a", True), FreeTerm("c", True)

    def sub(t):
        return c if t == a else t

    def swap(atom):
        if isinstance(atom, Equation):
            return Equation(sub(atom.left), sub(atom.right))
        return PredAtom(atom.pred, tuple(map(sub, atom.free_args)), atom.base_args)

    first = cs.clauses[0]
    cs.clauses.append(Clause.make(
        list(first.lam), [swap(x) for x in first.gamma], [swap(x) for x in first.delta]
    ))
    cs.clauses.append(Clause.make([], [Equation(a, c)], []))
    cs.fconsts = list(cs.fconsts) + ["c"]
    return cs


def _non_stat_lines(report):
    return [
        line for line in emit_result(report, "structured").splitlines()
        if not line.startswith("stat ")
    ]


def test_partition_candidates_match_exhaustive_candidates(monkeypatch):
    rng = random.Random(41)
    sets = [
        normalize(parse_clause_set(
            "mode bd\npred P : S^1 R^1\nfreeconst a b c\n"
            "clause [] [a ~ b] -> []\nclause [] [] -> [a ~ c]\n"
            "clause [x >= 0; x <= 1] [P(b, x)] -> [P(c, x)]\n"
        ))
    ]
    for i in range(16):
        raw = (corpus._raw_bd, corpus._raw_slr)[i % 2](rng)
        sets.append(normalize(_with_constant_c(raw) if i % 4 < 2 else raw))
    assert sum(len(n.fconsts) >= 3 for n in sets) >= 3
    reports = [decide(n) for n in sets]
    monkeypatch.setattr(decide_mod, "_candidates", _exhaustive_candidates)
    for n, r in zip(sets, reports):
        old = decide(n)
        assert r.status == old.status
        assert _non_stat_lines(r) == _non_stat_lines(old)
        assert r.stats.candidates <= old.stats.candidates


def test_naive_budget_error():
    text = (
        "mode bd\npred P : S^0 R^2\npred Q : S^0 R^2\nfreeconst a\n"
        "clause [] [] -> [P(x, y); Q(y, x)]\n"
    )
    n = normalize(parse_clause_set(text))
    with pytest.raises(NaiveBudgetError):
        naive_decide(n, atom_budget=3)


def test_decide_agrees_with_naive_on_small_corpus():
    for n in corpus.bd_instances(97, count=4):
        assert decide(n).status == naive_decide(n).status


def _with_disequations(cs, rng, p=0.4):
    """cs with the relation of each variable premise conjunct turned into
    ``!=`` with probability p; the pool draws none of their own."""
    for i, cl in enumerate(cs.clauses):
        lam = [replace(c, rel=Relation.NEQ)
               if isinstance(c, (VarConst, VarVar, DiffConst)) and rng.random() < p else c
               for c in cl.lam]
        cs.clauses[i] = Clause.make(lam, cl.gamma, cl.delta)
    return cs


def test_decide_agrees_with_naive_on_disequation_premises(monkeypatch):
    # in-range x_b - x_a != d checks are floor holes of the bd streams
    holes = 0

    def counted(*args):
        nonlocal holes
        cuts = pair_cuts(*args)
        holes += cuts is not None and bool(cuts[2])
        return cuts

    pair_cuts = regions._pair_cuts
    monkeypatch.setattr(regions, "_pair_cuts", counted)
    rng = random.Random(11)
    decided = 0
    for i in range(120):
        cs = _with_disequations((corpus._raw_bd, corpus._raw_slr)[i % 2](rng), rng)
        try:
            n = normalize(cs)
        except GuardViolationError:
            continue  # a bound that guarded x - y became x != c
        try:
            naive = naive_decide(n)
        except NaiveBudgetError:
            continue
        decided += 1
        assert decide(n).status == naive.status
    assert decided >= 50
    assert holes > 0


# --- stats and reports ------------------------------------------------------


def test_stats_are_populated():
    text = "mode slr\npred P : S^1 R^1\nfreeconst a\nskolem d\nclause [x < d] [] -> [P(a, x)]\n"
    r = run(text)
    assert r.stats.preorders >= 1
    assert r.stats.candidates >= 1
    assert r.stats.prop_vars >= 1
    assert r.stats.wall_ms >= 0


def test_dpll_counts_its_decisions_into_the_report(monkeypatch):
    handed, total = [], 0

    def spy(inst, stats):
        nonlocal total
        own = SolveStats()
        dpll(inst, own)
        total += own.decisions
        handed.append(stats)
        return dpll(inst, stats)

    dpll = decide_mod._dpll
    monkeypatch.setattr(decide_mod, "_dpll", spy)
    rng = random.Random(3)
    branched = 0
    for i in range(20):
        handed, total = [], 0
        r = decide(normalize((corpus._raw_bd, corpus._raw_slr)[i % 2](rng)))
        assert all(stats is r.stats for stats in handed)
        assert r.stats.decisions == total
        branched += total > 0
    assert branched >= 3


def test_report_model_status_coupling():
    with pytest.raises(ValueError):
        ResultReport(STATUS_SAT, None)
    with pytest.raises(ValueError):
        ResultReport(STATUS_UNSAT, object())


def test_emit_structured_report(sat_instance):
    _, r = sat_instance
    text = emit_result(r, "structured")
    assert "status: sat\n" in text
    assert "stat candidates:" in text
    assert "domain:" in text
    assert any(line.startswith("model: P") for line in text.splitlines())


def test_emit_human_report(sat_instance):
    _, r = sat_instance
    text = emit_result(r, "human")
    assert text.startswith("status: SAT")
    assert "predicate table" in text
    assert "stats:" in text


@pytest.mark.parametrize("name", sorted(DECIDE_CASES))
def test_legend_is_built_when_printed_not_when_decided(name, monkeypatch):
    # a SAT verdict carries its context and table; the class numbering and
    # the legend's representatives are worked out only when the model is
    # printed, and then print the golden text
    text, want = DECIDE_CASES[name]
    calls = 0
    real = decide_mod.representative

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(decide_mod, "representative", counting)
    r = run(text)
    assert calls == 0
    got = emit_result(r, "structured").splitlines()
    assert [line for line in got if not line.startswith("stat wall ms:")] == want.splitlines()
    assert calls == len(r.model.class_index)


def test_emit_zero_filled_stats():
    text = emit_result(ResultReport(STATUS_UNSAT, None, SolveStats()), "structured")
    assert "stat decisions: 0" in text


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_result(ResultReport(STATUS_UNSAT), "json")


# --- preorders ---------------------------------------------------------------


def _filtered_preorders(skolems, rationals):
    """Reference: every ordered partition of the rationals (ascending) and
    then the Skolems, kept when distinct rationals occupy distinct blocks in
    ascending order."""
    elements = tuple(sorted(set(rationals))) + tuple(sorted(set(skolems)))
    for part in ordered_set_partitions(elements):
        per_block = [[e for e in block if isinstance(e, Fraction)] for block in part]
        rats = [r for rs in per_block for r in rs]
        if all(len(rs) <= 1 for rs in per_block) and rats == sorted(rats):
            yield part


def test_preorders_built_equal_the_filtered_partitions():
    for n_rats in range(4):
        for n_skolems in range(5):
            skolems = [f"s{i}" for i in range(n_skolems)]
            rats = [Fraction(i, 3) for i in range(n_rats)]
            assert list(enumerate_preorders(skolems, rats)) == list(
                _filtered_preorders(skolems, rats)), (n_rats, n_skolems)
    # every slr draw of the benchmark's 1,200-draw pool
    rng = random.Random(1706)
    kept = 0
    for i in range(1200):
        raw = (corpus._raw_bd, corpus._raw_slr)[i % 2](rng)
        if i % 2 == 0:
            continue
        cs = normalize(raw)
        skolems, rats = sorted(cs.skolems), sorted(cs.rationals())
        want = list(_filtered_preorders(skolems, rats))
        assert list(enumerate_preorders(skolems, rats)) == want, i
        kept += len(want)
    assert kept == 18754


# --- preorder witnesses -----------------------------------------------------


def _all_pairs_gamma(pre, defs, skolems):
    """Reference witness: one constraint per ordered pair of elements
    (<= within a block, < across blocks), skipping pairs of rationals."""
    sys = GroundSystem(list(defs))
    for bi, block in enumerate(pre):
        for bj in range(bi, len(pre)):
            for c in block:
                for c2 in pre[bj]:
                    if c == c2 or (isinstance(c, Fraction) and isinstance(c2, Fraction)):
                        continue
                    rel = Relation.LE if bi == bj else Relation.LT
                    sys.add(_gterm(c), rel, _gterm(c2))
    return solve_ground(sys, names=list(skolems))


def test_chain_preorder_witness_matches_all_pairs(monkeypatch):
    sizes = []

    def recording_solve(sys, names=()):
        sizes.append(len(sys.constraints))
        return solve_ground(sys, names)

    monkeypatch.setattr(decide_mod, "solve_ground", recording_solve)
    checked = feasible = 0
    for n in (1, 2, 3):
        skolems = [f"s{i}" for i in range(n)]
        # definitions that pin s0 to 0 or to 1/3, or force s0 = s_last = 0
        # when the two share a block: strict and weak orders then differ
        pins = [GroundTerm.make(0, {skolems[-1]: 2}), GroundTerm.constant(Fraction(1, 3))]
        for rats in ((), (Fraction(0),), (Fraction(0), Fraction(1, 3))):
            for defs in ([], *([(GroundTerm.skolem("s0"), Relation.EQ, t)] for t in pins)):
                for pre in enumerate_preorders(skolems, rats):
                    sizes.clear()
                    gamma = _preorder_gamma(pre, defs, skolems)
                    assert gamma == _all_pairs_gamma(pre, defs, skolems), (pre, defs)
                    # a chain: at most one constraint per neighbouring pair
                    assert sizes[0] <= len(defs) + n + len(rats) - 1
                    checked += 1
                    feasible += gamma is not None
    assert checked > 100 and 0 < feasible < checked
