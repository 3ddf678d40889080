"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run `pytest -s tests/test_acceptance.py` to see the summary lines.  Every
numbered criterion below is exercised end to end at its stated scale; the
clause-count law in criterion 6 is recorded as an expected failure because
the realizable delay-profile census contradicts it (see that test's note).
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bsrsat.corpus import (bd_instances, detectable_flips, flipped_descriptor,
                           ground_systems, slr_instances, timed_instances)
from bsrsat.decide import decide, enumerate_preorders, naive_decide, verify_model
from bsrsat.linarith import solve_ground
from bsrsat.normalize import normalize
from bsrsat.parser import parse_ta
from bsrsat.ramsey import (ColoringOracle, check_mono_ascending,
                           check_mono_mapped, mono_ascending, mono_mapped,
                           mono_product)
from bsrsat.regions import (PartitionJ, class_of_bd, class_of_slr,
                            enumerate_bd_bounded, enumerate_bd_unbounded,
                            enumerate_slr_classes, representative)
from bsrsat.report import STATUS_SAT, STATUS_UNSAT
from bsrsat.terms import Relation
from bsrsat.timed import (default_lambda, delay_profiles,
                          delay_sets_equal_check, encode_fol_la,
                          encode_reachability, lower_delay_clauses,
                          region_reach)

from test_ramsey import (BD_SAMPLES, KAPPA, _slr_rebuilt, _slr_selection,
                         bd_color, bd_pred, shift_closure, shifted_coloring,
                         stable_chi)

F = Fraction


def announce(line: str) -> None:
    print(f"\n{line}")


@functools.lru_cache(maxsize=1)
def _bd_reports():
    corp = bd_instances(0, 50)
    return [(n, decide(n)) for n in corp]


@functools.lru_cache(maxsize=1)
def _slr_reports():
    corp = slr_instances(0, 30)
    return [(n, decide(n)) for n in corp]


def test_criterion_1_bd_oracle_equivalence():
    t0 = time.monotonic()
    reports = _bd_reports()
    mismatches = [i for i, (n, rep) in enumerate(reports)
                  if naive_decide(n).status != rep.status]
    elapsed = time.monotonic() - t0
    assert mismatches == []
    assert elapsed < 300
    sat = sum(rep.status == STATUS_SAT for _, rep in reports)
    announce(f"criterion 1: PASS — 50/50 difference-bound verdicts agree "
             f"(decide vs naive enumerator, {sat} sat, {elapsed:.1f}s)")


def test_criterion_2_slr_oracle_equivalence():
    t0 = time.monotonic()
    reports = _slr_reports()
    mismatches = [i for i, (n, rep) in enumerate(reports)
                  if naive_decide(n).status != rep.status]
    elapsed = time.monotonic() - t0
    assert mismatches == []
    assert elapsed < 600
    sat = sum(rep.status == STATUS_SAT for _, rep in reports)
    announce(f"criterion 2: PASS — 30/30 ordered-rational verdicts agree "
             f"(decide vs naive enumerator, {sat} sat, {elapsed:.1f}s)")


def test_criterion_3_model_soundness_and_fault_injection():
    rng = random.Random(3)
    checked = 0
    for n, rep in _bd_reports() + _slr_reports():
        if rep.status != STATUS_SAT:
            continue
        assert verify_model(n, rep.model)
        flips = detectable_flips(n, rep.model)
        assert flips, "every satisfiable instance must expose a detectable flip"
        atom = rng.choice(flips)
        assert not verify_model(n, flipped_descriptor(rep.model, atom))
        checked += 1
    announce(f"criterion 3: PASS — {checked}/{checked} satisfiable models "
             f"verified; a random table-bit flip is rejected on each")


def _sixteenths(lo16: int, hi16: int) -> list[Fraction]:
    return [F(k, 16) for k in range(lo16, hi16 + 1)]


def test_criterion_4_region_round_trip_and_grid_census():
    cells = 0
    for pts in ([], [F(0)], [F(0), F(1)]):
        part = PartitionJ.make(pts)
        lo = int(min(pts) - 1) * 16 if pts else 0
        hi = int(max(pts) + 1) * 16 if pts else 16
        grid = _sixteenths(lo, hi)
        for k in (1, 2, 3):
            classes = set(enumerate_slr_classes(k, part))
            assert all(class_of_slr(representative(c, part), part) == c
                       for c in classes)
            hits = {class_of_slr(t, part)
                    for t in itertools.product(grid, repeat=k)}
            assert hits == classes
            cells += 1
    for bounded in (True, False):
        for kappa in (1, 2):
            if bounded:
                grid = _sixteenths(-(kappa + 1) * 16 + 1, (kappa + 1) * 16 - 1)
                enum = enumerate_bd_bounded
            else:
                # three sixteenths past the clamp realize every outer ordering
                grid = _sixteenths(-(kappa + 1) * 16 - 3, (kappa + 1) * 16 + 3)
                enum = enumerate_bd_unbounded
            for k in (1, 2, 3):
                classes = set(enum(k, kappa))
                assert all(
                    class_of_bd(representative(c), kappa, bounded=bounded) == c
                    for c in classes)
                hits = {class_of_bd(t, kappa, bounded=bounded)
                        for t in itertools.product(grid, repeat=k)}
                assert hits == classes
                cells += 1
    announce(f"criterion 4: PASS — exact round-trip and 1/16-grid census "
             f"equality on {cells} (mode, arity, parameter) cells")


def test_criterion_5_timed_reachability_differential():
    t0 = time.monotonic()
    cases = timed_instances(0, 20)
    agree = 0
    for aut, goal in cases:
        lam = default_lambda(aut, goal)
        by_region = region_reach(aut, goal, lam)
        report = decide(normalize(encode_reachability(aut, goal, lam)))
        by_clauses = report.status == STATUS_UNSAT
        assert by_region == by_clauses
        agree += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    announce(f"criterion 5: PASS — region oracle and clause encoding agree "
             f"on {agree}/20 automata ({elapsed:.1f}s)")


def test_criterion_6_delay_set_equivalence():
    total = 0
    for lam in (1, 2):
        for cls in enumerate_bd_bounded(2, lam, floor_lo=0):
            assert delay_sets_equal_check(cls, lam)
            total += 1
    announce(f"criterion 6: PASS — delay-set equivalence holds on all "
             f"{total} two-clock regions at lambda <= 2")


LOCK_TA = """clocks x y
loc a init inv true
loc b inv true
trans a -> b guard x <= 0 reset {}
"""


@pytest.mark.xfail(
    strict=True,
    reason="the lowered delay clauses realize 4*lambda + 3 difference "
    "profiles per clock pair (7, 11, 15 at lambda = 1, 2, 3), not "
    "4*(2*lambda + 1); no fixed additive part reconciles slopes 4 and 8")
def test_criterion_6_lowered_clause_count_formula():
    aut = parse_ta(LOCK_TA)
    cs = encode_fol_la(aut)
    n_delay = len(aut.locations)
    n_rest = len(cs.clauses) - n_delay
    announce("criterion 6 (clause-count law): FAIL — lowered totals follow "
             "n_rest + n_delay*(4*lambda + 3) per clock pair, "
             "not n_rest + n_delay*4*(2*lambda + 1)")
    for lam in (1, 2):
        low = lower_delay_clauses(cs, lam)
        assert len(low.clauses) == n_rest + n_delay * 4 * (2 * lam + 1)


def test_criterion_7_monochromatic_constructions_and_rebuilds():
    verified = 0
    for m in (1, 2):
        for n in (1, 2, 3):
            for ncol in (1, 2, 3):
                size = {1: 9, 2: {1: 9, 2: 20, 3: 90}[ncol]}[m]
                rs = [F(k, 4) for k in range(1, size + 1)]
                for seed in (0, 1, 2):
                    chi = stable_chi((seed, ncol), ncol)
                    q = mono_ascending(rs, m, n, chi)
                    assert len(q) == n and set(q) <= set(rs)
                    assert check_mono_ascending(q, m, chi)
                    verified += 1
    for seed in range(100, 103):
        chi = stable_chi(seed, 2)
        qs = mono_product([[F(k) for k in range(1, 4)],
                           [F(k, 2) for k in range(1, 25)]], 1, 2, chi)
        assert len({chi((a, b)) for a in qs[0] for b in qs[1]}) == 1
        verified += 1
    for seed in range(200, 203):
        chi = stable_chi(seed, 2)
        out = mono_mapped([[F(k, 3) for k in range(1, 9)]], [F(10)], 1, 2, chi)
        assert check_mono_mapped(out, [F(10)], 1, chi)
        verified += 1

    q1, q2, chi = _slr_selection()
    assert check_mono_mapped([q1, q2], [F(0)], 2, chi)
    ncs, desc = _slr_rebuilt()
    assert verify_model(ncs, desc)

    qprime = mono_ascending(BD_SAMPLES, 1, 2, shifted_coloring(1))
    seen = {}
    for s in shift_closure(qprime):
        cls = class_of_bd((s,), KAPPA, bounded=False)
        assert seen.setdefault(cls, bd_pred(s)) == bd_pred(s)
    assert set(seen) == set(enumerate_bd_unbounded(1, KAPPA))
    qpair = mono_ascending(BD_SAMPLES, 2, 3, shifted_coloring(2))
    seen = {}
    for s in itertools.product(shift_closure(qpair), repeat=2):
        cls = class_of_bd(s, KAPPA, bounded=False)
        assert seen.setdefault(cls, bd_color(s)) == bd_color(s)
    assert set(seen) == set(enumerate_bd_unbounded(2, KAPPA))
    announce(f"criterion 7: PASS — {verified} selections exhaustively "
             f"monochromatic; rebuilt interpretation verifies; shifted "
             f"lifting constant on every region (kappa=1, lambda=2)")


_NUMPY_OPS = {Relation.LE: np.less_equal, Relation.LT: np.less,
              Relation.GE: np.greater_equal, Relation.GT: np.greater,
              Relation.EQ: np.equal, Relation.NEQ: np.not_equal}


def _grid_satisfiable(system, box: int = 2) -> bool:
    """Exhaustive 1/16-grid check; every constant is dyadic, so float
    arithmetic is exact here."""
    names = sorted({n for l, _, r in system.constraints for n in l.skolems() | r.skolems()})
    axis = np.arange(-box * 16, box * 16 + 1, dtype=np.float64) / 16.0
    grids = dict(zip(names, np.meshgrid(*([axis] * len(names)),
                                        indexing="ij", sparse=True)))
    mask = np.ones((1,) * len(names), dtype=bool)
    for left, rel, right in system.constraints:
        e = left.sub(right)
        val = float(e.offset)
        for name, c in e.coeffs:
            val = val + float(c) * grids[name]
        mask = mask & _NUMPY_OPS[rel](val, 0.0)
    return bool(mask.any())


def test_criterion_8_ground_solver_completeness():
    systems = ground_systems(0, 200)
    for system in systems:
        witness = solve_ground(system)
        assert (witness is not None) == _grid_satisfiable(system)
        if witness is not None:
            assert all(rel.holds(l.evaluate(witness), r.evaluate(witness))
                       for l, rel, r in system.constraints)
    counts = [len(list(enumerate_preorders([f"s{i}" for i in range(n)])))
              for n in range(1, 5)]
    assert counts == [1, 3, 13, 75]
    announce("criterion 8: PASS — elimination verdicts match the 1/16-grid "
             "oracle on 200/200 systems; preorder counts 1, 3, 13, 75")
