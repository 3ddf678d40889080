"""Monochromatic-selection helpers: worked examples, failure stages,
randomized sweeps, and the two end-to-end uniform-model rebuilds."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from bsrsat.decide import InterpretationDescriptor, PropAtom, _Context, verify_model
from bsrsat.normalize import normalize
from bsrsat.parser import parse_clause_set
from bsrsat.ramsey import (
    ColoringOracle,
    InsufficientInputError,
    check_mono_ascending,
    check_mono_mapped,
    mono_ascending,
    mono_mapped,
    mono_product,
    pattern_maps,
)
from bsrsat.regions import (
    PartitionJ,
    class_of_bd,
    class_of_slr,
    enumerate_bd_unbounded,
    enumerate_slr_classes,
)
from bsrsat.terms import MODE_SLR

F = Fraction


def stable_chi(seed, ncol):
    """Random coloring that depends only on the tuple, not on query order."""
    def chi(t):
        return random.Random(hash((seed, t))).randrange(ncol)
    return chi


def parity(t):
    return int((t[1] - t[0]).__floor__()) % 2


NATS = [F(k) for k in range(1, 21)]


class TestMonoAscending:
    def test_constant_coloring_keeps_first_elements(self):
        rs = [F(k, 2) for k in range(1, 6)]
        q = mono_ascending(rs, 1, 3, ColoringOracle(lambda t: 0, 1, 1))
        assert q == (F(1, 2), F(1), F(3, 2))

    def test_floor_difference_parity(self):
        chi = ColoringOracle(parity, 2, 2)
        q = mono_ascending(NATS, 2, 3, chi)
        assert q == (F(2), F(4), F(6))
        assert check_mono_ascending(q, 2, chi)

    def test_vacuous_when_n_below_m(self):
        q = mono_ascending(NATS, 4, 2, ColoringOracle(parity, 2, 2))
        assert q == (F(1), F(2))

    def test_deterministic_and_order_insensitive(self):
        chi = stable_chi(3, 2)
        rs = [F(k, 3) for k in range(1, 19)]
        q1 = mono_ascending(rs, 2, 3, chi)
        q2 = mono_ascending(list(reversed(rs)), 2, 3, chi)
        assert q1 == q2 == mono_ascending(rs, 2, 3, chi)

    def test_duplicates_collapse(self):
        rs = [F(1), F(2), F(3), F(2), F(1)]
        q = mono_ascending(rs, 1, 3, ColoringOracle(lambda t: 0, 1, 1))
        assert q == (F(1), F(2), F(3))

    def test_insufficient_chain_names_stage(self):
        with pytest.raises(InsufficientInputError) as exc:
            mono_ascending([F(1), F(2)], 2, 3, ColoringOracle(lambda t: 0, 2, 1))
        assert exc.value.stage == "ascending selection (m=2)"

    def test_vacuous_prefix_needs_n_elements(self):
        with pytest.raises(InsufficientInputError) as exc:
            mono_ascending([F(1)], 3, 2, ColoringOracle(lambda t: 0, 3, 1))
        assert exc.value.stage == "vacuous prefix (n=2 < m=3)"

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            mono_ascending(NATS, 0, 2, parity)
        with pytest.raises(ValueError):
            mono_ascending(NATS, 2, 0, parity)


class TestMonoProduct:
    def test_single_component_delegates(self):
        chi = ColoringOracle(parity, 2, 2)
        assert mono_product([NATS], 2, 3, chi) == [(F(2), F(4), F(6))]

    def test_constant_coloring_keeps_prefixes(self):
        r1 = [F(k) for k in range(1, 5)]
        r2 = [F(k, 2) for k in range(1, 9)]
        qs = mono_product([r1, r2], 1, 2, ColoringOracle(lambda t: 0, 2, 1))
        assert qs == [(F(1), F(2)), (F(1, 2), F(1))]

    def test_first_block_only_coloring_collapses_second(self):
        r1 = [F(k) for k in range(1, 7)]
        r2 = [F(k, 2) for k in range(1, 13)]
        chi = ColoringOracle(lambda t: int(t[0] > 3), 2, 2)
        qs = mono_product([r1, r2], 1, 2, chi)
        assert qs == [(F(1), F(2)), (F(1, 2), F(1))]

    def test_crossed_thresholds_monochromatic(self):
        r1 = [F(k) for k in range(1, 8)]
        r2 = [F(k, 2) for k in range(1, 15)]

        def chi(t):
            return int((t[0] > 3) != (t[1] > 2))

        qs = mono_product([r1, r2], 1, 3, chi)
        assert qs == [(F(4), F(5), F(6)), (F(5, 2), F(3), F(7, 2))]
        assert len({chi((a, b)) for a in qs[0] for b in qs[1]}) == 1

    def test_distinguishing_first_block_names_first_component(self):
        r1 = [F(1), F(2), F(3)]
        r2 = [F(k, 2) for k in range(1, 5)]
        with pytest.raises(InsufficientInputError) as exc:
            mono_product([r1, r2], 2, 2, lambda t: int(t[0] * 2))
        assert exc.value.stage == "product component 1"

    def test_scattering_last_block_names_last_component(self):
        r1 = [F(1), F(2), F(3)]
        r2 = [F(1), F(2), F(3), F(4)]
        table = {(F(1), F(2)): 0, (F(1), F(3)): 1, (F(1), F(4)): 1,
                 (F(3), F(4)): 2}
        with pytest.raises(InsufficientInputError) as exc:
            mono_product([r1, r2], 2, 2,
                         lambda t: table.get((t[2], t[3]), 0))
        assert exc.value.stage == "product component 2"


class TestMonoMapped:
    def test_reduces_to_ascending_without_patterns(self):
        rs = [F(k) for k in range(1, 7)]

        def bucket(t):
            return int(t[0]) % 3

        assert mono_mapped([rs], [], 1, 2, bucket) == [mono_ascending(rs, 1, 2, bucket)]

    def test_fixed_point_only_coloring_keeps_prefix(self):
        rs = [F(k) for k in range(1, 7)]
        chi = ColoringOracle(lambda t: int(t[0] == F(7)), 1, 2)
        out = mono_mapped([rs], [F(7)], 1, 2, chi)
        assert out == [(F(1), F(2))]
        assert check_mono_mapped(out, [F(7)], 1, chi)

    def test_pattern_enumeration_shape(self):
        maps = pattern_maps(1, 0, 1)
        assert maps == [(((1, 1)),)]
        assert len(pattern_maps(1, 1, 2)) == 9

    def test_negative_count_coloring_pair_patterns(self):
        rs = [F(k, 4) for k in range(-15, 16) if k]

        def signsum(t):
            return sum(1 for v in t if v < 0)

        out = mono_mapped([rs], [F(-9)], 2, 3, signsum)
        assert out == [(F(-15, 4), F(-7, 2), F(-13, 4))]
        assert check_mono_mapped(out, [F(-9)], 2, signsum)

    def test_shrinking_failure_names_pattern(self):
        rs = [F(k) for k in range(1, 7)]
        with pytest.raises(InsufficientInputError) as exc:
            mono_mapped([rs], [F(5)], 1, 6,
                        ColoringOracle(lambda t: int(t[0] * 2), 1, 100))
        assert exc.value.stage == "pattern 1/2"


class TestColoringOracle:
    def test_memoizes_and_counts(self):
        calls = []
        chi = ColoringOracle(lambda t: calls.append(t) or 0, 2, 1)
        chi((F(1), F(2)))
        chi((F(1), F(2)))
        assert chi.queries == 1 and len(calls) == 1

    def test_arity_mismatch_rejected(self):
        chi = ColoringOracle(lambda t: 0, 2, 1)
        with pytest.raises(ValueError, match="2-tuple"):
            chi((F(1),))

    def test_color_out_of_range_rejected(self):
        chi = ColoringOracle(lambda t: 7, 1, 4)
        with pytest.raises(ValueError, match="range"):
            chi((F(1),))

    def test_non_integer_color_rejected(self):
        chi = ColoringOracle(lambda t: "red", 1, 4)
        with pytest.raises(ValueError):
            chi((F(1),))

    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            ColoringOracle(lambda t: 0, 0, 1)
        with pytest.raises(ValueError):
            ColoringOracle(lambda t: 0, 1, 0)


class TestExhaustiveChecks:
    def test_detects_polychromatic_set(self):
        assert not check_mono_ascending([F(1), F(2), F(3)], 2, parity)

    def test_detects_pattern_violation(self):
        qss = [(F(1), F(2))]
        assert not check_mono_mapped(qss, [], 1, lambda t: int(t[0]))


class TestRandomizedSweeps:
    @pytest.mark.parametrize("seed", range(5))
    def test_unary_random_colorings(self, seed):
        rs = [F(k, 2) for k in range(1, 10)]
        chi = stable_chi(seed, 3)
        q = mono_ascending(rs, 1, 3, chi)
        assert len(q) == 3 and set(q) <= set(rs)
        assert check_mono_ascending(q, 1, chi)

    @pytest.mark.parametrize("seed,ncol,size", [(s, 2, 20) for s in range(6)]
                             + [(s, 3, 90) for s in range(6)])
    def test_pair_random_colorings(self, seed, ncol, size):
        rs = [F(k, 4) for k in range(1, size + 1)]
        chi = stable_chi((seed, ncol), ncol)
        q = mono_ascending(rs, 2, 3, chi)
        assert q == tuple(sorted(q)) and set(q) <= set(rs)
        assert check_mono_ascending(q, 2, chi)

    @pytest.mark.parametrize("seed", range(100, 105))
    def test_product_random_colorings(self, seed):
        r1 = [F(k) for k in range(1, 4)]
        r2 = [F(k, 2) for k in range(1, 25)]
        chi = stable_chi(seed, 2)
        qs = mono_product([r1, r2], 1, 2, chi)
        assert all(len(q) == 2 for q in qs)
        assert len({chi((a, b)) for a in qs[0] for b in qs[1]}) == 1

    @pytest.mark.parametrize("seed", range(200, 205))
    def test_mapped_random_colorings(self, seed):
        rs = [F(k, 3) for k in range(1, 9)]
        chi = stable_chi(seed, 2)
        out = mono_mapped([rs], [F(10)], 1, 2, chi)
        assert len(out[0]) == 2
        assert check_mono_mapped(out, [F(10)], 1, chi)


SLR_TEXT = """mode slr
pred P : S^1 R^1
pred Q : S^1 R^1
freeconst a
skolem d
clause [x < d] [] -> [P(a, x)]
clause [x > d] [P(a, x)] -> [Q(a, x)]
clause [] [Q(a, y)] -> [P(a, y)]
"""


def slr_pred_p(r):
    return r < 0 or 1 < r < 2


def slr_pred_q(r):
    return F(1) < r < 2


def slr_color(t):
    r1, r2 = t
    return ((slr_pred_p(r1) << 3) | (slr_pred_p(r2) << 2)
            | (slr_pred_q(r1) << 1) | slr_pred_q(r2))


@functools.lru_cache(maxsize=1)
def _slr_selection():
    r1 = tuple(F(-k, 4) for k in range(1, 25))
    r2 = tuple(F(k, 8) for k in range(1, 33) if k % 8)
    chi = ColoringOracle(slr_color, 2, 16)
    q1, q2 = mono_mapped([r1, r2], [F(0)], 2, 3, chi)
    return q1, q2, chi


@functools.lru_cache(maxsize=1)
def _slr_rebuilt():
    q1, q2, _ = _slr_selection()
    ncs = normalize(parse_clause_set(SLR_TEXT))
    part = PartitionJ.make([F(0)])
    pool = sorted(set(q1) | set(q2) | {F(0)})
    table = {}
    for cls in enumerate_slr_classes(1, part):
        members = [v for v in pool if class_of_slr((v,), part) == cls]
        assert members, "selection must touch every unary region"
        table[PropAtom("P", ("e0",), cls)] = slr_pred_p(members[0])
        table[PropAtom("Q", ("e0",), cls)] = slr_pred_q(members[0])
    desc = InterpretationDescriptor(
        ctx=_Context(MODE_SLR, {"d": F(0)}, partition=part), domain=("e0",),
        fconst_assign={"a": "e0"}, table=table)
    return ncs, desc


class TestSlrModelRebuild:
    """Select representative sets against a concrete interpretation, confirm
    the coloring is invariant across order-equivalent tuples drawn from them,
    and rebuild a verifying uniform interpretation from representatives."""

    def test_selected_sets_frozen(self):
        q1, q2, chi = _slr_selection()
        assert q1 == (F(-6), F(-23, 4), F(-11, 2))
        assert q2 == (F(1, 8), F(1, 4), F(3, 8))
        assert check_mono_mapped([q1, q2], [F(0)], 2, chi)

    def test_coloring_constant_on_equivalent_tuples(self):
        q1, q2, _ = _slr_selection()
        part = PartitionJ.make([F(0)])
        pool = sorted(set(q1) | set(q2) | {F(0)})
        for m in (1, 2):
            seen = {}
            for tup in itertools.product(pool, repeat=m):
                cls = class_of_slr(tup, part)
                color = (slr_color(tup) if m == 2
                         else (slr_pred_p(tup[0]) << 1) | slr_pred_q(tup[0]))
                assert seen.setdefault(cls, color) == color

    def test_rebuilt_interpretation_verifies(self):
        ncs, desc = _slr_rebuilt()
        assert verify_model(ncs, desc)

    def test_flipped_entry_breaks_verification(self):
        ncs, desc = _slr_rebuilt()
        above = class_of_slr((F(1, 2),), PartitionJ.make([F(0)]))
        bad_table = dict(desc.table)
        key = PropAtom("Q", ("e0",), above)
        bad_table[key] = not bad_table[key]
        bad = InterpretationDescriptor(
            ctx=desc.ctx, domain=desc.domain, fconst_assign=desc.fconst_assign,
            table=bad_table)
        assert not verify_model(ncs, bad)


KAPPA = 1


def bd_pred(r):
    return (-1 < r <= F(1, 2)) or (r >= F(3, 2))


def bd_color(t):
    return tuple(bd_pred(s) for s in t)


def shifted_coloring(m):
    """Color fractional tuples by the behaviour of every integer-shifted,
    coordinate-remapped variant, with 0 adjoined as coordinate 0."""
    combos = [(rho, sig)
              for rho in itertools.product(range(m + 1), repeat=m)
              for sig in itertools.product(range(-KAPPA - 1, KAPPA + 1), repeat=m)]
    cache = {}

    def chi_hat(rbar):
        if rbar not in cache:
            vals = (F(0),) + tuple(rbar)
            cache[rbar] = tuple(
                bd_color(tuple(vals[rho[i]] + sig[i] for i in range(m)))
                for rho, sig in combos)
        return cache[rbar]

    return chi_hat


def shift_closure(qprime):
    return sorted({q + k for q in (F(0),) + tuple(qprime)
                   for k in range(-KAPPA - 1, KAPPA + 1)})


BD_SAMPLES = [F(k, 16) for k in range(1, 16)]


class TestShiftedLifting:
    """Selecting fractional parts under the shifted coloring makes the base
    coloring constant on each difference-region over the shift closure."""

    def test_unary_selection_frozen_and_agreeing(self):
        qprime = mono_ascending(BD_SAMPLES, 1, 2, shifted_coloring(1))
        assert qprime == (F(1, 16), F(1, 8))
        seen = {}
        for s in shift_closure(qprime):
            cls = class_of_bd((s,), KAPPA, bounded=False)
            assert seen.setdefault(cls, bd_pred(s)) == bd_pred(s)
        assert set(seen) == set(enumerate_bd_unbounded(1, KAPPA))

    def test_pair_selection_agrees_on_all_regions(self):
        qprime = mono_ascending(BD_SAMPLES, 2, 3, shifted_coloring(2))
        assert qprime == (F(9, 16), F(5, 8), F(11, 16))
        seen = {}
        for s in itertools.product(shift_closure(qprime), repeat=2):
            cls = class_of_bd(s, KAPPA, bounded=False)
            assert seen.setdefault(cls, bd_color(s)) == bd_color(s)
        assert set(seen) == set(enumerate_bd_unbounded(2, KAPPA))

    def test_shift_closure_reaches_every_region(self):
        qprime = mono_ascending(BD_SAMPLES, 2, 2, shifted_coloring(2))
        hits = {class_of_bd(s, KAPPA, bounded=False)
                for s in itertools.product(shift_closure(qprime), repeat=2)}
        assert hits == set(enumerate_bd_unbounded(2, KAPPA))
