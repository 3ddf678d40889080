"""Region equivalence classes: round-trips, censuses, selection coherence."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsrsat.regions import (
    BUCKET_ABOVE,
    BUCKET_BELOW,
    BUCKET_IN,
    FAMILY_BD_BOUNDED,
    FAMILY_BD_UNBOUNDED,
    FAMILY_SLR,
    PartitionJ,
    RegionClass,
    RegionRangeError,
    class_of_bd,
    class_of_bd_scaled,
    class_of_slr,
    class_of_slr_scaled,
    enumerate_bd_bounded,
    enumerate_bd_unbounded,
    enumerate_slr_classes,
    ordered_set_partitions,
    representative,
    representative_bd,
    representative_bd_scaled,
    representative_slr,
    representative_slr_scaled,
    select_class,
)

P01 = PartitionJ.make([0, 1])
P0 = PartitionJ.make([0])


# --- ordered set partitions -------------------------------------------------


def test_ordered_set_partitions_counts_are_fubini():
    # ordered Bell numbers
    for n, want in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75), (5, 541)]:
        assert len(list(ordered_set_partitions(range(n)))) == want
        assert len(list(ordered_set_partitions(range(n), None))) == want


@st.composite
def signed_items(draw):
    """Up to five items, and per unordered pair either no signs or a subset
    of {-1, 0, 1}, given in both orientations."""
    items = "abcde"[:draw(st.integers(0, 5))]
    signs = {}
    for x, y in itertools.combinations(items, 2):
        held = draw(st.none() | st.sets(st.sampled_from((-1, 0, 1))))
        if held is not None:
            signs[x, y], signs[y, x] = held, {-s for s in held}
    return items, signs


def _keeps_signs(part, signs) -> bool:
    block = {x: i for i, b in enumerate(part) for x in b}
    return all((block[x] > block[y]) - (block[x] < block[y]) in held
               for (x, y), held in signs.items())


@settings(max_examples=200, deadline=None)
@given(signed_items())
@example(("abcd", {}))
@example(("abc", {("a", "c"): {0}, ("c", "a"): {0}, ("b", "c"): {1}, ("c", "b"): {-1}}))
@example(("ab", {("a", "b"): set(), ("b", "a"): set()}))
def test_signed_partitions_are_the_filtered_partitions_in_order(case):
    items, signs = case
    want = [part for part in ordered_set_partitions(items) if _keeps_signs(part, signs)]
    assert list(ordered_set_partitions(items, signs)) == want


def test_ordered_set_partitions_cover_exactly():
    items = ("a", "b", "c")
    seen = set()
    for part in ordered_set_partitions(items):
        flat = [x for block in part for x in block]
        assert sorted(flat) == sorted(items)
        assert part not in seen
        seen.add(part)


# --- interval partitions ----------------------------------------------------


def test_partition_make_dedups_and_sorts():
    assert PartitionJ.make([1, 0, 1]).points == (Fraction(0), Fraction(1))
    assert P01.interval_count == 5


def test_interval_of_examples():
    cases = [("-1/2", 0), (0, 1), ("1/2", 2), (1, 3), ("3/2", 4)]
    for v, idx in cases:
        assert P01.interval_of(Fraction(v) if isinstance(v, str) else Fraction(v)) == idx
    assert P01.is_point_interval(1) and P01.is_point_interval(3)
    assert not P01.is_point_interval(2)
    assert P01.point_interval_index(Fraction(1)) == 3


# --- SLR classes ------------------------------------------------------------


def all_slr(arity, partition):
    return list(enumerate_slr_classes(arity, partition))


def test_slr_census_frozen():
    assert len(all_slr(1, PartitionJ.make([]))) == 1
    assert len(all_slr(1, P0)) == 3
    assert len(all_slr(2, P01)) == 31


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_slr_round_trip_exhaustive(arity):
    for cls in all_slr(arity, P01):
        rep = representative_slr(cls, P01)
        assert class_of_slr(rep, P01) == cls


def test_slr_grid_census_matches_enumeration():
    grid = [Fraction(n, 8) for n in range(-8, 17)]
    hit = {class_of_slr(t, P01) for t in itertools.product(grid, repeat=2)}
    assert hit == set(all_slr(2, P01))


rational3 = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@settings(max_examples=200)
@given(st.lists(rational3, min_size=1, max_size=4), st.data())
def test_slr_selection_commutes_with_classification(vals, data):
    idx = data.draw(
        st.lists(st.integers(0, len(vals) - 1), min_size=0, max_size=4)
    )
    cls = class_of_slr(vals, P01)
    picked = [vals[i] for i in idx]
    assert select_class(cls, idx) == class_of_slr(picked, P01)


# --- BD classes -------------------------------------------------------------


def test_bd_bounded_census_frozen():
    assert len(list(enumerate_bd_bounded(1, 1))) == 7
    assert len(list(enumerate_bd_bounded(2, 1))) == 81
    assert len(list(enumerate_bd_bounded(3, 2))) == 5003
    assert [len(list(enumerate_bd_bounded(a, 0))) for a in range(4)] == [1, 3, 17, 147]


def test_bd_unbounded_census_frozen():
    assert len(list(enumerate_bd_unbounded(1, 1))) == 7
    assert len(list(enumerate_bd_unbounded(2, 1))) == 61
    assert len(list(enumerate_bd_unbounded(3, 2))) == 2915


def test_bd_box_census_frozen():
    # clock-region count for two clocks confined to [0, 3)
    boxed = enumerate_bd_bounded(2, 2, floor_lo=0)
    assert len(list(boxed)) == 54
    counts = {
        kappa: [len(list(enumerate_bd_bounded(a, kappa, floor_lo=0))) for a in range(4)]
        for kappa in (0, 3)
    }
    assert counts == {0: [1, 2, 6, 26], 3: [1, 8, 96, 1664]}


def _assert_bd_scaled_round_trip(cls, rep, d, bounded):
    # d is the ladder denominator of representative_bd; larger ones give
    # other members of the same class
    assert [Fraction(n, d) for n in representative_bd_scaled(cls, d)] == list(rep)
    for scaled_d in (d, d + 1, 2 * d):
        nums = representative_bd_scaled(cls, scaled_d)
        assert class_of_bd_scaled(nums, scaled_d, cls.kappa, bounded) == cls


@pytest.mark.parametrize(
    "arity,kappa", [(1, 1), (2, 1), (2, 2), (3, 1), (0, 1), (1, 2), (3, 2), (1, 0), (2, 0)]
)
def test_bd_bounded_round_trip_exhaustive(arity, kappa):
    for cls in enumerate_bd_bounded(arity, kappa):
        rep = representative_bd(cls)
        assert all(-kappa - 1 < v < kappa + 1 for v in rep)
        assert class_of_bd(rep, kappa, bounded=True) == cls
        d = 1 + max((r for _, _, r in cls.cells), default=0)
        _assert_bd_scaled_round_trip(cls, rep, d, bounded=True)


@pytest.mark.parametrize(
    "arity,kappa", [(1, 1), (2, 1), (3, 1), (0, 1), (1, 2), (2, 2), (3, 2), (1, 0), (2, 0)]
)
def test_bd_unbounded_round_trip_exhaustive(arity, kappa):
    for cls in enumerate_bd_unbounded(arity, kappa):
        rep = representative_bd(cls)
        assert class_of_bd(rep, kappa, bounded=False) == cls
        _assert_bd_scaled_round_trip(cls, rep, arity + 2, bounded=False)


def test_bd_grid_census_matches_enumeration():
    grid = [Fraction(n, 8) for n in range(-15, 16)]
    hit = {
        class_of_bd(t, 1, bounded=True) for t in itertools.product(grid, repeat=2)
    }
    assert hit == set(enumerate_bd_bounded(2, 1))


def test_bd_bounded_classifier_rejects_out_of_range():
    with pytest.raises(RegionRangeError):
        class_of_bd([Fraction(2)], 1, bounded=True)
    with pytest.raises(RegionRangeError):
        class_of_bd([Fraction(-5, 2)], 1, bounded=True)


@pytest.mark.parametrize("make", [
    lambda: list(enumerate_bd_unbounded(1, -1)),
    lambda: list(enumerate_bd_unbounded(-1, 1)),
    lambda: list(enumerate_bd_bounded(1, -1)),
    lambda: list(enumerate_bd_bounded(-1, 1)),
    lambda: list(enumerate_slr_classes(-1, P01)),
    lambda: class_of_bd([Fraction(0)], -1, bounded=True),
    lambda: class_of_bd([Fraction(0)], -1, bounded=False),
], ids=["bd-unbounded-kappa", "bd-unbounded-arity", "bd-bounded-kappa",
        "bd-bounded-arity", "slr-arity", "classify-bounded", "classify-unbounded"])
def test_negative_arity_or_kappa_is_a_value_error(make):
    with pytest.raises(ValueError, match="nonnegative"):
        make()


@settings(max_examples=200)
@given(st.lists(rational3, min_size=1, max_size=4), st.data())
def test_bd_selection_commutes_with_classification(vals, data):
    idx = data.draw(
        st.lists(st.integers(0, len(vals) - 1), min_size=0, max_size=4)
    )
    for bounded in (False,) if any(abs(v) >= 2 for v in vals) else (True, False):
        cls = class_of_bd(vals, 1, bounded=bounded)
        picked = [vals[i] for i in idx]
        assert select_class(cls, idx) == class_of_bd(picked, 1, bounded=bounded)


# --- numerators over one denominator ---------------------------------------
#
# The reference classes below are built from Fraction comparisons alone,
# straight from the definitions in the module docstring of regions.


def _bd_class_by_comparison(vals, kappa, bounded):
    inside = [bounded or -kappa <= v <= kappa for v in vals]
    frs = {v - math.floor(v) for v, ok in zip(vals, inside) if ok}
    cells = []
    for v, ok in zip(vals, inside):
        if ok:
            fr = v - math.floor(v)
            cells.append((BUCKET_IN, math.floor(v), sum(0 < w <= fr for w in frs)))
        else:
            bucket = BUCKET_BELOW if v < 0 else BUCKET_ABOVE
            same = {w for w, ok2 in zip(vals, inside) if not ok2 and (w < 0) == (v < 0)}
            cells.append((bucket, 0, sum(w < v for w in same)))
    family = FAMILY_BD_BOUNDED if bounded else FAMILY_BD_UNBOUNDED
    return RegionClass(tuple(cells), family, kappa)


def _slr_class_by_comparison(vals, points):
    cells = []
    for v in vals:
        below = sum(p < v for p in points)
        iv = 2 * below + 1 if v in points else 2 * below
        cells.append((sum(w < v for w in set(vals)), iv))
    return RegionClass(tuple(cells), FAMILY_SLR)


def _numerators(vals, extra_denominators, data):
    """Numerators of vals over a common denominator of theirs and the
    extra ones, times a drawn factor so that the fractions need not be
    reduced."""
    d = math.lcm(*(v.denominator for v in vals), *extra_denominators)
    d *= data.draw(st.integers(1, 3))
    return [int(v * d) for v in vals], d


# negative, beyond +/-kappa, on integers and on the partition points
edgy = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-4, 4).map(Fraction),
    st.sampled_from([Fraction(1, 3), Fraction(-1, 3), Fraction(-7, 3), Fraction(5, 2)]),
)


@settings(max_examples=400)
@given(st.lists(edgy, max_size=5), st.integers(0, 3), st.booleans(), st.data())
def test_scaled_bd_class_matches_value_comparisons(vals, kappa, bounded, data):
    nums, d = _numerators(vals, (), data)
    if bounded and not all(-kappa - 1 < v < kappa + 1 for v in vals):
        with pytest.raises(RegionRangeError):
            class_of_bd_scaled(nums, d, kappa, bounded)
        return
    want = _bd_class_by_comparison(vals, kappa, bounded)
    assert class_of_bd_scaled(nums, d, kappa, bounded) == want
    assert class_of_bd(vals, kappa, bounded) == want


@settings(max_examples=400)
@given(
    st.sampled_from([(), (Fraction(0),), (Fraction(0), Fraction(1, 3)),
                     (Fraction(-7, 3), Fraction(1, 2), Fraction(2))]),
    st.data(),
)
def test_scaled_slr_class_matches_value_comparisons(points, data):
    vals = data.draw(st.lists(st.one_of(edgy, st.sampled_from(points or (0,))), max_size=5))
    vals = [Fraction(v) for v in vals]
    nums, d = _numerators(vals, [p.denominator for p in points], data)
    partition = PartitionJ.make(points)
    want = _slr_class_by_comparison(vals, points)
    assert class_of_slr_scaled(nums, partition.scaled(d)) == want
    assert class_of_slr(vals, partition) == want


@pytest.mark.parametrize("points", [(), (0,), (0, Fraction(1, 3))], ids=str)
def test_slr_scaled_round_trip_up_to_arity_3(points):
    partition = PartitionJ.make(points)
    for arity in range(4):
        d = partition.denominator(arity)
        for cls in enumerate_slr_classes(arity, partition):
            rep = representative(cls, partition)
            assert class_of_slr(rep, partition) == cls
            for scaled_d in (d, 2 * d):
                nums = representative_slr_scaled(cls, partition.scaled(scaled_d), scaled_d)
                assert [Fraction(n, scaled_d) for n in nums] == list(rep)
                assert class_of_slr_scaled(nums, partition.scaled(scaled_d)) == cls


# --- generic wrappers -------------------------------------------------------


def test_generic_representative_dispatch():
    slr = class_of_slr([Fraction(1, 2)], P01)
    assert representative(slr, P01) == (Fraction(1, 2),)
    bd = class_of_bd([Fraction(1, 2)], 1, True)
    assert representative(bd) == representative_bd(bd)


# --- cells ------------------------------------------------------------------


def _cmp(a, b):
    return (a > b) - (a < b)


CELL_FAMILIES = {
    "slr-P0": lambda: [(c, representative(c, P0)) for c in all_slr(3, P0)],
    "slr-P01": lambda: [(c, representative(c, P01)) for c in all_slr(3, P01)],
    "bd-bounded": lambda: [(c, representative(c)) for c in enumerate_bd_bounded(3, 1)],
    "bd-unbounded": lambda: [(c, representative(c)) for c in enumerate_bd_unbounded(3, 1)],
}


@pytest.mark.parametrize("family", sorted(CELL_FAMILIES))
def test_cells_compare_like_values(family):
    # premise checks (check_holds) compare cells in place of values
    for cls, rep in CELL_FAMILIES[family]():
        cells = cls.cells
        for i, j in itertools.product(range(cls.arity), repeat=2):
            assert _cmp(cells[i], cells[j]) == _cmp(rep[i], rep[j])


# --- typed errors -------------------------------------------------------------


def test_slr_representative_rejects_two_blocks_in_one_point():
    # blocks 0 and 1 both claim the point interval of 0
    cls = RegionClass(((0, 1), (1, 1)), FAMILY_SLR)
    with pytest.raises(RegionRangeError):
        representative_slr(cls, P0)


def test_slr_representative_needs_the_partition():
    with pytest.raises(ValueError):
        representative(class_of_slr([Fraction(1, 2)], P01))
