"""Finite region equivalences over real tuples.

Three families of equivalence classes make uniform model search finite:

* ``SlrClass``: tuples are equivalent when they agree on membership in the
  intervals induced by a finite point set and on the relative order of their
  coordinates.
* ``BdBoundedClass``: over (-kappa-1, kappa+1)^k, tuples agree on coordinate
  floors, on which fractional parts vanish, and on the order of fractional
  parts.
* ``BdUnboundedClass``: over all of R^k; coordinates beyond +/-kappa collapse
  into Above/Below buckets that only remember relative value order.

Each class has a canonical encoding, a deterministic representative whose
class is the class itself, and a selection operation: reindexing a tuple
through ``idx`` maps classes to classes.

Premise constraints compile to checks on per-coordinate cells
(``compile_checks``); ``check_holds`` is the one place that decides them,
both on finished classes and on the partial classes that the enumerators
prune.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .terms import (
    MODE_SLR,
    DiffConst,
    FragmentError,
    RationalLike,
    VarConst,
    VarVar,
    floor_fr,
    rat,
)


class RegionRangeError(ValueError):
    """Input tuple outside the domain of the requested classifier."""


def ordered_set_partitions(items: Sequence) -> Iterator[tuple[tuple, ...]]:
    """All ordered partitions of items into nonempty blocks.

    Items are placed one at a time; each partial result either extends an
    existing block or opens a new block at any position, which generates every
    ordered partition exactly once.
    """
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    if not rest:
        yield ((first,),)
        return
    for part in ordered_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1:]
        for i in range(len(part) + 1):
            yield part[:i] + ((first,),) + part[i:]


def _sorted_blocks(values: Sequence[Fraction]) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Group coordinate indices by value, ascending."""
    by_val: dict[Fraction, list[int]] = {}
    for i, v in enumerate(values):
        by_val.setdefault(v, []).append(i)
    return [(v, tuple(by_val[v])) for v in sorted(by_val)]


# --- SLR classes -----------------------------------------------------------


@dataclass(frozen=True)
class PartitionJ:
    """Intervals induced by finitely many points r_1 < ... < r_k.

    Interval index 2j+1 is the point interval [r_j, r_j]; even indices are the
    open intervals between (and beyond) the points, 2k+1 intervals in total.
    """

    points: tuple[Fraction, ...]

    @staticmethod
    def make(points: Iterable[RationalLike]) -> "PartitionJ":
        ps = tuple(sorted({rat(p) for p in points}))
        return PartitionJ(ps)

    @property
    def interval_count(self) -> int:
        return 2 * len(self.points) + 1

    def interval_of(self, value: RationalLike) -> int:
        v = rat(value)
        lo, hi = 0, len(self.points)
        while lo < hi:  # first point >= v
            mid = (lo + hi) // 2
            if self.points[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.points) and self.points[lo] == v:
            return 2 * lo + 1
        return 2 * lo

    def is_point_interval(self, idx: int) -> bool:
        return idx % 2 == 1

    def point_value(self, idx: int) -> Fraction:
        assert idx % 2 == 1
        return self.points[idx // 2]

    def point_interval_index(self, value: RationalLike) -> int:
        idx = self.interval_of(value)
        if not self.is_point_interval(idx):
            raise RegionRangeError(f"{value} is not a partition point")
        return idx


@dataclass(frozen=True)
class SlrClass:
    """Ordered blocks (interval index, coordinate set), ascending by value."""

    arity: int
    blocks: tuple[tuple[int, frozenset[int]], ...]

    def sort_key(self):
        return tuple((i, tuple(sorted(b))) for i, b in self.blocks)

    def coord_block(self, coord: int) -> int:
        for bi, (_, coords) in enumerate(self.blocks):
            if coord in coords:
                return bi
        raise IndexError(coord)

    def coord_interval(self, coord: int) -> int:
        return self.blocks[self.coord_block(coord)][0]

    def value_cmp(self, i: int, j: int) -> int:
        a, b = self.coord_block(i), self.coord_block(j)
        return (a > b) - (a < b)

    def cells(self) -> tuple[tuple[int, int], ...]:
        """Per coordinate (block index, interval index); see ``check_holds``."""
        out: list = [None] * self.arity
        for bi, (iv, coords) in enumerate(self.blocks):
            for c in coords:
                out[c] = (bi, iv)
        return tuple(out)


def class_of_slr(values: Sequence[RationalLike], partition: PartitionJ) -> SlrClass:
    vals = [rat(v) for v in values]
    blocks = tuple(
        (partition.interval_of(v), frozenset(coords)) for v, coords in _sorted_blocks(vals)
    )
    return SlrClass(len(vals), blocks)


def enumerate_slr_classes(
    arity: int, partition: PartitionJ, checks: Sequence[tuple] = ()
) -> Iterator[SlrClass]:
    """All classes, deterministically: ordered partitions, then interval maps.

    ``checks`` (from ``compile_checks``) prune the stream without changing
    its order: var-var checks are decided once the ordered partition is
    chosen, a bound once its coordinate's block has an interval.  The
    classes skipped are exactly those on which some check fails.
    """
    if arity == 0:
        yield SlrClass(0, ())
        return
    n_int = partition.interval_count
    for part in ordered_set_partitions(tuple(range(arity))):
        # Until the intervals are placed a cell holds only its block index,
        # which alone orders the coordinates.
        cells: list = [None] * arity
        for bi, block in enumerate(part):
            for c in block:
                cells[c] = (bi, None)
        if not all(check_holds(ch, cells) for ch in checks if ch[0] == "varvar"):
            continue
        staged: list[list[tuple]] = [[] for _ in part]
        for ch in checks:
            if ch[0] == "slr_const":
                staged[cells[ch[2]][0]].append(ch)
        fblocks = [frozenset(b) for b in part]
        for idxs in _interval_assignments(part, n_int, cells, staged):
            yield SlrClass(arity, tuple(zip(idxs, fblocks)))


def _interval_assignments(
    blocks: Sequence[tuple[int, ...]], n_intervals: int, cells: list, staged
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing interval index sequences; point intervals never repeat.

    An interval is skipped for block ``pos`` when one of the bound checks in
    ``staged[pos]`` fails on it; ``cells`` receives the placed intervals.
    """
    nblocks = len(blocks)

    def rec(pos: int, minimum: int) -> Iterator[tuple[int, ...]]:
        if pos == nblocks:
            yield ()
            return
        block, bounds = blocks[pos], staged[pos]
        for idx in range(minimum, n_intervals):
            if bounds:
                for c in block:
                    cells[c] = (pos, idx)
                if not all(check_holds(ch, cells) for ch in bounds):
                    continue
            nxt = idx + 1 if idx % 2 == 1 else idx
            for tail in rec(pos + 1, nxt):
                yield (idx,) + tail

    yield from rec(0, 0)


def representative_slr(cls: SlrClass, partition: PartitionJ) -> tuple[Fraction, ...]:
    """One member per class: points take their value; open intervals take an
    ascending ladder with as many rungs as the interval hosts blocks."""
    per_interval: dict[int, list[int]] = {}
    for bi, (iv, _) in enumerate(cls.blocks):
        per_interval.setdefault(iv, []).append(bi)
    values: dict[int, Fraction] = {}
    pts = partition.points
    for iv, bis in per_interval.items():
        n = len(bis)
        if iv % 2 == 1:
            assert n == 1
            values[bis[0]] = pts[iv // 2]
        elif not pts:
            for j, bi in enumerate(bis, start=1):
                values[bi] = Fraction(j)
        elif iv == 0:
            for j, bi in enumerate(bis, start=1):
                values[bi] = pts[0] - (n + 1 - j)
        elif iv == 2 * len(pts):
            for j, bi in enumerate(bis, start=1):
                values[bi] = pts[-1] + j
        else:
            a, b = pts[iv // 2 - 1], pts[iv // 2]
            for j, bi in enumerate(bis, start=1):
                values[bi] = a + (b - a) * Fraction(j, n + 1)
    out = [Fraction(0)] * cls.arity
    for bi, (_, coords) in enumerate(cls.blocks):
        for c in coords:
            out[c] = values[bi]
    return tuple(out)


def select_slr(cls: SlrClass, idx: Sequence[int]) -> SlrClass:
    """Class of t[idx] for any t in cls, computed combinatorially."""
    return SlrClass(len(idx), _select_blocks(cls.blocks, idx, lambda tag: tag))


def _select_blocks(blocks, idx: Sequence[int], tag_map):
    hit: dict[int, list[int]] = {}
    for pos, src in enumerate(idx):
        for bi, (_, coords) in enumerate(blocks):
            if src in coords:
                hit.setdefault(bi, []).append(pos)
                break
        else:
            raise IndexError(f"source coordinate {src} out of range")
    out = []
    for bi in range(len(blocks)):
        if bi in hit:
            out.append((tag_map(blocks[bi][0]), frozenset(hit[bi])))
    return tuple(out)


# --- bounded difference classes -------------------------------------------


@dataclass(frozen=True)
class BdBoundedClass:
    """Floors plus fr-zero flags plus the ascending order of positive
    fractional parts, over (-kappa-1, kappa+1)^arity."""

    arity: int
    kappa: int
    floors: tuple[int, ...]
    zero: frozenset[int]
    fr_blocks: tuple[frozenset[int], ...]

    def sort_key(self):
        return (
            self.floors,
            tuple(sorted(self.zero)),
            tuple(tuple(sorted(b)) for b in self.fr_blocks),
        )

    def fr_rank(self, coord: int) -> int:
        """0 for fr == 0, then 1, 2, ... in ascending fractional order."""
        if coord in self.zero:
            return 0
        for bi, b in enumerate(self.fr_blocks, start=1):
            if coord in b:
                return bi
        raise IndexError(coord)

    def value_cmp(self, i: int, j: int) -> int:
        a = (self.floors[i], self.fr_rank(i))
        b = (self.floors[j], self.fr_rank(j))
        return (a > b) - (a < b)


BUCKET_BELOW = -1
BUCKET_IN = 0
BUCKET_ABOVE = 1


@dataclass(frozen=True)
class BdUnboundedClass:
    """Bucket structure over all of R^arity.

    Coordinates strictly beyond +/-kappa keep only their relative value order
    (below_blocks / above_blocks, ascending).  In-range coordinates keep
    floors, fr-zero flags and fractional order, as in the bounded case.
    """

    arity: int
    kappa: int
    floors: tuple[int | None, ...]
    zero: frozenset[int]
    fr_blocks: tuple[frozenset[int], ...]
    below_blocks: tuple[frozenset[int], ...]
    above_blocks: tuple[frozenset[int], ...]

    def sort_key(self):
        return (
            tuple(-10 ** 9 if f is None else f for f in self.floors),
            tuple(sorted(self.zero)),
            tuple(tuple(sorted(b)) for b in self.fr_blocks),
            tuple(tuple(sorted(b)) for b in self.below_blocks),
            tuple(tuple(sorted(b)) for b in self.above_blocks),
        )

    def bucket(self, coord: int) -> int:
        if any(coord in b for b in self.below_blocks):
            return BUCKET_BELOW
        if any(coord in b for b in self.above_blocks):
            return BUCKET_ABOVE
        return BUCKET_IN

    def fr_rank(self, coord: int) -> int:
        if coord in self.zero:
            return 0
        for bi, b in enumerate(self.fr_blocks, start=1):
            if coord in b:
                return bi
        raise IndexError(coord)

    def cells(self) -> tuple[tuple[int, int, int], ...]:
        """Per coordinate (bucket, floor, rank); see ``check_holds``."""
        out: list = [None] * self.arity
        for bucket, blocks in (
            (BUCKET_BELOW, self.below_blocks),
            (BUCKET_ABOVE, self.above_blocks),
        ):
            for rank, block in enumerate(blocks):
                for c in block:
                    out[c] = (bucket, 0, rank)
        for c in self.zero:
            out[c] = (BUCKET_IN, self.floors[c], 0)
        for rank, block in enumerate(self.fr_blocks, start=1):
            for c in block:
                out[c] = (BUCKET_IN, self.floors[c], rank)
        return tuple(out)

    def value_cmp(self, i: int, j: int) -> int:
        """Total, class-determined value order (Below < In < Above)."""
        cells = self.cells()
        return _cmp(cells[i], cells[j])


BdClass = BdBoundedClass | BdUnboundedClass


def class_of_bd(
    values: Sequence[RationalLike], kappa: int, bounded: bool
) -> BdClass:
    vals = [rat(v) for v in values]
    if bounded:
        for v in vals:
            if not (-kappa - 1 < v < kappa + 1):
                raise RegionRangeError(
                    f"{v} outside (-{kappa + 1}, {kappa + 1}) for the bounded classifier"
                )
        floors, zero, fr_blocks = _fr_structure(vals, range(len(vals)))
        return BdBoundedClass(len(vals), kappa, tuple(floors), zero, fr_blocks)
    below = [i for i, v in enumerate(vals) if v < -kappa]
    above = [i for i, v in enumerate(vals) if v > kappa]
    inside = [i for i in range(len(vals)) if i not in below and i not in above]
    floors_l: list[int | None] = [None] * len(vals)
    fl, zero, fr_blocks = _fr_structure(vals, inside)
    for i, f in zip(inside, fl):
        floors_l[i] = f
    return BdUnboundedClass(
        len(vals),
        kappa,
        tuple(floors_l),
        zero,
        fr_blocks,
        _value_order_blocks(vals, below),
        _value_order_blocks(vals, above),
    )


def _fr_structure(vals: Sequence[Fraction], coords: Iterable[int]):
    floors = []
    frs: dict[int, Fraction] = {}
    for i in coords:
        fl, fr = floor_fr(vals[i])
        floors.append(fl)
        frs[i] = fr
    zero = frozenset(i for i, f in frs.items() if f == 0)
    positive: dict[Fraction, list[int]] = {}
    for i, f in frs.items():
        if f != 0:
            positive.setdefault(f, []).append(i)
    fr_blocks = tuple(frozenset(positive[f]) for f in sorted(positive))
    return floors, zero, fr_blocks


def _value_order_blocks(vals: Sequence[Fraction], coords: Sequence[int]):
    return tuple(
        frozenset(c) for _, c in _sorted_blocks_subset(vals, coords)
    )


def _sorted_blocks_subset(vals, coords):
    by_val: dict[Fraction, list[int]] = {}
    for i in coords:
        by_val.setdefault(vals[i], []).append(i)
    return [(v, tuple(by_val[v])) for v in sorted(by_val)]


def _subsets(items: Sequence) -> Iterator[tuple]:
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def enumerate_bd_bounded(
    arity: int,
    kappa: int,
    floor_lo: Sequence[int] | None = None,
    floor_hi: Sequence[int] | None = None,
) -> Iterator[BdBoundedClass]:
    """All bounded classes; optional per-coordinate floor clamps narrow the
    stream (used by grounding when constraints box the variables)."""
    lo = floor_lo or [-kappa - 1] * arity
    hi = floor_hi or [kappa] * arity
    if arity == 0:
        yield BdBoundedClass(0, kappa, (), frozenset(), ())
        return
    coords = tuple(range(arity))
    for zero_sel in _subsets(coords):
        zero = frozenset(zero_sel)
        nonzero = tuple(c for c in coords if c not in zero)
        for part in ordered_set_partitions(nonzero):
            fr_blocks = tuple(frozenset(b) for b in part)
            ranges = []
            for c in coords:
                base_lo = max(-kappa if c in zero else -kappa - 1, lo[c])
                base_hi = min(kappa, hi[c])
                ranges.append(range(base_lo, base_hi + 1))
            for floors in itertools.product(*ranges):
                yield BdBoundedClass(arity, kappa, floors, zero, fr_blocks)


def enumerate_bd_unbounded(
    arity: int, kappa: int, checks: Sequence[tuple] = ()
) -> Iterator[BdUnboundedClass]:
    """All unbounded classes, deterministically: buckets, value order beyond
    +/-kappa, fr-zero flags, fractional order, then floors.

    ``checks`` (from ``compile_checks``) prune the stream without changing
    its order.  Bounds are decided when the buckets are chosen (beyond
    +/-kappa) or when the fr-zero flags and floors are (in range); var-var
    and difference checks once both of their coordinates are placed, which
    for an in-range coordinate means its floor.  The classes skipped are
    exactly those on which some check fails.
    """
    if arity == 0:
        yield BdUnboundedClass(0, kappa, (), frozenset(), (), (), ())
        return
    coords = tuple(range(arity))
    bounds = [[ch for ch in checks if ch[0] == "bd_const" and ch[2] == c] for c in coords]
    # floor_opts[c][zero]: the in-range floors of coordinate c that its
    # bounds admit, given whether its fractional part vanishes.
    floor_opts = [
        [_admitted_floors(kappa, c, zero, bounds[c]) for zero in (False, True)]
        for c in coords
    ]
    for buckets in itertools.product((BUCKET_BELOW, BUCKET_IN, BUCKET_ABOVE), repeat=arity):
        inside = tuple(c for c in coords if buckets[c] == BUCKET_IN)
        # Until ranks and floors are placed a cell holds only its bucket,
        # which alone decides a bound beyond +/-kappa.
        cells: list = [(b, 0, 0) for b in buckets]
        if not all(
            check_holds(ch, cells)
            for c in coords if buckets[c] != BUCKET_IN
            for ch in bounds[c]
        ):
            continue
        if not all(floor_opts[c][0] or floor_opts[c][1] for c in inside):
            continue
        outer, staged = _stage_bd_checks(checks, inside)
        below = tuple(c for c in coords if buckets[c] == BUCKET_BELOW)
        above = tuple(c for c in coords if buckets[c] == BUCKET_ABOVE)
        for below_part in ordered_set_partitions(below):
            below_blocks = tuple(frozenset(b) for b in below_part)
            for above_part in ordered_set_partitions(above):
                above_blocks = tuple(frozenset(b) for b in above_part)
                for bucket, part in ((BUCKET_BELOW, below_part), (BUCKET_ABOVE, above_part)):
                    for rank, block in enumerate(part):
                        for c in block:
                            cells[c] = (bucket, 0, rank)
                if not all(check_holds(ch, cells) for ch in outer):
                    continue
                for zero_sel in _subsets(inside):
                    zero = frozenset(zero_sel)
                    ranges = [floor_opts[c][c in zero] for c in inside]
                    if not all(ranges):
                        continue
                    nonzero = tuple(c for c in inside if c not in zero)
                    for part in ordered_set_partitions(nonzero):
                        fr_blocks = tuple(frozenset(b) for b in part)
                        ranks = dict.fromkeys(zero, 0)
                        for rank, block in enumerate(part, start=1):
                            ranks.update(dict.fromkeys(block, rank))
                        for floors_in in _floor_tuples(inside, ranges, ranks, cells, staged):
                            floors: list[int | None] = [None] * arity
                            for c, f in zip(inside, floors_in):
                                floors[c] = f
                            yield BdUnboundedClass(
                                arity, kappa, tuple(floors), zero,
                                fr_blocks, below_blocks, above_blocks,
                            )


def _admitted_floors(kappa: int, c: int, zero: bool, bounds) -> Sequence[int]:
    """In range a bound reads only the floor and whether the fractional part
    vanishes, so the floors it admits are settled once per flag."""
    floors = range(-kappa, (kappa if zero else kappa - 1) + 1)
    if not bounds:
        return floors
    rank = 0 if zero else 1
    return [
        f for f in floors
        if all(check_holds(ch, {c: (BUCKET_IN, f, rank)}) for ch in bounds)
    ]


def _stage_bd_checks(checks, inside):
    """Var-var and difference checks by the point at which they are decided.

    Returns the checks over coordinates beyond +/-kappa only (decided once
    their value order is chosen) and, per in-range coordinate, the checks
    decided when its floor is placed (their last in-range coordinate in
    ``inside`` order).  Both keep the order of ``checks``.
    """
    pos = {c: k for k, c in enumerate(inside)}
    outer: list[tuple] = []
    staged: list[list[tuple]] = [[] for _ in inside]
    for ch in checks:
        if ch[0] == "bd_const":
            continue
        placed = [pos[c] for c in ch[2:4] if c in pos]
        if placed:
            staged[max(placed)].append(ch)
        else:
            outer.append(ch)
    return outer, staged


def _floor_tuples(inside, ranges, ranks, cells, staged) -> Iterator[tuple[int, ...]]:
    """``itertools.product(*ranges)`` minus every floor prefix on which a
    check staged at its last coordinate fails; ``cells`` receives the
    placed floors."""
    last = max((k for k, chs in enumerate(staged) if chs), default=-1)
    if last < 0:
        return itertools.product(*ranges)

    def rec(k: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if k > last:
            for tail in itertools.product(*ranges[k:]):
                yield prefix + tail
            return
        c, chs = inside[k], staged[k]
        rank = ranks[c]
        for f in ranges[k]:
            cells[c] = (BUCKET_IN, f, rank)
            if all(check_holds(ch, cells) for ch in chs):
                yield from rec(k + 1, prefix + (f,))

    return rec(0, ())


def _fr_ladder(arity: int) -> list[Fraction]:
    return [Fraction(j, arity + 2) for j in range(1, arity + 2)]


def representative_bd(cls: BdClass) -> tuple[Fraction, ...]:
    """Deterministic member of the class.

    For unbounded classes the fractional rungs are assigned Below blocks
    first, then Above, then in-range positive blocks, so representatives obey
    fr(Below) < fr(Above) < positive fr(In).
    """
    k = cls.arity
    if k == 0:
        return ()
    out: list[Fraction] = [Fraction(0)] * k
    if isinstance(cls, BdBoundedClass):
        ladder = [Fraction(j, len(cls.fr_blocks) + 1) for j in range(1, len(cls.fr_blocks) + 1)]
        for c in cls.zero:
            out[c] = Fraction(cls.floors[c])
        for rung, block in zip(ladder, cls.fr_blocks):
            for c in block:
                out[c] = cls.floors[c] + rung
        return tuple(out)
    rungs = iter(_fr_ladder(k))
    t = len(cls.below_blocks)
    for j, block in enumerate(cls.below_blocks, start=1):
        fr = next(rungs)
        for c in block:
            out[c] = -cls.kappa - (t - j + 1) + fr
    for j, block in enumerate(cls.above_blocks, start=1):
        fr = next(rungs)
        for c in block:
            out[c] = cls.kappa + j + fr
    for c in cls.zero:
        out[c] = Fraction(cls.floors[c])
    for block in cls.fr_blocks:
        fr = next(rungs)
        for c in block:
            out[c] = cls.floors[c] + fr
    return tuple(out)


def select_bd(cls: BdClass, idx: Sequence[int]) -> BdClass:
    """Class of t[idx] for any t in cls."""
    m = len(idx)
    if isinstance(cls, BdBoundedClass):
        floors = tuple(cls.floors[s] for s in idx)
        zero = frozenset(p for p, s in enumerate(idx) if s in cls.zero)
        fr_blocks = _restrict_blocks(cls.fr_blocks, idx)
        return BdBoundedClass(m, cls.kappa, floors, zero, fr_blocks)
    floors = tuple(cls.floors[s] for s in idx)
    zero = frozenset(p for p, s in enumerate(idx) if s in cls.zero)
    return BdUnboundedClass(
        m,
        cls.kappa,
        floors,
        zero,
        _restrict_blocks(cls.fr_blocks, idx),
        _restrict_blocks(cls.below_blocks, idx),
        _restrict_blocks(cls.above_blocks, idx),
    )


def _restrict_blocks(blocks, idx: Sequence[int]):
    out = []
    for block in blocks:
        hit = frozenset(p for p, s in enumerate(idx) if s in block)
        if hit:
            out.append(hit)
    return tuple(out)


def rho_sigma(cls: BdBoundedClass) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-coordinate (fractional rank, floor) read off the class encoding.

    Any member tuple has coordinate i equal to r_{rho[i]} + sigma[i] for some
    ascending ladder 0 = r_0 < r_1 < ... < r_m < 1, m = len(cls.fr_blocks).
    """
    rho = tuple(cls.fr_rank(i) for i in range(cls.arity))
    return rho, cls.floors


def apply_rho_sigma(
    rho: Sequence[int], sigma: Sequence[int], fr_values: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Decode (rho, sigma) against a concrete fractional ladder.

    ``fr_values`` lists r_0, ..., r_m; entry rho[i] supplies coordinate i's
    fractional part, on top of floor sigma[i].
    """
    vals = [rat(v) for v in fr_values]
    if not vals or vals[0] != 0:
        raise RegionRangeError("fractional ladder must start at 0")
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise RegionRangeError("fractional ladder must ascend strictly")
    if vals[-1] >= 1:
        raise RegionRangeError("fractional ladder must stay below 1")
    return tuple(vals[r] + s for r, s in zip(rho, sigma))


def bounded_subclass(cls: BdUnboundedClass) -> BdBoundedClass:
    """Squeeze an unbounded class into (-kappa-1, kappa+1).

    Below coordinates land in (-kappa-1, -kappa), Above coordinates in
    (kappa, kappa+1).  Their fractional rungs come before all in-range
    positive fractional parts, Below before Above, so value order within
    each bucket is preserved and every member of the result belongs to
    ``cls`` under the unbounded equivalence.
    """
    floors: list[int] = []
    for c in range(cls.arity):
        bk = cls.bucket(c)
        if bk == BUCKET_BELOW:
            floors.append(-cls.kappa - 1)
        elif bk == BUCKET_ABOVE:
            floors.append(cls.kappa)
        else:
            f = cls.floors[c]
            assert f is not None
            floors.append(f)
    fr_blocks = cls.below_blocks + cls.above_blocks + cls.fr_blocks
    return BdBoundedClass(cls.arity, cls.kappa, tuple(floors), cls.zero, fr_blocks)


# --- generic wrappers ------------------------------------------------------

RegionClass = SlrClass | BdBoundedClass | BdUnboundedClass


def representative(cls: RegionClass, partition: PartitionJ | None = None) -> tuple[Fraction, ...]:
    if isinstance(cls, SlrClass):
        assert partition is not None
        return representative_slr(cls, partition)
    return representative_bd(cls)


def select_class(cls: RegionClass, idx: Sequence[int]) -> RegionClass:
    if isinstance(cls, SlrClass):
        return select_slr(cls, idx)
    return select_bd(cls, idx)


# --- premise checks on class cells -----------------------------------------
#
# A cell describes one coordinate of a class, and cells compare like the
# values they stand for:
#
# * slr: (block index, interval index), blocks ascending by value;
# * bd: (bucket, floor, rank).  In range, rank is 0 for a vanishing
#   fractional part and then 1, 2, ... in ascending fractional order; beyond
#   +/-kappa, floor is 0 and rank is the coordinate's block in the ascending
#   value order of its bucket.
#
# A check is a tuple: ("slr_const", rel, i, point interval index),
# ("bd_const", rel, i, c), ("varvar", rel, i, j) or ("diff", rel, i, j, c),
# for x_i rel point, x_i rel c, x_i rel x_j and x_i - x_j rel c.


def compile_checks(mode: str, constraints, vidx, gamma=None, partition=None) -> list[tuple]:
    """Premise constraints over variables ``vidx`` as checks on cells.

    Bounds come first so that difference checks, which need their
    coordinates in range, only run once the guard bounds held.  Slr bounds
    are evaluated under ``gamma`` and must be points of ``partition``; bd
    constants must be integers of absolute value at most kappa.
    """
    checks: list[tuple] = []
    for c in constraints:
        if isinstance(c, VarConst):
            if mode == MODE_SLR:
                pidx = partition.point_interval_index(c.bound.evaluate(gamma or {}))
                checks.append(("slr_const", c.rel, vidx[c.var], pidx))
            else:
                checks.append(("bd_const", c.rel, vidx[c.var], _integer(c.bound.offset)))
    for c in constraints:
        if isinstance(c, VarVar):
            checks.append(("varvar", c.rel, vidx[c.var], vidx[c.other]))
    for c in constraints:
        if isinstance(c, DiffConst):
            checks.append(("diff", c.rel, vidx[c.var], vidx[c.other], _integer(c.const)))
    return checks


def _integer(q: Fraction) -> int:
    if q.denominator != 1:
        raise FragmentError(f"difference-bound grounding needs integer constants, got {q}")
    return int(q)


def check_holds(check: tuple, cells: Sequence[tuple]) -> bool:
    """Whether ``check`` holds on every tuple with these cells; a check reads
    only the cells of its own coordinates."""
    kind, rel = check[0], check[1]
    if kind == "bd_const":
        s = _bound_sign(cells[check[2]], check[3])
    elif kind == "slr_const":
        s = _cmp(cells[check[2]][1], check[3])
    elif kind == "varvar":
        s = _cmp(cells[check[2]], cells[check[3]])
    elif check[2] == check[3]:
        s = _cmp(0, check[4])
    else:
        s = _diff_sign(cells[check[2]], cells[check[3]], check[4])
    return rel.holds(s, 0)


def _bound_sign(cell: tuple[int, int, int], c: int) -> int:
    """Sign of (x - c) for an integer c with |c| <= kappa."""
    bucket, floor, rank = cell
    if bucket != BUCKET_IN:
        return -1 if bucket == BUCKET_BELOW else 1
    if floor != c:
        return -1 if floor < c else 1
    return 0 if rank == 0 else 1


def _diff_sign(ci: tuple[int, int, int], cj: tuple[int, int, int], c: int) -> int:
    """Sign of (x_i - x_j - c) for an integer c.

    Only class-determined with both coordinates in range, which the guard
    bounds of the normal form ensure wherever the premise can hold.
    """
    if ci[0] != BUCKET_IN or cj[0] != BUCKET_IN:
        raise FragmentError(
            "difference constraint over a coordinate beyond +/-kappa; "
            "its variables need two-sided constant bounds"
        )
    d = ci[1] - cj[1]
    if ci[2] == cj[2]:
        return _cmp(d, c)
    if ci[2] > cj[2]:
        return 1 if d >= c else -1
    return 1 if d - 1 >= c else -1


def _cmp(a, b) -> int:
    return (a > b) - (a < b)
