"""Finite region equivalences over real tuples.

A region class (``RegionClass``) is a tuple of cells, one per coordinate,
plus its family and, for bd, kappa.  Cells compare like the
values they stand for, and two tuples are equivalent exactly when they have
the same cells:

* slr (``FAMILY_SLR``): the cell of a coordinate is (block, interval).
  Block is the rank of its value among the distinct values of the tuple;
  interval is its interval in the partition induced by a finite point set.
* bd unbounded (``FAMILY_BD_UNBOUNDED``): over all of R^k.  An in-range
  coordinate, within [-kappa, kappa], has the cell (``BUCKET_IN``, floor,
  rank).  Rank is 0 for a vanishing fractional part and then 1, 2, ... in
  ascending order of the positive fractional parts.  A coordinate beyond
  +/-kappa only keeps its value order inside its bucket: its cell is
  (``BUCKET_BELOW`` or ``BUCKET_ABOVE``, 0, rank), rank 0, 1, ... ascending.
* bd bounded (``FAMILY_BD_BOUNDED``): over (-kappa-1, kappa+1)^k.  It is
  the unbounded equivalence at kappa + 1 restricted to that box, where
  every coordinate is in range, so its cells are the in-range cells above.
  ``enumerate_bd_bounded`` and ``class_of_bd_scaled`` work through the
  unbounded family at kappa + 1 and tag the classes as bounded at kappa.

Each class has a deterministic representative whose class is the class
itself, and a selection operation: reindexing a tuple through ``idx`` maps
classes to classes.

Values below the report boundary are integers: numerators over one
denominator d shared by a whole tuple.  ``representative_bd_scaled`` and
``representative_slr_scaled`` build a representative over d (bd: the
ladder denominator, arity + 2 for unbounded classes; slr:
``PartitionJ.denominator``, which also scales the partition points,
``PartitionJ.scaled``), and ``class_of_bd_scaled`` and
``class_of_slr_scaled`` classify numerators over d: floors and fractional
parts by ``divmod``, intervals by bisecting the scaled points, and order by
comparing integers.  ``Fraction`` appears only where a value is printed or
handed out: ``representative``, ``representative_bd`` and
``representative_slr`` convert a representative to rationals, and
``class_of_bd`` and ``class_of_slr`` classify rationals by scaling them to
their common denominator.

Premise constraints compile to checks on cells (``compile_checks``), and
``check_holds`` decides one on a class.  The enumerators take a premise's
checks and yield only the classes on which all of them hold, in the order
of the full stream, and evaluate no check: each becomes a cut before the
loops.  Bounds read one cell, so they are settled per coordinate
(``_admitted``).  Pair checks are settled per bucket choice (``_pair_cuts``;
slr has one bucket).  One against itself holds on every class or on none,
and one over two buckets is decided by their order.  Order relations within
a bucket become signs that cut the ordered partitions as they are built
(``ordered_set_partitions``): slr and the value orders beyond +/-kappa take
them from the var-var checks.  In range, bd unbounded first closes the
convex checks (all but ``!=``) into a zone, a difference-bound matrix.  Its
bounds join the constant bounds; between in-range coordinates it bounds the
floor differences (``_bands``), and its signs are the rank comparisons that
leave a pair some floor difference.  They cut the zero sets (the in-range
coordinates whose fractional part vanishes) and the fractional orders, and
the floors are placed level-wise within the bands (``_floor_tuples``).  A
``!=`` check fails only on equal ranks and one floor difference, which the
floor placement leaves out.  A difference is class-determined only in
range, so a difference check whose coordinates the constant bounds do not
hold within +/-kappa raises ``FragmentError`` before the first class.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .terms import (
    MODE_SLR,
    DiffConst,
    FragmentError,
    RationalLike,
    Relation,
    VarConst,
    VarVar,
    rat,
)


class RegionRangeError(ValueError):
    """Input tuple outside the domain of the requested classifier."""


FAMILY_SLR = "slr"
FAMILY_BD_BOUNDED = "bd bounded"
FAMILY_BD_UNBOUNDED = "bd unbounded"

BUCKET_BELOW = -1
BUCKET_IN = 0
BUCKET_ABOVE = 1


class RegionClass(NamedTuple):
    """One region class: its cells, its family and (bd) kappa.

    Equality and hashing are those of the tuple.
    """

    cells: tuple[tuple[int, ...], ...]
    family: str
    kappa: int | None = None

    @property
    def arity(self) -> int:
        return len(self.cells)

    def slr_blocks(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(interval, coordinates) per block, ascending by value."""
        cells = self.cells
        return tuple((cells[b[0]][1], b) for b in _groups(b for b, _ in cells))

    def bd_blocks(self):
        """Floors (None beyond +/-kappa), the in-range coordinates whose
        fractional part vanishes, and the blocks of the positive fractional
        parts, of the coordinates below -kappa and of those above kappa,
        each ascending."""
        cells = self.cells

        def by_rank(bucket):  # in range, rank 0 is not a fractional block
            return _groups(
                r if bk == bucket and (r or bucket != BUCKET_IN) else None for bk, _, r in cells
            )

        floors = tuple(f if bk == BUCKET_IN else None for bk, f, _ in cells)
        zero = tuple(c for c, (bk, _, r) in enumerate(cells) if bk == BUCKET_IN and r == 0)
        return floors, zero, by_rank(BUCKET_IN), by_rank(BUCKET_BELOW), by_rank(BUCKET_ABOVE)

    def sort_key(self):
        """Order of the classes of one family and arity, as listed in model
        legends: by blocks (slr) or by floors, then fractional structure (bd)."""
        if self.family == FAMILY_SLR:
            return self.slr_blocks()
        floors, *blocks = self.bd_blocks()
        # a coordinate beyond +/-kappa sorts before every floor
        return (tuple(-10 ** 9 if f is None else f for f in floors), *blocks)


def _groups(keys: Iterable) -> tuple[tuple[int, ...], ...]:
    """Positions grouped by key, ascending by key; a None key leaves its
    position out."""
    by_key: dict = {}
    for pos, k in enumerate(keys):
        if k is not None:
            by_key.setdefault(k, []).append(pos)
    return tuple(tuple(by_key[k]) for k in sorted(by_key))


def _ranks(keys: Sequence[int]) -> list[int]:
    """Per position, the rank of its key among the distinct keys, ascending
    from 0."""
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _bucket_ranks(keys: Iterable[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Per (bucket, key), the rank of the key among the distinct keys of its
    bucket, ascending from 0.  (BUCKET_IN, 0) is always ranked, so in range
    the key 0 (a vanishing fractional part) ranks 0 and positive keys 1, 2, ..."""
    rank = {}
    prev, r = None, 0
    for bk, key in sorted(set(keys) | {(BUCKET_IN, 0)}):
        r = r + 1 if bk == prev else 0
        prev = bk
        rank[bk, key] = r
    return rank


def scale(q: Fraction, d: int) -> int:
    """The numerator of ``q`` over the denominator ``d``; ``q * d`` must be
    an integer."""
    n, rem = divmod(q.numerator * d, q.denominator)
    if rem:
        raise ValueError(f"{q} has no numerator over the denominator {d}")
    return n


def ordered_set_partitions(items: Sequence, signs=None) -> Iterator[tuple[tuple, ...]]:
    """All ordered partitions of items into nonempty blocks; with ``signs``,
    those on which each pair (x, y) it maps compares x's block with y's as
    admitted: -1 (before), 0 (same block), 1 (after).  ``signs`` holds each
    pair in both orientations, as negations of each other.

    Items are placed from the last to the first; each partial result either
    extends a block or opens a new block at any position, which generates
    every ordered partition exactly once.  A placement keeps the block order
    of the items placed before it, so a partial result that breaks a pair is
    cut with all its extensions, and the survivors keep their order.
    """
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    ties = [(y, signs[first, y]) for y in rest if (first, y) in signs] if signs else ()
    for part in ordered_set_partitions(rest, signs):
        join, new = range(len(part)), range(len(part) + 1)
        for y, s in ties:
            p = next(i for i, block in enumerate(part) if y in block)
            join = [i for i in join if _cmp(i, p) in s]
            new = [i for i in new if (1 if i > p else -1) in s]
        for i in join:
            yield part[:i] + ((first,) + part[i],) + part[i + 1:]
        for i in new:
            yield part[:i] + ((first,),) + part[i:]


def _subsets(items: Sequence) -> Iterator[tuple]:
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _require_sizes(arity: int, kappa: int | None = None) -> None:
    if arity < 0:
        raise ValueError(f"arity must be nonnegative, got {arity}")
    if kappa is not None and kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")


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
        return _interval(self.points, rat(value))

    def denominator(self, arity: int) -> int:
        """The one denominator of the representatives of arity-``arity``
        classes: it scales every point to an integer, and the ladders that
        split an interval between two points into up to ``arity`` + 1 parts
        with it."""
        return math.lcm(*(p.denominator for p in self.points)) * math.lcm(*range(1, arity + 2))

    def scaled(self, d: int) -> tuple[int, ...]:
        """The points as numerators over ``d``."""
        return tuple(scale(p, d) for p in self.points)

    def is_point_interval(self, idx: int) -> bool:
        return idx % 2 == 1

    def point_interval_index(self, value: RationalLike) -> int:
        idx = self.interval_of(value)
        if not self.is_point_interval(idx):
            raise RegionRangeError(f"{value} is not a partition point")
        return idx


def _interval(points: Sequence, v) -> int:
    """Index of the interval of ``v`` in the partition by ascending
    ``points``; both numerators over one denominator, or both rationals."""
    lo = bisect.bisect_left(points, v)  # first point >= v
    return 2 * lo + 1 if lo < len(points) and points[lo] == v else 2 * lo


def class_of_slr_scaled(nums: Sequence[int], points: Sequence[int]) -> RegionClass:
    """The class of the tuple of numerators ``nums`` under the partition
    points ``points``, numerators over the same denominator."""
    return RegionClass(
        tuple(zip(_ranks(nums), [_interval(points, n) for n in nums])), FAMILY_SLR
    )


def class_of_slr(values: Sequence[RationalLike], partition: PartitionJ) -> RegionClass:
    """The class of a tuple of rationals: ``class_of_slr_scaled`` over their
    common denominator with the points'."""
    vals = [rat(v) for v in values]
    d = math.lcm(*(q.denominator for q in (*vals, *partition.points)))
    return class_of_slr_scaled([scale(v, d) for v in vals], partition.scaled(d))


def enumerate_slr_classes(
    arity: int, partition: PartitionJ, checks: Sequence[tuple] = ()
) -> Iterator[RegionClass]:
    """All classes, deterministically: ordered partitions, then interval maps.

    ``checks`` (from ``compile_checks``) prune the stream without changing
    its order.  Bounds are settled per coordinate before the loops: a block
    takes only the intervals admitted for all of its coordinates.  Var-var
    checks become the signs that cut the ordered partitions (``_pair_cuts``,
    all coordinates in one bucket).  The classes skipped are exactly those
    on which some check fails.
    """
    _require_sizes(arity)
    intervals = [(None, iv) for iv in range(partition.interval_count)]
    admitted = [{iv for _, iv in _admitted(c, intervals, checks)} for c in range(arity)]
    cuts = _pair_cuts(checks, (BUCKET_ABOVE,) * arity, {})
    if cuts is None:
        return
    for part in ordered_set_partitions(tuple(range(arity)), cuts[0]):
        block_of = [0] * arity
        for bi, block in enumerate(part):
            for c in block:
                block_of[c] = bi
        per_block = [sorted(set.intersection(*(admitted[c] for c in block))) for block in part]
        for idxs in _interval_assignments(per_block):
            yield RegionClass(tuple((b, idxs[b]) for b in block_of), FAMILY_SLR)


def _interval_assignments(per_block: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Nondecreasing interval index sequences, block ``pos`` taking an
    interval of ``per_block[pos]`` (ascending); point intervals never repeat.
    Lexicographic, built level-wise: each sequence grows by the intervals of
    the next block from its least admissible one on, which is its last
    interval for an open interval and the one after it for a point."""
    seqs: list[tuple[int, ...]] = [()]
    for ivs in per_block:
        seqs = [
            seq + (iv,)
            for seq in seqs
            for iv in ivs[bisect.bisect_left(ivs, seq[-1] + seq[-1] % 2 if seq else 0):]
        ]
    return seqs


def representative_slr_scaled(
    cls: RegionClass, points: Sequence[int], d: int
) -> tuple[int, ...]:
    """One member per class, as numerators over ``d``, a multiple of
    ``PartitionJ.denominator(arity)``; ``points`` are the partition points
    over ``d`` (``PartitionJ.scaled``).  Points take their value; open
    intervals take an ascending ladder with as many rungs as the interval
    hosts blocks: 1, 2, ... without points, unit steps away from the outer
    points, and ``a + (b - a) * j / (n + 1)`` between points a < b."""
    interval = dict(cls.cells)  # block -> interval
    per_interval: dict[int, list[int]] = {}
    for bi in sorted(interval):
        per_interval.setdefault(interval[bi], []).append(bi)
    values: dict[int, int] = {}
    for iv, bis in per_interval.items():
        n = len(bis)
        if iv % 2 == 1:
            if n != 1:
                raise RegionRangeError(f"{n} value blocks share the point interval {iv}")
            values[bis[0]] = points[iv // 2]
        elif not points:
            for j, bi in enumerate(bis, start=1):
                values[bi] = j * d
        elif iv == 0:
            for j, bi in enumerate(bis, start=1):
                values[bi] = points[0] - (n + 1 - j) * d
        elif iv == 2 * len(points):
            for j, bi in enumerate(bis, start=1):
                values[bi] = points[-1] + j * d
        else:
            a, b = points[iv // 2 - 1], points[iv // 2]
            for j, bi in enumerate(bis, start=1):
                values[bi] = a + (b - a) * j // (n + 1)
    return tuple(values[b] for b, _ in cls.cells)


def representative_slr(cls: RegionClass, partition: PartitionJ) -> tuple[Fraction, ...]:
    """``representative_slr_scaled`` as rationals."""
    d = partition.denominator(cls.arity)
    return tuple(Fraction(n, d) for n in representative_slr_scaled(cls, partition.scaled(d), d))


# --- bounded difference classes -------------------------------------------


def class_of_bd_scaled(
    nums: Sequence[int], d: int, kappa: int, bounded: bool
) -> RegionClass:
    """The class of the tuple of numerators ``nums`` over the denominator
    ``d``: ``divmod`` by ``d`` gives the floor and the numerator of the
    fractional part, and integers are ranked."""
    _require_sizes(len(nums), kappa)
    # a bounded tuple lies in (-kappa-1, kappa+1), where its class is the
    # unbounded one at kappa + 1
    edge = (kappa + 1 if bounded else kappa) * d
    if bounded:
        for n in nums:
            if not -edge < n < edge:
                raise RegionRangeError(
                    f"{Fraction(n, d)} outside (-{kappa + 1}, {kappa + 1}) "
                    "for the bounded classifier"
                )
    # per coordinate (bucket, floor, key), the key ranked within the bucket:
    # in range the fractional part's numerator, beyond the edge the value
    keys = []
    for n in nums:
        if -edge <= n <= edge:
            fl, fr = divmod(n, d)
            keys.append((BUCKET_IN, fl, fr))
        else:
            keys.append((BUCKET_BELOW if n < 0 else BUCKET_ABOVE, 0, n))
    rank = _bucket_ranks((bk, key) for bk, _, key in keys)
    family = FAMILY_BD_BOUNDED if bounded else FAMILY_BD_UNBOUNDED
    return RegionClass(tuple((bk, f, rank[bk, key]) for bk, f, key in keys), family, kappa)


def class_of_bd(values: Sequence[RationalLike], kappa: int, bounded: bool) -> RegionClass:
    """The class of a tuple of rationals: ``class_of_bd_scaled`` over their
    common denominator."""
    vals = [rat(v) for v in values]
    d = math.lcm(*(v.denominator for v in vals))
    return class_of_bd_scaled([scale(v, d) for v in vals], d, kappa, bounded)


def enumerate_bd_bounded(
    arity: int, kappa: int, floor_lo: int | None = None
) -> Iterator[RegionClass]:
    """All bounded classes, deterministically: fr-zero flags, fractional
    order, then floors.

    The bounded equivalence over (-kappa-1, kappa+1)^arity is the unbounded
    one at kappa + 1 restricted to that box, so this is
    ``enumerate_bd_unbounded(arity, kappa + 1)`` pruned by the box bounds
    -kappa-1 < x < kappa+1 on every coordinate, each class relabelled as
    bounded at kappa.  Every coordinate is in range there, so the unbounded
    order reduces to the one above.  ``floor_lo``, at most kappa + 1 in
    absolute value, adds the bound x >= floor_lo, which drops the classes
    with a floor below it (0 keeps the clock box [0, kappa+1)^arity).
    """
    _require_sizes(arity, kappa)
    box = [
        ("bd_const", rel, c, k)
        for c in range(arity)
        for rel, k in ((Relation.GT, -kappa - 1), (Relation.LT, kappa + 1))
    ]
    if floor_lo is not None:
        box += [("bd_const", Relation.GE, c, floor_lo) for c in range(arity)]
    for cls in enumerate_bd_unbounded(arity, kappa + 1, box):
        yield RegionClass(cls.cells, FAMILY_BD_BOUNDED, kappa)


def enumerate_bd_unbounded(
    arity: int, kappa: int, checks: Sequence[tuple] = ()
) -> Iterator[RegionClass]:
    """All unbounded classes, deterministically: buckets, value order beyond
    +/-kappa, fr-zero flags, fractional order, then floors.

    ``checks`` (from ``compile_checks``) prune the stream without changing
    its order; the classes skipped are exactly those on which some check
    fails, and none is built to be dropped.  A coordinate takes only the
    buckets and floors its bounds admit (``_admitted``), with the bounds of
    the zone (``_zone``); an empty zone yields nothing.  Per bucket choice,
    ``_pair_cuts`` skips the choice or gives the signs that the value orders
    beyond +/-kappa, the zero set (``_zero_set_open``) and the fractional
    order (``ordered_set_partitions``) keep to, so every order built leaves
    each in-range pair a band (``_bands``), within which ``_floor_tuples``
    places the floors around the holes of the ``!=`` checks.  A difference
    check between coordinates that their constant bounds do not hold within
    +/-kappa raises ``FragmentError`` before the first class.
    """
    _require_sizes(arity, kappa)
    coords = tuple(range(arity))
    # What a bound reads of a cell: the bucket, and in range the floor and
    # whether the fractional part vanishes (rank 0) or not (rank 1).
    bound_cells = [
        (BUCKET_BELOW, 0, 0),
        *((BUCKET_IN, f, r) for r in (1, 0) for f in range(-kappa, kappa + 1 - r)),
        (BUCKET_ABOVE, 0, 0),
    ]
    for ch in checks:
        if ch[0] == "bd_const" and abs(ch[3]) > kappa:
            raise FragmentError(f"bd constant {ch[3]} beyond +/-kappa = {kappa}")
    admitted = [_admitted(c, bound_cells, checks) for c in coords]
    for ch in checks:
        if ch[0] == "diff" and ch[2] != ch[3]:
            if any(bk != BUCKET_IN for c in ch[2:4] for bk, _, _ in admitted[c]):
                raise FragmentError(
                    "difference constraint over a coordinate that its bounds do not "
                    "hold within +/-kappa; its variables need two-sided constant bounds"
                )
    if not all(admitted):
        return
    bands: dict = {}
    relations = [ch for ch in checks if ch[0] in ("varvar", "diff") and ch[1] is not Relation.NEQ]
    if relations:  # else the bounds are the zone, and closed
        hulls = [_hull(adm) for adm in admitted]
        zone = _zone(hulls, relations)
        if zone is None:
            return
        for c, hull in enumerate(hulls):
            tighter = _closed_bounds(zone, c, kappa, hull)
            if tighter:
                admitted[c] = _admitted(c, admitted[c], tighter)
        bands = _bands(zone, kappa)
    # floor_opts[c][zero]: the in-range floors admitted for coordinate c,
    # given whether its fractional part vanishes, ascending.
    floor_opts = [
        [[f for bk, f, r in adm if bk == BUCKET_IN and (r == 0) == zero] for zero in (False, True)]
        for adm in admitted
    ]
    bucket_opts = [sorted({bk for bk, _, _ in adm}) for adm in admitted]
    for buckets in itertools.product(*bucket_opts):
        cuts = _pair_cuts(checks, buckets, bands)
        if cuts is None:
            continue
        signs, pairs, holes = cuts
        inside = tuple(c for c in coords if buckets[c] == BUCKET_IN)
        cells: list = [None] * arity
        # per coordinate its fractional rank, once the zero set and the
        # fractional order are chosen
        ranks = [0] * arity
        below = tuple(c for c in coords if buckets[c] == BUCKET_BELOW)
        above = tuple(c for c in coords if buckets[c] == BUCKET_ABOVE)
        for below_part in ordered_set_partitions(below, signs):
            for above_part in ordered_set_partitions(above, signs):
                for bucket, part in ((BUCKET_BELOW, below_part), (BUCKET_ABOVE, above_part)):
                    for rank, block in enumerate(part):
                        for c in block:
                            cells[c] = (bucket, 0, rank)
                for zero in _subsets(inside):
                    ranges = [floor_opts[c][c in zero] for c in inside]
                    if not all(ranges) or not _zero_set_open(signs, zero):
                        continue
                    nonzero = tuple(c for c in inside if c not in zero)
                    for c in zero:
                        ranks[c] = 0
                    for part in ordered_set_partitions(nonzero, signs):
                        for rank, block in enumerate(part, start=1):
                            for c in block:
                                ranks[c] = rank
                        limits = (_floor_limits(pairs, holes, ranks, len(inside))
                                  if pairs or holes else ())
                        for floors in _floor_tuples(ranges, limits):
                            for c, f in zip(inside, floors):
                                cells[c] = (BUCKET_IN, f, ranks[c])
                            yield RegionClass(tuple(cells), FAMILY_BD_UNBOUNDED, kappa)


def _admitted(c: int, cells: Sequence[tuple], checks: Sequence[tuple]) -> list[tuple]:
    """The candidate ``cells`` of coordinate ``c`` on which every bound on
    ``c`` holds, in their order.  A bound reads only the cell of its own
    coordinate, so this settles it once for every class."""
    out = list(cells)
    for kind, rel, i, k, *_ in checks:
        if i != c:
            continue
        if kind == "bd_const":
            out = [cell for cell in out if rel.holds(_bound_sign(cell, k), 0)]
        elif kind == "slr_const":
            out = [cell for cell in out if rel.holds(_cmp(cell[1], k), 0)]
    return out


# --- zones: closed difference-bound matrices --------------------------------
#
# Node 0 is the value 0 and node c + 1 coordinate c.  Entry [i][j] bounds
# x_i - x_j by (c, 1) for <= c or (c, 0) for < c; tuples order these from
# tight to loose, and INF is no bound.  Floyd-Warshall closes the matrix
# (Bengtsson & Yi, "Timed Automata: Semantics, Algorithms and Tools", 2004).

INF = (math.inf, 1)


def _hull(cells: Sequence[tuple]) -> tuple[tuple, tuple]:
    """Zone entries [0][c] and [c][0] of the hull of nonempty candidate
    ``cells`` of coordinate c: its lower and upper bound, if in range."""
    lower = upper = INF
    bk, f, r = min(cells)
    if bk == BUCKET_IN:  # x >= f, or x > f with a positive fractional part
        lower = (-f, int(r == 0))
    bk, f, r = max(cells)
    if bk == BUCKET_IN:  # x <= f, or x < f + 1
        upper = (f, 1) if r == 0 else (f + 1, 0)
    return lower, upper


def _zone(hulls: Sequence[tuple[tuple, tuple]], relations: Sequence[tuple]):
    """The closed zone of the bounds, entered as the ``hulls`` of the
    admitted cells, and the convex var-var and difference checks
    ``relations``; None when it is empty.  It holds every member of every
    class on which all checks hold."""
    n = len(hulls) + 1
    m = [[INF] * n for _ in range(n)]
    for k in range(n):
        m[k][k] = (0, 1)
    for c, (lower, upper) in enumerate(hulls, start=1):
        m[0][c], m[c][0] = lower, upper

    def tighten(i: int, j: int, bound: tuple) -> None:
        if bound < m[i][j]:
            m[i][j] = bound

    for kind, rel, i, j, *const in relations:
        c = const[0] if kind == "diff" else 0
        if rel in (Relation.LE, Relation.LT, Relation.EQ):
            tighten(i + 1, j + 1, (c, int(rel is not Relation.LT)))
        if rel in (Relation.GE, Relation.GT, Relation.EQ):
            tighten(j + 1, i + 1, (-c, int(rel is not Relation.GT)))
    for k in range(n):
        mk = m[k]
        for mi in m:
            ik = mi[k]
            if ik is INF:
                continue
            for j, kj in enumerate(mk):
                if kj is not INF:
                    via = (ik[0] + kj[0], ik[1] & kj[1])
                    if via < mi[j]:
                        mi[j] = via
    if any(m[k][k] < (0, 1) for k in range(n)):
        return None
    return m


def _closed_bounds(zone, c: int, kappa: int, hull: tuple[tuple, tuple]) -> list[tuple]:
    """The zone's bounds on coordinate ``c`` that are tighter than the
    ``hull`` of its admitted cells, as ``bd_const`` checks.  A bound beyond
    +/-kappa does not separate whole cells and is dropped."""
    out = []
    lower, upper = hull
    u, le = zone[c + 1][0]
    if zone[c + 1][0] < upper and abs(u) <= kappa:
        out.append(("bd_const", Relation.LE if le else Relation.LT, c, u))
    v, ge = zone[0][c + 1]
    if zone[0][c + 1] < lower and abs(v) <= kappa:
        out.append(("bd_const", Relation.GE if ge else Relation.GT, c, -v))
    return out


def _bands(zone, kappa: int) -> dict[tuple[int, int], tuple]:
    """Per pair of coordinates (a, b) in range, three (lo, hi) for r_b < r_a,
    r_b = r_a and r_b > r_a: the floor differences d = f_b - f_a that keep
    x_b - x_a, which lies in (d - 1, d), is d, or lies in (d, d + 1), within
    the zone.  Pairs that the bounds alone relate get no band: the admitted
    cells keep them within the zone already."""

    def implied(i: int, j: int) -> bool:  # x_i - x_j by way of the zero node
        (u, le), (v, ge) = zone[i][0], zone[0][j]
        return zone[i][j] is INF or (
            abs(u) <= kappa and abs(v) <= kappa and zone[i][j] == (u + v, le & ge)
        )

    n = len(zone) - 1
    bands = {}
    for a in range(n):
        for b in range(n):
            if a != b and not (implied(b + 1, a + 1) and implied(a + 1, b + 1)):
                (u, le), (v, ge) = zone[b + 1][a + 1], zone[a + 1][b + 1]
                bands[a, b] = ((1 - v, u), (-v + 1 - ge, u - 1 + le), (-v, u - 1))
    return bands


def _pair_cuts(checks, buckets, bands):
    """The pair checks of one bucket choice as cuts, or None when one fails
    on every class of the choice: the signs that the ordered partitions keep
    to, and for the in-range coordinates a and b at positions p < k, the
    (p, k, a, b, band) ``pairs`` whose ``bands`` confine f_b - f_a and the
    (p, k, a, b, d) ``holes`` of the checks x_b - x_a != d, which fail
    exactly on equal ranks with f_b - f_a = d."""
    pos = {c: k for k, c in enumerate(c for c, bk in enumerate(buckets) if bk == BUCKET_IN)}
    signs: dict = {}
    holes = []
    for kind, rel, i, j, *const in checks:
        if kind not in ("varvar", "diff"):
            continue
        c = const[0] if const else 0
        # the buckets alone decide: x_i - x_i is 0, and across buckets
        # x_i - x_j has the sign of buckets[i] - buckets[j] and c is 0 (a
        # difference lies in range)
        if i == j or buckets[i] != buckets[j]:
            if not rel.holds(buckets[i] - buckets[j], c):
                return None
        elif buckets[i] != BUCKET_IN:
            held = [s for s in signs.get((i, j), (-1, 0, 1)) if rel.holds(s, 0)]
            signs[i, j], signs[j, i] = held, [-s for s in held]
        elif rel is Relation.NEQ:
            if pos[i] < pos[j]:
                i, j, c = j, i, -c
            holes.append((pos[j], pos[i], j, i, c))
    pairs = [(pos[a], pos[b], a, b, band) for (a, b), band in bands.items()
             if a in pos and b in pos and pos[a] < pos[b]]
    for _, _, a, b, band in pairs:
        held = [s for s in (-1, 0, 1) if band[s + 1][0] <= band[s + 1][1]]
        if len(held) < 3:
            signs[b, a], signs[a, b] = held, [-s for s in held]
    return signs, pairs, holes


def _zero_set_open(signs, zero) -> bool:
    """Whether every pair with a vanishing fractional part keeps to its
    ``signs``: the zero set alone fixes its rank relation, both rank 0 or
    rank 0 below every positive rank."""
    return all((b in zero) - (a in zero) in held
               for (a, b), held in signs.items() if a in zero or b in zero)


def _floor_limits(pairs, holes, ranks, n: int) -> list[tuple[list, list]]:
    """Per in-range position k < n, the (p, lo, hi) for which the band of
    the pair at positions p < k confines f_k - f_p to [lo, hi] under these
    ranks, and the (p, d) for which a hole takes f_k - f_p = d out.  No band
    is empty here: the zero set and the fractional order keep every pair to
    its signs."""
    limits: list[tuple[list, list]] = [([], []) for _ in range(n)]
    for p, k, a, b, band in pairs:
        ra, rb = ranks[a], ranks[b]
        limits[k][0].append((p, *band[(rb > ra) - (rb < ra) + 1]))
    for p, k, a, b, d in holes:
        if ranks[a] == ranks[b]:
            limits[k][1].append((p, d))
    return limits


def _floor_tuples(ranges, limits) -> Iterator[tuple[int, ...]]:
    """``itertools.product(*ranges)`` minus every floor prefix whose last
    floor leaves a band or falls into a hole of its position, in the same
    (lexicographic) order.

    Level-wise: the admitted prefixes grow one in-range coordinate at a
    time, up to the last position with a band or a hole, and the
    unconstrained tail is appended by ``itertools.product``.  Per prefix,
    the bands of a position clip its ascending range to one interval
    [lo, hi] of floors, and its holes take single floors out of that."""
    last = max((k for k, (bands, holes) in enumerate(limits) if bands or holes), default=-1)
    if last < 0:
        return itertools.product(*ranges)
    prefixes: list[tuple[int, ...]] = [()]
    for k in range(last + 1):
        fs, (bands, holes) = ranges[k], limits[k]
        grown = []
        for prefix in prefixes:
            lo, hi = fs[0], fs[-1]
            for p, dlo, dhi in bands:
                f = prefix[p]
                if f + dlo > lo:
                    lo = f + dlo
                if f + dhi < hi:
                    hi = f + dhi
            if lo > hi:
                continue
            admitted = fs[bisect.bisect_left(fs, lo):bisect.bisect_right(fs, hi)]
            if holes:
                gaps = {prefix[p] + d for p, d in holes}
                admitted = [f for f in admitted if f not in gaps]
            grown += [prefix + (f,) for f in admitted]
        prefixes = grown
    tail = ranges[last + 1:]
    return (prefix + t for prefix in prefixes for t in itertools.product(*tail))


def _outer_block_counts(cells) -> tuple[int, int]:
    """Number of value blocks below -kappa and above kappa."""
    below = above = 0
    for bk, _, r in cells:
        if bk == BUCKET_BELOW:
            below = max(below, r + 1)
        elif bk == BUCKET_ABOVE:
            above = max(above, r + 1)
    return below, above


def representative_bd_scaled(cls: RegionClass, d: int) -> tuple[int, ...]:
    """Deterministic member of the class, as numerators over ``d``.

    Positive fractional parts climb a ladder of rungs j / d, so ``d`` must
    exceed every rung the class takes (``representative_bd`` gives the
    least such d).  Bounded classes take rung r for fractional rank r.
    Unbounded classes assign the rungs to Below blocks first, then Above,
    then in-range positive blocks, so representatives obey
    fr(Below) < fr(Above) < positive fr(In); d = arity + 2 suffices.
    """
    cells, kappa = cls.cells, cls.kappa
    below, above = _outer_block_counts(cells)
    out = []
    for bk, f, r in cells:
        if bk == BUCKET_BELOW:
            out.append((-kappa - (below - r)) * d + r + 1)
        elif bk == BUCKET_ABOVE:
            out.append((kappa + r + 1) * d + below + r + 1)
        elif r == 0:
            out.append(f * d)
        else:
            out.append(f * d + below + above + r)
    return tuple(out)


def representative_bd(cls: RegionClass) -> tuple[Fraction, ...]:
    """``representative_bd_scaled`` as rationals, over the ladder
    denominator d = arity + 2 for unbounded classes and d = (number of
    positive fractional blocks) + 1 for bounded ones."""
    if cls.family == FAMILY_BD_BOUNDED:
        d = 1 + max((r for _, _, r in cls.cells), default=0)
    else:
        d = cls.arity + 2
    return tuple(Fraction(n, d) for n in representative_bd_scaled(cls, d))


# --- family-independent operations -----------------------------------------


def representative(cls: RegionClass, partition: PartitionJ | None = None) -> tuple[Fraction, ...]:
    """A class's representative as rationals, for legends and printing."""
    if cls.family != FAMILY_SLR:
        return representative_bd(cls)
    if partition is None:
        raise ValueError("an slr class needs its partition for a representative")
    return representative_slr(cls, partition)


def select_class(cls: RegionClass, idx: Sequence[int]) -> RegionClass:
    """Class of t[idx] for any t in cls: the cells reindexed, then block
    indices (slr) or the ranks within each bucket (bd) renumbered densely.
    In range, rank 0 stays reserved for a vanishing fractional part."""
    picked = [cls.cells[s] for s in idx]
    if cls.family == FAMILY_SLR:
        blocks = _ranks([b for b, _ in picked])
        return cls._replace(cells=tuple((b, iv) for b, (_, iv) in zip(blocks, picked)))
    rank = _bucket_ranks((bk, r) for bk, _, r in picked)
    return cls._replace(cells=tuple((bk, f, rank[bk, r]) for bk, f, r in picked))


# --- premise checks on class cells -----------------------------------------
#
# A check reads the cells of its coordinates (see the module docstring),
# which compare like the values they stand for.  A check is a tuple:
# ("slr_const", rel, i, point interval index), ("bd_const", rel, i, c),
# ("varvar", rel, i, j) or ("diff", rel, i, j, c), for x_i rel point,
# x_i rel c, x_i rel x_j and x_i - x_j rel c.


def compile_checks(mode: str, constraints, vidx, gamma=None, partition=None) -> list[tuple]:
    """Premise constraints over variables ``vidx`` as checks on cells.

    Bounds come first so that difference checks, which need their
    coordinates in range, only run once the guard bounds held.  Slr bounds
    are evaluated under ``gamma`` and must be points of ``partition``; bd
    constants must be integers, and ``enumerate_bd_unbounded`` rejects a
    bound beyond +/-kappa with ``FragmentError``.
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
