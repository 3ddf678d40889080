"""Constructive finite Ramsey-style selection of monochromatic subsets.

Three operations build finite sets of reals over which a given coloring of
m-tuples cannot distinguish ascending tuples:

* mono_ascending: one input set, plain ascending m-tuples.
* mono_product: p input sets, concatenations of p ascending m-tuples.
* mono_mapped: patterns that repeat and reorder components of ascending
  tuples and mix in fixed reals.

All three follow the classical extraction arguments and are deterministic:
equal-size candidate classes are broken by their smallest member, and every
other choice is by ascending order.  Input sizes are caller-supplied.  When
a selection stage runs out of elements, InsufficientInputError names that
stage; no attempt is made to compute Ramsey numbers up front.

These helpers exercise the combinatorial core of uniform-model existence at
small scale.  The decision procedures never call them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence


class InsufficientInputError(RuntimeError):
    """An input set ran out of elements mid-construction.

    ``stage`` names the selection step that could not complete, e.g. the
    recursion level of the ascending extraction, the product component, or
    the index of the pattern map being processed.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class ColoringOracle:
    """Total coloring of m-tuples, memoized per instance.

    ``fn`` maps an m-tuple of rationals to an opaque integer color drawn
    from ``range(colors)``.  Queries are cached; arity and color range are
    checked on every fresh evaluation.
    """

    def __init__(self, fn: Callable[[tuple], int], arity: int, colors: int):
        if arity < 1 or colors < 1:
            raise ValueError("coloring needs positive arity and color count")
        self.fn = fn
        self.arity = arity
        self.colors = colors
        self._cache: dict[tuple, int] = {}

    @property
    def queries(self) -> int:
        """Number of distinct tuples evaluated so far."""
        return len(self._cache)

    def __call__(self, tup: tuple) -> int:
        tup = tuple(tup)
        cached = self._cache.get(tup)
        if cached is not None:
            return cached
        if len(tup) != self.arity:
            raise ValueError(f"expected {self.arity}-tuple, got {len(tup)}-tuple")
        color = self.fn(tup)
        if not isinstance(color, int) or not 0 <= color < self.colors:
            raise ValueError(f"color {color!r} outside range({self.colors})")
        self._cache[tup] = color
        return color


Trace = Callable[[str], None]


def _say(trace: Trace | None, depth: int, msg: str) -> None:
    if trace is not None:
        trace("  " * depth + msg)


def _ordered(rs) -> tuple:
    return tuple(sorted(set(rs)))


def _best_class(classes: dict) -> list:
    """Largest class; ties broken by smallest member.

    Class lists are built in ascending element order, so the canonical
    member of each class is its first entry.
    """
    size = max(len(c) for c in classes.values())
    return min((c for c in classes.values() if len(c) == size), key=lambda c: c[0])


def _ascending_max(rs: tuple, m: int, chi, trace: Trace | None, depth: int) -> tuple:
    """Largest subset the extraction chain yields; ascending m-tuples over
    it share one chi-color.

    Maximal for this particular deterministic chain, not globally; callers
    trim to the cardinality they need and complain if the chain fell short.
    """
    if m == 1:
        classes: dict[object, list] = {}
        for r in rs:
            classes.setdefault(chi((r,)), []).append(r)
        if not classes:
            raise InsufficientInputError("color-class selection (m=1)", "input set is empty")
        best = _best_class(classes)
        _say(trace, depth, f"m=1: {len(classes)} color classes over {len(rs)} elements, "
                           f"sizes {sorted((len(c) for c in classes.values()), reverse=True)}; "
                           f"keep {len(best)} starting at {best[0]}")
        return tuple(best)

    if len(rs) < m - 2:
        raise InsufficientInputError(
            f"initial picks (m={m})", f"need {m - 2} smallest elements, have {len(rs)}")

    # Chain construction: repeatedly extract the smallest remaining element
    # and keep the largest class of elements that color all extension
    # prefixes through it identically.  Survivors agree on prefixes ending
    # at earlier picks already, so only prefixes ending at the new pick are
    # fresh constraints.
    seq = list(rs[: m - 2])
    pool = list(rs[m - 2:])
    if seq:
        _say(trace, depth, f"m={m}: initial picks {', '.join(str(s) for s in seq)}")
    while pool:
        s = pool.pop(0)
        seq.append(s)
        if not pool:
            break
        prefixes = [p + (s,) for p in itertools.combinations(seq[:-1], m - 2)]
        classes = {}
        for r in pool:
            sig = tuple(chi(p + (r,)) for p in prefixes)
            classes.setdefault(sig, []).append(r)
        pool = _best_class(classes)
        _say(trace, depth, f"m={m}: extracted {s}; {len(classes)} classes, keep {len(pool)}")

    _say(trace, depth, f"m={m}: chain has {len(seq)} elements, recursing on successor coloring")
    index = {v: i for i, v in enumerate(seq)}

    def derived(tup):
        # Color of a prefix = chi of the prefix extended by its successor in
        # the chain.  Every later extension agrees by construction.  The last
        # chain element has no successor; any fixed color is sound there
        # because such a prefix cannot be extended within the chain.
        j = index[tup[-1]]
        if j + 1 == len(seq):
            return 0
        return chi(tup + (seq[j + 1],))

    return _ascending_max(tuple(seq), m - 1, derived, trace, depth + 1)


def _product_max(rss: list, m: int, chi, trace: Trace | None, depth: int) -> list:
    """Component-wise maximal subsets; concatenated ascending m-tuples drawn
    from them share one chi-color (chi takes flat m*p tuples)."""
    p = len(rss)
    if p == 1:
        return [_ascending_max(rss[0], m, chi, trace, depth)]

    head, last = list(rss[:-1]), rss[-1]
    prefix_pool = list(itertools.product(
        *(itertools.combinations(rs, m) for rs in head)))
    _say(trace, depth, f"component {p}: classifying against {len(prefix_pool)} prefix combinations")

    # Two candidate tuples over the last component are interchangeable when
    # every choice of ascending tuples from the head components colors them
    # alike; the signature records that behaviour.
    sig_ids: dict[tuple, int] = {}

    def signature_color(tup):
        sig = tuple(chi(sum(pref, ()) + tup) for pref in prefix_pool)
        return sig_ids.setdefault(sig, len(sig_ids))

    q_last = _ascending_max(last, m, signature_color, trace, depth + 1)
    if len(q_last) < m:
        raise InsufficientInputError(
            f"product component {p}",
            f"monochromatic subset has {len(q_last)} < {m} elements, cannot fix a reference tuple")
    anchor = q_last[:m]
    _say(trace, depth, f"component {p}: kept {len(q_last)} elements, reference tuple {anchor}")

    def reduced(tup):
        return chi(tup + anchor)

    rest = _product_max(head, m, reduced, trace, depth)
    return rest + [q_last]


def _vacuous(rss: list, n: int, stage: str) -> list:
    for i, rs in enumerate(rss, start=1):
        if len(rs) < n:
            raise InsufficientInputError(
                stage, f"set {i} has {len(rs)} < {n} elements")
    return [rs[:n] for rs in rss]


def mono_ascending(rs: Sequence, m: int, n: int, chi, trace: Trace | None = None) -> tuple:
    """Subset Q of rs with |Q| = n whose ascending m-tuples share one chi-color.

    For n < m no ascending m-tuple fits into Q, so the first n elements
    qualify vacuously.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rs = _ordered(rs)
    if n < m:
        return _vacuous([rs], n, f"vacuous prefix (n={n} < m={m})")[0]
    q = _ascending_max(rs, m, chi, trace, 0)
    if len(q) < n:
        raise InsufficientInputError(
            f"ascending selection (m={m})",
            f"chain over {len(rs)} elements yielded {len(q)} < {n}; supply a larger set")
    return q[:n]


def mono_product(rss: Sequence[Sequence], m: int, n: int, chi,
                 trace: Trace | None = None) -> list[tuple]:
    """Subsets Q_1..Q_p, each of size n, such that chi is constant on all
    concatenations of ascending m-tuples taken from the Q_i.

    chi takes flat (m*p)-tuples: the components of the first tuple, then the
    second, and so on.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rss = [_ordered(rs) for rs in rss]
    if not rss:
        raise ValueError("need at least one input set")
    if n < m:
        return _vacuous(rss, n, f"vacuous prefix (n={n} < m={m})")
    naturals = _product_max(rss, m, chi, trace, 0)
    for i, q in enumerate(naturals, start=1):
        if len(q) < n:
            raise InsufficientInputError(
                f"product component {i}",
                f"selection yielded {len(q)} < {n}; supply larger sets")
    return [q[:n] for q in naturals]


def pattern_maps(p: int, k: int, m: int) -> list[tuple]:
    """All maps from positions 1..m to component/coordinate pairs.

    A pair (j, l) with j <= p selects coordinate l of the j-th ascending
    tuple; j = p + i selects the i-th fixed real, which only has coordinate
    1.  Enumeration order is lexicographic and fixed.
    """
    pairs = [(j, l) for j in range(1, p + 1) for l in range(1, m + 1)]
    pairs += [(p + i, 1) for i in range(1, k + 1)]
    return list(itertools.product(pairs, repeat=m))


def _select(rho: tuple, flat: tuple, qs: tuple, p: int, m: int) -> tuple:
    out = []
    for j, l in rho:
        if j <= p:
            out.append(flat[(j - 1) * m + (l - 1)])
        else:
            out.append(qs[j - p - 1])
    return tuple(out)


def mono_mapped(rss: Sequence[Sequence], qs: Sequence, m: int, n: int, chi,
                trace: Trace | None = None) -> list[tuple]:
    """Subsets Q_1..Q_p, each of size n, monochromatic under every pattern.

    A pattern picks, for each of the m positions, either a coordinate of one
    of the p ascending tuples or one of the fixed reals qs; all patterns are
    enumerated internally.  chi takes plain m-tuples.  The construction
    shrinks the sets once per pattern, so each established pattern color is
    inherited by every later stage.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rss = [_ordered(rs) for rs in rss]
    qs = tuple(qs)
    if not rss:
        raise ValueError("need at least one input set")
    p = len(rss)
    if n < m:
        return _vacuous(rss, n, f"vacuous prefix (n={n} < m={m})")

    maps = pattern_maps(p, len(qs), m)
    sets = rss
    for j, rho in enumerate(maps, start=1):
        shape = ", ".join(f"{i + 1}->({a},{b})" for i, (a, b) in enumerate(rho))
        _say(trace, 0, f"pattern {j}/{len(maps)}: {shape}")

        def colored(flat, rho=rho):
            return chi(_select(rho, flat, qs, p, m))

        try:
            sets = _product_max(sets, m, colored, trace, 1)
        except InsufficientInputError as err:
            raise InsufficientInputError(
                f"pattern {j}/{len(maps)}", str(err)) from err
        for i, q in enumerate(sets, start=1):
            if len(q) < n:
                raise InsufficientInputError(
                    f"pattern {j}/{len(maps)}",
                    f"component {i} shrank to {len(q)} < {n} elements")
        _say(trace, 0, f"pattern {j}/{len(maps)}: sizes now {[len(q) for q in sets]}")
    return [q[:n] for q in sets]


def check_mono_ascending(q: Sequence, m: int, chi) -> bool:
    """Exhaustively confirm that ascending m-tuples over q share one color."""
    colors = {chi(t) for t in itertools.combinations(sorted(q), m)}
    return len(colors) <= 1


def check_mono_mapped(qss: Sequence[Sequence], qs: Sequence, m: int, chi) -> bool:
    """Exhaustively confirm the pattern postcondition on mono_mapped output."""
    qs = tuple(qs)
    p = len(qss)
    pools = [list(itertools.combinations(sorted(rs), m)) for rs in qss]
    for rho in pattern_maps(p, len(qs), m):
        colors = set()
        for combo in itertools.product(*pools):
            flat = sum(combo, ())
            colors.add(chi(_select(rho, flat, qs, p, m)))
            if len(colors) > 1:
                return False
    return True
