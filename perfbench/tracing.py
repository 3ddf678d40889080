"""Outside-in layer spans for the traced pass.

``decide`` reaches its layers through names bound as globals of the
``bsrsat.decide`` module, so the tracer swaps those names for timing
wrappers while a traced pass runs and puts the original objects back
afterwards.  Patching ``bsrsat.regions`` instead would record nothing.

Spans are kept in memory as (name, start, end, parent, instance id).  The two
leaves called once per region class (``_class_ok`` and ``representative``,
hundreds of thousands of calls per timed instance) are aggregated per parent
span as (seconds, calls) instead, which keeps the trace small.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import bsrsat.decide as decide_mod

# Globals of bsrsat.decide that get one span per call.
SPANNED = {
    "_ground_clause": "decide.ground",
    "_instantiate": "decide.instantiate",
    "_dpll": "propsat.solve",
    "verify_model": "decide.verify",
    "solve_ground": "linarith.solve_ground",
}
# Class enumerators: generators, so the wrapper drains them inside its span.
STREAMS = ("enumerate_bd_unbounded", "enumerate_slr_classes")
# Per-class leaves, aggregated per parent span.
HOT = {"_class_ok": "decide.filter", "representative": "regions.representative"}

WRAPPED = tuple(SPANNED) + STREAMS + tuple(HOT)


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.hot: dict[tuple[int, str], list] = {}  # (parent, name) -> [s, calls, true]
        self.classes_streamed = 0
        self.instance = ""
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.instance)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapped

    def _stream(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span("regions.stream"):
                out = list(fn(*args, **kwargs))
            self.classes_streamed += len(out)
            return iter(out)
        return wrapped

    def _hot(self, name: str, fn):
        stack, hot, clock = self._stack, self.hot, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            acc = hot.get((stack[-1], name))
            if acc is None:
                acc = hot[(stack[-1], name)] = [0.0, 0, 0]
            acc[0] += dt
            acc[1] += 1
            acc[2] += result is True  # survivors, for the filter
            return result
        return wrapped

    @contextmanager
    def patched(self):
        """Swap decide's layer globals for wrappers; always restore them."""
        originals = {name: getattr(decide_mod, name) for name in WRAPPED}
        try:
            for name, fn in originals.items():
                if name in SPANNED:
                    wrapper = self._spanned(SPANNED[name], fn)
                elif name in HOT:
                    wrapper = self._hot(HOT[name], fn)
                else:
                    wrapper = self._stream(fn)
                setattr(decide_mod, name, wrapper)
            yield self
        finally:
            for name, fn in originals.items():
                setattr(decide_mod, name, fn)

    def write(self, path: Path) -> None:
        """Spans, then hot-leaf aggregates, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(["span", *s]) + "\n")
            for (parent, name), (secs, calls, true) in sorted(self.hot.items()):
                f.write(json.dumps(["hot", name, secs, calls, true, parent]) + "\n")

    def layer_metrics(self, traced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer busy time (self time where a layer has children) and counts."""
        covered = [0.0] * len(self.spans)
        top = 0.0
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
            else:
                top += t1 - t0
        hot_s = {n: 0.0 for n in HOT.values()}
        hot_calls = {n: 0 for n in HOT.values()}
        survived = 0
        for (parent, name), (secs, calls, true) in self.hot.items():
            if parent >= 0:
                covered[parent] += secs
            else:
                top += secs
            hot_s[name] += secs
            hot_calls[name] += calls
            if name == "decide.filter":
                survived += true
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - covered[i])
            calls[name] = calls.get(name, 0) + 1
        grounded = hot_calls["decide.filter"]
        s, n = "s", "count"
        return {
            "parser.parse_s": (total.get("parser.parse", 0.0), s),
            "normalize.normalize_s": (total.get("normalize.normalize", 0.0), s),
            "timed.encode_s": (total.get("timed.encode", 0.0), s),
            "linarith.solve_ground_s": (total.get("linarith.solve_ground", 0.0), s),
            "linarith.solve_ground_calls": (calls.get("linarith.solve_ground", 0), n),
            "regions.stream_s": (total.get("regions.stream", 0.0), s),
            "regions.stream_calls": (calls.get("regions.stream", 0), n),
            "regions.classes_streamed": (self.classes_streamed, n),
            "decide.filter_s": (hot_s["decide.filter"], s),
            "decide.ground_s": (self_s.get("decide.ground", 0.0), s),
            "decide.classes_grounded": (grounded, n),
            "decide.classes_survived": (survived, n),
            "decide.filter_yield": (survived / grounded if grounded else 0.0, "1"),
            "decide.instantiate_s": (total.get("decide.instantiate", 0.0), s),
            "propsat.solve_s": (total.get("propsat.solve", 0.0), s),
            "decide.verify_s": (self_s.get("decide.verify", 0.0), s),
            "decide.verify_calls": (calls.get("decide.verify", 0), n),
            "regions.representative_s": (hot_s["regions.representative"], s),
            "regions.representative_calls": (hot_calls["regions.representative"], n),
            "decide.self_s": (self_s.get("decide.decide", 0.0), s),
            "bench.uncovered_frac": ((traced_wall - top) / traced_wall, "1"),
        }
