"""Benchmark inputs and the user path that solves them.

Inputs are seeded draws from the corpus generators, serialised to the text
a user would hand to ``bsrsat ta reach --backend bsr`` (an automaton file
plus a goal string) or to ``bsrsat decide`` (a clause-set file).  Solving an
instance replays the CLI path from that text: parse, encode (automata only),
normalize, decide.

Both pools are fixed; ``--seed`` picks which pool members one run solves
(see ``slice_for``).  ``expected.json`` records, per pool member, a digest of
its text, its reference verdict and its cost at the commit that defined the
benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from bsrsat.corpus import _raw_bd, _raw_slr, timed_instances
from bsrsat.decide import decide
from bsrsat.normalize import normalize
from bsrsat.parser import (parse_clause_set, parse_goal, parse_ta,
                           print_clause_set, print_ta)
from bsrsat.timed import default_lambda, encode_reachability

EXPECTED = Path(__file__).resolve().parent / "expected.json"

TA_POOL = {"seed": 0, "count": 120}
BSR_POOL = {"seed": 1706, "count": 1200}

# How one run's slice is cut from a pool, per workload: the eligible members
# ranked by reference cost, grouped into strata of consecutive ranks, one
# member per stratum picked by the seed.  Stratifying by cost keeps the
# amount of work, and so wall time and percentiles, about the same for every
# seed while the instances differ.  The strata leave out the expensive end of
# each pool so that a pass fits the run time several times and a run's
# figures are medians over passes.
# ta-reachable has three instances per pass, so its median verdict time is
# that of the middle stratum.  That stratum is one automaton, and ranks 3-4
# are skipped so that it costs over twice the cheap stratum and about three
# quarters of the dear one: neighbours closer in cost than the machine's speed noise
# trade places from pass to pass and move the median.  Its strata stay below
# make_expected.REFINE_MS, where reference costs are medians of sequential
# repeats; above it they are single shots taken two at a time, and two
# automata of equal reference cost can differ by 30 %.
# The last stratum of bsr-random holds the two members that need the most
# memory in the window (about 54 MB each, twice any other), so that peak
# memory, a maximum, has the same maximizer in every slice.
SLICES = {
    "ta-reachable": [range(0, 3), range(5, 6), range(6, 8)],
    "bsr-random": [range(a, a + 5) for a in range(0, 1175, 5)]
    + [range(1175, 1177), range(1177, 1179)],
}


@dataclass(frozen=True)
class Instance:
    """One input as a user would supply it: text in, verdict out."""

    id: str
    kind: str  # "ta", "bd" or "slr"
    text: str
    goal: str = ""

    @property
    def digest(self) -> str:
        h = hashlib.sha256(self.text.encode())
        h.update(b"\0" + self.goal.encode())
        return h.hexdigest()[:16]


def ta_pool() -> list[tuple[Instance, object, object]]:
    """The timed pool as (instance, automaton, query); the objects feed the
    region-graph oracle, the instance text feeds the solver."""
    out = []
    for i, (aut, goal) in enumerate(timed_instances(TA_POOL["seed"], TA_POOL["count"])):
        out.append((Instance(f"ta:{i}", "ta", print_ta(aut), str(goal)), aut, goal))
    return out


def bsr_pool() -> list[Instance]:
    """Unfiltered random draws, bd and slr interleaved."""
    rng = random.Random(BSR_POOL["seed"])
    out = []
    for i in range(BSR_POOL["count"]):
        kind, raw = ("bd", _raw_bd) if i % 2 == 0 else ("slr", _raw_slr)
        out.append(Instance(f"bsr:{i}", kind, print_clause_set(raw(rng))))
    return out


def _no_span(name: str):
    return contextlib.nullcontext()


def clause_set_of(inst: Instance, span=_no_span):
    """Parse (and for automata encode) then normalize, as the CLI does."""
    if inst.kind == "ta":
        with span("parser.parse"):
            aut = parse_ta(inst.text)
            query = parse_goal(inst.goal, aut)
        with span("timed.encode"):
            cs = encode_reachability(aut, query, default_lambda(aut, query))
    else:
        with span("parser.parse"):
            cs = parse_clause_set(inst.text)
    with span("normalize.normalize"):
        return normalize(cs)


def solve(inst: Instance, span=_no_span):
    """The full user path for one instance; returns decide's report."""
    n = clause_set_of(inst, span)
    with span("decide.decide"):
        return decide(n)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def slice_for(workload: str, seed: int, expected: dict) -> list[str]:
    """Pool ids one run solves, cheapest first; deterministic in the seed."""
    if workload == "bsr-random":
        rows = expected["bsr"]["instances"]
    else:
        rows = [r for r in expected["ta"]["instances"] if r["reachable"]]
    ranked = [r["id"] for r in sorted(rows, key=lambda r: (r["ref_ms"], r["id"]))]
    rng = random.Random(seed)
    return [ranked[rng.choice(stratum)] for stratum in SLICES[workload]]

