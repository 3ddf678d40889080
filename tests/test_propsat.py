"""DPLL propositional core."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bsrsat.propsat import PropInstance, check_assignment, solve
from bsrsat.report import SolveStats


def brute_force(inst):
    """The least model in the solver's search order (variable 1 first,
    False before True), or None."""
    for bits in itertools.product([False, True], repeat=inst.n_vars):
        model = {i + 1: b for i, b in enumerate(bits)}
        if check_assignment(inst.clauses, model):
            return model
    return None


def test_empty_instance_is_sat():
    m = solve(PropInstance(0, []))
    assert m == {}


def test_unit_propagation():
    inst = PropInstance(2, [(1,), (-1, 2)])
    m = solve(inst)
    assert m == {1: True, 2: True}


def test_empty_clause_is_unsat():
    assert solve(PropInstance(1, [(1,), ()])) is None


def test_tautological_clause_is_dropped():
    inst = PropInstance(1, [(1, -1), (-1,)])
    assert solve(inst) == {1: False}


def test_duplicate_literals_deduped():
    inst = PropInstance(1, [(1, 1, 1)])
    assert solve(inst) == {1: True}


def test_contradictory_units():
    assert solve(PropInstance(1, [(1,), (-1,)])) is None


def test_pigeonhole_three_into_two_unsat():
    # var p_{i,j}: pigeon i in hole j (i in 0..2, j in 0..1)
    def v(i, j):
        return i * 2 + j + 1

    inst = PropInstance(6)
    for i in range(3):
        inst.add(tuple(v(i, j) for j in range(2)))
    for j in range(2):
        for i1, i2 in itertools.combinations(range(3), 2):
            inst.add((-v(i1, j), -v(i2, j)))
    stats = SolveStats()
    assert solve(inst, stats) is None
    # 1=F and 1=T each propagate to a conflict: one branching variable
    assert stats.decisions == 1


def test_solution_is_total_assignment():
    inst = PropInstance(4, [(1, 2)])
    m = solve(inst)
    assert set(m) == {1, 2, 3, 4}
    assert check_assignment(inst.clauses, m)


def test_decision_counter_counts_branches():
    stats = SolveStats()
    solve(PropInstance(3, [(1, 2), (2, 3)]), stats)
    # 1=F forces 2=T; 3 is then a free branch
    assert stats.decisions == 2
    forced = SolveStats()
    solve(PropInstance(2, [(1,), (2,)]), forced)
    assert forced.decisions == 0
    # decisions add up on the object a caller hands over
    solve(PropInstance(3, [(1, 2), (2, 3)]), stats)
    assert stats.decisions == 4


def test_search_order_is_deterministic():
    inst = PropInstance(3, [(1, 2, 3)])
    # lowest variable first, False before True: 1=F, 2=F forces nothing,
    # clause satisfied by 3=T after 1=F 2=F
    assert solve(inst) == solve(inst) == {1: False, 2: False, 3: True}


clause_st = st.lists(
    st.lists(
        st.integers(1, 5).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=0,
        max_size=4,
    ).map(tuple),
    min_size=0,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(clause_st)
def test_agrees_with_brute_force(clauses):
    inst = PropInstance(5, list(clauses))
    assert solve(inst) == brute_force(inst)


def test_random_3sat_round():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(3, 8)
        inst = PropInstance(n)
        for _ in range(rng.randint(1, 4 * n)):
            lits = tuple(
                rng.choice([1, -1]) * v
                for v in rng.sample(range(1, n + 1), k=min(3, n))
            )
            inst.add(lits)
        assert solve(inst) == brute_force(inst)
