"""The walk's charges (``search.preorder``) and every budgeted walk against
the bodies that spent their own budget (``tests/oracles.py``), at every
budget from 0 to one past the full spend."""

import random

import pytest

from sumcore import (
    DenseSet,
    build_model,
    cyclic_table,
    find_square_witness,
    find_triangular_witness,
    max_ladder,
)
from sumcore import witness
from sumcore.search import Budget, preorder
from sumcore.witness import _anchor_square_exists, _anchor_triangular_exists

from . import oracles


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


def zn(n):
    return build_model({"kind": "cayley", "table": [list(r) for r in cyclic_table(n)]})


def walk(tree, budget=None, stop=None):
    """The nodes ``preorder`` yields over ``tree``, a dict from each node
    (a tuple) to what its ``children`` yields, and the nodes it expanded."""
    expanded = []

    def children(node):
        expanded.append(node)
        yield from tree.get(node, ())

    seen = []
    for node in preorder(("r",), children, budget):
        seen.append(node)
        if node == stop:
            break
    return seen, expanded


class TestCharges:
    TREE = {("r",): [None, ("a",), 3, ("b",)], ("a",): [2], ("b",): [None, ("c",)]}

    def test_none_costs_one_an_int_n_and_a_child_nothing(self):
        bud = Budget(None)
        seen, _ = walk(self.TREE, bud)
        assert seen == [("r",), ("a",), ("b",), ("c",)]
        assert (bud.spent, bud.exhausted) == (7, False)
        bud = Budget(7)
        assert walk(self.TREE, bud)[0] == seen
        assert (bud.spent, bud.left, bud.exhausted) == (7, 0, False)

    @pytest.mark.parametrize("limit, nodes, spent", [
        (0, 1, 0), (1, 2, 1), (2, 2, 1), (3, 2, 3), (5, 2, 3), (6, 3, 6), (7, 4, 7)])
    def test_first_refused_charge_ends_the_walk(self, limit, nodes, spent):
        # at limit 2 a's charge of 2 is refused with 1 left; at limit 5 the
        # 3 before b is refused with 2 left, where b's own 1 would fit
        bud = Budget(limit)
        seen, _ = walk(self.TREE, bud)
        assert seen == [("r",), ("a",), ("b",), ("c",)][:nodes]
        assert (bud.spent, bud.exhausted) == (spent, limit < 7)

    def test_smaller_later_charge_is_not_tried(self):
        bud = Budget(4)
        seen, _ = walk({("r",): [5, ("a",), 1, ("b",)]}, bud)
        assert seen == [("r",)]
        assert (bud.spent, bud.left, bud.exhausted) == (0, 4, True)

    def test_stopping_consumer_never_runs_children(self):
        assert walk(self.TREE, Budget(None), stop=("r",)) == ([("r",)], [])
        seen, expanded = walk(self.TREE, Budget(None), stop=("a",))
        assert (seen, expanded) == ([("r",), ("a",)], [("r",)])

    def test_without_budget_charges_are_skipped(self):
        tree = {("r",): [10 ** 30, ("a",), None, ("b",)], ("a",): [None]}
        assert walk(tree)[0] == [("r",), ("a",), ("b",)]


# --- the walks against their self-spending bodies --------------------------------


def seeded_sets(model, count, density, seed):
    rng = random.Random(seed)
    n = model.carrier_size
    return [DenseSet.from_members(model, [x for x in range(n) if rng.random() < density])
            for _ in range(count)]


def sweep(run):
    """run(budget) at every budget from 0 to one past run(None)'s spend;
    run returns (outcome, spent)."""
    _, full = run(None)
    return [(budget, run(budget)) for budget in range(full + 2)]


def spent_by(call, made):
    """call()'s outcome and the (spent, exhausted) of each Budget it made."""
    made.clear()
    out = call()
    return out, [(b.spent, b.exhausted) for b in made]


@pytest.fixture
def budgets(monkeypatch):
    """The Budgets the searches and their oracles make, in order."""
    made = []

    class Recorded(Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    for module in (witness, oracles):
        monkeypatch.setattr(module, "Budget", Recorded)
    return made


# exhausted trees (k below k_max), and one that stops at k_max
LADDER_CASES = [(zw(12, 6), s, 6) for s in seeded_sets(zw(12, 6), 3, 0.5, 8)] \
    + [(zw(40, 20), s, 4) for s in seeded_sets(zw(40, 20), 1, 0.5, 1)] \
    + [(zn(6), s, 8) for s in seeded_sets(zn(6), 1, 0.5, 3)] \
    + [(m, s, 8) for m in [oracles.random_latin_square(6, random.Random(3))]
       for s in seeded_sets(m, 1, 0.5, 3)]


@pytest.mark.parametrize("model, A, k_max", LADDER_CASES)
def test_ladder_matches_self_spending_walk(model, A, k_max):
    for budget in range(max_ladder(A, model, k_max).nodes + 2):
        assert max_ladder(A, model, k_max, budget) == \
            oracles.self_spending_max_ladder(A, model, k_max, budget), budget


def anchor_run(exists, A, k):
    def run(budget):
        bud = Budget(budget)
        return (exists(A, k, bud), bud.exhausted), bud.spent
    return run


ANCHOR_SETS = seeded_sets(zw(96, 48), 4, 0.15, 4)


# the third set at m = 5 takes 338 nodes, too many to sweep in a second
@pytest.mark.parametrize("A, m", [(A, m) for i, A in enumerate(ANCHOR_SETS) for m in (4, 5)
                                  if (i, m) != (2, 5)])
def test_anchor_triangular_matches_self_spending_walk(A, m):
    new = anchor_run(_anchor_triangular_exists, A, m)
    old = anchor_run(oracles.self_spending_anchor_triangular_exists, A, m)
    assert sweep(new) == sweep(old)


@pytest.mark.parametrize("A, k", [(A, k) for A in ANCHOR_SETS for k in (2, 3)])
def test_anchor_square_stops_at_first_refusal(A, k):
    """The self-spending walk went on after a refused bulk charge: where it
    ended exhausted, the walk answers None having spent no more."""
    new = anchor_run(_anchor_square_exists, A, k)
    old = anchor_run(oracles.self_spending_anchor_square_exists, A, k)
    for (budget, ((got, got_out), got_spent)), (_, ((want, want_out), want_spent)) \
            in zip(sweep(new), sweep(old)):
        if want_out:
            assert (got, got_out) == (None, True) and got_spent <= want_spent, budget
        else:
            assert (got, got_out, got_spent) == (want, False, want_spent), budget


def test_anchor_square_refused_bulk_charge():
    # the self-spending walk answers True at budgets 8-46 with its budget
    # exhausted, and None at 47-52
    m = zw(256, 128)
    A = DenseSet.from_members(m, [9, 24, 34, 55, 66, 77, 93, 98, 101, 107, 109, 111, 113,
                                  126, 129, 146, 147, 160, 172, 182, 186, 199, 201, 205,
                                  213, 218, 224, 235, 239, 244])
    for budget in range(53):
        assert _anchor_square_exists(A, 3, Budget(budget)) is None
    bud = Budget(53)
    assert _anchor_square_exists(A, 3, bud) is True
    assert (bud.spent, bud.exhausted) == (53, False)
    assert oracles.self_spending_anchor_square_exists(A, 3, Budget(8)) is True


def latin(n, seed):
    """Two seeded sets on a seeded Latin square of order n that is not a
    group, where the searches keep every root as the full-root oracles do."""
    model = oracles.random_latin_square(n, random.Random(seed))
    assert not model.is_group
    return [(model, s) for s in seeded_sets(model, 2, 0.6, seed)]


WINDOWS = [(zw(24, 12), s) for s in seeded_sets(zw(24, 12), 2, 0.55, 5)]


@pytest.mark.parametrize("search, oracle, model, A, k", [
    (find_square_witness, oracles.full_root_square_witness, *case, k)
    for cases, k in ((WINDOWS, 4), (latin(7, 6), 3), (latin(9, 7), 4)) for case in cases
] + [
    (find_triangular_witness, oracles.full_root_triangular_witness, *case, m)
    for cases, m in ((WINDOWS, 6), (latin(7, 6), 5), (latin(9, 7), 6)) for case in cases
])
def test_dfs_matches_self_spending_walk(monkeypatch, budgets, search, oracle, model, A, k):
    # the anchor walks are compared above; here the search runs alone
    monkeypatch.setattr(witness, "_ANCHOR_LIMIT", -1)

    def run(impl):
        def go(budget):
            out, spent = spent_by(lambda: impl(A, model, k, budget=budget), budgets)
            return (out, spent), spent[0][0]
        return go

    assert sweep(run(search)) == sweep(run(oracle))
