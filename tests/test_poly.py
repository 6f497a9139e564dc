"""Polynomial special-case solvers: series-parallel DPs and closed forms."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import spmve
from helpers import make_graph, make_instance
from spmve import (
    INF,
    DeadlineExceeded,
    Instance,
    MaxLengthTable,
    MinCostTable,
    PreconditionError,
    brute_force,
    build_sp_tree,
    diameter,
    kernelize,
    min_st_cut_size,
    solve_complete_unit,
    solve_diameter2,
    sp_max_length,
    sp_min_cost,
    st_distance,
)

DIAMOND = [(0, 1), (1, 3), (0, 2), (2, 3)]


def _leaf_lengths(graph):
    return {pair: graph.length(*pair) for pair in graph.edges}


def _sp_cases(connected_atlas6, weighted_corpus, max_m=12):
    """Two-terminal series-parallel test instances, unit and weighted."""
    cases = []
    for n in (2, 3, 4, 5, 6):
        for edges in connected_atlas6[n]:
            if len(edges) > max_m:
                continue
            g = make_graph(n, list(edges))
            tree = build_sp_tree(g, 0, n - 1)
            if tree is not None:
                cases.append((g, 0, n - 1, tree))
    for n, edges, lengths, s, t in weighted_corpus:
        g = make_graph(n, edges, lengths)
        tree = build_sp_tree(g, s, t)
        if tree is not None:
            cases.append((g, s, t, tree))
        if len(cases) >= 260:
            break
    return cases


# ------------------------------------------------------------- min-cost DP

def test_min_cost_dp_examples():
    lone = make_graph(2, [(0, 1)])
    cost, sol = sp_min_cost(build_sp_tree(lone, 0, 1), _leaf_lengths(lone), 2)
    assert cost == 1
    assert sol.deleted_edges == frozenset({(0, 1)})

    diamond = make_graph(4, DIAMOND)
    cost, sol = sp_min_cost(build_sp_tree(diamond, 0, 3),
                            _leaf_lengths(diamond), 3)
    assert cost == 2
    assert st_distance(diamond, 0, 3, sol.deleted_edges) >= 3

    chain = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    cost, sol = sp_min_cost(build_sp_tree(chain, 0, 3), _leaf_lengths(chain), 3)
    assert cost == 0
    assert sol.deleted_edges == frozenset()


def test_min_cost_dp_matches_exhaustive_search(connected_atlas6,
                                               weighted_corpus):
    for g, s, t, tree in _sp_cases(connected_atlas6, weighted_corpus):
        lengths = _leaf_lengths(g)
        for ell in (1, 2, 3, 5, 8):
            cost, sol = sp_min_cost(tree, lengths, ell)
            want = oracles.oracle_min_cost(
                g.n, list(g.edges), list(g.lengths), s, t, ell, g.m + 1)
            assert cost == want, (g.edges, ell)
            assert sol.cardinality == cost
            assert st_distance(g, s, t, sol.deleted_edges) >= ell


def test_min_cost_table_shape(connected_atlas6, weighted_corpus):
    for g, s, t, tree in _sp_cases(connected_atlas6, weighted_corpus)[:60]:
        table = MinCostTable(tree, _leaf_lengths(g), 6)
        for node in tree.postorder():
            run = [table.cost(node, x) for x in range(7)]
            assert run[0] == 0
            assert all(a <= b for a, b in zip(run, run[1:]))
        assert table.root_cost <= min_st_cut_size(g, s, t)


# ----------------------------------------------------------- max-length DP

def test_max_length_dp_examples():
    lone = make_graph(2, [(0, 1)], [3])
    value, sol = sp_max_length(build_sp_tree(lone, 0, 1),
                               _leaf_lengths(lone), 0)
    assert value == 3 and sol.deleted_edges == frozenset()

    diamond = make_graph(4, DIAMOND)
    tree = build_sp_tree(diamond, 0, 3)
    value, _sol = sp_max_length(tree, _leaf_lengths(diamond), 1)
    assert value == 2
    value, sol = sp_max_length(tree, _leaf_lengths(diamond), 2)
    assert value == INF
    assert st_distance(diamond, 0, 3, sol.deleted_edges) == INF


def test_max_length_dp_matches_exhaustive_search(connected_atlas6,
                                                 weighted_corpus):
    for g, s, t, tree in _sp_cases(connected_atlas6, weighted_corpus):
        if g.m > 10:
            continue
        lengths = _leaf_lengths(g)
        table = oracles.max_dist_table(g.n, list(g.edges), list(g.lengths),
                                       s, t, 4)
        for k in range(5):
            value, sol = sp_max_length(tree, lengths, k)
            assert value == table[k], (g.edges, k)
            assert sol.cardinality <= k
            assert st_distance(g, s, t, sol.deleted_edges) == value


def test_max_length_table_is_monotone(connected_atlas6, weighted_corpus):
    for g, _s, _t, tree in _sp_cases(connected_atlas6, weighted_corpus)[:60]:
        table = MaxLengthTable(tree, _leaf_lengths(g), 4)
        for node in tree.postorder():
            run = [table.value(node, j) for j in range(5)]
            if node.is_leaf:
                assert run[0] == g.length(*node.label)
                assert run[1:] == [INF] * 4
            assert all(a <= b for a, b in zip(run, run[1:]))


def test_dp_duality(connected_atlas6, weighted_corpus):
    # reaching distance ell within budget k is one question asked two ways
    for g, _s, _t, tree in _sp_cases(connected_atlas6, weighted_corpus)[:120]:
        lengths = _leaf_lengths(g)
        for k in range(4):
            reach, _ = sp_max_length(tree, lengths, k)
            for ell in (1, 2, 3, 4, 6):
                cost, _ = sp_min_cost(tree, lengths, ell)
                assert (reach >= ell) == (cost <= k), (g.edges, k, ell)


# ------------------------------------------------------------- diameter two

def test_diameter_two_examples():
    k4 = make_graph(4, list(itertools.combinations(range(4), 2)))
    assert solve_diameter2(Instance(k4, 0, 3, 3, 5)) is not None
    assert solve_diameter2(Instance(k4, 0, 3, 2, 5)) is None
    sol = solve_diameter2(Instance(k4, 0, 3, 1, 2))
    assert sol is not None and sol.achieved_distance >= 2
    assert solve_diameter2(Instance(k4, 0, 3, 0, 1)) is not None


def test_diameter_two_rejects_wide_graphs():
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError):
        solve_diameter2(Instance(p4, 0, 3, 1, 3))
    weighted = make_graph(3, [(0, 1), (1, 2), (0, 2)], [2, 1, 1])
    with pytest.raises(PreconditionError):
        solve_diameter2(Instance(weighted, 0, 2, 1, 3))


def test_diameter_two_matches_brute(diam2_atlas7):
    rng = random.Random(616)
    sample = rng.sample(list(diam2_atlas7), 40)
    for edges in sample:
        n = 1 + max(v for e in edges for v in e)
        g = make_graph(n, list(edges))
        pairs = [(0, n - 1), (1, n - 2) if n > 3 else (0, 1)]
        for s, t in pairs:
            if s == t:
                continue
            cut = min_st_cut_size(g, s, t)
            for k in range(cut):
                for ell in range(1, n + 1):
                    inst = Instance(g, s, t, k, ell)
                    a = brute_force(inst)
                    b = solve_diameter2(inst)
                    assert (a is None) == (b is None), (edges, s, t, k, ell)
                    if b is not None:
                        assert b.cardinality <= k
                        assert st_distance(g, s, t, b.deleted_edges) >= ell


# ----------------------------------------------------------- complete unit

def test_complete_unit_examples():
    k5 = make_graph(5, list(itertools.combinations(range(5), 2)))
    assert solve_complete_unit(Instance(k5, 0, 4, 3, 3)) is None
    sol = solve_complete_unit(Instance(k5, 0, 4, 4, 3))
    assert sol is not None and sol.achieved_distance >= 3
    sol = solve_complete_unit(Instance(k5, 0, 4, 1, 2))
    assert sol is not None and sol.deleted_edges == frozenset({(0, 4)})
    assert solve_complete_unit(Instance(k5, 0, 4, 0, 1)) is not None


def test_complete_unit_rejects_other_graphs():
    nearly = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(PreconditionError):
        solve_complete_unit(Instance(nearly, 0, 3, 1, 2))
    weighted = make_graph(3, [(0, 1), (1, 2), (0, 2)], [1, 2, 1])
    with pytest.raises(PreconditionError):
        solve_complete_unit(Instance(weighted, 0, 2, 1, 2))


def test_complete_unit_matches_brute():
    for n in range(2, 8):
        g = make_graph(n, list(itertools.combinations(range(n), 2)))
        cut = min_st_cut_size(g, 0, n - 1)
        for k in range(cut):
            for ell in range(1, n + 1):
                inst = Instance(g, 0, n - 1, k, ell)
                a = brute_force(inst)
                b = solve_complete_unit(inst)
                assert (a is None) == (b is None), (n, k, ell)
                if b is not None:
                    assert b.cardinality <= k
                    assert st_distance(g, 0, n - 1, b.deleted_edges) >= ell


# ---------------------------------------------------------------- deadlines

def test_expired_deadline_stops_every_phase():
    g = make_graph(4, DIAMOND)
    tree = build_sp_tree(g, 0, 3)
    past = time.monotonic() - 1.0
    phases = (lambda: diameter(g, deadline=past),
              lambda: build_sp_tree(g, 0, 3, deadline=past),
              lambda: kernelize(Instance(g, 0, 3, 1, 3), deadline=past),
              lambda: sp_min_cost(tree, _leaf_lengths(g), 3, deadline=past),
              lambda: sp_max_length(tree, _leaf_lengths(g), 1,
                                    deadline=past))
    for phase in phases:
        with pytest.raises(DeadlineExceeded):
            phase()


# ------------------------------------------------------------ result guards

GUARD_SCRIPT = """
from dataclasses import replace

from spmve import (INF, Graph, Instance, MaxLengthTable, MinCostTable,
                   approx, build_sp_tree, evaluate_solution, exact,
                   greedy_ell_approx, kernelize, lift_solution,
                   normalize_twins, sp_max_length, sp_min_cost, twin_classes)
from spmve.graph import Solution

g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1, 1, 1, 1])
tree = build_sp_tree(g, 0, 3)
lengths = {pair: 1 for pair in g.edges}
MinCostTable.witness = lambda self: frozenset()
MaxLengthTable.witness = lambda self: frozenset()
# every kernel edge claims the same original edge, so lifting two of them
# yields one deletion
trace = kernelize(Instance(g, 0, 3, 2, 3))
trace = replace(trace, edge_constituents=(((0, 1),),) * trace.kernel.graph.m)
pair = frozenset(trace.kernel.graph.edges[:2])
# the twins 1 and 2 lose different edges, so normalization re-evaluates
(twins,) = twin_classes(g, (0, 3))
mixed = evaluate_solution(g, 0, 3, [(0, 1), (2, 3)])
approx.evaluate_solution = lambda *args: Solution(frozenset(), 0)
exact.evaluate_solution = lambda *args: Solution(frozenset(g.edges), INF)
caught = 0
for call in (lambda: sp_min_cost(tree, lengths, 3),
             lambda: sp_max_length(tree, lengths, 2),
             lambda: lift_solution(trace, Solution(pair, 0)),
             lambda: greedy_ell_approx(g, 0, 3, 3),
             lambda: normalize_twins(g, 0, 3, twins, mixed)):
    try:
        call()
    except AssertionError:
        caught += 1
print(caught)
"""


def test_result_guards_survive_optimized_mode():
    """Corrupted witnesses are refused even under ``python -O``, which
    strips assert statements."""
    src = str(Path(spmve.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", GUARD_SCRIPT], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["5"]
