"""Polynomial special-case solvers: series-parallel DPs and closed forms."""

import ast
import itertools
import os
import random
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path

import pytest

import oracles
import spmve
from helpers import (ReferenceMinCostTable, make_graph, make_instance,
                     weighted_series_parallel)
from spmve import (
    INF,
    DeadlineExceeded,
    Instance,
    PreconditionError,
    brute_force,
    build_sp_tree,
    diameter,
    diameter_at_most_two,
    kernelize,
    min_st_cut_size,
    solve_complete_unit,
    solve_diameter2,
    sp_max_length,
    sp_min_cost,
    st_distance,
)
from spmve.poly import _table

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
        lengths = _leaf_lengths(g)
        run = [sp_min_cost(tree, lengths, ell)[0] for ell in range(1, 8)]
        assert run[0] == 0
        assert all(a <= b for a, b in zip(run, run[1:]))
        assert run[-1] <= min_st_cut_size(g, s, t)


@pytest.mark.parametrize("max_length, count, max_m",
                         [(3, 150, 14), (1000, 8, 6)])
def test_min_cost_matches_target_table_reference(max_length, count, max_m):
    # the budget table, read at the smallest budget that reaches each target,
    # must cost what the table over targets costs, with a witness of that
    # size that reaches the target, and a decision budget below that cost
    # must find none; the root's last step is the terminal cut, and budgets
    # past the cut buy nothing more
    for g in weighted_series_parallel(max_length, count, max_m, max_length):
        tree = build_sp_tree(g, 0, 1)
        lengths = _leaf_lengths(g)
        starts, dists = _table(tree, lengths, INF, INF, None)[1][-1]
        cut = starts[-1]
        assert cut == min_st_cut_size(g, 0, 1), g.edges
        assert dists[-1] == INF
        top = max(v for v in dists if v < INF) + 1
        ref = ReferenceMinCostTable(tree, lengths, top)
        for ell in range(1, top + 1):
            # arrays up to ell do not depend on the table's own target, so
            # one reference table serves every smaller target
            ref.ell = ell
            cost, sol = sp_min_cost(tree, lengths, ell)
            assert cost == ref.root_cost, (g.edges, g.lengths, ell)
            assert sol.cardinality == len(ref.witness()) == cost
            assert st_distance(g, 0, 1, sol.deleted_edges) >= ell
            for budget in {0, max(cost - 1, 0), cost, cut}:
                capped, sol = sp_min_cost(tree, lengths, ell, budget=budget)
                if cost <= budget:
                    assert capped == sol.cardinality == cost
                    assert st_distance(g, 0, 1, sol.deleted_edges) >= ell
                else:
                    assert capped == INF and sol is None
        for k in range(cut + 2):
            reach, sol = sp_max_length(tree, lengths, k)
            assert sol.cardinality <= min(k, cut)
            ref.ell = min(reach, top)
            assert ref.root_cost <= k, (g.edges, g.lengths, k)
            if reach < INF:
                ref.ell = reach + 1
                assert ref.root_cost > k, (g.edges, g.lengths, k)


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

    # three routes of length 3: two deletions leave a route of length 3, the
    # plain distance, so the minimum witness deletes nothing
    fan = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                     [3, 1, 1, 2, 2])
    value, sol = sp_max_length(build_sp_tree(fan, 0, 1), _leaf_lengths(fan), 2)
    assert value == 3 and sol.deleted_edges == frozenset()


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
        caps, steps = _table(tree, _leaf_lengths(g), 4, INF, None)
        for node, (cap, (starts, dists)) in enumerate(zip(caps, steps)):
            # budgets past a node's cap read as the table's top
            run = [dists[bisect_right(starts, j) - 1] if j <= cap else INF
                   for j in range(5)]
            if node < len(tree.pairs):
                assert run[0] == g.length(*tree.pairs[node])
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


def test_budgets_past_the_table_are_refused():
    # a table built for budget k knows nothing of larger budgets: three
    # 2-edge routes have L[2] = 2, not the Infinite past a budget-1 array
    routes = make_graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    tree = build_sp_tree(routes, 0, 1)
    assert sp_max_length(tree, _leaf_lengths(routes), 2)[0] == 2


def _route_bundle(n):
    """n parallel 2-edge routes 0 - v - 1, every edge of length 1."""
    edges = [(0, v) for v in range(2, n + 2)] + [(1, v)
                                                 for v in range(2, n + 2)]
    return make_graph(n + 2, edges)


def test_wide_cuts_cost_no_more_than_the_target():
    # the bundle's cut is n, but its distance only takes the values 2 and
    # Infinite: capped at a small target, every node keeps at most two
    # steps, so the table stays linear in n and answers well inside the
    # deadline, where one entry per budget up to the cut would cost n^2
    n = 3000
    g = _route_bundle(n)
    tree = build_sp_tree(g, 0, 1)
    lengths = _leaf_lengths(g)
    assert _table(tree, lengths, INF, 3, None)[1][-1] == ([0, n], [2, 3])
    for ell in (2, 3, 4):
        cost, sol = sp_min_cost(tree, lengths, ell,
                                deadline=time.monotonic() + 5.0)
        assert cost == (0 if ell == 2 else n) == sol.cardinality
        cost, _ = sp_min_cost(tree, lengths, ell, budget=2,
                              deadline=time.monotonic() + 5.0)
        assert cost == (0 if ell == 2 else INF)
    assert sp_max_length(tree, lengths, 2,
                         deadline=time.monotonic() + 5.0)[0] == 2


def test_huge_targets_and_budgets_answer_at_once():
    # steps stop at each node's cut, so neither target nor budget sizes them
    diamond = make_graph(4, DIAMOND)
    tree = build_sp_tree(diamond, 0, 3)
    lengths = _leaf_lengths(diamond)
    cost, sol = sp_min_cost(tree, lengths, 10**12)
    assert cost == 2 and sol.achieved_distance == INF
    value, sol = sp_max_length(tree, lengths, 10**12)
    assert value == INF and sol.cardinality == 2


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


def test_auto_decides_diameter_two_without_a_full_diameter(monkeypatch):
    # the Petersen graph: diameter two, neither complete nor series-parallel
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
             + [(i, i + 5) for i in range(5)])
    g = make_graph(10, edges)
    calls = []

    def counting(graph, **kw):
        calls.append(graph)
        return diameter(graph, **kw)

    for module in (spmve.graph, spmve.pipeline, spmve.poly):
        monkeypatch.setattr(module, "diameter", counting, raising=False)
    engine, answer, sol, _ = spmve.solve(Instance(g, 0, 7, 3, 5))
    assert (engine, answer, sol.cardinality) == ("diam2", "yes", 3)
    assert calls == []


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
    # K5 gives neither recognition nor the kernel anything to reduce
    k5 = make_graph(5, itertools.combinations(range(5), 2))
    past = time.monotonic() - 1.0
    phases = (lambda: diameter(g, deadline=past),
              lambda: diameter_at_most_two(g, deadline=past),
              lambda: build_sp_tree(g, 0, 3, deadline=past),
              lambda: build_sp_tree(k5, 0, 4, deadline=past),
              lambda: kernelize(Instance(g, 0, 3, 1, 3), deadline=past),
              lambda: kernelize(Instance(k5, 0, 4, 1, 3), deadline=past),
              lambda: sp_min_cost(tree, _leaf_lengths(g), 3, deadline=past),
              lambda: sp_max_length(tree, _leaf_lengths(g), 1,
                                    deadline=past))
    for phase in phases:
        with pytest.raises(DeadlineExceeded):
            phase()
    answer = spmve.solve(Instance(k5, 0, 4, 4), "maxlength", "auto",
                         deadline=past)[1]
    assert answer == "unknown"


def test_expired_deadline_stops_the_tables_on_one_edge():
    # a single s-t edge has no internal node, yet the tables still see the
    # deadline before their first leaf
    g = make_graph(2, [(0, 1)], [4])
    tree = build_sp_tree(g, 0, 1)
    past = time.monotonic() - 1.0
    for call in (lambda: sp_min_cost(tree, _leaf_lengths(g), 3,
                                     deadline=past),
                 lambda: sp_max_length(tree, _leaf_lengths(g), 1,
                                       deadline=past)):
        with pytest.raises(DeadlineExceeded):
            call()


# ------------------------------------------------------------ result guards

GUARD_SCRIPT = """
from dataclasses import replace

from spmve import (INF, Graph, Instance, approx, build_sp_tree,
                   evaluate_solution, exact, greedy_ell_approx, kernelize,
                   lift_solution, min_st_cut, normalize_twins, poly,
                   sp_max_length, sp_min_cost, twin_classes)
from spmve.graph import Solution

g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1, 1, 1, 1])
tree = build_sp_tree(g, 0, 3)
lengths = {pair: 1 for pair in g.edges}
table = poly._table


def leafless(*args):
    # leaves capped at budget 0 drop out of every witness
    caps, steps = table(*args)
    caps[:len(tree.pairs)] = [0] * len(tree.pairs)
    return caps, steps


poly._table = leafless
# every kernel edge claims the same original edge, so lifting two of them
# yields one deletion
trace = kernelize(Instance(g, 0, 3, 2, 3))
trace = replace(trace, edge_constituents=(((0, 1),),) * trace.kernel.graph.m)
pair = frozenset(trace.kernel.graph.edges[:2])
# the twins 1 and 2 lose different edges, so normalization re-evaluates
(twins,) = twin_classes(g, (0, 3))
mixed = evaluate_solution(g, 0, 3, [(0, 1), (2, 3)])
# an edge listed but missing from the adjacency crosses the cut unflowed
phantom = Graph(4, [(0, 1), (1, 3)])
phantom.edges += ((0, 3),)
approx.evaluate_solution = lambda *args: Solution(frozenset(), 0)
exact.evaluate_solution = lambda *args: Solution(frozenset(g.edges), INF)
caught = 0
for call in (lambda: sp_min_cost(tree, lengths, 3),
             lambda: sp_max_length(tree, lengths, 2),
             lambda: lift_solution(trace, Solution(pair, 0)),
             lambda: greedy_ell_approx(g, 0, 3, 3),
             lambda: normalize_twins(g, 0, 3, twins, mixed),
             lambda: min_st_cut(phantom, 0, 3)):
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
    assert run.stdout.split() == ["6"]


def test_witness_distance_must_match_the_table(monkeypatch):
    # a witness of the right size whose recomputed distance disagrees with
    # the root's (capped) distance is refused by both programs
    diamond = make_graph(4, DIAMOND)
    tree = build_sp_tree(diamond, 0, 3)
    lengths = _leaf_lengths(diamond)
    monkeypatch.setattr(spmve.poly, "_tree_distance", lambda *args: 1)
    for call in (lambda: sp_min_cost(tree, lengths, 3),
                 lambda: sp_max_length(tree, lengths, 1)):
        with pytest.raises(AssertionError, match="misses its distance"):
            call()


def test_library_has_no_assert_statements():
    """The result guards raise AssertionError themselves, because an assert
    statement vanishes under ``python -O``."""
    package = Path(spmve.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
