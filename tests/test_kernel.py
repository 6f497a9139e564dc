"""Data reduction rules, size bounds, and solution lifting."""

import random
import tracemalloc

import pytest

import oracles
from helpers import (ContractDegreeTwo, DeleteDegreeOne, RescanningReducer,
                     apply_rule1, apply_rule2, as_tuple, differential_corpus,
                     long_chain_corpus, make_graph, make_instance,
                     rescanning_trace)
from spmve import (
    INF,
    InputError,
    Instance,
    evaluate_solution,
    feedback_edge_set,
    kernelize,
    lift_solution,
    search_tree,
    st_distance,
)


# ----------------------------------------------------------------- rule one

def test_rule1_strips_leaf_fringe_but_keeps_terminals():
    # star: center s, leaves t a b c -> only the s-t edge survives
    inst = make_instance(5, [(0, 1), (0, 2), (0, 3), (0, 4)], 0, 1)
    reduced, events = apply_rule1(inst)
    assert reduced.graph.n == 2
    assert reduced.graph.edges == ((0, 1),)
    assert {e.vertex for e in events} == {2, 3, 4}
    assert all(isinstance(e, DeleteDegreeOne) for e in events)


def test_rule1_removes_pendant_not_route():
    inst = make_instance(4, [(0, 1), (1, 2), (1, 3)], 0, 2)
    reduced, events = apply_rule1(inst)
    assert [e.vertex for e in events] == [3]
    assert reduced.graph.n == 3
    assert st_distance(reduced.graph, reduced.s, reduced.t) == 2


def test_rule1_fixpoint_is_identity():
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0, 2)
    reduced, events = apply_rule1(inst)
    assert events == ()
    n1, edges1, lens1 = as_tuple(reduced.graph)
    n2, edges2, lens2 = as_tuple(inst.graph)
    assert n1 == n2
    assert sorted(zip(edges1, lens1)) == sorted(zip(edges2, lens2))


def test_rule1_cascades_along_dangling_paths():
    # pendant path 2-3-4 dies leaf by leaf
    inst = make_instance(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 0, 1)
    reduced, events = apply_rule1(inst)
    assert [e.vertex for e in events] == [4, 3, 2]
    assert reduced.graph.n == 2


# ----------------------------------------------------------------- rule two

def test_rule2_contracts_chain_to_single_edge():
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3)
    reduced, events = apply_rule2(inst)
    assert reduced.graph.n == 2
    assert reduced.graph.edges == ((0, 1),)
    assert reduced.graph.lengths == (3,)
    assert all(isinstance(e, ContractDegreeTwo) for e in events)


def test_rule2_respects_existing_edge_guard():
    # triangle: the middle vertex's neighbors are already adjacent
    inst = make_instance(3, [(0, 1), (1, 2), (0, 2)], 0, 2)
    reduced, events = apply_rule2(inst)
    assert events == ()
    assert reduced.graph.m == 3


def test_rule2_on_opposite_cycle_vertices_stalls_at_three():
    # 6-cycle, terminals opposite: one side contracts fully, the other
    # stops one step short because the s-t edge now exists
    inst = make_instance(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
                         0, 3)
    reduced, _events = apply_rule2(inst)
    assert reduced.graph.n == 3
    assert sorted(reduced.graph.lengths) == [1, 2, 3]
    assert st_distance(reduced.graph, reduced.s, reduced.t) == 3
    assert st_distance(inst.graph, inst.s, inst.t) == 3


def test_rule2_sums_lengths():
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3, lengths=[2, 5, 4])
    reduced, _ = apply_rule2(inst)
    assert reduced.graph.lengths == (11,)


# ---------------------------------------------------------------- kernelize

def test_tree_kernels_to_one_edge_of_route_length():
    rng = random.Random(777)
    for _ in range(25):
        n = rng.randint(2, 10)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        lengths = [rng.randint(1, 5) for _ in edges]
        s, t = rng.sample(range(n), 2)
        inst = make_instance(n, edges, s, t, lengths=lengths)
        d = st_distance(inst.graph, inst.s, inst.t)
        trace = kernelize(inst)
        assert trace.kernel.graph.n == 2
        assert trace.kernel.graph.m == 1
        kern = trace.kernel
        assert st_distance(kern.graph, kern.s, kern.t) == d


def test_cycle_kernel_respects_one_loop_bound():
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0, 2)
    trace = kernelize(inst)
    assert trace.kernel.graph.n <= 7
    assert trace.kernel.graph.m <= 8
    kern = trace.kernel
    assert st_distance(kern.graph, kern.s, kern.t) == \
        st_distance(inst.graph, inst.s, inst.t)


def test_kernel_bounds_hold_for_random_connected_graphs(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:150]:
        inst = make_instance(n, edges, s, t, lengths=lengths)
        f = len(feedback_edge_set(inst.graph))
        trace = kernelize(inst)
        assert trace.kernel.graph.n <= 5 * f + 2
        assert trace.kernel.graph.m <= 6 * f + 2


def test_kernel_keeps_terminals_and_carries_budget_target():
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3, k=1, ell=4)
    trace = kernelize(inst)
    kern = trace.kernel
    assert (kern.k, kern.ell) == (1, 4)
    assert trace.kernel_vertices[kern.s] == 0
    assert trace.kernel_vertices[kern.t] == 3


def test_components_without_both_terminals_are_discarded():
    # triangle holding s,t plus a far triangle
    inst = make_instance(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                         0, 2)
    trace = kernelize(inst)
    assert trace.discarded_vertices == (3, 4, 5)
    assert trace.kernel.graph.n == 3


def test_terminals_in_different_components_leave_edgeless_pair():
    inst = make_instance(4, [(0, 1), (2, 3)], 0, 2)
    trace = kernelize(inst)
    assert trace.kernel.graph.n == 2
    assert trace.kernel.graph.m == 0
    kern = trace.kernel
    assert st_distance(kern.graph, kern.s, kern.t) == INF


def test_kernelize_is_idempotent(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:80]:
        first = kernelize(make_instance(n, edges, s, t, lengths=lengths))
        second = kernelize(first.kernel)
        # nothing left to discard, delete or contract: every vertex stays
        assert second.kernel_vertices == tuple(range(first.kernel.graph.n))
        assert second.kernel.graph == first.kernel.graph
        assert (second.kernel.s, second.kernel.t) == (first.kernel.s,
                                                      first.kernel.t)


def test_constituent_chains_sum_to_created_lengths(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:120]:
        inst = make_instance(n, edges, s, t, lengths=lengths)
        trace = kernelize(inst)
        g = inst.graph
        for eid, chain in enumerate(trace.edge_constituents):
            assert len(chain) >= 1
            assert all(g.has_edge(u, v) for u, v in chain)
            assert sum(g.length(u, v) for u, v in chain) == \
                trace.kernel.graph.lengths[eid]
            # chains are walks: consecutive constituents share a vertex
            for (a, b), (c, d) in zip(chain, chain[1:]):
                assert {a, b} & {c, d}


def test_long_cycle_kernelizes_in_linear_memory():
    # chains carried through the contractions would hold about n^2/4 edge
    # references, hundreds of MB here
    n = 16000
    inst = make_instance(n, [(v, (v + 1) % n) for v in range(n)], 0, n // 2)
    tracemalloc.start()
    try:
        trace = kernelize(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    assert sum(map(len, trace.edge_constituents)) == n
    kern = trace.kernel
    assert st_distance(kern.graph, kern.s, kern.t) == n // 2


# ------------------------------------------------------ answer preservation

def test_achievable_distances_survive_kernelization(weighted_corpus):
    # for every budget, the best reachable distance is identical before
    # and after reduction (checked against the exhaustive reference)
    for n, edges, lengths, s, t in weighted_corpus[:60]:
        if len(edges) > 11:
            continue
        inst = make_instance(n, edges, s, t, lengths=lengths)
        trace = kernelize(inst)
        kg = trace.kernel.graph
        kmax = min(3, oracles.min_edge_cut_size(n, edges, s, t))
        before = oracles.max_dist_table(n, edges, lengths, s, t, kmax)
        after = oracles.max_dist_table(
            kg.n, list(kg.edges), list(kg.lengths),
            trace.kernel.s, trace.kernel.t, kmax)
        assert before == after


def test_decision_answers_survive_kernelization(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:40]:
        inst = make_instance(n, edges, s, t, lengths=lengths)
        trace = kernelize(inst)
        for k in (1, 2):
            for ell in (2, 3, 5):
                a = search_tree(Instance(inst.graph, s, t, k, ell))
                b = search_tree(Instance(trace.kernel.graph, trace.kernel.s,
                                         trace.kernel.t, k, ell))
                assert (a is None) == (b is None)


# ----------------------------------------------------------------- lifting

def test_lift_uses_first_original_edge_of_a_chain():
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3)
    trace = kernelize(inst)
    kernel_sol = evaluate_solution(trace.kernel.graph, trace.kernel.s,
                                   trace.kernel.t, [(0, 1)])
    lifted = lift_solution(trace, kernel_sol)
    assert lifted.deleted_edges == frozenset({(0, 1)})
    assert lifted.achieved_distance == INF


def test_lift_keeps_untouched_edges_as_themselves():
    # 4-cycle with adjacent terminals: one side contracts, the s-t edge stays
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0, 1)
    trace = kernelize(inst)
    kid = trace.kernel.graph.edge_id(trace.kernel.s, trace.kernel.t)
    assert trace.edge_constituents[kid] == ((0, 1),)
    kernel_sol = evaluate_solution(trace.kernel.graph, trace.kernel.s,
                                   trace.kernel.t,
                                   [(trace.kernel.s, trace.kernel.t)])
    lifted = lift_solution(trace, kernel_sol)
    assert (0, 1) in lifted.deleted_edges
    assert lifted.cardinality == 1


def test_lift_rejects_unknown_edges():
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3)
    trace = kernelize(inst)
    bogus = evaluate_solution(inst.graph, 0, 3, [(1, 2)])
    with pytest.raises(InputError):
        lift_solution(trace, bogus)


def test_lifted_solutions_stay_feasible(weighted_corpus):
    lifted_count = 0
    for n, edges, lengths, s, t in weighted_corpus[:150]:
        inst = make_instance(n, edges, s, t, lengths=lengths)
        ell = st_distance(inst.graph, inst.s, inst.t) + 1
        cut = oracles.min_edge_cut_size(n, edges, s, t)
        if cut < 2:
            continue
        trace = kernelize(Instance(inst.graph, s, t, cut - 1, ell))
        found = search_tree(trace.kernel)
        if found is None:
            continue
        lifted = lift_solution(trace, found)
        lifted_count += 1
        assert lifted.cardinality == found.cardinality
        assert lifted.achieved_distance >= ell
        # recompute from scratch on the untouched original graph
        assert st_distance(inst.graph, s, t, lifted.deleted_edges) >= ell
    assert lifted_count >= 50


def test_minimum_solution_size_survives_kernelization(weighted_corpus):
    # the smallest feasible deletion set is the same size before and after
    # reduction; the command-line layer leans on this
    checked = 0
    for n, edges, lengths, s, t in weighted_corpus:
        if len(edges) > 9:
            continue
        inst = make_instance(n, edges, s, t, lengths=lengths)
        d = st_distance(inst.graph, inst.s, inst.t)
        ell = d + 1
        trace = kernelize(inst)
        kg = trace.kernel.graph
        before = oracles.oracle_min_cost(n, edges, lengths, s, t, ell, 5)
        after = oracles.oracle_min_cost(
            kg.n, list(kg.edges), list(kg.lengths),
            trace.kernel.s, trace.kernel.t, ell, 5)
        assert before == after
        checked += 1
        if checked >= 60:
            break
    assert checked >= 40


# ------------------------------------------------- worklists vs rescanning

def test_worklist_reducer_matches_rescanning_reference():
    # Rule 1 runs off a heap and Rule 2 in one sweep, and the chains are
    # read off the graph at the end; the kernel and the edge chains must be
    # the ones the per-step rescan carrying chains produces
    fired = 0
    for g, s, t in (differential_corpus(19700101, 150)
                    + long_chain_corpus(19700102, 12)):
        inst = Instance(g, s, t, 1, 3)
        trace = kernelize(inst)
        want, events = rescanning_trace(inst, RescanningReducer.run_all)
        assert trace.kernel == want.kernel, (g.edges, s, t)
        assert trace.kernel_vertices == want.kernel_vertices
        assert trace.edge_constituents == want.edge_constituents
        assert trace.discarded_vertices == want.discarded_vertices
        fired += len(events)
    assert fired >= 3000
