"""Series-parallel recognition and decomposition trees."""

import itertools

import oracles
from helpers import (differential_corpus, make_graph, nested, realize,
                     rescanning_build_sp_tree)
from spmve import (
    PARALLEL,
    SERIAL,
    build_sp_tree,
    st_distance,
)


def _check_shape(tree, graph, s, t):
    """Structural invariants: the leaves are the graph's edges in order,
    every child comes before its parent, every node but the root (the last)
    is a child exactly once, terminals follow the sharing rules, and the
    root is anchored at the query pair.  Each node's terminals are derived
    bottom-up: a leaf's are its endpoint pair, a parallel node's the pair
    its children share, a series node's the two its children do not."""
    m = len(tree.pairs)
    assert tree.pairs == graph.edges
    assert len(tree.kind) == len(tree.left) == len(tree.right) > 0
    assert tree.kind[:m] == [None] * m
    terminals = []
    for pair in tree.pairs:
        assert tuple(sorted(pair)) == pair and pair[0] != pair[1]
        terminals.append(set(pair))
    uses = [0] * len(tree.kind)
    for i in range(m, len(tree.kind)):
        kind, c1, c2 = tree.kind[i], tree.left[i], tree.right[i]
        assert kind in (SERIAL, PARALLEL)
        assert 0 <= c1 < i and 0 <= c2 < i
        uses[c1] += 1
        uses[c2] += 1
        shared = terminals[c1] & terminals[c2]
        if kind == PARALLEL:
            assert shared == terminals[c1] == terminals[c2]
            terminals.append(shared)
        else:
            assert len(shared) == 1
            outer = (terminals[c1] | terminals[c2]) - shared
            assert len(outer) == 2
            terminals.append(outer)
    assert uses == [1] * (len(uses) - 1) + [0]
    assert terminals[-1] == {s, t}


def test_single_edge_is_a_leaf():
    g = make_graph(2, [(0, 1)], [7])
    tree = build_sp_tree(g, 0, 1)
    assert tree is not None
    assert tree.kind == [None]
    assert nested(tree) == (0, 1)


def test_two_route_diamond_is_parallel_over_serials():
    g = make_graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    tree = build_sp_tree(g, 0, 3)
    assert tree is not None
    assert tree.kind[-1] == PARALLEL
    assert tree.kind[tree.left[-1]] == tree.kind[tree.right[-1]] == SERIAL
    _check_shape(tree, g, 0, 3)


def test_complete_four_is_not_series_parallel():
    g = make_graph(4, list(itertools.combinations(range(4), 2)))
    for s, t in itertools.combinations(range(4), 2):
        assert build_sp_tree(g, s, t) is None


def test_wheatstone_bridge_is_not_series_parallel():
    # two terminals, two middle vertices, plus the bridging middle edge
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert build_sp_tree(g, 0, 3) is None


def test_bridge_graph_is_series_parallel_from_other_terminals():
    # same edge set as the bridge, but queried across an outer pair
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert build_sp_tree(g, 0, 1) is not None


def test_dangling_edges_are_rejected():
    # edge hanging off the route: every edge must sit between the terminals
    g = make_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert build_sp_tree(g, 0, 2) is None


def test_degenerate_queries_are_rejected():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert build_sp_tree(g, 0, 0) is None
    assert build_sp_tree(make_graph(2, []), 0, 1) is None


def test_series_chain_and_multi_route_compositions():
    chain = make_graph(4, [(0, 1), (1, 2), (2, 3)], [2, 3, 4])
    tree = build_sp_tree(chain, 0, 3)
    assert tree is not None
    _check_shape(tree, chain, 0, 3)
    theta = make_graph(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])
    tree = build_sp_tree(theta, 0, 4)
    assert tree is not None
    _check_shape(tree, theta, 0, 4)


def test_realize_reproduces_the_represented_graph():
    g = make_graph(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4), (0, 4)])
    tree = build_sp_tree(g, 0, 4)
    assert tree is not None
    _check_shape(tree, g, 0, 4)
    n2, edges2 = realize(tree)
    assert n2 == g.n
    assert len(edges2) == g.m
    assert sorted(label for _u, _v, label in edges2) == sorted(g.edges)
    # distances agree once lengths are carried over by leaf label
    lengths = [g.length(*label) for _u, _v, label in edges2]
    rebuilt = make_graph(n2, [(u, v) for u, v, _ in edges2], lengths)
    assert st_distance(rebuilt, 0, 1) == st_distance(g, 0, 4)


def test_recognizer_matches_reference_on_small_graphs(connected_atlas6):
    for n in (2, 3, 4, 5):
        for edges in connected_atlas6[n]:
            g = make_graph(n, list(edges))
            for s in range(n):
                for t in range(s + 1, n):
                    tree = build_sp_tree(g, s, t)
                    want = oracles.ttsp(edges, s, t)
                    assert (tree is not None) == want, (n, edges, s, t)
                    if tree is not None:
                        _check_shape(tree, g, s, t)


def test_recognizer_matches_reference_on_six_vertices(connected_atlas6):
    for edges in connected_atlas6[6]:
        if len(edges) > 9:
            continue
        g = make_graph(6, list(edges))
        for s, t in ((0, 5), (1, 4)):
            tree = build_sp_tree(g, s, t)
            assert (tree is not None) == oracles.ttsp(edges, s, t)
            if tree is not None:
                _check_shape(tree, g, s, t)


def test_distances_survive_recomposition(weighted_corpus):
    hits = 0
    for n, edges, lengths, s, t in weighted_corpus:
        g = make_graph(n, edges, lengths)
        tree = build_sp_tree(g, s, t)
        if tree is None:
            continue
        hits += 1
        n2, edges2 = realize(tree)
        lens2 = [g.length(*label) for _u, _v, label in edges2]
        rebuilt = make_graph(n2, [(u, v) for u, v, _ in edges2], lens2)
        assert st_distance(rebuilt, 0, 1) == st_distance(g, s, t)
        if hits >= 60:
            break
    assert hits >= 20


def test_worklist_recognition_matches_rescanning_reference():
    # the heap-driven reduction must merge and contract in the same order
    # as the reference that rescans every vertex per step: same trees, same
    # rejections
    recognized = 0
    for g, s, t in differential_corpus(20180424, 150):
        tree = build_sp_tree(g, s, t)
        want = rescanning_build_sp_tree(g, s, t)
        assert nested(tree) == want, (g.edges, s, t)
        if tree is not None:
            _check_shape(tree, g, s, t)
            recognized += 1
    assert recognized >= 150

