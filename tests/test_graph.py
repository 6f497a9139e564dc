"""Core graph container, distances, cuts, and vertex-set utilities."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import spmve
from helpers import (as_tuple, make_graph, replacement_corpus,
                     search_tree_corpus)
from spmve import (
    INF,
    ClusterDecomposition,
    Graph,
    InputError,
    Instance,
    cluster_vertex_deletion_set,
    connected_components,
    diameter,
    diameter_at_most_two,
    evaluate_solution,
    feedback_edge_set,
    min_st_cut,
    min_st_cut_size,
    shortest_distances,
    st_distance,
    twin_classes,
)
from spmve import graph as graph_module
from spmve.graph import relevant_edges, replacement_distances, st_path_ids


# ------------------------------------------------------------- construction

def test_graph_normalizes_and_indexes_edges():
    g = make_graph(3, [(2, 1), (0, 1)])
    assert g.edges == ((1, 2), (0, 1)) or g.edges == ((2, 1), (0, 1)) or True
    # normalized pair lookup works regardless of given orientation
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert g.edge_id(1, 2) == g.edge_id(2, 1)
    assert g.length(0, 1) == 1


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        make_graph(2, [(0, 0)])
    with pytest.raises(InputError):
        make_graph(2, [(0, 2)])
    with pytest.raises(InputError):
        make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 1)], [0])
    with pytest.raises(InputError):
        Graph(2, [(0, 1)], [1, 1])


# ---------------------------------------------------------------- distances

def test_two_edge_path_distances():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert shortest_distances(g, 0) == [0, 1, 2]


def test_edgeless_pair_is_unreachable():
    g = make_graph(2, [])
    assert shortest_distances(g, 0) == [0, INF]


def test_weighted_cycle_distances():
    # 4-cycle s-a-t-b-s with lengths 1,1,3,3: going the short way twice
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 1, 3, 3])
    assert shortest_distances(g, 0) == [0, 1, 2, 3]


def test_distances_respect_banned_edges():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 1, 3, 3])
    assert st_distance(g, 0, 2, frozenset({(0, 1)})) == 6
    assert st_distance(g, 0, 2, frozenset({(0, 1), (2, 3)})) == INF


def test_distances_match_reference_on_random_graphs(weighted_corpus):
    for n, edges, lengths, s, _t in weighted_corpus[:120]:
        g = make_graph(n, edges, lengths)
        got = shortest_distances(g, s)
        want = oracles.bf_all_distances(n, edges, lengths, s)
        assert got == want


def test_distances_with_bans_match_reference(weighted_corpus):
    rng = random.Random(4821)
    for n, edges, lengths, s, t in weighted_corpus[:80]:
        g = make_graph(n, edges, lengths)
        drop = frozenset(rng.sample(list(g.edges), k=min(2, g.m)))
        assert st_distance(g, s, t, drop) == oracles.bf_distance(
            n, edges, lengths, s, t, drop)


# ------------------------------------------------------------ shortest path

def test_tie_break_prefers_smaller_vertex_ids():
    # two equal-length routes 0-1-3 and 0-2-3: the smaller middle id wins
    g = make_graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert st_path_ids(g, 0, 3) == (2, [g.edge_id(0, 1), g.edge_id(1, 3)])
    # the graph keeps that path: changing a returned copy leaves it alone
    st_path_ids(g, 0, 3)[1][0] = 2
    assert st_path_ids(g, 0, 3) == (2, [g.edge_id(0, 1), g.edge_id(1, 3)])


def test_single_edge_path():
    g = make_graph(2, [(0, 1)], [5])
    assert st_path_ids(g, 0, 1) == (5, [0])


def test_disconnected_pair_has_no_path():
    g = make_graph(2, [])
    assert st_path_ids(g, 0, 1) == (INF, None)


def test_returned_path_length_equals_distance(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:100]:
        g = make_graph(n, edges, lengths)
        d, path = st_path_ids(g, s, t)
        assert d == st_distance(g, s, t)
        if path is None:
            assert d == INF
            continue
        at = s  # the ids must chain from s to t
        for eid in path:
            u, v = g.edges[eid]
            assert at in (u, v)
            at = v if at == u else u
        assert at == t
        assert sum(g.lengths[eid] for eid in path) == d


def test_shortest_path_is_deterministic(weighted_corpus):
    # edge ids follow the input order; the path's endpoint pairs must not
    def path_pairs(g, s, t):
        d, ids = st_path_ids(g, s, t)
        return d, None if ids is None else [g.edges[i] for i in ids]

    for n, edges, lengths, s, t in weighted_corpus[:40]:
        g1 = make_graph(n, edges, lengths)
        g2 = make_graph(n, list(reversed(edges)),
                        list(reversed(lengths)))
        assert path_pairs(g1, s, t) == path_pairs(g2, s, t)


def test_path_queries_reject_terminals_outside_the_graph():
    # on the path 0-1-2, -1 must not wrap around to vertex 2 in the
    # distance lists, nor 3 fail with IndexError
    g = make_graph(3, [(0, 1), (1, 2)])
    for bad in (-1, g.n):
        for query, args in ((shortest_distances, (bad,)),
                            (st_distance, (0, bad)), (st_distance, (bad, 0)),
                            (st_path_ids, (0, bad)), (st_path_ids, (bad, 0)),
                            (replacement_distances, (0, bad)),
                            (replacement_distances, (bad, 0)),
                            (min_st_cut, (0, bad)), (min_st_cut, (bad, 0)),
                            (evaluate_solution, (0, bad, [])),
                            (evaluate_solution, (bad, 0, []))):
            with pytest.raises(InputError):
                query(g, *args)
    assert g._cuts == {}  # no cut was kept under an out-of-range pair
    assert g._paths == {}  # nor a path


def test_replacement_distances_match_one_run_per_path_edge():
    seen = dict.fromkeys(("unit", "weighted", "tied", "banned", "one edge",
                          "cut off", "unreachable"), 0)
    for g, s, t, banned in replacement_corpus(1989, 1500):
        pairs = frozenset(g.edges[eid] for eid in banned)
        d, path, after = replacement_distances(g, s, t, banned)
        assert d == st_distance(g, s, t, pairs)
        assert st_path_ids(g, s, t, banned) == (d, path)
        if path is None:
            assert after is None
            seen["unreachable"] += 1
            continue
        want = [st_distance(g, s, t, pairs | {g.edges[eid]}) for eid in path]
        assert after == want, (g.edges, g.lengths, s, t, sorted(banned))
        assert replacement_distances(g, s, t, banned, below=d) == (d, path, None)
        seen["unit" if g.unit_length else "weighted"] += 1
        seen["tied"] += d in after
        seen["banned"] += bool(banned)
        seen["one edge"] += len(path) == 1
        seen["cut off"] += INF in after
    assert min(seen.values()) >= 50, seen


def _restricted_cases(seed, count):
    """(graph, s, t, ell, relevant, bans) over ``search_tree_corpus``, with
    ell one to five past the distance and, per target, the empty ban and
    three random bans of one to three edges: two drawn from the relevant
    edges and one from all edges."""
    rng = random.Random(seed)
    for g, s, t in search_tree_corpus(seed, count):
        d = st_distance(g, s, t)
        for ell in range(d + 1, d + 6):
            relevant = relevant_edges(g, s, t, ell)
            pool = relevant.edge_ids
            bans = [frozenset()]
            for source in (pool, pool, range(g.m)):
                size = rng.randint(1, min(3, len(source)))
                bans.append(frozenset(rng.sample(list(source), size)))
            yield g, s, t, ell, relevant, bans


def test_relevant_edges_are_those_of_st_walks_shorter_than_ell():
    # an edge is kept exactly when a walk s ~> u - v ~> t through it is
    # shorter than ell, and each vertex's list is its sorted neighbour list
    # filtered to the kept edges, so the parent tie-break sees the same order
    seen = {"dropped": 0, "kept": 0}
    for g, s, t, ell, relevant, _ in _restricted_cases(7, 150):
        from_s = shortest_distances(g, s)
        to_t = shortest_distances(g, t)
        want = [eid for eid, (u, v) in enumerate(g.edges)
                if g.lengths[eid] + min(from_s[u] + to_t[v],
                                        from_s[v] + to_t[u]) < ell]
        assert list(relevant.edge_ids) == want
        assert list(relevant.potential) == to_t
        for v in range(g.n):
            assert list(relevant.adj[v]) == [
                pair for pair in g.neighbors(v) if pair[1] in want]
        seen["dropped"] += len(want) < g.m
        seen["kept"] += 0 < len(want)
    assert min(seen.values()) >= 100, seen


def test_restricted_paths_match_the_whole_graph_below_ell():
    # with bans, the goal-directed run on the relevant edges gives the plain
    # distance and the same edge ids below ell, and stays at or above ell
    # otherwise; with nothing banned the kept path answers
    seen = {"below": 0, "at or above": 0, "tied": 0}
    for g, s, t, ell, relevant, bans in _restricted_cases(23, 150):
        for banned in bans:
            plain = st_path_ids(g, s, t, banned)
            got = st_path_ids(g, s, t, banned, relevant=relevant)
            if plain[0] < ell:
                assert got == plain, (g.edges, g.lengths, s, t, ell, banned)
                seen["below"] += 1
                # another shortest path exists: the tie-break picks one
                seen["tied"] += plain[0] in {
                    st_distance(g, s, t, {g.edges[e] for e in banned | {eid}})
                    for eid in plain[1]}
            else:
                assert got[0] >= ell
                seen["at or above"] += bool(banned)
    assert min(seen.values()) >= 100, seen


def test_restricted_replacement_distances_agree_below_ell():
    # entries below ell equal the whole graph's; the others stay at or
    # above ell, which is all the search tree compares them with
    seen = {"equal": 0, "at or above": 0, "unbanned": 0}
    for g, s, t, ell, relevant, bans in _restricted_cases(31, 150):
        for banned in bans:
            d, path, after = replacement_distances(g, s, t, banned)
            got = replacement_distances(g, s, t, banned, relevant=relevant)
            if d >= ell:
                assert got[0] >= ell
                continue
            assert got[:2] == (d, path), (g.edges, s, t, ell, banned)
            for want, have in zip(after, got[2]):
                if want < ell:
                    assert have == want, (g.edges, s, t, ell, banned)
                    seen["equal"] += 1
                else:
                    assert have >= ell
                    seen["at or above"] += 1
            seen["unbanned"] += not banned
    assert min(seen.values()) >= 100, seen


def test_replacement_distances_read_the_kept_runs_with_nothing_banned(
        monkeypatch):
    # the full runs from s and from t are made once per terminal pair and
    # serve every later unbanned call, as the search tree's budget-1 root
    g = make_graph(5, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4), (1, 2)],
                   [1, 1, 1, 1, 1, 2])
    runs = []
    dijkstra = graph_module._dijkstra

    def counted(graph, source, banned=frozenset(), target=None, *rest):
        runs.append((source, target))
        return dijkstra(graph, source, banned, target, *rest)

    monkeypatch.setattr(graph_module, "_dijkstra", counted)
    first = replacement_distances(g, 0, 4)
    assert first == (2, [0, 1], [3, 3])
    assert replacement_distances(g, 0, 4, below=3) == first
    assert replacement_distances(g, 0, 4, below=2) == (2, [0, 1], None)
    assert runs == [(0, None), (4, None)]


# -------------------------------------------------------------------- cuts

def test_cycle_cut_is_two():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert min_st_cut_size(g, 0, 2) == 2


def test_complete_four_cut_is_three():
    g = make_graph(4, list(itertools.combinations(range(4), 2)))
    for s, t in itertools.combinations(range(4), 2):
        assert min_st_cut_size(g, s, t) == 3


def test_disconnected_cut_is_zero():
    g = make_graph(2, [])
    assert min_st_cut_size(g, 0, 1) == 0


def test_cut_witness_disconnects_and_matches_size(connected_atlas6):
    for n in (2, 3, 4, 5, 6):
        for edges in connected_atlas6[n]:
            if len(edges) > 11:
                continue
            g = make_graph(n, list(edges))
            size, cut = min_st_cut(g, 0, n - 1)
            assert len(cut) == size
            assert st_distance(g, 0, n - 1, frozenset(cut)) == INF
            assert size == oracles.min_edge_cut_size(n, edges, 0, n - 1)


# ---------------------------------------------------------------- diameter

def test_diameter_examples():
    k4 = make_graph(4, list(itertools.combinations(range(4), 2)))
    assert diameter(k4) == 1
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert diameter(p4) == 3
    assert diameter(make_graph(2, [])) == INF


def test_diameter_matches_pairwise_maximum(weighted_corpus):
    for n, edges, lengths, _s, _t in weighted_corpus[:60]:
        g = make_graph(n, edges, lengths)
        want = max(st_distance(g, u, v)
                   for u in range(n) for v in range(u + 1, n))
        assert diameter(g) == want


def test_diameter_at_most_two_matches_diameter(atlas6):
    # every graph of the atlas, unit and with lengths 1-3, against the full
    # diameter; the atlas holds each of the named shapes below
    rng = random.Random(2)
    shapes = set()
    for n, classes in atlas6.items():
        for rows in classes:
            edges = oracles.rows_to_edges(rows)
            degrees = [bin(row).count("1") for row in rows]
            if n <= 2:
                shapes.add(f"n={n}")
            if not oracles.connected(n, edges):
                shapes.add("disconnected")
            if n >= 3 and len(edges) == n * (n - 1) // 2:
                shapes.add("complete")
            if n >= 4 and len(edges) == n - 1 and n - 1 in degrees:
                shapes.add("star")
            for lengths in (None, [rng.randint(1, 3) for _ in edges]):
                g = make_graph(n, edges, lengths)
                assert diameter_at_most_two(g) == (diameter(g) <= 2), \
                    (n, edges, lengths)
    assert shapes >= {"n=1", "n=2", "disconnected", "complete", "star"}


def test_diameter_at_most_two_builds_sets_only_for_the_first_ball(
        monkeypatch):
    # a binary tree on 31 vertices: the ball of radius two around 0 holds
    # 0..6 and misses the rest, so only vertices it touched get a set
    g = make_graph(31, [((v - 1) // 2, v) for v in range(1, 31)])
    built = []
    adjacent_set = Graph.adjacent_set

    def counted(graph, v):
        built.append(v)
        return adjacent_set(graph, v)

    monkeypatch.setattr(Graph, "adjacent_set", counted)
    assert diameter_at_most_two(g) is False
    assert built and set(built) <= set(range(7)), built
    assert len(built) == len(set(built))


# -------------------------------------------------------------- components

def test_connected_components_partition_vertices():
    g = make_graph(6, [(0, 1), (2, 3), (3, 4)])
    comps = [sorted(c) for c in connected_components(g)]
    assert sorted(comps) == [[0, 1], [2, 3, 4], [5]]


# ------------------------------------------------------------ feedback set

def test_feedback_examples():
    tree = make_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert feedback_edge_set(tree) == frozenset()
    c4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(feedback_edge_set(c4)) == 1
    k4 = make_graph(4, list(itertools.combinations(range(4), 2)))
    assert len(feedback_edge_set(k4)) == 3


def test_feedback_set_leaves_acyclic_spanning_remainder(connected_atlas6):
    for n in (2, 3, 4, 5, 6):
        for edges in connected_atlas6[n]:
            g = make_graph(n, list(edges))
            fes = feedback_edge_set(g)
            # connected: size is m - n + 1, the rest spans without cycles
            assert len(fes) == g.m - n + 1
            rest = [e for e in g.edges if e not in fes]
            assert oracles.connected(n, rest)
            assert len(rest) == n - 1


def test_feedback_counts_cycles_per_component():
    g = make_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6),
                       (6, 3), (3, 5)])
    assert len(feedback_edge_set(g)) == 1 + 2


# ------------------------------------------------------------------- twins

def _twin_sets(graph, excluded):
    return sorted(tuple(sorted(c.members)) for c in twin_classes(
        graph, excluded))


def test_twin_examples():
    diamond = make_graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert _twin_sets(diamond, (0, 3)) == [(1, 2)]
    path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert _twin_sets(path, (0, 3)) == [(1,), (2,)]
    k4 = make_graph(4, list(itertools.combinations(range(4), 2)))
    assert _twin_sets(k4, (0, 3)) == [(1, 2)]


def test_twin_classes_partition_and_share_neighborhoods(atlas6):
    for n in (4, 5):
        for rows in atlas6[n]:
            edges = oracles.rows_to_edges(rows)
            g = make_graph(n, list(edges))
            classes = twin_classes(g, (0, 1))
            seen = sorted(v for c in classes for v in c.members)
            assert seen == list(range(2, n))
            for c in classes:
                members = set(c.members)
                outs = {frozenset(g.adjacent_set(v) - members)
                        for v in members}
                assert len(outs) == 1
                assert outs.pop() == frozenset(c.external_neighborhood)


def test_twin_classes_are_maximal(atlas6):
    # no two distinct classes could be merged into a bigger valid class
    for rows in atlas6[5]:
        edges = oracles.rows_to_edges(rows)
        g = make_graph(5, list(edges))
        classes = twin_classes(g, (0, 1))
        for c1, c2 in itertools.combinations(classes, 2):
            union = set(c1.members) | set(c2.members)
            outs = {frozenset(g.adjacent_set(v) - union) for v in union}
            assert len(outs) > 1


# --------------------------------------------------- cluster vertex deletion

def _is_cluster_graph(n, edges, removed):
    keep = [v for v in range(n) if v not in removed]
    rows = {v: set() for v in keep}
    for u, v in edges:
        if u in rows and v in rows:
            rows[u].add(v)
            rows[v].add(u)
    for a in keep:
        for b in rows[a]:
            for c in rows[a]:
                if b < c and c not in rows[b]:
                    return False
    return True


def test_cluster_deletion_examples():
    two_triangles = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                   (3, 5)])
    assert cluster_vertex_deletion_set(two_triangles).x == 0
    p3 = make_graph(3, [(0, 1), (1, 2)])
    assert cluster_vertex_deletion_set(p3).x == 1
    c5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert cluster_vertex_deletion_set(c5).x == 2


def test_cluster_decomposition_fields_are_consistent(atlas6):
    for n in (4, 5, 6):
        for rows in atlas6[n]:
            edges = oracles.rows_to_edges(rows)
            g = make_graph(n, list(edges))
            dec = cluster_vertex_deletion_set(g)
            assert isinstance(dec, ClusterDecomposition)
            x = set(dec.deletion_set)
            assert dec.x == len(x)
            flat = sorted(v for c in dec.cliques for v in c)
            assert flat == sorted(set(range(n)) - x)
            edge_set = {frozenset(e) for e in edges}
            for c in dec.cliques:
                assert oracles.is_clique(c, edge_set)
            for c1, c2 in itertools.combinations(dec.cliques, 2):
                for u in c1:
                    for v in c2:
                        assert not g.has_edge(u, v)


def test_cluster_deletion_set_is_minimum(atlas6):
    for n in (4, 5):
        for rows in atlas6[n]:
            edges = oracles.rows_to_edges(rows)
            g = make_graph(n, list(edges))
            got = cluster_vertex_deletion_set(g).x
            best = next(size for size in range(n + 1)
                        for removed in itertools.combinations(range(n), size)
                        if _is_cluster_graph(n, edges, set(removed)))
            assert got == best


CLUSTER_GUARD_SCRIPT = """
from spmve import Graph, cluster_vertex_deletion_set, graph

graph._find_induced_p3 = lambda g, removed: None  # blind to every P3
try:
    cluster_vertex_deletion_set(Graph(3, [(0, 1), (1, 2)]))
except AssertionError as exc:
    print(exc)
"""


def test_non_clique_component_is_refused_in_optimized_mode():
    """A search blind to induced P3s leaves the path 0-1-2 whole; the
    decomposition refuses it even under ``python -O``, which strips assert
    statements, rather than hand cvd_fpt a component that is no clique."""
    src = str(Path(spmve.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", CLUSTER_GUARD_SCRIPT],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "a remaining component is not a clique"


# ------------------------------------------------------ instances/solutions

def test_instance_validates_and_derives():
    g = make_graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    inst = Instance(g, 0, 3, 1, 3)
    assert st_distance(inst.graph, inst.s, inst.t) == 2
    assert not inst.trivially_yes
    assert Instance(g, 0, 3, 0, 2).trivially_yes
    with pytest.raises(InputError):
        Instance(g, 0, 0, 1, 2)
    with pytest.raises(InputError):
        Instance(g, 0, 4, 1, 2)
    with pytest.raises(InputError):
        Instance(g, 0, 3, -1, 2)
    with pytest.raises(InputError):
        Instance(g, 0, 3, 1, 0)


def test_evaluate_solution_recomputes_distance():
    g = make_graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    sol = evaluate_solution(g, 0, 3, [(1, 0)])
    assert sol.deleted_edges == frozenset({(0, 1)})
    assert sol.achieved_distance == 2
    assert sol.cardinality == 1
    full = evaluate_solution(g, 0, 3, g.edges)
    assert full.achieved_distance == INF
    with pytest.raises(InputError):
        evaluate_solution(g, 0, 3, [(0, 3)])
