"""Exact decision and optimization solvers."""

import itertools
import random
import time

import pytest

import oracles
from helpers import (grid_graph, make_graph, make_instance,
                     reference_cvd_fpt, reference_search_tree,
                     search_tree_corpus, solution_pairs)
from spmve import (
    INF,
    ClusterDecomposition,
    DeadlineExceeded,
    InputError,
    Instance,
    PreconditionError,
    SolveStats,
    TwinClass,
    brute_force,
    cluster_vertex_deletion_set,
    cvd_fpt,
    edge_key,
    evaluate_solution,
    gen_random,
    max_length,
    min_cost,
    min_st_cut_size,
    normalize_twins,
    param_approx_max_length,
    search_tree,
    st_distance,
    twin_classes,
    xp_by_max_degree,
)
from spmve import exact
from spmve import graph as graph_module
from spmve.exact import _capped_subsets
from spmve.pipeline import solve

DIAMOND = [(0, 1), (1, 3), (0, 2), (2, 3)]
C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]


# -------------------------------------------------------------- brute force

def test_brute_deletes_single_edge():
    sol = brute_force(make_instance(2, [(0, 1)], 0, 1, k=1, ell=2))
    assert sol is not None
    assert sol.deleted_edges == frozenset({(0, 1)})
    assert sol.achieved_distance == INF


def test_brute_refuses_impossible_cycle_target():
    assert brute_force(make_instance(4, C4, 0, 2, k=1, ell=3)) is None


def test_brute_diamond_cases():
    assert brute_force(make_instance(4, DIAMOND, 0, 3, k=1, ell=3)) is None
    sol = brute_force(make_instance(4, DIAMOND, 0, 3, k=1, ell=2))
    assert sol is not None and sol.deleted_edges == frozenset()


def test_brute_returns_lexicographically_first_witness(weighted_corpus):
    rng = random.Random(52)
    for n, edges, lengths, s, t in rng.sample(weighted_corpus, 30):
        if len(edges) > 9:
            continue
        g = make_graph(n, edges, lengths)
        k = min(2, g.m)
        ell = st_distance(g, s, t) + 1
        want = None
        for size in range(k + 1):
            for ids in itertools.combinations(range(g.m), size):
                banned = frozenset(g.edges[i] for i in ids)
                if st_distance(g, s, t, banned) >= ell:
                    want = banned
                    break
            if want is not None:
                break
        got = brute_force(Instance(g, s, t, k, ell))
        if want is None:
            assert got is None
        else:
            assert got is not None and got.deleted_edges == want


# ---------------------------------------------------------- xp by max degree

def test_xp_disconnects_star_center():
    # star with s in the middle: budget deg(s) cuts everything off
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    sol = xp_by_max_degree(Instance(g, 0, 1, 4, 3))
    assert sol is not None
    assert sol.deleted_edges == frozenset(g.edges)
    assert sol.achieved_distance == INF


def test_xp_on_complete_four_uses_source_star():
    g = make_graph(4, list(itertools.combinations(range(4), 2)))
    sol = xp_by_max_degree(Instance(g, 0, 3, 3, 2))
    assert sol is not None
    assert sol.deleted_edges == frozenset({(0, 1), (0, 2), (0, 3)})


def test_xp_delegates_below_the_degree(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:40]:
        g = make_graph(n, edges, lengths)
        k = min(2, max(g.degree(s) - 1, 0))
        for ell in (2, 4):
            a = brute_force(Instance(g, s, t, k, ell))
            b = xp_by_max_degree(Instance(g, s, t, k, ell))
            if a is None:
                assert b is None
            else:
                assert b is not None
                assert b.deleted_edges == a.deleted_edges


# --------------------------------------------------------------- search tree

def test_search_tree_deletes_direct_edge():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    sol = search_tree(Instance(g, 0, 2, 1, 2))
    assert sol is not None
    assert sol.deleted_edges == frozenset({(0, 2)})


def test_search_tree_refuses_cycle_target():
    assert search_tree(make_instance(4, C4, 0, 2, k=1, ell=3)) is None


def test_search_tree_solves_cover_gadget():
    from spmve import TripartiteGraph, gen_vc_reduction
    tg = TripartiteGraph((0,), (1,), (2,), ((0, 1), (1, 2), (0, 2)))
    inst = gen_vc_reduction(tg, 2)
    sol = search_tree(inst)
    assert sol is not None
    assert sol.cardinality <= 2
    assert sol.achieved_distance >= 9


def test_search_tree_matches_brute_on_reference_corpus(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:80]:
        g = make_graph(n, edges, lengths)
        cut = min_st_cut_size(g, s, t)
        for k in range(min(cut, 3)):
            for ell in range(1, n + 1):
                a = brute_force(Instance(g, s, t, k, ell))
                b = search_tree(Instance(g, s, t, k, ell))
                assert (a is None) == (b is None)


def test_search_tree_leaf_count_obeys_branching_bound(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:60]:
        g = make_graph(n, edges, lengths)
        cut = min_st_cut_size(g, s, t)
        for k in range(min(cut, 3)):
            for ell in (2, 3, 4):
                stats = SolveStats()
                search_tree(Instance(g, s, t, k, ell), stats=stats)
                assert stats.leaves <= max(1, (ell - 1) ** k)


def test_solutions_are_always_feasible(weighted_corpus):
    rng = random.Random(9)
    for n, edges, lengths, s, t in rng.sample(weighted_corpus, 50):
        g = make_graph(n, edges, lengths)
        cut = min_st_cut_size(g, s, t)
        k = rng.randint(0, max(cut - 1, 0))
        ell = rng.randint(1, n)
        for solver in (brute_force, search_tree, xp_by_max_degree):
            sol = solver(Instance(g, s, t, k, ell))
            if sol is None:
                continue
            assert sol.cardinality <= k
            assert st_distance(g, s, t, sol.deleted_edges) >= ell


def test_budget_reaching_the_cut_is_always_feasible():
    g = make_graph(4, C4)
    for solver in (brute_force, search_tree):
        sol = solver(Instance(g, 0, 2, 2, 4))
        assert sol is not None
        assert sol.achieved_distance == INF


def test_search_tree_matches_one_run_per_node(weighted_corpus):
    # the kept edges and the packing bound cut only subtrees that hold no
    # solution: the witnesses are those of one run per node, no call counts
    # more nodes or leaves, and the "no" calls count fewer in all
    rng = random.Random(1989)
    graphs = [make_graph(n, edges, lengths)
              for n, edges, lengths, _, _ in weighted_corpus[:60]]
    graphs += [grid_graph(rng, rng.randint(3, 5), rng.randint(3, 5),
                          rng.choice((1, 3))) for _ in range(20)]
    seen = {"yes": 0, "no": 0}
    saved = 0
    for g in graphs:
        s, t = rng.sample(range(g.n), 2)
        d = st_distance(g, s, t)
        if d == INF:
            continue
        for k in (1, 2, 3):
            for ell in (d + 1, d + 2, d + 4):
                inst = Instance(g, s, t, k, ell)
                got, want = SolveStats(), SolveStats()
                sol = search_tree(inst, stats=got)
                assert sol == reference_search_tree(inst, stats=want)
                assert got.nodes <= want.nodes
                assert got.leaves <= want.leaves
                seen["no" if sol is None else "yes"] += want.nodes > 1
                if sol is None:
                    saved += want.nodes - got.nodes
    assert min(seen.values()) >= 100, seen
    assert saved > 0


def test_search_tree_halves_the_shortest_path_runs(monkeypatch):
    # a k = 3 "no" on a weighted 8x8 grid, terminals as in the benchmark:
    # one run per node makes 372 nodes and 373 runs, settling the last level
    # from two runs made 107 runs, and the prunes leave 34 nodes and 25 runs
    g = grid_graph(random.Random(8), 8, 8, 3)
    s, t = 3 * 8 + 1, 3 * 8 + 6
    best, _ = max_length(g, s, t, 3)
    inst = Instance(g, s, t, 3, best + 1)
    runs = 0
    dijkstra = graph_module._dijkstra

    def counted(*args, **kwargs):
        nonlocal runs
        runs += 1
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(graph_module, "_dijkstra", counted)
    want = SolveStats()
    assert reference_search_tree(inst, stats=want) is None
    reference_runs, runs = runs, 0
    got = SolveStats()
    assert search_tree(inst, stats=got) is None
    assert want.nodes >= 200
    assert got.nodes <= want.nodes // 8, (got.nodes, want.nodes)
    assert runs <= reference_runs // 10, (runs, reference_runs)


def test_search_tree_reaches_fewer_vertices(monkeypatch):
    # the k = 3 "no" above: with every run over the whole graph, its runs
    # reached 1,510 vertices in all; on the edges of st-paths shorter than
    # ell, goal-directed, they reach 799, the two kept full runs included
    g = grid_graph(random.Random(8), 8, 8, 3)
    s, t = 3 * 8 + 1, 3 * 8 + 6
    best, _ = max_length(g, s, t, 3)
    g = grid_graph(random.Random(8), 8, 8, 3)  # nothing kept yet
    reached = 0
    dijkstra = graph_module._dijkstra

    def counted(*args, **kwargs):
        nonlocal reached
        run = dijkstra(*args, **kwargs)
        reached += sum(d < INF for d in run[0])
        return run

    monkeypatch.setattr(graph_module, "_dijkstra", counted)
    assert search_tree(Instance(g, s, t, 3, best + 1)) is None
    assert reached <= 1510 * 7 // 10, reached


def test_min_cost_walk_runs_the_plain_shortest_path_once(monkeypatch):
    # best[0] and the root of every step's search tree ask for the same
    # unbanned shortest path; the graph keeps it, so one run that stops at t
    # serves all five askers of this four-step walk.  The full runs from s
    # and from t that bound the searches to the short paths' edges are kept
    # too: two for the whole walk
    def grid():
        return grid_graph(random.Random(8), 8, 8, 3)

    s, t = 3 * 8 + 1, 3 * 8 + 6
    ell = max_length(grid(), s, t, 3)[0] + 1
    to_t = full = 0
    dijkstra = graph_module._dijkstra

    def counted(graph, source, banned=frozenset(), target=None, *rest):
        nonlocal to_t, full
        if not banned:
            to_t += target is not None
            full += target is None
        return dijkstra(graph, source, banned, target, *rest)

    monkeypatch.setattr(graph_module, "_dijkstra", counted)
    assert min_cost(grid(), s, t, ell).cardinality == 4
    assert (to_t, full) == (1, 2)


def test_search_tree_prunes_keep_every_witness():
    # random graphs, trees plus chords and series-parallel graphs, unit and
    # weighted lengths, k 1-4 and targets one to five past the distance
    seen = {"yes": 0, "no": 0}
    for g, s, t in search_tree_corpus(13, 300):
        d = st_distance(g, s, t)
        for k in (1, 2, 3, 4):
            for ell in range(d + 1, d + 6):
                inst = Instance(g, s, t, k, ell)
                got, want = SolveStats(), SolveStats()
                sol = search_tree(inst, stats=got)
                assert sol == reference_search_tree(inst, stats=want)
                assert got.nodes <= want.nodes, (g.edges, s, t, k, ell)
                seen["no" if sol is None else "yes"] += want.nodes > 0
    assert min(seen.values()) >= 100, seen
    # a unit 5x6 grid at distance 3: re-checking the inherited paths against
    # each child's kept edges cuts 12 nodes to 10, of 50 for one run per node
    g = grid_graph(random.Random(0), 5, 6, 1)
    stats = SolveStats()
    assert search_tree(Instance(g, 8, 21, 3, 6), stats=stats) is None
    assert stats.nodes <= 10


def test_diam2_walks_prune_the_search_tree():
    # a 60-vertex G(n, 0.5) of diameter two: targets 3 and 4 go to the
    # search tree, which without the prunes explored 4,082 and 16,382 nodes
    # on the first two walks and did not finish the third in 5 minutes
    inst = gen_random("erdos-renyi", seed=1, n=60, p=0.5)
    g, s, t = inst.graph, inst.s, inst.t
    star = sorted(edge_key(s, v) for v in g.adjacent_set(s))
    near = [5, 8, 18, 21, 23, 27, 28, 36, 42, 44, 46, 49, 56]
    for variant, k, ell, answer, witness, most in (
            ("maxlength", 10, None, 2, [], 40),
            ("mincost", 0, 3, 13, [edge_key(s, v) for v in near], 100),
            ("mincost", 0, 4, 28, star, 100)):
        stats = SolveStats()
        engine, got, sol, _ = solve(Instance(g, s, t, k, ell), variant,
                                    "diam2", stats=stats)
        assert (engine, got) == ("diam2", answer)
        assert sorted(sol.deleted_edges) == witness
        assert stats.nodes <= most, (variant, ell, stats.nodes)


# ------------------------------------------------------------------ min cost

def test_min_cost_examples():
    diamond = make_graph(4, DIAMOND)
    assert min_cost(diamond, 0, 3, 3).cardinality == 2
    lone = make_graph(2, [(0, 1)], [5])
    assert min_cost(lone, 0, 1, 5).cardinality == 0
    c4 = make_graph(4, C4)
    assert min_cost(c4, 0, 2, 4).cardinality == 2


def test_solve_refuses_a_missing_target():
    # the diamond is series-parallel, so every engine could run on it; each
    # refuses the same way before choosing one
    inst = Instance(make_graph(4, DIAMOND), 0, 3, 1)
    for variant in ("decision", "mincost"):
        for alg in ("auto", "searchtree", "bruteforce", "spdp"):
            with pytest.raises(InputError, match="requires --ell"):
                solve(inst, variant, alg)


def test_min_cost_boundary_is_tight(weighted_corpus):
    rng = random.Random(31)
    for n, edges, lengths, s, t in rng.sample(weighted_corpus, 40):
        g = make_graph(n, edges, lengths)
        ell = rng.randint(1, n)
        sol = min_cost(g, s, t, ell)
        k_star = sol.cardinality
        assert sol.achieved_distance >= ell
        assert search_tree(Instance(g, s, t, k_star, ell)) is not None
        if k_star > 0:
            assert search_tree(Instance(g, s, t, k_star - 1, ell)) is None


def test_min_cost_budget_caps_the_sweep(weighted_corpus):
    """A capped sweep finds the same witness when the cap allows it, with
    the same search work, and None below the optimum."""
    for n, edges, lengths, s, t in weighted_corpus[:40]:
        g = make_graph(n, edges, lengths)
        full_stats, capped_stats = SolveStats(), SolveStats()
        best = min_cost(g, s, t, 4, stats=full_stats)
        k_star = best.cardinality
        assert min_cost(g, s, t, 4, budget=k_star + 1,
                        stats=capped_stats) == best
        assert capped_stats.nodes == full_stats.nodes
        if k_star > 0:
            assert min_cost(g, s, t, 4, budget=k_star - 1) is None


def test_min_cost_matches_reference(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:50]:
        if len(edges) > 10:
            continue
        g = make_graph(n, edges, lengths)
        for ell in (2, 3, 6):
            want = oracles.oracle_min_cost(n, edges, lengths, s, t, ell,
                                           g.m + 1)
            assert min_cost(g, s, t, ell).cardinality == want


# ---------------------------------------------------------------- max length

def test_max_length_hits_infinity_at_the_cut():
    g = make_graph(4, DIAMOND)
    value, sol = max_length(g, 0, 3, 2)
    assert value == INF
    assert sol.achieved_distance == INF


def test_max_length_matches_reference(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:60]:
        if len(edges) > 10:
            continue
        g = make_graph(n, edges, lengths)
        cut = min_st_cut_size(g, s, t)
        kmax = min(cut - 1, 2)
        if kmax < 0:
            continue
        table = oracles.max_dist_table(n, edges, lengths, s, t, kmax)
        for k in range(kmax + 1):
            value, sol = max_length(g, s, t, k)
            assert value == table[k]
            assert sol.achieved_distance == value
            assert sol.cardinality <= k


# ----------------------------------------------------------------- staircase

def test_max_length_witnesses_are_minimum(weighted_corpus):
    """Each distance is first reached at its smallest budget, so every
    staircase's max-length witness costs what min_cost charges for it."""
    checked = 0
    for n, edges, lengths, s, t in weighted_corpus:
        for g in (make_graph(n, edges, lengths), make_graph(n, edges)):
            for k in range(min(min_st_cut_size(g, s, t), 3)):
                witnesses = [max_length(g, s, t, k)[1],
                             max_length(g, s, t, k, brute_force)[1]]
                if g.unit_length:
                    witnesses.append(param_approx_max_length(
                        Instance(g, s, t, k), 1.0)[0])
                for sol in witnesses:
                    want = min_cost(g, s, t, sol.achieved_distance)
                    assert sol.cardinality == want.cardinality, (edges, k)
                    checked += 1
    assert checked >= 3000, checked


def test_min_cost_asks_each_budget_once_from_one(weighted_corpus):
    """The budget 0 needs no decision: the plain distance answers it."""
    for n, edges, lengths, s, t in weighted_corpus[:40]:
        g = make_graph(n, edges, lengths)
        for ell in (2, 5, 9):
            calls = []

            def decide(inst, **kw):
                calls.append((inst.k, inst.ell))
                return search_tree(inst, **kw)

            sol = min_cost(g, s, t, ell, decide)
            assert calls == [(j, ell) for j in range(1, sol.cardinality + 1)]


def test_grid_max_length_walks_fewer_search_trees(monkeypatch):
    # 8x8 weighted grid, terminals as in the benchmark: one walk per query,
    # where a target sweep followed by a min-cost sweep made 6 and 7 calls
    g = grid_graph(random.Random(8), 8, 8, 3)
    s, t = 3 * 8 + 1, 3 * 8 + 6
    calls = 0

    def counted(inst, **kw):
        nonlocal calls
        calls += 1
        return search_tree(inst, **kw)

    monkeypatch.setattr(exact, "search_tree", counted)
    for k, most, value in ((2, 4, 15), (3, 6, 17)):
        calls = 0
        _, answer, sol, _ = solve(Instance(g, s, t, k), "maxlength",
                                  "searchtree")
        assert (answer, sol.achieved_distance) == (value, value)
        assert calls <= most, (k, calls)


# --------------------------------------------------------- twin normalization

def test_twin_rewrite_diamond_example():
    g = make_graph(4, DIAMOND)
    (cls,) = twin_classes(g, (0, 3))
    assert sorted(cls.members) == [1, 2]
    start = evaluate_solution(g, 0, 3, [(0, 1), (2, 3)])
    out = normalize_twins(g, 0, 3, cls, start)
    assert out.deleted_edges == frozenset({(0, 1), (0, 2)})
    assert out.achieved_distance == INF


def test_twin_rewrite_is_a_fixpoint_on_uniform_solutions():
    g = make_graph(4, DIAMOND)
    (cls,) = twin_classes(g, (0, 3))
    start = evaluate_solution(g, 0, 3, [(0, 1), (0, 2)])
    out = normalize_twins(g, 0, 3, cls, start)
    assert out.deleted_edges == start.deleted_edges


def test_twin_rewrite_drops_inner_class_edges():
    g = make_graph(4, list(itertools.combinations(range(4), 2)))
    (cls,) = twin_classes(g, (0, 3))
    start = evaluate_solution(g, 0, 3, [(1, 2)])
    out = normalize_twins(g, 0, 3, cls, start)
    assert out.deleted_edges == frozenset()


def test_twin_rewrite_needs_unit_lengths():
    g = make_graph(4, DIAMOND, [2, 1, 1, 1])
    (cls,) = twin_classes(g, (0, 3))
    start = evaluate_solution(g, 0, 3, [])
    with pytest.raises(PreconditionError):
        normalize_twins(g, 0, 3, cls, start)


def test_twin_rewrite_guarantees(atlas6):
    # never larger, never shorter, and members end up interchangeable
    rng = random.Random(5150)
    for rows in atlas6[5]:
        edges = list(oracles.rows_to_edges(rows))
        if not edges:
            continue
        g = make_graph(5, edges)
        classes = twin_classes(g, (0, 4))
        picked = [rng.sample(edges, k=rng.randint(0, min(3, len(edges))))
                  for _ in range(3)]
        for cls in classes:
            members = set(cls.members)
            for raw in picked:
                start = evaluate_solution(g, 0, 4, raw)
                out = normalize_twins(g, 0, 4, cls, start)
                assert out.cardinality <= start.cardinality
                assert out.achieved_distance >= start.achieved_distance
                # identical deletion pattern at every member
                pats = {frozenset(u if w == v else w
                                  for u, w in out.deleted_edges
                                  if v in (u, w))
                        for v in members}
                assert len(pats) == 1


# --------------------------------------------------- cluster-deletion solver

def test_cvd_separate_cliques_need_nothing():
    g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    dec = cluster_vertex_deletion_set(g)
    assert dec.x == 0
    sol = cvd_fpt(Instance(g, 0, 5, 0, 9), dec)
    assert sol is not None
    assert sol.deleted_edges == frozenset()
    assert sol.achieved_distance == INF


def test_cvd_two_triangles_through_middle_matches_brute():
    g = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    dec = cluster_vertex_deletion_set(g)
    for k in (0, 1, 2):
        for ell in (2, 3, 5):
            inst = Instance(g, 0, 4, k, ell)
            a = brute_force(inst)
            b = cvd_fpt(inst, dec)
            assert (a is None) == (b is None)
            if b is not None:
                assert b.cardinality <= k
                assert st_distance(g, 0, 4, b.deleted_edges) >= ell


def test_cvd_rejects_bad_decompositions():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # the path 0-...-4
    inst = Instance(g, 0, 4, 1, 5)
    cases = (((), ((0, 1, 2), (3, 4)), "component is not a clique"),
             ((3,), ((0, 1), (1, 2), (4,)), "parts overlap"),
             ((2,), ((0, 1), (3,)), "does not cover the graph"),
             ((), ((0, 1), (2, 3), (4,)), "only attach through X"))
    for x, cliques, message in cases:
        with pytest.raises(InputError, match=message):
            cvd_fpt(inst, ClusterDecomposition(x, cliques))


def test_cvd_requires_unit_lengths():
    g = make_graph(3, [(0, 1), (1, 2)], [2, 1])
    dec = cluster_vertex_deletion_set(g)
    with pytest.raises(PreconditionError):
        cvd_fpt(Instance(g, 0, 2, 1, 4), dec)


def test_cvd_matches_brute_on_small_deletion_sets(connected_atlas6):
    rng = random.Random(230)
    pool = []
    for n in (4, 5, 6):
        for edges in connected_atlas6[n]:
            g = make_graph(n, list(edges))
            dec = cluster_vertex_deletion_set(g)
            if dec.x <= 2:
                pool.append((g, dec))
    assert len(pool) >= 40
    for g, dec in rng.sample(pool, 40):
        s, t = 0, g.n - 1
        cut = min_st_cut_size(g, s, t)
        for k in range(min(cut + 1, 3)):
            for ell in (2, 3, g.n):
                inst = Instance(g, s, t, k, ell)
                a = brute_force(inst)
                b = cvd_fpt(inst, dec)
                assert (a is None) == (b is None), (g.edges, k, ell)
                if b is not None:
                    assert b.cardinality <= k
                    assert st_distance(g, s, t, b.deleted_edges) >= ell


def test_capped_subsets_match_plain_enumeration():
    rng = random.Random(614)
    pool = list(itertools.combinations(range(6), 2))
    cases = [[], [frozenset()], [frozenset(pool[:3])],
             [frozenset(), frozenset(pool[:2]), frozenset(pool[1:3])]]
    for _ in range(40):
        cases.append([frozenset(rng.sample(pool, rng.randint(0, 4)))
                      for _ in range(rng.randint(1, 7))])
    for blocks in cases:
        unions = [frozenset().union(*(blk for i, blk in enumerate(blocks)
                                      if mask >> i & 1))
                  for mask in range(1 << len(blocks))]
        for cap in (0, 1, 3, INF):
            want = [(mask, union) for mask, union in enumerate(unions)
                    if len(union) <= cap]
            assert list(_capped_subsets(blocks, lambda: cap)) == want
        # a cap that shrinks between yields, the way _min_clique_pattern's
        # does: the walk skips exactly what the plain loop skips
        accept = {mask for mask in range(len(unions)) if rng.random() < 0.3}
        best, want = None, []
        for mask, union in enumerate(unions):
            if best is not None and len(union) >= len(best):
                continue
            want.append(mask)
            if mask in accept:
                best = union
        best, got = None, []
        for mask, union in _capped_subsets(
                blocks, lambda: INF if best is None else len(best) - 1):
            got.append(mask)
            if mask in accept:
                best = union
        assert got == want


def _cluster_plus_two():
    """Unit cliques {2,3,4} (s=2), {5,6}, {7,8} and {9,...,12} (t=9) plus two
    non-adjacent extra vertices 0 and 1.  Both touch every inner-clique
    vertex; in each terminal clique 0 touches one member and 1 another, and 1
    also touches s.  {0, 1} is the only deletion set of size two, and the
    terminal cliques split into 14 deletion blocks."""
    cliques = [(2, 3, 4), (5, 6), (7, 8), (9, 10, 11, 12)]
    edges = {pair for c in cliques for pair in itertools.combinations(c, 2)}
    edges |= {(x, v) for x in (0, 1) for c in cliques[1:3] for v in c}
    edges |= {(0, 3), (1, 4), (0, 10), (1, 11), (1, 2)}
    return make_graph(13, sorted(edges)), 2, 9


def test_cvd_pins_witnesses_and_nodes_on_a_cluster_graph():
    g, s, t = _cluster_plus_two()
    dec = cluster_vertex_deletion_set(g)
    assert dec.deletion_set == (0, 1)

    def decide(inst, **kw):
        return cvd_fpt(inst, dec, **kw)

    stats = SolveStats()
    value, sol = max_length(g, s, t, 1, decide, stats=stats)
    assert (value, sol.deleted_edges, stats.nodes) == (4, {(1, 2)}, 30)
    stats = SolveStats()
    sol = cvd_fpt(Instance(g, s, t, 1, 4), dec, stats=stats)
    assert (sol.deleted_edges, sol.achieved_distance) == ({(1, 2)}, 4)
    assert stats.nodes == 7
    stats = SolveStats()
    assert cvd_fpt(Instance(g, s, t, 1, 5), dec, stats=stats) is None
    assert stats.nodes == 23


def _same_as_uncapped(g, dec, s, t, k, ell):
    """Run both cluster solvers; equal results, and the new one explores no
    more nodes.  Returns the two node counts."""
    got, want = SolveStats(), SolveStats()
    inst = Instance(g, s, t, k, ell)
    sol = cvd_fpt(inst, dec, stats=got)
    ref = reference_cvd_fpt(inst, dec, stats=want)
    assert (sol is None) == (ref is None), (g.edges, s, t, k, ell)
    if sol is not None:
        assert (sol.deleted_edges, sol.achieved_distance) == \
            (ref.deleted_edges, ref.achieved_distance), (g.edges, s, t, k, ell)
    assert got.nodes <= want.nodes, (g.edges, s, t, k, ell)
    return got.nodes, want.nodes


def test_cvd_matches_the_uncapped_solver_on_the_atlas(connected_atlas6):
    # every guess, and a fresh graph per block subset, give the same witness
    calls = 0
    for n in (2, 3, 4, 5):
        for edges in connected_atlas6[n]:
            g = make_graph(n, list(edges))
            dec = cluster_vertex_deletion_set(g)
            for s, t in itertools.combinations(range(n), 2):
                for k in range(min_st_cut_size(g, s, t) + 1):
                    for ell in range(1, 8):
                        _same_as_uncapped(g, dec, s, t, k, ell)
                        calls += 1
    assert calls >= 2000


def test_cvd_matches_the_uncapped_solver_with_three_extra_vertices():
    # seeds whose deletion set has three vertices and where the uncapped
    # solver needs at most about two seconds for all of k and ell
    got = want = 0
    for seed in (3, 4, 7, 9, 12, 13):
        inst = gen_random("cluster-plus-x", seed=seed, n=11, x=3)
        g, s, t = inst.graph, inst.s, inst.t
        dec = cluster_vertex_deletion_set(g)
        assert dec.x == 3
        for k in range(min(min_st_cut_size(g, s, t), 3) + 1):
            for ell in range(1, 10):
                new, old = _same_as_uncapped(g, dec, s, t, k, ell)
                got, want = got + new, want + old
    assert got < want, (got, want)


def test_cvd_builds_no_neighbour_sets(monkeypatch):
    # the attach check walks the edge list once with a vertex-to-part map,
    # and the deletion blocks filter the sorted neighbour lists to X, so a
    # solve builds no per-vertex set
    inst = gen_random("cluster-plus-x", seed=5, n=11, x=3)
    g, s, t = inst.graph, inst.s, inst.t
    dec = cluster_vertex_deletion_set(g)
    assert dec.x == 3 and len(dec.cliques) == 4
    best = max_length(g, s, t, 2)[0]
    built = []
    adjacent_set = graph_module.Graph.adjacent_set

    def counted(graph, v):
        built.append(v)
        return adjacent_set(graph, v)

    def decide(inst, **kw):
        return cvd_fpt(inst, dec, **kw)

    monkeypatch.setattr(graph_module.Graph, "adjacent_set", counted)
    stats = SolveStats()
    assert max_length(g, s, t, 2, decide, stats=stats)[0] == best
    assert stats.nodes > 0
    assert built == []


def test_cvd_honours_an_expired_deadline_in_the_guess_loop():
    g, s, t = _cluster_plus_two()
    dec = cluster_vertex_deletion_set(g)
    inst = Instance(g, s, t, 1, 4)
    assert not inst.trivially_yes and min_st_cut_size(g, s, t) > 1
    with pytest.raises(DeadlineExceeded):
        cvd_fpt(inst, dec, deadline=time.monotonic() - 1.0)
