"""Exact decision solvers.

All of them answer: can at most k edges be deleted so that every st-path has
length at least ell?  They return a Solution witness on yes and None on no.

search_tree, xp_by_max_degree and cvd_fpt first normalize: an instance whose
st-distance already meets the target is a yes with the empty solution, and a
budget of at least the minimum st-cut size is a yes by deleting a minimum cut.
brute_force stays pure enumeration so that it always returns the
lexicographically smallest feasible solution (by cardinality, then sorted edge
ids); plain enumeration reaches the same answers without shortcuts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from .errors import InputError, PreconditionError, check_deadline
from .graph import (INF, ClusterDecomposition, Graph, Instance, Solution,
                    TwinClass, edge_key, evaluate_solution, min_st_cut,
                    path_edges, shortest_path, st_distance)


@dataclass
class SolveStats:
    """Mutable counters a caller may pass in to observe the search."""

    nodes: int = 0
    leaves: int = 0


def _require_ell(instance: Instance) -> int:
    if instance.ell is None:
        raise InputError("decision solving needs a target length ell")
    return instance.ell


def brute_force(instance: Instance, *, stats=None, deadline=None):
    """Try every edge subset of size 0..k in lexicographic order (by
    cardinality, then sorted edge-id tuples); first feasible subset wins."""
    ell = _require_ell(instance)
    g, s, t = instance.graph, instance.s, instance.t
    stats = stats if stats is not None else SolveStats()
    for size in range(min(instance.k, g.m) + 1):
        for combo in combinations(range(g.m), size):
            stats.nodes += 1
            if stats.nodes % 256 == 0:
                check_deadline(deadline)
            banned = frozenset(g.edges[i] for i in combo)
            if st_distance(g, s, t, banned) >= ell:
                return evaluate_solution(g, s, t, banned)
    return None


def search_tree(instance: Instance, *, stats=None, deadline=None):
    """Bounded search tree: while some shortest st-path is shorter than ell,
    branch on deleting each of its at most ell-1 edges; depth at most k."""
    ell = _require_ell(instance)
    g, s, t = instance.graph, instance.s, instance.t
    stats = stats if stats is not None else SolveStats()
    if st_distance(g, s, t) >= ell:
        return evaluate_solution(g, s, t, ())
    cut_size, cut = min_st_cut(g, s, t)
    if instance.k >= cut_size:
        return evaluate_solution(g, s, t, cut)

    def descend(banned: frozenset, budget: int):
        stats.nodes += 1
        check_deadline(deadline)
        path = shortest_path(g, s, t, banned)
        if path is None or sum(g.length(*e) for e in path_edges(path)) >= ell:
            stats.leaves += 1
            return evaluate_solution(g, s, t, banned)
        if budget == 0:
            stats.leaves += 1
            return None
        for edge in path_edges(path):
            found = descend(banned | {edge}, budget - 1)
            if found is not None:
                return found
        return None

    return descend(frozenset(), instance.k)


def xp_by_max_degree(instance: Instance, *, stats=None, deadline=None):
    """If the budget covers deg(s), disconnect s outright; otherwise the
    budget is below the maximum degree and plain enumeration is used, so the
    output equals brute_force's."""
    _require_ell(instance)
    g, s, t = instance.graph, instance.s, instance.t
    if instance.trivially_yes:
        return evaluate_solution(g, s, t, ())
    if instance.k >= g.degree(s):
        star = [g.edges[eid] for _, eid in g.neighbors(s)]
        return evaluate_solution(g, s, t, star)
    return brute_force(instance, stats=stats, deadline=deadline)


def min_cost(graph: Graph, s: int, t: int, ell: int, solver=search_tree,
             *, budget=None, stats=None, deadline=None):
    """Smallest-cardinality solution reaching distance ell, found by sweeping
    the budget upward from 0.  Its cardinality never exceeds the minimum
    st-cut size (deleting a cut always works).  With ``budget`` given the
    sweep stops there instead, and None means no solution of at most
    ``budget`` deletions exists."""
    top = budget if budget is not None else min_st_cut(graph, s, t)[0]
    for k in range(top + 1):
        solution = solver(Instance(graph, s, t, k, ell), stats=stats,
                          deadline=deadline)
        if solution is not None:
            return solution
    if budget is not None:
        return None
    raise AssertionError("a minimum cut must be feasible")


def max_length(graph: Graph, s: int, t: int, k: int, solver=search_tree,
               *, stats=None, deadline=None):
    """Largest achievable st-distance with at most k deletions, with witness.
    Infinite exactly when k reaches the minimum st-cut size."""
    cut_size, cut = min_st_cut(graph, s, t)
    if k >= cut_size:
        return INF, evaluate_solution(graph, s, t, cut)
    best = evaluate_solution(graph, s, t, ())
    ell = best.achieved_distance + 1
    ceiling = (graph.n - 1) * max(graph.lengths, default=1) + 1
    while ell <= ceiling:
        solution = solver(Instance(graph, s, t, k, ell), stats=stats,
                          deadline=deadline)
        if solution is None:
            return best.achieved_distance, best
        best = solution
        ell = max(ell + 1, best.achieved_distance + 1)
    raise AssertionError("finite optimum expected below the cut size")


def normalize_twins(graph: Graph, s: int, t: int, twin_class: TwinClass,
                    solution: Solution) -> Solution:
    """Rewrite a solution so all members of a twin class are treated alike,
    without growing it or shrinking the achieved distance.

    Keeps the member with the fewest deleted edges leaving the class (ties:
    smallest id), removes every deleted edge touching the other members, and
    replicates the kept member's deletion pattern onto them.  Unit lengths
    required.
    """
    if not graph.unit_length:
        raise PreconditionError("twin normalization needs unit lengths")
    members = set(twin_class.members)
    if not members:
        raise InputError("empty twin class")
    if s in members or t in members:
        raise InputError("twin class must avoid the terminals")
    ext = set(twin_class.external_neighborhood)
    for v in members:
        if graph.adjacent_set(v) - members != ext:
            raise InputError("not a twin class: external neighborhoods differ")
    deleted = {v: set() for v in members}
    for u, v in solution.deleted_edges:
        if u in members:
            deleted[u].add(v)
        if v in members:
            deleted[v].add(u)
    if len({frozenset(d) for d in deleted.values()}) == 1:
        return solution
    # intra-class deletions are dropped, so rank members by what remains:
    # replicating a minimal external pattern can never grow the solution
    external = {v: [w for w in deleted[v] if w not in members]
                for v in members}
    u0 = min(members, key=lambda v: (len(external[v]), v))
    pattern = external[u0]
    edges = set()
    for a, b in solution.deleted_edges:
        if a in members - {u0} or b in members - {u0}:
            continue
        edges.add((a, b))
    for v in members - {u0}:
        for w in pattern:
            edges.add(edge_key(v, w))
    normalized = evaluate_solution(graph, s, t, edges)
    if normalized.cardinality > solution.cardinality:
        raise AssertionError("twin normalization grew the solution")
    if normalized.achieved_distance < solution.achieved_distance:
        raise AssertionError("twin normalization shortened the distance")
    return normalized


def _through_clique_distances(graph: Graph, clique, x_vertices, removed):
    """For each terminal pair in x_vertices: the shortest path length whose
    interior stays inside the clique, after ``removed`` edges are dropped.
    Unit lengths, so breadth-first layers suffice."""
    clique_set = set(clique)
    dists = {}
    for u in x_vertices:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            v = queue.popleft()
            if v != u and v not in clique_set:
                continue  # other outside vertices are endpoints only
            for w in graph.adjacent_set(v):
                if w not in clique_set and w not in x_vertices:
                    continue
                if v not in clique_set and w not in clique_set:
                    continue  # never hop outside-outside
                if edge_key(v, w) in removed:
                    continue
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        for v in x_vertices:
            if v != u:
                dists[(u, v)] = dist.get(v, INF)
    return dists


def _clique_blocks(graph: Graph, clique, x_list, protected=()):
    """Deletion blocks for one clique at twin-class granularity.

    Classes group the clique's non-terminal vertices by their neighborhoods
    into X; protected vertices (terminals living in the clique) are singleton
    units.  Blocks: all edges between two units, or all edges between a unit
    and one X-vertex.  Within a class nothing is ever deleted.
    """
    groups = {}
    for v in clique:
        if v in protected:
            continue
        key = frozenset(graph.adjacent_set(v) & set(x_list))
        groups.setdefault(key, []).append(v)
    units = [tuple(sorted(g)) for g in groups.values()]
    units += [(v,) for v in protected if v in clique]
    units.sort()
    blocks = []
    for i, j in combinations(range(len(units)), 2):
        edges = frozenset(edge_key(a, b) for a in units[i] for b in units[j])
        blocks.append(edges)
    for unit in units:
        for u in sorted(set(graph.adjacent_set(unit[0])) & set(x_list)):
            edges = frozenset(edge_key(v, u) for v in unit)
            blocks.append(edges)
    return blocks


def _capped_subsets(blocks, cap):
    """Yield (mask, union) for every subset of ``blocks`` whose union has at
    most ``cap()`` edges, in increasing mask order.

    Bits are fixed from the highest down, 0 before 1, and a branch is cut
    once its union passes the cap; unions only grow, so nothing below the cut
    could fit.  ``cap`` is read at every step, so a caller may shrink it
    between yields.
    """
    stack = [(len(blocks), 0, frozenset())]  # (bits left to fix, mask, union)
    while stack:
        bits, mask, union = stack.pop()
        if len(union) > cap():
            continue
        # taking 0 at every remaining bit gives the subtree's smallest mask;
        # the 1-branches wait on the stack, lowest bit on top
        while bits:
            bits -= 1
            stack.append((bits, mask | 1 << bits, union | blocks[bits]))
        yield mask, union


def _min_clique_pattern(graph: Graph, clique, x_list, guesses, stats, deadline,
                        distances):
    """Cheapest block union making every guessed pair's through-clique
    distance at least its guess.  Deleting more never hurts (distances only
    grow), so deleting every block is always valid and a minimum exists.
    ``distances`` memoizes the through-clique distances by (clique, removed)
    across the guesses of one cvd_fpt call."""
    blocks = _clique_blocks(graph, clique, x_list)
    best = None
    for _, removed in _capped_subsets(
            blocks, lambda: INF if best is None else len(best) - 1):
        stats.nodes += 1
        if stats.nodes % 64 == 0:
            check_deadline(deadline)
        key = (clique, removed)
        if key not in distances:
            distances[key] = _through_clique_distances(graph, clique, x_list,
                                                       removed)
        dists = distances[key]
        if all(dists[pair] >= goal for pair, goal in guesses.items()):
            best = removed
    return best


def cvd_fpt(instance: Instance, decomposition: ClusterDecomposition, *,
            stats=None, deadline=None):
    """Decision solver for unit-length graphs that are close to a cluster
    graph: a vertex set X whose removal leaves disjoint cliques.

    Branches on (1) deletions inside G[X]; (2) for every non-adjacent X-pair a
    guessed shortest length of a path avoiding X, from {2..2^x+1, Infinite};
    (3) per terminal-free clique, the cheapest block deletions keeping every
    pair's through-clique distance at or above its guess; then (4) drops those
    cliques, replacing them by guessed-length shortcut edges, and (5) finishes
    by exhausting block deletions in the at most two cliques containing
    terminals.  All deletions respect twin classes, which loses no solutions.
    """
    ell = _require_ell(instance)
    if not instance.unit_length:
        raise PreconditionError("cluster solver needs unit lengths")
    g, s, t, k = instance.graph, instance.s, instance.t, instance.k
    stats = stats if stats is not None else SolveStats()
    x_set = set(decomposition.deletion_set)
    claimed = set(x_set)
    for clique in decomposition.cliques:
        for a, b in combinations(clique, 2):
            if not g.has_edge(a, b):
                raise InputError("decomposition component is not a clique")
        if claimed & set(clique):
            raise InputError("decomposition parts overlap")
        claimed |= set(clique)
    if claimed != set(range(g.n)):
        raise InputError("decomposition does not cover the graph")
    for c1, c2 in combinations(decomposition.cliques, 2):
        for a in c1:
            if set(c2) & g.adjacent_set(a):
                raise InputError("cliques must only attach through X")

    if instance.trivially_yes:
        return evaluate_solution(g, s, t, ())
    cut_size, cut = min_st_cut(g, s, t)
    if k >= cut_size:
        return evaluate_solution(g, s, t, cut)

    x_list = sorted(x_set)
    terminal_cliques = [c for c in decomposition.cliques if s in c or t in c]
    inner_cliques = [c for c in decomposition.cliques
                     if c not in terminal_cliques]
    gx_edges = sorted(pair for pair in g.edges
                      if pair[0] in x_set and pair[1] in x_set)
    guess_values = list(range(2, 2 ** len(x_list) + 2)) + [INF]
    distances = {}  # through-clique distances; they ignore the guesses

    for size1 in range(min(k, len(gx_edges)) + 1):
        for combo in combinations(range(len(gx_edges)), size1):
            step1 = frozenset(gx_edges[i] for i in combo)
            budget1 = k - len(step1)
            nonadj = [(u, v) for u, v in combinations(x_list, 2)
                      if not g.has_edge(u, v) or edge_key(u, v) in step1]
            for values in product(guess_values, repeat=len(nonadj)):
                check_deadline(deadline)
                guesses = dict(zip(nonadj, values))
                oriented = dict(guesses)
                oriented.update({(v, u): d for (u, v), d in guesses.items()})
                step3 = set()
                feasible = True
                for clique in inner_cliques:
                    pattern = _min_clique_pattern(g, clique, x_list, oriented,
                                                  stats, deadline, distances)
                    step3 |= pattern
                    if budget1 - len(step3) < 0:
                        feasible = False
                        break
                if not feasible:
                    continue
                budget2 = budget1 - len(step3)
                blocks = []
                for clique in terminal_cliques:
                    protected = [v for v in (s, t) if v in clique]
                    blocks.extend(_clique_blocks(g, clique, x_list, protected))
                virtual_edges = []
                for pair in g.edges:
                    u, v = pair
                    if pair in step1 or pair in step3:
                        continue
                    if u in x_set and v in x_set:
                        virtual_edges.append((pair, 1))
                    elif any(u in c and v in c or
                             (u in c and v in x_set) or (v in c and u in x_set)
                             for c in terminal_cliques):
                        virtual_edges.append((pair, 1))
                shortcut_base = []
                for (u, v), goal in guesses.items():
                    if goal != INF:
                        shortcut_base.append(((u, v), goal))
                relevant = sorted({v for pair, _ in virtual_edges for v in pair}
                                  | x_set | {s, t})
                index = {v: i for i, v in enumerate(relevant)}
                for _, step5 in _capped_subsets(blocks, lambda: budget2):
                    stats.nodes += 1
                    if stats.nodes % 64 == 0:
                        check_deadline(deadline)
                    pairs = []
                    lengths = []
                    seen = set()
                    for pair, tau in virtual_edges:
                        if pair in step5 or pair in seen:
                            continue
                        seen.add(pair)
                        pairs.append((index[pair[0]], index[pair[1]]))
                        lengths.append(tau)
                    for pair, tau in shortcut_base:
                        if pair in seen:
                            continue
                        seen.add(pair)
                        pairs.append((index[pair[0]], index[pair[1]]))
                        lengths.append(tau)
                    virtual = Graph(len(relevant), pairs, lengths)
                    if st_distance(virtual, index[s], index[t]) >= ell:
                        chosen = step1 | step3 | step5
                        solution = evaluate_solution(g, s, t, chosen)
                        if solution.achieved_distance < ell:
                            raise AssertionError(
                                "cluster solver witness misses the target")
                        return solution
    return None
