"""Exact decision solvers.

All of them answer: can at most k edges be deleted so that every st-path has
length at least ell?  They return a Solution witness on yes and None on no.

search_tree and cvd_fpt first normalize: an instance whose st-distance
already meets the target is a yes with the empty solution, and a budget of at
least the minimum st-cut size is a yes by deleting a minimum cut.
xp_by_max_degree takes the first shortcut only; then it deletes the star of s
once the budget covers deg(s), and otherwise runs brute_force.  brute_force
stays pure enumeration so that it always returns the lexicographically
smallest feasible solution (by cardinality, then sorted edge ids); plain
enumeration reaches the same answers without shortcuts.

search_tree's kept edges and inherited packing bound cut only subtrees
without a solution, so its witnesses are those of the unpruned tree.  Its
runs with bans cover only the edges on st-walks shorter than ell
(``graph.relevant_edges``), and those that stop at t are goal-directed by
the distances to t: below ell they find the whole graph's distances and,
with the same parent rule, the same paths, so the branching order and the
witnesses stay the same.

min_cost and max_length walk one table with ``staircase``: best[j], the largest
st-distance after at most j deletions.  Each distance is first reached at its
smallest j, so both report minimum witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from .errors import InputError, PreconditionError, check_deadline
from .graph import (INF, ClusterDecomposition, Graph, Instance, Solution,
                    TwinClass, edge_key, evaluate_solution, min_st_cut,
                    relevant_edges, replacement_distances, st_distance,
                    st_path_ids)


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
    branch on deleting each of its at most ell-1 edges; depth at most k.
    Bans are frozensets of edge ids.

    Once the child deleting e has failed, no solution extends the parent's
    bans with e, so later siblings and their descendants keep e: they never
    branch on it.  Every solution deletes a deletable (not kept) edge of each
    st-path shorter than ell, so a node fails once it packs more such paths
    with disjoint deletable edges than its budget, or one with none; each
    path it does not inherit costs a run on G - bans - the edges packed so far.
    A child inherits the paths that avoid its deleted edge and re-checks
    them.  Both prunes cut only subtrees without a solution, and children
    keep their order, so the first-found witness is unchanged.

    A node with budget 1 settles its children from two runs
    (``replacement_distances``; the root reads the graph's kept full runs);
    they are counted one by one, in path order, and the first that reaches
    ell is the witness.

    Past the two shortcuts, every run with bans covers only the edges of
    st-walks shorter than ell, built once per call, and the runs that stop
    at t are goal-directed (A* with the distances to t).  Every comparison
    above is with ell, and below ell these runs return the whole graph's
    distances; each vertex of a short path keeps its smallest tight
    predecessor as parent, so the paths, and with them the branching order,
    the node counts and the witnesses, are those of whole-graph runs.  The
    root's path, the min cut and the witness's distance stay on the whole
    graph."""
    ell = _require_ell(instance)
    g, s, t = instance.graph, instance.s, instance.t
    stats = stats if stats is not None else SolveStats()

    def witness(banned):
        return evaluate_solution(g, s, t, [g.edges[eid] for eid in banned])

    if instance.trivially_yes:
        return witness(())
    cut_size, cut = min_st_cut(g, s, t)
    if instance.k >= cut_size:
        return evaluate_solution(g, s, t, cut)
    relevant = relevant_edges(g, s, t, ell)

    def pack(banned, budget, kept, pending):
        """(packed edge-id sets, or None once the bound fails; the node's
        shortest path if the first run found it).  [] means no short path."""
        packing, used, path = [], set(), None
        while len(packing) <= budget:
            if pending:
                ids = pending.pop()
            else:
                check_deadline(deadline)
                dist, ids = st_path_ids(g, s, t, banned.union(used),
                                        relevant=relevant)
                if dist >= ell:
                    return packing, path
                if not packing:
                    path = ids
                ids = frozenset(ids)
            free = ids - kept
            if not free:
                return None, None
            packing.append(ids)
            used |= free
        return None, None

    def descend(banned: frozenset, budget: int, kept: frozenset, inherited):
        stats.nodes += 1
        check_deadline(deadline)
        packing, found = pack(banned, budget, kept, inherited)
        if not packing:
            stats.leaves += 1
            return None if packing is None else witness(banned)
        if budget == 1:
            _, path, after = replacement_distances(g, s, t, banned, below=ell,
                                                   relevant=relevant)
            for eid, dist_after in zip(path, after):
                if eid in kept:
                    continue
                stats.nodes += 1
                stats.leaves += 1
                check_deadline(deadline)
                if dist_after >= ell:
                    return witness(banned | {eid})
            return None
        path = found or st_path_ids(g, s, t, banned,
                                    relevant=relevant)[1]
        for eid in [e for e in path if e not in kept]:
            result = descend(banned | {eid}, budget - 1, kept,
                             [ids for ids in packing if eid not in ids])
            if result is not None:
                return result
            kept = kept | {eid}
        return None

    return descend(frozenset(), instance.k, frozenset(), [])


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


def staircase(graph: Graph, s: int, t: int, decide, *, budget, target,
              cap=INF, stats=None, deadline=None):
    """Walk best[j], the largest st-distance after at most j deletions, and
    return the last witness found, or None if none reaches ``target``.

    best[0] is the plain distance.  From j = 1 on, ``decide`` (a solver like
    search_tree) is asked whether j deletions reach the target: a yes keeps
    its witness and moves the target one past the distance reached, a no
    moves j up, until j passes ``budget`` or the target passes ``cap``.  Each
    distance is first reached at its smallest j, so witnesses are minimum."""
    found = None
    plain = evaluate_solution(graph, s, t, ())  # best[0]: nothing deleted
    if plain.achieved_distance >= target:
        found, target = plain, plain.achieved_distance + 1
    j = 1
    while j <= budget and target <= cap and target < INF:
        solution = decide(Instance(graph, s, t, j, target), stats=stats,
                          deadline=deadline)
        if solution is None:
            j += 1
        else:
            found, target = solution, solution.achieved_distance + 1
    return found


def min_cost(graph: Graph, s: int, t: int, ell: int, solver=search_tree,
             *, budget=None, stats=None, deadline=None):
    """Smallest-cardinality solution reaching distance ell: the staircase
    with its target held at ell, up to the minimum st-cut size (deleting a
    cut always works).  With ``budget`` given the walk stops there instead,
    and None means no solution of at most ``budget`` deletions exists."""
    top = budget if budget is not None else min_st_cut(graph, s, t)[0]
    solution = staircase(graph, s, t, solver, budget=top, target=ell,
                         cap=ell, stats=stats, deadline=deadline)
    if solution is None and budget is None:
        raise AssertionError("a minimum cut must be feasible")
    return solution


def max_length(graph: Graph, s: int, t: int, k: int, solver=search_tree,
               *, stats=None, deadline=None):
    """Largest achievable st-distance with at most k deletions, with a
    minimum witness.  Infinite exactly when k reaches the minimum st-cut."""
    cut_size, cut = min_st_cut(graph, s, t)
    if k >= cut_size:
        return INF, evaluate_solution(graph, s, t, cut)
    best = staircase(graph, s, t, solver, budget=k, target=1, stats=stats,
                     deadline=deadline)
    return best.achieved_distance, best


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
            for w, _ in graph.neighbors(v):
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


def _min_clique_pattern(graph: Graph, clique, blocks, x_list, guesses, stats,
                        deadline, distances):
    """Cheapest union of the clique's ``blocks`` making every guessed pair's
    through-clique distance at least its guess.  Deleting more never hurts
    (distances only grow), so deleting every block is always valid and a
    minimum exists.  ``distances`` memoizes the through-clique distances by
    (clique, removed) across the guesses of one cvd_fpt call."""
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
    guessed shortest length of a path avoiding X, from {2..2^x+1, Infinite}
    cut after g*, its first value >= ell; (3) per terminal-free clique, the
    cheapest block deletions keeping every pair's through-clique distance at
    or above its guess; then (4) drops those cliques, replacing them by
    guessed-length shortcut edges, and (5) finishes by exhausting block
    deletions in the at most two cliques containing terminals, testing each
    on one virtual graph per guess.  All deletions respect twin classes,
    which loses no solutions.

    A shortcut of length >= ell lies on no st-path shorter than ell, so the
    virtual graph leaves it out, and step 5 answers alike for every guess
    >= ell.  g* constrains the cliques least, so its step-3 patterns are no
    larger: a tuple holding a value above g* succeeds only if the earlier
    tuple with g* in that place does, and the cut keeps the first success.
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
    inner = [(c, _clique_blocks(g, c, x_list)) for c in decomposition.cliques
             if c not in terminal_cliques]
    step5_blocks = [block for c in terminal_cliques
                    for block in _clique_blocks(g, c, x_list,
                                                [v for v in (s, t) if v in c])]
    # the virtual graph keeps G[X] and the terminal cliques with their X-edges;
    # cliques attach only through X, so those are the edges inside this set
    keep = x_set.union(*terminal_cliques)
    kept = [pair for pair in g.edges if pair[0] in keep and pair[1] in keep]
    gx_edges = sorted(pair for pair in g.edges
                      if pair[0] in x_set and pair[1] in x_set)
    lengths = list(range(2, 2 ** len(x_list) + 2)) + [INF]
    last = next(i for i, v in enumerate(lengths) if v >= ell)  # g*
    guess_values = lengths[:last + 1]
    distances = {}  # through-clique distances; they ignore the guesses

    for size1 in range(min(k, len(gx_edges)) + 1):
        for combo in combinations(range(len(gx_edges)), size1):
            step1 = frozenset(gx_edges[i] for i in combo)
            budget1 = k - len(step1)
            nonadj = [(u, v) for u, v in combinations(x_list, 2)
                      if not g.has_edge(u, v) or edge_key(u, v) in step1]
            base = [pair for pair in kept if pair not in step1]
            for values in product(guess_values, repeat=len(nonadj)):
                check_deadline(deadline)
                guesses = dict(zip(nonadj, values))
                oriented = dict(guesses)
                oriented.update({(v, u): d for (u, v), d in guesses.items()})
                step3 = set()
                for clique, blocks in inner:
                    step3 |= _min_clique_pattern(g, clique, blocks, x_list,
                                                 oriented, stats, deadline,
                                                 distances)
                    if len(step3) > budget1:
                        break
                if len(step3) > budget1:
                    continue
                budget2 = budget1 - len(step3)
                shortcuts = [(pair, goal) for pair, goal in guesses.items()
                             if goal < ell]
                virtual = Graph(g.n, base + [pair for pair, _ in shortcuts],
                                [1] * len(base) + [d for _, d in shortcuts])
                for _, step5 in _capped_subsets(step5_blocks, lambda: budget2):
                    stats.nodes += 1
                    if stats.nodes % 64 == 0:
                        check_deadline(deadline)
                    if st_distance(virtual, s, t, step5) >= ell:
                        chosen = step1 | step3 | step5
                        solution = evaluate_solution(g, s, t, chosen)
                        if solution.achieved_distance < ell:
                            raise AssertionError(
                                "cluster solver witness misses the target")
                        return solution
    return None
