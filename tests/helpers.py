"""Bridging helpers between plain-tuple test graphs and package objects;
rescanning reference versions of series-parallel recognition and of the
kernel reducer that the worklist-driven ones must match, the latter carrying
every edge's chain through each contraction, logging each step and running
either rule alone; graphs of long degree-two runs; a search tree that runs
one shortest-path search per node and never prunes, whose witnesses the
pruned one must match; the series-parallel min-cost table over targets,
which the one over budgets must match in cost; and the cluster solver that
tries every guessed length and builds one graph per block subset, whose
witnesses the capped one must match."""

import random
from dataclasses import dataclass
from itertools import combinations, product

from spmve import Graph, Instance
from spmve.errors import InputError, PreconditionError, check_deadline
from spmve.exact import (SolveStats, _capped_subsets, _clique_blocks,
                         _require_ell, _through_clique_distances)
from spmve.graph import (INF, ClusterDecomposition, connected_components,
                         edge_key, evaluate_solution, min_st_cut, st_distance,
                         st_path_ids)
from spmve.kernel import KernelTrace
from spmve.sptree import PARALLEL, SERIAL, SpTree


def make_graph(n, edges, lengths=None):
    edges = list(edges)
    if lengths is None:
        lengths = [1] * len(edges)
    return Graph(n, edges, list(lengths))


def make_instance(n, edges, s, t, k=0, ell=None, lengths=None):
    return Instance(make_graph(n, edges, lengths), s, t, k, ell)


def as_tuple(graph):
    return graph.n, list(graph.edges), list(graph.lengths)


def solution_pairs(solution):
    return sorted(tuple(sorted(e)) for e in solution.deleted_edges)


def _tree_plus_chords(rng, n, chords):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(chords if n > 2 else 0):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return edges


def _series_parallel(rng, m):
    """A simple two-terminal series-parallel graph between 0 and 1: grow it
    by subdividing an edge or by adding a two-edge route beside one."""
    edges = {(0, 1)}
    n = 2
    while len(edges) < m:
        u, v = rng.choice(sorted(edges))
        if rng.random() < 0.5:
            edges.discard((u, v))
        edges |= {(u, n), (v, n)}
        n += 1
    return n, edges


def weighted_series_parallel(seed, count, max_m, max_length):
    """Seeded series-parallel graphs between 0 and 1 with 1..max_m edges and
    lengths drawn from 1..max_length."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, edges = _series_parallel(rng, rng.randint(1, max_m))
        edges = sorted(edges)
        lengths = [rng.randint(1, max_length) for _ in edges]
        out.append(make_graph(n, edges, lengths))
    return out


def differential_corpus(seed, rounds):
    """Seeded (graph, s, t) triples, four per round: a random tree plus
    chords, a series-parallel graph with shuffled labels (queried at its own
    terminals most of the time), a weighted copy of one of these two, and a
    disconnected graph of three such trees."""
    rng = random.Random(seed)
    specs = []  # (n, edges, terminals or None, weighted)
    for _ in range(rounds):
        n = rng.randint(2, 60)
        tree = (n, _tree_plus_chords(rng, n, rng.randint(0, 5)), None)
        n, edges = _series_parallel(rng, rng.randint(1, 60))
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        sp = (n, edges, (perm[0], perm[1]) if rng.random() < 0.8 else None)
        n = 0
        edges = set()
        for _ in range(3):
            size = rng.randint(1, 20)
            piece = _tree_plus_chords(rng, size, rng.randint(0, 3))
            edges |= {(u + n, v + n) for u, v in piece}
            n += size
        specs += [tree + (False,), sp + (False,),
                  rng.choice((tree, sp)) + (True,), (n, edges, None, False)]
    out = []
    for n, edges, ends, weighted in specs:
        edges = sorted(edges)
        rng.shuffle(edges)
        lengths = [rng.randint(1, 9) for _ in edges] if weighted else None
        s, t = ends if ends is not None else rng.sample(range(n), 2)
        out.append((make_graph(n, edges, lengths), s, t))
    return out


def long_chain_corpus(seed, count):
    """Seeded (graph, s, t) triples made of degree-two runs of 20-200
    vertices, in turn a subdivided K4, a theta graph (two hubs joined by 3-5
    runs) and a cycle of runs with chords, under shuffled vertex ids and
    lengths drawn from 1..9.  Pendant trees hang off some run vertices, and
    the terminals are branch vertices, run vertices, or one run vertex and
    any other vertex."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 == 0:
            n, ends = 4, list(combinations(range(4), 2))
        elif i % 3 == 1:
            n, ends = 2, [(0, 1)] * rng.randint(3, 5)
        else:
            n = rng.randint(4, 6)
            ends = [(j, (j + 1) % n) for j in range(n)] + [(0, 2), (1, n - 1)]
        branches = list(range(n))
        edges, runs = [], []
        for a, b in ends:
            run = list(range(n, n + rng.randint(20, 200)))
            n += len(run)
            runs += run
            path = [a] + run + [b]
            edges += zip(path, path[1:])
        for v in rng.sample(runs, rng.randint(0, 6)):
            tree = [v]
            for _ in range(rng.randint(1, 5)):
                edges.append((rng.choice(tree), n))
                tree.append(n)
                n += 1
        mode = i // 3 % 3
        if mode == 0:
            s, t = rng.sample(branches, 2)
        elif mode == 1:
            s, t = rng.sample(runs, 2)
        else:
            s = rng.choice(runs)
            t = rng.choice([v for v in range(n) if v != s])
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        lengths = [rng.randint(1, 9) for _ in edges]
        out.append((make_graph(n, edges, lengths), perm[s], perm[t]))
    return out


# ------------------------------------------- rescanning reference versions
#
# The versions below rescan every vertex after each step, so they are
# quadratic; they fix the tie-breaks the worklists have to reproduce.


def nested(tree: SpTree):
    """The tree as nested tuples: a leaf is its endpoint pair, an internal
    node (kind, left, right).  Independent of creation order, so trees built
    in different orders compare equal when their shapes do."""
    if tree is None:
        return None
    out = list(tree.pairs)
    m = len(out)
    for kind, c1, c2 in zip(tree.kind[m:], tree.left[m:], tree.right[m:]):
        out.append((kind, out[c1], out[c2]))
    return out[-1]


def rescanning_build_sp_tree(graph: Graph, s: int, t: int, *, deadline=None):
    """The decomposition of (graph, s, t) in ``nested`` form, or None when
    the graph is not two-terminal series-parallel between s and t (the
    reduction stalls)."""
    if s == t or not (0 <= s < graph.n and 0 <= t < graph.n):
        return None
    if graph.m == 0:
        return None
    # live edge records: id -> (endpoint pair, node)
    records = {}
    incident = {v: set() for v in range(graph.n)}
    for i, pair in enumerate(graph.edges):
        records[i] = (pair, pair)
        incident[pair[0]].add(i)
        incident[pair[1]].add(i)
    next_id = graph.m
    absorbed = set()

    def other(pair, v):
        return pair[1] if pair[0] == v else pair[0]

    def merge_parallel():
        """Merge one parallel pair; smallest endpoint pair, lowest record ids."""
        nonlocal next_id
        best = None
        for v in sorted(incident):
            by_pair = {}
            for rid in incident[v]:
                pair = records[rid][0]
                if pair[0] != v:
                    continue  # visit each pair from its smaller endpoint once
                by_pair.setdefault(pair, []).append(rid)
            for pair in sorted(by_pair):
                if len(by_pair[pair]) >= 2:
                    cand = (pair, sorted(by_pair[pair])[:2])
                    if best is None or cand[0] < best[0]:
                        best = cand
                    break
        if best is None:
            return False
        pair, (r1, r2) = best
        node = (PARALLEL, records[r1][1], records[r2][1])
        for rid in (r1, r2):
            incident[pair[0]].discard(rid)
            incident[pair[1]].discard(rid)
            del records[rid]
        records[next_id] = (pair, node)
        incident[pair[0]].add(next_id)
        incident[pair[1]].add(next_id)
        next_id += 1
        return True

    def contract_series():
        """Contract the smallest degree-two non-terminal vertex."""
        nonlocal next_id
        for v in sorted(incident):
            if v in (s, t) or len(incident[v]) != 2:
                continue
            r1, r2 = sorted(incident[v])
            a = other(records[r1][0], v)
            b = other(records[r2][0], v)
            if a == b:
                continue  # two parallel edges at v; parallel merge handles it
            if a > b:
                a, b = b, a
                r1, r2 = r2, r1
            node = (SERIAL, records[r1][1], records[r2][1])
            for rid in (r1, r2):
                p = records[rid][0]
                incident[p[0]].discard(rid)
                incident[p[1]].discard(rid)
                del records[rid]
            del incident[v]
            absorbed.add(v)
            records[next_id] = ((a, b), node)
            incident[a].add(next_id)
            incident[b].add(next_id)
            next_id += 1
            return True
        return False

    while True:
        check_deadline(deadline)
        if merge_parallel():
            continue
        if contract_series():
            continue
        break
    if len(records) != 1:
        return None
    pair, node = next(iter(records.values()))
    if set(pair) != {s, t}:
        return None
    if absorbed | {s, t} != set(range(graph.n)):
        return None  # leftover vertices: graph was not connected to the core
    return node


@dataclass(frozen=True)
class DeleteDegreeOne:
    vertex: int
    neighbor: int


@dataclass(frozen=True)
class ContractDegreeTwo:
    vertex: int
    neighbors: tuple          # (smaller, larger) original ids: the new edge
    created_length: int       # the sum of the two edges it replaces


class RescanningReducer:
    """Mutable adjacency keyed by original vertex ids, rescanned after every
    step and logging each step as an event; ``rescanning_trace`` runs it.

    adj[u][v] = (length, constituents) where constituents is the ordered tuple
    of original edges the current edge stands for, oriented from min(u, v).
    """

    def __init__(self, graph: Graph, s: int, t: int, keep):
        self.s = s
        self.t = t
        self.adj = {v: {} for v in keep}
        for i, (u, v) in enumerate(graph.edges):
            if u in self.adj and v in self.adj:
                self.adj[u][v] = (graph.lengths[i], ((u, v),))
                self.adj[v][u] = (graph.lengths[i], ((u, v),))
        self.events = []

    def _oriented(self, a: int, b: int):
        """Constituents of current edge {a,b} oriented from a."""
        length, chain = self.adj[a][b]
        if a == min(a, b):
            return length, chain
        return length, tuple(reversed(chain))

    def rule1_once(self) -> bool:
        for v in sorted(self.adj):
            if v in (self.s, self.t) or len(self.adj[v]) != 1:
                continue
            (u,) = self.adj[v]
            del self.adj[u][v]
            del self.adj[v]
            self.events.append(DeleteDegreeOne(v, u))
            return True
        return False

    def rule2_once(self) -> bool:
        for v in sorted(self.adj):
            if v in (self.s, self.t) or len(self.adj[v]) != 2:
                continue
            a, b = sorted(self.adj[v])
            if b in self.adj[a]:
                continue  # would create a parallel edge
            len_a, chain_a = self._oriented(a, v)
            len_b, chain_b = self._oriented(v, b)
            length = len_a + len_b
            chain = chain_a + chain_b
            del self.adj[a][v]
            del self.adj[b][v]
            del self.adj[v]
            self.adj[a][b] = (length, chain)
            self.adj[b][a] = (length, chain)
            self.events.append(ContractDegreeTwo(v, (a, b), length))
            return True
        return False

    def run_rule(self, step, deadline=None) -> bool:
        fired = False
        while step():
            fired = True
            check_deadline(deadline)
        return fired

    def run_all(self, deadline=None):
        while True:
            fired = self.run_rule(self.rule1_once, deadline)
            fired |= self.run_rule(self.rule2_once, deadline)
            if not fired:
                return


def rescanning_trace(instance: Instance, run):
    """Keep the terminals' component (only s and t when they are apart),
    apply ``run`` to a RescanningReducer on it and collect the kernel,
    lengths and chains it holds.  Returns (KernelTrace, events)."""
    comp_s = next(c for c in connected_components(instance.graph)
                  if instance.s in c)
    keep = set(comp_s) if instance.t in comp_s else {instance.s, instance.t}
    discarded = [v for v in range(instance.graph.n) if v not in keep]
    reducer = RescanningReducer(instance.graph, instance.s, instance.t, keep)
    run(reducer)
    kept = sorted(reducer.adj)
    index = {orig: i for i, orig in enumerate(kept)}
    pairs = []
    lengths = []
    constituents = []
    seen = set()
    for u in kept:
        for v in sorted(reducer.adj[u]):
            pair = edge_key(u, v)
            if pair in seen:
                continue
            seen.add(pair)
            length, chain = reducer.adj[pair[0]][pair[1]]
            pairs.append((index[pair[0]], index[pair[1]]))
            lengths.append(length)
            constituents.append(chain)
    kernel_graph = Graph(len(kept), pairs, lengths)
    kernel = Instance(kernel_graph, index[instance.s], index[instance.t],
                      instance.k, instance.ell)
    trace = KernelTrace(
        original=instance,
        kernel=kernel,
        discarded_vertices=tuple(discarded),
        kernel_vertices=tuple(kept),
        edge_constituents=tuple(constituents),
    )
    return trace, tuple(reducer.events)


def apply_rule1(instance: Instance):
    """Exhaust Rule 1 only.  Returns (reduced instance, events)."""
    trace, events = rescanning_trace(instance,
                                     lambda r: r.run_rule(r.rule1_once))
    return trace.kernel, events


def apply_rule2(instance: Instance):
    """Exhaust Rule 2 only (conventionally after Rule 1 is exhausted)."""
    trace, events = rescanning_trace(instance,
                                     lambda r: r.run_rule(r.rule2_once))
    return trace.kernel, events


# ------------------------------------------ search tree, one run per node


def grid_graph(rng, rows, cols, max_length):
    """A rows x cols grid with lengths drawn from 1..max_length."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    lengths = [rng.randint(1, max_length) for _ in edges]
    return make_graph(rows * cols, edges, lengths)


def realize(tree: SpTree):
    """Rebuild a graph from the tree with fresh vertex ids.

    Returns (n, edge list of (u, v, leaf label)); terminals are vertices 0,1.
    Used to check that composing the tree back reproduces the input.
    """
    counter = [2]
    m = len(tree.pairs)

    def build(node, a, b):
        if node < m:
            return [(a, b, tree.pairs[node])]
        c1, c2 = tree.left[node], tree.right[node]
        if tree.kind[node] == PARALLEL:
            return build(c1, a, b) + build(c2, a, b)
        mid = counter[0]
        counter[0] += 1
        return build(c1, a, mid) + build(c2, mid, b)

    edges = build(len(tree.kind) - 1, 0, 1)
    return counter[0], edges


def replacement_corpus(seed, count):
    """Seeded (graph, s, t, banned edge ids) tuples: sparse and dense random
    graphs and small grids, with unit lengths (many tied
    shortest paths) or lengths 1-3; s and t adjacent in some; no ban, or a
    few random edges banned."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        shape = rng.randrange(3)
        if shape == 2:
            g = grid_graph(rng, rng.randint(1, 4), rng.randint(2, 5),
                           rng.choice((1, 3)))
        else:
            n = rng.randint(2, 12)
            density = 0.2 if shape == 0 else 0.6
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < density]
            if not edges:
                edges = [(0, n - 1)]
            rng.shuffle(edges)
            lengths = [rng.randint(1, rng.choice((1, 3))) for _ in edges]
            g = make_graph(n, edges, lengths)
        if rng.random() < 0.2:
            s, t = g.edges[rng.randrange(g.m)]
            if rng.random() < 0.5:
                s, t = t, s
        else:
            s, t = rng.sample(range(g.n), 2)
        banned = frozenset()
        if rng.random() < 0.5:
            banned = frozenset(rng.sample(range(g.m),
                                          rng.randint(1, max(1, g.m // 4))))
        out.append((g, s, t, banned))
    return out


def search_tree_corpus(seed, count):
    """Seeded (graph, s, t) triples with s and t connected: random graphs
    of edge probability 0.3 or 0.5, trees plus chords and series-parallel
    graphs with shuffled labels, on at most 12 vertices, with unit lengths
    or lengths drawn from 1..3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        shape = rng.randrange(3)
        if shape == 0:
            n = rng.randint(4, 12)
            p = rng.choice((0.3, 0.5))
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p}
        elif shape == 1:
            n = rng.randint(4, 12)
            edges = _tree_plus_chords(rng, n, rng.randint(1, 5))
        else:
            n, edges = _series_parallel(rng, rng.randint(4, 16))
            if n > 12:
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            edges = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        edges = sorted(edges)
        rng.shuffle(edges)
        top = rng.choice((1, 3))
        g = make_graph(n, edges, [rng.randint(1, top) for _ in edges])
        s, t = rng.sample(range(n), 2)
        if st_distance(g, s, t) < INF:
            out.append((g, s, t))
    return out


def reference_search_tree(instance: Instance, *, stats=None, deadline=None):
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
        dist, path = st_path_ids(g, s, t, banned)
        if dist >= ell:
            stats.leaves += 1
            return evaluate_solution(g, s, t, [g.edges[i] for i in banned])
        if budget == 0:
            stats.leaves += 1
            return None
        for eid in path:
            found = descend(banned | {eid}, budget - 1)
            if found is not None:
                return found
        return None

    return descend(frozenset(), instance.k)


# -------------------------------------- series-parallel min-cost over targets
#
# One array per node over targets 0..ell, O(ell^2) per series node.


class ReferenceMinCostTable:
    """Per-node arrays C[x] for x in 0..ell: the fewest deletions inside the
    subnetwork so that no terminal-to-terminal path is shorter than x.

    Leaf: 1 when the edge is too short, else 0.  Series: best split of the
    requirement between the halves.  Parallel: both halves must comply, and
    their edge sets are disjoint, so costs add.
    """

    def __init__(self, tree: SpTree, lengths, ell: int, *, deadline=None):
        if ell < 1:
            raise InputError("target length must be at least 1")
        self.tree = tree
        self.ell = ell
        self._costs = []
        self._splits = {}
        cuts = []
        m = len(tree.pairs)
        for node in range(len(tree.kind)):
            check_deadline(deadline)
            if node < m:
                tau = lengths[tree.pairs[node]]
                costs = [0 if x == 0 or tau >= x else 1
                         for x in range(ell + 1)]
                cut = 1
            else:
                i1, i2 = tree.left[node], tree.right[node]
                c1, c2 = self._costs[i1], self._costs[i2]
                k1, k2 = cuts[i1], cuts[i2]
                if tree.kind[node] == SERIAL:
                    costs, splits = [], []
                    for x in range(ell + 1):
                        best, arg = None, None
                        for xp in range(x + 1):
                            cand = c1[xp] + c2[x - xp]
                            if best is None or cand < best:
                                best, arg = cand, xp
                        costs.append(best)
                        splits.append(arg)
                    self._splits[node] = splits
                    cut = min(k1, k2)
                else:
                    costs = [c1[x] + c2[x] for x in range(ell + 1)]
                    cut = k1 + k2
            assert costs[0] == 0
            assert all(costs[x - 1] <= costs[x] for x in range(1, ell + 1))
            assert all(c <= cut for c in costs)
            self._costs.append(costs)
            cuts.append(cut)

    def cost(self, node: int, x: int) -> int:
        return self._costs[node][x]

    @property
    def root_cost(self) -> int:
        return self._costs[-1][self.ell]

    def witness(self) -> frozenset:
        """Edge set realizing C[root, ell], by replaying the stored split
        points (ties were broken toward the smaller left share)."""
        tree = self.tree
        m = len(tree.pairs)
        out = set()
        stack = [(len(tree.kind) - 1, self.ell)]
        while stack:
            node, x = stack.pop()
            if x <= 0:
                continue
            c1, c2 = tree.left[node], tree.right[node]
            if node < m:
                if self._costs[node][x]:
                    out.add(tree.pairs[node])
            elif tree.kind[node] == SERIAL:
                xp = self._splits[node][x]
                stack.append((c1, xp))
                stack.append((c2, x - xp))
            else:
                stack.append((c1, x))
                stack.append((c2, x))
        return frozenset(out)


# ------------------------------------ cluster solver, one Graph per subset
#
# Every guess from {2..2^x+1, INF} and a fresh renumbered Graph for each
# step-5 block subset; the capped solver must give the same witnesses.


def reference_min_clique_pattern(graph: Graph, clique, x_list, guesses, stats,
                                 deadline, distances):
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


def reference_cvd_fpt(instance: Instance, decomposition: ClusterDecomposition,
                      *, stats=None, deadline=None):
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
                    pattern = reference_min_clique_pattern(
                        g, clique, x_list, oriented, stats, deadline, distances)
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
