"""Answers and checks computed apart from the spmve package.

Nothing in this module imports spmve.  Graphs are plain values: a vertex
count, a list of 0-based endpoint pairs and a parallel list of lengths.
Three oracles give the exact optimum, each by a different method than the
solver it vouches for:

- ``PathSearch``: a bounded search that branches on the edges of one
  shortest path, run on a multigraph with pendant trees pruned and
  degree-two chains spliced (sparse-dispatch, grid-search);
- ``exhaustive_table``: every edge subset of each size, with breadth-first
  search on bitmask adjacency (cluster-cvd, unit lengths only);
- ``sp_table``: a dynamic program over the composition tree that the
  benchmark's own series-parallel generator recorded (sp-tables).

All three return the same shape, ``table[j]`` = the largest s-t distance
reachable with at most ``j`` deletions, from which the decision, min-cost and
max-length answers follow.
"""

import heapq
import json
from itertools import combinations

INF = float("inf")


def norm(u, v):
    return (u, v) if u < v else (v, u)


def json_distance(d):
    return "inf" if d == INF else d


def distance(n, edges, lengths, s, t, banned=frozenset()):
    """s-t distance with the normalized pairs in ``banned`` removed: a heap
    Dijkstra over an adjacency list built here, stopping at t."""
    adj = [[] for _ in range(n)]
    for (u, v), ln in zip(edges, lengths):
        if (u, v) not in banned:
            adj[u].append((v, ln))
            adj[v].append((u, ln))
    dist = [INF] * n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v == t:
            return d
        if d > dist[v]:
            continue
        for w, ln in adj[v]:
            nd = d + ln
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return INF


# ------------------------------------------------ search over path edges

class PathSearch:
    """Largest s-t distance after at most j deletions, by branching on the
    edges of a shortest path: a deletion set that misses some shortest path
    leaves the distance where it is, so the optimum either equals the
    current distance or deletes one of that path's edges.

    The search runs on a reduced multigraph.  Non-terminal vertices of
    degree one are pruned (no s-t path uses them) and non-terminal vertices
    of degree two are spliced into one edge of summed length (deleting any
    edge of a chain cuts the whole chain, and a chain closing on itself is
    dropped).  Both steps keep every answer; parallel edges may appear.
    """

    def __init__(self, n, edges, lengths, s, t):
        self.s, self.t = s, t
        ends = {i: pair for i, pair in enumerate(edges)}
        size = dict(enumerate(lengths))
        inc = [set() for _ in range(n)]
        for i, (u, v) in ends.items():
            inc[u].add(i)
            inc[v].add(i)
        fresh = len(edges)

        def drop(eid):
            u, v = ends.pop(eid)
            inc[u].discard(eid)
            inc[v].discard(eid)
            del size[eid]

        work = list(range(n))
        while work:
            v = work.pop()
            if v in (s, t):
                continue
            if len(inc[v]) == 1:
                (e,) = inc[v]
                u = ends[e][0] + ends[e][1] - v
                drop(e)
                work.append(u)
            elif len(inc[v]) == 2:
                e1, e2 = sorted(inc[v])
                a = ends[e1][0] + ends[e1][1] - v
                b = ends[e2][0] + ends[e2][1] - v
                total = size[e1] + size[e2]
                drop(e1)
                drop(e2)
                if a != b:
                    ends[fresh] = (a, b)
                    size[fresh] = total
                    inc[a].add(fresh)
                    inc[b].add(fresh)
                    fresh += 1
                work.extend((a, b))
        self.adj = {}
        for eid, (u, v) in ends.items():
            self.adj.setdefault(u, []).append((v, eid, size[eid]))
            self.adj.setdefault(v, []).append((u, eid, size[eid]))
        self.reduced_m = len(ends)
        self._memo = {}

    def _shortest(self, banned):
        """(distance, edge ids of one shortest path) or (INF, None)."""
        s, t, adj = self.s, self.t, self.adj
        dist = {s: 0}
        prev = {}
        heap = [(0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if v == t:
                path = []
                while v != s:
                    eid, v = prev[v]
                    path.append(eid)
                return d, path
            if d > dist[v]:
                continue
            for w, eid, ln in adj.get(v, ()):
                if eid in banned:
                    continue
                nd = d + ln
                if nd < dist.get(w, INF):
                    dist[w] = nd
                    prev[w] = (eid, v)
                    heapq.heappush(heap, (nd, w))
        return INF, None

    def best(self, budget, banned=frozenset()):
        """Largest s-t distance reachable by deleting at most ``budget``
        further edges after ``banned``."""
        key = (banned, budget)
        if key in self._memo:
            return self._memo[key]
        d, path = self._shortest(banned)
        result = d
        if path is not None and budget > 0:
            for eid in path:
                result = max(result, self.best(budget - 1, banned | {eid}))
                if result == INF:
                    break
        self._memo[key] = result
        return result

    def table(self, kmax):
        return [self.best(j) for j in range(kmax + 1)]

    def tree_size(self, budget, ell, banned=frozenset(), memo=None):
        """Nodes of the plain search tree that decides (budget, ell) without
        memoization or early exit: a measure of how hard a no answer is."""
        memo = {} if memo is None else memo
        key = (banned, budget)
        if key not in memo:
            d, path = self._shortest(banned)
            memo[key] = 1
            if path is not None and d < ell and budget > 0:
                memo[key] += sum(self.tree_size(budget - 1, ell,
                                                banned | {eid}, memo)
                                 for eid in path)
        return memo[key]


# ------------------------------------------------- exhaustive enumeration

def exhaustive_table(n, edges, s, t, kmax):
    """table[j] = largest s-t hop distance after deleting some j edges
    (unit lengths), trying every subset of each size up to kmax.  More
    deletions never shorten a distance, so size exactly j is the best of
    size at most j."""
    base = [0] * n
    for u, v in edges:
        base[u] |= 1 << v
        base[v] |= 1 << u
    target = 1 << t

    def hops(nbr):
        seen = frontier = 1 << s
        depth = 0
        while frontier:
            if frontier & target:
                return depth
            depth += 1
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= nbr[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~seen
            seen |= frontier
        return INF

    table = []
    for size in range(min(kmax, len(edges)) + 1):
        best = -1
        for combo in combinations(edges, size):
            nbr = list(base)
            for u, v in combo:
                nbr[u] &= ~(1 << v)
                nbr[v] &= ~(1 << u)
            best = max(best, hops(nbr))
            if best == INF:
                break
        table.append(best)
    # past m every edge is gone and the terminals are apart
    return table + [INF] * (kmax + 1 - len(table))


# ------------------------------------------- series-parallel composition DP

def sp_table(tree, lengths):
    """table[j] for j = 0..cut of the root: the largest terminal distance
    with at most j deletions, over the recorded composition tree.  A tree
    node is ("L", edge index), ("S", left, right) or ("P", left, right).
    A node's table ends at its cut size, where the value is infinite."""
    done = {}
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if node[0] == "L":
            done[id(node)] = [lengths[node[1]], INF]
            continue
        if not expanded:
            stack.append((node, True))
            stack.append((node[1], False))
            stack.append((node[2], False))
            continue
        a, b = done.pop(id(node[1])), done.pop(id(node[2]))
        serial = node[0] == "S"
        cut = min(len(a), len(b)) - 1 if serial else len(a) + len(b) - 2
        vals = []
        for j in range(cut + 1):
            best = -1
            for j1 in range(j + 1):
                x = a[min(j1, len(a) - 1)]
                y = b[min(j - j1, len(b) - 1)]
                best = max(best, x + y if serial else min(x, y))
            vals.append(best)
        done[id(node)] = vals
    return done[id(tree)]


def answer_from_table(table, variant, k, ell):
    """The exact JSON answer of a query, from a max-length table that reaches
    ``k`` (or ends at the cut size) and, for min-cost, some entry >= ell."""
    def at(j):
        if j < len(table):
            return table[j]
        if table[-1] != INF:
            raise ValueError(f"table of {len(table)} entries cannot answer "
                             f"k={j}")
        return INF  # past the cut size
    if variant == "decision":
        return "yes" if at(k) >= ell else "no"
    if variant == "mincost":
        return next(j for j, d in enumerate(table) if d >= ell)
    return json_distance(at(k))


# ------------------------------------------------------------- the checker

def strip_wall(line):
    """A solve's JSON line without its ``wall_ms`` field, re-serialized the
    way the program writes it, for pass-to-pass byte comparison."""
    payload = json.loads(line)
    payload.pop("wall_ms", None)
    return json.dumps(payload, sort_keys=True)


def check(graph, query, payload, expected):
    """Problems with one solve's output (empty when it is right).

    ``graph`` is (n, edges, lengths, s, t) as generated; ``expected`` the
    oracle's answer.  An ``"unknown"`` answer is accepted only for a query
    that carries a deadline.
    """
    n, edges, lengths, s, t = graph
    variant, k, ell = query["variant"], query.get("k"), query.get("ell")
    problems = []
    answer = payload.get("answer")
    if payload.get("variant") != variant:
        problems.append(f"variant {payload.get('variant')!r}")
    if answer == "unknown" and query.get("timeout_ms"):
        if payload.get("solution_edges") is not None:
            problems.append("unknown answer carries a witness")
        return problems
    witness = payload.get("solution_edges")
    if witness is None:
        if not (variant == "decision" and answer == "no"):
            problems.append("missing witness")
        if payload.get("distance_after") is not None:
            problems.append("distance without a witness")
    else:
        present = set(edges)
        pairs = set()
        for item in witness:
            pair = norm(item[0] - 1, item[1] - 1)
            if pair not in present:
                problems.append(f"witness edge {item} not in the graph")
            pairs.add(pair)
        if len(pairs) != len(witness):
            problems.append("witness repeats an edge")
        d = json_distance(distance(n, edges, lengths, s, t, frozenset(pairs)))
        if payload.get("distance_after") != d:
            problems.append(f"distance_after {payload.get('distance_after')}"
                            f" but the witness gives {d}")
        if variant != "mincost" and len(pairs) > k:
            problems.append(f"{len(pairs)} deletions exceed k={k}")
        if variant == "decision":
            if answer != "yes":
                problems.append("witness on a no answer")
            if d != "inf" and d < ell:
                problems.append(f"witness reaches {d} < ell={ell}")
        elif variant == "mincost":
            if answer != len(pairs):
                problems.append(f"answer {answer} != |witness| {len(pairs)}")
            if d != "inf" and d < ell:
                problems.append(f"witness reaches {d} < ell={ell}")
        elif answer != d:
            problems.append(f"answer {answer} != distance_after {d}")
    if answer != expected:
        problems.append(f"answer {answer!r}, oracle says {expected!r}")
    return problems
