"""Undirected graphs with positive integer edge lengths, and the structural
primitives the solvers are built on: deterministic shortest paths, minimum
st-cuts, feedback edge sets, twin classes and cluster vertex deletion sets.

Distances are ints, with ``INF`` (IEEE infinity) as the unreachable sentinel;
it compares greater than every finite distance and is absorbing under +.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, check_deadline

INF = float("inf")


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalized endpoint pair; the canonical identity of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on dense vertex ids 0..n-1.

    Edge ids are positions in the construction order; they are the tie-breakers
    used throughout the solvers.  Instances are immutable after construction.
    """

    __slots__ = ("n", "edges", "lengths", "_adj", "_adj_sets", "_ids")

    def __init__(self, n: int, edges, lengths=None):
        if n < 0:
            raise InputError("vertex count must be >= 0")
        pairs = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            pairs.append(edge_key(u, v))
        if lengths is None:
            lens = [1] * len(pairs)
        else:
            lens = list(lengths)
            if len(lens) != len(pairs):
                raise InputError("lengths and edges differ in count")
            for tau in lens:
                if not isinstance(tau, int) or tau < 1:
                    raise InputError(f"edge length {tau!r} is not a positive integer")
        ids = {}
        for i, pair in enumerate(pairs):
            if pair in ids:
                raise InputError(f"duplicate edge {pair}")
            ids[pair] = i
        self.n = n
        self.edges = tuple(pairs)
        self.lengths = tuple(lens)
        self._ids = ids
        adj = [[] for _ in range(n)]
        for i, (u, v) in enumerate(pairs):
            adj[u].append((v, i))
            adj[v].append((u, i))
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._adj_sets = tuple(frozenset(w for w, _ in a) for a in self._adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int):
        """Pairs (neighbor, edge id), sorted by neighbor id."""
        return self._adj[v]

    def adjacent_set(self, v: int) -> frozenset:
        return self._adj_sets[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._ids

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self._ids[edge_key(u, v)]
        except KeyError:
            raise InputError(f"no edge between {u} and {v}") from None

    def length(self, u: int, v: int) -> int:
        return self.lengths[self.edge_id(u, v)]

    @property
    def unit_length(self) -> bool:
        return all(tau == 1 for tau in self.lengths)

    def without_edges(self, pairs) -> "Graph":
        """New graph with the given edges removed (edge ids renumbered)."""
        drop = {edge_key(u, v) for u, v in pairs}
        for pair in drop:
            if pair not in self._ids:
                raise InputError(f"no edge between {pair[0]} and {pair[1]}")
        kept = [(pair, self.lengths[i]) for i, pair in enumerate(self.edges) if pair not in drop]
        return Graph(self.n, [p for p, _ in kept], [t for _, t in kept])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges, self.lengths) == (other.n, other.edges, other.lengths)

    def __hash__(self):
        return hash((self.n, self.edges, self.lengths))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _dijkstra(graph: Graph, source: int, banned=frozenset()):
    """Distances and deterministic parents from source.

    Tie-breaking: the queue pops the smaller vertex id among equal distances,
    and among equal-distance relaxations the smaller predecessor id wins.
    """
    n = graph.n
    dist = [INF] * n
    parent = [-1] * n
    done = [False] * n
    dist[source] = 0
    heap = [(0, source)]
    edges = graph.edges
    lengths = graph.lengths
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for w, eid in graph.neighbors(v):
            if edges[eid] in banned:
                continue
            nd = d + lengths[eid]
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = v
                heapq.heappush(heap, (nd, w))
            elif nd == dist[w] and not done[w] and v < parent[w]:
                parent[w] = v
    return dist, parent


def shortest_distances(graph: Graph, source: int, banned=frozenset()) -> list:
    """Single-source shortest distances; INF marks unreachable vertices.

    ``banned`` is a set of normalized endpoint pairs treated as deleted.
    """
    if not 0 <= source < graph.n:
        raise InputError(f"vertex {source} outside 0..{graph.n - 1}")
    return _dijkstra(graph, source, banned)[0]


def st_distance(graph: Graph, s: int, t: int, banned=frozenset()):
    return shortest_distances(graph, s, banned)[t]


def shortest_path(graph: Graph, s: int, t: int, banned=frozenset()):
    """Deterministic shortest st-path as a vertex list, or None if t is
    unreachable."""
    if not 0 <= t < graph.n:
        raise InputError(f"vertex {t} outside 0..{graph.n - 1}")
    dist, parent = _dijkstra(graph, s, banned)
    if dist[t] == INF:
        return None
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def path_edges(path) -> list:
    return [edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)]


def min_st_cut(graph: Graph, s: int, t: int, banned=frozenset()):
    """Size and edge set of a minimum st-edge-cut (unit capacities).

    Augmenting-path max-flow on the bidirected residual; the returned cut is
    the boundary of the residual-reachable side of s.  Deterministic.
    """
    if s == t:
        raise InputError("s and t must differ")
    cap = {}
    for pair in graph.edges:
        if pair in banned:
            continue
        u, v = pair
        cap[(u, v)] = 1
        cap[(v, u)] = 1
    flow = 0
    while True:
        parent = {s: -1}
        queue = deque([s])
        while queue and t not in parent:
            v = queue.popleft()
            for w, _ in graph.neighbors(v):
                if w not in parent and cap.get((v, w), 0) > 0:
                    parent[w] = v
                    queue.append(w)
        if t not in parent:
            break
        flow += 1
        w = t
        while w != s:
            v = parent[w]
            cap[(v, w)] -= 1
            cap[(w, v)] += 1
            w = v
    reach = {s}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w, _ in graph.neighbors(v):
            if w not in reach and cap.get((v, w), 0) > 0:
                reach.add(w)
                queue.append(w)
    cut = frozenset(pair for pair in graph.edges
                    if pair not in banned and (pair[0] in reach) != (pair[1] in reach))
    assert len(cut) == flow
    return flow, cut


def min_st_cut_size(graph: Graph, s: int, t: int) -> int:
    return min_st_cut(graph, s, t)[0]


def diameter(graph: Graph, *, deadline=None):
    """Largest pairwise distance; INF when disconnected, 0 for n <= 1."""
    if graph.n <= 1:
        return 0
    worst = 0
    for v in range(graph.n):
        check_deadline(deadline)
        dist = shortest_distances(graph, v)
        worst = max(worst, max(dist))
        if worst == INF:
            return INF
    return worst


def connected_components(graph: Graph) -> list:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * graph.n
    comps = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, _ in graph.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def feedback_edge_set(graph: Graph) -> frozenset:
    """Non-tree edges of a deterministic BFS forest: a minimum feedback edge
    set (deleting it makes the graph a forest)."""
    tree = set()
    seen = [False] * graph.n
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, eid in graph.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    tree.add(graph.edges[eid])
                    queue.append(w)
    return frozenset(pair for pair in graph.edges if pair not in tree)


@dataclass(frozen=True)
class TwinClass:
    """A maximal vertex set whose members all have the same neighborhood
    outside the set (every outside vertex sees all of it or none of it)."""

    members: tuple
    external_neighborhood: tuple


def twin_classes(graph: Graph, excluded=()) -> list:
    """Partition V minus ``excluded`` into maximal classes with identical
    neighborhoods outside the class.

    Partition refinement: a class is split by any outside vertex adjacent to
    some but not all of it; at the fixpoint each class is a maximal such set
    (unions of overlapping valid sets are valid, so the maxima are unique).
    """
    excluded = set(excluded)
    for v in excluded:
        if not 0 <= v < graph.n:
            raise InputError(f"vertex {v} outside 0..{graph.n - 1}")
    rest = [v for v in range(graph.n) if v not in excluded]
    if not rest:
        return []
    classes = [rest]
    changed = True
    while changed:
        changed = False
        refined = []
        for cls in classes:
            if len(cls) == 1:
                refined.append(cls)
                continue
            members = set(cls)
            parts = None
            for w in range(graph.n):
                if w in members:
                    continue
                adj_w = graph.adjacent_set(w)
                inside = [v for v in cls if v in adj_w]
                if inside and len(inside) < len(cls):
                    parts = (inside, [v for v in cls if v not in adj_w])
                    break
            if parts is None:
                refined.append(cls)
            else:
                refined.extend(parts)
                changed = True
        classes = refined
    classes.sort(key=min)
    out = []
    for cls in classes:
        member_set = set(cls)
        ext = sorted(graph.adjacent_set(cls[0]) - member_set)
        for v in cls[1:]:
            assert sorted(graph.adjacent_set(v) - member_set) == ext
        out.append(TwinClass(tuple(sorted(cls)), tuple(ext)))
    return out


@dataclass(frozen=True)
class ClusterDecomposition:
    """A deletion set X such that every component of G - X is a clique."""

    deletion_set: tuple
    cliques: tuple

    @property
    def x(self) -> int:
        return len(self.deletion_set)


def _find_induced_p3(graph: Graph, removed):
    for v in range(graph.n):
        if v in removed:
            continue
        nbrs = [w for w in sorted(graph.adjacent_set(v)) if w not in removed]
        for u, w in combinations(nbrs, 2):
            if w not in graph.adjacent_set(u):
                return (u, v, w)
    return None


def cluster_vertex_deletion_set(graph: Graph, *,
                                deadline=None) -> ClusterDecomposition:
    """Minimum-cardinality cluster vertex deletion set, by iterative deepening
    on the classic 3-way branching over induced paths on three vertices."""

    def search(removed: set, budget: int):
        check_deadline(deadline)
        triple = _find_induced_p3(graph, removed)
        if triple is None:
            return tuple(sorted(removed))
        if budget == 0:
            return None
        for cand in triple:
            removed.add(cand)
            found = search(removed, budget - 1)
            removed.discard(cand)
            if found is not None:
                return found
        return None

    deletion = None
    for budget in range(graph.n + 1):
        deletion = search(set(), budget)
        if deletion is not None:
            break
    assert deletion is not None
    removed = set(deletion)
    cliques = []
    seen = set(removed)
    for start in range(graph.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in sorted(graph.adjacent_set(v)):
                if w not in seen and w not in removed:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        for a, b in combinations(comp, 2):
            assert graph.has_edge(a, b)
        cliques.append(tuple(comp))
    return ClusterDecomposition(deletion, tuple(cliques))


@dataclass(frozen=True)
class Instance:
    """A most-vital-edges instance: make every st-path at least ``ell`` long
    by deleting at most ``k`` edges.  ``ell`` is None for the max-length
    variant, where the target length is what is being optimized."""

    graph: Graph
    s: int
    t: int
    k: int = 0
    ell: "int | None" = None

    def __post_init__(self):
        g = self.graph
        if not (0 <= self.s < g.n and 0 <= self.t < g.n):
            raise InputError("terminal outside vertex range")
        if self.s == self.t:
            raise InputError("s and t must differ")
        if self.k < 0:
            raise InputError("budget k must be >= 0")
        if self.ell is not None and self.ell < 1:
            raise InputError("target length ell must be >= 1")

    @property
    def unit_length(self) -> bool:
        return self.graph.unit_length

    def st_dist(self):
        return st_distance(self.graph, self.s, self.t)

    @property
    def trivially_yes(self) -> bool:
        return self.ell is not None and self.st_dist() >= self.ell


@dataclass(frozen=True)
class Solution:
    """A set of deleted edges together with the independently recomputed
    st-distance of the remaining graph."""

    deleted_edges: frozenset
    achieved_distance: "int | float"

    @property
    def cardinality(self) -> int:
        return len(self.deleted_edges)


def evaluate_solution(graph: Graph, s: int, t: int, edges) -> Solution:
    """Build a Solution, validating edge membership and recomputing the
    achieved distance from scratch."""
    pairs = frozenset(edge_key(u, v) for u, v in edges)
    for pair in pairs:
        if pair not in graph._ids:
            raise InputError(f"solution edge {pair} is not in the graph")
    return Solution(pairs, st_distance(graph, s, t, pairs))
