"""Undirected graphs with positive integer edge lengths, and the structural
primitives the solvers are built on: deterministic shortest paths, minimum
st-cuts, feedback edge sets, twin classes and cluster vertex deletion sets.
A graph keeps one adjacency, (neighbor, edge id) pairs sorted by neighbor,
and never changes, so it keeps each terminal pair's min cut and path, and,
once a search asks, the full distance arrays from s and from t.

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

    Edge ids are construction-order positions and the solvers' tie-breakers.
    It keeps one adjacency (``_adj``; ``adjacent_set`` builds a set per call)
    and, immutable, each pair's min cut, path and full distance arrays
    (``_cuts``, ``_paths``, ``_arrays``).
    """

    __slots__ = ("n", "edges", "lengths", "_adj", "_ids", "_cuts", "_paths",
                 "_arrays")

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
        self._cuts, self._paths, self._arrays = {}, {}, {}  # per (s, t)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int):
        """Pairs (neighbor, edge id), sorted by neighbor id."""
        return self._adj[v]

    def adjacent_set(self, v: int) -> frozenset:
        """Neighbor ids, built from ``neighbors`` on each call."""
        return frozenset(w for w, _ in self._adj[v])

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

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges, self.lengths) == (other.n, other.edges, other.lengths)

    def __hash__(self):
        return hash((self.n, self.edges, self.lengths))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _check_vertex(graph: Graph, v: int):
    if not 0 <= v < graph.n:
        raise InputError(f"vertex {v} outside 0..{graph.n - 1}")


def _dijkstra(graph: Graph, source: int, banned=frozenset(), target=None,
              potential=None, below=INF):
    """Distances, parents and parent edge ids from source in the graph minus
    the edge ids in ``banned``; InputError if source, or target when given,
    is not a vertex.

    Tie-breaking: among equal-distance relaxations the smaller predecessor
    id wins, so a vertex's parent is its smallest tight predecessor (one on
    a shortest path to it).  With ``target`` given the run stops once it is
    settled.  Lengths are positive, so every vertex on its tree path was
    settled earlier, and a settled vertex's distance and parent are final:
    the path and its length are those of the full run.  Neither depends on
    the order of an adjacency list, since queue ties go by vertex id.

    A ``potential`` h makes the run goal-directed (A*; Hart, Nilsson &
    Raphael 1968): the queue pops by (g + h, g, vertex id) instead of
    (g, vertex id).  h must be consistent, h(u) <= tau(u, v) + h(v) on every
    edge, as the distances to the target in any supergraph are.  Then each
    tight predecessor y of a vertex x has g(y) < g(x) and g(y) + h(y) <=
    g(x) + h(x), so y pops first, a popped vertex's g is final, and every
    settled vertex gets the parent the plain run gives it.

    With h, a relaxation with g + h above ``below`` neither records nor
    pushes its vertex, which then reads INF unless a shorter relaxation
    keeps it.  The tight predecessors of a kept vertex are kept, by the
    inequality above, so every vertex with g + h <= ``below`` (every vertex
    of a path no longer than ``below``, for one) keeps the plain run's
    distance and parent; the others read INF.  Plain runs ignore ``below``.
    """
    _check_vertex(graph, source)
    if target is not None:
        _check_vertex(graph, target)
    n = graph.n
    dist = [INF] * n
    parent = [-1] * n
    via = [-1] * n
    done = [False] * n
    dist[source] = 0
    h = potential
    heap = [(0, source) if h is None else (h[source], 0, source)]
    adj = graph._adj
    lengths = graph.lengths
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        if h is None:
            d, v = pop(heap)
        else:
            _, d, v = pop(heap)
        if done[v]:
            continue
        done[v] = True
        if v == target:
            break
        for w, eid in adj[v]:
            if eid in banned:
                continue
            nd = d + lengths[eid]
            if nd < dist[w]:
                if h is None:
                    push(heap, (nd, w))
                else:
                    f = nd + h[w]
                    if f > below:
                        continue
                    push(heap, (f, nd, w))
                dist[w] = nd
                parent[w] = v
                via[w] = eid
            elif nd == dist[w] and not done[w] and v < parent[w]:
                parent[w] = v
                via[w] = eid
    return dist, parent, via


def _st_arrays(graph: Graph, s: int, t: int):
    """(d_s, parent, via, d_t): the full runs from s and from t with
    nothing banned, kept on the immutable graph per terminal pair.  Deleting
    edges only lengthens paths, so d_t and d_s are consistent potentials
    for the runs from s and from t in every G - B."""
    arrays = graph._arrays.get((s, t))
    if arrays is None:
        arrays = _dijkstra(graph, s) + (_dijkstra(graph, t)[0],)
        graph._arrays[s, t] = arrays
    return arrays


def _edge_ids(graph: Graph, pairs) -> frozenset:
    """Edge ids of the normalized endpoint pairs in ``pairs``; other pairs
    name no edge and are dropped."""
    ids = graph._ids
    return frozenset(ids[pair] for pair in pairs if pair in ids)


def _tree_path(s: int, t: int, parent, via):
    """Vertices and edge ids of the tree path from s to t, in order from s."""
    vertices = [t]
    eids = []
    while vertices[-1] != s:
        eids.append(via[vertices[-1]])
        vertices.append(parent[vertices[-1]])
    vertices.reverse()
    eids.reverse()
    return vertices, eids


def shortest_distances(graph: Graph, source: int, banned=frozenset()) -> list:
    """Single-source shortest distances; INF marks unreachable vertices.

    ``banned`` is a set of normalized endpoint pairs treated as deleted.
    """
    return _dijkstra(graph, source, _edge_ids(graph, banned))[0]


def st_distance(graph: Graph, s: int, t: int, banned=frozenset()):
    ids = _edge_ids(graph, banned)
    if ids:  # needs no path, so skips st_path_ids' walk along it
        return _dijkstra(graph, s, ids, t)[0][t]
    return st_path_ids(graph, s, t)[0]


def st_path_ids(graph: Graph, s: int, t: int, banned=frozenset(), *,
                below=INF):
    """(distance, edge ids of the shortest st-path in order from s) in the
    graph minus the edge ids in ``banned``; the ids are None when t is
    unreachable.  The path is ``_dijkstra``'s s-tree path to t.  With nothing
    banned it is kept on the immutable graph per terminal pair, as a tuple.

    With bans and a finite ``below``, the run is goal-directed by the kept
    d_t (``_st_arrays``) and bounded at ``below``: a distance up to
    ``below`` and its path are exact, and above it the answer is
    (INF, None).  With nothing banned the kept path answers either way."""
    if not banned and (s, t) in graph._paths:
        dist, ids = graph._paths[s, t]
        return dist, None if ids is None else list(ids)
    h = _st_arrays(graph, s, t)[3] if banned and below < INF else None
    dist, parent, via = _dijkstra(graph, s, banned, t, h, below)
    ids = None if dist[t] == INF else _tree_path(s, t, parent, via)[1]
    if not banned:
        graph._paths[s, t] = dist[t], None if ids is None else tuple(ids)
    return dist[t], ids


def replacement_distances(graph: Graph, s: int, t: int, banned=frozenset(),
                          *, below=INF):
    """(d, path, after) in G - B, where B is the set of edge ids ``banned``:
    the st-distance d, the edge ids of ``st_path_ids``'s path in order from s
    (None when t is unreachable) and, for each of them, the st-distance once
    that edge is deleted too.  ``after`` is None when d >= ``below``, and
    then the run from t is skipped.

    With nothing banned, the two runs are the kept full ones
    (``_st_arrays``).  With bans and a finite ``below``, both runs are
    bounded at ``below`` (``_dijkstra``), the one from s goal-directed by
    the kept d_t and the one from t by the kept d_s: a d up to ``below`` and
    its path are exact, and a larger d reads (INF, None, None).  Both ends
    of a term up to ``below`` in the edge loop below are kept by both runs,
    and a term with an end that a run cut reads INF, its true value being
    above ``below`` by the consistency of the potentials.  So entries up to
    ``below`` are exact, and the others read above it.

    Two runs give every entry (Malik, Mittal & Gupta, Oper. Res. Lett. 8,
    1989).  Let p_0 = s, ..., p_L = t be the path, which is the s-tree path
    to t, and e_i = (p_i, p_{i+1}).  level(x) is the index of the last path
    vertex on the s-tree path to x.  Deleting e_i cuts exactly the vertices
    with level > i off the s-tree, so d_s(u) is unchanged for level(u) <= i.
    And d_t(x) is unchanged for level(x) > i: the tree path from p_{i+1}
    down to x, then the path on to t, avoids e_i and has length
    d_s(x) - d_s(p_{i+1}) + d_t(p_{i+1}).  A walk from x to t through e_i
    either passes p_{i+1} -> p_i, and then d_t(p_{i+1}) would be
    2 tau(e_i) + d_t(p_{i+1}) since p_i precedes p_{i+1} on a shortest path,
    or reaches p_i first, at least d_s(x) - d_s(p_i) away, and is then at
    least 2 tau(e_i) longer.  Lengths are positive, so neither is a
    shortest one.  Every st-path in G - B - e_i crosses from level <= i to
    level > i on some edge (u, v) other than e_i, so

        after[i] = min d_s(u) + tau(u, v) + d_t(v)
                   over (u, v) in G - B, (u, v) != e_i, level(u) <= i < level(v),

    and each term is the length of such a path; INF when none exists.
    """
    _check_vertex(graph, t)
    if banned:
        to_s = to_t = None  # the potentials of the two runs
        if below < INF:
            to_s, _, _, to_t = _st_arrays(graph, s, t)
        dist_s, parent, via = _dijkstra(graph, s, banned, None, to_t, below)
    else:
        dist_s, parent, via, dist_t = _st_arrays(graph, s, t)
    d = dist_s[t]
    if d == INF:
        return d, None, None
    vertices, path = _tree_path(s, t, parent, via)
    if d >= below:
        return d, path, None
    if banned:
        dist_t = _dijkstra(graph, t, banned, None, to_s, below)[0]
    level = [-1] * graph.n
    for i, v in enumerate(vertices):
        level[v] = i
    # parents are strictly nearer s, so they come first in distance order
    for x in sorted(range(graph.n), key=dist_s.__getitem__):
        if dist_s[x] == INF:
            break
        if level[x] < 0:
            level[x] = level[parent[x]]
    on_path = set(path)
    edges, lengths = graph.edges, graph.lengths
    after = [INF] * len(path)
    for eid, (u, v) in enumerate(edges):
        lu, lv = level[u], level[v]
        if lu == lv or eid in banned or eid in on_path:
            continue
        if lu > lv:
            u, v, lu, lv = v, u, lv, lu
        through = dist_s[u] + lengths[eid] + dist_t[v]
        for i in range(lu, lv):
            if through < after[i]:
                after[i] = through
    return d, path, after


def min_st_cut(graph: Graph, s: int, t: int):
    """Size and edge set of a minimum st-edge-cut (unit capacities).

    Augmenting-path max-flow; the returned cut is the boundary of the
    residual-reachable side of s.  The residual is one flow direction per
    edge: ``head[eid]`` is the vertex a unit of flow on the edge enters, or
    -1, and the arc v -> w has room unless the flow already enters w.
    Deterministic, and kept on the (immutable) graph per terminal pair.
    """
    _check_vertex(graph, s)
    _check_vertex(graph, t)
    if s == t:
        raise InputError("s and t must differ")
    if (s, t) in graph._cuts:
        return graph._cuts[s, t]
    n = graph.n
    adj = graph._adj
    head = [-1] * graph.m
    flow = 0
    while True:
        seen = [False] * n
        seen[s] = True
        prev = [(-1, -1)] * n  # (vertex, edge id) the BFS arrived from
        queue = deque([s])
        while queue and not seen[t]:
            v = queue.popleft()
            for w, eid in adj[v]:
                if not seen[w] and head[eid] != w:
                    seen[w] = True
                    prev[w] = (v, eid)
                    queue.append(w)
        if not seen[t]:
            break
        flow += 1
        w = t
        while w != s:
            v, eid = prev[w]
            head[eid] = -1 if head[eid] == v else w
            w = v
    # the last search missed t, so it ran until its queue emptied: ``seen``
    # is the residual-reachable side of s
    cut = frozenset(pair for pair in graph.edges
                    if seen[pair[0]] != seen[pair[1]])
    if len(cut) != flow:
        raise AssertionError("minimum cut size differs from the flow")
    graph._cuts[s, t] = flow, cut
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


def diameter_at_most_two(graph: Graph, *, deadline=None) -> bool:
    """Same truth value as ``diameter(graph) <= 2``.  With unit lengths it
    needs no diameter: every vertex's two-hop ball must hold the whole graph,
    and the first ball that misses a vertex answers False.  A vertex's
    neighbour set is built when a ball first touches it, so a sparse graph
    stops after a few.  Other lengths fall back to the full diameter."""
    if not graph.unit_length:
        return diameter(graph, deadline=deadline) <= 2
    n = graph.n
    adj = [None] * n

    def near(v):
        if adj[v] is None:
            adj[v] = graph.adjacent_set(v)
        return adj[v]

    for v in range(n):
        check_deadline(deadline)
        ball = set(near(v))
        ball.add(v)
        for w in adj[v]:
            if len(ball) == n:
                break
            ball |= near(w)
        if len(ball) < n:
            return False
    return True


def _bfs_forest(graph: Graph, skip=()):
    """Breadth-first forest of the graph minus the vertices in ``skip``,
    rooted at each unseen vertex in id order and walking ``neighbors`` in
    order: (components as sorted vertex lists, ordered by smallest member;
    each vertex's tree edge id, -1 at roots and skipped vertices)."""
    seen = [False] * graph.n
    for v in skip:
        seen[v] = True
    via = [-1] * graph.n
    comps = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, eid in graph.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    via[w] = eid
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps, via


def connected_components(graph: Graph) -> list:
    """Components as sorted vertex lists, ordered by smallest member."""
    return _bfs_forest(graph)[0]


def feedback_edge_set(graph: Graph) -> frozenset:
    """Non-tree edges of a deterministic BFS forest: a minimum feedback edge
    set (deleting it makes the graph a forest)."""
    tree = set(_bfs_forest(graph)[1])
    return frozenset(p for i, p in enumerate(graph.edges) if i not in tree)


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
        _check_vertex(graph, v)
    rest = [v for v in range(graph.n) if v not in excluded]
    if not rest:
        return []
    adj = [graph.adjacent_set(v) for v in range(graph.n)]
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
                adj_w = adj[w]
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
        ext = sorted(adj[cls[0]] - member_set)
        for v in cls[1:]:
            if sorted(adj[v] - member_set) != ext:
                raise AssertionError("twin class members differ outside it")
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
        nbrs = [w for w, _ in graph.neighbors(v) if w not in removed]
        for u, w in combinations(nbrs, 2):
            if not graph.has_edge(u, w):
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
    if deletion is None:
        raise AssertionError("no cluster vertex deletion set was found")
    cliques = _bfs_forest(graph, skip=deletion)[0]
    for comp in cliques:
        for a, b in combinations(comp, 2):
            if not graph.has_edge(a, b):
                raise AssertionError("a remaining component is not a clique")
    return ClusterDecomposition(deletion, tuple(map(tuple, cliques)))


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

    @property
    def trivially_yes(self) -> bool:
        return (self.ell is not None
                and st_distance(self.graph, self.s, self.t) >= self.ell)


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
    achieved distance on the graph (with no edges, the kept plain one)."""
    pairs = frozenset(edge_key(u, v) for u, v in edges)
    for pair in pairs:
        if pair not in graph._ids:
            raise InputError(f"solution edge {pair} is not in the graph")
    return Solution(pairs, st_distance(graph, s, t, pairs))
