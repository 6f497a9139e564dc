"""Instance generators.

The four transformation generators rebuild known hardness constructions at
desk scale, where their answer-preservation claims become testable facts; the
random families provide seeded corpora with structural guarantees (a
series-parallel decomposition, a small cluster deletion set, a small feedback
edge set).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, PreconditionError
from .graph import Graph, Instance, connected_components, edge_key
from .sptree import build_sp_tree


@dataclass(frozen=True)
class TripartiteGraph:
    """Graph on dense vertex ids whose vertices are split into three parts,
    with every edge running between two distinct parts."""

    v1: tuple
    v2: tuple
    v3: tuple
    edges: tuple

    def __post_init__(self):
        parts = [tuple(sorted(p)) for p in (self.v1, self.v2, self.v3)]
        object.__setattr__(self, "v1", parts[0])
        object.__setattr__(self, "v2", parts[1])
        object.__setattr__(self, "v3", parts[2])
        seen = [v for p in parts for v in p]
        if len(set(seen)) != len(seen):
            raise InputError("parts must be disjoint")
        if set(seen) != set(range(len(seen))):
            raise InputError("vertex ids must be dense from 0")
        part = self.part_of
        pairs = []
        for u, v in self.edges:
            if u == v or part[u] == part[v]:
                raise InputError("edges must join two distinct parts")
            pairs.append(edge_key(u, v))
        if len(set(pairs)) != len(pairs):
            raise InputError("duplicate edge")
        object.__setattr__(self, "edges", tuple(sorted(pairs)))

    @property
    def n(self) -> int:
        return len(self.v1) + len(self.v2) + len(self.v3)

    @property
    def part_of(self) -> dict:
        return {v: i for i, p in enumerate((self.v1, self.v2, self.v3), 1)
                for v in p}


class _Builder:
    """Accumulates a unit-length graph, handing out fresh vertex ids."""

    def __init__(self, preallocated: int):
        self.n = preallocated
        self.pairs = []

    def vertex(self) -> int:
        v = self.n
        self.n += 1
        return v

    def edge(self, u: int, v: int):
        self.pairs.append(edge_key(u, v))

    def gadget(self, a: int, b: int, alpha: int, branches: int):
        """``branches`` internally disjoint a-b paths, each of length alpha.
        Deleting fewer than ``branches`` edges in here changes nothing."""
        if alpha < 2:
            raise AssertionError("gadget paths need length at least 2")
        for _ in range(branches):
            prev = self.vertex()
            self.edge(a, prev)
            for _ in range(alpha - 2):
                w = self.vertex()
                self.edge(prev, w)
                prev = w
            self.edge(prev, b)

    def graph(self) -> Graph:
        return Graph(self.n, self.pairs, [1] * len(self.pairs))


def _cover_layout(tg: TripartiteGraph, h: int, g12: int, g23: int, g13: int,
                  gs2: int, g2t: int) -> Graph:
    """Shared vertex-cover gadget layout.

    Vertex ids: s=0, t=1, then the tripartite vertices shifted by two, then
    one copy per middle-part vertex, then gadget internals in construction
    order.  Selection edges (the only ones worth deleting) come first: the
    copy edges, then s to the first part, then the third part to t.
    """
    if h < 0:
        raise InputError("cover budget must be non-negative")
    if h >= tg.n:
        raise InputError("cover budget must stay below the vertex count")
    n = tg.n
    part = tg.part_of
    s, t = 0, 1
    orig = {v: 2 + v for v in range(n)}
    copy = {v: 2 + n + i for i, v in enumerate(tg.v2)}
    b = _Builder(2 + n + len(tg.v2))
    for v in tg.v2:
        b.edge(orig[v], copy[v])
    for u in tg.v1:
        b.edge(s, orig[u])
    for w in tg.v3:
        b.edge(orig[w], t)
    for u, v in tg.edges:
        if part[u] > part[v]:
            u, v = v, u
        if (part[u], part[v]) == (1, 2):
            b.gadget(orig[u], orig[v], g12, n)
        elif (part[u], part[v]) == (2, 3):
            b.gadget(copy[u], orig[v], g23, n)
        else:
            b.gadget(orig[u], orig[v], g13, n)
    for v in tg.v2:
        b.gadget(s, orig[v], gs2, n)
    for v in tg.v2:
        b.gadget(copy[v], t, g2t, n)
    return b.graph()


def gen_vc_reduction(tg: TripartiteGraph, h: int) -> Instance:
    """Unit-length decision instance that asks for distance at least 9 with
    budget h; it is a yes exactly when the tripartite graph has a vertex
    cover of at most h vertices.  The undeletable routes have length 9, and
    each offending shorter route crosses exactly the two single edges that
    stand for selecting the endpoints of one original edge."""
    graph = _cover_layout(tg, h, 2, 2, 5, 4, 4)
    return Instance(graph, 0, 1, h, 9)


def gen_gap_reduction(tg: TripartiteGraph, h: int, x: int):
    """Budget-h Max-Length instance whose optimum lands on one side of a gap:
    at least 4x+1 when the tripartite graph has a vertex cover of size at
    most h, at most 3x+2 otherwise.  Returns (instance, thresholds)."""
    if x < 2:
        raise InputError("gadget scale must be at least 2")
    graph = _cover_layout(tg, h, x, x, 3 * x, 2 * x, 2 * x)
    return Instance(graph, 0, 1, h, None), (4 * x + 1, 3 * x + 2)


def gen_subdivision(instance: Instance) -> Instance:
    """Replace every edge by a length-two path; the budget stays put and the
    target doubles.  Preserves the answer and leaves a bipartite graph in
    which every subdivision vertex has degree two."""
    if not instance.unit_length:
        raise InputError("subdivision expects unit lengths")
    g = instance.graph
    pairs = []
    for eid, (u, v) in enumerate(g.edges):
        mid = g.n + eid
        pairs.append(edge_key(u, mid))
        pairs.append(edge_key(mid, v))
    ell = None if instance.ell is None else 2 * instance.ell
    graph = Graph(g.n + g.m, pairs, [1] * len(pairs))
    return Instance(graph, instance.s, instance.t, instance.k, ell)


def gen_split_reduction(instance: Instance, multiplicity=None) -> Instance:
    """Split-graph instance: the original vertices become a clique, and each
    original edge becomes ``multiplicity`` independent common neighbors of
    its endpoints.  Budget grows to (n choose 2) + k*multiplicity — enough to
    erase the clique and block k two-step routes, but one short of a single
    route more — and the target doubles.  Answer preserved."""
    if not instance.unit_length:
        raise InputError("split reduction expects unit lengths")
    if instance.ell is None:
        raise InputError("split reduction needs a target length")
    g = instance.graph
    n = g.n
    clique_m = n * (n - 1) // 2
    mult = n * n if multiplicity is None else multiplicity
    if mult <= clique_m:
        raise InputError(
            "multiplicity must exceed the clique size (n choose 2) "
            "for the budget accounting to bind")
    pairs = [tuple(pq) for pq in combinations(range(n), 2)]
    for eid, (u, v) in enumerate(g.edges):
        for j in range(mult):
            w = n + eid * mult + j
            pairs.append(edge_key(u, w))
            pairs.append(edge_key(v, w))
    graph = Graph(n + g.m * mult, pairs, [1] * len(pairs))
    return Instance(graph, instance.s, instance.t,
                    clique_m + instance.k * mult, 2 * instance.ell)


def gen_complete_reduction(instance: Instance) -> Instance:
    """Add every missing edge with length ell+1.  Such edges never lie on a
    path shorter than ell, so nothing about the instance's answer changes,
    but the graph becomes complete."""
    if instance.ell is None:
        raise InputError("completion needs a target length")
    g = instance.graph
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise PreconditionError("isolated vertices are not supported")
    pairs = list(g.edges)
    lengths = list(g.lengths)
    for u, v in combinations(range(g.n), 2):
        if not g.has_edge(u, v):
            pairs.append((u, v))
            lengths.append(instance.ell + 1)
    graph = Graph(g.n, pairs, lengths)
    return Instance(graph, instance.s, instance.t, instance.k, instance.ell)


FAMILIES = ("erdos-renyi", "series-parallel", "cluster-plus-x",
            "tree-plus-f-edges")


def _pick_terminals(rng, graph):
    eligible = [c for c in connected_components(graph) if len(c) >= 2]
    if not eligible:
        return None
    comp = sorted(eligible)[rng.randrange(len(eligible))]
    s = comp[rng.randrange(len(comp))]
    rest = [v for v in comp if v != s]
    t = rest[rng.randrange(len(rest))]
    return s, t


def _lengths(rng, count, max_length):
    if max_length == 1:
        return [1] * count
    return [rng.randint(1, max_length) for _ in range(count)]


def _gen_erdos_renyi(rng, n, p, max_length):
    for _ in range(100):
        pairs = [pq for pq in combinations(range(n), 2) if rng.random() < p]
        graph = Graph(n, [tuple(pq) for pq in pairs],
                      _lengths(rng, len(pairs), max_length))
        picked = _pick_terminals(rng, graph)
        if picked is not None:
            return Instance(graph, picked[0], picked[1])
    raise InputError("no connected terminal pair arose; raise p or n")


def _gen_series_parallel(rng, m, max_length):
    pairs = []
    counter = [2]

    def emit(a, b, budget, may_be_edge):
        if budget == 1:
            if not may_be_edge:
                raise AssertionError("a parallel part became a single edge")
            pairs.append(edge_key(a, b))
            return
        parallel_ok = budget >= 3 if may_be_edge else budget >= 4
        if parallel_ok and rng.random() < 0.45:
            if may_be_edge:
                first = rng.randint(1, budget - 2)
                sides = [(first, True), (budget - first, False)]
            else:
                first = rng.randint(2, budget - 2)
                sides = [(first, False), (budget - first, False)]
            rng.shuffle(sides)
            for side_budget, flag in sides:
                emit(a, b, side_budget, flag)
        else:
            mid = counter[0]
            counter[0] += 1
            first = rng.randint(1, budget - 1)
            emit(a, mid, first, True)
            emit(mid, b, budget - first, True)

    emit(0, 1, m, True)
    graph = Graph(counter[0], pairs, _lengths(rng, len(pairs), max_length))
    if build_sp_tree(graph, 0, 1) is None:
        raise AssertionError("generated graph is not series-parallel")
    return Instance(graph, 0, 1)


def _gen_cluster_plus_x(rng, n, x, max_length):
    if not 0 <= x < n:
        raise InputError("need 0 <= x < n")
    for _ in range(100):
        pairs = []
        rest = list(range(x, n))
        while rest:
            size = rng.randint(1, min(4, len(rest)))
            clique, rest = rest[:size], rest[size:]
            pairs.extend(tuple(pq) for pq in combinations(clique, 2))
        for u, v in combinations(range(x), 2):
            if rng.random() < 0.3:
                pairs.append((u, v))
        for u in range(x):
            for v in range(x, n):
                if rng.random() < 0.4:
                    pairs.append((u, v))
        pairs.sort()
        graph = Graph(n, pairs, _lengths(rng, len(pairs), max_length))
        picked = _pick_terminals(rng, graph)
        if picked is not None:
            return Instance(graph, picked[0], picked[1])
    raise InputError("no connected terminal pair arose; grow the cliques")


class _SparePairs(Sequence):
    """The vertex pairs that are not tree edges, in ``combinations(range(n),
    2)`` order, in memory linear in n; ``random.sample`` draws from it as
    from their list.  Pair (p, q) has rank starts[p] + q - p - 1, and the
    i-th spare rank is i plus the number of tree ranks with at most i spare
    ranks below them."""

    def __init__(self, n, tree):
        self._starts = [p * (2 * n - p - 1) // 2 for p in range(n)]
        ranks = sorted(self._starts[p] + q - p - 1 for p, q in tree)
        self._below = [r - j for j, r in enumerate(ranks)]  # spare ranks below
        self._len = n * (n - 1) // 2 - len(ranks)

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if not 0 <= i < self._len:
            raise IndexError(i)
        r = i + bisect_right(self._below, i)
        p = bisect_right(self._starts, r) - 1
        return (p, r - self._starts[p] + p + 1)


def _gen_tree_plus_f(rng, n, f, max_length):
    if n < 2:
        raise InputError("need n >= 2")
    tree = [edge_key(v, rng.randrange(v)) for v in range(1, n)]
    spare = _SparePairs(n, tree)
    if f > len(spare):
        raise InputError("not enough vertex pairs for the extra edges")
    extra = sorted(rng.sample(spare, f))
    pairs = sorted(tree + extra)
    graph = Graph(n, pairs, _lengths(rng, len(pairs), max_length))
    s = rng.randrange(n)
    t = (s + 1 + rng.randrange(n - 1)) % n
    return Instance(graph, s, t)


def gen_random(family: str, *, seed: int, n=None, m=None, p=0.3, x=None,
               f=None, max_length: int = 1) -> Instance:
    """Seeded random instance from one of four families.

    erdos-renyi: needs n (optionally p).  series-parallel: needs m; the
    result always admits a series-parallel decomposition between its
    terminals.  cluster-plus-x: needs n and x; deleting the first x vertices
    leaves disjoint cliques.  tree-plus-f-edges: needs n and f; the feedback
    edge number is at most f.  Terminals always share a component.  Budget
    and target are left unset.
    """
    if max_length < 1:
        raise InputError("max_length must be at least 1")
    rng = random.Random(seed)
    if family == "erdos-renyi":
        if n is None or n < 2 or not 0 <= p <= 1:
            raise InputError("erdos-renyi needs n >= 2 and p in [0,1]")
        return _gen_erdos_renyi(rng, n, p, max_length)
    if family == "series-parallel":
        if m is None or m < 1:
            raise InputError("series-parallel needs m >= 1")
        return _gen_series_parallel(rng, m, max_length)
    if family == "cluster-plus-x":
        if n is None or x is None:
            raise InputError("cluster-plus-x needs n and x")
        return _gen_cluster_plus_x(rng, n, x, max_length)
    if family == "tree-plus-f-edges":
        if n is None or f is None or f < 0:
            raise InputError("tree-plus-f-edges needs n and f >= 0")
        return _gen_tree_plus_f(rng, n, f, max_length)
    raise InputError(f"unknown family {family!r}; choose from {FAMILIES}")
