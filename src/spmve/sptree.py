"""Two-terminal series-parallel recognition.

A connected graph with terminals s,t is two-terminal series-parallel exactly
when the multigraph reduction below ends with a single s-t edge: repeatedly
merge parallel edges between the same endpoint pair (parallel composition,
read backwards) and contract degree-two non-terminal vertices (series
composition).  The merge tree is recorded as parallel lists in creation
order: the graph's edges first, as leaves, then one node per contraction or
merge after both of its children, so the root comes last.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import check_deadline
from .graph import Graph, edge_key

SERIAL = "S"
PARALLEL = "P"


@dataclass(frozen=True)
class SpTree:
    """Decomposition as parallel lists over nodes in creation order.  Node
    ``i < m`` is the leaf of graph edge ``i`` and ``pairs`` is the graph's
    edge tuple; every series contraction or parallel merge then appends one
    node, whose ``kind`` is SERIAL or PARALLEL and whose ``left`` and
    ``right`` are its children's indices (leaves hold None and -1).  A child
    always comes before its parent, so the list order is a postorder, and
    the root is the last node."""

    pairs: tuple
    kind: list
    left: list
    right: list


def build_sp_tree(graph: Graph, s: int, t: int, *, deadline=None):
    """SpTree for (graph, s, t), or None when the graph is not two-terminal
    series-parallel between s and t (the reduction stalls).

    The input is simple, so a parallel pair can only come from the series
    contraction just made, and it is merged on the spot (the older edge
    first).  Contractions take the smallest degree-two non-terminal off a
    min-heap; degrees only drop, by one per merge, so a vertex is pushed when
    it reaches degree two and re-checked when it is popped."""
    if s == t or not (0 <= s < graph.n and 0 <= t < graph.n):
        return None
    if graph.m == 0:
        return None
    check_deadline(deadline)
    # the node of each live edge, and the live neighbours of each vertex
    live = {pair: i for i, pair in enumerate(graph.edges)}
    kind, left, right = [None] * graph.m, [-1] * graph.m, [-1] * graph.m
    nbrs = [{w for w, _ in graph.neighbors(v)} for v in range(graph.n)]
    heap = [v for v in range(graph.n)
            if v not in (s, t) and len(nbrs[v]) == 2]
    absorbed = 0
    while heap:
        check_deadline(deadline)
        v = heapq.heappop(heap)
        if len(nbrs[v]) != 2:
            continue  # absorbed, or a merge left it with one edge
        a, b = sorted(nbrs[v])
        kind.append(SERIAL)
        left.append(live.pop(edge_key(a, v)))
        right.append(live.pop(edge_key(v, b)))
        nbrs[v].clear()
        nbrs[a].discard(v)
        nbrs[b].discard(v)
        absorbed += 1
        if b in nbrs[a]:
            kind.append(PARALLEL)
            left.append(live[(a, b)])
            right.append(len(kind) - 2)
            for w in (a, b):  # each lost an edge to the merge
                if w not in (s, t) and len(nbrs[w]) == 2:
                    heapq.heappush(heap, w)
        else:
            nbrs[a].add(b)
            nbrs[b].add(a)
        live[(a, b)] = len(kind) - 1
    if len(live) != 1:
        return None
    pair, root = next(iter(live.items()))
    if set(pair) != {s, t}:
        return None
    if absorbed + 2 != graph.n:
        return None  # leftover vertices: graph was not connected to the core
    if root != len(kind) - 1:
        raise AssertionError("series-parallel root is not the last node")
    return SpTree(graph.edges, kind, left, right)
