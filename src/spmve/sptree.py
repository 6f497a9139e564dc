"""Two-terminal series-parallel recognition.

A connected graph with terminals s,t is two-terminal series-parallel exactly
when the multigraph reduction below ends with a single s-t edge: repeatedly
merge parallel edges between the same endpoint pair (parallel composition,
read backwards) and contract degree-two non-terminal vertices (series
composition).  The merge tree is recorded; its leaves biject with the original
edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import check_deadline
from .graph import Graph, edge_key

SERIAL = "S"
PARALLEL = "P"


@dataclass(frozen=True)
class SpNode:
    """Decomposition node.  Leaves carry the original endpoint pair as label;
    internal nodes are labeled "S" or "P".  ``terminals`` are the two vertices
    the composed subgraph attaches by."""

    label: object
    terminals: tuple
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class SpTree:
    root: SpNode

    def postorder(self):
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or node.is_leaf:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))

    def leaves(self):
        return [node for node in self.postorder() if node.is_leaf]


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
    # the subtree of each live edge, and the live neighbours of each vertex
    live = {pair: SpNode(pair, pair) for pair in graph.edges}
    nbrs = [set(graph.adjacent_set(v)) for v in range(graph.n)]
    heap = [v for v in range(graph.n)
            if v not in (s, t) and len(nbrs[v]) == 2]
    absorbed = 0
    while heap:
        check_deadline(deadline)
        v = heapq.heappop(heap)
        if len(nbrs[v]) != 2:
            continue  # absorbed, or a merge left it with one edge
        a, b = sorted(nbrs[v])
        node = SpNode(SERIAL, (a, b), (live.pop(edge_key(a, v)),
                                       live.pop(edge_key(v, b))))
        nbrs[v].clear()
        nbrs[a].discard(v)
        nbrs[b].discard(v)
        absorbed += 1
        if b in nbrs[a]:
            node = SpNode(PARALLEL, (a, b), (live[(a, b)], node))
            for w in (a, b):  # each lost an edge to the merge
                if w not in (s, t) and len(nbrs[w]) == 2:
                    heapq.heappush(heap, w)
        else:
            nbrs[a].add(b)
            nbrs[b].add(a)
        live[(a, b)] = node
    if len(live) != 1:
        return None
    pair, node = next(iter(live.items()))
    if set(pair) != {s, t}:
        return None
    if absorbed + 2 != graph.n:
        return None  # leftover vertices: graph was not connected to the core
    return SpTree(node)
