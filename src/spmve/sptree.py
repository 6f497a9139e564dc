"""Two-terminal series-parallel recognition.

A connected graph with terminals s,t is two-terminal series-parallel exactly
when the multigraph reduction below ends with a single s-t edge: repeatedly
merge parallel edges between the same endpoint pair (parallel composition,
read backwards) and contract degree-two non-terminal vertices (series
composition).  The merge tree is recorded; its leaves biject with the original
edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_deadline
from .graph import Graph

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
    series-parallel between s and t (the reduction stalls)."""
    if s == t or not (0 <= s < graph.n and 0 <= t < graph.n):
        return None
    if graph.m == 0:
        return None
    # live edge records: id -> (endpoint pair, node)
    records = {}
    incident = {v: set() for v in range(graph.n)}
    for i, pair in enumerate(graph.edges):
        records[i] = (pair, SpNode(pair, pair))
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
        node = SpNode(PARALLEL, pair, (records[r1][1], records[r2][1]))
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
            node = SpNode(SERIAL, (a, b), (records[r1][1], records[r2][1]))
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
    return SpTree(node)


def realize(tree: SpTree):
    """Rebuild a graph from the tree with fresh vertex ids.

    Returns (n, edge list of (u, v, leaf label)); terminals are vertices 0,1.
    Used to check that composing the tree back reproduces the input.
    """
    counter = [2]

    def build(node, a, b):
        if node.is_leaf:
            return [(a, b, node.label)]
        c1, c2 = node.children
        if node.label == PARALLEL:
            return build(c1, a, b) + build(c2, a, b)
        mid = counter[0]
        counter[0] += 1
        return build(c1, a, mid) + build(c2, mid, b)

    edges = build(tree.root, 0, 1)
    return counter[0], edges
