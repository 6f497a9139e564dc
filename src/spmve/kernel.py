"""Answer-preserving kernelization for most-vital-edges instances.

Two rules, each applied to exhaustion with the smallest eligible vertex id
first, Rule 1 before Rule 2 (Rule 2 keeps every degree, so it never gives
Rule 1 new work and one exhaustion of each reaches the joint fixpoint):

  Rule 1  delete a degree-one vertex that is not a terminal;
  Rule 2  replace a degree-two non-terminal v with neighbors u,w (u,w not
          already adjacent) by an edge {u,w} of length tau(u,v) + tau(v,w).

Components containing neither terminal are discarded first; if s and t are in
different components the kernel is the edgeless graph on {s,t} (the distance
is already infinite, so every budget/target is a yes).

For a connected input whose feedback edge set has size f, the kernel has at
most 5f+2 vertices and 6f+2 edges (checked).

The reduction keeps lengths only.  The ordered list of original edges each
kernel edge stands for, oriented from its smaller endpoint, is read off the
original graph once, at the end; lifting a kernel solution swaps each created
edge for the first original edge in its list.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InputError, check_deadline
from .graph import Graph, Instance, Solution, connected_components, edge_key, \
    evaluate_solution


@dataclass(frozen=True)
class KernelTrace:
    """The kernel, with the vertex map and edge chains that lift its
    solutions back to the original graph."""

    original: Instance
    kernel: Instance
    discarded_vertices: tuple
    kernel_vertices: tuple    # kernel id i <-> original id kernel_vertices[i]
    edge_constituents: tuple  # per kernel edge id: ordered original edges


def _chains_from(graph: Graph, a: int, kept, alive):
    """{b: chain} for the created kernel edges {a,b} with a < b.  Rule 2
    keeps every degree and runs after Rule 1, so a contracted vertex has
    exactly two neighbours that Rule 1 left alive: the chain of {a,b} is the
    path from a through contracted vertices to the first kept vertex, b."""
    chains = {}
    for u, _ in graph.neighbors(a):
        if u in kept or u not in alive:
            continue
        prev, chain = a, [edge_key(a, u)]
        while u not in kept:
            prev, u = u, next(w for w, _ in graph.neighbors(u)
                              if w in alive and w != prev)
            chain.append(edge_key(prev, u))
        if a < u:
            chains[u] = tuple(chain)
    return chains


def kernelize(instance: Instance, *, deadline=None) -> KernelTrace:
    """Run both rules to their joint fixpoint and bound-check the kernel.
    The deadline is checked on entry and after every deletion and
    contraction."""
    check_deadline(deadline)
    graph, s, t = instance.graph, instance.s, instance.t
    comps = connected_components(graph)
    comp_s = next(c for c in comps if s in c)
    keep = set(comp_s) if t in comp_s else {s, t}
    # adj[u][v] is the length of the current edge {u,v}
    adj = {v: {} for v in keep}
    for i, (u, v) in enumerate(graph.edges):
        if u in adj and v in adj:
            adj[u][v] = adj[v][u] = graph.lengths[i]
    # Rule 1: delete the smallest degree-one non-terminal until none is
    # left.  Degrees only drop, so a neighbour is pushed when it reaches one.
    heap = [v for v in sorted(adj) if v not in (s, t) and len(adj[v]) == 1]
    while heap:
        v = heapq.heappop(heap)
        if len(adj[v]) != 1:
            continue  # its neighbour went first and left it isolated
        (u,) = adj.pop(v)
        del adj[u][v]
        check_deadline(deadline)
        if u not in (s, t) and len(adj[u]) == 1:
            heapq.heappush(heap, u)
    alive = set(adj)  # the chains run through these, see _chains_from
    # Rule 2: contract eligible degree-two non-terminals in ascending id
    # order.  A contraction of v between a and b never makes a vertex
    # eligible: degrees stay, a and b become adjacent, and only v loses
    # edges.  If a has degree two, its other neighbour is neither b (a and b
    # were not adjacent) nor next to v, so a was eligible before.  So one
    # sweep, re-checking each vertex as it comes, contracts the smallest
    # eligible vertex at every step.
    for v in [v for v in sorted(adj) if v not in (s, t) and len(adj[v]) == 2]:
        a, b = sorted(adj[v])
        if b in adj[a]:
            continue  # would create a parallel edge
        length = adj[a].pop(v) + adj[b].pop(v)
        del adj[v]
        adj[a][b] = adj[b][a] = length
        check_deadline(deadline)
    kept = sorted(adj)
    index = {orig: i for i, orig in enumerate(kept)}
    pairs = []
    lengths = []
    constituents = []
    for u in kept:
        chains = _chains_from(graph, u, adj, alive)
        for v in sorted(w for w in adj[u] if w > u):
            pairs.append((index[u], index[v]))
            lengths.append(adj[u][v])
            # a kernel edge that no walk reaches is an original edge
            constituents.append(chains.get(v, ((u, v),)))
    kernel = Instance(Graph(len(kept), pairs, lengths), index[s], index[t],
                      instance.k, instance.ell)
    if len(comps) == 1:
        # a spanning tree of a connected graph keeps n - 1 of its edges, so
        # every minimum feedback edge set has the other m - n + 1
        f = graph.m - graph.n + 1
        if kernel.graph.n > 5 * f + 2:
            raise AssertionError("kernel vertex bound violated")
        if kernel.graph.m > 6 * f + 2:
            raise AssertionError("kernel edge bound violated")
    return KernelTrace(
        original=instance,
        kernel=kernel,
        discarded_vertices=tuple(v for v in range(graph.n) if v not in keep),
        kernel_vertices=tuple(kept),
        edge_constituents=tuple(constituents),
    )


def lift_solution(trace: KernelTrace, kernel_solution: Solution) -> Solution:
    """Map a kernel solution to an original-graph solution of the same size:
    each deleted kernel edge is replaced by the first original edge in its
    constituent list."""
    kernel_graph = trace.kernel.graph
    lifted = []
    for u, v in kernel_solution.deleted_edges:
        try:
            eid = kernel_graph.edge_id(u, v)
        except InputError:
            raise InputError(f"solution edge ({u},{v}) is not a kernel edge") from None
        lifted.append(trace.edge_constituents[eid][0])
    solution = evaluate_solution(trace.original.graph, trace.original.s,
                                 trace.original.t, lifted)
    if solution.cardinality != kernel_solution.cardinality:
        raise AssertionError("lifting changed the solution size")
    return solution
