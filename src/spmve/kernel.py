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
class DeleteDegreeOne:
    vertex: int
    neighbor: int


@dataclass(frozen=True)
class ContractDegreeTwo:
    vertex: int
    neighbors: tuple          # (smaller, larger) original ids: the new edge
    created_length: int       # the sum of the two edges it replaces


@dataclass(frozen=True)
class KernelTrace:
    """Everything needed to replay the reduction and lift solutions back."""

    original: Instance
    kernel: Instance
    events: tuple
    discarded_vertices: tuple
    kernel_vertices: tuple    # kernel id i <-> original id kernel_vertices[i]
    edge_constituents: tuple  # per kernel edge id: ordered original edges


class _Reducer:
    """Mutable weighted adjacency keyed by original vertex ids:
    adj[u][v] is the length of the current edge {u,v}."""

    def __init__(self, graph: Graph, s: int, t: int, keep):
        self.s = s
        self.t = t
        self.adj = {v: {} for v in keep}
        for i, (u, v) in enumerate(graph.edges):
            if u in self.adj and v in self.adj:
                self.adj[u][v] = self.adj[v][u] = graph.lengths[i]
        self.events = []

    def _candidates(self, degree):
        """Non-terminals of the given degree, in ascending order."""
        return [v for v in sorted(self.adj)
                if v not in (self.s, self.t) and len(self.adj[v]) == degree]

    def exhaust_rule1(self, deadline=None):
        """Delete the smallest degree-one non-terminal until none is left.
        Degrees only drop, so a neighbour is pushed when it reaches one."""
        heap = self._candidates(1)
        while heap:
            v = heapq.heappop(heap)
            if len(self.adj[v]) != 1:
                continue  # its neighbour went first and left it isolated
            (u,) = self.adj.pop(v)
            del self.adj[u][v]
            self.events.append(DeleteDegreeOne(v, u))
            check_deadline(deadline)
            if u not in (self.s, self.t) and len(self.adj[u]) == 1:
                heapq.heappush(heap, u)

    def exhaust_rule2(self, deadline=None):
        """Contract eligible degree-two non-terminals in ascending id order.
        A contraction of v between a and b never makes a vertex eligible:
        degrees stay, a and b become adjacent, and only v loses edges.  If a
        has degree two, its other neighbour is neither b (a and b were not
        adjacent) nor next to v, so a was eligible before.  So one sweep,
        re-checking each vertex as it comes, contracts the smallest eligible
        vertex at every step."""
        for v in self._candidates(2):
            a, b = sorted(self.adj[v])
            if b in self.adj[a]:
                continue  # would create a parallel edge
            length = self.adj[a].pop(v) + self.adj[b].pop(v)
            del self.adj[v]
            self.adj[a][b] = self.adj[b][a] = length
            self.events.append(ContractDegreeTwo(v, (a, b), length))
            check_deadline(deadline)

    def run_all(self, deadline=None):
        self.exhaust_rule1(deadline)
        self.exhaust_rule2(deadline)


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


def _finalize(instance: Instance, reducer: _Reducer, discarded) -> KernelTrace:
    kept = sorted(reducer.adj)
    index = {orig: i for i, orig in enumerate(kept)}
    alive = set(reducer.adj).union(
        ev.vertex for ev in reducer.events if isinstance(ev, ContractDegreeTwo))
    pairs = []
    lengths = []
    constituents = []
    for u in kept:
        chains = _chains_from(instance.graph, u, reducer.adj, alive)
        for v in sorted(w for w in reducer.adj[u] if w > u):
            pairs.append((index[u], index[v]))
            lengths.append(reducer.adj[u][v])
            # a kernel edge that no walk reaches is an original edge
            constituents.append(chains.get(v, ((u, v),)))
    kernel_graph = Graph(len(kept), pairs, lengths)
    kernel = Instance(kernel_graph, index[instance.s], index[instance.t],
                      instance.k, instance.ell)
    return KernelTrace(
        original=instance,
        kernel=kernel,
        events=tuple(reducer.events),
        discarded_vertices=tuple(sorted(discarded)),
        kernel_vertices=tuple(kept),
        edge_constituents=tuple(constituents),
    )


def _split_components(instance: Instance):
    """(kept vertices, discarded vertices, number of components)."""
    comps = connected_components(instance.graph)
    comp_s = next(c for c in comps if instance.s in c)
    if instance.t in comp_s:
        keep = set(comp_s)
    else:
        keep = {instance.s, instance.t}
    discarded = [v for v in range(instance.graph.n) if v not in keep]
    return keep, discarded, len(comps)


def _reduce(instance: Instance, run):
    """Split off the terminals' component, apply ``run`` to a reducer on it
    and collect the result.  Returns the trace and the number of components
    of the input graph."""
    keep, discarded, components = _split_components(instance)
    reducer = _Reducer(instance.graph, instance.s, instance.t, keep)
    run(reducer)
    return _finalize(instance, reducer, discarded), components


def kernelize(instance: Instance, *, deadline=None) -> KernelTrace:
    """Run both rules to their joint fixpoint and bound-check the kernel."""
    trace, components = _reduce(instance, lambda r: r.run_all(deadline))
    if components == 1:
        # a spanning tree of a connected graph keeps n - 1 of its edges, so
        # every minimum feedback edge set has the other m - n + 1
        f = instance.graph.m - instance.graph.n + 1
        if trace.kernel.graph.n > 5 * f + 2:
            raise AssertionError("kernel vertex bound violated")
        if trace.kernel.graph.m > 6 * f + 2:
            raise AssertionError("kernel edge bound violated")
    return trace


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
