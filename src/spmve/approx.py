"""Approximation algorithms for the two optimization variants."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, sqrt

from .errors import InputError, PreconditionError
from .exact import search_tree
from .graph import (Instance, evaluate_solution, min_st_cut_size, path_edges,
                    shortest_path)

CERT_OPTIMAL = "optimal"
CERT_APPROX_FACTOR = "approx-factor"


@dataclass(frozen=True)
class Certificate:
    """What the returned solution is guaranteed to be: exactly optimal, or
    within the stated multiplicative factor of the optimum."""

    kind: str
    factor: float | None = None


def greedy_ell_approx(graph, s, t, ell):
    """Delete entire shortest st-paths until the distance reaches ell.

    Returns the accumulated solution and the number of rounds i, a certified
    lower bound on the optimum: the deleted paths are edge-disjoint, and any
    feasible solution must hit each of them.  Each round removes at most
    ell-1 edges (integer lengths), so the solution has at most i*ell edges —
    within a factor ell of optimal.
    """
    if ell < 1:
        raise InputError("target length must be at least 1")
    banned = set()
    rounds = 0
    while True:
        path = shortest_path(graph, s, t, frozenset(banned))
        if path is None:
            break
        edges = path_edges(path)
        if sum(graph.length(u, v) for u, v in edges) >= ell:
            break
        banned.update(edges)
        rounds += 1
    solution = evaluate_solution(graph, s, t, banned)
    if solution.achieved_distance < ell:
        raise AssertionError("greedy witness misses the target")
    if solution.cardinality > rounds * ell:
        raise AssertionError("greedy witness exceeds rounds * ell edges")
    return solution, rounds


def param_approx_max_length(instance: Instance, c: float, *, stats=None,
                            deadline=None):
    """Max-Length within factor n/g(n) where g(n) = ceil(2^(c*sqrt(log2 n))).

    Sweeps the decision search tree over targets 1..g(n).  A refused target
    pins the optimum exactly (certificate "optimal"); if every target up to
    g(n) is reachable, the best witness found is within n/g(n) of the
    optimum, which never exceeds n-1 on unit lengths.
    """
    if c <= 0:
        raise InputError("the tradeoff constant must be positive")
    if not instance.unit_length:
        raise PreconditionError("parameterized approximation needs unit lengths")
    g, s, t, k = instance.graph, instance.s, instance.t, instance.k
    if k >= min_st_cut_size(g, s, t):
        raise PreconditionError("budget must stay below the minimum st-cut")
    gn = ceil(2 ** (c * sqrt(log2(g.n))))
    best = None
    for ell in range(1, gn + 1):
        found = search_tree(Instance(g, s, t, k, ell), stats=stats,
                            deadline=deadline)
        if found is None:
            return best, Certificate(CERT_OPTIMAL)
        if best is None or found.achieved_distance > best.achieved_distance:
            best = found
    return best, Certificate(CERT_APPROX_FACTOR, g.n / gn)
