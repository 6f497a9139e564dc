"""Approximation algorithms for the two optimization variants."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, log2, sqrt

from .errors import InputError, PreconditionError, check_deadline
from .exact import search_tree, staircase
from .graph import (INF, Instance, evaluate_solution, min_st_cut_size,
                    st_path_ids)

CERT_OPTIMAL = "optimal"
CERT_APPROX_FACTOR = "approx-factor"


@dataclass(frozen=True)
class Certificate:
    """What the returned solution is guaranteed to be: exactly optimal, or
    within the stated multiplicative factor of the optimum."""

    kind: str
    factor: float | None = None


def greedy_ell_approx(graph, s, t, ell, *, deadline=None):
    """Delete entire shortest st-paths until the distance reaches ell.

    Returns the accumulated solution and the number of rounds i, a certified
    lower bound on the optimum: the deleted paths are edge-disjoint, and any
    feasible solution must hit each of them.  Each round removes at most
    ell-1 edges (integer lengths), so the solution has at most i*ell edges —
    within a factor ell of optimal.  ``deadline`` is checked once per round.
    """
    if ell < 1:
        raise InputError("target length must be at least 1")
    if s == t:
        raise InputError("s and t must differ")
    banned = set()
    rounds = 0
    while True:
        check_deadline(deadline)
        dist, ids = st_path_ids(graph, s, t, banned)
        if dist >= ell:
            break
        banned.update(ids)
        rounds += 1
    solution = evaluate_solution(graph, s, t,
                                 [graph.edges[i] for i in banned])
    if solution.achieved_distance < ell:
        raise AssertionError("greedy witness misses the target")
    if solution.cardinality > rounds * ell:
        raise AssertionError("greedy witness exceeds rounds * ell edges")
    return solution, rounds


def param_approx_max_length(instance: Instance, c: float, *, stats=None,
                            deadline=None):
    """Max-Length within factor n/g(n) where g(n) = ceil(2^(c*sqrt(log2 n))).

    The search tree's staircase at budget k, its target capped at g(n).  A
    distance below g(n) is exact (certificate "optimal"); otherwise it is
    within n/g(n) of the optimum, which never exceeds n-1 on unit lengths.
    """
    if c <= 0:
        raise InputError("the tradeoff constant must be positive")
    if not isfinite(c):
        raise InputError("the tradeoff constant must be finite")
    if not instance.unit_length:
        raise PreconditionError("parameterized approximation needs unit lengths")
    g, s, t, k = instance.graph, instance.s, instance.t, instance.k
    if k >= min_st_cut_size(g, s, t):
        raise PreconditionError("budget must stay below the minimum st-cut")
    try:
        gn = ceil(2 ** (c * sqrt(log2(g.n))))
    except OverflowError:  # g(n) > n, and no cap at or above n ever binds
        gn = INF
    best = staircase(g, s, t, search_tree, budget=k, target=1, cap=gn,
                     stats=stats, deadline=deadline)
    if best.achieved_distance < gn:
        return best, Certificate(CERT_OPTIMAL)
    return best, Certificate(CERT_APPROX_FACTOR, g.n / gn)
