"""Approximation algorithms and their certificates."""

import math
import random
import time

import pytest

import oracles
from helpers import make_graph, make_instance
from spmve import (
    CERT_APPROX_FACTOR,
    CERT_OPTIMAL,
    INF,
    DeadlineExceeded,
    InputError,
    Instance,
    PreconditionError,
    greedy_ell_approx,
    min_st_cut_size,
    param_approx_max_length,
    st_distance,
)

DIAMOND = [(0, 1), (1, 3), (0, 2), (2, 3)]


# ------------------------------------------------------------------- greedy

def test_greedy_single_edge():
    g = make_graph(2, [(0, 1)])
    sol, rounds = greedy_ell_approx(g, 0, 1, 2)
    assert sol.deleted_edges == frozenset({(0, 1)})
    assert rounds == 1


def test_greedy_diamond_ratio():
    g = make_graph(4, DIAMOND)
    sol, rounds = greedy_ell_approx(g, 0, 3, 3)
    assert rounds == 2
    assert sol.cardinality == 4
    assert sol.achieved_distance >= 3
    opt = oracles.oracle_min_cost(4, DIAMOND, [1] * 4, 0, 3, 3, 5)
    assert opt == 2
    assert sol.cardinality <= 3 * opt


def test_greedy_skips_feasible_instances():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    sol, rounds = greedy_ell_approx(g, 0, 3, 3)
    assert rounds == 0
    assert sol.deleted_edges == frozenset()


def test_greedy_stops_at_the_deadline():
    g = make_graph(4, DIAMOND)
    with pytest.raises(DeadlineExceeded):
        greedy_ell_approx(g, 0, 3, 3, deadline=time.monotonic() - 1)


def test_greedy_rejects_bad_target():
    with pytest.raises(InputError):
        greedy_ell_approx(make_graph(2, [(0, 1)]), 0, 1, 0)
    # equal terminals would delete an empty path forever
    for s, t in ((0, 2), (-1, 1), (0, 0)):
        with pytest.raises(InputError):
            greedy_ell_approx(make_graph(2, [(0, 1)]), s, t, 2)


def test_greedy_guarantees_on_random_graphs(weighted_corpus):
    for n, edges, lengths, s, t in weighted_corpus[:80]:
        if len(edges) > 10:
            continue
        g = make_graph(n, edges, lengths)
        for ell in (2, 3, 5):
            sol, rounds = greedy_ell_approx(g, s, t, ell)
            assert st_distance(g, s, t, sol.deleted_edges) >= ell
            assert sol.cardinality <= rounds * ell
            opt = oracles.oracle_min_cost(n, edges, lengths, s, t, ell,
                                          g.m + 1)
            assert rounds <= opt
            assert sol.cardinality <= ell * opt


# -------------------------------------------------------- parameterized max

def test_param_approx_optimal_on_diamond():
    inst = make_instance(4, DIAMOND, 0, 3, k=1)
    sol, cert = param_approx_max_length(inst, 1.0)
    assert cert.kind == CERT_OPTIMAL
    assert cert.factor is None
    assert sol.achieved_distance == 2


def test_param_approx_on_budgetless_path():
    inst = make_instance(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 0, 4, k=0)
    sol, cert = param_approx_max_length(inst, 1.0)
    assert sol.achieved_distance == 4
    assert sol.deleted_edges == frozenset()
    if cert.kind == CERT_APPROX_FACTOR:
        # optimum is at most n-1, so the bound is honest either way
        assert 4 / sol.achieved_distance <= cert.factor


def test_param_approx_factor_certificate_on_long_cycle():
    n = 32
    edges = [(i, (i + 1) % n) for i in range(n)]
    inst = make_instance(n, edges, 0, 1, k=1)
    gn = math.ceil(2 ** math.sqrt(math.log2(n)))
    assert gn == 5
    sol, cert = param_approx_max_length(inst, 1.0)
    assert cert.kind == CERT_APPROX_FACTOR
    assert cert.factor == n / gn
    # true optimum: deleting the direct edge leaves the long way round
    assert sol.achieved_distance == n - 1
    assert (n - 1) / sol.achieved_distance <= cert.factor


def test_param_approx_certificates_are_honest(connected_atlas6):
    for n in (4, 5, 6):
        for edges in connected_atlas6[n]:
            g = make_graph(n, list(edges))
            s, t = 0, n - 1
            cut = min_st_cut_size(g, s, t)
            table = oracles.max_dist_table(n, list(edges), [1] * len(edges),
                                           s, t, max(cut - 1, 0))
            for k in range(cut):
                sol, cert = param_approx_max_length(
                    Instance(g, s, t, k, None), 1.0)
                opt = table[k]
                assert sol is not None
                assert sol.cardinality <= k
                assert st_distance(g, s, t, sol.deleted_edges) == \
                    sol.achieved_distance
                if cert.kind == CERT_OPTIMAL:
                    assert sol.achieved_distance == opt
                else:
                    assert cert.kind == CERT_APPROX_FACTOR
                    assert opt != INF
                    assert opt / sol.achieved_distance <= cert.factor


def test_param_approx_larger_constant_widens_the_sweep():
    # bigger c means more targets tried, upgrading the certificate
    n = 12
    edges = [(i, i + 1) for i in range(n - 1)]
    inst = make_instance(n, edges, 0, n - 1, k=0)
    _sol, loose = param_approx_max_length(inst, 1.0)
    _sol, tight = param_approx_max_length(inst, 4.0)
    assert loose.kind == CERT_APPROX_FACTOR
    assert tight.kind == CERT_OPTIMAL


def test_param_approx_preconditions():
    weighted = make_graph(2, [(0, 1)], [3])
    with pytest.raises(PreconditionError):
        param_approx_max_length(Instance(weighted, 0, 1, 0, None), 1.0)
    g = make_graph(4, DIAMOND)
    with pytest.raises(PreconditionError):
        param_approx_max_length(Instance(g, 0, 3, 2, None), 1.0)
    with pytest.raises(InputError):
        param_approx_max_length(Instance(g, 0, 3, 1, None), 0.0)
