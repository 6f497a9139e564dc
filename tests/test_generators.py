"""Instance generators: hardness-construction rewrites and random families."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import oracles
from helpers import make_graph, make_instance
import spmve
from spmve import (
    INF,
    InputError,
    Instance,
    PreconditionError,
    TripartiteGraph,
    brute_force,
    build_sp_tree,
    cluster_vertex_deletion_set,
    diameter,
    edge_key,
    emit_instance,
    feedback_edge_set,
    gen_complete_reduction,
    gen_gap_reduction,
    gen_random,
    gen_split_reduction,
    gen_subdivision,
    gen_vc_reduction,
    max_length,
    search_tree,
    st_distance,
)
from spmve.generators import _SparePairs

TRIANGLE = TripartiteGraph((0,), (1,), (2,), ((0, 1), (1, 2), (0, 2)))


def _tripartite_corpus(max_n):
    """Part-labeled tripartite graphs, tagged with eligibility for the
    structural claims: no isolated vertices, first and third parts nonempty,
    every middle vertex reaching both outer parts."""
    out = []
    for a, b, c, edges in oracles.tripartite_atlas(max_n):
        n = a + b + c
        if n == 0:
            continue
        deg = {v: 0 for v in range(n)}
        to1 = {v: False for v in range(a, a + b)}
        to3 = dict(to1)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
            for p, q in ((u, v), (v, u)):
                if p in to1:
                    if q < a:
                        to1[p] = True
                    elif q >= a + b:
                        to3[p] = True
        eligible = (a > 0 and c > 0
                    and all(deg[v] > 0 for v in range(n))
                    and all(to1[v] and to3[v] for v in to1))
        tg = TripartiteGraph(tuple(range(a)), tuple(range(a, a + b)),
                             tuple(range(a + b, n)), edges)
        out.append((tg, eligible))
    return out


def _cover_size(tg):
    edge_set = [tuple(sorted(e)) for e in tg.edges]
    for size in range(tg.n + 1):
        for cover in itertools.combinations(range(tg.n), size):
            chosen = set(cover)
            if all(u in chosen or v in chosen for u, v in edge_set):
                return size
    raise AssertionError


# ----------------------------------------------------- vertex-cover gadget

def test_tripartite_rejects_bad_parts():
    with pytest.raises(InputError):
        TripartiteGraph((0, 1), (1,), (2,), ())
    with pytest.raises(InputError):
        TripartiteGraph((0,), (1,), (3,), ())
    with pytest.raises(InputError):
        TripartiteGraph((0, 1), (2,), (3,), ((0, 1),))


def test_vc_reduction_triangle_boundary():
    yes = search_tree(gen_vc_reduction(TRIANGLE, 2))
    assert yes is not None
    assert yes.cardinality <= 2
    assert search_tree(gen_vc_reduction(TRIANGLE, 1)) is None


def test_vc_reduction_is_unit_with_budget_nine_target():
    inst = gen_vc_reduction(TRIANGLE, 2)
    assert inst.graph.unit_length
    assert (inst.k, inst.ell) == (2, 9)


def test_vc_reduction_rejects_overlarge_budget():
    with pytest.raises(InputError):
        gen_vc_reduction(TRIANGLE, 3)
    with pytest.raises(InputError):
        gen_vc_reduction(TRIANGLE, -1)


def test_vc_reduction_structure():
    corpus = _tripartite_corpus(5)
    seen_eight = 0
    for tg, eligible in corpus:
        if not eligible:
            continue
        inst = gen_vc_reduction(tg, 0)
        assert st_distance(inst.graph, inst.s, inst.t) == 7
        want = 8 if len(tg.v2) >= 2 else 7
        assert diameter(inst.graph) == want, (tg,)
        seen_eight += want == 8
    assert seen_eight >= 20


def test_vc_reduction_tracks_cover_number():
    rng = random.Random(88)
    corpus = [tg for tg, _ in _tripartite_corpus(4) if tg.edges]
    for tg in rng.sample(corpus, 25):
        vc = _cover_size(tg)
        assert search_tree(gen_vc_reduction(tg, vc)) is not None
        if vc >= 1:
            assert search_tree(gen_vc_reduction(tg, vc - 1)) is None


# ------------------------------------------------------------- gap gadget

def test_gap_reduction_thresholds_on_triangle():
    inst, (high, low) = gen_gap_reduction(TRIANGLE, 2, 3)
    assert (high, low) == (13, 11)
    assert inst.k == 2 and inst.ell is None
    assert st_distance(inst.graph, inst.s, inst.t) <= low
    value, _ = max_length(inst.graph, inst.s, inst.t, inst.k)
    assert value >= high

    inst, _ = gen_gap_reduction(TRIANGLE, 1, 3)
    value, _ = max_length(inst.graph, inst.s, inst.t, inst.k)
    assert value <= low


def test_gap_reduction_thresholds_track_cover():
    rng = random.Random(4)
    corpus = [tg for tg, elig in _tripartite_corpus(4) if elig and tg.edges]
    for tg in rng.sample(corpus, 8):
        vc = _cover_size(tg)
        for h in {max(vc - 1, 0), vc}:
            if h >= tg.n:
                continue
            for x in (2, 3):
                inst, (high, low) = gen_gap_reduction(tg, h, x)
                assert (high, low) == (4 * x + 1, 3 * x + 2)
                value, _ = max_length(inst.graph, inst.s, inst.t, inst.k)
                if vc <= h:
                    assert value >= high
                else:
                    assert value <= low


def test_gap_reduction_rejects_small_scale():
    with pytest.raises(InputError):
        gen_gap_reduction(TRIANGLE, 1, 1)


# ------------------------------------------------------------- subdivision

def test_subdivision_of_single_edge():
    orig = make_instance(2, [(0, 1)], 0, 1, k=1, ell=2)
    sub = gen_subdivision(orig)
    assert sub.graph.n == 3
    assert sub.graph.m == 2
    assert (sub.k, sub.ell) == (1, 4)
    assert search_tree(orig) is not None
    assert search_tree(sub) is not None


def test_subdivision_preserves_refusals():
    orig = make_instance(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0, 2,
                         k=1, ell=3)
    sub = gen_subdivision(orig)
    assert sub.graph.n == 8 and sub.graph.m == 8
    assert (sub.k, sub.ell) == (1, 6)
    assert search_tree(orig) is None
    assert search_tree(sub) is None


def test_subdivision_structure_on_random_inputs():
    for seed in range(100):
        inst = gen_random("erdos-renyi", seed=seed, n=5 + seed % 4, p=0.45)
        sub = gen_subdivision(Instance(inst.graph, inst.s, inst.t, 1, 2))
        n, edges = sub.graph.n, list(sub.graph.edges)
        assert oracles.is_bipartite(n, edges)
        assert oracles.degeneracy(n, edges) <= 2
        # subdivision vertices: degree two, one per original edge
        fresh = range(inst.graph.n, n)
        assert len(list(fresh)) == inst.graph.m
        assert all(sub.graph.degree(v) == 2 for v in fresh)


def test_subdivision_answers_match_brute(weighted_corpus):
    done = 0
    for n, edges, _lengths, s, t in weighted_corpus:
        if len(edges) > 7:
            continue
        for k, ell in ((1, 2), (1, 3), (2, 4)):
            orig = make_instance(n, edges, s, t, k=k, ell=ell)
            sub = gen_subdivision(orig)
            assert (brute_force(orig) is None) == (brute_force(sub) is None)
        done += 1
        if done >= 25:
            break
    assert done == 25


def test_subdivision_rejects_weighted_inputs():
    with pytest.raises(InputError):
        gen_subdivision(make_instance(2, [(0, 1)], 0, 1, lengths=[2]))


# ------------------------------------------------------------------- split

def test_split_reduction_example():
    orig = make_instance(3, [(0, 1), (1, 2)], 0, 2, k=1, ell=3)
    split = gen_split_reduction(orig, 9)
    assert (split.k, split.ell) == (3 + 9, 6)
    assert split.graph.n == 3 + 2 * 9
    assert oracles.split_decision(3, [(0, 1), (1, 2)], 0, 2, 9,
                                  split.k, split.ell)
    refused = gen_split_reduction(
        make_instance(3, [(0, 1), (1, 2)], 0, 2, k=0, ell=3), 9)
    assert not oracles.split_decision(3, [(0, 1), (1, 2)], 0, 2, 9,
                                      refused.k, refused.ell)


def test_split_reduction_structure():
    orig = make_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3, k=1, ell=2)
    split = gen_split_reduction(orig)
    n = orig.graph.n
    mult = n * n
    assert split.graph.n == n + orig.graph.m * mult
    edge_set = {frozenset(e) for e in split.graph.edges}
    assert oracles.is_clique(range(n), edge_set)
    assert oracles.is_independent(range(n, split.graph.n), edge_set)
    assert all(split.graph.degree(w) == 2
               for w in range(n, split.graph.n))
    assert split.k == n * (n - 1) // 2 + orig.k * mult
    assert split.ell == 2 * orig.ell


def test_split_reduction_rejects_small_multiplicity():
    orig = make_instance(3, [(0, 1), (1, 2)], 0, 2, k=1, ell=3)
    with pytest.raises(InputError):
        gen_split_reduction(orig, 3)
    with pytest.raises(InputError):
        gen_split_reduction(make_instance(2, [(0, 1)], 0, 1, k=1, ell=2,
                                          lengths=[2]), 9)


# ---------------------------------------------------------------- complete

def test_complete_reduction_example():
    orig = make_instance(3, [(0, 1), (1, 2)], 0, 2, k=1, ell=3)
    comp = gen_complete_reduction(orig)
    assert comp.graph.m == 3
    assert comp.graph.length(0, 2) == 4
    assert search_tree(orig) is not None
    assert search_tree(comp) is not None


def test_complete_reduction_is_identity_on_complete_inputs():
    g = make_graph(4, list(itertools.combinations(range(4), 2)))
    orig = Instance(g, 0, 3, 1, 2)
    comp = gen_complete_reduction(orig)
    assert comp.graph == g


def test_complete_reduction_preserves_answers(weighted_corpus):
    done = 0
    for n, edges, lengths, s, t in weighted_corpus:
        if len(edges) > 8 or any(
                d == 0 for d in
                [sum(1 for e in edges if v in e) for v in range(n)]):
            continue
        for k, ell in ((1, 2), (1, 4), (2, 3)):
            orig = make_instance(n, edges, s, t, k=k, ell=ell,
                                 lengths=lengths)
            comp = gen_complete_reduction(orig)
            assert 2 * comp.graph.m == n * (n - 1)
            assert (brute_force(orig) is None) == (brute_force(comp) is None)
        done += 1
        if done >= 17:
            break
    assert done == 17


def test_complete_reduction_rejects_isolated_vertices():
    with pytest.raises(PreconditionError):
        gen_complete_reduction(make_instance(3, [(0, 1)], 0, 1, k=1, ell=2))


# ---------------------------------------------------------- random families

def test_random_tree_plus_f_bounds_feedback():
    inst = gen_random("tree-plus-f-edges", seed=7, n=20, f=3)
    assert inst.graph.n == 20
    assert len(feedback_edge_set(inst.graph)) <= 3


def test_spare_pairs_index_the_listed_non_tree_pairs():
    # random.sample only takes len() and indexes, so equal sequences give
    # equal draws
    rng = random.Random(4)
    for n in range(2, 30):
        tree = [edge_key(v, rng.randrange(v)) for v in range(1, n)]
        listed = [pq for pq in itertools.combinations(range(n), 2)
                  if pq not in set(tree)]
        spare = _SparePairs(n, tree)
        assert len(spare) == len(listed)
        assert list(spare) == listed


def test_random_tree_plus_f_memory_stays_linear():
    # listing the ~2 million non-tree pairs of 2,000 vertices would peak
    # above 100 MB
    tracemalloc.start()
    try:
        inst = gen_random("tree-plus-f-edges", seed=1, n=2000, f=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.graph.m == 1999 + 5
    assert peak < 8 * 2 ** 20


def test_random_series_parallel_is_recognizable():
    inst = gen_random("series-parallel", seed=3, m=15)
    assert inst.graph.m == 15
    assert build_sp_tree(inst.graph, inst.s, inst.t) is not None


def test_random_cluster_family_bounds_deletion_number():
    for seed in (0, 5, 9):
        inst = gen_random("cluster-plus-x", seed=seed, n=12, x=2)
        assert cluster_vertex_deletion_set(inst.graph).x <= 2


def test_random_erdos_renyi_terminals_share_a_component():
    for seed in range(12):
        inst = gen_random("erdos-renyi", seed=seed, n=9, p=0.25)
        assert st_distance(inst.graph, inst.s, inst.t) < INF


def test_random_generation_is_deterministic():
    for family, kwargs in (
            ("erdos-renyi", {"n": 10, "p": 0.4}),
            ("series-parallel", {"m": 12}),
            ("cluster-plus-x", {"n": 10, "x": 2}),
            ("tree-plus-f-edges", {"n": 14, "f": 2}),
    ):
        a = gen_random(family, seed=42, max_length=4, **kwargs)
        b = gen_random(family, seed=42, max_length=4, **kwargs)
        assert emit_instance(a) == emit_instance(b)
        c = gen_random(family, seed=43, max_length=4, **kwargs)
        assert emit_instance(a) != emit_instance(c)


def test_random_rejects_bad_parameters():
    with pytest.raises(InputError):
        gen_random("erdos-renyi", seed=1)
    with pytest.raises(InputError):
        gen_random("erdos-renyi", seed=1, n=5, p=1.5)
    with pytest.raises(InputError):
        gen_random("series-parallel", seed=1)
    with pytest.raises(InputError):
        gen_random("cluster-plus-x", seed=1, n=5)
    with pytest.raises(InputError):
        gen_random("tree-plus-f-edges", seed=1, n=5, f=-1)
    with pytest.raises(InputError):
        gen_random("small-world", seed=1, n=5)
    with pytest.raises(InputError):
        gen_random("erdos-renyi", seed=1, n=5, max_length=0)


GENERATOR_GUARD_SCRIPT = """
from spmve import generators


class Skewed:
    # always the parallel split, and every split point 1 whatever its
    # range, so a part that may not be a single edge gets one edge
    def random(self):
        return 0.0

    def randint(self, a, b):
        return 1

    def shuffle(self, items):
        pass


def unrecognized():
    generators.build_sp_tree = lambda *args: None
    generators.gen_random("series-parallel", seed=1, m=6)


caught = []
for call in (lambda: generators._Builder(2).gadget(0, 1, 1, 2),
             lambda: generators._gen_series_parallel(Skewed(), 5, 1),
             unrecognized):
    try:
        call()
    except AssertionError as exc:
        caught.append(str(exc))
print(*caught, sep="\\n")
"""


def test_generator_guards_survive_optimized_mode():
    """A gadget path too short to hold, a series-parallel part that may not
    be an edge and a generated graph that is not series-parallel are refused
    even under ``python -O``, which strips assert statements."""
    src = str(Path(spmve.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", GENERATOR_GUARD_SCRIPT],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "gadget paths need length at least 2",
        "a parallel part became a single edge",
        "generated graph is not series-parallel"]
