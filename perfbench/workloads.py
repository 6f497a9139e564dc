"""Seeded corpora for the four workloads.

Each builder draws graphs from ``random.Random(seed)`` with generators of its
own (the package's generators are never called, so the inputs stay put when
those change), sets the query targets from the oracle's optimum, and records
the oracle's exact answer next to each query.  Graph sizes are fixed per
slot, so a seed changes the structure but not the amount of work.
"""

import random
from dataclasses import dataclass, field

from oracle import (INF, PathSearch, answer_from_table, exhaustive_table,
                    norm, sp_table)

# Deadline queries use this fixed instance whatever the seed, so their
# failure share is the same in every run.
DEADLINE_SEED = 20180424


@dataclass
class Corpus:
    graphs: list = field(default_factory=list)   # (n, edges, lengths, s, t)
    queries: list = field(default_factory=list)  # dicts, see add()

    def add(self, graph, variant, alg, table, k=None, ell=None,
            timeout_ms=None):
        self.queries.append({
            "graph": graph, "variant": variant, "alg": alg, "k": k,
            "ell": ell, "timeout_ms": timeout_ms,
            "expected": answer_from_table(table, variant, k, ell)})

    def argv(self, query, path):
        args = ["solve", path, "--alg", query["alg"],
                "--variant", query["variant"]]
        if query["k"] is not None:
            args += ["--k", str(query["k"])]
        if query["ell"] is not None:
            args += ["--ell", str(query["ell"])]
        if query["timeout_ms"] is not None:
            args += ["--timeout-ms", str(query["timeout_ms"])]
        return args


def instance_text(graph):
    n, edges, lengths, s, t = graph
    lines = [f"p mve {n} {len(edges)}", f"s {s + 1}", f"t {t + 1}"]
    lines += [f"e {u + 1} {v + 1} {ln}" for (u, v), ln in zip(edges, lengths)]
    return "\n".join(lines) + "\n"


def _hop_distances(n, edges, s):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [INF] * n
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _grow_table(search, ell):
    """Max-length table of a PathSearch, extended until it reaches ell."""
    table = [search.best(0)]
    while table[-1] < ell:
        table.append(search.best(len(table)))
    return table


# --------------------------------------------------------- sparse-dispatch

SPARSE_SIZES = (180, 200, 220, 240, 260, 280, 300, 320)
SPARSE_CHORDS = 8
DEADLINE_N = 400
DEADLINE_QUERIES = 2
DEADLINE_MS = 20


def tree_plus_chords(rng, n, f):
    """Random recursive tree on shuffled labels plus f chords; unit lengths.
    t is drawn among the vertices farthest from s."""
    label = list(range(n))
    rng.shuffle(label)
    edges = {norm(label[i], label[rng.randrange(i)]) for i in range(1, n)}
    while len(edges) < n - 1 + f:
        edges.add(norm(*rng.sample(range(n), 2)))
    edges = sorted(edges)
    s = rng.randrange(n)
    hops = _hop_distances(n, edges, s)
    far = max(hops)
    t = rng.choice([v for v in range(n) if hops[v] >= far - 2])
    return n, edges, [1] * len(edges), s, t


def sparse_dispatch(seed):
    """Unit trees plus a few chords under --alg auto: every decision runs the
    diameter test (targets >= 5 and above the distance), every query runs
    series-parallel recognition, which stalls on the pendant trees, and the
    search then runs on a kernel of a few dozen edges."""
    rng = random.Random(seed)
    corpus = Corpus()
    for i, n in enumerate(SPARSE_SIZES):
        graph = tree_plus_chords(rng, n, SPARSE_CHORDS)
        corpus.graphs.append(graph)
        search = PathSearch(*graph)
        d0 = search.best(0)
        k = 1 + i % 2
        ell = max(search.best(k), d0 + 1, 5)
        if ell == INF:
            ell = d0 + 3
        table = search.table(k)
        corpus.add(i, "decision", "auto", table, k=k, ell=ell)
        corpus.add(i, "decision", "auto", table, k=k, ell=ell + 1)
        corpus.add(i, "mincost", "auto", _grow_table(search, d0 + 2),
                   ell=d0 + 2)
        corpus.add(i, "maxlength", "auto", search.table(3 - k), k=3 - k)
    # Deadline queries: a fixed graph and a timeout far below its solve time.
    graph = tree_plus_chords(random.Random(DEADLINE_SEED), DEADLINE_N,
                             SPARSE_CHORDS)
    corpus.graphs.append(graph)
    search = PathSearch(*graph)
    ell = max(search.best(0) + 2, 5)
    for k in range(1, DEADLINE_QUERIES + 1):
        corpus.add(len(corpus.graphs) - 1, "decision", "auto",
                   search.table(k), k=k, ell=ell,
                   timeout_ms=DEADLINE_MS)
    return corpus


# ------------------------------------------------------------- grid-search

# The search tree's work swings widely with the lengths, so grids are
# redrawn until the oracle's plain search tree for the k=3 no answer has a
# size in the band of their shape, and until the optimum at k rises above
# the distance by an amount in GRID_RISE[k] (the max-length solver sweeps
# the target up one step per unit of rise).
GRID_SHAPES = {(8, 8): range(270, 331), (7, 9): range(430, 531)}
GRID_RISE = {2: range(3, 5), 3: range(4, 7)}
GRID_GRAPHS = 24
GRID_CHORDS = 3


def weighted_grid(rng, rows, cols, chords):
    """rows x cols grid, lengths 1-3, a few diagonal chords, both terminals
    interior (so the minimum cut is at least 4) and far apart."""
    def vid(r, c):
        return r * cols + c
    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.add((vid(r, c), vid(r + 1, c)))
    added = 0
    while added < chords:
        r, c = rng.randrange(rows - 1), rng.randrange(cols - 1)
        pair = norm(vid(r, c), vid(r + 1, c + 1))
        if pair not in edges:
            edges.add(pair)
            added += 1
    edges = sorted(edges)
    lengths = [rng.randint(1, 3) for _ in edges]
    return rows * cols, edges, lengths, vid(rows // 2, 1), vid(rows // 2,
                                                              cols - 2)


def grid_search(seed):
    """Weighted grids under --alg auto: the kernel barely shrinks them and
    weighted lengths skip the diameter test, so the search tree and its
    shortest-path calls do the work.  Decisions sit at the optimum (yes) and
    one above it (no)."""
    rng = random.Random(seed)
    corpus = Corpus()
    shapes = list(GRID_SHAPES)
    for i in range(GRID_GRAPHS):
        shape = shapes[i % len(shapes)]
        while True:
            graph = weighted_grid(rng, *shape, GRID_CHORDS)
            search = PathSearch(*graph)
            table = search.table(3)
            if (all(table[k] - table[0] in rise
                    for k, rise in GRID_RISE.items())
                    and search.tree_size(3, table[3] + 1) in GRID_SHAPES[shape]):
                break
        corpus.graphs.append(graph)
        corpus.add(i, "decision", "auto", table, k=3, ell=table[3])
        corpus.add(i, "decision", "auto", table, k=3, ell=table[3] + 1)
        corpus.add(i, "maxlength", "auto", table, k=2)
        corpus.add(i, "mincost", "auto", table, ell=table[2])
    return corpus


# --------------------------------------------------------------- sp-tables

SP_LARGE = (340, 340, 340)   # edges; lengths 1-3
SP_MID = tuple(range(40, 76, 3))  # edges; lengths 1-30
# Graphs are redrawn until their cut is at least 3; mid-size ones also until
# the distance falls in this band and one deletion cannot push it past
# SP_MID_REACH, since the min-cost tables grow with the square of the target.
SP_MID_BAND = range(60, 91)
SP_MID_REACH = 130


def series_parallel(rng, m_target, max_length):
    """Two-terminal series-parallel graph grown from one s-t edge by
    subdividing an edge or adding a two-edge path beside it, with its
    composition tree.  Fresh vertices keep the graph simple."""
    root = ["L", (0, 1)]
    leaves = [root]
    n = 2
    m = 1
    while m < m_target:
        leaf = leaves.pop(rng.randrange(len(leaves)))
        a, b = leaf[1]
        w = n
        n += 1
        left, right = ["L", (a, w)], ["L", (w, b)]
        if rng.random() < 0.55 or m + 2 > m_target:
            leaf[:] = ["S", left, right]
            leaves += [left, right]
            m += 1
        else:
            kept = ["L", (a, b)]
            leaf[:] = ["P", kept, ["S", left, right]]
            leaves += [kept, left, right]
            m += 2
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for i, leaf in enumerate(leaves):
        u, v = leaf[1]
        edges.append(norm(label[u], label[v]))
        leaf[1] = i

    def freeze(node):
        if node[0] == "L":
            return ("L", node[1])
        return (node[0], freeze(node[1]), freeze(node[2]))
    lengths = [rng.randint(1, max_length) for _ in edges]
    lengths[0] = max(lengths[0], 2)  # never unit, so no diameter test
    return (n, edges, lengths, label[0], label[1]), freeze(root)


def _sp_queries(corpus, graph, table):
    """A decision at the one-deletion optimum (or one above the distance when
    a deletion gains nothing), min-cost one above it, max-length at k=1."""
    i = len(corpus.graphs)
    corpus.graphs.append(graph)
    ell = max(table[1], table[0] + 1)
    corpus.add(i, "decision", "auto", table, k=1, ell=ell)
    corpus.add(i, "mincost", "auto", table, ell=ell + 1)
    corpus.add(i, "maxlength", "auto", table, k=1)


def sp_tables(seed):
    """Series-parallel graphs under --alg auto, the only workload where the
    dynamic programs run: large graphs with short lengths spend their time in
    recognition, mid-size graphs with long edges in the ell-sized min-cost
    tables."""
    rng = random.Random(seed)
    corpus = Corpus()
    for m, max_length in [(m, 3) for m in SP_LARGE] + [(m, 30) for m in SP_MID]:
        while True:
            graph, tree = series_parallel(rng, m, max_length)
            table = sp_table(tree, graph[2])
            if len(table) > 2 and (max_length == 3 or (
                    table[0] in SP_MID_BAND and table[1] <= SP_MID_REACH)):
                break
        _sp_queries(corpus, graph, table)
    return corpus


# ------------------------------------------------------------- cluster-cvd

CLUSTER_GRAPHS = 24
CLUSTER_INNER = ((2, 2), (3, 3))  # inner clique sizes


def cluster_plus_two(rng, inner):
    """Four disjoint cliques plus two non-adjacent extra vertices x0, x1:
    s with two more vertices in the first clique, t with three more in the
    last, and inner cliques of the given sizes.  Both extra vertices touch
    every inner-clique vertex; in each terminal clique x0 touches one non-terminal
    member and x1 another, and x1 also touches s.  So {x0, x1} is the only
    cluster deletion set of size two, the terminal cliques always split into
    the same deletion blocks (which set the cluster solver's work), and the
    seed picks only the labels."""
    cliques = [3, *inner, 4]
    n = sum(cliques) + 2
    label = list(range(n))
    rng.shuffle(label)
    edges = set()
    members = []
    start = 2
    for size in cliques:
        group = list(range(start, start + size))
        members.append(group)
        edges |= {(a, b) for i, a in enumerate(group) for b in group[i + 1:]}
        start += size
    for group in members[1:-1]:
        edges |= {(xv, v) for xv in (0, 1) for v in group}
    for group in (members[0], members[-1]):
        edges |= {(0, group[1]), (1, group[2])}
    s, t = members[0][0], members[-1][0]
    edges.add((1, s))
    edges = sorted(norm(label[u], label[v]) for u, v in edges)
    return n, edges, [1] * len(edges), label[s], label[t]


def cluster_cvd(seed):
    """Unit cluster graphs plus two extra vertices under --alg cvd, the only
    workload that runs the cluster-deletion solver and its decomposition.
    Decisions at k=1 sit at the optimum and one above it."""
    rng = random.Random(seed)
    corpus = Corpus()
    for i in range(CLUSTER_GRAPHS):
        graph = cluster_plus_two(rng, CLUSTER_INNER[i % len(CLUSTER_INNER)])
        corpus.graphs.append(graph)
        table = exhaustive_table(graph[0], graph[1], graph[3], graph[4], 1)
        corpus.add(i, "decision", "cvd", table, k=1, ell=table[1])
        corpus.add(i, "decision", "cvd", table, k=1, ell=table[1] + 1)
        corpus.add(i, "maxlength", "cvd", table, k=1)
    return corpus


WORKLOADS = {
    "sparse-dispatch": sparse_dispatch,
    "grid-search": grid_search,
    "sp-tables": sp_tables,
    "cluster-cvd": cluster_cvd,
}
