"""Polynomially solvable special cases.

Two-terminal series-parallel graphs admit dynamic programs over the
decomposition tree for both optimization variants; graphs of diameter at most
two and complete unit-length graphs have closed-form answers (with a small
delegated band for the former).
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InputError, PreconditionError, check_deadline
from .exact import _require_ell, search_tree
from .graph import INF, Solution, diameter_at_most_two, evaluate_solution
from .sptree import SERIAL, SpTree


def _tree_distance(tree: SpTree, lengths, deleted):
    """Terminal-to-terminal distance after deleting the given leaf edges,
    evaluated straight off the decomposition (series add, parallel take the
    minimum).  Independent of the DP tables, so it can vouch for them."""
    vals = [INF if pair in deleted else lengths[pair] for pair in tree.pairs]
    m = len(vals)
    for kind, c1, c2 in zip(tree.kind[m:], tree.left[m:], tree.right[m:]):
        a, b = vals[c1], vals[c2]
        vals.append(a + b if kind == SERIAL else min(a, b))
    return vals[-1]


def _table(tree: SpTree, lengths, k, top, deadline):
    """(caps, steps) indexed by tree node: L[j], the largest terminal distance
    achievable with at most j deletions inside the subnetwork (Infinite once
    the terminals can be separated, ``top`` from ``top`` upward), kept as the
    (budgets, distances) where it rises.

    A node's budgets stop at its cap, min(k, cut), where cut is its terminal
    cut: 1 for a leaf, the smaller of the children's for a series node, their
    sum for a parallel one.  L[cut] is Infinite, so budgets past the cut read
    as ``top``.  L is nondecreasing, so a node keeps only the budgets where it
    rises: at most 1 + min(k, cut, distinct distances below ``top``) steps.
    A min-cost query sets ``top`` to its target, which bounds the steps by
    the target too.  ``k`` may be INF, for budgets up to each cut.

    Leaf: its length, or Infinite after one deletion.  Series: best budget
    split, distances adding.  Parallel: best budget split, the smaller side
    deciding.  Either way L[j] is the best over the pairs of child steps
    whose budgets sum to at most j, so a node costs the product of its
    children's step counts.
    """
    if k < 0:
        raise InputError("budget must be non-negative")
    check_deadline(deadline)
    cap = min(k, 1)
    caps = [cap] * len(tree.pairs)
    steps = []
    for pair in tree.pairs:
        v = min(lengths[pair], top)
        steps.append(([0, 1], [v, top]) if cap and v < top else ([0], [v]))
    m = len(caps)
    for kind, c1, c2 in zip(tree.kind[m:], tree.left[m:], tree.right[m:]):
        check_deadline(deadline)
        serial = kind == SERIAL
        cap1, cap2 = caps[c1], caps[c2]
        cap = min(cap1, cap2) if serial else min(k, cap1 + cap2)
        (starts1, vals1), (starts2, vals2) = steps[c1], steps[c2]
        best = {}
        for b, x in zip(starts1, vals1):
            for d, y in zip(starts2, vals2):
                if b + d > cap:
                    break
                v = x + y if serial else min(x, y)
                if v > best.get(b + d, -1):
                    best[b + d] = v
        starts, vals = [], []
        for j in sorted(best):
            v = min(best[j], top)
            if not vals or v > vals[-1]:
                starts.append(j)
                vals.append(v)
        caps.append(cap)
        steps.append((starts, vals))
    return caps, steps


def _root_solution(tree: SpTree, lengths, caps, steps, top) -> Solution:
    """The witness of the root's last rise in ``_table``, the smallest budget
    reaching its largest distance.  Each node's budget is clamped at its cap
    and split at the smallest first share that scores best; that share starts
    a step of the first child, since inside a step more of it only starves
    the second.  ``_tree_distance`` vouches for the result: its size must be
    that budget and its distance, capped at ``top``, that distance."""

    def at(node, j):
        if j > caps[node]:
            return top
        starts, vals = steps[node]
        return vals[bisect_right(starts, j) - 1]

    starts, vals = steps[-1]
    cost, value = starts[-1], vals[-1]
    m = len(tree.pairs)
    chosen = set()
    stack = [(len(caps) - 1, cost)]
    while stack:
        node, j = stack.pop()
        j = min(j, caps[node])
        if j == 0:
            continue
        if node < m:
            chosen.add(tree.pairs[node])
            continue
        c1, c2 = tree.left[node], tree.right[node]
        serial = tree.kind[node] == SERIAL
        hi = min(j, caps[c1])
        best, arg = None, None
        for b, x in zip(*steps[c1]):
            if b > hi:
                break
            y = at(c2, j - b)
            v = x + y if serial else min(x, y)
            if best is None or v > best:
                best, arg = v, b
        stack.append((c1, arg))
        stack.append((c2, j - arg))
    if len(chosen) != cost:
        raise AssertionError("series-parallel witness size is not its cost")
    dist = _tree_distance(tree, lengths, chosen)
    if min(dist, top) != value:
        raise AssertionError("series-parallel witness misses its distance")
    return Solution(frozenset(chosen), dist)


def sp_min_cost(tree: SpTree, lengths, ell: int, *, budget=INF,
                deadline=None):
    """Fewest deletions pushing the terminal distance to at least ell, plus a
    witness, on a series-parallel decomposition.  ``lengths`` maps each leaf's
    endpoint pair to its length.  The cost is the smallest budget whose
    largest distance reaches ell, read off one table capped at ell.  A cost
    above ``budget`` comes back as (INF, None)."""
    if ell < 1:
        raise InputError("target length must be at least 1")
    caps, steps = _table(tree, lengths, budget, ell, deadline)
    if steps[-1][1][-1] < ell:
        return INF, None
    # distances are capped at ell, so the last rise is the first to reach it
    sol = _root_solution(tree, lengths, caps, steps, ell)
    return sol.cardinality, sol


def sp_max_length(tree: SpTree, lengths, k: int, *, deadline=None):
    """Largest terminal distance reachable with at most k deletions, plus a
    minimum witness; Infinite when the budget can separate the terminals."""
    caps, steps = _table(tree, lengths, k, INF, deadline)
    sol = _root_solution(tree, lengths, caps, steps, INF)
    return sol.achieved_distance, sol


def solve_diameter2(instance, *, stats=None, deadline=None):
    """Decision answer for unit-length graphs of diameter at most two, after
    checking both conditions; ``diameter2_unchecked`` answers without."""
    if not instance.unit_length:
        raise PreconditionError("closed form needs unit lengths")
    if not diameter_at_most_two(instance.graph, deadline=deadline):
        raise PreconditionError("graph diameter exceeds two")
    return diameter2_unchecked(instance, stats=stats, deadline=deadline)


def diameter2_unchecked(instance, *, stats=None, deadline=None):
    """solve_diameter2 for a caller that has checked its conditions once
    for a whole walk of decisions.

    Targets of five or more force separating a terminal from its whole
    neighborhood, so the answer is a degree comparison; targets below that
    are already met or fall to a three-wide search tree.
    """
    _require_ell(instance)
    g, s, t = instance.graph, instance.s, instance.t
    if instance.trivially_yes:
        return evaluate_solution(g, s, t, ())
    if instance.ell >= 5:
        if instance.k >= min(g.degree(s), g.degree(t)):
            side = s if g.degree(s) <= g.degree(t) else t
            star = [g.edges[eid] for _, eid in g.neighbors(side)]
            return evaluate_solution(g, s, t, star)
        return None
    return search_tree(instance, stats=stats, deadline=deadline)


def solve_complete_unit(instance, *, stats=None, deadline=None):
    """Decision answer for complete unit-length graphs: one deletion moves
    the terminal distance to two, and anything beyond that requires cutting a
    terminal's whole star of n-1 edges.  Nothing is searched, so ``stats``
    and ``deadline`` go unused; they match the other decision solvers."""
    _require_ell(instance)
    if not instance.unit_length:
        raise PreconditionError("closed form needs unit lengths")
    g, s, t = instance.graph, instance.s, instance.t
    if 2 * g.m != g.n * (g.n - 1):
        raise PreconditionError("graph is not complete")
    if instance.ell == 1:
        return evaluate_solution(g, s, t, ())
    if instance.ell == 2:
        if instance.k >= 1:
            return evaluate_solution(g, s, t, [(min(s, t), max(s, t))])
        return None
    if instance.k >= g.n - 1:
        star = [g.edges[eid] for _, eid in g.neighbors(s)]
        return evaluate_solution(g, s, t, star)
    return None
