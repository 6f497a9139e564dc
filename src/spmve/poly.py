"""Polynomially solvable special cases.

Two-terminal series-parallel graphs admit dynamic programs over the
decomposition tree for both optimization variants; graphs of diameter at most
two and complete unit-length graphs have closed-form answers (with a small
delegated band for the former).
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InputError, PreconditionError, check_deadline
from .exact import search_tree
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


class MaxLengthTable:
    """Per-node step functions L[j]: the largest terminal distance achievable
    with at most j deletions inside the subnetwork (Infinite once the
    terminals can be separated), read as ``top`` from ``top`` upward.
    Nodes are the tree's indices.

    A node's budgets stop at min(k, cut), where cut is its terminal cut: 1
    for a leaf, the smaller of the children's for a series node, their sum
    for a parallel one.  L[cut] is Infinite, so budgets past the cut read as
    ``top``.  L is nondecreasing, so a node keeps only the budgets where it
    rises: at most 1 + min(k, cut, distinct distances below ``top``) steps.
    A min-cost query sets ``top`` to its target, which bounds the steps by
    the target too.  ``k`` may be INF, for budgets up to each cut.

    Leaf: its length, or Infinite after one deletion.  Series: best budget
    split, distances adding.  Parallel: best budget split, the smaller side
    deciding.  Either way L[j] is the best over the pairs of child steps
    whose budgets sum to at most j, so a node costs the product of its
    children's step counts.  Witness splits go to the smallest first share.
    """

    def __init__(self, tree: SpTree, lengths, k, *, top=INF, deadline=None):
        if k < 0:
            raise InputError("budget must be non-negative")
        self.tree = tree
        self.k = k
        self.top = top
        check_deadline(deadline)
        cap = min(k, 1)
        self._caps = caps = [cap] * len(tree.pairs)
        self._steps = steps = []
        for pair in tree.pairs:
            v = min(lengths[pair], top)
            steps.append(([0, 1], [v, top]) if cap and v < top else ([0], [v]))
        m = len(caps)
        for kind, c1, c2 in zip(tree.kind[m:], tree.left[m:],
                                tree.right[m:]):
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

    def _check(self, j):
        if not 0 <= j <= self.k:
            raise InputError(f"budget {j} lies outside the table's 0..{self.k}")

    def _at(self, node, j):
        if j > self._caps[node]:
            return self.top
        starts, vals = self._steps[node]
        return vals[bisect_right(starts, j) - 1]

    def value(self, node: int, j: int):
        """L[node, j], for node an index of the tree and j up to the
        table's k."""
        self._check(j)
        return self._at(node, j)

    @property
    def root_steps(self) -> tuple:
        """(budgets, distances) where L rises at the root: L[j] is the
        distance of the last budget not above j, up to min(k, cut)."""
        return self._steps[-1]

    def witness(self, j) -> frozenset:
        """Edge set realizing L[root, j], for j up to the table's k.  Each
        node's budget is clamped at min(k, its cut) and split at the
        smallest first share that scores best; that share starts a step of
        the first child, since inside a step more of it only starves the
        second."""
        self._check(j)
        tree, caps = self.tree, self._caps
        m = len(tree.pairs)
        out = set()
        stack = [(len(caps) - 1, j)]
        while stack:
            node, j = stack.pop()
            j = min(j, caps[node])
            if j == 0:
                continue
            if node < m:
                out.add(tree.pairs[node])
                continue
            c1, c2 = tree.left[node], tree.right[node]
            serial = tree.kind[node] == SERIAL
            hi = min(j, caps[c1])
            best, arg = None, None
            for b, x in zip(*self._steps[c1]):
                if b > hi:
                    break
                y = self._at(c2, j - b)
                v = x + y if serial else min(x, y)
                if best is None or v > best:
                    best, arg = v, b
            stack.append((c1, arg))
            stack.append((c2, j - arg))
        return frozenset(out)


def sp_min_cost(tree: SpTree, lengths, ell: int, *, budget=INF,
                deadline=None):
    """Fewest deletions pushing the terminal distance to at least ell, plus a
    witness, on a series-parallel decomposition.  ``lengths`` maps each leaf's
    endpoint pair to its length.  The cost is the smallest budget whose
    largest distance reaches ell, read off one table capped at ell.  A cost
    above ``budget`` comes back as (INF, None)."""
    if ell < 1:
        raise InputError("target length must be at least 1")
    table = MaxLengthTable(tree, lengths, budget, top=ell, deadline=deadline)
    starts, vals = table.root_steps
    if vals[-1] < ell:
        return INF, None
    # distances are capped at ell, so the last rise is the first to reach it
    cost = starts[-1]
    chosen = table.witness(cost)
    if len(chosen) != cost:
        raise AssertionError("min-cost witness size differs from its cost")
    dist = _tree_distance(tree, lengths, chosen)
    if dist < ell:
        raise AssertionError("min-cost witness misses the target")
    return cost, Solution(chosen, dist)


def sp_max_length(tree: SpTree, lengths, k: int, *, deadline=None):
    """Largest terminal distance reachable with at most k deletions, plus a
    minimum witness; Infinite when the budget can separate the terminals."""
    table = MaxLengthTable(tree, lengths, k, deadline=deadline)
    starts, vals = table.root_steps
    # the last rise is the smallest budget reaching the largest distance
    value, cost = vals[-1], starts[-1]
    chosen = table.witness(cost)
    if len(chosen) != cost:
        raise AssertionError("max-length witness size differs from its cost")
    dist = _tree_distance(tree, lengths, chosen)
    if dist != value:
        raise AssertionError("max-length witness misses the optimum")
    return value, Solution(chosen, dist)


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
    if instance.ell is None:
        raise InputError("decision solving needs a target length ell")
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
    if instance.ell is None:
        raise InputError("decision solving needs a target length ell")
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
