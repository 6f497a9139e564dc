"""Polynomially solvable special cases.

Two-terminal series-parallel graphs admit dynamic programs over the
decomposition tree for both optimization variants; graphs of diameter at most
two and complete unit-length graphs have closed-form answers (with a small
delegated band for the former).
"""

from __future__ import annotations

from .errors import InputError, PreconditionError, check_deadline
from .exact import search_tree
from .graph import INF, Solution, diameter_at_most_two, evaluate_solution
from .sptree import SERIAL, SpTree


def _tree_distance(tree: SpTree, lengths, deleted):
    """Terminal-to-terminal distance after deleting the given leaf edges,
    evaluated straight off the decomposition (series add, parallel take the
    minimum).  Independent of the DP tables, so it can vouch for them."""
    vals = {}
    for node in tree.postorder():
        if node.is_leaf:
            v = INF if node.label in deleted else lengths[node.label]
        else:
            a, b = (vals[id(child)] for child in node.children)
            v = a + b if node.label == SERIAL else min(a, b)
        vals[id(node)] = v
    return vals[id(tree.root)]


class MinCostTable:
    """Per-node arrays C[x] for x in 0..ell: the fewest deletions inside the
    subnetwork so that no terminal-to-terminal path is shorter than x.

    Leaf: 1 when the edge is too short, else 0.  Series: best split of the
    requirement between the halves.  Parallel: both halves must comply, and
    their edge sets are disjoint, so costs add.
    """

    def __init__(self, tree: SpTree, lengths, ell: int, *, deadline=None):
        if ell < 1:
            raise InputError("target length must be at least 1")
        self.tree = tree
        self.ell = ell
        self._costs = {}
        self._splits = {}
        cuts = {}
        for node in tree.postorder():
            check_deadline(deadline)
            if node.is_leaf:
                tau = lengths[node.label]
                costs = [0 if x == 0 or tau >= x else 1
                         for x in range(ell + 1)]
                cut = 1
            else:
                c1, c2 = (self._costs[id(child)] for child in node.children)
                k1, k2 = (cuts[id(child)] for child in node.children)
                if node.label == SERIAL:
                    costs, splits = [], []
                    for x in range(ell + 1):
                        best, arg = None, None
                        for xp in range(x + 1):
                            cand = c1[xp] + c2[x - xp]
                            if best is None or cand < best:
                                best, arg = cand, xp
                        costs.append(best)
                        splits.append(arg)
                    self._splits[id(node)] = splits
                    cut = min(k1, k2)
                else:
                    costs = [c1[x] + c2[x] for x in range(ell + 1)]
                    cut = k1 + k2
            assert costs[0] == 0
            assert all(costs[x - 1] <= costs[x] for x in range(1, ell + 1))
            assert all(c <= cut for c in costs)
            self._costs[id(node)] = costs
            cuts[id(node)] = cut

    def cost(self, node, x: int) -> int:
        return self._costs[id(node)][x]

    @property
    def root_cost(self) -> int:
        return self._costs[id(self.tree.root)][self.ell]

    def witness(self) -> frozenset:
        """Edge set realizing C[root, ell], by replaying the stored split
        points (ties were broken toward the smaller left share)."""
        out = set()
        stack = [(self.tree.root, self.ell)]
        while stack:
            node, x = stack.pop()
            if x <= 0:
                continue
            if node.is_leaf:
                if self._costs[id(node)][x]:
                    out.add(node.label)
            elif node.label == SERIAL:
                xp = self._splits[id(node)][x]
                stack.append((node.children[0], xp))
                stack.append((node.children[1], x - xp))
            else:
                stack.append((node.children[0], x))
                stack.append((node.children[1], x))
        return frozenset(out)


class MaxLengthTable:
    """Per-node arrays L[j] for j in 0..k: the largest terminal distance
    achievable with at most j deletions inside the subnetwork (Infinite once
    the terminals can be separated).

    Leaf: its length, or Infinite after one deletion.  Series: best budget
    split, distances adding.  Parallel: best budget split, the smaller side
    deciding.
    """

    def __init__(self, tree: SpTree, lengths, k: int, *, deadline=None):
        if k < 0:
            raise InputError("budget must be non-negative")
        self.tree = tree
        self.k = k
        self._vals = {}
        self._splits = {}
        for node in tree.postorder():
            check_deadline(deadline)
            if node.is_leaf:
                vals = [lengths[node.label]] + [INF] * k
            else:
                v1, v2 = (self._vals[id(child)] for child in node.children)
                serial = node.label == SERIAL
                vals, splits = [], []
                for j in range(k + 1):
                    best, arg = None, None
                    for j1 in range(j + 1):
                        a, b = v1[j1], v2[j - j1]
                        cand = a + b if serial else min(a, b)
                        if best is None or cand > best:
                            best, arg = cand, j1
                    vals.append(best)
                    splits.append(arg)
                self._splits[id(node)] = splits
            assert all(vals[j - 1] <= vals[j] for j in range(1, k + 1))
            self._vals[id(node)] = vals

    def value(self, node, j: int):
        return self._vals[id(node)][j]

    @property
    def root_value(self):
        return self._vals[id(self.tree.root)][self.k]

    def witness(self) -> frozenset:
        out = set()
        stack = [(self.tree.root, self.k)]
        while stack:
            node, j = stack.pop()
            if node.is_leaf:
                if j >= 1:
                    out.add(node.label)
            else:
                j1 = self._splits[id(node)][j]
                stack.append((node.children[0], j1))
                stack.append((node.children[1], j - j1))
        return frozenset(out)


def sp_min_cost(tree: SpTree, lengths, ell: int, *, deadline=None):
    """Fewest deletions pushing the terminal distance to at least ell, plus a
    witness, on a series-parallel decomposition.  ``lengths`` maps each leaf's
    endpoint pair to its length."""
    table = MinCostTable(tree, lengths, ell, deadline=deadline)
    chosen = table.witness()
    if len(chosen) != table.root_cost:
        raise AssertionError("min-cost witness size differs from its cost")
    dist = _tree_distance(tree, lengths, chosen)
    if dist < ell:
        raise AssertionError("min-cost witness misses the target")
    return table.root_cost, Solution(chosen, dist)


def sp_max_length(tree: SpTree, lengths, k: int, *, deadline=None):
    """Largest terminal distance reachable with at most k deletions, plus a
    witness.  Returns Infinite when the budget can separate the terminals."""
    table = MaxLengthTable(tree, lengths, k, deadline=deadline)
    chosen = table.witness()
    if len(chosen) > k:
        raise AssertionError("max-length witness exceeds the budget")
    dist = _tree_distance(tree, lengths, chosen)
    if dist != table.root_value:
        raise AssertionError("max-length witness misses the optimum")
    return table.root_value, Solution(chosen, dist)


def solve_diameter2(instance):
    """Decision answer for unit-length graphs of diameter at most two.

    Targets of five or more force separating a terminal from its whole
    neighborhood, so the answer is a degree comparison; targets below that
    are already met or fall to a three-wide search tree.
    """
    if instance.ell is None:
        raise InputError("decision solving needs a target length ell")
    if not instance.unit_length:
        raise PreconditionError("closed form needs unit lengths")
    if not diameter_at_most_two(instance.graph):
        raise PreconditionError("graph diameter exceeds two")
    g, s, t = instance.graph, instance.s, instance.t
    if instance.trivially_yes:
        return evaluate_solution(g, s, t, ())
    if instance.ell >= 5:
        if instance.k >= min(g.degree(s), g.degree(t)):
            side = s if g.degree(s) <= g.degree(t) else t
            star = [g.edges[eid] for _, eid in g.neighbors(side)]
            return evaluate_solution(g, s, t, star)
        return None
    return search_tree(instance)


def solve_complete_unit(instance):
    """Decision answer for complete unit-length graphs: one deletion moves
    the terminal distance to two, and anything beyond that requires cutting a
    terminal's whole star of n-1 edges."""
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
