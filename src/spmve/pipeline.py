"""One solve pipeline for the three variants: pick the engine once,
kernelize once, answer the variant, lift the witness back once.  Every step
honours the same deadline."""

from . import approx, exact, kernel, poly
from .errors import DeadlineExceeded, InputError, PreconditionError
from .graph import (INF, cluster_vertex_deletion_set, diameter,
                    evaluate_solution)
from .sptree import build_sp_tree

ALGORITHMS = ("auto", "bruteforce", "searchtree", "spdp", "cvd", "diam2",
              "complete", "greedy", "paramapprox")
VARIANTS = ("decision", "mincost", "maxlength")
APPROX_VARIANT = {"greedy": "mincost", "paramapprox": "maxlength"}


def solve(instance, variant="decision", alg="auto", *, kernelize=True,
          c=1.0, stats=None, deadline=None):
    """Returns (engine, answer, Solution | None, extras).

    ``engine`` is the one that ran ("auto" resolves to another, or to
    "trivial").  ``answer`` is "yes"/"no", the fewest deletions (mincost) or
    the largest distance, INF when the budget separates s and t (maxlength);
    it is "unknown" once ``deadline``, a time.monotonic() value, passes.
    ``extras`` holds the certificates of the approximations.
    """
    if alg not in ALGORITHMS or variant not in VARIANTS:
        raise InputError(f"unknown algorithm {alg!r} or variant {variant!r}")
    if alg in APPROX_VARIANT and variant != APPROX_VARIANT[alg]:
        raise InputError(f"--alg {alg} only supports --variant "
                         f"{APPROX_VARIANT[alg]}")
    engine = alg
    try:
        engine, tree = _pick_engine(instance, variant, alg, deadline)
        return (engine,) + _run(instance, variant, engine, tree, kernelize,
                                c, stats, deadline)
    except DeadlineExceeded:
        return engine, "unknown", None, {}


def _pick_engine(instance, variant, alg, deadline):
    """(engine, series-parallel tree or None).  The closed forms of "auto"
    answer the decision version only; the tree built while recognizing is
    the one the dynamic program runs on."""
    g, s, t = instance.graph, instance.s, instance.t
    if alg == "auto" and variant == "decision":
        if instance.trivially_yes:
            return "trivial", None
        if instance.unit_length and 2 * g.m == g.n * (g.n - 1):
            return "complete", None
        if (instance.unit_length and instance.ell not in (2, 3, 4)
                and diameter(g, deadline=deadline) <= 2):
            return "diam2", None
    if alg not in ("auto", "spdp"):
        return alg, None
    tree = build_sp_tree(g, s, t, deadline=deadline)
    if tree is not None:
        return "spdp", tree
    if alg == "spdp":
        raise PreconditionError(
            "the terminal pair admits no series-parallel decomposition")
    return "searchtree", None


def _run(instance, variant, engine, tree, kernelize, c, stats, deadline):
    """(answer, Solution | None, extras) of a resolved engine."""
    g, s, t = instance.graph, instance.s, instance.t
    if engine == "trivial":
        return "yes", evaluate_solution(g, s, t, ()), {}
    if engine == "greedy":
        sol, rounds = approx.greedy_ell_approx(g, s, t, instance.ell)
        return sol.cardinality, sol, {"opt_lower_bound": rounds}
    if engine == "paramapprox":
        sol, cert = approx.param_approx_max_length(instance, c, stats=stats,
                                                   deadline=deadline)
        return sol.achieved_distance, sol, {
            "certificate": cert.kind, "certificate_factor": cert.factor}
    if engine == "spdp":
        return _sp_answer(instance, variant, tree, deadline) + ({},)
    # Only these two run on the kernel; the closed forms and the cluster
    # solver have preconditions (unit lengths, bounded diameter,
    # completeness) that length contraction can break.
    trace = None
    if kernelize and engine in ("bruteforce", "searchtree"):
        trace = kernel.kernelize(instance, deadline=deadline)
    answer, sol = _answer(trace.kernel if trace else instance, variant,
                          engine, stats, deadline)
    if sol is not None and trace:
        sol = kernel.lift_solution(trace, sol)
    return answer, sol, {}


def _sp_answer(instance, variant, tree, deadline):
    """(answer, Solution | None) from the series-parallel programs."""
    g, s, t = instance.graph, instance.s, instance.t
    lengths = {pair: g.lengths[i] for i, pair in enumerate(g.edges)}
    if variant == "maxlength":
        answer, sol = poly.sp_max_length(tree, lengths, instance.k,
                                         deadline=deadline)
    else:
        answer, sol = poly.sp_min_cost(tree, lengths, instance.ell,
                                       deadline=deadline)
    if variant == "decision":
        if answer > instance.k:
            return "no", None
        answer = "yes"
    return answer, evaluate_solution(g, s, t, sol.deleted_edges)


def _decider(engine, graph, deadline):
    """An engine's decision callable (instance, *, stats, deadline)."""
    if engine == "cvd":
        decomposition = cluster_vertex_deletion_set(graph, deadline=deadline)
        return lambda inst, **kw: exact.cvd_fpt(inst, decomposition, **kw)
    if engine == "diam2":
        return lambda inst, **_: poly.solve_diameter2(inst)
    if engine == "complete":
        return lambda inst, **_: poly.solve_complete_unit(inst)
    return exact.brute_force if engine == "bruteforce" else exact.search_tree


def _answer(instance, variant, engine, stats, deadline):
    """(answer, Solution | None) of a variant, from an engine's decisions."""
    g, s, t = instance.graph, instance.s, instance.t
    decide = _decider(engine, g, deadline)
    # The search tree's first-found witness follows its branch order, which
    # differs between a graph and its kernel.  Sweeping the budget upward
    # makes every witness it reports a minimum one, so the witness size does
    # not depend on kernelization.
    sweep = engine == "searchtree"
    if variant == "decision":
        if sweep:
            sol = exact.min_cost(g, s, t, instance.ell, decide,
                                 budget=instance.k, stats=stats,
                                 deadline=deadline)
        else:
            sol = decide(instance, stats=stats, deadline=deadline)
        return ("yes" if sol is not None else "no"), sol
    if variant == "mincost":
        sol = exact.min_cost(g, s, t, instance.ell, decide, stats=stats,
                             deadline=deadline)
        return sol.cardinality, sol
    value, sol = exact.max_length(g, s, t, instance.k, decide, stats=stats,
                                  deadline=deadline)
    if value < INF and sweep:
        sol = exact.min_cost(g, s, t, value, decide, stats=stats,
                             deadline=deadline)
    return value, sol
