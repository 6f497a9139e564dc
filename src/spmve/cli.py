"""Command-line front end: the solve, gen, verify and bench subcommands.

Results are printed as single-line JSON with sorted keys so identical runs
produce identical bytes (the ``wall_ms`` field is the one exception — it
reports real elapsed time).  Exit codes: 0 solved/passed, 1 verification
failed, 2 usage or precondition problem, 3 unparseable input.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import exact, generators, kernel
from .errors import InputError, ParseError, PreconditionError
from .fileformat import emit_instance, parse_instance
from .graph import INF, evaluate_solution, min_st_cut_size, st_distance
from .pipeline import ALGORITHMS, APPROX_VARIANT, VARIANTS, solve

BENCH_COLUMNS = ("file", "algorithm", "answer", "wall_ms", "nodes",
                 "n", "m", "kernel_n", "kernel_m", "k", "ell")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _json_distance(value):
    if value is None:
        return None
    return "inf" if value == INF else value


def _deadline(timeout_ms):
    return time.monotonic() + timeout_ms / 1000.0 if timeout_ms else None


def _cmd_solve(args) -> int:
    base = parse_instance(_read_text(args.instance))
    variant = args.variant
    if variant == "mincost" and args.k is not None:
        raise InputError("--variant mincost determines k; drop --k")
    if variant == "maxlength":
        if args.k is None:
            raise InputError("--variant maxlength requires --k")
        if args.ell is not None:
            raise InputError("--variant maxlength determines the distance; "
                             "drop --ell")

    instance = replace(base, k=args.k or 0, ell=args.ell)
    stats = exact.SolveStats()
    deadline = _deadline(args.timeout_ms)
    started = time.perf_counter()
    label, answer, sol, extras = solve(
        instance, variant, args.alg, kernelize=args.kernelize == "on",
        c=args.c, stats=stats, deadline=deadline)
    wall_ms = round((time.perf_counter() - started) * 1000.0, 3)

    payload = {
        "schema": 1,
        "variant": variant,
        "algorithm": label,
        "k": instance.k if variant != "mincost" else None,
        "ell": instance.ell,
        "answer": _json_distance(answer),
        "solution_edges": (sorted([u + 1, v + 1] for u, v in sol.deleted_edges)
                           if sol is not None else None),
        "distance_after": _json_distance(sol.achieved_distance
                                         if sol is not None else None),
        "nodes_explored": stats.nodes,
        "wall_ms": wall_ms,
    }
    payload.update(extras)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_gen(args) -> int:
    instance = generators.gen_random(
        args.family, seed=args.seed, n=args.n, m=args.m, p=args.p,
        x=args.x, f=args.f, max_length=args.max_length)
    text = emit_instance(instance)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    g = instance.graph
    try:
        payload = json.loads(_read_text(args.solution))
    except json.JSONDecodeError as exc:
        raise ParseError("BadJson", exc.lineno, exc.msg) from None
    if not isinstance(payload, dict):
        raise ParseError("BadJson", 1, "expected a JSON object")

    edges = payload.get("solution_edges")
    if edges is None:
        print("fail MissingSolution: result carries no edge set")
        return 1
    k = args.k if args.k is not None else payload.get("k")
    ell = args.ell if args.ell is not None else payload.get("ell")
    if ell is None:
        ell = payload.get("distance_after")
    if ell == "inf":
        ell = INF
    # JSON booleans are ints to Python: ``type`` refuses them as numbers
    if not (type(ell) is int or ell == INF):
        raise InputError("no target length available: pass --ell")
    if k is not None and type(k) is not int:
        raise InputError("budget k must be an integer")
    if not isinstance(edges, list):
        print("fail MalformedSolution: solution_edges is not a list")
        return 1

    pairs = []
    for item in edges:
        if not (isinstance(item, list) and len(item) == 2
                and all(type(c) is int for c in item)):
            print(f"fail MalformedSolution: bad edge entry {item!r}")
            return 1
        u, v = item
        if not (1 <= u <= g.n and 1 <= v <= g.n and u != v
                and g.has_edge(u - 1, v - 1)):
            print(f"fail EdgeNotInGraph: ({u},{v})")
            return 1
        pairs.append((u - 1, v - 1))
    sol = evaluate_solution(g, instance.s, instance.t, pairs)
    if k is not None and sol.cardinality > k:
        print(f"fail BudgetExceeded: {sol.cardinality} deletions, k={k}")
        return 1
    dist = _json_distance(sol.achieved_distance)
    if sol.achieved_distance < ell:
        print(f"fail DistanceTooSmall: distance {dist} below target "
              f"{_json_distance(ell)}")
        return 1
    print(f"pass: {sol.cardinality} deletions, distance {dist} reaches "
          f"target {_json_distance(ell)}")
    return 0


def _cmd_bench(args) -> int:
    directory = Path(args.corpus)
    if not directory.is_dir():
        raise InputError(f"not a directory: {args.corpus}")
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    for alg in algs:
        if alg not in ALGORITHMS or alg in APPROX_VARIANT:
            raise InputError(f"bench cannot run algorithm {alg!r}")

    rows = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            base = parse_instance(path.read_text(encoding="utf-8"))
        except (OSError, ParseError, InputError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        g = base.graph
        dist = st_distance(g, base.s, base.t)
        ell = args.ell if args.ell is not None else \
            (dist + 2 if dist < INF else 1)
        cut = min_st_cut_size(g, base.s, base.t)
        k = args.k if args.k is not None else max(0, cut - 1)
        instance = replace(base, k=k, ell=ell)
        trace = kernel.kernelize(instance)
        for alg in algs:
            stats = exact.SolveStats()
            deadline = _deadline(args.timeout_ms)
            started = time.perf_counter()
            try:
                answer = solve(instance, "decision", alg,
                               kernelize=args.kernelize == "on",
                               stats=stats, deadline=deadline)[1]
            except (InputError, PreconditionError) as exc:
                print(f"warning: {alg} on {path.name}: {exc}",
                      file=sys.stderr)
                answer = "error"
            wall_ms = round((time.perf_counter() - started) * 1000.0, 3)
            rows.append({
                "file": path.name, "algorithm": alg, "answer": answer,
                "wall_ms": wall_ms, "nodes": stats.nodes,
                "n": g.n, "m": g.m,
                "kernel_n": trace.kernel.graph.n,
                "kernel_m": trace.kernel.graph.m,
                "k": k, "ell": ell,
            })

    widths = {c: max([len(c)] + [len(str(r[c])) for r in rows])
              for c in BENCH_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in BENCH_COLUMNS).rstrip())
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c])
                        for c in BENCH_COLUMNS).rstrip())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """Built once and shared by every call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spmve",
        description="Delete few edges to make two vertices far apart.")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("solve", help="solve one instance file")
    cmd.add_argument("instance", help="instance file, or - for stdin")
    cmd.add_argument("--alg", choices=ALGORITHMS, default="auto")
    cmd.add_argument("--variant", choices=VARIANTS, default="decision")
    cmd.add_argument("--k", type=int, default=None,
                     help="deletion budget (decision, maxlength)")
    cmd.add_argument("--ell", type=int, default=None,
                     help="target distance (decision, mincost)")
    cmd.add_argument("--kernelize", choices=("on", "off"), default="on")
    cmd.add_argument("--timeout-ms", type=int, default=None)
    cmd.add_argument("--c", type=float, default=1.0,
                     help="tradeoff constant for --alg paramapprox")
    cmd.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="emit a seeded random instance")
    gen.add_argument("--family", choices=generators.FAMILIES, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--p", type=float, default=0.3)
    gen.add_argument("--x", type=int, default=None)
    gen.add_argument("--f", type=int, default=None)
    gen.add_argument("--max-length", type=int, default=1)
    gen.add_argument("--out", "-o", default="-")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="check a solution JSON file")
    verify.add_argument("instance")
    verify.add_argument("solution", help="JSON produced by solve")
    verify.add_argument("--k", type=int, default=None)
    verify.add_argument("--ell", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run algorithms over a corpus dir")
    bench.add_argument("corpus")
    bench.add_argument("--algs", default="auto",
                       help="comma-separated algorithm list")
    bench.add_argument("--k", type=int, default=None)
    bench.add_argument("--ell", type=int, default=None)
    bench.add_argument("--kernelize", choices=("on", "off"), default="on")
    bench.add_argument("--timeout-ms", type=int, default=None)
    bench.add_argument("--csv", default=None, help="also write CSV here")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (InputError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
