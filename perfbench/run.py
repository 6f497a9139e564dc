"""Solve benchmark for spmve.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark builds the workload's
corpus from the seed with its own generators and oracles (``workloads.py``,
``oracle.py``), writes the instance files under ``.perfbench_out/``, and
drives ``spmve solve`` in this process through ``spmve.cli.main`` imported
from the checkout's ``src/``: one thread, a closed loop with one client,
whole passes over the corpus until ``--seconds`` have gone by.  Every answer
is checked against the oracle, and every pass must print the same bytes
apart from ``wall_ms``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
wrappers of ``spans.py``, alternates traced and untraced passes, and reports
the per-layer metrics per traced pass.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import heapq
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 3            # set-ups per run; setup_s is their median
DEADLINE_SLACK_MS = 50  # a deadline query failed if later than timeout+slack
# The host's speed drifts by tens of percent within seconds and between
# runs.  A fixed loop of the same kind of work as the solvers runs between
# solves, at most every CAL_EVERY_S, outside their timing; every time metric
# is divided by the run's slowdown, the loop's median time / CAL_REF_S.
CAL_ROUNDS = 12000
CAL_REF_S = 0.005
CAL_EVERY_S = 0.25

END_TO_END = (("solves_per_s", "1/s"), ("solve_ms_p50", "ms"),
              ("solve_ms_p90", "ms"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
LAYER_MS = ("fileformat.parse", "graph.diameter", "graph.dijkstra",
            "graph.min_st_cut", "graph.evaluate", "graph.cvd_set",
            "sptree.build", "kernel.kernelize", "kernel.lift",
            "exact.search", "exact.cvd", "poly.sp_dp")
LAYER_CALLS = ("graph.diameter", "graph.dijkstra", "graph.min_st_cut",
               "sptree.build", "exact.search")


def calibrate():
    """Seconds taken by a fixed loop of dict, heap and integer work."""
    started = time.perf_counter()
    table, heap = {}, []
    for i in range(CAL_ROUNDS):
        table[i % 997] = table.get(i % 991, 0) + i
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 50:
            heapq.heappop(heap)
    return time.perf_counter() - started


class HostSpeed:
    """Calibration samples taken between solves during a run."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0   # seconds inside calibrate()
        self.last = float("-inf")

    def tick(self):
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            took = calibrate()
            self.samples.append(took)
            self.spent += took
            self.last = time.perf_counter()

    def slowdown(self):
        return statistics.median(self.samples) / CAL_REF_S


def import_cli():
    """Import spmve.cli afresh from the checkout's src/ (a set-up step, so
    it is repeated with each set-up)."""
    for name in [m for m in sys.modules
                 if m == "spmve" or m.startswith("spmve.")]:
        del sys.modules[name]
    cli = importlib.import_module("spmve.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"spmve was imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def solve_once(main, argv, rec=None):
    """One solve from instance file to JSON line: (seconds, exit code,
    stdout)."""
    buf = io.StringIO()
    span = rec.open(spans.ROOT_CODE) if rec is not None else None
    started = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    elapsed = time.perf_counter() - started
    if span is not None:
        rec.close(span)
    return elapsed, code, buf.getvalue()


def run_pass(main, jobs, host, rec=None):
    """Every query once, in corpus order, sampling the host's speed between
    solves.  Returns the results and the seconds spent outside calibration.
    Deadline queries are never traced: where they stop depends on the
    clock."""
    started, calibrating = time.perf_counter(), host.spent
    results = []
    for argv, deadline_query in jobs:
        host.tick()
        traced = rec is not None and not deadline_query
        if rec is not None:
            rec.on = traced
        results.append(solve_once(main, argv, rec if traced else None))
    if rec is not None:
        rec.on = False
    return results, time.perf_counter() - started - (host.spent - calibrating)


def set_up(corpus, workdir, host):
    """Import the program, write the corpus, run one untimed pass.
    Returns (seconds taken, cli module, jobs)."""
    started, calibrating = time.perf_counter(), host.spent
    cli = import_cli()
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, graph in enumerate(corpus.graphs):
        path = workdir / f"{i:03d}.mve"
        path.write_text(workloads.instance_text(graph), encoding="utf-8")
        paths.append(str(path))
    jobs = [(corpus.argv(q, paths[q["graph"]]), q["timeout_ms"] is not None)
            for q in corpus.queries]
    run_pass(cli.main, jobs, host)
    taken = time.perf_counter() - started - (host.spent - calibrating)
    return taken, cli, jobs


def check_passes(corpus, passes):
    """Problems with any output of any pass (empty when all are right)."""
    problems = []
    first = passes[0]
    for qi, query in enumerate(corpus.queries):
        graph = corpus.graphs[query["graph"]]
        _, code, line = first[qi]
        if code != 0:
            problems.append(f"query {qi}: exit code {code}")
            continue
        for p in oracle.check(graph, query, json.loads(line),
                              query["expected"]):
            problems.append(f"query {qi} {query['variant']}: {p}")
        if query["timeout_ms"] is not None:
            continue  # where a deadline hits depends on the clock
        reference = oracle.strip_wall(line)
        for pi, other in enumerate(passes[1:], start=1):
            _, code, line = other[qi]
            if code != 0 or oracle.strip_wall(line) != reference:
                problems.append(f"query {qi}: pass {pi} differs from pass 0")
    return problems


def self_test(corpus, outputs):
    """The checker must reject a witness with one edge dropped and a
    decision with its yes/no flipped.  Returns problems (empty when it
    does)."""
    dropped = flipped = False
    for query, (_, _, line) in zip(corpus.queries, outputs):
        payload = json.loads(line)
        graph = corpus.graphs[query["graph"]]
        if payload["solution_edges"] and not dropped:
            bad = dict(payload, solution_edges=payload["solution_edges"][1:])
            dropped = bool(oracle.check(graph, query, bad, query["expected"]))
        if payload["answer"] in ("yes", "no") and not flipped:
            other = "no" if payload["answer"] == "yes" else "yes"
            flipped = bool(oracle.check(graph, query, dict(payload, answer=other),
                                        query["expected"]))
    problems = []
    if not dropped:
        problems.append("self-test: a witness with an edge dropped passed")
    if not flipped:
        problems.append("self-test: a flipped decision passed")
    return problems


def end_to_end(passes, pass_s, setups, slowdown):
    """The end-to-end metrics, times divided by the host's slowdown."""
    times_ms = [t * 1000.0 for results in passes for t, _, _ in results]
    return {
        "solves_per_s": len(times_ms) / sum(pass_s) * slowdown,
        "solve_ms_p50": statistics.median(times_ms) / slowdown,
        "solve_ms_p90": statistics.quantiles(times_ms, n=10)[8] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups) / slowdown,
    }


def per_layer(rec, traced, pass_s, slowdown):
    """Per traced pass: self time (divided by the host's slowdown) and calls
    per layer, counts, coverage, and the traced/untraced pass-time ratio
    (passes alternate)."""
    calls, self_s, root_s = rec.totals()
    passes = len(traced)
    ms = 1000.0 / (passes * slowdown)
    out = {f"{name}_ms": self_s[name] * ms for name in LAYER_MS}
    out.update({f"{name}_calls": calls[name] / passes for name in LAYER_CALLS})
    nodes = {"searchtree": 0, "cvd": 0}
    for results in traced:
        for _, _, line in results:
            payload = json.loads(line)
            if payload["algorithm"] in nodes:
                nodes[payload["algorithm"]] += payload["nodes_explored"]
    out["kernel.kernel_m"] = rec.kernel_m / passes
    out["exact.search_nodes"] = nodes["searchtree"] / passes
    out["exact.cvd_nodes"] = nodes["cvd"] / passes
    out["cli.self_ms"] = self_s[spans.ROOT] * ms
    out["trace.solve_ms"] = root_s * ms
    out["trace.coverage"] = 1.0 - self_s[spans.ROOT] / root_s
    out["trace.overhead"] = (statistics.mean(pass_s[0::2])
                             / statistics.mean(pass_s[1::2]))
    return out


def unit(name):
    if name in ("trace.coverage", "trace.overhead"):
        return "ratio"
    return "ms" if name.endswith("_ms") else "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "spmve" / "cli.py").is_file():
        raise SystemExit(f"no spmve sources under {SRC}")
    sys.path.insert(0, str(SRC))

    corpus = workloads.WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    host = HostSpeed()
    setups = []
    for _ in range(SETUPS):
        seconds, cli, jobs = set_up(corpus, workdir, host)
        setups.append(seconds)

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    passes, pass_s = [], []
    started = time.perf_counter()
    while True:
        traced = rec is not None and len(passes) % 2 == 0
        results, seconds = run_pass(cli.main, jobs, host,
                                    rec if traced else None)
        passes.append(results)
        pass_s.append(seconds)
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and (rec is None or len(passes) >= 2):
            break

    problems = check_passes(corpus, passes) + self_test(corpus, passes[0])
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    failed = 0
    for results in passes:
        for query, (t, _, _) in zip(corpus.queries, results):
            if query["timeout_ms"] is not None and (
                    t * 1000.0 > query["timeout_ms"] + DEADLINE_SLACK_MS):
                failed += 1
    attempted = len(passes) * len(corpus.queries)

    slowdown = host.slowdown()
    print(f"{'host slowdown':24s} {slowdown:14.4f} (times below are divided by it)")
    if rec is None:
        metrics = end_to_end(passes, pass_s, setups, slowdown)
        units = dict(END_TO_END)
    else:
        metrics = per_layer(rec, passes[0::2], pass_s, slowdown)
        units = {name: unit(name) for name in metrics}
        rec.write(OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz")

    for name, value in metrics.items():
        print(f"{name:24s} {value:14.4f} {units[name]}")
    print(f"{'attempted':24s} {attempted:9d}\n{'failed':24s} {failed:9d}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)


if __name__ == "__main__":
    main()
