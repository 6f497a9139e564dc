"""End-to-end command-line tests: solve/gen/verify/bench, JSON contract,
exit codes, and determinism."""

import csv
import io
import itertools
import json
import random
import sys
import time

import pytest

from spmve import DeadlineExceeded, exact, poly
from spmve.cli import BENCH_COLUMNS, main

DIAMOND = """p mve 4 4
s 1
t 4
e 1 2 1
e 2 4 1
e 1 3 1
e 3 4 1
"""

K5 = "p mve 5 10\ns 1\nt 5\n" + "".join(
    f"e {u} {v} 1\n"
    for u, v in itertools.combinations(range(1, 6), 2))

PATH3 = """p mve 3 2
s 1
t 3
e 1 2 1
e 2 3 1
"""


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _solve_json(capsys, *argv):
    code, out, err = _run(capsys, "solve", *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.mve"
    path.write_text(DIAMOND)
    return str(path)


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.mve"
    path.write_text(K5)
    return str(path)


# ------------------------------------------------------------------- solve

def test_solve_mincost_on_diamond(capsys, diamond_file):
    payload = _solve_json(capsys, diamond_file, "--variant", "mincost",
                          "--ell", "3")
    assert payload["answer"] == 2
    assert payload["k"] is None
    assert payload["ell"] == 3
    assert len(payload["solution_edges"]) == 2
    after = payload["distance_after"]
    assert after == "inf" or after >= 3


def test_solve_decision_on_k5(capsys, k5_file):
    no = _solve_json(capsys, k5_file, "--ell", "3", "--k", "3")
    assert no["answer"] == "no"
    assert no["solution_edges"] is None
    assert no["distance_after"] is None
    yes = _solve_json(capsys, k5_file, "--ell", "3", "--k", "4")
    assert yes["answer"] == "yes"
    assert len(yes["solution_edges"]) == 4


def test_solve_json_contract(capsys, diamond_file):
    code, out, err = _run(capsys, "solve", diamond_file,
                          "--ell", "3", "--k", "2")
    assert code == 0
    assert out.count("\n") == 1
    ordered = json.loads(out, object_pairs_hook=lambda kv: [k for k, _ in kv])
    assert ordered == sorted(ordered)
    payload = json.loads(out)
    assert set(payload) == {"schema", "variant", "algorithm", "k", "ell",
                            "answer", "solution_edges", "distance_after",
                            "nodes_explored", "wall_ms"}
    assert payload["schema"] == 1
    assert payload["variant"] == "decision"
    assert payload["k"] == 2
    edges = payload["solution_edges"]
    assert edges == sorted(edges)
    assert all(len(e) == 2 and 1 <= e[0] < e[1] <= 4 for e in edges)


def test_solve_reports_infinite_distance(capsys, diamond_file):
    payload = _solve_json(capsys, diamond_file, "--variant", "maxlength",
                          "--k", "2")
    assert payload["answer"] == "inf"
    assert payload["distance_after"] == "inf"
    assert payload["ell"] is None


def test_solve_auto_picks_closed_forms(capsys, diamond_file, k5_file):
    assert _solve_json(capsys, k5_file, "--ell", "3",
                       "--k", "4")["algorithm"] == "complete"
    assert _solve_json(capsys, diamond_file, "--ell", "2",
                       "--k", "0")["algorithm"] == "trivial"
    assert _solve_json(capsys, diamond_file, "--ell", "3",
                       "--k", "1")["algorithm"] == "spdp"


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(PATH3))
    payload = _solve_json(capsys, "-", "--ell", "3", "--k", "1")
    assert payload["answer"] == "yes"


def test_solver_choices_agree(capsys, tmp_path):
    corpus = []
    for seed in range(6):
        path = tmp_path / f"er{seed}.mve"
        code, out, _ = _run(capsys, "gen", "--family", "erdos-renyi",
                            "--seed", str(seed), "--n", "7", "--p", "0.4")
        assert code == 0
        path.write_text(out)
        corpus.append(str(path))
    for path in corpus:
        answers = {
            alg: _solve_json(capsys, path, "--alg", alg, "--ell", "3",
                             "--k", "2")["answer"]
            for alg in ("auto", "bruteforce", "searchtree")
        }
        assert len(set(answers.values())) == 1, answers


def test_greedy_and_paramapprox_extras(capsys, diamond_file):
    greedy = _solve_json(capsys, diamond_file, "--alg", "greedy",
                         "--variant", "mincost", "--ell", "3")
    assert greedy["opt_lower_bound"] >= 1
    assert greedy["answer"] >= 2
    par = _solve_json(capsys, diamond_file, "--alg", "paramapprox",
                      "--variant", "maxlength", "--k", "1", "--c", "1.0")
    assert par["certificate"] == "optimal"
    assert par["certificate_factor"] is None
    assert par["answer"] == 2


def test_solve_determinism_modulo_wall_ms(capsys, k5_file):
    runs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "solve", k5_file, "--variant", "mincost",
                            "--ell", "3")
        assert code == 0
        payload = json.loads(out)
        payload.pop("wall_ms")
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]


def test_solve_timeout_reports_unknown(capsys, tmp_path):
    # seed 4 yields a 63-edge graph whose terminal cut is 9, so a budget of
    # four forces the full subset enumeration
    code, out, _ = _run(capsys, "gen", "--family", "erdos-renyi",
                        "--seed", "4", "--n", "14", "--p", "0.7")
    assert code == 0
    path = tmp_path / "hard.mve"
    path.write_text(out)
    payload = _solve_json(capsys, str(path), "--alg", "bruteforce",
                          "--ell", "50", "--k", "4", "--timeout-ms", "1",
                          "--kernelize", "off")
    assert payload["answer"] == "unknown"
    assert payload["solution_edges"] is None
    assert payload["nodes_explored"] > 0


def test_timeout_bounds_recognition(capsys, tmp_path):
    # a random recursive tree plus three chords: the diameter test alone runs
    # one Dijkstra per vertex, and recognition and kernelization rescan the
    # graph per step, so every phase has to watch the deadline
    rng = random.Random(3)
    n = 3000
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n + 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    path = tmp_path / "tree.mve"
    path.write_text(f"p mve {n} {len(edges)}\ns 1\nt {n}\n" + "".join(
        f"e {u + 1} {v + 1} 1\n" for u, v in sorted(edges)))
    for flags in (("--ell", "100000", "--k", "1"),
                  ("--variant", "maxlength", "--k", "2")):
        started = time.monotonic()
        payload = _solve_json(capsys, str(path), "--timeout-ms", "100",
                              *flags)
        assert payload["answer"] == "unknown", flags
        assert time.monotonic() - started < 1.5, flags


def test_timeout_bounds_the_cluster_deletion_set(capsys, tmp_path):
    # a 6x6 grid is far from a cluster graph: its minimum cluster vertex
    # deletion set is large, and the iterative deepening that finds it runs
    # before cvd_fpt's own search
    side = 6
    edges = [(r * side + c, r * side + c + 1)
             for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c)
              for r in range(side - 1) for c in range(side)]
    path = tmp_path / "grid.mve"
    path.write_text(f"p mve {side * side} {len(edges)}\ns 1\n"
                    f"t {side * side}\n"
                    + "".join(f"e {u + 1} {v + 1} 1\n" for u, v in edges))
    started = time.monotonic()
    payload = _solve_json(capsys, str(path), "--alg", "cvd", "--ell", "20",
                          "--k", "1", "--timeout-ms", "100")
    assert payload["answer"] == "unknown"
    assert payload["algorithm"] == "cvd"
    assert time.monotonic() - started < 1.5


def test_timeout_reports_the_resolved_engine(capsys, monkeypatch, tmp_path,
                                             diamond_file):
    def expire(*args, **kwargs):
        raise DeadlineExceeded("solver deadline exceeded")

    monkeypatch.setattr(exact, "search_tree", expire)
    monkeypatch.setattr(poly, "sp_min_cost", expire)
    k4 = tmp_path / "k4.mve"
    k4.write_text("p mve 4 6\ns 1\nt 4\n" + "".join(
        f"e {u} {v} 1\n" for u, v in itertools.combinations(range(1, 5), 2)))
    cases = ((str(k4), ("--variant", "mincost", "--ell", "3"), "searchtree"),
             (str(k4), ("--variant", "maxlength", "--k", "1"), "searchtree"),
             (diamond_file, ("--variant", "mincost", "--ell", "3"), "spdp"),
             (diamond_file, ("--ell", "3", "--k", "1"), "spdp"))
    for path, flags, engine in cases:
        payload = _solve_json(capsys, path, *flags)
        assert payload["answer"] == "unknown", flags
        assert payload["algorithm"] == engine, flags
        assert payload["solution_edges"] is None


def test_kernelize_toggle_is_invisible(capsys, tmp_path):
    files = []
    for seed in (1, 4):
        code, out, _ = _run(capsys, "gen", "--family", "tree-plus-f-edges",
                            "--seed", str(seed), "--n", "12", "--f", "2")
        assert code == 0
        path = tmp_path / f"t{seed}.mve"
        path.write_text(out)
        files.append(str(path))
    variants = (("--variant", "decision", "--ell", "4", "--k", "2"),
                ("--variant", "mincost", "--ell", "4"),
                ("--variant", "maxlength", "--k", "2"))
    for path in files:
        for alg in ("auto", "bruteforce", "searchtree"):
            for flags in variants:
                on = _solve_json(capsys, path, "--alg", alg,
                                 "--kernelize", "on", *flags)
                off = _solve_json(capsys, path, "--alg", alg,
                                  "--kernelize", "off", *flags)
                assert on["answer"] == off["answer"], (path, alg, flags)
                a, b = on["solution_edges"], off["solution_edges"]
                assert (a is None) == (b is None)
                if a is not None:
                    assert len(a) == len(b), (path, alg, flags)


# --------------------------------------------------------------------- gen

def test_gen_is_deterministic_and_parseable(capsys, tmp_path):
    _, first, _ = _run(capsys, "gen", "--family", "series-parallel",
                       "--seed", "11", "--m", "9", "--max-length", "3")
    _, second, _ = _run(capsys, "gen", "--family", "series-parallel",
                        "--seed", "11", "--m", "9", "--max-length", "3")
    assert first == second
    out_file = tmp_path / "sp.mve"
    code, _, _ = _run(capsys, "gen", "--family", "series-parallel",
                      "--seed", "11", "--m", "9", "--max-length", "3",
                      "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == first
    payload = _solve_json(capsys, str(out_file), "--alg", "spdp",
                          "--variant", "mincost", "--ell", "4")
    assert isinstance(payload["answer"], int)


def test_gen_rejects_bad_family_parameters(capsys):
    code, _, err = _run(capsys, "gen", "--family", "erdos-renyi",
                        "--seed", "1", "--p", "2.0", "--n", "5")
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------------ verify

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_verify_accepts_solver_output(capsys, tmp_path, diamond_file):
    code, out, _ = _run(capsys, "solve", diamond_file, "--variant", "mincost",
                        "--ell", "3")
    assert code == 0
    sol = _write(tmp_path, "sol.json", out)
    code, out, _ = _run(capsys, "verify", diamond_file, sol)
    assert code == 0
    assert out.startswith("pass:")


def test_verify_accepts_every_algorithm(capsys, tmp_path, k5_file,
                                        diamond_file):
    jobs = [(k5_file, ("--alg", "complete", "--ell", "3", "--k", "4")),
            (k5_file, ("--alg", "diam2", "--ell", "5", "--k", "4")),
            (diamond_file, ("--alg", "spdp", "--ell", "3", "--k", "2")),
            (diamond_file, ("--alg", "cvd", "--ell", "3", "--k", "2")),
            (diamond_file, ("--alg", "greedy", "--variant", "mincost",
                            "--ell", "3")),
            (diamond_file, ("--alg", "paramapprox", "--variant", "maxlength",
                            "--k", "1"))]
    for instance, flags in jobs:
        code, out, err = _run(capsys, "solve", instance, *flags)
        assert code == 0, (flags, err)
        sol = _write(tmp_path, "one.json", out)
        code, out, _ = _run(capsys, "verify", instance, sol)
        assert code == 0, (flags, out)


def test_verify_failure_reasons(capsys, tmp_path, diamond_file):
    def attempt(payload, *flags):
        sol = _write(tmp_path, "bad.json", json.dumps(payload))
        return _run(capsys, "verify", diamond_file, sol, *flags)

    code, out, _ = attempt({"answer": "no", "solution_edges": None})
    assert code == 1 and out.startswith("fail MissingSolution")
    code, out, _ = attempt({"solution_edges": [[1, 2, 3]], "ell": 3})
    assert code == 1 and out.startswith("fail MalformedSolution")
    code, out, _ = attempt({"solution_edges": [[2, 3]], "ell": 3})
    assert code == 1 and out.startswith("fail EdgeNotInGraph")
    code, out, _ = attempt({"solution_edges": [[1, 2], [1, 3]],
                            "ell": 3, "k": 1})
    assert code == 1 and out.startswith("fail BudgetExceeded")
    code, out, _ = attempt({"solution_edges": [[1, 2]], "ell": 3})
    assert code == 1 and out.startswith("fail DistanceTooSmall")


def test_verify_flag_precedence(capsys, tmp_path, diamond_file):
    # one deletion leaves the other route intact: distance exactly 2
    sol = _write(tmp_path, "sol.json",
                 json.dumps({"solution_edges": [[1, 2]], "ell": 2}))
    code, out, _ = _run(capsys, "verify", diamond_file, sol)
    assert code == 0
    # the flags override the recorded target and budget
    code, out, _ = _run(capsys, "verify", diamond_file, sol, "--ell", "3")
    assert code == 1 and out.startswith("fail DistanceTooSmall")
    code, out, _ = _run(capsys, "verify", diamond_file, sol, "--k", "0")
    assert code == 1 and out.startswith("fail BudgetExceeded")


def test_verify_uses_distance_after_as_fallback_target(capsys, tmp_path,
                                                       diamond_file):
    code, out, _ = _run(capsys, "solve", diamond_file, "--variant",
                        "maxlength", "--k", "2")
    assert code == 0
    sol = _write(tmp_path, "sol.json", out)
    code, out, _ = _run(capsys, "verify", diamond_file, sol)
    assert code == 0, out


def test_verify_rejects_bad_json(capsys, tmp_path, diamond_file):
    sol = _write(tmp_path, "broken.json", "{not json")
    code, _, err = _run(capsys, "verify", diamond_file, sol)
    assert code == 3
    assert "parse error" in err


# ------------------------------------------------------------------- bench

def test_bench_table_and_csv(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in range(3):
        code, out, _ = _run(capsys, "gen", "--family", "tree-plus-f-edges",
                            "--seed", str(seed), "--n", "10", "--f", "2")
        assert code == 0
        (corpus / f"inst{seed}.mve").write_text(out)
    (corpus / "garbage.mve").write_text("p dimacs what\n")
    csv_path = tmp_path / "bench.csv"
    code, out, err = _run(capsys, "bench", str(corpus), "--algs",
                          "bruteforce,searchtree", "--csv", str(csv_path))
    assert code == 0
    assert "skipping garbage.mve" in err
    lines = out.splitlines()
    assert lines[0].split() == list(BENCH_COLUMNS)
    assert len(lines) == 1 + 3 * 2
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and list(rows[0]) == list(BENCH_COLUMNS)
    by_file = {}
    for row in rows:
        assert row["answer"] in ("yes", "no")
        assert int(row["kernel_n"]) <= int(row["n"])
        assert int(row["kernel_m"]) <= int(row["m"])
        by_file.setdefault(row["file"], set()).add(row["answer"])
    assert all(len(v) == 1 for v in by_file.values())


def test_bench_empty_directory(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = _run(capsys, "bench", str(empty))
    assert code == 0
    assert out.splitlines()[0].split() == list(BENCH_COLUMNS)
    assert len(out.splitlines()) == 1


def test_bench_rejects_approximate_algorithms(capsys, tmp_path):
    code, _, err = _run(capsys, "bench", str(tmp_path), "--algs", "greedy")
    assert code == 2
    assert "greedy" in err


# -------------------------------------------------------------- exit codes

def test_exit_code_for_parse_errors(capsys, tmp_path):
    bad = _write(tmp_path, "bad.mve", "p mve 2 1\ns 1\nt 2\ne 1 1 1\n")
    code, _, err = _run(capsys, "solve", bad, "--ell", "2", "--k", "1")
    assert code == 3
    assert "SelfLoop" in err


def test_exit_code_for_usage_errors(capsys, diamond_file):
    cases = (
        ("solve", diamond_file),                                 # no --ell
        ("solve", diamond_file, "--ell", "0", "--k", "1"),
        ("solve", diamond_file, "--ell", "3", "--k", "-1"),
        ("solve", diamond_file, "--variant", "mincost", "--ell", "3",
         "--k", "1"),
        ("solve", diamond_file, "--variant", "maxlength"),       # no --k
        ("solve", diamond_file, "--variant", "maxlength", "--k", "1",
         "--ell", "3"),
        ("solve", diamond_file, "--alg", "greedy", "--ell", "3", "--k", "1"),
        ("solve", diamond_file, "--alg", "paramapprox", "--variant",
         "mincost", "--ell", "3"),
        ("solve", "/nonexistent/path.mve", "--ell", "2", "--k", "1"),
        ("solve", diamond_file, "--alg", "nosuch", "--ell", "2", "--k", "1"),
        ("bench", "/nonexistent/dir"),
    )
    for argv in cases:
        code, _, _ = _run(capsys, *argv)
        assert code == 2, argv


def test_precondition_violations_exit_two(capsys, tmp_path, diamond_file):
    code, _, err = _run(capsys, "solve", diamond_file, "--alg", "complete",
                        "--ell", "3", "--k", "1")
    assert code == 2 and "error" in err
    path4 = _write(tmp_path, "p4.mve",
                   "p mve 4 3\ns 1\nt 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\n")
    code, _, err = _run(capsys, "solve", path4, "--alg", "diam2",
                        "--ell", "5", "--k", "1")
    assert code == 2
