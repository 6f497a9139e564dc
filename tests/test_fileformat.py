"""Text instance format: parsing, emitting, and diagnostics."""

import random

import pytest

from helpers import make_instance
from spmve import (InputError, ParseError, emit_instance, parse_instance,
                   st_distance)
from spmve.fileformat import MAX_VERTICES

DIAMOND = """\
p mve 4 4
s 1
t 4
e 1 2 1
e 2 4 1
e 1 3 1
e 3 4 1
"""


def test_parse_basic_instance():
    inst = parse_instance(DIAMOND)
    assert inst.graph.n == 4
    assert inst.graph.m == 4
    assert (inst.s, inst.t) == (0, 3)
    assert inst.k == 0 and inst.ell is None
    assert inst.graph.has_edge(0, 1)
    assert st_distance(inst.graph, inst.s, inst.t) == 2


def test_comments_blanks_and_order_are_tolerated():
    text = """\
# instance with noise
p mve 3 2   # header comment

e 1 2 4
s 1
e 2 3 6
t 3
"""
    inst = parse_instance(text)
    assert inst.graph.lengths == (4, 6)
    assert st_distance(inst.graph, inst.s, inst.t) == 10


def test_emit_writes_one_indexed_records():
    inst = make_instance(3, [(0, 1), (1, 2)], 0, 2, lengths=[4, 6])
    assert emit_instance(inst) == "p mve 3 2\ns 1\nt 3\ne 1 2 4\ne 2 3 6\n"


def test_round_trip_is_identity():
    rng = random.Random(3111)
    for _ in range(60):
        n = rng.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(1, len(pool))
        edges = rng.sample(pool, m)
        lengths = [rng.randint(1, 9) for _ in edges]
        s, t = rng.sample(range(n), 2)
        inst = make_instance(n, edges, s, t, lengths=lengths)
        again = parse_instance(emit_instance(inst))
        assert again == inst
        assert emit_instance(again) == emit_instance(inst)


def _expect(code, line, text):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.code == code
    assert err.value.line == line
    return err.value


def test_header_errors():
    _expect("MissingHeader", 1, "s 1\n")
    _expect("MissingHeader", 0, "")
    _expect("MissingHeader", 2, "# only a comment\n\n")
    _expect("BadHeader", 1, "p cnf 3 2\ns 1\nt 3\n")
    _expect("BadHeader", 1, "p mve 3\n")
    _expect("BadHeader", 1, "p mve three 2\n")
    _expect("BadHeader", 1, "p mve 0 0\n")
    _expect("BadHeader", 1, "p mve 3 -1\n")
    _expect("BadHeader", 3, "p mve 3 2\ns 1\np mve 3 2\n")


def test_terminal_errors():
    _expect("DuplicateTerminal", 3, "p mve 3 0\ns 1\ns 2\nt 3\n")
    _expect("DuplicateTerminal", 4, "p mve 3 0\ns 1\nt 3\nt 2\n")
    _expect("VertexOutOfRange", 2, "p mve 3 0\ns 4\nt 3\n")
    _expect("VertexOutOfRange", 2, "p mve 3 0\ns 0\nt 3\n")
    _expect("VertexOutOfRange", 2, "p mve 3 0\ns x\nt 3\n")
    _expect("MissingTerminal", 2, "p mve 3 0\ns 1\n")
    _expect("MissingTerminal", 1, "p mve 3 0\n")
    _expect("SameTerminals", 3, "p mve 3 0\ns 2\nt 2\n")


def test_edge_errors():
    head = "p mve 3 1\ns 1\nt 3\n"
    _expect("VertexOutOfRange", 4, head + "e 1 4 1\n")
    _expect("VertexOutOfRange", 4, head + "e 0 2 1\n")
    _expect("VertexOutOfRange", 4, head + "e 1 two 1\n")
    _expect("SelfLoop", 4, head + "e 2 2 1\n")
    _expect("BadLength", 4, head + "e 1 2 0\n")
    _expect("BadLength", 4, head + "e 1 2 -3\n")
    _expect("DuplicateEdge", 5, "p mve 3 2\ns 1\nt 3\ne 1 2 1\ne 2 1 5\n")
    _expect("EdgeCountMismatch", 4, "p mve 3 2\ns 1\nt 3\ne 1 2 1\n")
    _expect("EdgeCountMismatch", 5,
            "p mve 3 1\ns 1\nt 3\ne 1 2 1\ne 2 3 1\n")


def test_unknown_records():
    _expect("UnknownLine", 2, "p mve 3 0\nq 1\ns 1\nt 3\n")
    _expect("UnknownLine", 2, "p mve 3 1\ns 1 2\nt 3\ne 1 2 1\n")
    _expect("UnknownLine", 4, "p mve 3 1\ns 1\nt 3\ne 1 2\n")


def test_parse_error_message_carries_position():
    err = _expect("SelfLoop", 4, "p mve 3 1\ns 1\nt 3\ne 2 2 1\n")
    assert "line 4" in str(err)
    assert "SelfLoop" in str(err)


def test_oversized_header_is_refused_before_allocation():
    # a Graph of a billion vertices would need about 300 GB; the header
    # alone decides, so nothing is built
    for n in (10**9, MAX_VERTICES + 1):
        with pytest.raises(InputError, match="vertices"):
            parse_instance(f"p mve {n} 0\ns 1\nt 2\n")
