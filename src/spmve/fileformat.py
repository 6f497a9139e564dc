"""Plain-text instance format.

Line-oriented, UTF-8 with LF newlines.  ``#`` starts a comment that runs to
the end of the line; blank lines are ignored.  Vertex ids are 1-based in
files and dense 0-based in memory.

    p mve <n> <m>        header, exactly once, before any other record
    s <id>               source terminal, exactly once
    t <id>               sink terminal, exactly once
    e <u> <v> <length>   undirected edge, length a positive integer

The budget and the target length are not part of the format; they arrive
separately (command-line flags, function arguments).

The header's n is all that sizes the graph before its records are read, so
it is capped at ``MAX_VERTICES``: a larger header is refused with InputError
before anything is allocated.
"""

from .errors import InputError, ParseError
from .graph import Graph, Instance, edge_key

__all__ = ["parse_instance", "emit_instance", "MAX_VERTICES"]

MAX_VERTICES = 1_000_000


def _int_fields(fields, code, line_no, what):
    try:
        return [int(f, 10) for f in fields]
    except ValueError:
        raise ParseError(code, line_no, f"{what} must be decimal integers") from None


def parse_instance(text: str) -> Instance:
    """Parse instance text into an ``Instance`` with ``k=0`` and no target."""
    header = None
    n = 0
    terminals = {}            # "s"/"t" -> (vertex, line_no)
    pairs = []
    lengths = []
    seen_edges = set()
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "p":
            if header is not None:
                raise ParseError("BadHeader", line_no, "second header line")
            if len(args) != 3 or args[0] != "mve":
                raise ParseError("BadHeader", line_no,
                                 "expected 'p mve <n> <m>'")
            n, m = _int_fields(args[1:], "BadHeader", line_no, "n and m")
            if n < 1 or m < 0:
                raise ParseError("BadHeader", line_no,
                                 "need n >= 1 and m >= 0")
            if n > MAX_VERTICES:
                raise InputError(f"line {line_no}: header asks for {n} "
                                 f"vertices, more than {MAX_VERTICES}")
            header = (n, m)
            continue
        if header is None:
            raise ParseError("MissingHeader", line_no,
                             "header must precede this line")
        if kind in ("s", "t"):
            if kind in terminals:
                raise ParseError("DuplicateTerminal", line_no,
                                 f"second '{kind}' line")
            if len(args) != 1:
                raise ParseError("UnknownLine", line_no,
                                 f"expected '{kind} <id>'")
            (v,) = _int_fields(args, "VertexOutOfRange", line_no, "vertex ids")
            if not 1 <= v <= n:
                raise ParseError("VertexOutOfRange", line_no,
                                 f"vertex {v} outside 1..{n}")
            terminals[kind] = (v - 1, line_no)
        elif kind == "e":
            if len(args) != 3:
                raise ParseError("UnknownLine", line_no,
                                 "expected 'e <u> <v> <length>'")
            u, v, length = _int_fields(args, "VertexOutOfRange", line_no,
                                       "edge fields")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError("VertexOutOfRange", line_no,
                                 f"edge endpoint outside 1..{n}")
            if u == v:
                raise ParseError("SelfLoop", line_no, f"self-loop at {u}")
            if length < 1:
                raise ParseError("BadLength", line_no,
                                 "edge length must be a positive integer")
            pair = edge_key(u - 1, v - 1)
            if pair in seen_edges:
                raise ParseError("DuplicateEdge", line_no,
                                 f"edge {{{u},{v}}} repeated")
            seen_edges.add(pair)
            pairs.append(pair)
            lengths.append(length)
        else:
            raise ParseError("UnknownLine", line_no,
                             f"unrecognized record '{kind}'")
    if header is None:
        raise ParseError("MissingHeader", line_no, "no header line")
    for kind in ("s", "t"):
        if kind not in terminals:
            raise ParseError("MissingTerminal", line_no, f"no '{kind}' line")
    if terminals["s"][0] == terminals["t"][0]:
        raise ParseError("SameTerminals", terminals["t"][1],
                         "source and sink coincide")
    if len(pairs) != header[1]:
        raise ParseError("EdgeCountMismatch", line_no,
                         f"header promised {header[1]} edges, "
                         f"found {len(pairs)}")
    graph = Graph(n, pairs, lengths)
    return Instance(graph, terminals["s"][0], terminals["t"][0])


def emit_instance(instance: Instance) -> str:
    """Render the graph and terminals back to text.  The budget and target
    are not representable, so ``parse_instance(emit_instance(x))`` recovers
    ``x`` with ``k=0`` and no target."""
    g = instance.graph
    out = [f"p mve {g.n} {g.m}",
           f"s {instance.s + 1}",
           f"t {instance.t + 1}"]
    for (u, v), length in zip(g.edges, g.lengths):
        out.append(f"e {u + 1} {v + 1} {length}")
    return "\n".join(out) + "\n"
