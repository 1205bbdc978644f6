"""Serialization of graphs: graph6, plain edge lists, and DIMACS.

All three parsers are strict so that round trips are bit exact: out of
range bytes, truncated bit fields, header/body mismatches and trailing
garbage are errors, not warnings.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graphs import MAX_VERTICES, CapacityError, Graph, make_graph, symmetric_closure

GRAPH6_HEADER = ">>graph6<<"


class ParseError(ValueError):
    """Malformed serialized graph."""


# graph6 character -> its six bits, most significant first
_G6_BITS = {63 + b: format(b, "06b") for b in range(64)}
_G6_CHARS = {bits: chr(code) for code, bits in _G6_BITS.items()}


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (short form, or long form for n in 63..64)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 string")
    bits = s.translate(_G6_BITS)
    if len(bits) != 6 * len(s):  # a character outside 63..126 stayed as it was
        bad = next(ch for ch in s if not 63 <= ord(ch) <= 126)
        raise ParseError(f"graph6 byte {ord(bad)} outside printable range 63..126")
    if s[0] == "~":
        # long form: '~' then 18 bits of n in 3 bytes
        if len(s) < 4:
            raise ParseError("truncated graph6 vertex count")
        if s[1] == "~":
            raise ParseError("graph6 very long form exceeds the 64 vertex limit")
        n = int(bits[6:24], 2)
        body = bits[24:]
    else:
        n = ord(s[0]) - 63
        body = bits[6:]
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 vertex count {n} exceeds {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < 6 * nbytes:
        raise ParseError("truncated graph6 bit field")
    if len(body) > 6 * nbytes:
        raise ParseError("trailing garbage after graph6 bit field")
    if "1" in body[nbits:]:
        raise ParseError("nonzero padding bits in graph6 bit field")
    # Column v is x(0,v) .. x(v-1,v): row v's lower half.  Reversed, the
    # field is one int whose bit start_v + u is x(u,v).
    field = int(body[nbits - 1::-1], 2) if nbits else 0
    lower = [0] * n
    start = 0
    for v in range(1, n):
        lower[v] = field >> start & ((1 << v) - 1)
        start += v
    return Graph(n, symmetric_closure(n, lower))


def emit_graph6(g: Graph) -> str:
    """Encode as graph6, short form when n <= 62."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    # The field as one int, bit start_v + u = x(u,v) (see parse_graph6).
    field = 0
    start = 0
    for v in range(1, n):
        field |= (g.rows[v] & ((1 << v) - 1)) << start
        start += v
    body = format(field, f"0{start}b")[::-1] if start else ""
    body += "0" * (-start % 6)
    return head + "".join([_G6_CHARS[body[i:i + 6]] for i in range(0, len(body), 6)])


def _read_graph(items: Iterator, base: int) -> Graph:
    """The graph a parser's items describe: its vertex count, then its
    edges (u, v), 0 based.  Each edge is checked for a self loop or a
    repeat as it comes, before the parser reads on, so these errors keep
    their place among the parser's own; make_graph's (capacity, range)
    come last.  Messages count vertices from base."""
    n = next(items)
    edges = {}  # (least, greatest) -> the edge as read
    for u, v in items:
        if u == v:
            raise ParseError(f"self loop at vertex {u + base}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ParseError(f"duplicate edge ({u + base}, {v + base})")
        edges[key] = (u, v)
    try:
        return make_graph(n, edges.values())
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_edge_list(text: str) -> Graph:
    """Plain format: a header line "n m" then m lines "u v" (0 based)."""
    return _read_graph(_edge_list_items(text), 0)


def _edge_list_items(text: str) -> Iterator:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError("empty edge list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError('edge list header must be "n m"')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError('edge list header must be two integers "n m"') from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in edge list header")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header announces {m} edges but body has {len(body)} lines")
    yield n
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f'edge line "{ln}" must be "u v"')
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f'edge line "{ln}" must be two integers') from None
        yield u, v


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    """DIMACS: "p edge n m" then m lines "e u v" with 1 based vertices."""
    return _read_graph(_dimacs_items(text), 1)


def _dimacs_items(text: str) -> Iterator:
    n = m = None
    count = 0
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            if n is not None:
                raise ParseError("duplicate DIMACS problem line")
            parts = ln.split()
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError('DIMACS problem line must be "p edge n m"')
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer counts in DIMACS problem line") from None
            yield n
        elif ln.startswith("e"):
            if n is None:
                raise ParseError("DIMACS edge line before problem line")
            parts = ln.split()
            if len(parts) != 3:
                raise ParseError(f'DIMACS edge line "{ln}" must be "e u v"')
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError(f'DIMACS edge line "{ln}" must be integers') from None
            count += 1
            yield u, v
        else:
            raise ParseError(f'unrecognized DIMACS line "{ln}"')
    if n is None:
        raise ParseError("missing DIMACS problem line")
    if count != m:
        raise ParseError(f"header announces {m} edges but body has {count}")


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def detect_format(text: str) -> str:
    """Guess the serialization: dimacs, edgelist or graph6."""
    s = text.lstrip()
    # a "p edge" line marks DIMACS even under leading comment lines
    if any(line.lstrip().startswith("p edge") for line in s.splitlines()):
        return "dimacs"
    first = s.splitlines()[0].split() if s else []
    if len(first) == 2:
        try:
            int(first[0]), int(first[1])
            return "edgelist"
        except ValueError:
            pass
    return "graph6"


def parse_graph(text: str, fmt: Optional[str] = None) -> Graph:
    fmt = fmt or detect_format(text)
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ParseError(f"unknown format {fmt!r}")
