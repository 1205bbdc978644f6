"""Format round-trips, cross-checked against networkx for graph6."""

import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covernum import (
    ParseError,
    detect_format,
    emit_dimacs,
    emit_edge_list,
    emit_graph6,
    make_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)
from covernum.generators import all_graphs, complete, cycle, random_graphs
from oracles import gnp_graph, naive_parse_graph6


def to_networkx_g6(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nx.to_graph6_bytes(nxg, header=False).decode().strip()


def from_networkx_g6(text):
    nxg = nx.from_graph6_bytes(text.encode())
    return make_graph(nxg.number_of_nodes(), list(nxg.edges()))


def test_graph6_known_strings():
    assert emit_graph6(complete(4)) == "C~"
    assert emit_graph6(make_graph(0, [])) == "?"
    assert emit_graph6(make_graph(1, [])) == "@"
    assert parse_graph6("C~") == complete(4)


def test_graph6_matches_networkx_exhaustive():
    for n in range(6):
        for g in all_graphs(n):
            assert emit_graph6(g) == to_networkx_g6(g)
            assert parse_graph6(to_networkx_g6(g)) == g


def test_graph6_long_form():
    for n in (63, 64):
        g = make_graph(n, [(0, 1), (n - 2, n - 1)])
        text = emit_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g
        assert from_networkx_g6(text) == g
        assert to_networkx_g6(g) == text


def oracle_graphs():
    """Every graph on up to 5 vertices, then seeded random graphs on 6-64
    vertices (long form at 63-64) from sparse to dense."""
    for n in range(6):
        yield from all_graphs(n)
    rng = random.Random(6)
    for n in range(6, 65):
        for p in (0.1, 0.5, 0.9):
            yield gnp_graph(rng, n, p)


def test_graph6_matches_edge_list_oracle():
    for g in oracle_graphs():
        text = emit_graph6(g)
        assert parse_graph6(text) == naive_parse_graph6(text) == g
        if g.n >= 6:
            assert text == to_networkx_g6(g)


def raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def test_graph6_errors_match_edge_list_oracle():
    c5, big = emit_graph6(cycle(5)), emit_graph6(random_graphs(64, 1, 2)[0])
    bad = ["", ">>graph6<<", "~", "~~", "~?", "~??A", "~?~~", "~??~", "D", "C~~",
           c5[:-1] + chr((ord(c5[-1]) - 63 | 1) + 63), "C" + chr(30), "C~" + chr(200), "C" + chr(127),
           chr(0) + "\u00e9", big[:-1], big + "?", big[:9] + " " + big[10:]]
    for text in bad:
        got = raised(parse_graph6, text)
        assert got is not None, text
        assert got == raised(naive_parse_graph6, text), text


def test_graph6_header_is_stripped():
    assert parse_graph6(">>graph6<<C~") == complete(4)


def test_graph6_rejects_trailing_and_truncated():
    with pytest.raises(ParseError):
        parse_graph6("C~~")
    with pytest.raises(ParseError):
        parse_graph6("D")  # 5 vertices needs 2 data chars
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError, match="^graph6 very long form exceeds the 64 vertex limit$"):
        parse_graph6("~~????????")


def test_graph6_rejects_nonzero_padding():
    # C5 uses 10 bits of a 12-bit payload; force a padding bit on
    text = emit_graph6(cycle(5))
    payload = ord(text[-1]) - 63
    tweaked = text[:-1] + chr((payload | 1) + 63)
    assert tweaked != text
    with pytest.raises(ParseError):
        parse_graph6(tweaked)


def test_graph6_rejects_out_of_range_bytes():
    with pytest.raises(ParseError):
        parse_graph6("C" + chr(30))


def test_edge_list_roundtrip():
    g = make_graph(4, [(0, 1), (2, 3)])
    text = emit_edge_list(g)
    assert parse_edge_list(text) == g
    assert text.splitlines()[0] == "4 2"


def test_edge_list_rejects_bad_header_and_counts():
    for text, message in (
        ("", "empty edge list input"),
        ("4\n0 1\n", 'edge list header must be "n m"'),
        ("4 x\n", 'edge list header must be two integers "n m"'),
        ("-1 0\n", "negative counts in edge list header"),
        ("4 2\n0 1\n", "header announces 2 edges but body has 1 lines"),
        ("4 1\n0 1\n2 3\n", "header announces 1 edges but body has 2 lines"),
        ("4 1\n0 1 2\n", 'edge line "0 1 2" must be "u v"'),
        ("4 1\n0 a\n", 'edge line "0 a" must be two integers'),
        ("4 2\n0 1\n0 1\n", "duplicate edge (0, 1)"),
        ("4 1\n1 1\n", "self loop at vertex 1"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_edge_list(text)


def test_dimacs_roundtrip_with_comments():
    g = make_graph(3, [(0, 1), (1, 2)])
    text = emit_dimacs(g)
    assert parse_dimacs(text) == g
    assert parse_dimacs("c a comment\n" + text) == g


def test_dimacs_is_one_based():
    g = parse_dimacs("p edge 3 1\ne 1 3\n")
    assert g.edges() == [(0, 2)]


def test_dimacs_rejects_malformed():
    for text, message in (
        ("p edge 3 2\ne 1 2\n", "header announces 2 edges but body has 1"),
        ("p edge 3 1\ne 0 2\n", "edge (-1, 1) outside vertex range 0..2"),
        ("p edge 3 2\ne 1 2\ne 1 2\n", "duplicate edge (1, 2)"),
        ("e 1 2\n", "DIMACS edge line before problem line"),
        ("p edge 3 0\np edge 3 0\n", "duplicate DIMACS problem line"),
        ("p col 3 0\n", 'DIMACS problem line must be "p edge n m"'),
        ("p edge 3 x\n", "non-integer counts in DIMACS problem line"),
        ("p edge 3 1\ne 1 2 3\n", 'DIMACS edge line "e 1 2 3" must be "e u v"'),
        ("p edge 3 1\ne 1 x\n", 'DIMACS edge line "e 1 x" must be integers'),
        ("p edge 3 0\nx 1 2\n", 'unrecognized DIMACS line "x 1 2"'),
        ("c only a comment\n", "missing DIMACS problem line"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_dimacs(text)


def test_detect_format():
    assert detect_format("p edge 3 1\ne 1 2\n") == "dimacs"
    assert detect_format("3 1\n0 1\n") == "edgelist"
    assert detect_format("C~") == "graph6"
    assert detect_format("ab cd") == "graph6"  # two tokens, not two ints


def test_parse_graph_forced_format():
    assert parse_graph("C~", "graph6") == complete(4)
    with pytest.raises(ParseError):
        parse_graph("C~", "dimacs")
    with pytest.raises(ValueError):
        parse_graph("C~", "nonsense")


@given(st.integers(0, 1_000_000))
@settings(max_examples=60)
def test_all_formats_roundtrip_random(seed):
    for g in random_graphs(9, 1, seed):
        assert parse_graph6(emit_graph6(g)) == g
        assert parse_edge_list(emit_edge_list(g)) == g
        assert parse_dimacs(emit_dimacs(g)) == g
        assert parse_graph(emit_graph6(g)) == g
        assert emit_graph6(g) == to_networkx_g6(g)
