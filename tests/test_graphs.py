import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covernum import (
    CapacityError,
    EdgeSet,
    Graph,
    complement,
    disjoint_union,
    edge_set_of,
    emit_graph6,
    empty_edge_set,
    full_edge_set,
    make_graph,
    parse_graph6,
    spanning_subgraph,
)
from covernum.generators import all_graphs
from covernum.graphs import _rows_edge_set, bits_of, components, edge_index, neighbourhood
from covernum.recognizers import parse_class_spec
from covernum.solver import exact_cover_number
from oracles import gnp_graph, naive_check_rows, naive_components, planted_bipartite_hosts


def test_make_graph_basics():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_make_graph_collapses_duplicates():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_make_graph_rejects_self_loop():
    with pytest.raises(ValueError, match=r"^self loop at vertex 1$"):
        make_graph(3, [(1, 1)])
    # the first bad edge names the error
    with pytest.raises(ValueError, match=r"^self loop at vertex 1$"):
        make_graph(3, [(0, 1), (1, 1), (0, 3)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) outside vertex range 0\.\.2$"):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"^edge \(-1, 0\) outside vertex range 0\.\.2$"):
        make_graph(3, [(-1, 0)])
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) outside vertex range 0\.\.2$"):
        make_graph(3, [(0, 3), (1, 1), (-1, 0)])


def test_make_graph_rows_pass_the_row_check():
    """make_graph skips Graph's row check, so every graph it returns must
    pass it: edge lists with repeats and both orientations of a pair."""
    rng = random.Random(11)
    for n in list(range(0, 18)) + [31, 32, 33, 63, 64]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(6):
            edges = rng.sample(pairs, rng.randint(0, len(pairs))) if pairs else []
            edges += [(v, u) for u, v in edges if rng.random() < 0.3]
            edges += [rng.choice(edges) for _ in range(len(edges) // 4)] if edges else []
            rng.shuffle(edges)
            g = make_graph(n, edges)
            assert Graph(g.n, g.rows) == g
            assert g.edges() == sorted({(min(e), max(e)) for e in edges})


def test_vertex_capacity():
    make_graph(64, [])
    with pytest.raises(CapacityError):
        make_graph(65, [])
    with pytest.raises(CapacityError, match="^vertex count 65 outside 0..64$"):
        Graph(65, (0,) * 65)


def test_graph_is_hashable_and_frozen():
    g = make_graph(2, [(0, 1)])
    assert g == make_graph(2, [(0, 1)])
    assert hash(g) == hash(make_graph(2, [(0, 1)]))
    with pytest.raises(Exception):
        g.n = 3


def test_rows_are_stored_as_a_tuple():
    triangle = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    g = Graph(3, [6, 5, 3])
    assert g.rows == (6, 5, 3)
    assert g == triangle and hash(g) == hash(triangle)
    assert exact_cover_number(g, parse_class_spec("bipartite")).value == 2


def raised(n, rows, check):
    try:
        check(n, rows)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


def test_validation_matches_row_oracle():
    """Single-bit corruptions raise what the per-row loop raises, on both
    sides of the packed check's size threshold and at every row stride."""
    rng = random.Random(9)
    for n in list(range(1, 18)) + [31, 32, 33, 47, 63, 64]:
        for p in (0.1, 0.5, 0.9):
            rows = gnp_graph(rng, n, p).rows
            assert raised(n, rows, Graph) is None
            for _ in range(12):
                u, v = rng.randrange(n), rng.randrange(n)
                bad = list(rows)
                kind = rng.randrange(4)
                if kind == 0:  # asymmetric, or a self loop when u == v
                    bad[u] ^= 1 << v
                elif kind == 1:  # self loop
                    bad[u] |= 1 << u
                elif kind == 2:  # a vertex >= n, past the row stride too
                    bad[u] |= 1 << rng.choice((n, n + 1, 64, 70))
                else:  # negative row
                    bad[u] = ~bad[u]
                want = raised(n, bad, naive_check_rows)
                assert want is not None
                assert raised(n, bad, Graph) == want
                assert raised(n, tuple(bad), Graph) == want
    assert raised(20, [0] * 19 + [0.5], Graph) == raised(20, [0] * 19 + [0.5], naive_check_rows)
    with pytest.raises(ValueError, match="row count"):
        Graph(20, [0] * 19)


def test_complement_small():
    g = make_graph(3, [(0, 1)])
    co = complement(g)
    assert sorted(co.edges()) == [(0, 2), (1, 2)]


def test_disjoint_union_relabels():
    g = disjoint_union([make_graph(2, [(0, 1)]), make_graph(3, [(0, 2)])])
    assert g.n == 5
    assert g.edges() == [(0, 1), (2, 4)]


def test_disjoint_union_capacity():
    with pytest.raises(CapacityError):
        disjoint_union([make_graph(40, []), make_graph(30, [])])


def test_edge_index_is_lexicographic():
    g = make_graph(4, [(2, 3), (0, 1), (0, 3)])
    assert list(edge_index(g)) == [(0, 1), (0, 3), (2, 3)]


def test_edge_sets():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    a = edge_set_of(g, [(0, 1)])
    b = edge_set_of(g, [(1, 2)])
    assert edge_set_of(g, [(2, 1)]) == b  # either orientation names the edge
    assert len(a) == 1
    assert (a | b).edges() == [(0, 1), (1, 2)]
    assert len(a & b) == 0
    assert len(full_edge_set(g)) == 3
    assert len(empty_edge_set(g)) == 0


def test_edge_set_host_mismatch():
    g = make_graph(3, [(0, 1)])
    h = make_graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        full_edge_set(g) | full_edge_set(h)


def test_edge_set_of_rejects_non_edges():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        edge_set_of(g, [(1, 2)])


def test_edge_set_rejects_bits_outside_the_edge_index():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert len(EdgeSet(g, 0b111)) == 3
    for bits in (0b1000, 0b1111, 1 << 64, -1):
        with pytest.raises(ValueError, match="outside the host's edge index"):
            EdgeSet(g, bits)
    with pytest.raises(ValueError):
        EdgeSet(make_graph(2, []), 1)


def test_spanning_subgraph_keeps_vertices():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    sub = spanning_subgraph(g, edge_set_of(g, [(1, 2)]))
    assert sub.n == 4
    assert sub.edges() == [(1, 2)]
    h = make_graph(4, [(0, 1)])
    with pytest.raises(ValueError, match="^edge set belongs to a different host graph$"):
        spanning_subgraph(g, full_edge_set(h))


def _two_forms(g, mask):
    """The edge set of the edge ids in mask, built from its bits and
    from its rows, the rows filled edge by edge."""
    rows = [0] * g.n
    for i, (u, v) in enumerate(edge_index(g)):
        if mask >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return EdgeSet(g, mask), _rows_edge_set(g, tuple(rows))


def _check_forms_agree(g, mask, other):
    a, b = _two_forms(g, mask)
    edges = [e for i, e in enumerate(edge_index(g)) if mask >> i & 1]
    # edges reads each form as built; len, hash and repr derive the rows
    # form's bits, rows the bits form's rows
    assert a.edges() == b.edges() == edges and len(a) == len(b) == len(edges), (g, mask)
    assert hash(a) == hash(b) and repr(a) == repr(b), (g, mask)
    assert b.bits == mask and a.rows == b.rows, (g, mask)
    c, d = _two_forms(g, other)
    assert (b == d) == (a == d) == (d == a) == (a == c) == (mask == other), (g, mask, other)
    for x, y in ((a, d), (b, c), (b, d)):
        assert (x | y).bits == mask | other and (x & y).bits == mask & other, (g, mask, other)
    assert (b | d).rows == tuple(x | y for x, y in zip(b.rows, d.rows))


def test_edge_set_forms_agree():
    # An edge set built from its edge-id bits and one built from its
    # adjacency rows are the same value: every derived form, equality,
    # hash, repr and the union and intersection of any two of them.
    rng = random.Random(2424)
    for n in range(7):
        for g in all_graphs(n):
            m = g.edge_count
            _check_forms_agree(g, rng.getrandbits(m), rng.getrandbits(m))
    hosts = planted_bipartite_hosts(2425, 20)
    hosts += [gnp_graph(rng, rng.randint(7, 64), rng.uniform(0.05, 0.9)) for _ in range(40)]
    for g in hosts:
        m = g.edge_count
        for mask in (0, (1 << m) - 1, rng.getrandbits(m), rng.getrandbits(m)):
            _check_forms_agree(g, mask, rng.getrandbits(m))
            _check_forms_agree(g, mask, (1 << m) - 1)
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert full_edge_set(g) == EdgeSet(g, 0b111) and full_edge_set(g).rows is g.rows
    assert full_edge_set(g) != full_edge_set(make_graph(4, [(0, 1), (1, 2)]))
    for es in _two_forms(g, 0b101):
        for name in ("host", "bits", "rows", "_bits", "_rows"):
            with pytest.raises(FrozenInstanceError):
                setattr(es, name, 0)
        with pytest.raises(FrozenInstanceError):
            del es.host
        assert es.bits == 0b101 and es.host is g
        assert pickle.loads(pickle.dumps(es)) == es == copy.deepcopy(es)


def test_bits_of():
    assert bits_of(0b1011) == [0, 1, 3]
    assert bits_of(0) == []


def graphs_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        return make_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])

    return build()


@given(graphs_strategy())
@settings(max_examples=200)
def test_complement_is_involutive(g):
    assert complement(complement(g)) == g


@given(graphs_strategy())
@settings(max_examples=200)
def test_complement_edge_counts(g):
    assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2


@given(graphs_strategy(max_n=6))
@settings(max_examples=100)
def test_edge_set_roundtrip(g):
    es = full_edge_set(g)
    assert edge_set_of(g, es.edges()) == es
    assert spanning_subgraph(g, es) == g


@given(graphs_strategy(max_n=64), st.data())
@settings(max_examples=100, deadline=None)
def test_derived_rows_pass_the_row_check(g, data):
    # spanning_subgraph, complement and parse_graph6 skip Graph's check
    mask = data.draw(st.integers(0, (1 << g.edge_count) - 1))
    sub = spanning_subgraph(g, EdgeSet(g, mask))
    assert sub.edges() == EdgeSet(g, mask).edges()
    for h in (sub, complement(g), parse_graph6(emit_graph6(g))):
        assert type(h.rows) is tuple
        h._check_rows()
        assert h == Graph(h.n, h.rows)


def test_components_match_the_vertex_walk():
    for n in range(7):
        for g in all_graphs(n):
            assert components(g.rows, (1 << n) - 1) == naive_components(n, g.rows), g
    # on a random vertex mask: the components of the graph induced on it
    rng = random.Random(89)
    hosts = planted_bipartite_hosts(97, 100)
    hosts += [gnp_graph(rng, rng.randint(1, 64), rng.uniform(0.01, 0.3)) for _ in range(100)]
    for g in hosts:
        for _ in range(5):
            mask = rng.getrandbits(g.n)
            induced = [row & mask if mask >> v & 1 else 0 for v, row in enumerate(g.rows)]
            expected = [c for c in naive_components(g.n, induced) if c & mask]
            assert components(g.rows, mask) == expected, (g, mask)
            union = 0
            for v in bits_of(mask):
                union |= g.rows[v]
            assert neighbourhood(g.rows, mask) == union


def test_edge_count_is_cached_outside_equality():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
    h = Graph(5, g.rows)
    assert g.edge_count == 3 and "edge_count" in vars(g) and "edge_count" not in vars(h)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert complement(g).edge_count == 7
