import pytest

from covernum import (
    CapacityError,
    Graph,
    chromatic_number,
    clique_number,
    complete,
    complete_multipartite,
    cycle,
    far_graph,
    hypercube,
    kKl,
    make_graph,
    mycielski_step,
    parse_family_spec,
    triangle_free_chromatic,
)
from covernum.generators import all_graphs, random_graphs, splitmix64
from covernum.verify import DEFAULT_SEED
from oracles import per_pair_all_graphs, per_pair_random_graphs


def test_complete():
    g = complete(5)
    assert g.n == 5
    assert g.edge_count == 10
    with pytest.raises(ValueError):
        complete(-1)


def test_cycle():
    g = cycle(5)
    assert g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_multipartite():
    g = complete_multipartite([2, 3])
    assert g.n == 5
    assert g.edge_count == 6
    assert chromatic_number(g)[0] == 2
    g = complete_multipartite([1, 1, 1])
    assert g == complete(3)
    # [2, 2] is a 4-cycle up to relabeling
    g = complete_multipartite([2, 2])
    assert g.edge_count == 4 and all(g.degree(v) == 2 for v in range(4))
    with pytest.raises(ValueError):
        complete_multipartite([0, 2])


def test_hypercube():
    for d in range(7):
        q = hypercube(d)
        assert q.n == 2**d
        assert q.edge_count == d * 2 ** (d - 1) if d else q.edge_count == 0
        assert all(q.degree(v) == d for v in range(q.n))
    with pytest.raises(CapacityError):
        hypercube(7)


def test_mycielski_step_counts():
    g = cycle(5)
    m = mycielski_step(g)
    assert m.n == 2 * g.n + 1
    assert m.edge_count == 3 * g.edge_count + g.n
    assert chromatic_number(m)[0] == chromatic_number(g)[0] + 1
    assert clique_number(m)[0] == 2


def test_mycielski_capacity():
    with pytest.raises(CapacityError):
        mycielski_step(make_graph(32, []))


def test_triangle_free_tower_sizes():
    sizes = [triangle_free_chromatic(c).n for c in range(2, 7)]
    assert sizes == [2, 5, 11, 23, 47]
    with pytest.raises(ValueError):
        triangle_free_chromatic(1)
    with pytest.raises(ValueError):
        triangle_free_chromatic(7)


def test_kkl():
    g = kKl(3, 4)
    assert g.n == 12
    assert g.edge_count == 3 * 6
    assert clique_number(g)[0] == 4
    assert kKl(1, 1).n == 1
    with pytest.raises(CapacityError):
        kKl(5, 13)
    with pytest.raises(ValueError, match="^kKl needs k >= 1 and l >= 1$"):
        kKl(0, 3)


def test_far_graph_structure():
    g = far_graph(1, 2)
    # triangle-free chi=4 block, K4 block, triangle-free chi=2 block
    assert g.n == 11 + 4 + 2
    assert chromatic_number(g)[0] == 4
    assert clique_number(g)[0] == 4
    with pytest.raises(ValueError, match="^far graph needs k >= 1$"):
        far_graph(0, 1)
    with pytest.raises(ValueError):
        far_graph(2, 1)  # l below k
    with pytest.raises(ValueError):
        far_graph(1, 3)  # tower for chi = 8 is out of reach


def test_splitmix64_reference_vectors():
    # first outputs for seed 0, from the reference implementation
    it = splitmix64(0)
    assert next(it) == 0xE220A8397B1DCDAF
    assert next(it) == 0x6E789E6AA1B965F4
    assert next(it) == 0x06C45D188009454F


def test_random_graphs_deterministic():
    a = random_graphs(7, 5, 42)
    b = random_graphs(7, 5, 42)
    c = random_graphs(7, 5, 43)
    assert a == b
    assert a != c
    assert all(g.n == 7 for g in a)
    assert len(a) == 5


def test_all_graphs_is_exhaustive():
    got = list(all_graphs(3))
    assert len(got) == 8
    assert len(set(got)) == 8
    assert len(list(all_graphs(4))) == 64


def test_generators_match_the_per_pair_construction():
    for n in list(range(13)) + [31, 63, 64]:
        count = 40 if n <= 12 else 3
        for seed in (0, 1, 7, DEFAULT_SEED, 2**63 + 5):
            got = random_graphs(n, count, seed)
            assert got == per_pair_random_graphs(n, count, seed), (n, seed)
            assert all(type(g.rows) is tuple and Graph(n, g.rows) == g for g in got)
    for n in range(6):
        got = list(all_graphs(n))
        assert got == list(per_pair_all_graphs(n)), n
        assert all(Graph(n, g.rows) == g for g in got)


def test_generators_reject_vertex_counts_outside_capacity():
    for n in (-1, 65):
        with pytest.raises(CapacityError):
            random_graphs(n, 1, 0)
        graphs = all_graphs(n)
        with pytest.raises(CapacityError):
            next(graphs)


def test_parse_family_spec():
    assert parse_family_spec("complete:4") == complete(4)
    assert parse_family_spec("cycle:5") == cycle(5)
    assert parse_family_spec("multipartite:2,3") == complete_multipartite([2, 3])
    assert parse_family_spec("hypercube:3") == hypercube(3)
    assert parse_family_spec("mycielski:4") == triangle_free_chromatic(4)
    assert parse_family_spec("kkl:2,4") == kKl(2, 4)
    assert parse_family_spec("far:1,2") == far_graph(1, 2)
    with pytest.raises(ValueError):
        parse_family_spec("petersen")
    with pytest.raises(ValueError, match="unknown family 'wheel'"):
        parse_family_spec("wheel:5")
    with pytest.raises(ValueError):
        parse_family_spec("complete:x")
    with pytest.raises(CapacityError):
        parse_family_spec("hypercube:8")
