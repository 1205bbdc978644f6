import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covernum import (
    ceil_log,
    check_clique,
    check_coloring,
    chromatic_number,
    clique_number,
    is_k_colorable,
    make_graph,
)
from covernum.generators import (
    all_graphs,
    complete,
    cycle,
    parse_family_spec,
    random_graphs,
    triangle_free_chromatic,
)
from covernum.graphs import disjoint_union
from covernum.invariants import (
    Coloring,
    _max_clique,
    bracket_coloring,
    dsatur_search,
    first_fit_coloring,
    k_colorable_rows,
    omega_of_rows,
)
from oracles import (
    brute_chromatic,
    brute_clique,
    gnp_graph,
    key_array_k_colorable_rows,
    naive_k_colorable_rows,
    recursive_chromatic_number,
    recursive_k_colorable_rows,
    recursive_max_clique,
    small_and_seeded_hosts,
)


def test_ceil_log_known_values():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 3) == 2
    assert ceil_log(2, 8) == 3
    assert ceil_log(2, 9) == 4
    assert ceil_log(3, 9) == 2
    assert ceil_log(3, 10) == 3
    assert ceil_log(10, 1000) == 3


def test_ceil_log_rejects_bad_args():
    with pytest.raises(ValueError):
        ceil_log(1, 4)
    with pytest.raises(ValueError):
        ceil_log(2, 0)


@given(st.integers(2, 12), st.integers(1, 10**9))
@settings(max_examples=300)
def test_ceil_log_is_least_power(b, x):
    t = ceil_log(b, x)
    assert b**t >= x
    if t:
        assert b ** (t - 1) < x


def test_chromatic_known_graphs():
    assert chromatic_number(make_graph(0, []))[0] == 0
    assert chromatic_number(make_graph(3, []))[0] == 1
    assert chromatic_number(complete(7))[0] == 7
    assert chromatic_number(cycle(6))[0] == 2
    assert chromatic_number(cycle(7))[0] == 3


def test_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    g = make_graph(10, outer + inner + spokes)
    assert chromatic_number(g)[0] == 3
    assert clique_number(g)[0] == 2


def test_grotzsch():
    g = triangle_free_chromatic(4)
    assert g.n == 11
    assert chromatic_number(g)[0] == 4
    assert clique_number(g)[0] == 2


def test_chromatic_against_brute_force():
    for n in range(5):
        for g in all_graphs(n):
            chi, coloring = chromatic_number(g)
            assert chi == brute_chromatic(g)
            assert check_coloring(g, coloring)
    for g in random_graphs(5, 40, 7):
        chi, coloring = chromatic_number(g)
        assert chi == brute_chromatic(g)
        assert check_coloring(g, coloring)


def test_clique_against_brute_force():
    graphs = [g for n in range(5) for g in all_graphs(n)]
    # ties between maximum cliques are common on 10 vertices
    graphs += random_graphs(7, 40, 11) + random_graphs(10, 40, 13)
    for g in graphs:
        omega, witness = clique_number(g)
        assert (omega, witness.vertices) == brute_clique(g)
        assert check_clique(g, witness)


def test_clique_witness_is_lexicographically_least():
    # two maximum cliques; {0,2,3} beats {1,2,3}
    g = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    omega, witness = clique_number(g)
    assert omega == 3
    assert witness.vertices == (0, 2, 3)


def test_is_k_colorable_threshold():
    for g in random_graphs(6, 25, 3):
        chi, _ = chromatic_number(g)
        if chi:
            assert is_k_colorable(g, chi - 1) is None
        got = is_k_colorable(g, chi)
        assert got is not None
        assert check_coloring(g, got)


def test_k_colorable_matches_dsatur_oracle():
    """Same colouring, or None, for k = 0..n+1: every labelled graph on up
    to 5 vertices, every 6-vertex graph of the networkx atlas under two
    relabellings, and random graphs on 7-41 vertices from sparse to dense."""
    rng = random.Random(41)
    cases = [g.rows for n in range(6) for g in all_graphs(n)]
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() == 6:
            for _ in range(2):
                perm = rng.sample(range(6), 6)
                cases.append(make_graph(6, [(perm[u], perm[v]) for u, v in a.edges()]).rows)
    for n in range(7, 42, 2):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            cases.append(gnp_graph(rng, n, p).rows)
    for rows in cases:
        n = len(rows)
        for k in range(n + 2):
            assert k_colorable_rows(n, rows, k) == naive_k_colorable_rows(n, rows, k), (rows, k)


def _planted_partite(rng, n: int, parts: int):
    """Random parts-partite graph, cross pairs edges with chance 1/2, whose
    vertices 0..parts-1 sit in distinct parts and form a clique."""
    part = [rng.randrange(parts) for _ in range(n)]
    part[:parts] = range(parts)
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if part[u] != part[v] and (v < parts or rng.random() < 0.5)])


def test_k_colorable_matches_key_array_oracle_on_hosts():
    """Same colouring, or None, as the key-array search on the graphs
    where the search spends its time: G(n, 1/2) on 36-41 vertices at every
    k from omega to chi (the failing chi - 1 search included), planted 4-
    to 6-partite hosts at k = omega, K16 at 15 and 16, the 5-chromatic
    Mycielski graph at 4 and 5, and k far past n."""
    rng = random.Random(15)
    cases = []
    for n in range(36, 42):
        for _ in range(2):
            rows = gnp_graph(rng, n, 0.5).rows
            k = omega_of_rows(n, rows)
            while True:
                cases.append((rows, k))
                if key_array_k_colorable_rows(n, rows, k) is not None:
                    break
                k += 1
    for n in range(25, 41, 3):
        for parts in (4, 5, 6):
            cases.append((_planted_partite(rng, n, parts).rows, parts))
    cases += [(complete(16).rows, 15), (complete(16).rows, 16)]
    cases += [(triangle_free_chromatic(5).rows, 4), (triangle_free_chromatic(5).rows, 5)]
    cases += [(gnp_graph(rng, 12, p).rows, 2**40) for p in (0.3, 0.7)]
    cases.append((complete(12).rows, 2**40))
    for rows, k in cases:
        n = len(rows)
        assert k_colorable_rows(n, rows, k) == key_array_k_colorable_rows(n, rows, k), (rows, k)


HOST_FAMILIES = ("mycielski:4", "mycielski:5", "hypercube:5", "hypercube:6", "complete:16",
                 "cycle:31", "kkl:4,5", "multipartite:5,5,5,5", "far:1,2", "far:2,2")


def test_host_invariants_are_pinned():
    # One sha256 over chromatic_number (count and colouring) and
    # clique_number (the clique) on the named host families and six seeded
    # 36-41 vertex G(n, 1/2) hosts: any change in the DSATUR pick order or
    # the clique search's witness changes it.
    import hashlib
    import json

    hosts = [parse_family_spec(text) for text in HOST_FAMILIES]
    hosts += [random_graphs(n, 1, 20261019 + n)[0] for n in range(36, 42)]
    digest = hashlib.sha256()
    for g in hosts:
        chi, coloring = chromatic_number(g)
        omega, witness = clique_number(g)
        digest.update(json.dumps([chi, coloring.colors, omega, witness.vertices]).encode())
    assert digest.hexdigest() == "490f23a609461510c16ff23123028a98b4b92281f04676f71ec7e7936a16e02c"


def test_check_coloring_rejects_bad():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert not check_coloring(g, Coloring((0, 0, 1), 2))  # improper
    assert not check_coloring(g, Coloring((0, 2, 0), 3))  # skips color 1
    assert not check_coloring(g, Coloring((0, 1), 2))  # wrong length
    assert check_coloring(g, Coloring((0, 1, 0), 2))


def test_check_clique_rejects_bad():
    g = make_graph(4, [(0, 1), (1, 2)])
    from covernum.invariants import CliqueWitness

    assert check_clique(g, CliqueWitness((0, 1), 2))
    assert not check_clique(g, CliqueWitness((0, 2), 2))
    assert not check_clique(g, CliqueWitness((0, 0), 2))


def test_coloring_color_count_is_exact():
    for g in random_graphs(7, 30, 5):
        chi, coloring = chromatic_number(g)
        assert coloring.count == chi
        assert len(set(coloring.colors)) == chi


def test_bracket_coloring_keeps_chis_digit_count():
    """Proper, and within base**t colours for t = ceil_log(base, chi): every
    labelled graph up to 6 vertices and seeded 7-12 vertex hosts, floor 1,
    and floor 2 wherever chi > base promises two digits."""
    hosts = [g for n in range(7) for g in all_graphs(n)]
    hosts += [g for n in range(7, 13) for g in random_graphs(n, 12, 700 + n)]
    for g in hosts:
        chi, _ = chromatic_number(g)
        first_fit = first_fit_coloring(g.n, g.rows)
        assert check_coloring(g, first_fit) and first_fit.count >= chi
        for v, c in enumerate(first_fit.colors):  # lowest colour its earlier neighbours lack
            taken = {first_fit.colors[u] for u in range(v) if g.has_edge(u, v)}
            assert c == min(set(range(v + 1)) - taken)
        for base in (2, 3, 4):
            t = ceil_log(base, max(chi, 1))
            for floor in (1, 2) if chi > base else (1,):
                got = bracket_coloring(g.n, g.rows, base, floor, first_fit)
                assert check_coloring(g, got), (g, base, floor)
                assert got.count <= base**t, (g, base, floor)


def _crown(k):
    """K_{k,k} less a perfect matching, sides interleaved: a_i = 2i and
    b_i = 2i + 1, a_i ~ b_j for i != j.  First fit in id order gives a_i and
    b_i colour i, so k colours on a bipartite graph."""
    return make_graph(2 * k, [(2 * i, 2 * j + 1) for i in range(k) for j in range(k) if i != j])


def test_bracket_coloring_searches_below_first_fit(monkeypatch):
    import covernum.invariants

    crown = _crown(6)
    first_fit = first_fit_coloring(crown.n, crown.rows)
    assert first_fit.count == 6
    for base in (2, 3, 4):
        got = bracket_coloring(crown.n, crown.rows, base, 1, first_fit)
        assert check_coloring(crown, got) and got.count == 2
    # with a triangle beside it, chi = 3: base 2 asks for 4 colours (found,
    # 3 used), then 2 (fails, so chi > 2); a floor of 2 skips that search
    asked = []
    search = covernum.invariants._color_components

    def record(n, rows, k=None):
        asked.append(k)
        return search(n, rows, k)

    monkeypatch.setattr(covernum.invariants, "_color_components", record)
    g = disjoint_union([crown, complete(3)])
    for floor, ks in ((1, [4, 2]), (2, [4])):
        asked.clear()
        got = bracket_coloring(g.n, g.rows, 2, floor, first_fit_coloring(g.n, g.rows))
        assert check_coloring(g, got) and got.count == 3
        assert asked == ks


def test_iterative_k_colorable_matches_recursive_reference():
    # with k = n the search never backtracks, and every k from its count
    # up returns that same greedy colouring; a search sent fewer colours
    # goes on to what a new search for that many returns
    for g in small_and_seeded_hosts():
        greedy = k_colorable_rows(g.n, g.rows, g.n)
        top = max(greedy, default=-1) + 1
        for k in range(g.n + 1):
            got = k_colorable_rows(g.n, g.rows, k)
            assert got == recursive_k_colorable_rows(g.n, g.rows, k), (g, k)
            assert k < top or got == greedy, (g, k)
        search = dsatur_search(g.n, g.rows, g.n)
        got = next(search)
        for k in range(top, -1, -1):
            assert got == k_colorable_rows(g.n, g.rows, k), (g, k)
            if got is None:
                break
            try:
                got = search.send(k - 1)
            except StopIteration:
                got = None


def test_capped_clique_search_equals_uncapped():
    # any proper colouring's count bounds omega, and the least such count
    # is chi: every cap from chi to n keeps the lexicographically least
    # maximum clique
    for g in small_and_seeded_hosts():
        full = (1 << g.n) - 1
        want = recursive_max_clique(g.rows, full)
        assert _max_clique(g.rows, full) == want, g
        chi = chromatic_number(g)[0]
        for cap in range(chi, g.n + 1):
            assert _max_clique(g.rows, full, cap) == want, (g, cap)
            assert clique_number(g, cap)[1].vertices == tuple(
                v for v in range(g.n) if want >> v & 1), (g, cap)


def test_chromatic_number_matches_recursive_reference():
    for g in small_and_seeded_hosts():
        chi, coloring = chromatic_number(g)
        assert (chi, coloring.colors) == recursive_chromatic_number(g), g
