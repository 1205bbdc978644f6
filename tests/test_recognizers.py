import copy
import random
from collections import Counter
from itertools import combinations

import pytest

from covernum import (
    CapacityError,
    Graph,
    check_certificate,
    check_witness,
    complement,
    complete,
    cycle,
    exact_cover_number,
    hypercube,
    in_class,
    is_bipartite,
    is_chi_eq_omega,
    is_cluster,
    is_co_unipolar,
    is_gsp,
    is_perfect,
    is_unipolar,
    make_graph,
    parse_class_spec,
    parse_f_spec,
    parse_graph6,
)
from covernum.covers import CoverCertificate
from covernum.generators import (all_graphs, complete_multipartite, kKl, parse_family_spec,
                                 random_graphs)
from covernum.graphs import complement_rows, disjoint_union, full_edge_set
from covernum.invariants import CliqueWitness, Coloring, check_clique, check_coloring
from covernum.recognizers import (
    CLASS_KINDS,
    ClassSpec,
    FSpec,
    _find_p3,
    _frozen_p3,
    _odd_hole_or_antihole,
    bipartition_rows,
    find_odd_hole,
    identity_f,
    is_chi_le_f,
    membership_fn,
    unipolar_split_rows,
)
from oracles import (
    brute_clique,
    gnp_graph,
    naive_bipartition_rows,
    naive_check_clique,
    naive_check_coloring,
    naive_check_witness,
    naive_odd_hole,
    naive_perfect,
    naive_unipolar,
    planted_bipartite_hosts,
    planted_unipolar_hosts,
    recursive_k_colorable_rows,
    small_and_seeded_hosts,
    two_scan_odd_hole_or_antihole,
    uncut_unipolar_split_rows,
    whole_host_is_chi_le_f,
)

ALL_SPECS = [parse_class_spec(t) for t in (
    "bipartite", "chi-le:2", "chi-le:3", "chi-le-f:identity",
    "chi-le-f:plus:1", "chi-eq-omega", "perfect", "unipolar",
    "co-unipolar", "gsp",
)]


def test_f_spec_parsing():
    assert str(parse_f_spec("identity")) == "identity"
    assert parse_f_spec("plus:2")(3) == 5
    assert parse_f_spec("pow:2")(3) == 9
    assert parse_f_spec("const:4")(61) == 4
    with pytest.raises(ValueError):
        parse_f_spec("plus:-1")
    with pytest.raises(ValueError):
        parse_f_spec("cube:2")
    with pytest.raises(ValueError):
        parse_f_spec("const:0")


def test_f_spec_table_form():
    f = FSpec("table", table=(1, 2, 4, 8))
    assert f(3) == 4
    with pytest.raises(ValueError):
        f(5)  # table too short
    with pytest.raises(ValueError):
        FSpec("table", table=(1, 1, 2))  # falls below identity
    with pytest.raises(ValueError):
        FSpec("table", table=(2, 1))  # decreasing


def test_f_spec_domain():
    f = identity_f()
    assert f(64) == 64
    with pytest.raises(ValueError):
        f(0)
    with pytest.raises(ValueError):
        f(65)
    assert FSpec("const", value=3)(64) == 3  # const need not majorize the identity
    assert FSpec("plus", value=0)(64) == 64
    with pytest.raises(ValueError, match="^unknown f form 'bogus'$"):
        FSpec("bogus")


def test_class_spec_parsing():
    assert parse_class_spec("chi-le:3").k == 3
    assert parse_class_spec("chi-le-f:plus:1").f(2) == 3
    assert str(parse_class_spec("chi-le-f:pow:2")) == "chi-le-f:pow:2"
    for kind in CLASS_KINDS:
        if kind not in ("chi-le", "chi-le-f"):
            assert parse_class_spec(kind).kind == kind
    with pytest.raises(ValueError):
        parse_class_spec("split")
    with pytest.raises(ValueError):
        parse_class_spec("chi-le-f")
    # classes without the single-edge graph
    for text, msg in (
        ("chi-le:0", "chi-le requires k >= 2"),
        ("chi-le:1", "chi-le requires k >= 2"),
        ("chi-le-f:table:1", "bad class spec 'chi-le-f:table:1': bad f spec 'table:1': "
                             "table form needs at least 2, got 1"),
        ("chi-le-f:const:1", "bad class spec 'chi-le-f:const:1': bad f spec 'const:1': "
                             "const form needs at least 2, got 1"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_class_spec(text)
        assert str(exc.value) == msg
    with pytest.raises(ValueError, match="^unknown class kind 'nope'$"):
        ClassSpec("nope")
    with pytest.raises(ValueError, match="^chi-le-f requires an f spec$"):
        ClassSpec("chi-le-f")
    for text in ("identity", "plus:1", "pow:2", "const:3", "table:1,3,3,5"):
        spec = parse_class_spec("chi-le-f:" + text)
        assert parse_class_spec(str(spec)) == spec


def test_every_class_holds_the_single_edge_graph():
    # so every edge of a host lies in a member, which the solver relies on
    specs = [parse_class_spec(t) for t in (
        *(k for k in CLASS_KINDS if k not in ("chi-le", "chi-le-f")), "chi-le:2",
        *("chi-le-f:" + f for f in ("identity", "plus:0", "pow:1", "const:2", "table:1,2")),
    )]
    for n in (2, 3, 5):
        g = make_graph(n, [(0, n - 1)])
        for spec in specs:
            witness = in_class(g, spec)
            assert witness is not None and check_witness(g, spec, witness), (n, spec)
            assert membership_fn(spec)(n, g.rows), (n, spec)


def test_bipartite_cycles():
    assert is_bipartite(cycle(6)) is not None
    assert is_bipartite(cycle(7)) is None
    sides = is_bipartite(cycle(4))
    assert sides is not None
    assert sides[0] | sides[1] == 0b1111
    assert sides[0] & sides[1] == 0


def test_bipartition_by_layers_matches_the_vertex_walk():
    # same sides, side 0 holding each component's least vertex, or None
    hosts = [g for n in range(7) for g in all_graphs(n)]
    hosts += planted_bipartite_hosts(83, 200)
    assert any(any(g.rows) and not all(g.rows) for g in hosts[-200:])
    for g in hosts:
        assert bipartition_rows(g.n, g.rows) == naive_bipartition_rows(g.n, g.rows), g


def test_cluster_recognition():
    assert is_cluster(make_graph(0, [])) == []
    assert is_cluster(kKl(2, 3)) is not None
    assert is_cluster(cycle(4)) is None
    # P3 is the forbidden pattern
    assert is_cluster(make_graph(3, [(0, 1), (1, 2)])) is None


def test_c4_is_unipolar():
    w = is_unipolar(cycle(4))
    assert w is not None
    a, clusters = w
    assert bin(a).count("1") <= 2


def test_c5_is_nothing_nice():
    c5 = cycle(5)
    assert is_unipolar(c5) is None
    assert is_co_unipolar(c5) is None
    assert is_gsp(c5) is None
    assert is_chi_eq_omega(c5) is None
    ok, bad = is_perfect(c5)
    assert not ok
    assert bad == ("odd-hole", (0, 1, 2, 3, 4))


def test_unipolar_against_naive_oracle():
    for n in range(6):
        for g in all_graphs(n):
            assert (is_unipolar(g) is not None) == naive_unipolar(g)


def test_split_search_finds_the_uncut_clique_side():
    # the frozen-vertex cut and the resumed P3 scan skip only subtrees
    # holding no split and scan positions holding no P3, so the clique
    # side found, as a mask, is the uncut search's: on every graph up to
    # 6 vertices, seeded 7-12 vertex graphs and their complements, and
    # planted 24-64 vertex unipolar hosts and their complements
    hosts = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(26)
    for _ in range(500):
        g = gnp_graph(rng, rng.randint(7, 12), rng.random())
        hosts += [g, complement(g)]
    planted = planted_unipolar_hosts(26, 24)
    hosts += [h for g in planted for h in (g, complement(g))]
    found = []
    for g in hosts:
        a = unipolar_split_rows(g.n, g.rows)
        assert a == uncut_unipolar_split_rows(g.n, g.rows), g
        found.append(a is not None)
    # the planted hosts are unipolar, and the searches on their
    # complements include failing ones, which walk the whole cut tree
    k = len(planted)
    assert all(found[-2 * k::2]) and not all(found[-2 * k + 1::2])


def test_frozen_cut_prunes_failing_searches(monkeypatch):
    # the complements of planted unipolar hosts are not unipolar; with the
    # frozen-vertex cut their failing searches scan G - A at a tenth of the
    # nodes, or fewer, that they scan without it
    import covernum.recognizers

    hosts = [complement(g) for g in planted_unipolar_hosts(27, 6)]
    scan = covernum.recognizers._find_p3
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return scan(*args)

    monkeypatch.setattr(covernum.recognizers, "_find_p3", counted)
    cut = []
    for g in hosts:
        calls[0] = 0
        assert unipolar_split_rows(g.n, g.rows) is None, g
        cut.append(calls[0])
    monkeypatch.setattr(covernum.recognizers, "_frozen_p3", lambda *args: False)
    for g, nodes in zip(hosts, cut):
        calls[0] = 0
        assert unipolar_split_rows(g.n, g.rows) is None, g
        assert 10 * nodes <= calls[0], (g, nodes, calls[0])


def _p3s(rows, mask):
    """Every induced P3 (u, b, w), u < w, inside mask, brute force."""
    vs = [v for v in range(len(rows)) if mask >> v & 1]
    return [(u, b, w) for b in vs for u in vs for w in vs
            if u < w and b not in (u, w) and rows[b] >> u & 1 and rows[b] >> w & 1
            and not rows[u] >> w & 1]


def test_p3_scan_finds_the_least_p3_from_its_start():
    # the least middle at or above start, then the least ends, on random
    # graphs and on disjoint cliques (whose blocks the scan skips) with a
    # few random edges added
    rng = random.Random(261)
    for i in range(2000):
        n = rng.randint(0, 9)
        g = gnp_graph(rng, n, rng.random())
        if i % 2:
            cut = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
            blocks = [range(a, b) for a, b in zip([0, *cut], [*cut, n])]
            edges = [e for b in blocks for e in combinations(b, 2)]
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2)) if n > 1]
            g = make_graph(n, edges)
        active = rng.getrandbits(n)
        start = rng.randint(0, n)
        want = min(((b, u, w) for u, b, w in _p3s(g.rows, active) if b >= start),
                   default=None)
        got = _find_p3(g.rows, active, start)
        assert got == (want and (want[1], want[0], want[2])), (g, active, start)


def test_frozen_check_finds_the_p3s_through_new_vertices():
    # _frozen_p3(rows, frozen, fresh) reports exactly whether frozen
    # induces a P3 with a vertex in fresh; where the old frozen vertices
    # induce none, that is whether _find_p3 finds one in frozen
    rng = random.Random(262)
    checked = 0
    for _ in range(3000):
        n = rng.randint(1, 10)
        g = gnp_graph(rng, n, rng.random())
        frozen = rng.getrandbits(n)
        fresh = frozen & rng.getrandbits(n)
        through_new = any((1 << u | 1 << b | 1 << w) & fresh for u, b, w in _p3s(g.rows, frozen))
        assert _frozen_p3(g.rows, frozen, fresh) == through_new, (g, frozen, fresh)
        if _find_p3(g.rows, frozen & ~fresh) is None:
            checked += 1
            assert through_new == (_find_p3(g.rows, frozen) is not None), (g, frozen, fresh)
    assert checked > 1000


def test_unipolar_examples():
    assert is_unipolar(complete(5)) is not None
    assert is_unipolar(kKl(3, 4)) is not None
    # complete bipartite K23 minus nothing: P3s everywhere, no split
    k23 = make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert is_unipolar(k23) is None


def test_complete_graphs_are_co_unipolar():
    for n in range(2, 13):
        assert is_co_unipolar(complete(n)) is not None


def test_gsp_is_the_union_of_both_branches():
    for g in random_graphs(6, 60, 13):
        u = is_unipolar(g) is not None
        c = is_co_unipolar(g) is not None
        w = is_gsp(g)
        assert (w is not None) == (u or c)
        if w is not None:
            assert w[0] in ("unipolar", "co-unipolar")


def test_perfect_against_hereditary_oracle():
    for n in range(6):
        for g in all_graphs(n):
            assert is_perfect(g)[0] == naive_perfect(g)


def test_perfect_antihole_witness():
    g = complement(cycle(7))
    ok, bad = is_perfect(g)
    assert not ok
    assert bad[0] == "odd-antihole"
    assert len(bad[1]) == 7


def _random_rows(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def test_odd_hole_against_subset_scan_oracle():
    graphs = [(g.n, g.rows) for n in range(7) for g in all_graphs(n)]
    rng = random.Random(2020)
    graphs += [(n, _random_rows(rng, n, p))
               for p in (0.3, 0.5, 0.7) for n in range(7, 13) for _ in range(8)]
    for n, rows in graphs:
        for r in (rows, complement_rows(n, rows)):
            assert find_odd_hole(n, r) == naive_odd_hole(n, r)


def test_odd_hole_reported_before_shorter_antihole():
    # a 9-hole on 0..8 and an anti-C7 overlapping it; found by random search
    # over such graphs with naive_odd_hole
    g = parse_graph6("KhCGGE@wLTLt")
    anti = find_odd_hole(g.n, complement(g).rows)
    assert anti == naive_odd_hole(g.n, complement(g).rows) == (0, 1, 2, 8, 9, 10, 11)
    assert is_perfect(g) == (False, ("odd-hole", tuple(range(9))))


def test_odd_hole_lexicographic_tie_break():
    # two 5-holes through 0-1: the path search meets 0-1-3-6-4 first,
    # but 0-1-5-2-4 has the lexicographically smaller vertex set
    g = parse_graph6("Fah_o")
    assert g.edges() == [(0, 1), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5), (3, 6), (4, 6)]
    assert find_odd_hole(g.n, g.rows) == naive_odd_hole(g.n, g.rows) == (0, 1, 2, 4, 5)
    assert is_perfect(g) == (False, ("odd-hole", (0, 1, 2, 4, 5)))


def _half_bipartite_rows(rng, n):
    """Sides of n // 2 and the rest, each cross pair an edge with chance 1/2."""
    rows = [0] * n
    for u in range(n // 2):
        for v in range(n // 2, n):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def test_bipartite_rule_matches_the_two_scans():
    # bipartite and co-bipartite graphs are answered without a scan; every
    # answer and witness must still be the one the two scans give
    graphs = [(g.n, g.rows) for n in range(7) for g in all_graphs(n)]
    rng = random.Random(14)
    graphs += [(n, _random_rows(rng, n, p / 10))
               for p in range(1, 10) for n in range(7, 23) for _ in range(8)]
    hosts = []
    for n in range(7, 23):
        for _ in range(18):
            rows = _half_bipartite_rows(rng, n)
            u, v = rng.sample(range(n // 2), 2)  # one edge inside a side
            plus = rows[:]
            plus[u] |= 1 << v
            plus[v] |= 1 << u
            hosts += [(n, rows), (n, plus)]
    graphs += hosts + [(n, complement_rows(n, rows)) for n, rows in hosts]
    perfect = membership_fn(parse_class_spec("perfect"))
    outcomes = Counter()
    for n, rows in graphs:
        want = two_scan_odd_hole_or_antihole(n, rows)
        assert _odd_hole_or_antihole(n, rows) == want
        assert is_perfect(Graph(n, tuple(rows))) == (want is None, want)
        assert perfect(n, rows) == (want is None)
        if want is not None:
            outcomes[want[0]] += 1
        elif bipartition_rows(n, rows) or bipartition_rows(n, complement_rows(n, rows)):
            outcomes["by the rule"] += 1
        else:
            outcomes["scanned perfect"] += 1
    assert len(outcomes) == 4, outcomes


def test_perfect_capacity():
    # The cap comes before the bipartite rule: hypercube(6) and cycle(28)
    # are bipartite and complete(27) co-bipartite, all past 26 vertices.
    for g in (cycle(27), cycle(28), hypercube(6), complete(27)):
        with pytest.raises(CapacityError):
            is_perfect(g)
    with pytest.raises(CapacityError):
        exact_cover_number(hypercube(6), parse_class_spec("perfect"))


def test_chi_eq_omega_witness():
    w = is_chi_eq_omega(complete(4))
    assert w is not None
    coloring, clique = w
    assert coloring.count == 4
    assert clique.size == 4


def test_is_chi_le_f_matches_whole_host_reference():
    # greedy first, the clique search capped at its count, then one
    # search per component: the same colouring, clique and f(omega) as the
    # uncapped clique search and one whole-host search
    fs = [parse_f_spec(t) for t in ("identity", "plus:1", "const:2", "const:3")]
    for g in small_and_seeded_hosts():
        for f in fs:
            got = is_chi_le_f(g, f)
            if got is not None:
                coloring, clique, fw = got
                assert coloring.count == max(coloring.colors, default=-1) + 1
                got = coloring.colors, clique.vertices, fw
            assert got == whole_host_is_chi_le_f(g, f), (g, f)


def test_chi_le_witness_matches_whole_host_search():
    for g in small_and_seeded_hosts():
        for k in (2, 3, 4):
            w = in_class(g, ClassSpec("chi-le", k))
            want = recursive_k_colorable_rows(g.n, g.rows, k)
            assert (w and w["coloring"]) == want, (g, k)


def test_chi_le_2_fails_at_the_frontier_walk(monkeypatch):
    # every graph up to 6 vertices: an odd cycle answers None with no
    # colouring search, a bipartite host keeps the DSATUR colouring
    import covernum.recognizers

    search = covernum.recognizers._color_components

    def searched(n, rows, *args):
        assert bipartition_rows(n, rows) is not None
        return search(n, rows, *args)

    monkeypatch.setattr(covernum.recognizers, "_color_components", searched)
    spec = ClassSpec("chi-le", 2)
    for n in range(7):
        for g in all_graphs(n):
            w = in_class(g, spec)
            if bipartition_rows(g.n, g.rows) is None:
                assert w is None, g
            else:
                assert w["coloring"] == recursive_k_colorable_rows(g.n, g.rows, 2), g


def test_colouring_searches_stay_inside_components(monkeypatch):
    # K_{9,9} beside the Groetzsch graph (chi 4, omega 2): a whole-host
    # search for 3 colours, or for f(omega) = 2 or 3, backtracks through
    # the bipartite side's colourings before it can fail.  A search of the
    # whole host may make its first descent (the greedy colouring, or the
    # descent to its first dead end), but only a search of one component,
    # 18 vertices at most, is asked to go on from there.
    import covernum.invariants
    import covernum.recognizers

    g = disjoint_union([complete_multipartite([9, 9]), parse_family_spec("mycielski:4")])
    seen = []
    search = covernum.invariants.dsatur_search

    def recorded(n, rows, k):
        log = [n, False]  # vertices, asked for more after its first answer
        seen.append(log)
        inner = search(n, rows, k)
        try:
            value = next(inner)
            while True:
                sent = yield value
                log[1] = True
                value = inner.send(sent)
        except StopIteration:
            return

    for mod in (covernum.invariants, covernum.recognizers):
        monkeypatch.setattr(mod, "dsatur_search", recorded)
    for text in ("chi-le:3", "chi-eq-omega", "chi-le-f:plus:1"):
        spec = parse_class_spec(text)
        # the witness and the sweeps' membership test run the one search
        for answer, verdict in ((lambda: in_class(g, spec), None),
                                (lambda: membership_fn(spec)(g.n, g.rows), False)):
            seen.clear()
            assert answer() is verdict, text
            assert any(n == g.n for n, _ in seen), text
            assert all(n <= 18 for n, went_on in seen if went_on), (text, seen)


def test_in_class_reports_the_clique_it_searched():
    # the {chi <= f(omega)} test leaves the host's least maximum clique
    # for the solver, member or not; other classes leave nothing
    for g in (complete(4), cycle(5), parse_family_spec("mycielski:4")):
        want = brute_clique(g)[1]
        for text in ("chi-eq-omega", "chi-le-f:identity", "chi-le-f:const:3"):
            spec = parse_class_spec(text)
            cliques = []
            assert in_class(g, spec, cliques) == in_class(g, spec)
            assert [c.vertices for c in cliques] == [want], (g, text)
        for text in ("bipartite", "chi-le:3", "perfect", "gsp"):
            cliques = []
            in_class(g, parse_class_spec(text), cliques)
            assert cliques == [], (g, text)


def test_in_class_and_check_witness_roundtrip():
    for g in list(all_graphs(4)) + random_graphs(5, 30, 17):
        for spec in ALL_SPECS:
            w = in_class(g, spec)
            if w is not None:
                assert check_witness(g, spec, w), (g, str(spec), w)


def test_check_witness_rejects_tampering():
    g = cycle(4)
    spec = parse_class_spec("bipartite")
    w = in_class(g, spec)
    assert w is not None
    bad = dict(w)
    bad["sides"] = [w["sides"][1], w["sides"][0][:-1]]
    assert not check_witness(g, spec, bad)
    assert not check_witness(g, spec, dict(w, sides=[w["sides"][0]]))  # one side only
    bad = dict(w)
    bad["class"] = "unipolar"
    assert not check_witness(g, spec, bad)

    spec = parse_class_spec("chi-le:2")
    w = in_class(g, spec)
    bad = dict(w)
    bad["coloring"] = [0, 0, 1, 0]
    assert not check_witness(g, spec, bad)

    spec = parse_class_spec("unipolar")
    w = in_class(g, spec)
    bad = dict(w)
    bad["clusters"] = w["clusters"][:-1] if w["clusters"] else [[0]]
    assert not check_witness(g, spec, bad)

    # malformed witnesses, as a certificate read from JSON may hold
    c5 = cycle(5)
    assert not check_witness(c5, parse_class_spec("chi-le:3"), None)
    w = in_class(c5, parse_class_spec("chi-le:3"))
    bad = dict(w, coloring=[str(c) for c in w["coloring"]])
    assert not check_witness(c5, parse_class_spec("chi-le:3"), bad)
    bad = {"class": "unipolar", "clique_side": 0, "clusters": [[0, 1], [2, 3], [4]]}
    assert not check_witness(c5, parse_class_spec("unipolar"), bad)
    bad = {"class": "chi-le-f:identity", "coloring": [0, 1, 0, 1, 2], "clique": ["0", "1"],
           "f_omega": 2}
    assert not check_witness(c5, parse_class_spec("chi-le-f:identity"), bad)

    # a well-formed witness whose clique lies past the end of a table f
    k3 = complete(3)
    spec = parse_class_spec("chi-le-f:table:1,2")
    w = {"class": str(spec), "coloring": [0, 1, 2], "clique": [0, 1, 2]}
    assert not check_witness(k3, spec, w)
    assert not check_certificate(k3, CoverCertificate(k3, spec, (full_edge_set(k3),), (w,), 1))


def test_check_witness_rejects_malformed_split_branches():
    # Q3 is co-unipolar and not unipolar, so its gsp witness takes the
    # co-unipolar branch; any other branch name, or none, is rejected
    q3 = hypercube(3)
    gsp = parse_class_spec("gsp")
    w = in_class(q3, gsp)
    assert w["branch"] == "co-unipolar" and check_witness(q3, gsp, w)
    body = {k: v for k, v in w.items() if k != "branch"}
    assert not check_witness(q3, gsp, body)
    for branch in (["co-unipolar"], "perfect", "unipolar"):
        assert not check_witness(q3, gsp, dict(body, branch=branch)), branch
    assert body == dict(in_class(q3, parse_class_spec("co-unipolar")), **{"class": "gsp"})


def test_check_witness_takes_lists_and_tuples_alike():
    bipartite = parse_class_spec("bipartite")
    for sides in ([[0, 2], (1, 3)], ((0, 2), [1, 3]), ([0, 2], [1, 3])):
        assert check_witness(cycle(4), bipartite, {"class": "bipartite", "sides": sides})
    odd = {"class": "bipartite", "sides": [[0, 2], (1, 3, 4)]}
    assert not check_witness(cycle(5), bipartite, odd)
    empty = make_graph(0, [])
    for text in ("chi-eq-omega", "chi-le-f:identity"):
        spec = parse_class_spec(text)
        for clique in ([], ()):
            for colors in ([], ()):
                w = {"class": text, "coloring": colors, "clique": clique}
                assert check_witness(empty, spec, w), (text, clique, colors)
        assert not check_witness(empty, spec, {"class": text, "coloring": [], "clique": [0]})


def _vertex_lists(body):
    """The lists of vertex ids in a witness body."""
    if "sides" in body:
        return body["sides"]
    if "clique_side" in body:
        return [body["clique_side"]] + body["clusters"]
    return [body["clique"]] if "clique" in body else []


def _mutant(rng, body, n):
    """A copy of body with one change: a vertex (or a vertex's colour)
    moved, dropped or duplicated, or a vertex id past n (a colour out of
    range)."""
    body = copy.deepcopy(body)
    colors = body.get("coloring")
    lists = _vertex_lists(body)
    targets = [lst for lst in [colors] + lists if lst]
    if not targets:
        return body
    target = rng.choice(targets)
    i = rng.randrange(len(target))
    kind = rng.choice(("move", "drop", "duplicate", "out of range"))
    if kind == "drop":
        del target[i]
    elif kind == "duplicate":
        (target if target is colors else rng.choice(lists)).append(target[i])
    elif target is colors:
        top = max(colors) + 1
        colors[i] = rng.randrange(top) if kind == "move" else rng.choice((-1, top, n))
    elif kind == "out of range":
        target[i] = n + rng.randrange(3)
    elif len(lists) == 1:  # a clique: another vertex in this one's place
        target[i] = rng.randrange(n)
    else:
        rng.choice(lists).append(target.pop(i))
    return body


def test_witness_checks_match_edge_walk_oracles():
    # valid witnesses and seeded mutations of them, each checked on its own
    # graph and on another of the same order, by the mask checks and by
    # the edge-walk oracles
    rng = random.Random(20261018)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    for n, seed in ((7, 71), (9, 91), (12, 121)):
        for g in random_graphs(n, 30, seed):
            thin = make_graph(n, [e for e in g.edges() if rng.random() < 0.3])
            graphs += [g, thin, complement(thin)]
    by_order = {}
    for g in graphs:
        by_order.setdefault(g.n, []).append(g)
    specs = [spec for spec in ALL_SPECS if spec.kind != "perfect"]
    outcomes = {True: 0, False: 0}
    for g in graphs:
        other = rng.choice(by_order[g.n])
        for spec in specs:
            body = in_class(g, spec)
            if body is None:
                continue
            assert check_witness(g, spec, body) and naive_check_witness(g, spec, body)
            for w in [body] + [_mutant(rng, body, g.n) for _ in range(4)]:
                for host in (g, other):
                    got = check_witness(host, spec, w)
                    assert got == naive_check_witness(host, spec, w), (host, spec, w)
                    outcomes[got] += 1
                    if "clique" in w:
                        col = Coloring(tuple(w["coloring"]), max(w["coloring"], default=-1) + 1)
                        assert check_coloring(host, col) == naive_check_coloring(host, col)
                        cw = CliqueWitness(tuple(w["clique"]), len(w["clique"]))
                        assert check_clique(host, cw) == naive_check_clique(host, cw)
    assert min(outcomes.values()) > 10000, outcomes


def test_membership_fn_matches_in_class():
    for g in random_graphs(5, 40, 19):
        for spec in ALL_SPECS:
            fast = membership_fn(spec)(g.n, g.rows)
            assert fast == (in_class(g, spec) is not None), str(spec)


def test_isolated_vertices_do_not_matter():
    # same graphs plus padding vertices; every class must agree
    base = cycle(5)
    padded = make_graph(9, base.edges())
    for spec in ALL_SPECS:
        assert (in_class(base, spec) is None) == (in_class(padded, spec) is None)
