from itertools import combinations

import pytest
from oracles import (
    brute_chromatic,
    brute_clique,
    gnp_graph,
    naive_partition_family,
    naive_subset_family,
    per_set_unipolar_best,
    witnessed_host_member,
)

from covernum import (
    BudgetError,
    CapacityError,
    ClassSpec,
    SolveBudget,
    ceil_log,
    certificate_to_json,
    check_certificate,
    complete,
    cycle,
    decide_cover,
    exact_cover_number,
    formula_chibound,
    hypercube,
    in_class,
    kKl,
    make_graph,
    max_class_subgraph_size,
    maximal_class_subgraphs,
    parse_class_spec,
    parse_family_spec,
    parse_graph6,
    spanning_subgraph,
    sweep_cover_number,
    unipolar_subgraph_bound,
)
from covernum.generators import all_graphs, random_graphs
from covernum.graphs import edge_index, mask_rows
from covernum.invariants import first_fit_coloring
from covernum.recognizers import class_f, membership_fn
from covernum.structural import unipolar_best, unipolar_family, unipolar_work
from covernum.verify import INCLUSION_PAIRS

SPECS = [parse_class_spec(t) for t in (
    "bipartite", "chi-le:2", "chi-le:3", "chi-le-f:identity",
    "chi-eq-omega", "perfect", "unipolar", "co-unipolar", "gsp",
)]

# The benchmark ladder's pinned 8-vertex hosts (bench/data/ladder_pins.json).
LADDER_HOSTS = (
    "G?Mu@W", "GCfbGO", "GDPJIO", "GGuSHW", "GHOkMs", "GL]?DS", "GPadM_", "GWLAe_", "GWbQQC",
    "G_loAc", "Gag}G?", "GbogFO", "GdKI[_", "GiBJ`?", "GlLBR?", "GoBG[c", "GsOWd_", "GzcQlw",
)


def brute_maximal_masks(g, spec):
    """Reference family: full subset sweep plus pairwise maximality."""
    idx = list(edge_index(g))
    member = membership_fn(spec)
    members = []
    for mask in range(1 << len(idx)):
        rows = [0] * g.n
        for i, (u, v) in enumerate(idx):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if member(g.n, rows):
            members.append(mask)
    return sorted(
        m for m in members
        if not any(m != o and m & o == m for o in members)
    )


def brute_min_cover(universe, family):
    if universe == 0:
        return 0
    for r in range(1, len(family) + 1):
        for combo in combinations(family, r):
            u = 0
            for m in combo:
                u |= m
            if u == universe:
                return r
    return None


def test_k3_bipartite_family():
    g = complete(3)
    family = maximal_class_subgraphs(g, parse_class_spec("bipartite"))
    assert len(family) == 3
    assert sorted(len(p) for p in family) == [2, 2, 2]
    res = exact_cover_number(g, parse_class_spec("bipartite"))
    assert res.value == 2


def test_families_match_brute_force():
    hosts = [g for n in range(5) for g in all_graphs(n)]
    for g in hosts:
        for spec in SPECS:
            got = sorted(p.bits for p in maximal_class_subgraphs(g, spec))
            assert got == brute_maximal_masks(g, spec), (g, str(spec))


def test_families_match_brute_force_n5_sample():
    for g in random_graphs(5, 12, 31):
        for spec in SPECS:
            got = sorted(p.bits for p in maximal_class_subgraphs(g, spec))
            assert got == brute_maximal_masks(g, spec), (g, str(spec))


def test_cover_number_matches_brute_force():
    for g in random_graphs(5, 15, 37) + random_graphs(4, 10, 41):
        universe = (1 << g.edge_count) - 1
        for spec in SPECS:
            family = [p.bits for p in maximal_class_subgraphs(g, spec)]
            expected = brute_min_cover(universe, family)
            if expected is None:
                continue
            res = exact_cover_number(g, spec)
            assert res.value == expected, (g, str(spec))
            assert check_certificate(g, res.certificate)


def test_certificates_verify():
    for g in random_graphs(6, 20, 43):
        for spec in SPECS[:5]:
            res = exact_cover_number(g, spec)
            assert check_certificate(g, res.certificate)
            assert res.certificate.formula == res.value
            assert len(res.certificate.parts) == res.value


def test_host_member_shortcut():
    res = exact_cover_number(complete(6), parse_class_spec("co-unipolar"))
    assert res.value == 1
    assert res.stats.method == "host-member"
    res = exact_cover_number(kKl(3, 4), parse_class_spec("gsp"))
    assert res.value == 1
    assert res.stats.method == "host-member"


def test_host_member_part_is_the_hosts_own_rows():
    # K64 is co-unipolar: its one part shares the host's rows, so the
    # certificate check and the JSON read no mask over 2,016 edge ids
    g = complete(64)
    res = exact_cover_number(g, parse_class_spec("co-unipolar"))
    assert (res.value, res.stats.method) == (1, "host-member")
    assert res.certificate.parts[0].rows is g.rows
    assert check_certificate(g, res.certificate)
    assert certificate_to_json(res.certificate)["parts"] == [[list(e) for e in g.edges()]]


def test_host_member_certificate_matches_the_witnessed_copy():
    texts = sorted({t for pair in INCLUSION_PAIRS for t in pair}) + ["chi-le-f:plus:1"]
    specs = [parse_class_spec(t) for t in texts]
    members = 0
    for n in range(6):
        for g in all_graphs(n):
            if not g.edge_count:
                continue
            for spec in specs:
                cert = decide_cover(g, spec, 1)
                assert cert == witnessed_host_member(g, spec), (g, str(spec))
                members += cert is not None
    assert members == 8355  # of 9,846 pairs of a host with an edge and a class


def test_edgeless_cover_is_empty():
    res = exact_cover_number(make_graph(5, []), parse_class_spec("bipartite"))
    assert res.value == 0
    assert res.certificate.parts == ()
    assert check_certificate(make_graph(5, []), res.certificate)


def test_decide_cover_brackets_exact_value():
    for g in random_graphs(5, 15, 47):
        for text in ("bipartite", "chi-le:2", "unipolar"):
            spec = parse_class_spec(text)
            res = exact_cover_number(g, spec)
            assert decide_cover(g, spec, res.value) is not None
            if res.value:
                assert decide_cover(g, spec, res.value - 1) is None
            cert = decide_cover(g, spec, res.value + 1)
            assert cert is not None and len(cert.parts) <= res.value + 1


def test_decide_cover_negative_k():
    assert decide_cover(cycle(4), parse_class_spec("bipartite"), -1) is None
    assert decide_cover(cycle(4), parse_class_spec("bipartite"), 0) is None
    assert decide_cover(make_graph(3, []), parse_class_spec("bipartite"), 0) is not None


def test_edge_budget_enforced():
    # unipolar has no upper bound (C6 is bipartite but not unipolar), so a
    # non-member host always reaches the sweep, which the budget guards
    spec = parse_class_spec("unipolar")
    q4 = hypercube(4)  # 32 edges
    with pytest.raises(BudgetError):
        exact_cover_number(q4, spec)
    with pytest.raises(BudgetError):
        decide_cover(q4, spec, 3)
    with pytest.raises(BudgetError):
        maximal_class_subgraphs(complete(8), parse_class_spec("bipartite"))
    q3 = hypercube(3)  # 12 edges
    with pytest.raises(BudgetError):
        exact_cover_number(q3, spec, SolveBudget(max_edges=11))
    res = exact_cover_number(q3, spec, SolveBudget(max_edges=12))
    assert res.value == 2


def test_negative_edge_budget_is_rejected():
    with pytest.raises(ValueError, match="edge budget must be >= 0, got -1"):
        SolveBudget(max_edges=-1)
    # a budget of 0 answers only what needs no enumeration
    zero = SolveBudget(max_edges=0)
    assert exact_cover_number(cycle(5), parse_class_spec("bipartite"), zero).value == 2
    with pytest.raises(BudgetError):
        max_class_subgraph_size(cycle(5), parse_class_spec("unipolar"), zero)


def test_budget_fails_before_the_chromatic_number(monkeypatch):
    import covernum.solver

    def no_chi(g):
        raise AssertionError("exact chromatic number on an over-budget host")

    monkeypatch.setattr(covernum.solver, "chromatic_number", no_chi)
    g = random_graphs(64, 1, 5)[0]  # 1,009 edges, omega 8: bounds at most 2 and at least 3
    for text in ("gsp", "co-unipolar", "unipolar"):
        spec = parse_class_spec(text)
        with pytest.raises(BudgetError):
            exact_cover_number(g, spec)
        with pytest.raises(BudgetError):
            decide_cover(g, spec, 2)
        assert decide_cover(g, spec, 1) is None
    # The host test is the perfection check, capped at 26 vertices with an edge.
    perfect = parse_class_spec("perfect")
    for k in (1, 2):
        with pytest.raises(CapacityError):
            decide_cover(g, perfect, k)
    with pytest.raises(CapacityError):
        exact_cover_number(g, perfect)
    g = random_graphs(26, 1, 5)[0]  # 150 edges, omega 6, within the cap
    with pytest.raises(BudgetError):
        exact_cover_number(g, perfect)
    with pytest.raises(BudgetError):
        decide_cover(g, perfect, 2)
    assert decide_cover(g, perfect, 1) is None


def test_bounds_settle_hosts_past_the_edge_budget():
    g = complete(12)  # 66 edges
    res = exact_cover_number(g, parse_class_spec("bipartite"))
    assert (res.value, res.stats.method) == (4, "formula")
    assert check_certificate(g, res.certificate)
    g = parse_family_spec("far:1,2")  # 27 edges, chi 4, omega 3
    assert g.edge_count == 27
    for text in ("perfect", "gsp", "co-unipolar"):
        res = exact_cover_number(g, parse_class_spec(text))
        assert (res.value, res.stats.method) == (2, "bounds"), text
        assert (res.stats.family_size, res.stats.nodes) == (0, 0)
        assert check_certificate(g, res.certificate)
        assert len(res.certificate.parts) == 2


def test_bounds_settle_from_first_fit_without_omega_or_chi(monkeypatch):
    # far:1,2 is not bipartite and first fit colours it with 4 colours, so
    # 3 <= chi <= 4 and both bounds are 2: no clique search, no exact chi
    import covernum.solver

    def unused(*args):
        raise AssertionError("clique or chromatic number where first fit settles the bounds")

    for name in ("omega_of_rows", "chromatic_number"):
        monkeypatch.setattr(covernum.solver, name, unused)
    g = parse_family_spec("far:1,2")
    for text in ("perfect", "gsp", "co-unipolar"):
        res = exact_cover_number(g, parse_class_spec(text))
        assert (res.value, res.stats.method) == (2, "bounds"), text
        assert check_certificate(g, res.certificate)


def test_bounds_settle_from_the_exact_colouring_past_first_fit(monkeypatch):
    # first fit needs more than 4 colours on both hosts, so the bounds are
    # read from the exact chromatic number's colouring
    import covernum.solver

    calls = []
    chromatic_number = covernum.solver.chromatic_number

    def counted(g):
        calls.append(g)
        return chromatic_number(g)

    monkeypatch.setattr(covernum.solver, "chromatic_number", counted)
    # mycielski:5: 71 edges, past the budget; chi 5, omega 2, both bounds 3.
    # B4 in post-order, on which first fit takes 5 colours, plus a disjoint
    # C5: 20 edges; chi 3, omega 2, both bounds 2.
    hosts = ((parse_family_spec("mycielski:5"), 3),
             (parse_graph6("Tb?G?k??G??B????_??AJ?????G??G??C??H"), 2))
    assert [g.edge_count for g, _ in hosts] == [71, 20]
    for g, value in hosts:
        assert first_fit_coloring(g.n, g.rows).count > 4
        for text in ("perfect", "gsp", "co-unipolar"):
            calls.clear()
            res = exact_cover_number(g, parse_class_spec(text))
            assert (res.value, res.stats.method) == (value, "bounds"), text
            assert len(res.certificate.parts) == value
            assert check_certificate(g, res.certificate)
            assert calls == [g]


def test_formula_solve_reuses_the_host_tests_clique(monkeypatch):
    # the failed {chi <= f(omega)} host test already searched the maximum
    # clique, so the formula cover's digit layout does not search it again
    import covernum.covers
    import covernum.recognizers

    calls = []
    clique_number = covernum.recognizers.clique_number

    def counted(g, bound=None):
        calls.append(g)
        return clique_number(g, bound)

    def unused(*args):
        raise AssertionError("digit layout searched the clique again")

    monkeypatch.setattr(covernum.recognizers, "clique_number", counted)
    monkeypatch.setattr(covernum.covers, "clique_number", unused)
    for text in ("GWLAe_", "G_loAc", "GzcQlw"):
        g = parse_graph6(text)
        for spec_text in ("chi-eq-omega", "chi-le-f:identity"):
            calls.clear()
            spec = parse_class_spec(spec_text)
            res = exact_cover_number(g, spec)
            assert res.stats.method == "formula", (text, spec_text)
            assert res.certificate.parts and check_certificate(g, res.certificate)
            assert calls == [g], (text, spec_text)


def test_max_k_cap():
    g = complete(5)  # bipartite cover number is 3
    assert decide_cover(g, parse_class_spec("bipartite"), 2) is None
    cert = decide_cover(g, parse_class_spec("bipartite"), 3)
    assert cert is not None and len(cert.parts) == 3


def test_one_part_answers_no_on_every_non_member_before_any_bounds(monkeypatch):
    # every class holds the single-edge graph, so a host outside the class
    # needs two parts: saying so takes neither the exact chromatic number
    # of a digit layout nor the family sweep
    import covernum.solver

    def unused(*args):
        raise AssertionError("a one-part question reached the bounds or the sweep")

    for name in ("digit_layout", "family_maximal_masks"):
        monkeypatch.setattr(covernum.solver, name, unused)
    hosts = [g for n in range(6) for g in all_graphs(n)]
    hosts += [parse_graph6(text) for text in LADDER_HOSTS]
    for spec in SPECS:
        outside = [g for g in hosts if in_class(g, spec) is None]
        assert outside, spec
        for g in outside:
            assert decide_cover(g, spec, 1) is None, (spec, g)


def test_chi_le_1_has_no_usable_parts():
    # chi <= 1 admits only edgeless members, so no spec of it reaches a
    # solve: the constructor refuses it as the parser does
    for k in (0, 1):
        with pytest.raises(ValueError, match=r"^chi-le requires k >= 2$"):
            ClassSpec("chi-le", k=k)


def test_branch_and_bound_answers_no_under_the_cap():
    # unipolar cover number 3 by the structural sweep, counting bound 2:
    # under a cap of 2 the bounds settle nothing and branch and bound
    # finds no cover
    g = parse_graph6("LOA?CA???tYAIc")
    spec = parse_class_spec("unipolar")
    res = exact_cover_number(g, spec)
    assert (g.n, g.edge_count, res.value, res.stats.method) == (13, 16, 3, "structural")
    assert -(-g.edge_count // max_class_subgraph_size(g, spec)) <= 2
    assert decide_cover(g, spec, 2) is None
    assert check_certificate(g, decide_cover(g, spec, 3))


def test_table_f_past_its_end_takes_the_clique():
    # chi 4 is past the end of the table, so f is not known to be flat up
    # to chi and the digit base is f(omega) = f(2) = 3
    g = parse_family_spec("mycielski:4")
    spec = parse_class_spec("chi-le-f:table:2,3")
    res = exact_cover_number(g, spec)
    assert (res.value, res.stats.method) == (2, "formula")
    assert check_certificate(g, res.certificate)
    assert decide_cover(g, spec, 1) is None


def test_q3_unipolar_values():
    q3 = hypercube(3)
    spec = parse_class_spec("unipolar")
    assert max_class_subgraph_size(q3, spec) == 8 == unipolar_subgraph_bound(3)
    res = exact_cover_number(q3, spec)
    assert res.value == 2
    assert check_certificate(q3, res.certificate)
    assert decide_cover(q3, spec, 1) is None
    assert decide_cover(q3, spec, 3) is not None


def test_q3_is_co_unipolar_but_not_unipolar():
    q3 = hypercube(3)
    assert exact_cover_number(q3, parse_class_spec("co-unipolar")).value == 1
    assert exact_cover_number(q3, parse_class_spec("gsp")).value == 1


def test_q4_unipolar_subgraph_fallback():
    q4 = hypercube(4)  # 32 edges, beyond the subset budget
    spec = parse_class_spec("unipolar")
    assert max_class_subgraph_size(q4, spec) == 14 == unipolar_subgraph_bound(4)
    with pytest.raises(BudgetError):
        max_class_subgraph_size(q4, parse_class_spec("perfect"))


def _forbid_unipolar_best(monkeypatch):
    """Make the unipolar family's best fail the test if it is ever called."""
    from dataclasses import replace

    from covernum.recognizers import CLASSES

    def best(g, within):
        pytest.fail("the max-edge recursion ran past the budget gate")

    entry = CLASSES["unipolar"]
    monkeypatch.setitem(CLASSES, "unipolar", replace(entry, family=replace(entry.family, best=best)))


def test_unipolar_subgraph_size_past_the_edge_budget(monkeypatch):
    # every host here has more edges than the default budget of 22
    spec = parse_class_spec("unipolar")
    for text, most in (("cycle:23", 13), ("far:1,2", 18), ("complete:12", 66)):
        assert max_class_subgraph_size(parse_family_spec(text), spec) == most, text
    # past the budget, predicted work decides, before any recursion runs
    g = random_graphs(24, 1, 5)[0]
    assert unipolar_work(g, 1 << 62) > 1 << 25
    _forbid_unipolar_best(monkeypatch)
    with pytest.raises(BudgetError):
        max_class_subgraph_size(g, spec)


def test_unipolar_gate_rejects_dense_hosts_before_the_clique_walk(monkeypatch):
    # K_30 has 2^30 cliques; the vertex-set factor alone exceeds 2^22
    spec = parse_class_spec("unipolar")
    monkeypatch.setattr("covernum.structural._clique_sides", None)
    _forbid_unipolar_best(monkeypatch)
    for g in (complete(30), complete(64), random_graphs(48, 1, 3)[0]):
        with pytest.raises(BudgetError):
            max_class_subgraph_size(g, spec)


def test_unipolar_gate_takes_caps_past_sys_maxsize():
    # kKl(16, 4) has 96 edges; past a budget of 62 the cap 2^max_edges
    # divided by the vertex-set factor no longer fits a machine word
    g = kKl(16, 4)
    spec = parse_class_spec("unipolar")
    for max_edges in (22, 62, 80, 200):
        assert max_class_subgraph_size(g, spec, SolveBudget(max_edges=max_edges)) == 96


def test_unipolar_work_cap_is_exact_up_to_the_cap():
    hosts = [cycle(23), complete(8), hypercube(4), parse_family_spec("far:1,2")]
    hosts += random_graphs(12, 4, 9) + random_graphs(24, 1, 5)
    for g in hosts:
        work = unipolar_work(g, 1 << 62)
        for cap in (0, 1, work // 3, work - 1, work, work + 1, 1 << 22):
            capped = unipolar_work(g, cap)
            assert capped == work if work <= cap else capped > cap, (g, cap)


def test_unipolar_max_edges_matches_the_family():
    hosts = [g for n in range(6) for g in all_graphs(n)]
    hosts += [g for n in range(7, 11) for g in random_graphs(n, 12, 40 + n)]
    spec = parse_class_spec("unipolar")
    for g in hosts:
        most = max((mask.bit_count() for mask in unipolar_family(g)), default=0)
        assert max_class_subgraph_size(g, spec) == most, g


def test_unipolar_best_matches_the_family():
    # count: the most edges of within that a maximal member holds; mask: a
    # member holding that many.  Every labelled graph on up to 5 vertices,
    # every 6-vertex graph up to isomorphism, seeded 7- to 9-vertex hosts.
    import random

    import networkx as nx

    hosts = [g for n in range(6) for g in all_graphs(n)]
    hosts += [make_graph(6, a.edges()) for a in nx.graph_atlas_g() if a.number_of_nodes() == 6]
    hosts += [g for n in range(7, 10) for g in random_graphs(n, 16, 90 + n)]
    spec = parse_class_spec("unipolar")
    member = membership_fn(spec)
    rng = random.Random(16)
    for g in hosts:
        full = (1 << g.edge_count) - 1
        family = unipolar_family(g)
        assert unipolar_best(g, full)[0] == max_class_subgraph_size(g, spec), g
        for within in (full, rng.getrandbits(g.edge_count), rng.getrandbits(g.edge_count)):
            count, mask = unipolar_best(g, within)
            assert count == max((f & within).bit_count() for f in family), (g, within)
            assert (mask & within).bit_count() == count and mask & ~full == 0, (g, within)
            assert member(g.n, mask_rows(g, mask)), (g, within)


def test_unipolar_best_matches_the_per_set_recursion():
    # each vertex's cliques listed once and filtered per vertex set give
    # the same (count, mask), ties included, as generating them anew: every
    # labelled graph on up to 5 vertices, seeded 6- to 10-vertex hosts from
    # sparse to dense, within all edges or a random half of them
    import random

    rng = random.Random(26)
    hosts = [g for n in range(6) for g in all_graphs(n)]
    hosts += [gnp_graph(rng, rng.randint(6, 10), rng.random()) for _ in range(600)]
    for g in hosts:
        full = (1 << g.edge_count) - 1
        for within in (full, rng.getrandbits(g.edge_count)):
            assert unipolar_best(g, within) == per_set_unipolar_best(g, within), (g, within)


def test_greedy_covers_match_the_sweep():
    # every labelled graph on up to 6 vertices, seeded 7- to 9-vertex hosts
    # within the edge budget and seven disjoint claws, whose counting bound
    # is ceil(21 / (3 + 6)) = 3: the greedy meets it on every non-member
    spec = parse_class_spec("unipolar")
    hosts = [g for n in range(7) for g in all_graphs(n)]
    hosts += [g for n, count in ((7, 40), (8, 24), (9, 16)) for g in random_graphs(n, count, 90 + n)]
    hosts.append(make_graph(28, [(v, v + d) for v in range(0, 28, 4) for d in (1, 2, 3)]))
    settled = []
    for g in hosts:
        if g.edge_count > SolveBudget().max_edges:
            continue
        res = exact_cover_number(g, spec)
        if res.stats.method in ("", "host-member"):
            continue
        assert res.stats.method == "greedy", g
        assert (res.stats.family_size, res.stats.nodes) == (0, 0)
        assert res.value == sweep_cover_number(g, spec).value, g
        assert check_certificate(g, res.certificate)
        assert len(res.certificate.parts) == res.value
        assert decide_cover(g, spec, res.value - 1) is None
        settled.append(res.value)
    assert len(settled) > 4000 and max(settled) == 3


def test_greedy_keeps_the_edge_budget():
    spec = parse_class_spec("unipolar")
    with pytest.raises(BudgetError):
        exact_cover_number(parse_family_spec("cycle:23"), spec)
    with pytest.raises(BudgetError):
        exact_cover_number(hypercube(3), spec, SolveBudget(max_edges=11))
    # eleven disjoint P3s among 64 vertices; two disjoint P3s are already
    # not unipolar
    g = make_graph(64, [(v, v + d) for v in range(0, 33, 3) for d in (1, 2)])
    assert g.edge_count == 22 and in_class(g, spec) is None
    res = exact_cover_number(g, spec)
    assert (res.value, res.stats.method) == (2, "greedy")
    assert check_certificate(g, res.certificate)
    assert decide_cover(g, spec, 1) is None
    assert len(decide_cover(g, spec, 2).parts) == 2


def test_max_subgraph_size_within_budget():
    g = cycle(5)
    assert max_class_subgraph_size(g, parse_class_spec("bipartite")) == 4
    assert max_class_subgraph_size(make_graph(4, []), parse_class_spec("bipartite")) == 0


def test_partition_and_subset_routes_agree():
    # the two family generators must produce the same maximal members
    from covernum.recognizers import color_bound
    from covernum.solver import _partition_family, _subset_family

    for g in random_graphs(6, 10, 53) + random_graphs(5, 10, 59):
        active = [v for v in range(g.n) if g.rows[v]]
        for text in ("bipartite", "chi-le:2", "chi-le-f:identity", "chi-eq-omega"):
            spec = parse_class_spec(text)
            bound = color_bound(g, spec, len(active))
            assert bound is not None
            via_partitions = sorted(_partition_family(g, spec, bound, active))
            via_subsets = sorted(_subset_family(g, spec))
            assert via_partitions == via_subsets, (g, str(spec))


COLOURING_SPECS = SPECS[:5]


def test_partition_family_matches_its_oracle():
    from covernum.recognizers import color_bound
    from covernum.solver import _partition_family

    hosts = [g for n in range(6) for g in all_graphs(n)]
    hosts += random_graphs(6, 12, 83) + random_graphs(7, 8, 89) + random_graphs(8, 6, 97)
    for g in hosts:
        active = [v for v in range(g.n) if g.rows[v]]
        for spec in COLOURING_SPECS:
            bound = color_bound(g, spec, len(active))
            assert _partition_family(g, spec, bound, active) == \
                naive_partition_family(g, spec, bound, active), (g, str(spec))


def test_subset_family_matches_its_oracle():
    # 2^m membership tests per host and generator: every 5-vertex graph
    # under the cheapest test, the five specs on smaller and seeded hosts
    from covernum.solver import _subset_family

    bipartite = COLOURING_SPECS[0]
    for g in (g for n in range(6) for g in all_graphs(n)):
        assert _subset_family(g, bipartite) == naive_subset_family(g, bipartite), g
    hosts = [g for n in range(5) for g in all_graphs(n)]
    hosts += random_graphs(5, 12, 83) + random_graphs(6, 8, 89) + random_graphs(7, 4, 97)
    for g in hosts:
        for spec in COLOURING_SPECS:
            assert _subset_family(g, spec) == naive_subset_family(g, spec), (g, str(spec))


def _split_class_hosts():
    """Every graph on up to 6 vertices up to isomorphism, then random 7-
    and 8-vertex hosts whose 5 or 6 non-isolated vertices sit among
    isolated ones."""
    import random

    import networkx as nx

    hosts = [make_graph(a.number_of_nodes(), a.edges())
             for a in nx.graph_atlas_g() if a.number_of_nodes() <= 6]
    rng = random.Random(71)
    for n, k in ((7, 5), (8, 5), (8, 6)):
        for g in random_graphs(k, 8, 73 + n + k):
            place = rng.sample(range(n), k)
            hosts.append(make_graph(n, [(place[u], place[v]) for u, v in g.edges()]))
    return hosts


def test_structural_and_subset_routes_agree():
    # the structural families list exactly the subset sweep's masks, in order
    from covernum.recognizers import CLASSES
    from covernum.solver import _subset_family

    hosts = _split_class_hosts()
    assert sum(1 for g in hosts if g.n > 6 and not all(g.rows)) == 24
    for text in ("unipolar", "co-unipolar", "gsp"):
        spec = parse_class_spec(text)
        family = CLASSES[text].family
        for g in hosts:
            assert family.generate(g) == _subset_family(g, spec), (g, text)


def test_set_cover_keeps_within_the_cap():
    from covernum.solver import SolveStats, _min_set_cover

    # greedy takes the 4-element set first and needs 3 sets; 2 suffice
    sets = [0b011011, 0b000111, 0b111000]
    for cap in (None, 3, 2):
        assert _min_set_cover(0b111111, sets, cap, SolveStats()) == [1, 2], cap
    stats = SolveStats()
    assert _min_set_cover(0b111111, sets, 1, stats) is None
    assert stats.nodes == 1


def test_inclusion_maximal_sink():
    from covernum.structural import maximal_masks

    assert maximal_masks([]) == []
    assert maximal_masks([0, 0]) == [0]
    assert maximal_masks([0b011, 0b001, 0b110, 0b011, 0b100, 0]) == [0b011, 0b110]
    masks = [(i * 2654435761) % (1 << 12) for i in range(300)]
    expected = sorted({s for s in masks if not any(s != t and s & t == s for t in masks)})
    assert maximal_masks(masks) == expected


def test_route_choice_follows_predicted_work(monkeypatch):
    import random
    from dataclasses import replace

    from covernum.recognizers import CLASSES, Family
    from covernum.solver import _cheapest_route

    res = sweep_cover_number(parse_graph6("GzcQlw"), parse_class_spec("unipolar"))
    assert (res.value, res.stats.method) == (2, "structural")
    # co-unipolar costs 2^(non-isolated vertices): 15 random edges on 64
    # vertices touch far more than 15 vertices, so the sweep is cheaper
    pairs = random.Random(79).sample(list(combinations(range(64), 2)), 15)
    sparse = make_graph(64, pairs)
    assert sum(1 for row in sparse.rows if row) > 15
    for text in ("co-unipolar", "gsp"):
        assert _cheapest_route(sparse, parse_class_spec(text))[0] == "subset", text
    assert _cheapest_route(sparse, parse_class_spec("unipolar"))[0] == "structural"
    # structural work is predicted with cap 2^m; a cap of 2^62, past every
    # host's real work here, must pick the same route
    hosts = _split_class_hosts()
    for text in ("unipolar", "co-unipolar", "gsp"):
        spec = parse_class_spec(text)
        chosen = [_cheapest_route(g, spec)[0] for g in hosts]
        entry = CLASSES[text]
        wide = Family(entry.family.generate, lambda g, cap: entry.family.work(g, 1 << 62))
        with monkeypatch.context() as m:
            m.setitem(CLASSES, text, replace(entry, family=wide))
            assert [_cheapest_route(g, spec)[0] for g in hosts] == chosen, text
        assert {"structural", "subset"} <= set(chosen), text


def test_partition_filter_keeps_only_members():
    # Fj~mo (chi 5, omega 4): one partition candidate is a 15-edge
    # non-member (chi 4, omega 3), so the membership filter is needed
    g = parse_graph6("Fj~mo")
    for text in ("chi-le-f:identity", "chi-eq-omega"):
        spec = parse_class_spec(text)
        family = maximal_class_subgraphs(g, spec)
        assert len(family) == 15
        assert all(in_class(spanning_subgraph(g, p), spec) is not None for p in family)


def test_solver_stats_populated():
    res = exact_cover_number(cycle(5), parse_class_spec("bipartite"))
    assert res.stats.method == "formula"
    assert (res.stats.family_size, res.stats.nodes) == (0, 0)
    res = sweep_cover_number(hypercube(3), parse_class_spec("unipolar"))
    assert res.stats.method == "structural"
    assert res.stats.family_size > 0


def test_bounds_route_matches_sweep():
    hosts = [g for n in range(6) for g in all_graphs(n)]
    hosts += random_graphs(6, 40, 61) + random_graphs(7, 40, 67)
    for g in hosts:
        for spec in SPECS + [parse_class_spec("chi-le-f:plus:1")]:
            res = exact_cover_number(g, spec)
            assert res.value == sweep_cover_number(g, spec).value, (g, str(spec))
            assert check_certificate(g, res.certificate)
            assert len(res.certificate.parts) == res.value
            assert decide_cover(g, spec, res.value) is not None
            assert decide_cover(g, spec, res.value - 1) is None


def test_solve_meets_the_closed_forms_on_every_small_graph():
    # The formula and bounds covers read only which power-of-base range chi
    # lies in; values and methods must still be the closed forms of the
    # exact chi and omega (brute force).  Every labelled graph up to 5
    # vertices, and every 6-vertex graph up to isomorphism under the atlas
    # labelling and a seeded shuffle of it.
    import random

    import networkx as nx

    rng = random.Random(22)
    hosts = [g for n in range(6) for g in all_graphs(n)]
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() == 6:
            order = rng.sample(range(6), 6)
            hosts.append(make_graph(6, a.edges()))
            hosts.append(make_graph(6, [(order[u], order[v]) for u, v in a.edges()]))
    specs = [spec for spec in SPECS if spec.kind != "unipolar"]
    specs.append(parse_class_spec("chi-le-f:plus:1"))
    for g in hosts:
        chi, (omega, _) = brute_chromatic(g), brute_clique(g)
        for spec in specs:
            res = exact_cover_number(g, spec)
            assert check_certificate(g, res.certificate), (g, str(spec))
            got = (res.value, res.stats.method)
            f = class_f(spec)
            if g.edge_count == 0:
                assert got == (0, ""), (g, str(spec))
            elif f is not None:
                value = formula_chibound(chi, omega, f)
                assert got == (value, "host-member" if value == 1 else "formula"), (g, str(spec))
            elif in_class(g, spec) is not None:
                assert got == (1, "host-member"), (g, str(spec))
            else:
                lower, upper = max(2, ceil_log(omega, chi)), ceil_log(2, chi)
                if lower == upper:
                    assert got == (lower, "bounds"), (g, str(spec))
                else:
                    assert lower <= res.value <= upper, (g, str(spec))
                    assert res.stats.method in ("structural", "subset"), (g, str(spec))


def test_bounds_fall_back_to_the_sweep_where_they_differ():
    g = parse_graph6("Fj~mo")  # chi 5, omega 4: bounds 2 and 3
    for text, method in (("perfect", "subset"), ("gsp", "structural"),
                         ("co-unipolar", "structural")):
        res = exact_cover_number(g, parse_class_spec(text))
        assert res.stats.method == method, text
        assert res.value == 2
    # a sparse host on which the greedy unipolar cover takes 3 parts, one
    # more than the counting bound and the value
    g = make_graph(14, [(0, 8), (0, 13), (1, 13), (2, 5), (3, 12), (4, 9), (4, 12), (5, 6),
                        (5, 8), (7, 12), (9, 13), (10, 13)])
    res = exact_cover_number(g, parse_class_spec("unipolar"))
    assert (res.value, res.stats.method) == (2, "structural")


def test_solver_outputs_are_pinned():
    # One sha256 over the exact and sweep results and the decision one
    # below the value: any change to a value, method, family size, node
    # count, witness or part order changes it.
    import hashlib
    import json

    def result(res):
        return [res.value, res.stats.method, res.stats.family_size, res.stats.nodes,
                certificate_to_json(res.certificate)]

    hosts = [parse_graph6(text) for text in LADDER_HOSTS]
    hosts += [g for n in range(5) for g in all_graphs(n)]
    hosts += random_graphs(7, 20, 20261018)
    digest = hashlib.sha256()
    methods = set()
    for g in hosts:
        for spec in SPECS:
            exact, sweep = exact_cover_number(g, spec), sweep_cover_number(g, spec)
            below = decide_cover(g, spec, exact.value - 1)
            methods |= {exact.stats.method, sweep.stats.method}
            digest.update(json.dumps([result(exact), result(sweep),
                                      below and certificate_to_json(below)]).encode())
    assert {"host-member", "formula", "bounds", "greedy", "structural", "partition",
            "subset"} <= methods
    assert digest.hexdigest() == "275419d0265cc3371ba6d753520c999c03ca3e4de00c18cb46dac90e796253c3"
