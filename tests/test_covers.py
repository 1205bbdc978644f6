import dataclasses
import pickle
import random

import pytest
from oracles import gnp_graph, naive_check_witness, per_edge_digit_cover, planted_bipartite_hosts

from covernum import (
    CapacityError,
    bipartite_cover,
    certificate_to_json,
    check_certificate,
    chi_le_k_cover,
    chibound_cover,
    chromatic_number,
    clique_number,
    complete,
    cycle,
    formula_biparticity,
    formula_chibound,
    hypercube,
    hypercube_direction_cover,
    hypercube_lower_bound,
    in_class,
    make_graph,
    parse_class_spec,
    parse_f_spec,
    parse_family_spec,
    parse_graph6,
    product_coloring,
    spanning_subgraph,
    unipolar_subgraph_bound,
)
from covernum.covers import (CoverCertificate, digit_cover, digit_layout, formula_cover,
                             witnessed_cover)
from covernum.generators import all_graphs, random_graphs, triangle_free_chromatic
from covernum.graphs import Graph, _rows_edge_set, full_edge_set
from covernum.invariants import (CliqueWitness, Coloring, bracket_coloring, check_coloring,
                                 first_fit_coloring)
from covernum.recognizers import CLASSES, class_f, identity_f


def test_formula_biparticity():
    assert formula_biparticity(0) == 0
    assert formula_biparticity(1) == 0
    assert formula_biparticity(2) == 1
    assert formula_biparticity(3) == 2
    assert formula_biparticity(4) == 2
    assert formula_biparticity(5) == 3
    assert formula_biparticity(17) == 5
    with pytest.raises(ValueError):
        formula_biparticity(-1)


def test_formula_chibound():
    ident = identity_f()
    assert formula_chibound(1, 1, ident) == 0
    assert formula_chibound(4, 2, ident) == 2
    assert formula_chibound(9, 3, ident) == 2
    assert formula_chibound(10, 3, ident) == 3
    assert formula_chibound(4, 2, parse_f_spec("plus:1")) == 2
    assert formula_chibound(5, 2, parse_f_spec("pow:2")) == 2
    with pytest.raises(ValueError):
        formula_chibound(2, 3, ident)  # omega above chi
    with pytest.raises(ValueError):
        formula_chibound(3, 2, parse_f_spec("const:1"))
    with pytest.raises(ValueError, match=r"^cover base f\(omega\)=1 is below 2, no cover exists$"):
        formula_chibound(3, 2, lambda w: 1)


def test_bipartite_cover_k4():
    cert = bipartite_cover(complete(4))
    assert len(cert.parts) == 2
    assert cert.formula == 2
    assert check_certificate(complete(4), cert)


def test_bipartite_cover_trivial_cases():
    assert len(bipartite_cover(make_graph(5, [])).parts) == 0
    assert len(bipartite_cover(cycle(6)).parts) == 1
    assert len(bipartite_cover(cycle(7)).parts) == 2


def test_chi_le_k_cover():
    g = complete(9)
    cert = chi_le_k_cover(g, 3)
    assert len(cert.parts) == 2
    assert check_certificate(g, cert)
    for host in (g, make_graph(3, [])):
        with pytest.raises(ValueError, match=r"^chi-le requires k >= 2$"):
            chi_le_k_cover(host, 1)


def test_chibound_cover_identity():
    c5 = cycle(5)
    cert = chibound_cover(c5, identity_f())
    assert len(cert.parts) == 2
    assert check_certificate(c5, cert)
    # complete graphs need one part: chi equals omega already
    cert = chibound_cover(complete(6), identity_f())
    assert len(cert.parts) == 1


def test_chibound_cover_preserves_clique_number():
    # each part must not exceed the host clique number, or the witness
    # f(omega) budget would silently loosen
    for g in random_graphs(8, 40, 23):
        omega = clique_number(g)[0]
        cert = chibound_cover(g, identity_f())
        for part in cert.parts:
            sub = spanning_subgraph(g, part)
            assert clique_number(sub)[0] <= omega
        assert check_certificate(g, cert)


def test_chibound_cover_const_form():
    g = complete(9)
    cert = chibound_cover(g, parse_f_spec("const:3"))
    assert len(cert.parts) == 2
    assert check_certificate(g, cert)
    with pytest.raises(ValueError):
        chibound_cover(g, parse_f_spec("const:1"))


def test_chibound_cover_rejects_shrinking_f():
    bad = parse_f_spec("plus:0")
    good_cert = chibound_cover(cycle(5), bad)  # plus:0 is identity
    assert check_certificate(cycle(5), good_cert)
    from covernum.recognizers import FSpec

    with pytest.raises(ValueError):
        chibound_cover(complete(3), FSpec("table", table=(1, 2, 2)))


def test_part_counts_match_formula():
    ident = identity_f()
    specs = [parse_class_spec(t) for t in (
        "bipartite", "chi-le:3", "chi-le-f:identity", "chi-le-f:plus:1",
        "chi-le-f:const:3", "chi-eq-omega")]
    for g in random_graphs(7, 60, 29):
        chi, _ = chromatic_number(g)
        omega, _ = clique_number(g)
        assert len(bipartite_cover(g).parts) == formula_biparticity(chi)
        assert len(chibound_cover(g, ident).parts) == formula_chibound(chi, omega, ident)
        for spec in specs:
            cert = formula_cover(g, spec)
            assert len(cert.parts) == formula_chibound(chi, omega, class_f(spec)), str(spec)
            assert check_certificate(g, cert), str(spec)
    with pytest.raises(ValueError, match=r"^class perfect is not of the form chi <= f\(omega\)$"):
        formula_cover(complete(3), parse_class_spec("perfect"))


def test_product_coloring_bipartite_parts():
    g = complete(4)
    cert = bipartite_cover(g)
    pairs = []
    for part, w in zip(cert.parts, cert.witnesses):
        side1 = set(w["sides"][1])
        colors = tuple(1 if v in side1 else 0 for v in range(g.n))
        pairs.append((part, Coloring(colors, 2)))
    combined = product_coloring(g, pairs)
    assert check_coloring(g, combined)
    assert combined.count <= 2 ** len(cert.parts)


def test_product_coloring_rejects_bad_parts():
    g = cycle(4)
    cert = bipartite_cover(g)
    part = cert.parts[0]
    with pytest.raises(ValueError, match=r"^part coloring is improper on edge \(0, 1\)$"):
        product_coloring(g, [(part, Coloring((0, 0, 0, 0), 1))])
    h = cycle(5)
    with pytest.raises(ValueError, match="^part edge set belongs to a different host graph$"):
        product_coloring(h, [(part, Coloring((0, 1, 0, 1, 0), 2))])
    with pytest.raises(ValueError, match="^part coloring has the wrong vertex count$"):
        product_coloring(g, [(part, Coloring((0, 1, 0), 2))])
    # proper part coloring but missing edges: one of K4's two bipartite parts
    k4 = complete(4)
    cert = bipartite_cover(k4)
    part, w = cert.parts[0], cert.witnesses[0]
    assert len(part) < k4.edge_count
    side1 = set(w["sides"][1])
    colors = tuple(1 if v in side1 else 0 for v in range(k4.n))
    with pytest.raises(ValueError, match="^parts do not cover every edge of the host$"):
        product_coloring(k4, [(part, Coloring(colors, 2))])


def test_hypercube_direction_cover():
    for d in range(7):
        cert = hypercube_direction_cover(d)
        q = hypercube(d)
        assert len(cert.parts) == d
        assert check_certificate(q, cert)
        seen = 0
        for part in cert.parts:
            assert len(part) == 2 ** (d - 1) if d else len(part) == 0
            assert seen & part.bits == 0
            seen |= part.bits
        assert seen == full_edge_set(q).bits
    with pytest.raises(CapacityError):
        hypercube_direction_cover(7)


def test_unipolar_subgraph_bound_values():
    assert unipolar_subgraph_bound(1) == 1
    assert unipolar_subgraph_bound(2) == 4
    assert unipolar_subgraph_bound(3) == 8
    assert unipolar_subgraph_bound(4) == 14
    assert unipolar_subgraph_bound(8) == 142
    with pytest.raises(ValueError):
        unipolar_subgraph_bound(0)


def test_hypercube_lower_bound_values():
    assert [hypercube_lower_bound(d) for d in range(3, 10)] == [2, 3, 4, 5, 6, 8, 9]
    for d in range(8, 63):
        assert hypercube_lower_bound(d) == d
    for d in range(3, 8):
        assert hypercube_lower_bound(d) < d
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        hypercube_lower_bound(0)


def test_check_certificate_rejects_bad():
    g = complete(4)
    cert = bipartite_cover(g)
    assert not check_certificate(cycle(4), cert)  # wrong host
    dropped = CoverCertificate(g, cert.spec, cert.parts[:1], cert.witnesses[:1], 1)
    assert not check_certificate(g, dropped)  # union misses edges
    lying = CoverCertificate(g, cert.spec, cert.parts, cert.witnesses, 3)
    assert not check_certificate(g, lying)  # formula disagrees with parts
    # a non-member part: whole K4 claimed bipartite
    fake = CoverCertificate(
        g, cert.spec, (full_edge_set(g),), (in_class(g, parse_class_spec("chi-le:4")),), 1
    )
    assert not check_certificate(g, fake)
    # a part whose host is another graph
    foreign = bipartite_cover(cycle(4)).parts[0]
    mixed = CoverCertificate(g, cert.spec, (foreign,) + cert.parts[1:], cert.witnesses, 2)
    assert not check_certificate(g, mixed)
    # valid parts, but one stored coloring puts both ends of an edge in one color
    cert = chi_le_k_cover(g, 2)
    assert check_certificate(g, cert)
    u, v = cert.parts[0].edges()[0]
    colors = list(cert.witnesses[0]["coloring"])
    colors[v] = colors[u]
    bad = dict(cert.witnesses[0], coloring=colors)
    corrupted = CoverCertificate(g, cert.spec, cert.parts, (bad,) + cert.witnesses[1:], 2)
    assert not check_certificate(g, corrupted)


def test_certificate_json_shape():
    cert = bipartite_cover(cycle(5))
    js = certificate_to_json(cert)
    assert js["class"] == "bipartite"
    assert js["formula"] == 2
    assert len(js["parts"]) == 2
    assert all(isinstance(e, list) and len(e) == 2 for p in js["parts"] for e in p)
    assert len(js["witnesses"]) == 2


def test_chibound_cover_on_triangle_free_towers():
    ident = identity_f()
    for c in (2, 3, 4):
        g = triangle_free_chromatic(c)
        cert = chibound_cover(g, ident)
        assert len(cert.parts) == formula_chibound(c, 2, ident)
        assert check_certificate(g, cert)


DIGIT_FORMULA_SPECS = [parse_class_spec(t) for t in (
    "bipartite", "chi-le:2", "chi-le:3", "chi-le:4", "chi-le-f:identity", "chi-le-f:plus:1",
    "chi-le-f:pow:2", "chi-le-f:const:2", "chi-le-f:const:3", "chi-le-f:table:2,3,3,4,5,6",
    "chi-eq-omega",
)]
DIGIT_BOUNDS_SPECS = [parse_class_spec(t) for t in ("perfect", "co-unipolar", "gsp")]


def _digit_covers(g):
    """(spec, cert) for each formula cover of g and each base-2 digit cover
    the bounds route builds for the classes that hold every bipartite graph."""
    omega = clique_number(g)[0]
    for spec in DIGIT_FORMULA_SPECS:
        table = spec.f.table if spec.f else ()
        if not table or omega <= len(table):  # a table f is undefined past its end
            yield spec, formula_cover(g, spec)
    coloring = chromatic_number(g)[1]
    for spec in DIGIT_BOUNDS_SPECS:
        yield spec, digit_cover(g, spec, coloring, 2, ())


def _flip_digit(part, witness):
    """The witness with one endpoint of the part's lowest edge moved to
    the other endpoint's digit, or None where it carries no digits."""
    u, v = part.edges()[0]
    if "coloring" in witness:
        colors = list(witness["coloring"])
        colors[u] = colors[v]
        return dict(witness, coloring=colors)
    sides = witness.get("sides") or (
        witness.get("clique_side") is not None
        and [witness["clique_side"], witness["clusters"][0]])
    if not sides:
        return None
    to = 0 if v in sides[0] else 1
    moved = [[w for w in side if w != u] for side in sides]
    moved[to] = sorted(moved[to] + [u])
    if "sides" in witness:
        return dict(witness, sides=moved)
    return dict(witness, clique_side=moved[0], clusters=[moved[1]])


def test_digit_witnesses_pass_the_checks():
    # Every formula and base-2 digit cover is checked, matches the parts
    # that witnessed_cover builds from its masks (so each part is a member
    # by the class's own search), and loses its certificate when a part's
    # witness has one vertex's digit flipped or, where the colours used
    # then exceed f of the smaller clique, a clique vertex dropped.
    hosts = [g for n in range(2, 6) for g in all_graphs(n) if g.edge_count]
    hosts += [g for n in (9, 12) for g in random_graphs(n, 40, 20261019 + n)]
    hosts += [parse_family_spec(t) for t in (
        "complete:7", "cycle:7", "hypercube:3", "kkl:2,4", "mycielski:4", "far:1,2")]
    dropped = 0
    for g in hosts:
        for spec, cert in _digit_covers(g):
            assert check_certificate(g, cert), (g, str(spec))
            masks = [p.bits for p in cert.parts]
            assert witnessed_cover(g, spec, masks).parts == cert.parts, (g, str(spec))
            for i, (part, witness) in enumerate(zip(cert.parts, cert.witnesses)):
                sub = spanning_subgraph(g, part)
                if spec.kind != "perfect":
                    assert naive_check_witness(sub, spec, witness), (g, str(spec))
                mutated = [_flip_digit(part, witness)]
                clique = witness.get("clique")
                if clique and len(set(witness["coloring"])) > class_f(spec)(len(clique) - 1):
                    mutated.append(dict(witness, clique=clique[1:]))
                    dropped += 1
                for bad in mutated:
                    if bad is None:
                        continue
                    wits = cert.witnesses[:i] + (bad,) + cert.witnesses[i + 1:]
                    forged = CoverCertificate(g, spec, cert.parts, wits, cert.formula)
                    assert not check_certificate(g, forged), (g, str(spec), bad)
    assert dropped


def test_digit_cover_matches_the_per_edge_oracle():
    # Parts built as rows from colour-class masks equal the parts of the
    # per-edge comparison of digit strings, and so do their witnesses:
    # plain digits, where a flat f's clique is each part's lowest edge, and
    # a clique's constant strings.  Each colouring has as many digits as
    # chi needs in its base, as digit_layout's does.  On six vertices only
    # covers of two or more parts are compared; a one-part cover is the
    # whole host, as on the smaller and the seeded hosts.
    # Every class that declares a digit witness is compared too, with the
    # base and clique the solver gives it: a colouring class's digit_layout,
    # base 2 and no clique for the others; on every host but the 32,767 on
    # six vertices, which the bases of the const specs already sweep.
    rng = random.Random(2426)
    hosts = [g for n in range(7) for g in all_graphs(n) if g.edge_count]
    hosts += planted_bipartite_hosts(2427, 10)
    hosts += [gnp_graph(rng, rng.randint(7, 64), rng.uniform(0.05, 0.9)) for _ in range(30)]
    hosts += [parse_family_spec(t) for t in (
        "mycielski:4", "mycielski:5", "complete:9", "kkl:3,5", "far:1,2", "multipartite:3,3,3,3")]
    specs = {base: parse_class_spec(f"chi-le-f:const:{base}") for base in (2, 3, 4)}
    laid_out = [parse_class_spec(t) for t in
                ("bipartite", "chi-le:3", "chi-le-f:identity", "chi-eq-omega")]
    base_two = [parse_class_spec(t) for t in ("perfect", "co-unipolar", "gsp")]
    assert ({spec.kind for spec in laid_out + base_two}
            == {kind for kind, entry in CLASSES.items() if entry.digit_witness})
    for g in hosts:
        # on up to six vertices the exact colouring, fewest digits in every base
        coloring = chromatic_number(g)[1] if g.n <= 6 else None
        clique = clique_number(g)[1].vertices
        for base, spec in specs.items():
            if g.n > 6:
                coloring = bracket_coloring(g.n, g.rows, base, 1, first_fit_coloring(g.n, g.rows))
            elif g.n == 6 and coloring.count <= base:
                continue
            for cl in ((), clique[:base]):
                want = per_edge_digit_cover(g, spec, coloring, base, cl)
                assert digit_cover(g, spec, coloring, base, cl) == want, (g, base, cl)
        if g.n == 6:
            continue
        layouts = [(spec, digit_layout(g, spec)) for spec in laid_out]
        two = coloring if g.n < 6 else bracket_coloring(
            g.n, g.rows, 2, 1, first_fit_coloring(g.n, g.rows))
        layouts += [(spec, (two, 2, ())) for spec in base_two]
        for spec, layout in layouts:
            want = per_edge_digit_cover(g, spec, *layout)
            assert digit_cover(g, spec, *layout) == want, (g, str(spec))
    # a base past a C ssize_t: digit classes are keyed by the digit
    g = parse_family_spec("mycielski:4")
    coloring = chromatic_number(g)[1]
    for base in (2 ** 63, 4 ** 40):
        spec = parse_class_spec(f"chi-le:{base}")
        for cl in ((), (0, 1)):
            got = digit_cover(g, spec, coloring, base, cl)
            assert got.formula == 1 and check_certificate(g, got)
            assert got == per_edge_digit_cover(g, spec, coloring, base, cl)


def test_digit_cover_with_more_digits_than_chi_needs():
    # A colouring count past base**(t-1) >= chi leaves a part with no
    # edge; its witness is still checked: a flat f's clique is vertex 0.
    g = make_graph(3, [(0, 1)])
    coloring = Coloring((0, 1, 0), 4)
    for text in ("bipartite", "chi-le:3", "chi-le-f:const:2", "co-unipolar"):
        cert = digit_cover(g, parse_class_spec(text), coloring, 2, ())
        assert [len(p) for p in cert.parts] == [1, 0], text
        assert check_certificate(g, cert), text
    cert = digit_cover(g, parse_class_spec("chi-le-f:const:2"), coloring, 2, ())
    assert [w["clique"] for w in cert.witnesses] == [[0, 1], [0]]


def test_check_certificate_rejects_mutated_row_parts():
    # Digit cover parts are held as rows; the check still catches a part
    # missing one edge that no other part holds, a part whose host is
    # another graph with the same rows for that part, and two parts'
    # witnesses swapped.
    hosts = [complete(n) for n in (5, 7, 9)]
    hosts += [parse_family_spec(t) for t in ("mycielski:4", "mycielski:5", "far:1,2")]
    specs = [parse_class_spec(t) for t in ("bipartite", "chi-le:3", "chi-eq-omega")]
    seen = {"dropped": 0, "foreign": 0, "swapped": 0}
    for g in hosts:
        for spec in specs:
            cert = formula_cover(g, spec)
            assert check_certificate(g, cert)
            parts, wits = cert.parts, cert.witnesses

            def forged(new_parts=parts, new_wits=wits):
                return CoverCertificate(g, spec, tuple(new_parts), tuple(new_wits), cert.formula)

            for i, part in enumerate(parts):
                others = [p.rows for j, p in enumerate(parts) if j != i]
                only = [(u, v) for u, v in part.edges() if not any(r[u] >> v & 1 for r in others)]
                if only:
                    u, v = only[len(only) // 2]
                    rows = list(part.rows)
                    rows[u] &= ~(1 << v)
                    rows[v] &= ~(1 << u)
                    dropped = _rows_edge_set(g, tuple(rows))
                    assert not check_certificate(g, forged(parts[:i] + (dropped,) + parts[i + 1:]))
                    seen["dropped"] += 1
                # another host that holds the part's edges, one edge short
                outside = [(u, v) for u, v in g.edges() if not part.rows[u] >> v & 1]
                if outside:
                    u, v = outside[0]
                    rows = list(g.rows)
                    rows[u] &= ~(1 << v)
                    rows[v] &= ~(1 << u)
                    foreign = _rows_edge_set(Graph(g.n, rows), part.rows)
                    assert not check_certificate(g, forged(parts[:i] + (foreign,) + parts[i + 1:]))
                    seen["foreign"] += 1
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    if wits[i] != wits[j]:
                        swapped = list(wits)
                        swapped[i], swapped[j] = wits[j], wits[i]
                        assert not check_certificate(g, forged(new_wits=swapped)), (g, spec, i, j)
                        seen["swapped"] += 1
    assert all(seen.values()), seen


def test_value_types_stay_frozen_values():
    # Certificates, colourings, cliques and derived graphs write their
    # fields in one go; they must still refuse assignment, compare, hash,
    # replace, pickle and print as frozen dataclasses do.
    g = parse_graph6("Dhc")  # C5
    assert g.edge_count == 5  # cached in the instance dict, outside every comparison
    cert = formula_cover(g, parse_class_spec("bipartite"))
    coloring = first_fit_coloring(g.n, g.rows)
    clique = clique_number(g)[1]
    edgeless = CoverCertificate(make_graph(2, []), parse_class_spec("bipartite"), (), (), 0)
    values = [
        (cert, CoverCertificate(host=g, spec=cert.spec, parts=cert.parts,
                                witnesses=cert.witnesses, formula=2),
         "CoverCertificate(host=Graph(n=5, rows=(18, 5, 10, 20, 9)), spec=ClassSpec("
         "kind='bipartite', k=0, f=None), parts=(EdgeSet(host=Graph(n=5, rows=(18, 5, 10, "
         "20, 9)), bits=29), EdgeSet(host=Graph(n=5, rows=(18, 5, 10, 20, 9)), bits=18)), "
         "witnesses=({'class': 'bipartite', 'sides': [[0, 2, 4], [1, 3]]}, {'class': "
         "'bipartite', 'sides': [[0, 1, 2, 3], [4]]}), formula=2)"),
        (edgeless, CoverCertificate(host=make_graph(2, []), spec=parse_class_spec("bipartite"),
                                    parts=(), witnesses=(), formula=0),
         "CoverCertificate(host=Graph(n=2, rows=(0, 0)), spec=ClassSpec(kind='bipartite', "
         "k=0, f=None), parts=(), witnesses=(), formula=0)"),
        (coloring, Coloring(colors=(0, 1, 0, 1, 2), count=3),
         "Coloring(colors=(0, 1, 0, 1, 2), count=3)"),
        (clique, CliqueWitness(vertices=(0, 1), size=2), "CliqueWitness(vertices=(0, 1), size=2)"),
        (g, Graph(n=5, rows=(18, 5, 10, 20, 9)), "Graph(n=5, rows=(18, 5, 10, 20, 9))"),
    ]

    for value, twin, text in values:
        first = dataclasses.fields(value)[0].name
        for name in (first, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
        assert value == twin and hash(value) == hash(twin), text
        assert len({value, twin}) == 1, text
        assert dataclasses.replace(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        assert repr(value) == repr(twin) == text
    # a certificate's witnesses are dicts: compared, but left out of its hash
    other = dataclasses.replace(cert, witnesses=cert.witnesses[::-1])
    assert other != cert and hash(other) == hash(cert)
    assert dataclasses.replace(coloring, count=4) == Coloring((0, 1, 0, 1, 2), 4)
