"""Acceptance gate: nine criteria, one printed pass/fail line each.

Every check is exact equality against the independent oracle or a frozen
closed form.  Lines print with capture disabled so they always show.
"""

import hashlib
import json
import time

import pytest

from covernum import (
    bipartite_cover,
    check_certificate,
    chibound_cover,
    chromatic_number,
    clique_number,
    complete,
    exact_cover_number,
    formula_biparticity,
    formula_chibound,
    is_co_unipolar,
    is_perfect,
    is_unipolar,
    kKl,
    parse_class_spec,
    parse_f_spec,
    product_coloring,
)
from covernum.generators import all_graphs, random_graphs, triangle_free_chromatic
from covernum.invariants import Coloring
from covernum.recognizers import identity_f
from covernum.verify import DEFAULT_SEED, _far3_grid, suite_chain, suite_chibound, suite_gaps
from oracles import naive_perfect, naive_unipolar


@pytest.fixture
def report_line(capsys):
    def _line(num, ok, detail, started):
        status = "PASS" if ok else "FAIL"
        elapsed = time.monotonic() - started
        with capsys.disabled():
            print(f"criterion {num}: {status} ({elapsed:.1f}s) - {detail}", flush=True)

    return _line


def _sha256(report):
    """Digest of the report as `covernum verify` prints it."""
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


# the chibound report at its defaults, which criteria 1 and 2 both read
CHIBOUND_SHA256 = "9bab9b999e17aee78260cea66f7681df9874a2bd7a43668ffacb157a7e9fc0bc"


def test_criterion_1_biparticity_formula(report_line):
    t0 = time.monotonic()
    report = suite_chibound(n_max=7, samples=200, seed=DEFAULT_SEED)
    # every failure listed, so a bipartite one cannot hide past the cap
    bipartite = [f for f in report["failures"] if f["class"] == "bipartite"]
    ok = ("bipartite" in report["params"]["classes"] and report["instances"] >= 1024 + 400
          and not bipartite and len(report["failures"]) == report["failures_total"])
    report_line(1, ok, f"bipartite oracle = ceil(log2 chi) on {report['instances']} graphs", t0)
    assert ok, (bipartite or report["failures"])[:5]
    assert _sha256(report) == CHIBOUND_SHA256


def test_criterion_2_coloring_bound_formulas(report_line):
    t0 = time.monotonic()
    report = suite_chibound(n_max=7, samples=200, seed=DEFAULT_SEED)
    ok = report["passed"] and set(report["params"]["classes"]) == {
        "bipartite", "chi-le:2", "chi-le:3", "chi-le-f:identity", "chi-le-f:plus:1",
    }
    report_line(2, ok, f"coloring-bound oracles match formulas on {report['instances']} graphs", t0)
    assert ok, report["failures"][:5]
    assert _sha256(report) == CHIBOUND_SHA256


def _witness_coloring(g, witness):
    if "coloring" in witness:
        colors = witness["coloring"]
        return Coloring(tuple(colors), max(colors) + 1 if colors else 0)
    side1 = set(witness["sides"][1])
    return Coloring(tuple(1 if v in side1 else 0 for v in range(g.n)), 2)


def test_criterion_3_constructive_certificates(report_line):
    t0 = time.monotonic()
    fs = [identity_f(), parse_f_spec("plus:1"), parse_f_spec("pow:2")]
    checked = 0
    failures = []
    for n in range(4, 17):
        count = 39 if n - 4 < 6 else 38
        for g in random_graphs(n, count, DEFAULT_SEED + n):
            checked += 1
            chi, _ = chromatic_number(g)
            omega, _ = clique_number(g)
            cert = bipartite_cover(g)
            if len(cert.parts) != formula_biparticity(chi) or not check_certificate(g, cert):
                failures.append((n, "bipartite"))
            pairs = [(p, _witness_coloring(g, w)) for p, w in zip(cert.parts, cert.witnesses)]
            if g.edge_count:
                combined = product_coloring(g, pairs)
                if combined.count > 2 ** len(cert.parts):
                    failures.append((n, "bipartite product"))
            for f in fs:
                cert = chibound_cover(g, f)
                expected = formula_chibound(chi, omega, f)
                if len(cert.parts) != expected or not check_certificate(g, cert):
                    failures.append((n, str(f)))
                    continue
                if not g.edge_count:
                    continue
                pairs = [(p, _witness_coloring(g, w)) for p, w in zip(cert.parts, cert.witnesses)]
                combined = product_coloring(g, pairs)
                if combined.count > f(omega) ** len(cert.parts):
                    failures.append((n, str(f), "product"))
    ok = checked == 500 and not failures
    report_line(3, ok, f"constructions certify on {checked} graphs up to 16 vertices", t0)
    assert ok, failures[:5]


def test_criterion_4_cover_number_chain(report_line):
    t0 = time.monotonic()
    report = suite_chain(n_max=6, samples=100, seed=DEFAULT_SEED)
    ok = report["passed"] and report["instances"] == 1200
    report_line(4, ok, f"five-class chain ordered with pinned ends on {report['instances']} graphs", t0)
    assert ok, report["failures"][:5]
    assert _sha256(report) == "586baaf62b579613ccc348e7cc6d9708ec90c6172e73c83aac586a0567f1056d"


def test_criterion_5_hypercube_bounds(report_line):
    t0 = time.monotonic()
    report = suite_gaps()
    ok = report["passed"]
    report_line(5, ok, "kKl co-unipolar covers; direction covers valid for d <= 6; Q3 max 8; "
                       "integer bound sweep to 62", t0)
    assert ok, report["failures"]
    assert _sha256(report) == "ba12ad5993f8e972666ac7711c1c93c1d1b08a3fc6520b3df8a9bf67fa8071ef"


def test_criterion_6_disjoint_complete_covers(report_line):
    t0 = time.monotonic()
    res = exact_cover_number(kKl(2, 4), parse_class_spec("co-unipolar"))
    ok = res.value == 2
    gsp = parse_class_spec("gsp")
    for k, l in _far3_grid():
        g = kKl(k, l)
        if is_unipolar(g) is None or exact_cover_number(g, gsp).value != 1:
            ok = False
    report_line(6, ok, "oracle gives 2 for two disjoint K4; every kKl is one unipolar part", t0)
    assert ok


def test_criterion_7_complete_graph_covers(report_line):
    t0 = time.monotonic()
    ok = all(is_co_unipolar(complete(n)) is not None for n in range(2, 13))
    ok = ok and exact_cover_number(complete(4), parse_class_spec("co-unipolar")).value == 1
    ok = ok and exact_cover_number(complete(4), parse_class_spec("bipartite")).value == 2
    report_line(7, ok, "complete graphs: co-unipolar in one part, bipartite needs two", t0)
    assert ok


def test_criterion_8_recognizer_soundness(report_line):
    t0 = time.monotonic()
    uni_bad = perf_bad = 0
    for n in range(7):
        for g in all_graphs(n):
            if (is_unipolar(g) is not None) != naive_unipolar(g):
                uni_bad += 1
            if is_perfect(g)[0] != naive_perfect(g):
                perf_bad += 1
    for g in random_graphs(8, 100, DEFAULT_SEED + 8):
        if is_perfect(g)[0] != naive_perfect(g):
            perf_bad += 1
    ok = uni_bad == 0 and perf_bad == 0
    report_line(8, ok, "recognizers agree with naive oracles on all graphs up to 6 vertices", t0)
    assert ok, (uni_bad, perf_bad)


def test_criterion_9_generator_properties(report_line):
    t0 = time.monotonic()
    failures = []
    for c in (2, 3, 4, 5):
        g = triangle_free_chromatic(c)
        if clique_number(g)[0] != 2 or chromatic_number(g)[0] != c:
            failures.append(c)
    ok = not failures
    report_line(9, ok, "triangle-free towers hit omega 2 and chi 2..5 exactly", t0)
    assert ok, failures
