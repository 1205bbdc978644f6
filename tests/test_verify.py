import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import oracles
import pytest

from covernum import verify
from covernum.covers import hypercube_direction_cover
from covernum.verify import (
    CHIBOUND_CLASSES,
    SUITES,
    corpus_graphs,
    run_suite,
    suite_chain,
    suite_chibound,
    suite_gaps,
    suite_inclusion,
)


def _sha256(report):
    """Digest of the report as `covernum verify` prints it."""
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def test_corpus_counts():
    assert len(corpus_graphs(3, 0, 1)) == 1 + 1 + 2 + 8
    assert len(corpus_graphs(5, 10, 1)) == 1100
    got = corpus_graphs(6, 10, 1)
    assert len(got) == 1110
    assert all(g.n == 6 for g in got[-10:])
    assert corpus_graphs(0, 0, 1) == corpus_graphs(0, 5, 1) != []


def test_corpus_rejects_negative_sizes():
    # a negative size would check nothing, or fewer graphs than asked, and pass
    for n_max, samples in ((-1, 0), (6, -3), (-2, -1)):
        msg = f"^corpus sizes must be >= 0, got n_max {n_max}, samples {samples}$"
        with pytest.raises(ValueError, match=msg):
            corpus_graphs(n_max, samples, 1)
        for name in ("chibound", "chain", "inclusion"):
            with pytest.raises(ValueError, match=msg):
                run_suite(name, n_max=n_max, samples=samples)


def test_corpus_is_seeded():
    assert corpus_graphs(6, 5, 1) == corpus_graphs(6, 5, 1)
    assert corpus_graphs(6, 5, 1) != corpus_graphs(6, 5, 2)


def test_suite_registry():
    assert set(SUITES) == {"chibound", "chain", "inclusion", "gaps"}
    for name in ("nonsense", "hhm", "far3", "hypercube", "arithmetic"):
        with pytest.raises(ValueError, match=f"^unknown suite '{name}'"):
            run_suite(name)


def test_run_suite_passes_params():
    report = run_suite("chibound", n_max=3, samples=0, seed=9)
    assert report["suite"] == "chibound"
    assert report["params"] == {"n_max": 3, "samples": 0, "seed": 9,
                                "classes": list(CHIBOUND_CLASSES)}
    assert report["instances"] == 12
    assert report["passed"] is True


def test_far3_rejects_corpus_params():
    # gaps holds far3's fixed grid: no corpus parameter is read
    for params in ({"n_max": 3}, {"samples": 7}, {"seed": 5}, {"n_max": 3, "samples": 7}):
        unread = ", ".join(params)
        with pytest.raises(ValueError, match=f"^suite gaps does not read {unread}$"):
            run_suite("gaps", **params)
    assert run_suite("gaps") == suite_gaps()


def test_hypercube_rejects_samples():
    # gaps' direction covers stop at Q_6 whatever n_max, once hypercube's d_max, says
    with pytest.raises(ValueError, match="^suite gaps does not read n_max, samples$"):
        run_suite("gaps", n_max=3, samples=7)
    report = run_suite("gaps")
    assert max(r["d"] for r in report["records"] if "parts" in r) == 6


def test_arithmetic_rejects_samples():
    # gaps' Q_d rows run to 62 whatever n_max, once arithmetic's d_max, says
    with pytest.raises(ValueError, match="^suite gaps does not read samples$"):
        run_suite("gaps", samples=0)
    with pytest.raises(ValueError, match="^suite gaps does not read n_max$"):
        run_suite("gaps", n_max=10)
    report = run_suite("gaps")
    assert report["params"]["d_max"] == 62
    assert max(r["d"] for r in report["records"] if "lower_bound" in r) == 62


def test_reports_are_deterministic():
    a = suite_chibound(n_max=4, samples=0)
    b = suite_chibound(n_max=4, samples=0)
    assert a == b


def test_import_loads_no_process_pool():
    # -S: a bare interpreter, so no site hook can load these first
    src = os.path.dirname(os.path.dirname(verify.__file__))
    code = ("import sys, covernum, covernum.cli; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing', 'logging') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60,
                          check=True)
    assert proc.stdout == "[]\n"


def test_arithmetic_suite_sweep():
    # gaps' Q_d rows: the counting bound equals d exactly when d >= 8
    report = suite_gaps()
    assert report["passed"]
    assert report["params"]["d_max"] == 62
    bounds = {r["d"]: r["lower_bound"] for r in report["records"] if "lower_bound" in r}
    assert list(bounds) == list(range(1, 63))
    assert [bounds[d] for d in range(1, 10)] == [1, 1, 2, 3, 4, 5, 6, 8, 9]
    assert all(bounds[d] == d for d in range(8, 63))


def test_inclusion_suite_default_report():
    report = suite_inclusion()
    assert report["passed"]
    assert _sha256(report) == "31dba76cf621904003db1b94c70665476457d7552c0ba6016f6f4f702505840a"


def test_hypercube_suite_records():
    # gaps' direction covers of Q_1..Q_6 and the Q_3 subgraph bound
    report = suite_gaps()
    assert report["passed"]
    by_d = {r["d"]: r for r in report["records"] if "parts" in r}
    assert sorted(by_d) == [1, 2, 3, 4, 5, 6]
    assert by_d[4]["parts"] == 4
    assert by_d[4]["part_sizes"] == [8, 8, 8, 8]
    assert all(r["valid"] for r in by_d.values())
    bound_rec = [r for r in report["records"] if "max_unipolar_edges" in r]
    assert bound_rec == [{"d": 3, "max_unipolar_edges": 8, "bound": 8}]


def test_far3_suite_asserts_powers_of_two():
    # gaps' rows for k disjoint K_l
    report = suite_gaps()
    assert report["passed"]
    recs = {(r["k"], r["l"]): r for r in report["records"] if "k" in r}
    assert sorted(recs) == sorted(map(tuple, report["params"]["grid"]))
    assert recs[(2, 4)]["computed"] == 2
    assert recs[(2, 4)]["asserted"] is True
    assert recs[(1, 4)]["computed"] == 1
    for (k, l), r in recs.items():
        assert r["asserted"] == (l & (l - 1) == 0)
        if not r["asserted"]:
            assert r["expected"] is None


def test_chain_suite_small():
    report = suite_chain(n_max=4, samples=0)
    assert report["passed"]
    assert report["instances"] == 76


def test_failure_reports_carry_instances():
    # a passing run: no failures, and the report's keys
    report = suite_chibound(n_max=3, samples=0)
    assert report["failures"] == []
    assert report["failures_total"] == 0
    assert set(report) == {
        "suite", "params", "instances", "failures", "failures_total", "passed",
    }


def _answering(value_of):
    """A sweep_cover_number that answers value_of(class text) on any host."""
    return lambda g, spec: SimpleNamespace(value=value_of(str(spec)))


def _doubled_direction_cover(d):
    """Q_d's direction cover with every part twice: overlapping, 2d parts."""
    cert = hypercube_direction_cover(d)
    return dataclasses.replace(cert, parts=cert.parts * 2)


def _answering_for(text, value):
    """A sweep_cover_number that answers value for class `text` only."""
    sweep = verify.sweep_cover_number
    return lambda g, spec: (SimpleNamespace(value=value) if str(spec) == text
                            else sweep(g, spec))


CORPUS_RECORD = ("graph", "class", "chi", "omega", "expected", "computed")

# case id, suite, its parameters, the verify names patched to answer
# wrongly, then failures_total and the keys of every failure record; the
# gaps cases are named for the rows their fault breaks
WRONG_ANSWERS = [
    # hhm's check is chibound's bipartite row: only it answers wrongly
    ("hhm", "chibound", {"n_max": 3, "samples": 0},
     {"sweep_cover_number": _answering_for("bipartite", 7)}, 12, [CORPUS_RECORD]),
    ("chibound", "chibound", {"n_max": 3, "samples": 0},
     {"sweep_cover_number": _answering(lambda t: 7)}, 60, [CORPUS_RECORD]),
    # chi-eq-omega above perfect breaks the order, and both ends miss
    ("chain", "chain", {"n_max": 3, "samples": 0},
     {"sweep_cover_number": _answering(lambda t: {"chi-eq-omega": 3, "bipartite": 5}.get(t, 2))},
     36, [("graph", "kind", "values"), ("graph", "kind", "expected", "computed")]),
    ("far3", "gaps", {}, {"sweep_cover_number": _answering(lambda t: 0)},
     10, [("k", "l", "expected", "computed")]),
    ("hypercube", "gaps", {},
     {"hypercube_direction_cover": _doubled_direction_cover,
      "max_class_subgraph_size": lambda g, spec: 0},
     7, [("d", "parts", "part_sizes"), ("d", "max_unipolar_edges", "bound")]),
    ("arithmetic", "gaps", {}, {"hypercube_lower_bound": lambda d: d + 1},
     60, [("d", "lower_bound")]),
    # perfect needs more parts than gsp, its subclass
    ("inclusion", "inclusion", {"n_max": 3, "samples": 0},
     {"sweep_cover_number": _answering(lambda t: int(t == "perfect"))},
     12, [("graph", "subclass", "superclass", "subclass_value", "superclass_value")]),
]


@pytest.mark.parametrize("name, params, patches, total, keys",
                         [case[1:] for case in WRONG_ANSWERS],
                         ids=[case[0] for case in WRONG_ANSWERS])
def test_suites_report_wrong_answers(monkeypatch, name, params, patches, total, keys):
    for attr, fake in patches.items():
        monkeypatch.setattr(verify, attr, fake)
    report = run_suite(name, **params)
    assert report["passed"] is False
    assert report["failures_total"] == total
    assert len(report["failures"]) == report["failures_total"]
    assert {tuple(f) for f in report["failures"]} == set(keys)


# fault name, the names patched in verify and in the oracles, then the
# failures_total the gaps suite reports under it
MERGE_FAULTS = [
    ("none", {}, 0),
    ("sweep-0", {"sweep_cover_number": _answering(lambda t: 0)}, 10),
    ("sweep-7", {"sweep_cover_number": _answering(lambda t: 7)}, 10),
    ("cover", {"hypercube_direction_cover": _doubled_direction_cover,
               "max_class_subgraph_size": lambda g, spec: 0}, 7),
    ("bound", {"hypercube_lower_bound": lambda d: d + 1}, 60),
]


@pytest.mark.parametrize("patches, gaps_total", [case[1:] for case in MERGE_FAULTS],
                         ids=[case[0] for case in MERGE_FAULTS])
def test_merged_suites_keep_every_assertion(monkeypatch, patches, gaps_total):
    # chibound's bipartite row and the gaps suite against the four suites
    # they replaced, at default parameters; reports list every failure, so
    # the lists are compared whole
    for attr, fake in patches.items():
        monkeypatch.setattr(verify, attr, fake)
        monkeypatch.setattr(oracles, attr, fake)
    hhm = oracles.suite_hhm()
    chibound = suite_chibound()
    assert chibound["params"] == {**hhm["params"], "classes": list(CHIBOUND_CLASSES)}
    assert chibound["instances"] == hhm["instances"]
    assert len(chibound["failures"]) == chibound["failures_total"]
    assert [f for f in chibound["failures"] if f["class"] == "bipartite"] == hhm["failures"]
    assert hhm["passed"] == ("sweep_cover_number" not in patches)

    far3 = oracles.suite_far3()
    cube = oracles.suite_hypercube(n_max=6)
    arith = oracles.suite_arithmetic(n_max=62)
    gaps = suite_gaps()
    covers = {r["d"]: r for r in cube["records"] if "parts" in r}
    q3 = [r for r in cube["records"] if "max_unipolar_edges" in r]
    rows = [{"d": d, "lower_bound": verify.hypercube_lower_bound(d), **covers.get(d, {})}
            for d in range(1, 63)]
    assert gaps["records"] == far3["records"] + rows + q3
    assert gaps["failures"] == far3["failures"] + cube["failures"] + arith["failures"]
    assert len(gaps["failures"]) == gaps["failures_total"] == gaps_total
    assert gaps["instances"] == far3["instances"] + 62 + len(q3)


def test_cross_checks_sweep_instead_of_reading_the_formulas(monkeypatch):
    import covernum.covers
    import covernum.solver
    import covernum.verify

    calls = {"sweep": 0, "formula": 0}
    sweep = covernum.verify.sweep_cover_number

    def counted_sweep(*args, **kwargs):
        calls["sweep"] += 1
        return sweep(*args, **kwargs)

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["formula"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(covernum.verify, "sweep_cover_number", counted_sweep)
    # the bounds step reaches the formula cover only through the solver's two
    for mod, name in ((covernum.solver, "digit_layout"), (covernum.solver, "digit_cover"),
                      (covernum.covers, "formula_cover")):
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    for suite in (suite_chibound, suite_chain):
        calls.update(sweep=0, formula=0)
        report = suite(n_max=4)
        assert report["passed"]
        assert calls["sweep"] >= report["instances"] > 0
        assert calls["formula"] == 0
