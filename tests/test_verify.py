import concurrent.futures
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from covernum import verify
from covernum.covers import hypercube_direction_cover
from covernum.verify import (
    DEFAULT_SEED,
    SUITES,
    corpus_graphs,
    run_suite,
    suite_arithmetic,
    suite_chain,
    suite_far3,
    suite_hhm,
    suite_hypercube,
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


def test_corpus_is_seeded():
    assert corpus_graphs(6, 5, 1) == corpus_graphs(6, 5, 1)
    assert corpus_graphs(6, 5, 1) != corpus_graphs(6, 5, 2)


def test_suite_registry():
    assert set(SUITES) == {
        "hhm", "chibound", "chain", "far3", "hypercube", "arithmetic", "inclusion",
    }
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_run_suite_passes_params():
    report = run_suite("hhm", n_max=3, samples=0, seed=9)
    assert report["suite"] == "hhm"
    assert report["params"] == {"n_max": 3, "samples": 0, "seed": 9}
    assert report["instances"] == 12
    assert report["passed"] is True


def test_far3_rejects_corpus_params():
    # the grid is fixed: neither corpus parameter is read, workers is
    for params in ({"n_max": 3}, {"samples": 7}, {"n_max": 3, "samples": 7}):
        unread = ", ".join(params)
        with pytest.raises(ValueError, match=f"^suite far3 does not read {unread}$"):
            run_suite("far3", **params)
    assert run_suite("far3", seed=DEFAULT_SEED, workers=2) == suite_far3()


def test_hypercube_rejects_samples():
    with pytest.raises(ValueError, match="^suite hypercube does not read samples$"):
        run_suite("hypercube", n_max=3, samples=7)
    report = run_suite("hypercube", n_max=3, workers=2)
    assert report["params"] == {"d_max": 3, "seed": DEFAULT_SEED}


def test_arithmetic_rejects_samples():
    with pytest.raises(ValueError, match="^suite arithmetic does not read samples$"):
        run_suite("arithmetic", samples=0)
    report = run_suite("arithmetic", n_max=10, seed=4, workers=2)
    assert report["params"] == {"d_min": 3, "d_max": 10, "seed": 4}


def test_reports_are_deterministic():
    a = suite_hhm(n_max=4, samples=0)
    b = suite_hhm(n_max=4, samples=0)
    assert a == b


def test_workers_do_not_change_reports():
    serial = suite_hhm(n_max=4, samples=0, workers=1)
    parallel = suite_hhm(n_max=4, samples=0, workers=2)
    assert serial == parallel
    serial = suite_inclusion(n_max=4, samples=0, workers=1)
    parallel = suite_inclusion(n_max=4, samples=0, workers=2)
    assert serial == parallel


def test_pool_is_capped_at_items_and_cpus(monkeypatch):
    # A stand-in pool that records its size and maps in this process, so
    # no worker process is ever started.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return list(map(fn, items))

    # _pool_map imports the pool class at call time, from here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    assert verify._pool_map(abs, [-1, -2, -3], 1000) == [1, 2, 3]
    assert verify._pool_map(abs, list(range(-50, 0)), 1000) == list(range(50, 0, -1))
    assert verify._pool_map(abs, list(range(-50, 0)), 2) == list(range(50, 0, -1))
    assert sizes == [3, 4, 2]
    assert verify._pool_map(abs, [-1], 1000) == [1]
    assert suite_hhm(n_max=4, samples=0, workers=1000) == suite_hhm(n_max=4, samples=0)
    assert sizes == [3, 4, 2, 4]
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert verify._pool_map(abs, [-1, -2, -3], 1000) == [1, 2, 3]
    assert sizes == [3, 4, 2, 4]


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
    report = suite_arithmetic()
    assert report["passed"]
    assert report["instances"] == 60
    assert report["params"]["d_max"] == 62
    assert _sha256(report) == "72ff0830436e41817d5838d7b009e505215341ac2754c858af0fc32e25e62a4a"


def test_inclusion_suite_default_report():
    report = suite_inclusion()
    assert report["passed"]
    assert _sha256(report) == "31dba76cf621904003db1b94c70665476457d7552c0ba6016f6f4f702505840a"


def test_hypercube_suite_records():
    report = suite_hypercube(n_max=4)
    assert report["passed"]
    by_d = {r["d"]: r for r in report["records"] if "parts" in r}
    assert by_d[4]["parts"] == 4
    assert by_d[4]["part_sizes"] == [8, 8, 8, 8]
    bound_rec = [r for r in report["records"] if "max_unipolar_edges" in r]
    assert bound_rec == [{"d": 3, "max_unipolar_edges": 8, "bound": 8}]


def test_far3_suite_asserts_powers_of_two():
    report = suite_far3()
    assert report["passed"]
    recs = {(r["k"], r["l"]): r for r in report["records"]}
    assert recs[(2, 4)]["computed"] == 2
    assert recs[(2, 4)]["asserted"] is True
    assert recs[(1, 4)]["computed"] == 1
    for (k, l), r in recs.items():
        assert r["asserted"] == (l & (l - 1) == 0)
        if not r["asserted"]:
            assert r["expected"] is None
    assert _sha256(report) == "73c229f8a79a7a142004922f525bd7d7c588d34a260d90e0a3fd0156c60b3514"


def test_chain_suite_small():
    report = suite_chain(n_max=4, samples=0)
    assert report["passed"]
    assert report["instances"] == 76


def test_failure_reports_carry_instances():
    # a passing run: no failures, and the report's keys
    report = suite_hhm(n_max=3, samples=0)
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


CORPUS_RECORD = ("graph", "class", "chi", "omega", "expected", "computed")

# suite, its parameters, the verify names patched to answer wrongly, then
# failures_total and the keys of every failure record
WRONG_ANSWERS = [
    ("hhm", {"n_max": 3, "samples": 0}, {"sweep_cover_number": _answering(lambda t: 7)},
     12, [CORPUS_RECORD]),
    ("chibound", {"n_max": 3, "samples": 0}, {"sweep_cover_number": _answering(lambda t: 7)},
     48, [CORPUS_RECORD]),
    # chi-eq-omega above perfect breaks the order, and both ends miss
    ("chain", {"n_max": 3, "samples": 0},
     {"sweep_cover_number": _answering(lambda t: {"chi-eq-omega": 3, "bipartite": 5}.get(t, 2))},
     36, [("graph", "kind", "values"), ("graph", "kind", "expected", "computed")]),
    ("far3", {}, {"sweep_cover_number": _answering(lambda t: 0)},
     10, [("k", "l", "expected", "computed")]),
    ("hypercube", {"n_max": 3},
     {"hypercube_direction_cover": _doubled_direction_cover,
      "max_class_subgraph_size": lambda g, spec: 0},
     4, [("d", "parts", "part_sizes"), ("d", "max_unipolar_edges", "bound")]),
    ("arithmetic", {"n_max": 8}, {"hypercube_lower_bound": lambda d: d + 1},
     6, [("d", "lower_bound")]),
    # perfect needs more parts than gsp, its subclass
    ("inclusion", {"n_max": 3, "samples": 0},
     {"sweep_cover_number": _answering(lambda t: int(t == "perfect"))},
     12, [("graph", "subclass", "superclass", "subclass_value", "superclass_value")]),
]


@pytest.mark.parametrize("name, params, patches, total, keys", WRONG_ANSWERS,
                         ids=[case[0] for case in WRONG_ANSWERS])
def test_suites_report_wrong_answers(monkeypatch, name, params, patches, total, keys):
    for attr, fake in patches.items():
        monkeypatch.setattr(verify, attr, fake)
    report = run_suite(name, **params)
    assert report["passed"] is False
    assert report["failures_total"] == total
    assert len(report["failures"]) == min(total, verify.MAX_FAILURES_KEPT)
    assert {tuple(f) for f in report["failures"]} == set(keys)


def test_cross_checks_sweep_instead_of_reading_the_formulas(monkeypatch):
    import covernum.covers
    import covernum.solver
    import covernum.verify
    from covernum.verify import suite_chibound

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
