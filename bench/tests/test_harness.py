"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import covernum as cn  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_S, ReferenceClock, kernel  # noqa: E402
from tracing import HOOKS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("recognizers.member_calls", "solver.family_size", "solver.bnb_nodes",
          "solver.route.subset", "solver.route.partition", "solver.route.host-member",
          "invariants.k_colorable_calls", "graphs.spanning_subgraph_calls", "trace.spans")


def _sample(name: str, seed: int = 7):
    """A cheap slice of a workload: every route, a few hundred requests."""
    reqs = [r for r in workloads.build(name, seed).requests if r.label != "baseline"]
    if name == "corpus":
        return reqs[::30]
    cheap = {"ladder": ("unipolar", "bipartite", "gsp"), "hosts": ("bipartite", "chi-le:3",
                                                                    "chi-le-f:identity")}
    return [r for r in reqs if r.cls in cheap[name] and r.graph6 != workloads.BASELINE_HOST]


def _pass(reqs, tracer=None):
    return run.run_pass(reqs, workloads.Prepared(reqs), run._caches(), workloads.Checker(),
                        tracer)


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", ["ladder", "corpus", "hosts"])
def test_unmutated_answers_pass(name):
    p = _pass(_sample(name))
    assert p.failures == {}


@pytest.mark.parametrize("name", ["ladder", "corpus"])
def test_value_plus_one_is_caught(name, monkeypatch):
    orig = cn.exact_cover_number

    def lying(g, spec, budget=cn.SolveBudget()):
        r = orig(g, spec, budget)
        return cn.SolveResult(r.value + 1, r.certificate, r.stats)

    monkeypatch.setattr(cn, "exact_cover_number", lying)
    reqs = [r for r in _sample(name) if r.op == "solve"]
    p = _pass(reqs)
    assert len(p.failures) == len(reqs)  # fail_share = 1


@pytest.mark.parametrize("name", ["ladder", "corpus"])
def test_dropped_part_is_caught(name, monkeypatch):
    orig = cn.exact_cover_number

    def dropping(g, spec, budget=cn.SolveBudget()):
        r = orig(g, spec, budget)
        c = r.certificate
        if not c.parts:
            return r
        cert = cn.CoverCertificate(c.host, c.spec, c.parts[:-1], c.witnesses[:-1],
                                   len(c.parts) - 1)
        return cn.SolveResult(len(cert.parts), cert, r.stats)

    monkeypatch.setattr(cn, "exact_cover_number", dropping)
    reqs = [r for r in _sample(name) if r.op == "solve"]
    p = _pass(reqs)
    edged = [i for i, r in enumerate(reqs) if cn.parse_graph6(r.graph6).edge_count]
    assert edged and all(i in p.failures for i in edged)


def test_dropped_cover_part_is_caught(monkeypatch):
    orig = cn.bipartite_cover

    def dropping(g):
        c = orig(g)
        return cn.CoverCertificate(c.host, c.spec, c.parts[:-1], c.witnesses[:-1],
                                   len(c.parts) - 1)

    monkeypatch.setattr(cn, "bipartite_cover", dropping)
    reqs = [r for r in _sample("hosts") if r.op == "cover" and r.cls == "bipartite"]
    assert reqs and len(_pass(reqs).failures) == len(reqs)


def test_traced_counts_repeat_exactly():
    reqs = _sample("ladder") + _sample("corpus")
    figures = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            p = _pass(reqs, tracer)
        finally:
            tracer.uninstall()
        assert p.failures == {}
        figures.append({k: v for k, (v, _) in tracer.layer_metrics(0).items() if k in COUNTS})
    assert figures[0] == figures[1]
    assert all(figures[0][k] > 0 for k in COUNTS)


def test_reference_clock_rescales_by_nearby_ticks():
    clock = ReferenceClock()
    # kernel at nominal speed up to t=1 s, at half speed from t=2 s
    clock.starts = [0.1 * i for i in range(10)] + [2 + 0.1 * i for i in range(10)]
    clock.times = [NOMINAL_S] * 10 + [2 * NOMINAL_S] * 10
    assert clock.scale(0.5, 0.01) == pytest.approx(0.01)
    assert clock.scale(2.5, 0.01) == pytest.approx(0.005)
    # a span across the change meets both speeds
    assert clock.scale(0.95, 1.0) == pytest.approx(2 / 3)


def test_reference_kernel_is_fixed_work():
    assert kernel() == kernel()


def test_tracer_restores_every_hook():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in HOOKS}
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in before.items())


@pytest.mark.parametrize("name", ["ladder", "corpus", "hosts"])
def test_request_lists_are_seeded(name):
    a, b, c = (workloads.build(name, s) for s in (3, 3, 4))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_cli_reports_every_declared_metric():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run_cli("--workload", "hosts", "--seed", "2", "--seconds", "1", "--trace", trace)
        assert out.returncode == 0, out.stderr
        res = json.loads(out.stdout.splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run_cli("--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
