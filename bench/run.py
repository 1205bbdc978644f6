"""covernum benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {ladder,corpus,hosts} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; covernum is imported from its src/.
One process, one closed-loop client: each request (parse graph6, one
public covernum call) starts when the previous one has been checked, and
only the call is timed.  Every lru_cache in covernum is cleared before
each request, so no request reuses a result computed for an earlier one.

--trace 0: whole passes over the request list repeat, at least
MIN_PASSES of them, until the next would end past --seconds.  Every time
is rescaled by the reference clock (reference.py) to a machine of fixed
speed, which cancels the slow spells of a shared host.  A request's time
is its rescaled median over the passes; the end-to-end metrics are
computed from those per-request times.  setup_s is the median over
SETUP_PROBES fresh interpreters of the time they take to import covernum
and build the request list, each rescaled by reference ticks taken in
that interpreter right before and after.

--trace 1: TRACE_PAIRS untraced and traced passes alternate; the first
traced pass gives the per-layer metrics (tracing.py), the medians of both
kinds give the tracing overhead, and the spans go to
.bench_out/trace-<workload>-<seed>.json.  The ladder's traced run also
solves the ROADMAP's baseline host once per class.

The last stdout line is the JSON result; lines before it are a readable
report.  Exit status 2 when the checkout has no covernum sources.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_PASSES = 5
TRACE_PAIRS = 3


@dataclass
class Pass:
    # request times as measured and, with a reference clock, rescaled;
    # arrays, so the harness's memory hardly grows with the pass count
    times: array = field(default_factory=lambda: array("d"))
    scaled: array = field(default_factory=lambda: array("d"))
    failures: Dict[int, str] = field(default_factory=dict)
    budget_errors: int = 0


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _setup_probe(args: argparse.Namespace) -> None:
    """In a fresh interpreter: import covernum and build the request list,
    between reference ticks taken for PROBE_WINDOW_S before and after;
    print the set-up time, measured and rescaled by those ticks."""
    from reference import PROBE_WINDOW_S, ReferenceClock

    clock = ReferenceClock()
    for _ in range(10):  # warm-up: the interpreter specialises the kernel
        clock.tick()
    clock.starts.clear()
    clock.times.clear()
    clock.tick_for(PROBE_WINDOW_S)
    start = perf_counter()
    import workloads
    workloads.build(args.workload, args.seed)
    seconds = perf_counter() - start
    clock.tick_for(PROBE_WINDOW_S)
    print(json.dumps([seconds, seconds * clock.mean_factor()]))


def _setup_seconds(args: argparse.Namespace) -> Tuple[List[float], List[float]]:
    """Set-up time of SETUP_PROBES fresh interpreters: as measured, and
    rescaled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    probes = []
    for _ in range(SETUP_PROBES):
        # no timeout: Popen.wait polls in steps of up to 50 ms when given one
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        probes.append(json.loads(out.splitlines()[-1]))
    return [raw for raw, _ in probes], [scaled for _, scaled in probes]


def run_pass(requests, prep, caches, checker, tracer=None, clock=None) -> Pass:
    """One pass over the requests; each answer is checked, outside the
    timed region, as soon as its request returns.  With a reference
    clock, a reference tick follows a request when one is due."""
    import covernum as cn
    from workloads import call, order_violations

    p = Pass()
    starts = array("d")
    values: Dict[int, int] = {}
    for i, req in enumerate(requests):
        for cache in caches:
            cache.cache_clear()
        start = perf_counter()
        starts.append(start)
        try:
            if tracer is None:
                out = call(req, prep)
            else:
                out = tracer.root(i, "bench.request", call, req, prep)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        p.times.append(perf_counter() - start)
        if clock is not None:
            clock.maybe_tick()
        if isinstance(out, Exception):
            p.budget_errors += isinstance(out, cn.BudgetError)
            p.failures[i] = f"{type(out).__name__}: {out}"
            continue
        try:
            why = checker.check(req, *out)
        except Exception as exc:  # a malformed answer fails its request
            why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            p.failures[i] = why
        elif req.op == "solve":
            values[i] = out[1].value
    for i, why in order_violations(requests, values):
        p.failures.setdefault(i, why)
    if clock is not None:
        p.scaled = array("d", map(clock.scale, starts, p.times))
    return p


def _caches() -> list:
    """Every lru_cache-wrapped function in covernum's modules."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "covernum" or name.startswith("covernum."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and obj not in found:
                    found.append(obj)
    return found


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "corpus", "hosts"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time importing covernum and building the request list (set-up probe)")
    args = ap.parse_args(argv)

    if not (SRC / "covernum" / "__init__.py").is_file():
        print(f"error: no covernum package under {SRC}; run from a covernum checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        _setup_probe(args)
        return 0
    import workloads
    from reference import NOMINAL_S, ReferenceClock
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    clock = ReferenceClock()
    setup_raw, setup = ([], []) if tracer else _setup_seconds(args)
    if tracer:
        wl = tracer.root("setup", "bench.setup", workloads.build, args.workload, args.seed,
                         tracer.gen)
    else:
        wl = workloads.build(args.workload, args.seed)
    reqs = [r for r in wl.requests if r.label != "baseline"]
    # the ROADMAP's baseline host takes ~9 s per solve sweep: traced runs only
    base_reqs = [r for r in wl.requests if r.label == "baseline"] if tracer else []
    prep = workloads.Prepared(wl.requests)
    caches = _caches()
    checker = workloads.Checker()
    gc.collect()
    gc.freeze()  # the harness's own objects stay out of covernum's collections

    passes: List[Pass] = []
    extra: List[Pass] = []  # traced passes, then the baseline-host pass
    if tracer:
        # untraced and traced passes alternate; the first traced pass gives
        # the per-layer figures, all of them the tracing overhead
        for k in range(TRACE_PAIRS):
            gc.collect()
            passes.append(run_pass(reqs, prep, caches, checker, clock=clock))
            gc.collect()
            t = tracer if k == 0 else Tracer()
            t.install()
            try:
                extra.append(run_pass(reqs, prep, caches, checker, t, clock))
            finally:
                t.uninstall()
        if base_reqs:
            extra.append(run_pass(base_reqs, prep, caches, checker))
    else:
        start = perf_counter()
        while True:
            gc.collect()
            passes.append(run_pass(reqs, prep, caches, checker, clock=clock))
            elapsed = perf_counter() - start
            if (len(passes) >= MIN_PASSES
                    and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                break

    runs = passes + extra
    attempted = sum(len(p.times) for p in runs)
    failed = sum(len(p.failures) for p in runs)
    # a request's time: the median over the passes of its rescaled times
    best = [statistics.median(p.scaled[i] for p in passes) for i in range(len(reqs))]
    raw = [statistics.median(p.times[i] for p in passes) for i in range(len(reqs))]
    ok = [i for i in range(len(reqs)) if not any(i in p.failures for p in passes)]

    say = print
    say(f"# workload {wl.name}  seed {wl.seed}  requests {len(wl.requests)}  "
        f"request list {wl.digest()}")
    say(f"# python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"COVERNUM_THREADS {os.environ.get('COVERNUM_THREADS', 'unset')}  commit {_commit()}")
    say(f"# passes {len(passes)} of {len(reqs)} requests"
        f"{f' + {TRACE_PAIRS} traced' if tracer else ''}"
        f"{' + baseline host' if base_reqs else ''}  attempted {attempted}  failed {failed}  "
        f"fail_share {failed / attempted:.6g}  "
        f"budget_errors {sum(p.budget_errors for p in runs)}")
    for p in runs:
        p_reqs = base_reqs if p is runs[-1] and base_reqs else reqs
        for i, why in list(p.failures.items())[:10]:
            r = p_reqs[i]
            say(f"# FAILED {r.op} {r.graph6} {r.cls}: {why}")
    if base_reqs:
        say(f"# baseline host {workloads.BASELINE_HOST} (ROADMAP's m=16 host), one solve each, s: "
            + "  ".join(f"{r.cls} {t:.4f}" for r, t in zip(base_reqs, extra[-1].times)))

    if tracer is None:
        values = {
            "throughput_per_s": (len(ok) / sum(best), "1/s"),
            "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for cls, key in workloads.CLASS_KEYS.items():
            values["class_s." + key] = (
                sum(t for r, t in zip(reqs, best) if r.cls == cls), "s")
        say(f"# latency samples {len(best)} (one per request); set-up probes (s) "
            + " ".join(f"{s:.3f}" for s in setup_raw) + " measured, "
            + " ".join(f"{s:.3f}" for s in setup) + " rescaled")
        say(f"# reference kernel median {clock.median() * 1e3:.4f} ms over {len(clock.times)} "
            f"ticks, nominal {NOMINAL_S * 1e3:.4f} ms; times below are rescaled to the nominal "
            f"speed. As measured: throughput_per_s {len(ok) / sum(raw):.6g}  latency_p50_ms "
            f"{statistics.median(raw) * 1e3:.6g}  latency_p90_ms "
            f"{statistics.quantiles(raw, n=10)[8] * 1e3:.6g}")
    else:
        values = tracer.layer_metrics(extra[0].budget_errors)
        plain_s = statistics.median(sum(p.scaled) for p in passes)
        traced_s = statistics.median(sum(p.scaled) for p in extra[:TRACE_PAIRS])
        values["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
        path = OUT_DIR / f"trace-{wl.name}-{wl.seed}.json"
        tracer.write(path, {"workload": wl.name, "seed": wl.seed, "request_list": wl.digest()})
        say(f"# tracing overhead {values['trace.overhead_pct'][0]:+.1f}% (median pass "
            f"{plain_s:.3f} s untraced, {traced_s:.3f} s traced, rescaled, {TRACE_PAIRS} each); "
            f"per-layer figures are for one traced pass; spans in {path.relative_to(ROOT)}")
        if tracer.missing:
            say("# hooks missing (layer figures read 0): " + " ".join(tracer.missing))
    metrics: Dict[str, Dict] = {}
    for name, (value, unit) in values.items():
        say(f"# {name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
