"""Spans around the calls into each covernum layer, made from outside src/.

`Tracer.install()` swaps module attributes (covernum.exact_cover_number,
covernum.solver.membership_fn, covernum.recognizers.k_colorable_rows, ...)
for wrappers that time each call.  A span records its name, start, end,
the span that caused it and the request it belongs to; a layer's self
time is its span's duration minus the time its child spans cover.

Calls that happen millions of times per pass (membership tests, k-coloring
searches, spanning subgraphs) are "hot": they are counted and timed with
the same parent/child accounting but kept as per-name totals instead of
one span each.  Everything stays in memory until `write()`.

Only calls made inside a request (or the setup span) are recorded, so the
answer checks that follow a pass leave no trace.
"""

from __future__ import annotations

import importlib
import itertools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from workloads import CLASS_KEYS, LADDER_CLASSES, materialised

SOLVER_SPANS = ("solver.exact_cover_number", "solver.decide_cover")

# (module, attribute, span name, kind).  kind: span | hot | member | family | stats
HOOKS = (
    ("covernum", "parse_graph6", "formats.parse_graph6", "span"),
    ("covernum", "exact_cover_number", "solver.exact_cover_number", "span"),
    ("covernum", "decide_cover", "solver.decide_cover", "span"),
    ("covernum.solver", "family_maximal_masks", "solver.family", "family"),
    ("covernum.solver", "membership_fn", "recognizers.member", "member"),
    ("covernum.solver", "SolveStats", "", "stats"),
    ("covernum.solver", "in_class", "recognizers.in_class", "span"),
    ("covernum.solver", "spanning_subgraph", "graphs.spanning_subgraph", "hot"),
    ("covernum", "in_class", "recognizers.in_class", "span"),
    ("covernum", "check_witness", "recognizers.check_witness", "span"),
    ("covernum", "is_perfect", "recognizers.is_perfect", "span"),
    ("covernum.recognizers", "is_perfect", "recognizers.is_perfect", "span"),
    ("covernum.recognizers", "clique_number", "invariants.clique_number", "span"),
    ("covernum.recognizers", "k_colorable_rows", "invariants.k_colorable_rows", "hot"),
    ("covernum", "chromatic_number", "invariants.chromatic_number", "span"),
    ("covernum", "clique_number", "invariants.clique_number", "span"),
    ("covernum.covers", "chromatic_number", "invariants.chromatic_number", "span"),
    ("covernum.covers", "clique_number", "invariants.clique_number", "span"),
    ("covernum.covers", "in_class", "recognizers.in_class", "span"),
    ("covernum.covers", "spanning_subgraph", "graphs.spanning_subgraph", "hot"),
    ("covernum", "bipartite_cover", "covers.construct", "span"),
    ("covernum", "chi_le_k_cover", "covers.construct", "span"),
    ("covernum", "chibound_cover", "covers.construct", "span"),
    ("covernum", "check_certificate", "covers.check_certificate", "span"),
)

MODULES = ("bench", "formats", "solver", "recognizers", "invariants", "graphs", "covers",
           "generators")


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id, request, name, start, end, seconds covered by children)
        self.spans: List[Tuple[int, int, object, str, float, float, float]] = []
        self.hot: Dict[str, List] = {}  # name -> [calls, total s, self s]
        self.routes: Dict[int, str] = {}  # solver span id -> family route
        self.family_size = 0
        self.stats: List[object] = []  # SolveStats made inside requests
        self.missing: List[str] = []  # hooks whose attribute no longer exists
        self._stack: List[List] = []  # open frames: [span id, child seconds]
        self._ids = itertools.count(1)
        self._request: object = None
        self._undo: List[Tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _run(self, name: str, hot: bool, fn: Callable, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            parent[1] += dur
            if hot:
                acc = self.hot.get(name)
                if acc is None:
                    acc = self.hot[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[1]
            else:
                self.spans.append((frame[0], parent[0], self._request, name, start, end,
                                   frame[1]))

    def root(self, request: object, name: str, fn: Callable, *args):
        """Run fn as the root span of one request (or of the set-up)."""
        self._request = request
        self._stack.append([0, 0.0])
        try:
            return self._run(name, False, fn, args, {})
        finally:
            self._stack.pop()

    def gen(self, fn: Callable, *args):
        """Set-up helper for workloads.build: a timed covernum generator call."""
        return self._run("generators." + fn.__name__, False, materialised, (fn,) + args, {})

    def _wrap(self, fn: Callable, name: str, hot: bool) -> Callable:
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            return self._run(name, hot, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, kind: str, name: str, orig):
        if kind in ("span", "hot"):
            return self._wrap(orig, name, kind == "hot")
        if kind == "member":
            def membership_fn(spec):
                key = CLASS_KEYS.get(str(spec), str(spec).replace(":", "-"))
                return self._wrap(orig(spec), f"{name}.{key}", True)
            return membership_fn
        if kind == "family":
            inner = self._wrap(orig, name, False)

            def family(*args, **kwargs):
                masks, route = inner(*args, **kwargs)
                if self._stack:
                    self.routes[self._stack[-1][0]] = route
                    self.family_size += len(masks)
                return masks, route
            return family
        tracer = self  # kind == "stats"

        class CountedStats(orig):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if tracer._stack:
                    tracer.stats.append(self)
        return CountedStats

    def install(self) -> None:
        for mod_name, attr, name, kind in HOOKS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self._hook(kind, name, orig))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    # --- results ----------------------------------------------------------

    def layer_metrics(self, budget_errors: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics over the requests traced (set-up excluded,
        except for generators.s)."""
        dur: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        name_of = {sid: name for sid, _, _, name, _, _, _ in self.spans}
        children: Dict[int, set] = defaultdict(set)
        certificate_s = 0.0
        for sid, pid, _, name, start, end, child in self.spans:
            if name == "bench.setup":
                continue
            dur[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
            children[pid].add(name)
            if name == "recognizers.in_class" and name_of.get(pid) in SOLVER_SPANS:
                certificate_s += end - start
        for name, (n, total, self_s) in self.hot.items():
            dur[name] += total
            own[name] += self_s
            calls[name] += n

        routes: Counter = Counter()
        for sid, _, _, name, _, _, _ in self.spans:
            if name in SOLVER_SPANS:
                if sid in self.routes:
                    routes[self.routes[sid]] += 1
                elif "recognizers.in_class" in children[sid]:
                    routes["host-member"] += 1

        member = [n for n in calls if n.startswith("recognizers.member.")]
        member_calls = sum(calls[n] for n in member)
        out: Dict[str, Tuple[float, str]] = {
            "recognizers.member_calls": (member_calls, "count"),
        }
        for cls in LADDER_CLASSES:
            n = "recognizers.member." + CLASS_KEYS[cls]
            mean = dur[n] / calls[n] * 1e6 if calls[n] else 0.0
            out["recognizers.member_us." + CLASS_KEYS[cls]] = (mean, "us")
        out.update({
            "recognizers.in_class_s": (dur["recognizers.in_class"], "s"),
            "recognizers.is_perfect_s": (dur["recognizers.is_perfect"], "s"),
            "recognizers.check_witness_s": (dur["recognizers.check_witness"], "s"),
            "solver.family_s": (dur["solver.family"], "s"),
            "solver.family_size": (self.family_size, "count"),
            "solver.route.subset": (routes["subset"], "count"),
            "solver.route.partition": (routes["partition"], "count"),
            "solver.route.host-member": (routes["host-member"], "count"),
            "solver.maximal_per_test": (
                self.family_size / member_calls if member_calls else 0.0, "ratio"),
            "solver.bnb_nodes": (sum(s.nodes for s in self.stats), "count"),
            "solver.setcover_s": (sum(own[n] for n in SOLVER_SPANS), "s"),
            "solver.certificate_s": (certificate_s, "s"),
            "solver.budget_errors": (budget_errors, "count"),
            "invariants.chromatic_s": (dur["invariants.chromatic_number"], "s"),
            "invariants.clique_s": (dur["invariants.clique_number"], "s"),
            "invariants.k_colorable_calls": (calls["invariants.k_colorable_rows"], "count"),
            "invariants.k_colorable_s": (dur["invariants.k_colorable_rows"], "s"),
            "covers.construct_s": (dur["covers.construct"], "s"),
            "covers.check_certificate_s": (dur["covers.check_certificate"], "s"),
            "graphs.spanning_subgraph_calls": (calls["graphs.spanning_subgraph"], "count"),
            "graphs.spanning_subgraph_s": (dur["graphs.spanning_subgraph"], "s"),
            "formats.parse_graph6_s": (dur["formats.parse_graph6"], "s"),
            "generators.s": (sum(s[5] - s[4] for s in self.spans
                                 if s[3].startswith("generators.")), "s"),
        })
        for mod in MODULES:
            out["self_s." + mod] = (sum(t for n, t in own.items()
                                        if n.split(".")[0] == mod), "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path: Path, header: Dict) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = dict(header)
        doc.update({
            "span_fields": ["id", "parent", "request", "name", "start_s", "end_s", "child_s"],
            "names": names,
            "spans": [[sid, pid, req, index[name], start - t0, end - t0, child]
                      for sid, pid, req, name, start, end, child in self.spans],
            "hot": {n: {"calls": c, "total_s": t, "self_s": s}
                    for n, (c, t, s) in sorted(self.hot.items())},
            "missing_hooks": self.missing,
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
