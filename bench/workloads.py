"""Request lists for the three workloads, how to run one request, and how
to check its answer.

A request is (op, graph6, class, budget, k, expectation).  Every request
starts from a graph6 string, as the CLI and the verify suites do, and
calls one public covernum operation.

Host structures are fixed (drawn once from constant seeds, or named
families); the workload seed relabels their vertices.  So each seed sends
covernum different inputs, but the work per pass hardly depends on the
seed -- a seed that happened to draw a few hard hosts would otherwise move
every metric more than the changes the benchmark is meant to catch.
`Workload.digest` hashes the request list so runs can show which inputs
they used.

Why each workload exists:

* ladder -- exact cover numbers on non-member hosts, one strand per
  class.  The four subset-route classes (perfect, unipolar, co-unipolar,
  gsp) spend their time in the 2^m sweep of membership tests; the dense
  bipartite and chi-le:3 hosts in partition families and branch and
  bound (K9); chi-le-f and chi-eq-omega in membership-filtered partition
  sweeps.
* corpus -- every distinct (graph, class) solve of the default hhm,
  chibound, chain and inclusion suites: ~13k sub-millisecond requests
  where per-call overhead, the host-member shortcut and certificates
  dominate.
* hosts -- one whole-graph operation per relabelled 12-64 vertex host: exact
  colorings, single recognitions with witness checks, constructive
  covers.  The solver does no work here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import covernum as cn

PINS_PATH = Path(__file__).resolve().parent / "data" / "ladder_pins.json"

# Seed of every fixed host structure: the verify suites' DEFAULT_SEED.
STRUCTURE_SEED = 20260816

# First 16-edge graph of random_graphs(8, 50, 7): the host ROADMAP quotes
# single-run baselines on.  Solved once per traced ladder run.
BASELINE_HOST = "GzcQlw"

SUBSET_CLASSES = ("perfect", "unipolar", "co-unipolar", "gsp")
LADDER_CLASSES = ("bipartite", "chi-le:3", "chi-le-f:identity", "chi-eq-omega") + SUBSET_CLASSES

# Subset-route hosts: 8 vertices, pinned answers (pin_ladder.py).  Hosts
# per edge count; 2^m fixes the sweep size.  The decide request takes one
# more 10-edge host.
LADDER_POOL_SEED = 20261017
SUBSET_DRAW = {
    "perfect": {10: 4, 11: 2},
    "unipolar": {10: 6, 11: 4, 12: 2},
    "co-unipolar": {10: 4, 11: 3},
    "gsp": {10: 6, 11: 3},
}

# Dense strand: fixed families (name, class) solved with the edge budget
# raised to the host's edge count.  K9 is the branch-and-bound stressor.
DENSE_FIXED = (
    ("complete:9", "bipartite"),
    ("complete:8", "bipartite"),
    ("multipartite:3,3,2,2", "bipartite"),
    ("multipartite:2,2,2,2,1", "bipartite"),
    ("complete:8", "chi-le:3"),
    ("multipartite:2,2,2,2", "chi-le:3"),
    ("multipartite:3,2,2,2", "chi-le:3"),
)
# Random 9-vertex non-members: class -> (count, edges)
DENSE_RANDOM = {"bipartite": (36, 24), "chi-le:3": (8, 23)}
# chi-le-f:identity and chi-eq-omega: 9-vertex non-members with 16 edges,
# clique number 3 and no isolated vertex, so the partition route sweeps
# the same 3025 partitions on every host.
CHIBOUND_RANDOM = 5

# Class spec text -> metric key (':' is not allowed in metric names).
CLASS_KEYS = {cls: cls.replace(":", "-") for cls in LADDER_CLASSES}

# Corpus: the default parameters of the suites it mirrors.
CORPUS_SUITES = (
    # (n_max, samples, classes)
    (7, 200, ("bipartite",)),                                            # hhm
    (7, 200, ("chi-le:2", "chi-le:3", "chi-le-f:identity", "chi-le-f:plus:1")),  # chibound
    (6, 100, ("chi-eq-omega", "perfect", "gsp", "co-unipolar", "bipartite")),    # chain
    (5, 25, ("bipartite", "co-unipolar", "gsp", "unipolar", "perfect",
             "chi-eq-omega", "chi-le:3", "chi-le:2")),                    # inclusion
)
# (subclass, superclass): the subclass never has the smaller cover number.
# The chain order chi-eq-omega <= perfect <= gsp <= co-unipolar <= bipartite
# plus the inclusion suite's pairs.
ORDER_PAIRS = (
    ("perfect", "chi-eq-omega"),
    ("gsp", "perfect"),
    ("co-unipolar", "gsp"),
    ("bipartite", "co-unipolar"),
    ("unipolar", "gsp"),
    ("bipartite", "chi-le:3"),
    ("chi-le:2", "chi-le:3"),
)

# Hosts: named families with their known chromatic numbers.
NAMED_CHI = (
    ("mycielski:4", 4), ("mycielski:5", 5), ("hypercube:5", 2), ("hypercube:6", 2),
    ("complete:16", 16), ("cycle:31", 3), ("kkl:4,5", 5), ("multipartite:5,5,5,5", 4),
    ("far:1,2", 4), ("far:2,2", 4),
)
INVARIANT_N = range(36, 42)  # G(n, 1/2), one each
# Perfect hosts: random bipartite graphs with half the cross pairs as edges
# force the full odd-hole scan.  About a sixth of the requests, so
# latency_p90_ms falls inside this group and measures the scan.
PERFECT_N = (16,) * 44 + (17, 17)
# Planted members, per other class.  Recognition searches (unipolar above
# all) depend on the vertex order, and a few orders cost several times the
# usual; each host is sent under RECOGNIZE_RELABELS relabellings so a
# class's time is an average over many orders, not hostage to one.  The
# exact colouring behind chi-eq-omega varies most from seed to seed.
RECOGNIZE_N = range(25, 41)
RECOGNIZE_RELABELS = {"chi-eq-omega": 4}  # 2 for the other classes
ODD_HOLE_N = (12, 13, 14, 15)
COVER_N = (30, 32, 34, 36, 38, 40)  # planted 6-partite hosts with a 6-clique
COVER_CLASSES = ("bipartite", "chi-le:3", "chi-le-f:identity")


@dataclass(frozen=True)
class Request:
    op: str            # solve | decide | invariant | recognize | odd-hole | cover
    graph6: str
    cls: str = ""      # class spec text; "" for invariant requests
    max_edges: int = 22  # solver edge budget
    k: int = 0         # decide: part cap
    expect: int = -1   # pinned value / known chi; -1 when checked otherwise
    label: str = ""    # "baseline" marks the ROADMAP host


@dataclass
class Workload:
    name: str
    seed: int
    requests: List[Request]

    def digest(self) -> str:
        blob = json.dumps([astuple(r) for r in self.requests], separators=(",", ":"))
        return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


Gen = Callable[..., object]


def materialised(fn: Callable, *args):
    """fn(*args) as a list (or the graph it returns)."""
    out = fn(*args)
    return out if isinstance(out, (list, cn.Graph)) else list(out)


def _stream(seed: int, tag: str) -> int:
    """Independent 62-bit sub-seed per purpose, stable across processes."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:8], "big") >> 2


class Relabel:
    """Seeded vertex relabelling: same structure, different input."""

    def __init__(self, seed: int, tag: str):
        self.rng = random.Random(_stream(seed, tag))

    def __call__(self, g: cn.Graph) -> str:
        perm = list(range(g.n))
        self.rng.shuffle(perm)
        return cn.emit_graph6(cn.make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))


def load_pins() -> List[Dict]:
    return json.loads(PINS_PATH.read_text())["pins"]


def build(name: str, seed: int, gen: Gen = materialised) -> Workload:
    """The workload's request list.  `gen(fn, *args)` calls a covernum
    generator and returns a list; the traced run passes one that times it."""
    builders = {"ladder": _ladder, "corpus": _corpus, "hosts": _hosts}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}, have {', '.join(builders)}")
    return Workload(name, seed, builders[name](seed, gen))


# --- ladder ---------------------------------------------------------------

CLOSED_FORM_KINDS = ("bipartite", "chi-le", "chi-le-f", "chi-eq-omega")


def closed_form(cls: str, chi: int, omega: int) -> Optional[int]:
    """ceil-log closed form of the cover number, None when there is none."""
    spec = cn.parse_class_spec(cls)
    if spec.kind == "bipartite":
        return cn.formula_biparticity(chi)
    if spec.kind == "chi-le":
        return 0 if chi <= 1 else cn.ceil_log(spec.k, chi)
    if spec.kind == "chi-le-f":
        return cn.formula_chibound(chi, omega, spec.f)
    if spec.kind == "chi-eq-omega":
        return cn.formula_chibound(chi, omega, cn.identity_f())
    return None


def _chi_omega(g: cn.Graph) -> Tuple[int, int]:
    return cn.chromatic_number(g)[0], cn.clique_number(g)[0]


def _random_hosts(gen: Gen, n: int, tag: str, keep: Callable[[cn.Graph], bool],
                  count: int) -> List[cn.Graph]:
    """The first `count` graphs of a fixed random_graphs stream that `keep` accepts."""
    out: List[cn.Graph] = []
    batch = 0
    while len(out) < count:
        for g in gen(cn.random_graphs, n, 200, _stream(STRUCTURE_SEED, f"{tag}-{batch}")):
            if keep(g):
                out.append(g)
                if len(out) == count:
                    break
        batch += 1
    return out


def subset_pool(cls: str, candidates: Sequence[cn.Graph],
                is_member: Callable[[str, cn.Graph], bool]) -> List[Tuple[int, cn.Graph]]:
    """(edges, host) for the class's subset-route hosts: the first
    non-members of each edge count, one extra at 10 edges for decide."""
    out = []
    for m, count in SUBSET_DRAW[cls].items():
        hosts = [g for g in candidates if g.edge_count == m and not is_member(cls, g)]
        out.extend((m, g) for g in hosts[:count + (m == 10)])
    return out


def _ladder(seed: int, gen: Gen) -> List[Request]:
    relabel = Relabel(seed, "ladder")
    reqs: List[Request] = []
    by_class: Dict[str, List[Dict]] = {}
    for p in load_pins():
        by_class.setdefault(p["class"], []).append(p)
    for cls in LADDER_CLASSES:
        base = [p for p in by_class.get(cls, ()) if p["graph6"] == BASELINE_HOST]
        reqs.append(Request("solve", BASELINE_HOST, cls,
                            expect=base[0]["value"] if base else -1, label="baseline"))
    for cls in SUBSET_CLASSES:
        pool = [p for p in by_class[cls] if p["graph6"] != BASELINE_HOST]
        decide = [p for p in pool if p["edges"] == 10][-1]
        for p in pool:
            g6 = relabel(cn.parse_graph6(p["graph6"]))
            if p is decide:
                reqs.append(Request("decide", g6, cls, k=p["value"] - 1))
            else:
                reqs.append(Request("solve", g6, cls, expect=p["value"]))

    def solve(g: cn.Graph, cls: str) -> Request:
        return Request("solve", relabel(g), cls, max_edges=max(22, g.edge_count))

    def decide_on(g: cn.Graph, cls: str) -> Request:
        k = closed_form(cls, *_chi_omega(g)) - 1
        return Request("decide", relabel(g), cls, max_edges=max(22, g.edge_count), k=k)

    for fam, cls in DENSE_FIXED:
        reqs.append(solve(gen(cn.parse_family_spec, fam), cls))
    for cls, (count, m) in DENSE_RANDOM.items():
        spec = cn.parse_class_spec(cls)
        hosts = _random_hosts(gen, 9, "ladder-" + cls,
                              lambda g: g.edge_count == m and cn.in_class(g, spec) is None,
                              count)
        reqs.extend(solve(g, cls) for g in hosts)
        reqs.append(decide_on(hosts[0], cls))
    for cls in ("chi-le-f:identity", "chi-eq-omega"):
        spec = cn.parse_class_spec(cls)

        def keep(g: cn.Graph) -> bool:
            return (g.edge_count == 16 and all(g.rows)
                    and cn.clique_number(g)[0] == 3 and cn.in_class(g, spec) is None)

        hosts = _random_hosts(gen, 9, "ladder-" + cls, keep, CHIBOUND_RANDOM)
        reqs.extend(solve(g, cls) for g in hosts)
        reqs.append(decide_on(hosts[0], cls))
    return reqs


# --- corpus ---------------------------------------------------------------

def _corpus(seed: int, gen: Gen) -> List[Request]:
    """Distinct (graph, class) pairs in suite order.  The 6- and 7-vertex
    samples are the suites' default-seed graphs, relabelled by the seed;
    n <= 5 is exhaustive, so relabelling would not change it."""
    relabel = Relabel(seed, "corpus")
    graphs: Dict[int, List[str]] = {}
    for n in range(0, 6):
        graphs[n] = [cn.emit_graph6(g) for g in gen(cn.all_graphs, n)]
    for n in (6, 7):
        graphs[n] = [relabel(g) for g in gen(cn.random_graphs, n, 200, STRUCTURE_SEED + n)]
    seen = set()
    reqs: List[Request] = []
    for n_max, samples, classes in CORPUS_SUITES:
        g6s = [g6 for n in range(0, n_max + 1)
               for g6 in (graphs[n] if n <= 5 else graphs[n][:samples])]
        for g6 in g6s:
            for cls in classes:
                if (g6, cls) not in seen:
                    seen.add((g6, cls))
                    reqs.append(Request("solve", g6, cls))
    return reqs


# --- hosts ----------------------------------------------------------------

def _planted_partite(rng: random.Random, n: int, k: int, clique: bool) -> cn.Graph:
    """Random k-partite graph (edge chance 1/2); with `clique`, vertices
    0..k-1 sit in distinct parts and form a k-clique, so chi = omega = k."""
    part = [rng.randrange(k) for _ in range(n)]
    if clique:
        part[:k] = range(k)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if part[u] != part[v] and ((clique and v < k) or rng.random() < 0.5)]
    return cn.make_graph(n, edges)


def _half_bipartite(rng: random.Random, n: int) -> cn.Graph:
    """Sides of n // 2 and the rest; half of the cross pairs, chosen at random."""
    a = n // 2
    pairs = [(u, v) for u in range(a) for v in range(a, n)]
    return cn.make_graph(n, rng.sample(pairs, len(pairs) // 2))


def _planted_unipolar(rng: random.Random, n: int) -> cn.Graph:
    """Clique on a fifth of the vertices, cliques of 1-4 on the rest, and
    random edges between the two sides."""
    a = n // 5
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    v = a
    while v < n:
        block = range(v, min(n, v + rng.randint(1, 4)))
        edges += [(x, y) for x in block for y in block if x < y]
        v = block.stop
    edges += [(x, y) for x in range(a) for y in range(a, n) if rng.random() < 0.4]
    return cn.make_graph(n, edges)


def _planted_odd_hole(rng: random.Random, n: int) -> cn.Graph:
    """Random graph whose vertices 0..4 induce a 5-cycle, so it is not perfect."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (v < 5 and (v - u == 1 or (u, v) == (0, 4))) or (v >= 5 and rng.random() < 0.5)]
    return cn.make_graph(n, edges)


def _hosts(seed: int, gen: Gen) -> List[Request]:
    relabel = Relabel(seed, "hosts")
    rng = random.Random(_stream(STRUCTURE_SEED, "hosts"))
    reqs: List[Request] = []
    for n in INVARIANT_N:
        g = gen(cn.random_graphs, n, 1, _stream(STRUCTURE_SEED, f"hosts-gnp-{n}"))[0]
        reqs.append(Request("invariant", relabel(g)))
    for fam, chi in NAMED_CHI:
        reqs.append(Request("invariant", relabel(gen(cn.parse_family_spec, fam)), expect=chi))
    for n in PERFECT_N:
        reqs.append(Request("recognize", relabel(_half_bipartite(rng, n)), "perfect"))
    planters = {
        "bipartite": lambda n: _half_bipartite(rng, n),
        "chi-le:3": lambda n: _planted_partite(rng, n, 3, False),
        "chi-le-f:identity": lambda n: _planted_partite(rng, n, 4 + n % 3, True),
        "chi-eq-omega": lambda n: _planted_partite(rng, n, 4 + n % 3, True),
        "unipolar": lambda n: _planted_unipolar(rng, n),
        "co-unipolar": lambda n: cn.complement(_planted_unipolar(rng, n)),
        "gsp": lambda n: (_planted_unipolar(rng, n) if n % 4 == 0
                          else cn.complement(_planted_unipolar(rng, n))),
    }
    for cls, plant in planters.items():
        for n in RECOGNIZE_N:
            g = plant(n)
            reqs.extend(Request("recognize", relabel(g), cls)
                        for _ in range(RECOGNIZE_RELABELS.get(cls, 2)))
    for n in ODD_HOLE_N:
        reqs.append(Request("odd-hole", relabel(_planted_odd_hole(rng, n)), "perfect"))
    for cls in COVER_CLASSES:
        reqs.extend(Request("cover", relabel(_planted_partite(rng, n, 6, True)), cls)
                    for n in COVER_N)
    return reqs


# --- one request ----------------------------------------------------------

class Prepared:
    """Per-request objects built once, outside the timed region."""

    def __init__(self, requests: Sequence[Request]):
        self.specs = {r.cls: cn.parse_class_spec(r.cls) for r in requests if r.cls}
        self.budgets = {r.max_edges: cn.SolveBudget(max_edges=r.max_edges) for r in requests}


def call(req: Request, prep: Prepared) -> Tuple[cn.Graph, object]:
    """The timed part of a request.  Looks every operation up on the
    covernum package at call time, so the traced run's wrappers see it."""
    g = cn.parse_graph6(req.graph6)
    op = req.op
    if op == "solve":
        return g, cn.exact_cover_number(g, prep.specs[req.cls], prep.budgets[req.max_edges])
    if op == "decide":
        return g, cn.decide_cover(g, prep.specs[req.cls], req.k, prep.budgets[req.max_edges])
    if op == "invariant":
        return g, (cn.chromatic_number(g), cn.clique_number(g))
    if op == "recognize":
        spec = prep.specs[req.cls]
        witness = cn.in_class(g, spec)
        return g, (witness, witness is not None and cn.check_witness(g, spec, witness))
    if op == "odd-hole":
        return g, cn.is_perfect(g)
    if op == "cover":
        if req.cls == "bipartite":
            cert = cn.bipartite_cover(g)
        elif req.cls == "chi-le:3":
            cert = cn.chi_le_k_cover(g, 3)
        else:
            cert = cn.chibound_cover(g, cn.identity_f())
        return g, (cert, cn.check_certificate(g, cert))
    raise ValueError(f"unknown op {op!r}")


# --- answer checks (outside the timed region) ----------------------------

def _induces_odd_hole(edges: set, verts: Sequence[int], anti: bool) -> bool:
    """Own check: verts induce a chordless odd cycle of length >= 5 in the
    graph (anti=False) or its complement (anti=True)."""
    vs = list(verts)
    if len(set(vs)) != len(vs) or len(vs) < 5 or len(vs) % 2 == 0:
        return False

    def adj(u: int, v: int) -> bool:
        return ((min(u, v), max(u, v)) in edges) != anti

    nbrs = {v: [u for u in vs if u != v and adj(u, v)] for v in vs}
    if any(len(nb) != 2 for nb in nbrs.values()):
        return False
    seen, todo = {vs[0]}, [vs[0]]
    while todo:
        for u in nbrs[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(vs)


class Checker:
    """Checks answers; memoises (chi, omega) per host for the closed forms."""

    def __init__(self) -> None:
        self._inv: Dict[str, Tuple[int, int]] = {}

    def closed_form(self, req: Request, g: cn.Graph) -> Optional[int]:
        if cn.parse_class_spec(req.cls).kind not in CLOSED_FORM_KINDS:
            return None
        if req.graph6 not in self._inv:
            self._inv[req.graph6] = _chi_omega(g)
        return closed_form(req.cls, *self._inv[req.graph6])

    def check(self, req: Request, g: cn.Graph, ans: object) -> Optional[str]:
        """None if the answer is right, else a one-line reason."""
        op = req.op
        if op == "solve":
            value, cert = ans.value, ans.certificate
            want = req.expect if req.expect >= 0 else self.closed_form(req, g)
            if want is not None and value != want:
                return f"value {value}, expected {want}"
            if cert.formula != value or len(cert.parts) != value:
                return f"certificate has {len(cert.parts)} parts for value {value}"
            if not cn.check_certificate(g, cert):
                return "certificate rejected"
            return None
        if op == "decide":
            return None if ans is None else f"found a cover with {len(ans.parts)} parts"
        if op == "invariant":
            (chi, coloring), (omega, clique) = ans
            if coloring.count != chi or not cn.check_coloring(g, coloring):
                return "bad coloring"
            if clique.size != omega or not cn.check_clique(g, clique):
                return "bad clique"
            if chi < omega:
                return f"chi {chi} below omega {omega}"
            if req.expect >= 0 and chi != req.expect:
                return f"chi {chi}, expected {req.expect}"
            return None
        if op == "recognize":
            witness, ok = ans
            if witness is None:
                return "planted member not recognised"
            return None if ok else "witness rejected"
        if op == "odd-hole":
            perfect, cert = ans
            if perfect or cert is None or cert[0] not in ("odd-hole", "odd-antihole"):
                return "planted odd hole not found"
            edges = set(g.edges())
            return None if _induces_odd_hole(edges, cert[1], cert[0] == "odd-antihole") \
                else f"{cert[0]} {list(cert[1])} does not verify"
        if op == "cover":
            cert, ok = ans
            want = self.closed_form(req, g)
            if len(cert.parts) != want:
                return f"{len(cert.parts)} parts, closed form {want}"
            return None if ok else "certificate rejected"
        return f"unknown op {op!r}"


def order_violations(requests: Sequence[Request], values: Dict[int, int]) -> List[Tuple[int, str]]:
    """Chain and inclusion order among each graph's solved values:
    (request index, reason) per violation."""
    by_graph: Dict[str, Dict[str, int]] = {}
    for i, r in enumerate(requests):
        if r.op == "solve" and i in values:
            by_graph.setdefault(r.graph6, {})[r.cls] = i
    out = []
    for g6, idx in by_graph.items():
        for small, large in ORDER_PAIRS:
            if small in idx and large in idx and values[idx[small]] < values[idx[large]]:
                why = f"{small} {values[idx[small]]} < {large} {values[idx[large]]} on {g6}"
                out.extend((idx[c], why) for c in (small, large))
    return out
