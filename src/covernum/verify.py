"""Cross-checking suites: solver oracle against the closed formulas.

`chibound`, `chain` and `inclusion` sweep a corpus (exhaustive labelled
graphs up to n = 5, then seeded random samples) and compare the exact
set-cover oracle with the formula or ordering it is supposed to obey.
`gaps` runs fixed families: disjoint cliques, hypercubes and the counting
bound on Q_d's unipolar cover number.  The oracle is `sweep_cover_number`,
which enumerates and never reads an answer off the formulas it is checked
against.  Reports are deterministic JSON-ready dicts: parameters in,
failures out, no timestamps.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence

from .covers import (
    check_certificate,
    formula_biparticity,
    formula_chibound,
    hypercube_direction_cover,
    hypercube_lower_bound,
    unipolar_subgraph_bound,
)
from .formats import emit_graph6
from .generators import all_graphs, hypercube, kKl, random_graphs
from .graphs import Graph
from .invariants import ceil_log, chromatic_number, clique_number
from .recognizers import ClassSpec, class_f, identity_f, parse_class_spec
from .solver import max_class_subgraph_size, sweep_cover_number

DEFAULT_SEED = 20260816


def corpus_graphs(n_max: int, samples: int, seed: int) -> List[Graph]:
    """Exhaustive up to n = 5, then `samples` seeded graphs per larger n."""
    if n_max < 0 or samples < 0:
        raise ValueError(f"corpus sizes must be >= 0, got n_max {n_max}, samples {samples}")
    out: List[Graph] = []
    for n in range(0, min(n_max, 5) + 1):
        out.extend(all_graphs(n))
    for n in range(6, n_max + 1):
        out.extend(random_graphs(n, samples, seed + n))
    return out


def _report(suite: str, params: Dict, instances: int, failures: List[Dict],
            extra: Optional[Dict] = None) -> Dict:
    out = {
        "suite": suite,
        "params": params,
        "instances": instances,
        "failures": failures,
        "failures_total": len(failures),
        "passed": not failures,
    }
    if extra:
        out.update(extra)
    return out


def _corpus_suite(name: str, check: Callable[[Graph], List[Dict]], n_max: int, samples: int,
                  seed: int, **params) -> Dict:
    """Run check on every corpus graph and report its failures; params are
    reported after the corpus parameters."""
    graphs = corpus_graphs(n_max, samples, seed)
    failures = [f for g in graphs for f in check(g)]
    params = {"n_max": n_max, "samples": samples, "seed": seed, **params}
    return _report(name, params, len(graphs), failures)


CHIBOUND_CLASSES = ("bipartite", "chi-le:2", "chi-le:3", "chi-le-f:identity", "chi-le-f:plus:1")


def _chibound_failures(g: Graph, class_texts: Sequence[str]) -> List[Dict]:
    chi, _ = chromatic_number(g)
    omega, _ = clique_number(g)
    out = []
    for text in class_texts:
        spec = parse_class_spec(text)
        expected = formula_chibound(chi, omega, class_f(spec))
        got = sweep_cover_number(g, spec).value
        if got != expected:
            out.append({"graph": emit_graph6(g), "class": text, "chi": chi, "omega": omega,
                        "expected": expected, "computed": got})
    return out


def suite_chibound(n_max: int = 7, samples: int = 200, seed: int = DEFAULT_SEED) -> Dict:
    """Oracle covers for coloring-bounded classes against ceil-log formulas;
    the bipartite row is Harary, Hsu and Miller's ceil(log2 chi)."""
    return _corpus_suite("chibound", lambda g: _chibound_failures(g, CHIBOUND_CLASSES),
                         n_max, samples, seed, classes=list(CHIBOUND_CLASSES))


CHAIN_SPECS = ("chi-eq-omega", "perfect", "gsp", "co-unipolar", "bipartite")


def _chain_failures(g: Graph) -> List[Dict]:
    chi, _ = chromatic_number(g)
    omega, _ = clique_number(g)
    values = [sweep_cover_number(g, parse_class_spec(t)).value for t in CHAIN_SPECS]
    out = []
    if any(a > b for a, b in zip(values, values[1:])):
        out.append({"kind": "order", "values": values})
    lo = formula_chibound(chi, omega, identity_f())
    hi = formula_biparticity(chi)
    if values[0] != lo:
        out.append({"kind": "low-end", "expected": lo, "computed": values[0]})
    if values[-1] != hi:
        out.append({"kind": "high-end", "expected": hi, "computed": values[-1]})
    return [{"graph": emit_graph6(g), **f} for f in out]


def suite_chain(n_max: int = 6, samples: int = 100, seed: int = DEFAULT_SEED) -> Dict:
    """Five cover numbers in their sandwich order, ends pinned to formulas."""
    return _corpus_suite("chain", _chain_failures, n_max, samples, seed,
                         classes=list(CHAIN_SPECS))


def _far3_grid() -> List[tuple]:
    # k*l(l-1)/2 <= 12 keeps each oracle run to a few thousand subsets
    grid = []
    for k in range(1, 9):
        for l in range(2, 8):
            if k * l <= 16 and k * l * (l - 1) // 2 <= 12:
                grid.append((k, l))
    return grid


def suite_gaps() -> Dict:
    """Fixed-family gap checks.

    - k disjoint K_l on a fixed grid: the co-unipolar cover number is
      min(k, log2 l), asserted only when l is a power of two; other l are
      swept and recorded without assertion.
    - Q_d, d = 1..62: the counting lower bound on the unipolar cover
      number equals d exactly when d >= 8, asserted from d = 3 (Q_1's bound
      is 1 = d); for d <= 6, the largest hypercube built, the d direction
      matchings are a valid cover in parts of 2^(d-1) edges.
    - Q_3's largest unipolar subgraph has the counting bound's budget.
    """
    failures = []
    records = []
    grid = _far3_grid()
    spec = ClassSpec("co-unipolar")
    for k, l in grid:
        got = sweep_cover_number(kKl(k, l), spec).value
        power_of_two = l & (l - 1) == 0
        expected = min(k, ceil_log(2, l)) if power_of_two else None
        records.append({"k": k, "l": l, "computed": got, "expected": expected,
                        "asserted": power_of_two})
        if expected is not None and got != expected:
            failures.append({"k": k, "l": l, "expected": expected, "computed": got})
    for d in range(1, 63):
        lb = hypercube_lower_bound(d)
        record = {"d": d, "lower_bound": lb}
        if d <= 6:
            cert = hypercube_direction_cover(d)
            sizes = [len(p) for p in cert.parts]
            # d parts of 2^(d-1) edges that cover Q_d's d * 2^(d-1) are disjoint
            ok = (check_certificate(hypercube(d), cert) and len(cert.parts) == d
                  and all(s == 2 ** (d - 1) for s in sizes))
            record.update(parts=len(cert.parts), part_sizes=sizes, valid=ok)
            if not ok:
                failures.append({"d": d, "parts": len(cert.parts), "part_sizes": sizes})
        records.append(record)
        if d >= 3 and not (lb == d if d >= 8 else lb < d):
            failures.append({"d": d, "lower_bound": lb})
    got = max_class_subgraph_size(hypercube(3), ClassSpec("unipolar"))
    bound = unipolar_subgraph_bound(3)
    records.append({"d": 3, "max_unipolar_edges": got, "bound": bound})
    if got != bound:
        failures.append({"d": 3, "max_unipolar_edges": got, "bound": bound})
    params = {"grid": [[k, l] for k, l in grid], "d_max": 62}
    return _report("gaps", params, len(records), failures, {"records": records})


INCLUSION_PAIRS = (
    ("bipartite", "co-unipolar"),
    ("co-unipolar", "gsp"),
    ("unipolar", "gsp"),
    ("gsp", "perfect"),
    ("perfect", "chi-eq-omega"),
    ("bipartite", "chi-le:3"),
    ("chi-le:2", "chi-le:3"),
)


def _inclusion_failures(g: Graph) -> List[Dict]:
    needed = sorted({t for pair in INCLUSION_PAIRS for t in pair})
    values = {t: sweep_cover_number(g, parse_class_spec(t)).value for t in needed}
    out = []
    for small, large in INCLUSION_PAIRS:
        if values[small] < values[large]:
            out.append({"graph": emit_graph6(g), "subclass": small, "superclass": large,
                        "subclass_value": values[small],
                        "superclass_value": values[large]})
    return out


def suite_inclusion(n_max: int = 5, samples: int = 25, seed: int = DEFAULT_SEED) -> Dict:
    """Smaller class, no cheaper cover: c_P >= c_Q whenever P is inside Q."""
    return _corpus_suite("inclusion", _inclusion_failures, n_max, samples, seed,
                         pairs=[list(p) for p in INCLUSION_PAIRS])


SUITES: Dict[str, Callable[..., Dict]] = {
    "chibound": suite_chibound,
    "chain": suite_chain,
    "inclusion": suite_inclusion,
    "gaps": suite_gaps,
}


def run_suite(name: str, n_max: Optional[int] = None, samples: Optional[int] = None,
              seed: Optional[int] = None) -> Dict:
    """Run suite `name` serially; a parameter given (not None) that the
    suite does not read raises ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, have {', '.join(sorted(SUITES))}")
    fn = SUITES[name]
    given = {"n_max": n_max, "samples": samples, "seed": seed}
    kwargs = {k: v for k, v in given.items() if v is not None}
    unread = [k for k in kwargs if k not in inspect.signature(fn).parameters]
    if unread:
        raise ValueError(f"suite {name} does not read {', '.join(unread)}")
    return fn(**kwargs)
