"""Regenerate bench/data/ladder_pins.json: pinned answers for the ladder.

The subset-route classes (perfect, unipolar, co-unipolar, gsp) have no
closed-form cover number, so the ladder draws their hosts from a fixed
pool whose answers are pinned here.  Each pin is proven outside the
solver with the naive oracles of tests/oracles.py:

* lower bound: the oracle rejects the host, so no single part covers it
  and the cover number is at least 2;
* upper bound: the oracle accepts both parts of the solver's 2-part
  certificate, and the parts cover every edge, so it is at most 2.

Hosts are picked by the oracles alone (first non-members of each edge
count, see workloads.subset_pool).  An answer other than 2 would need a
lower-bound proof the oracles cannot give cheaply; none occurs, and the
script refuses to write a pin it could not prove.  The ladder relabels
the pinned hosts per seed, which keeps every cover number.

Run from the repository root:  python3 bench/pin_ladder.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import covernum as cn  # noqa: E402
from oracles import naive_perfect, naive_unipolar  # noqa: E402

from workloads import (  # noqa: E402
    BASELINE_HOST,
    LADDER_POOL_SEED,
    PINS_PATH,
    SUBSET_CLASSES,
    subset_pool,
)


def _naive_member(cls: str, g: cn.Graph) -> bool:
    if cls == "perfect":
        return naive_perfect(g)
    if cls == "unipolar":
        return naive_unipolar(g)
    if cls == "co-unipolar":
        return naive_unipolar(cn.complement(g))
    return naive_unipolar(g) or naive_unipolar(cn.complement(g))  # gsp


ORACLE = {
    "perfect": "naive_perfect",
    "unipolar": "naive_unipolar",
    "co-unipolar": "naive_unipolar(complement)",
    "gsp": "naive_unipolar or naive_unipolar(complement)",
}


def pin(cls: str, g: cn.Graph) -> dict:
    spec = cn.parse_class_spec(cls)
    res = cn.exact_cover_number(g, spec)
    cert = res.certificate
    parts = [cn.spanning_subgraph(g, p) for p in cert.parts]
    union = 0
    for p in cert.parts:
        union |= p.bits
    proven = (
        res.value == 2
        and not _naive_member(cls, g)
        and union == cn.full_edge_set(g).bits
        and all(_naive_member(cls, p) for p in parts)
    )
    if not proven:
        raise SystemExit(f"cannot prove the answer {res.value} for {cls} on {cn.emit_graph6(g)}")
    oracle = ORACLE[cls]
    return {
        "class": cls,
        "graph6": cn.emit_graph6(g),
        "edges": g.edge_count,
        "value": res.value,
        "checked": f">= 2: {oracle} rejects the host; <= 2: {oracle} accepts "
                   f"both certificate parts, which cover every edge",
    }


def main() -> None:
    candidates = cn.random_graphs(8, 4000, LADDER_POOL_SEED)
    pins = []
    for cls in SUBSET_CLASSES:
        pins.append(pin(cls, cn.parse_graph6(BASELINE_HOST)))
        pins.extend(pin(cls, g) for _, g in subset_pool(cls, candidates, _naive_member))
    doc = {
        "about": "Pinned ladder answers; regenerate with python3 bench/pin_ladder.py",
        "pool": {"generator": "random_graphs(8, 4000, seed)", "seed": LADDER_POOL_SEED},
        "pins": pins,
    }
    PINS_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
