"""Cover formulas, constructive covers and certificate checking.

A cover of G is a list of spanning subgraphs (as edge sets) whose union
is E(G) and each of which lies in a fixed class.  For every class
{chi <= f(omega)} the cover is an exact realization of the ceil-log
formula: write each color of a proper coloring as a base-f(omega) digit
string and split edges by the digits where their endpoint strings
differ.  The coloring need not be optimal: any one whose color count
needs as many digits as chi does gives the same number of parts, so the
layout only settles which power-of-base range chi lies in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from .generators import hypercube
from .graphs import EdgeSet, Graph, edge_index, full_edge_set, spanning_subgraph
from .invariants import Coloring, bracket_coloring, ceil_log, clique_number, first_fit_coloring
from .recognizers import CLASSES, ClassSpec, FSpec, check_witness, class_f, flat_upto, in_class

# Unused here: bench/tracing.py hooks this name on this module.
from .invariants import chromatic_number  # noqa: F401


def formula_biparticity(chi: int) -> int:
    """Parts needed to cover a chi-chromatic graph by bipartite graphs."""
    return formula_chibound(chi, 0, lambda omega: 2)


def formula_chibound(chi: int, omega: int, f: Callable[[int], int]) -> int:
    """Parts needed for the class of graphs with chi(H) <= f(omega(H)),
    for any non-decreasing f."""
    if chi < 0 or omega < 0 or omega > chi:
        raise ValueError(f"inconsistent invariant pair chi={chi}, omega={omega}")
    if chi <= 1:
        return 0
    fo = f(omega)
    if fo < 2:
        raise ValueError(f"cover base f(omega)={fo} is below 2, no cover exists")
    return ceil_log(fo, chi)


@dataclass(frozen=True)
class CoverCertificate:
    host: Graph
    spec: ClassSpec
    parts: Tuple[EdgeSet, ...]
    witnesses: Tuple[Dict, ...]
    formula: int


def certificate_to_json(cert: CoverCertificate) -> Dict:
    """Stable-keyed dict: class, formula, parts (sorted edge pairs), witnesses."""
    return {
        "class": str(cert.spec),
        "formula": cert.formula,
        "parts": [[[u, v] for u, v in p.edges()] for p in cert.parts],
        "witnesses": list(cert.witnesses),
    }


def witnessed_cover(g: Graph, spec: ClassSpec, masks: Sequence[int]) -> CoverCertificate:
    """The cover of g whose parts are the edge masks, in their order, each
    part's spanning subgraph witnessed as a member of spec by the class's
    witness search: the swept and greedy covers' certificates."""
    parts = tuple(EdgeSet(g, mask) for mask in masks)
    wits = []
    for p in parts:
        w = in_class(spanning_subgraph(g, p), spec)
        assert w is not None, "cover part fell outside its class"
        wits.append(w)
    return CoverCertificate(g, spec, parts, tuple(wits), len(parts))


def digit_layout(g: Graph, spec: ClassSpec,
                 floor: int = 1) -> Tuple[Coloring, int, Tuple[int, ...]]:
    """What the formula cover of g for spec's f is built from: a colouring
    with ceil_log(base, chi) digits (invariants.bracket_coloring), the
    digit base f(omega), and the maximum clique whose colours get constant
    digit strings (empty where plain digits keep every part a member).
    For f = identity the base is omega itself; on a host with an edge it
    is at least f(2) >= 2 (recognizers.FSpec).

    floor is a digit count the caller knows chi needs (2 on a host outside
    the class, chi > f(omega)), so no search is spent proving it."""
    f = class_f(spec)
    first_fit = first_fit_coloring(g.n, g.rows)
    low = f(1)
    # f flat up to first fit's count is flat up to omega <= chi <= count
    if first_fit.count <= 1 or flat_upto(f, first_fit.count):
        base, clique = low, ()
    else:
        omega, witness = clique_number(g)
        base = f(omega)
        clique = tuple(sorted(witness.vertices)) if base > low else ()
    return bracket_coloring(g.n, g.rows, base, floor, first_fit), base, clique


def digit_cover(g: Graph, spec: ClassSpec, coloring: Coloring, base: int,
                clique: Tuple[int, ...]) -> CoverCertificate:
    """Cover of g by ceil_log(base, c) parts, c the colouring's count,
    each witnessed for spec from its digits.

    Each colour becomes a string of t base-`base` digits, and part d keeps
    the edges whose endpoint strings differ in digit d, so digit d colours
    part d with at most `base` colours.  The colours on `clique` get
    distinct constant strings, which keeps the clique inside every part;
    otherwise the strings are the colours' plain digits.  The class's
    registry entry builds part d's witness from digit d and the clique, or
    the part's lowest edge where there is none, with no membership search
    (recognizers.ClassEntry.digit_witness): base is the layout's f(omega)
    for a colouring class and 2 for any other.

    Every part has an edge where t is minimal, ceil_log(base, chi), as in
    digit_layout's colouring: were part d edgeless, the endpoint strings
    of every edge would differ in another digit, and the other t - 1
    digits would colour g with base**(t-1) < chi colours.
    """
    count = coloring.count
    if count <= 1:
        return CoverCertificate(g, spec, (), (), 0)
    t = ceil_log(base, count)
    if clique:
        const = {coloring.colors[v]: (i,) * t for i, v in enumerate(clique)}
        taken = set(const.values())
        # every t-digit string, most significant digit first, in counting order
        counted = (tuple(c // base ** (t - 1 - d) % base for d in range(t))
                   for c in range(base ** t))
        fresh = (s for s in counted if s not in taken)
        strings = [const[c] if c in const else next(fresh) for c in range(count)]
    else:
        strings = [tuple(c // base ** d % base for d in range(t)) for c in range(count)]
    of = [strings[c] for c in coloring.colors]  # each vertex's string
    idx = edge_index(g)
    masks = [0] * t
    for i, (u, v) in enumerate(idx):
        su, sv = of[u], of[v]
        for d in range(t):
            if su[d] != sv[d]:
                masks[d] |= 1 << i
    witness = CLASSES[spec.kind].digit_witness
    label = str(spec)
    wits = []
    for d, mask in enumerate(masks):
        part_clique = clique or idx[(mask & -mask).bit_length() - 1]
        wits.append({"class": label, **witness(spec, [s[d] for s in of], part_clique)})
    return CoverCertificate(g, spec, tuple(EdgeSet(g, mask) for mask in masks), tuple(wits), t)


def formula_cover(g: Graph, spec: ClassSpec) -> CoverCertificate:
    """Cover by formula_chibound(chi, omega, f) parts from the class
    {chi <= f(omega)} of spec: the digit cover of g's layout for f.

    When f(1) >= f(omega) every part is coloured with at most f(1) colours,
    so it is a member.  Otherwise the clique's constant strings give each
    part the clique number of g, and with it the bound f(omega).
    """
    if class_f(spec) is None:
        raise ValueError(f"class {spec} is not of the form chi <= f(omega)")
    return digit_cover(g, spec, *digit_layout(g, spec))


def chi_le_k_cover(g: Graph, k: int) -> CoverCertificate:
    """Cover by ceil(log_k chi) many k-colorable spanning subgraphs."""
    return formula_cover(g, ClassSpec("chi-le", k=k))


def bipartite_cover(g: Graph) -> CoverCertificate:
    """Cover by ceil(log2 chi) bipartite spanning subgraphs."""
    return formula_cover(g, ClassSpec("bipartite"))


def chibound_cover(g: Graph, f: FSpec) -> CoverCertificate:
    """Cover by parts from the class {H : chi(H) <= f(omega(H))}."""
    return formula_cover(g, ClassSpec("chi-le-f", f=f))


def product_coloring(g: Graph, parts: Sequence[Tuple[EdgeSet, Coloring]]) -> Coloring:
    """Combine per-part colorings into one proper coloring of g.

    Each vertex gets the tuple of its part colors, compressed to dense
    ids by first appearance.  Uses at most the product of the part color
    counts, which is how the cover formulas are forced from below.
    """
    union = 0
    for es, col in parts:
        if es.host != g:
            raise ValueError("part edge set belongs to a different host graph")
        if len(col.colors) != g.n:
            raise ValueError("part coloring has the wrong vertex count")
        for u, v in es.edges():
            if col.colors[u] == col.colors[v]:
                raise ValueError(f"part coloring is improper on edge ({u}, {v})")
        union |= es.bits
    if union != full_edge_set(g).bits:
        raise ValueError("parts do not cover every edge of the host")
    mapping: Dict[Tuple[int, ...], int] = {}
    out = []
    for v in range(g.n):
        key = tuple(col.colors[v] for _, col in parts)
        if key not in mapping:
            mapping[key] = len(mapping)
        out.append(mapping[key])
    return Coloring(tuple(out), len(mapping))


def hypercube_direction_cover(d: int) -> CoverCertificate:
    """Partition E(Q_d) into the d direction matchings, each unipolar."""
    g = hypercube(d)
    spec = ClassSpec("unipolar")
    idx = edge_index(g)
    masks = [0] * d
    for i, (u, v) in enumerate(idx):
        masks[(u ^ v).bit_length() - 1] |= 1 << i
    return witnessed_cover(g, spec, masks)


def unipolar_subgraph_bound(d: int) -> int:
    """Edge budget of any unipolar spanning subgraph of Q_d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return 2 ** (d - 1) + 2 * (d - 1)


def hypercube_lower_bound(d: int) -> int:
    """ceil(d 2^(d-1) / unipolar_subgraph_bound(d)): Q_d's edges over the
    most a unipolar part can hold, exact integer arithmetic."""
    den = unipolar_subgraph_bound(d)
    return -(-d * 2 ** (d - 1) // den)


def check_certificate(g: Graph, cert: CoverCertificate) -> bool:
    """Re-derive host, union and claimed count; check each part's stored
    witness on its spanning subgraph (perfect parts are re-derived)."""
    if cert.host != g:
        return False
    if cert.formula != len(cert.parts) or len(cert.witnesses) != len(cert.parts):
        return False
    union = 0
    for p in cert.parts:
        if p.host != g:
            return False
        union |= p.bits
    if union != full_edge_set(g).bits:
        return False
    return all(
        check_witness(spanning_subgraph(g, p), cert.spec, w)
        for p, w in zip(cert.parts, cert.witnesses)
    )
