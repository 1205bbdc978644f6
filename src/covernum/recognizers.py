"""Membership tests for the covered graph classes, with checkable witnesses.

Classes: bipartite, chi-le:k, chi-le-f:<f>, chi-eq-omega, perfect,
unipolar, co-unipolar and gsp (unipolar or co-unipolar).  Recognition is
exact; perfection goes through the absence of odd holes in the graph and
its complement, everything else through explicit search.  Odd holes are
found by growing chordless paths from each hole's least vertex; the
witness is the shortest odd hole, the lexicographically least vertex set
of that length, and the graph is searched before its complement.  A
bipartite or co-bipartite graph is perfect without either search:
- a bipartite graph has no odd cycle, so no odd hole;
- nor a triangle, which every odd antihole of length 7 or more holds, and
  the 5-antihole is C5, an odd cycle; so no odd antihole either;
- complementing swaps holes and antiholes, so a co-bipartite graph is
  perfect too.

Each class is declared once, as an entry of the CLASSES registry; spec
parsing, membership, witnesses, witness checks and, for the colouring
classes {chi <= f(omega)}, the function f are all lookups into it.  An
entry may say how a part of a digit cover is witnessed from its digits:
every colouring class does, and so does every other class that holds
every bipartite graph, for base-2 covers, which bounds its cover numbers
(the other classes lie inside {chi = omega}).  The split classes (unipolar,
co-unipolar, gsp) also declare a structural family, which builds their
maximal members inside a host for the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    bits_of,
    complement,
    complement_rows,
    components,
    induced_rows,
    is_clique,
    neighbourhood,
    proper,
)
from .invariants import (
    CliqueWitness,
    Coloring,
    _color_components,
    check_clique,
    clique_number,
    dsatur_search,
    omega_of_rows,
)
from .structural import (
    co_unipolar_family,
    co_unipolar_work,
    maximal_masks,
    unipolar_best,
    unipolar_family,
    unipolar_work,
)

# Unused here: bench/tracing.py hooks this name on this module.
from .invariants import k_colorable_rows  # noqa: F401

# is_perfect near the cap, on perfect hosts that are neither bipartite nor
# co-bipartite, so that both odd-hole scans run (2-vCPU Intel Xeon, Python
# 3.11): K_{11,12} plus a disjoint triangle 0.9 ms, the 4x5 grid plus a
# triangle 0.7 ms, random half-bipartite hosts (12 + 11 vertices, half the
# cross pairs) plus a triangle, and their complements, 1.3-2.1 ms.
PERFECT_MAX_VERTICES = 26

# Each form of f: (f(spec, x), least c), where c is the spec's value, or
# for a table its count of values.  Only a table can break monotonicity or
# fall below the identity, so only its values need checking.
_F_FORMS: Dict[str, Tuple[Callable[["FSpec", int], int], int]] = {
    "identity": (lambda f, x: x, 0),
    "plus": (lambda f, x: x + f.value, 0),
    "pow": (lambda f, x: x ** f.value, 1),
    "const": (lambda f, x: f.value, 2),
    "table": (lambda f, x: f.table[x - 1], 2),
}


@dataclass(frozen=True)
class FSpec:
    """Clique bound function f on 1..MAX_VERTICES (a table: 1..its length).

    Forms: identity, plus (x + c), pow (x ** a), const (k), table (explicit
    values for x = 1..len).  All forms must be non-decreasing and, except
    for const, must majorize the identity.  const needs k >= 2 and a table
    two values or more, so that f(2) >= 2 and the class holds the
    single-edge graph.  f is evaluated only when called, so a huge
    constant costs nothing to parse.
    """

    form: str
    value: int = 0
    table: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.form not in _F_FORMS:
            raise ValueError(f"unknown f form {self.form!r}")
        c = len(self.table) if self.form == "table" else self.value
        least = _F_FORMS[self.form][1]
        if c < least:
            raise ValueError(f"{self.form} form needs at least {least}, got {c}")
        if any(b < a for a, b in zip(self.table, self.table[1:])):
            raise ValueError("table values must be non-decreasing")
        if any(v < x for x, v in enumerate(self.table, start=1)):
            raise ValueError("table must majorize the identity")

    def __call__(self, x: int) -> int:
        top = len(self.table) or MAX_VERTICES
        if not 1 <= x <= top:
            raise ValueError(f"f argument {x} outside 1..{top}")
        return _F_FORMS[self.form][0](self, x)

    def __str__(self) -> str:
        if self.form == "identity":
            return "identity"
        if self.form == "table":
            return "table:" + ",".join(str(v) for v in self.table)
        return f"{self.form}:{self.value}"


IDENTITY = FSpec("identity")


def identity_f() -> FSpec:
    return IDENTITY


def parse_f_spec(text: str) -> FSpec:
    """Inverse of str(FSpec): identity, plus:<c>, pow:<a>, const:<k> or table:<v1,...>."""
    if text == "identity":
        return IDENTITY
    head, sep, rest = text.partition(":")
    if head in ("plus", "pow", "const", "table") and sep:
        try:
            if head == "table":
                return FSpec(head, table=tuple(int(v) for v in rest.split(",")))
            return FSpec(head, int(rest))
        except ValueError as exc:
            raise ValueError(f"bad f spec {text!r}: {exc}") from None
    raise ValueError(
        f"bad f spec {text!r}: expected identity, plus:<c>, pow:<a>, const:<k> or table:<v1,...>"
    )


@dataclass(frozen=True)
class ClassSpec:
    kind: str
    k: int = 0
    f: Optional[FSpec] = None

    def __post_init__(self) -> None:
        entry = CLASSES.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown class kind {self.kind!r}")
        # chi <= 1 holds no graph with an edge
        if entry.param == "k" and self.k < 2:
            raise ValueError(f"{self.kind} requires k >= 2")
        if entry.param == "f" and self.f is None:
            raise ValueError(f"{self.kind} requires an f spec")

    def __str__(self) -> str:
        param = CLASSES[self.kind].param
        return self.kind if param is None else f"{self.kind}:{getattr(self, param)}"


_PARAM_PARSERS = {"k": int, "f": parse_f_spec}


def parse_class_spec(text: str) -> ClassSpec:
    """Inverse of str(ClassSpec): a kind, then ':<k>' or ':<f>' if the kind takes one."""
    kind, sep, arg = text.partition(":")
    entry = CLASSES.get(kind)
    if entry is None or bool(sep) != (entry.param is not None):
        raise ValueError(f"unknown class spec {text!r}")
    if entry.param is None:
        return ClassSpec(kind)
    try:
        value = _PARAM_PARSERS[entry.param](arg)
    except ValueError as exc:
        raise ValueError(f"bad class spec {text!r}: {exc}") from None
    return ClassSpec(kind, **{entry.param: value})


def bipartition_rows(n: int, rows: Sequence[int]) -> Optional[Tuple[int, int]]:
    """Two-coloring by breadth-first layers, sides as vertex masks: a graph
    is bipartite exactly when no edge joins two vertices of one layer, and
    alternate layers are the sides, side 0 holding each component's least
    vertex."""
    sides = [0, 0]
    left = (1 << n) - 1
    while left:
        layer = seen = left & -left
        side = 0
        while layer:
            reach = neighbourhood(rows, layer)
            if reach & layer:
                return None
            sides[side] |= layer
            layer = reach & ~seen
            seen |= layer
            side ^= 1
        left &= ~seen
    return sides[0], sides[1]


def is_bipartite(g: Graph) -> Optional[Tuple[int, int]]:
    """Bipartition side masks, or None.  An empty side is fine."""
    return bipartition_rows(g.n, g.rows)


def cluster_components(n: int, rows: Sequence[int]) -> Optional[List[int]]:
    """The component masks, by least vertex, if the graph has no induced
    P3, so that every component is a clique (a cluster); else None."""
    full = (1 << n) - 1
    if _find_p3(rows, full) is not None:
        return None
    return components(rows, full)


def is_cluster(g: Graph) -> Optional[List[int]]:
    """Component masks if g is a disjoint union of cliques, else None.

    The empty graph yields [], so test against None, not truthiness.
    """
    return cluster_components(g.n, g.rows)


def _find_p3(rows: Sequence[int], active: int, start: int = 0) -> Optional[Tuple[int, int, int]]:
    """First induced path u-b-w inside the active mask, by vertex order:
    the least middle b, then the least end u, then the least end w > u.
    Middles below start are skipped; a caller passes a start below which
    it knows no middle lies, as in a subset of a mask whose first P3 had
    middle start.  Where b's closed neighbourhood is also that of each of
    its neighbours, it is a clique component, whose vertices are no
    middles, so the scan skips them all at once."""
    rest = active & -(1 << start)
    while rest:
        low = rest & -rest
        b = low.bit_length() - 1
        nb = rows[b] & active
        block = nb | low
        m = nb
        while m:
            y = m & -m
            if rows[y.bit_length() - 1] & active | y != block:
                break
            m ^= y
        else:
            rest &= ~block
            continue
        rest ^= low
        m = nb
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            others = nb & ~rows[u] & ~((1 << (u + 1)) - 1)
            if others:
                w = (others & -others).bit_length() - 1
                return (u, b, w)
    return None


def _frozen_p3(rows: Sequence[int], frozen: int, fresh: int) -> bool:
    """Whether frozen induces a P3 through a vertex of fresh (a subset of
    frozen).  Frozen induces none through x exactly when every y in
    N[x] & frozen has N[y] & frozen = N[x] & frozen, x's block; the
    vertices of a checked block share it, so each block is checked once."""
    while fresh:
        x = (fresh & -fresh).bit_length() - 1
        block = (rows[x] | 1 << x) & frozen
        m = block & ~(1 << x)
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if (rows[y] | 1 << y) & frozen != block:
                return True
        fresh &= ~block
    return False


def unipolar_split_rows(n: int, rows: Sequence[int]) -> Optional[int]:
    """Clique side A (as a mask) such that the rest is a cluster, or None.

    Every induced P3 of G - A must lose a vertex to A, and A stays
    pairwise adjacent, so the search branches three ways on the first
    induced P3 (_find_p3) of G - A: each of its vertices adjacent to all
    of A joins A in turn, least first, and a set A met twice is searched
    once.  Two cuts keep that order and skip only what holds no split:
    - resumed scan: a child's G - A is an induced subgraph of its
      parent's, which has no induced P3 with a middle below that of its
      first one, b, so the child's scan starts at b;
    - frozen vertices: a vertex of G - A not adjacent to all of A never
      joins A, since A only grows, so the frozen ones stay on the cluster
      side of every extension and must induce a cluster graph.  A child
      checks only the vertices its new member freezes (_frozen_p3) and is
      skipped where they close a P3.
    So the first clique side found is the one the uncut search finds.
    """
    full = (1 << n) - 1
    seen = set()

    # frozen: the vertices of G - A not adjacent to all of A; start: the
    # least middle an induced P3 of G - A can have
    def rec(a_mask: int, frozen: int, start: int) -> Optional[int]:
        rest = full & ~a_mask
        p3 = _find_p3(rows, rest, start)
        if p3 is None:
            return a_mask
        u, b, w = p3  # u < w; the loop takes the three in ascending order
        for v in (b, u, w) if b < u else (u, b, w) if b < w else (u, w, b):
            child = a_mask | (1 << v)
            if frozen >> v & 1 or child in seen:
                continue
            seen.add(child)
            fresh = rest & ~rows[v] & ~frozen & ~(1 << v)
            grown = frozen | fresh
            # a P3 needs three frozen vertices, one of them fresh
            if fresh and grown.bit_count() > 2 and _frozen_p3(rows, grown, fresh):
                continue
            res = rec(child, grown, b)
            if res is not None:
                return res
        return None

    return rec(0, 0, 0)


def is_unipolar(g: Graph) -> Optional[Tuple[int, List[int]]]:
    """(A mask, cluster masks) or None.  The split leaves G - A with no
    induced P3, so the clusters are G - A's components, by least vertex."""
    a = unipolar_split_rows(g.n, g.rows)
    if a is None:
        return None
    return a, components(g.rows, ((1 << g.n) - 1) & ~a)


def is_co_unipolar(g: Graph) -> Optional[Tuple[int, List[int]]]:
    """Unipolar split of the complement, or None."""
    return is_unipolar(complement(g))


def is_gsp(g: Graph) -> Optional[Tuple[str, Tuple[int, List[int]]]]:
    """Generalized split: unipolar or co-unipolar, whichever holds."""
    w = is_unipolar(g)
    if w is not None:
        return "unipolar", w
    w = is_co_unipolar(g)
    if w is not None:
        return "co-unipolar", w
    return None


def is_chi_eq_omega(g: Graph) -> Optional[Tuple[Coloring, CliqueWitness]]:
    """A coloring and a clique of equal size, or None if chi > omega."""
    res = is_chi_le_f(g, IDENTITY)
    return None if res is None else res[:2]


def is_chi_le_f(g: Graph, f: FSpec) -> Optional[Tuple[Coloring, CliqueWitness, int]]:
    """(coloring, max clique, f(omega)) if chi(g) <= f(omega(g)), else None.

    Colors first: the greedy first descent (the DSATUR search with k = n)
    colors g with top colors, so omega <= top and the clique search stops
    once a clique reaches top, with the same lexicographically least
    clique.  Where top <= f(omega), the greedy coloring is what the search
    for f(omega) colors would return, so it is the witness and no second
    search runs; otherwise that search runs one component at a time
    (invariants._color_components), and on a host searched whole it goes
    on from the greedy coloring instead of starting over.
    """
    coloring, clique, fw = _chi_le_f(g.n, g.rows, f, partial(clique_number, g))
    return None if coloring is None else (coloring, clique, fw)


def _chi_le_f(n: int, rows: Sequence[int], f: FSpec,
              clique_of: Callable[[int], Tuple[int, Optional[CliqueWitness]]]
              ) -> Tuple[Optional[Coloring], Optional[CliqueWitness], int]:
    """The one {chi <= f(omega)} search, over raw rows: is_chi_le_f, with
    the clique and f(omega) also where the coloring is None.
    clique_of(top) is (omega, clique) from a clique search that may stop
    at top: clique_number for a witness, which reports the clique, and
    omega alone for membership.  Nothing keeps rows after a call returns:
    the subset sweep reuses its list."""
    if n == 0:
        return Coloring((), 0), clique_of(0)[1], 0
    search = dsatur_search(n, rows, n)
    greedy = next(search)
    top = max(greedy) + 1
    w, clique = clique_of(top)
    fw = f(w)
    if top <= fw:
        return Coloring(tuple(greedy), top), clique, fw
    return _color_components(n, rows, fw, search), clique, fw


def _grow_hole(rows: Sequence[int], tip: int, size: int, path: int, free: int, ends: int,
               found: list) -> None:
    """Extend the chordless path `path` (size vertices, ending at tip) of
    find_odd_hole.  free holds the vertices the next step may use, ends the
    neighbours of v0 that may still close the cycle; found is [the best
    hole so far or None, the longest cycle still worth closing]."""
    if size % 2 == 0 and size >= 4:  # closing makes an odd cycle of 5 or more
        close = rows[tip] & ends
        while close:
            w = close & -close
            close ^= w
            hole = tuple(bits_of(path | w))
            best = found[0]
            if best is None or len(hole) < len(best) or hole < best:
                found[:] = hole, len(hole)
    # the next vertex must avoid tip's neighbours, and so must w
    step = rows[tip] & free
    free &= ~rows[tip]
    ends &= ~rows[tip]
    while step and ends and size + 1 < found[1]:
        q = step & -step
        step ^= q
        _grow_hole(rows, q.bit_length() - 1, size + 1, path | q, free, ends, found)


def find_odd_hole(n: int, rows: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Vertices of the shortest chordless odd cycle of length >= 5, the
    lexicographically least of that length; None if there is none.

    Each hole is grown from its least vertex v0 as a chordless path
    v0, p1, ..., pk through vertices above v0 and closed at a neighbour
    w > p1 of v0, so that it is found in one direction only.  A step
    never uses a neighbour of v0 or of an earlier path vertex; a
    neighbour of v0 may only close the cycle.  A path stops growing when
    no closing vertex is left or it cannot close at the best length found
    so far, and once a start vertex is done only shorter holes can win.
    """
    found: list = [None, n if n % 2 else n - 1]
    for v0 in range(n - 4):
        above = -2 << v0  # vertices above v0
        first = rows[v0] & above
        free = above & ~rows[v0]  # where p2 may go
        m = first
        while m:
            p1 = m & -m
            m ^= p1
            # w: neighbours of v0 above p1 that miss p1
            ends = first & -(p1 << 1) & ~rows[p1.bit_length() - 1]
            if ends:
                _grow_hole(rows, p1.bit_length() - 1, 2, (1 << v0) | p1, free, ends, found)
        if found[0] is not None:
            found[1] = len(found[0]) - 2  # a later start can only win by being shorter
        if found[1] < 5:
            break
    return found[0]


def _odd_hole_or_antihole(n: int, rows: Sequence[int]) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """("odd-hole", vertices) or ("odd-antihole", vertices), the graph
    scanned before its complement; None when the graph is perfect.  A
    bipartite or co-bipartite graph returns None before either scan; the
    module docstring says why."""
    if bipartition_rows(n, rows) is not None:
        return None
    co = complement_rows(n, rows)
    if bipartition_rows(n, co) is not None:
        return None
    hole = find_odd_hole(n, rows)
    if hole is not None:
        return "odd-hole", hole
    hole = find_odd_hole(n, co)
    return None if hole is None else ("odd-antihole", hole)


def is_perfect(g: Graph) -> Tuple[bool, Optional[Tuple[str, Tuple[int, ...]]]]:
    """Perfection via the absence of odd holes and odd antiholes.

    Returns (True, None) or (False, certificate) where the certificate
    names the offending vertex subset.
    """
    # An isolated vertex lies on no hole, and on no antihole because it is
    # universal in the complement, so only vertices with an edge count.
    active = sum(1 for row in g.rows if row)
    if active > PERFECT_MAX_VERTICES:
        raise CapacityError(
            f"perfection check limited to {PERFECT_MAX_VERTICES} non-isolated vertices, got {active}"
        )
    bad = _odd_hole_or_antihole(g.n, g.rows)
    return bad is None, bad


# --- membership over raw rows (no witness construction), for the solver ---

MemberFn = Callable[[int, Sequence[int]], bool]


def _drop_isolated(rows: Sequence[int]) -> Tuple[int, Sequence[int]]:
    """Drop isolated vertices and relabel compactly.

    Sound for perfect and co-unipolar: an isolated vertex cannot lie on an
    induced cycle in the graph or its complement, and it joins the clique
    side of the complement.
    """
    return induced_rows(rows, neighbourhood(rows, (1 << len(rows)) - 1))


def _member_bipartite_rows(n: int, rows: Sequence[int]) -> bool:
    return bipartition_rows(n, rows) is not None


def _member_perfect_rows(n: int, rows: Sequence[int]) -> bool:
    n, rows = _drop_isolated(rows)
    return _odd_hole_or_antihole(n, rows) is None


def _member_unipolar_rows(n: int, rows: Sequence[int]) -> bool:
    return unipolar_split_rows(n, rows) is not None


def _member_co_unipolar_rows(n: int, rows: Sequence[int]) -> bool:
    n, rows = _drop_isolated(rows)
    return unipolar_split_rows(n, complement_rows(n, rows)) is not None


def _member_gsp_rows(n: int, rows: Sequence[int]) -> bool:
    return _member_unipolar_rows(n, rows) or _member_co_unipolar_rows(n, rows)


# --- per-class witness bodies and their checkers ---

def _ints(x: object) -> bool:
    """x is a list of ints, as a witness field read from JSON must be."""
    return isinstance(x, (list, tuple)) and all(isinstance(v, int) for v in x)


def _bipartite_witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
    sides = is_bipartite(g)
    if sides is None:
        return None
    return {"sides": [bits_of(sides[0]), bits_of(sides[1])]}


def _check_bipartite(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
    sides = witness.get("sides")
    if not isinstance(sides, (list, tuple)) or len(sides) != 2 or not all(map(_ints, sides)):
        return False
    if sorted([*sides[0], *sides[1]]) != list(range(g.n)):
        return False
    side1 = set(sides[1])
    return proper(g.rows, [v in side1 for v in range(g.n)])


def _chi_le_member(spec: ClassSpec) -> MemberFn:
    k = spec.k
    if k == 2:  # the bipartite class: one frontier walk, not a colouring search
        return _member_bipartite_rows
    return lambda n, rows: _color_components(n, rows, k) is not None


def _chi_le_witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
    # a host with an odd cycle fails chi <= 2 at the frontier walk; a
    # bipartite one keeps the DSATUR colouring as its witness
    if spec.k == 2 and bipartition_rows(g.n, g.rows) is None:
        return None
    coloring = _color_components(g.n, g.rows, spec.k)
    return None if coloring is None else {"coloring": list(coloring.colors)}


def _check_chi_le(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
    colors = witness.get("coloring")
    if not _ints(colors) or len(colors) != g.n:
        return False
    if g.n and (min(colors) < 0 or max(colors) >= spec.k):
        return False
    return proper(g.rows, colors)


def _split_body(split: Optional[Tuple[int, List[int]]]) -> Optional[Dict]:
    """The witness body of a split (A mask, cluster masks), None of None."""
    if split is None:
        return None
    a, comps = split
    return {"clique_side": bits_of(a), "clusters": [bits_of(c) for c in comps]}


def _gsp_witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
    res = is_gsp(g)
    return None if res is None else {"branch": res[0], **_split_body(res[1])}


def _digit_sides(digits: Sequence[int]) -> List[List[int]]:
    """The vertices of digit 0 and of digit 1."""
    return [[v for v, d in enumerate(digits) if d == side] for side in (0, 1)]


def _co_bipartite_split(spec: ClassSpec, digits: Sequence[int], clique: Tuple[int, ...]) -> Dict:
    """A part of a base-2 digit cover: each digit's vertices are a clique
    of the part's complement, so one is the clique side and the other the
    only cluster."""
    side, cluster = _digit_sides(digits)
    return {"clique_side": side, "clusters": [cluster]}


def _check_split_witness(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
    a = witness.get("clique_side", [])
    clusters = witness.get("clusters", [])
    if not _ints(a) or not isinstance(clusters, (list, tuple)) or not all(map(_ints, clusters)):
        return False
    flat = list(a) + [v for c in clusters for v in c]
    if len(set(flat)) != len(flat) or set(flat) != set(range(g.n)):
        return False
    a_mask = sum(1 << v for v in a)
    if not is_clique(g.rows, a_mask):
        return False
    # clusters are cliques with no edge between them: N[v] - A is v's own
    for c in clusters:
        c_mask = sum(1 << v for v in c)
        if any((g.rows[v] | 1 << v) & ~a_mask != c_mask for v in c):
            return False
    return True


def _check_co_split_witness(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
    return _check_split_witness(complement(g), spec, witness)


# gsp's witness names the branch that holds; a name that is not a str
# equals none of these, so a malformed branch is rejected, not raised on.
_GSP_BRANCHES = (("unipolar", _check_split_witness), ("co-unipolar", _check_co_split_witness))


def _check_gsp(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
    branch = witness.get("branch")
    return any(branch == name and check(g, spec, witness) for name, check in _GSP_BRANCHES)


# --- the class registry ---

@dataclass(frozen=True)
class Family:
    """A structural route to a class's maximal members inside a host g:
    generate(g) lists their edge masks ascending, as the subset sweep
    does, and work(g, cap) predicts its steps, exact up to cap and above
    cap otherwise, in O(cap); the solver weighs it against the subset
    sweep's 2^m membership tests with cap 2^m.  best(g, within), where
    declared, is (count, mask) for a member inside g holding the most
    edges of the mask within: count is how many it holds, mask its edge
    set; the solver builds greedy covers from it before any family."""

    generate: Callable[[Graph], List[int]]
    work: Callable[[Graph, int], int]
    best: Optional[Callable[[Graph, int], Tuple[int, int]]] = None


DigitWitnessFn = Callable[[ClassSpec, Sequence[int], Tuple[int, ...]], Dict]


@dataclass(frozen=True)
class ClassEntry:
    """Everything the package needs to know about one class.

    member(spec) is membership over raw adjacency rows (n, rows), for tight
    loops; a colouring class's runs its witness's search without building
    the body.  witness(g, spec) is a JSON-ready witness body or None;
    check(g, spec, body) validates a witness body independently.  A
    colouring class declares f(spec), the non-decreasing function that
    defines it as {chi <= f(omega)}; its colour bound, partition route,
    cover formula and construction all follow from f.  param names the
    ClassSpec field the kind takes.

    digit_witness(spec, digits, clique), where declared, is the witness
    body of a part of a digit cover (covers.digit_cover), read off the
    construction with no search: digits[v] is vertex v's digit, a proper
    colouring of the part, and clique is a clique of the part.  For a
    colouring class the digits number at most f(|clique|).

    Every other class lies inside {chi = omega}, so a cover number is at
    least that of {chi = omega}, ceil_log(omega, chi).  One that declares
    digit_witness holds every bipartite graph, witnessed from the two
    digits of a base-2 digit cover, so a cover number is also at most that
    of bipartite, ceil_log(2, chi).  family, where declared, builds the
    class-maximal members of a host from its structure instead of from
    edge subsets.  clique_witness(g, spec), where declared, is
    witness(g, spec) together with the maximum clique of g that the test
    searched on the way, member or not.
    """

    member: Callable[[ClassSpec], MemberFn]
    witness: Callable[[Graph, ClassSpec], Optional[Dict]]
    check: Callable[[Graph, ClassSpec, Dict], bool]
    f: Optional[Callable[[ClassSpec], Callable[[int], int]]] = None
    param: Optional[str] = None
    digit_witness: Optional[DigitWitnessFn] = None
    family: Optional[Family] = None
    clique_witness: Optional[Callable[[Graph, ClassSpec],
                                      Tuple[Optional[Dict], CliqueWitness]]] = None


def _chibound_entry(f_of: Callable[[ClassSpec], FSpec], param: Optional[str]) -> ClassEntry:
    """The class {chi <= f(omega)}, f read off the spec.  The witness
    reports f(omega) only when f is a parameter of the spec."""

    def member(spec: ClassSpec) -> MemberFn:
        f = f_of(spec)
        return lambda n, rows: _chi_le_f(
            n, rows, f, lambda top: (omega_of_rows(n, rows, top), None))[0] is not None

    def body(colors: List[int], clique: List[int], fw: int) -> Dict:
        out = {"coloring": colors, "clique": clique}
        if param is not None:
            out["f_omega"] = fw
        return out

    def clique_witness(g: Graph, spec: ClassSpec) -> Tuple[Optional[Dict], CliqueWitness]:
        coloring, clique, fw = _chi_le_f(g.n, g.rows, f_of(spec), partial(clique_number, g))
        if coloring is None:
            return None, clique
        return body(list(coloring.colors), list(clique.vertices), fw), clique

    def witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
        return clique_witness(g, spec)[0]

    def digit_witness(spec: ClassSpec, digits: Sequence[int], clique: Tuple[int, ...]) -> Dict:
        # the clique is a largest one of the part, or f is flat up to it
        return body(list(digits), list(clique), f_of(spec)(len(clique)))

    def check(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
        colors = witness.get("coloring")
        clique = witness.get("clique")
        if not _ints(colors) or not _ints(clique) or len(colors) != g.n:
            return False
        if g.n == 0:
            return not clique
        if not proper(g.rows, colors):
            return False
        if not clique or not check_clique(g, CliqueWitness(tuple(clique), len(clique))):
            return False
        # omega >= |clique| and f is non-decreasing, so chi <= used <= f(omega);
        # a clique past the end of a table f has no bound to meet
        try:
            return len(set(colors)) <= f_of(spec)(len(clique))
        except ValueError:
            return False

    return ClassEntry(member, witness, check, f_of, param, digit_witness,
                      clique_witness=clique_witness)


def _flat(k: int) -> Callable[[int], int]:
    return lambda omega: k


# Unipolar and co-unipolar graphs are perfect, so they and gsp have chi =
# omega; the complement of a bipartite graph is unipolar (two cliques), but
# C6 is bipartite and not unipolar.
CLASSES: Dict[str, ClassEntry] = {
    "bipartite": ClassEntry(
        lambda spec: _member_bipartite_rows, _bipartite_witness, _check_bipartite,
        f=lambda spec: _flat(2),
        digit_witness=lambda spec, digits, clique: {"sides": _digit_sides(digits)},
    ),
    "chi-le": ClassEntry(
        _chi_le_member, _chi_le_witness, _check_chi_le, f=lambda spec: _flat(spec.k), param="k",
        digit_witness=lambda spec, digits, clique: {"coloring": list(digits)},
    ),
    "chi-le-f": _chibound_entry(lambda spec: spec.f, param="f"),
    "chi-eq-omega": _chibound_entry(lambda spec: IDENTITY, param=None),
    "perfect": ClassEntry(
        lambda spec: _member_perfect_rows,
        lambda g, spec: {} if is_perfect(g)[0] else None,
        lambda g, spec, witness: is_perfect(g)[0],
        digit_witness=lambda spec, digits, clique: {},
    ),
    "unipolar": ClassEntry(
        lambda spec: _member_unipolar_rows,
        lambda g, spec: _split_body(is_unipolar(g)),
        _check_split_witness,
        family=Family(unipolar_family, unipolar_work, unipolar_best),
    ),
    "co-unipolar": ClassEntry(
        lambda spec: _member_co_unipolar_rows,
        lambda g, spec: _split_body(is_co_unipolar(g)),
        _check_co_split_witness,
        digit_witness=_co_bipartite_split,
        family=Family(co_unipolar_family, co_unipolar_work),
    ),
    # the inclusion-maximal members of either branch's family
    "gsp": ClassEntry(
        lambda spec: _member_gsp_rows, _gsp_witness, _check_gsp,
        digit_witness=lambda spec, digits, clique: {
            "branch": "co-unipolar", **_co_bipartite_split(spec, digits, clique)},
        family=Family(
            lambda g: maximal_masks([*unipolar_family(g), *co_unipolar_family(g)]),
            lambda g, cap: unipolar_work(g, cap) + co_unipolar_work(g, cap),
        ),
    ),
}

CLASS_KINDS = tuple(CLASSES)


def membership_fn(spec: ClassSpec) -> MemberFn:
    """Boolean membership over raw adjacency rows, for tight loops."""
    return CLASSES[spec.kind].member(spec)


def in_class(g: Graph, spec: ClassSpec,
             cliques: Optional[List[CliqueWitness]] = None) -> Optional[Dict]:
    """Membership witness as a JSON-ready dict, or None if not a member.

    Where cliques is given and the class's test searches the maximum
    clique of g (ClassEntry.clique_witness), that clique is appended to
    it, member or not, so that a caller needing it next (the solver's
    formula cover) does not search again."""
    entry = CLASSES[spec.kind]
    if cliques is not None and entry.clique_witness is not None:
        body, clique = entry.clique_witness(g, spec)
        cliques.append(clique)
    else:
        body = entry.witness(g, spec)
    return None if body is None else {"class": str(spec), **body}


def check_witness(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
    """Independent witness validation; everything but perfect is polynomial.
    A malformed witness is rejected, not raised on."""
    return (
        isinstance(witness, dict)
        and witness.get("class") == str(spec)
        and CLASSES[spec.kind].check(g, spec, witness)
    )


def class_f(spec: ClassSpec) -> Optional[Callable[[int], int]]:
    """The f of a colouring class {chi <= f(omega)}; None for the others."""
    f_of = CLASSES[spec.kind].f
    return None if f_of is None else f_of(spec)


def flat_upto(f: Callable[[int], int], x: int) -> bool:
    """f(1) >= f(x), so a non-decreasing f is constant on 1..x; False
    where f(x) is undefined, past the end of a lookup table."""
    try:
        return f(1) >= f(x)
    except ValueError:
        return False


def color_bound(g: Graph, spec: ClassSpec, n_active: int) -> Optional[int]:
    """Most colours a maximal member of a colouring class inside g can
    need, given g's count of non-isolated vertices; None for the others."""
    f = class_f(spec)
    if f is None:
        return None
    cap = max(n_active, 1)
    # omega <= cap, so an f flat up to cap needs no clique search
    omega = 1 if flat_upto(f, cap) else max(omega_of_rows(g.n, g.rows), 1)
    return min(f(omega), cap)
