"""Membership tests for the covered graph classes, with checkable witnesses.

Classes: bipartite, chi-le:k, chi-le-f:<f>, chi-eq-omega, perfect,
unipolar, co-unipolar and gsp (unipolar or co-unipolar).  Recognition is
exact; perfection goes through the absence of odd holes in the graph and
its complement, everything else through explicit search.  Odd holes are
found by growing chordless paths from each hole's least vertex; the
witness is the shortest odd hole, the lexicographically least vertex set
of that length, and the graph is searched before its complement.

Each class is declared once, as an entry of the CLASSES registry; spec
parsing, membership, witnesses, witness checks and, for the colouring
classes {chi <= f(omega)}, the function f are all lookups into it.  The
other classes lie inside {chi = omega} and declare there whether they hold
every bipartite graph, which bounds their cover numbers; the split classes
(unipolar, co-unipolar, gsp) also declare a structural family, which
builds their maximal members inside a host for the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    bits_of,
    complement,
    complement_rows,
    induced_rows,
    is_clique,
    neighbourhood,
    proper,
)
from .invariants import (
    CliqueWitness,
    Coloring,
    check_clique,
    clique_number,
    k_colorable_rows,
    omega_of_rows,
)
from .structural import (
    co_unipolar_family,
    co_unipolar_work,
    maximal_masks,
    unipolar_family,
    unipolar_work,
)

# is_perfect near the cap, measured on a 2-vCPU Intel Xeon with Python
# 3.11: K_{13,13} 0.5 ms, the 5x5 grid 0.8 ms, random half-bipartite
# hosts (13 + 13 vertices, half the cross pairs) 1.5-1.7 ms.
PERFECT_MAX_VERTICES = 26

# Each form of f: (f(spec, x), least c), where c is the spec's value, or
# for a table its count of values.  Only a table can break monotonicity or
# fall below the identity, so only its values need checking.
_F_FORMS: Dict[str, Tuple[Callable[["FSpec", int], int], int]] = {
    "identity": (lambda f, x: x, 0),
    "plus": (lambda f, x: x + f.value, 0),
    "pow": (lambda f, x: x ** f.value, 1),
    "const": (lambda f, x: f.value, 2),
    "table": (lambda f, x: f.table[x - 1], 1),
}


@dataclass(frozen=True)
class FSpec:
    """Clique bound function f on 1..MAX_VERTICES (a table: 1..its length).

    Forms: identity, plus (x + c), pow (x ** a), const (k), table (explicit
    values for x = 1..len).  All forms must be non-decreasing and, except
    for const, must majorize the identity; const is flagged non-majorizing
    and needs k >= 2, below which no graph with an edge is a member.  f is
    evaluated only when called, so a huge constant costs nothing to parse.
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

    @property
    def majorizes_identity(self) -> bool:
        return self.form != "const"

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
        if entry.param == "k" and self.k < 1:
            raise ValueError(f"{self.kind} requires k >= 1")
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
    """If every component is a clique, the component masks; else None."""
    if _find_p3(rows, (1 << n) - 1) is not None:
        return None
    comps = []
    seen = 0
    for v in range(n):
        if seen >> v & 1:
            continue
        comp = (1 << v) | rows[v]
        comps.append(comp)
        seen |= comp
    return comps


def is_cluster(g: Graph) -> Optional[List[int]]:
    """Component masks if g is a disjoint union of cliques, else None.

    The empty graph yields [], so test against None, not truthiness.
    """
    return cluster_components(g.n, g.rows)


def _find_p3(rows: Sequence[int], active: int) -> Optional[Tuple[int, int, int]]:
    """First induced path u-b-w inside the active mask, by vertex order."""
    rest = active
    while rest:
        b = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        nb = rows[b] & active
        m = nb
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            others = nb & ~rows[u] & ~((1 << (u + 1)) - 1)
            if others:
                w = (others & -others).bit_length() - 1
                return (u, b, w)
    return None


def unipolar_split_rows(n: int, rows: Sequence[int]) -> Optional[int]:
    """Clique side A (as a mask) such that the rest is a cluster, or None.

    Every induced P3 of the cluster side must lose a vertex to A, and A
    stays pairwise adjacent, so branch three ways on the first P3 found.
    """
    full = (1 << n) - 1
    seen = set()

    def rec(a_mask: int) -> Optional[int]:
        if a_mask in seen:
            return None
        seen.add(a_mask)
        rest = full & ~a_mask
        p3 = _find_p3(rows, rest)
        if p3 is None:
            return a_mask
        for v in sorted(p3):
            if rows[v] & a_mask == a_mask:
                res = rec(a_mask | (1 << v))
                if res is not None:
                    return res
        return None

    return rec(0)


def is_unipolar(g: Graph) -> Optional[Tuple[int, List[int]]]:
    """(A mask, cluster component masks) or None."""
    a = unipolar_split_rows(g.n, g.rows)
    if a is None:
        return None
    rest_rows = [g.rows[v] & ~a if not a >> v & 1 else 0 for v in range(g.n)]
    comps = cluster_components(g.n, rest_rows)
    assert comps is not None
    comps = [c for c in comps if c & ~a]
    return a, comps


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
    """(coloring, max clique, f(omega)) if chi(g) <= f(omega(g)), else None."""
    if g.n == 0:
        return Coloring((), 0), CliqueWitness((), 0), 0
    w, clique = clique_number(g)
    fw = f(w)
    sol = k_colorable_rows(g.n, g.rows, fw)
    if sol is None:
        return None
    return Coloring(tuple(sol), max(sol) + 1), clique, fw


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
    scanned before its complement; None when the graph is perfect."""
    hole = find_odd_hole(n, rows)
    if hole is not None:
        return "odd-hole", hole
    hole = find_odd_hole(n, complement_rows(n, rows))
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
    active = 0
    for r in rows:
        active |= r
    return induced_rows(rows, active)


def _member_bipartite_rows(n: int, rows: Sequence[int]) -> bool:
    return bipartition_rows(n, rows) is not None


def _member_perfect_rows(n: int, rows: Sequence[int]) -> bool:
    n, rows = _drop_isolated(rows)
    return _odd_hole_or_antihole(n, rows) is None


def _member_unipolar_rows(n: int, rows: Sequence[int]) -> bool:
    return unipolar_split_rows(n, rows) is not None


def _member_chi_le_f_rows(n: int, rows: Sequence[int], f: FSpec) -> bool:
    if n == 0:
        return True
    fw = f(omega_of_rows(n, rows))
    return fw >= n or k_colorable_rows(n, rows, fw) is not None


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
    return lambda n, rows: k_colorable_rows(n, rows, k) is not None


def _chi_le_witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
    sol = k_colorable_rows(g.n, g.rows, spec.k)
    return None if sol is None else {"coloring": sol}


def _check_chi_le(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
    colors = witness.get("coloring")
    if not _ints(colors) or len(colors) != g.n:
        return False
    if g.n and (min(colors) < 0 or max(colors) >= spec.k):
        return False
    return proper(g.rows, colors)


def _split_witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
    res = is_unipolar(g)
    if res is None:
        return None
    a, comps = res
    return {"clique_side": bits_of(a), "clusters": [bits_of(c) for c in comps]}


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


# --- the class registry ---

@dataclass(frozen=True)
class Family:
    """A structural route to a class's maximal members inside a host g:
    generate(g) lists their edge masks ascending, as the subset sweep
    does, and work(g, cap) predicts its steps, exact up to cap and above
    cap otherwise, in O(cap); the solver weighs it against the subset
    sweep's 2^m membership tests with cap 2^m."""

    generate: Callable[[Graph], List[int]]
    work: Callable[[Graph, int], int]


@dataclass(frozen=True)
class ClassEntry:
    """Everything the package needs to know about one class.

    member(spec) is membership over raw adjacency rows (n, rows), for tight
    loops; witness(g, spec) is a JSON-ready witness body or None;
    check(g, spec, body) validates a witness body independently.  A
    colouring class declares f(spec), the non-decreasing function that
    defines it as {chi <= f(omega)}; its colour bound, partition route,
    cover formula and construction all follow from f.  param names the
    ClassSpec field the kind takes.

    Every other class lies inside {chi = omega}, so a cover number is at
    least that of {chi = omega}, ceil_log(omega, chi).  holds_bipartite:
    every bipartite graph is a member, so a cover number is also at most
    that of bipartite, ceil_log(2, chi), and the bipartite formula cover's
    parts are members.  family, where declared, builds the class-maximal
    members of a host from its structure instead of from edge subsets.
    """

    member: Callable[[ClassSpec], MemberFn]
    witness: Callable[[Graph, ClassSpec], Optional[Dict]]
    check: Callable[[Graph, ClassSpec, Dict], bool]
    f: Optional[Callable[[ClassSpec], Callable[[int], int]]] = None
    param: Optional[str] = None
    holds_bipartite: bool = False
    family: Optional[Family] = None


def _chibound_entry(f_of: Callable[[ClassSpec], FSpec], param: Optional[str]) -> ClassEntry:
    """The class {chi <= f(omega)}, f read off the spec.  The witness
    reports f(omega) only when f is a parameter of the spec."""

    def member(spec: ClassSpec) -> MemberFn:
        f = f_of(spec)
        return lambda n, rows: _member_chi_le_f_rows(n, rows, f)

    def witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
        res = is_chi_le_f(g, f_of(spec))
        if res is None:
            return None
        coloring, clique, fw = res
        body = {"coloring": list(coloring.colors), "clique": list(clique.vertices)}
        if param is not None:
            body["f_omega"] = fw
        return body

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

    return ClassEntry(member, witness, check, f_of, param)


def _complement_entry(base: ClassEntry) -> ClassEntry:
    """Graphs whose complement lies in base.  Membership drops isolated
    vertices first, which must be sound for base: they turn into universal
    vertices of the complement."""

    def member(spec: ClassSpec) -> MemberFn:
        inner = base.member(spec)

        def co_member(n: int, rows: Sequence[int]) -> bool:
            n, rows = _drop_isolated(rows)
            return inner(n, complement_rows(n, rows))

        return co_member

    return ClassEntry(
        member,
        lambda g, spec: base.witness(complement(g), spec),
        lambda g, spec, witness: base.check(complement(g), spec, witness),
    )


def _union_entry(first: str, second: str) -> ClassEntry:
    """Graphs in either registered class; the witness names the branch
    that holds, trying first before second.  Both classes must declare a
    family: the union's maximal members are the inclusion-maximal ones of
    both families together."""

    def member(spec: ClassSpec) -> MemberFn:
        a, b = CLASSES[first].member(spec), CLASSES[second].member(spec)
        return lambda n, rows: a(n, rows) or b(n, rows)

    def witness(g: Graph, spec: ClassSpec) -> Optional[Dict]:
        for kind in (first, second):
            body = CLASSES[kind].witness(g, spec)
            if body is not None:
                return {"branch": kind, **body}
        return None

    def check(g: Graph, spec: ClassSpec, witness: Dict) -> bool:
        kind = witness.get("branch")
        return kind in (first, second) and CLASSES[kind].check(g, spec, witness)

    def families() -> Tuple[Family, ...]:
        return tuple(CLASSES[kind].family for kind in (first, second))

    family = Family(
        lambda g: maximal_masks(mask for part in families() for mask in part.generate(g)),
        lambda g, cap: sum(part.work(g, cap) for part in families()),
    )
    return ClassEntry(member, witness, check, family=family)


def _flat(k: int) -> Callable[[int], int]:
    return lambda omega: k


# Unipolar and co-unipolar graphs are perfect, so they and gsp have chi =
# omega; the complement of a bipartite graph is unipolar (two cliques), but
# C6 is bipartite and not unipolar.
_UNIPOLAR = ClassEntry(
    lambda spec: _member_unipolar_rows, _split_witness, _check_split_witness,
    family=Family(unipolar_family, unipolar_work),
)

CLASSES: Dict[str, ClassEntry] = {
    "bipartite": ClassEntry(
        lambda spec: _member_bipartite_rows, _bipartite_witness, _check_bipartite,
        f=lambda spec: _flat(2),
    ),
    "chi-le": ClassEntry(
        _chi_le_member, _chi_le_witness, _check_chi_le, f=lambda spec: _flat(spec.k), param="k",
    ),
    "chi-le-f": _chibound_entry(lambda spec: spec.f, param="f"),
    "chi-eq-omega": _chibound_entry(lambda spec: IDENTITY, param=None),
    "perfect": ClassEntry(
        lambda spec: _member_perfect_rows,
        lambda g, spec: {} if is_perfect(g)[0] else None,
        lambda g, spec, witness: is_perfect(g)[0],
        holds_bipartite=True,
    ),
    "unipolar": _UNIPOLAR,
    "co-unipolar": replace(
        _complement_entry(_UNIPOLAR), holds_bipartite=True,
        family=Family(co_unipolar_family, co_unipolar_work),
    ),
    "gsp": replace(_union_entry("unipolar", "co-unipolar"), holds_bipartite=True),
}

CLASS_KINDS = tuple(CLASSES)


def membership_fn(spec: ClassSpec) -> MemberFn:
    """Boolean membership over raw adjacency rows, for tight loops."""
    return CLASSES[spec.kind].member(spec)


def in_class(g: Graph, spec: ClassSpec) -> Optional[Dict]:
    """Membership witness as a JSON-ready dict, or None if not a member."""
    body = CLASSES[spec.kind].witness(g, spec)
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
