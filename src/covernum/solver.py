"""Exact minimum cover numbers: bounds first, enumeration where they differ.

A host that is a member covers itself with one part: the class's own
witness search (recognizers.in_class) decides membership, and its witness
is the part's, so a perfect host keeps is_perfect's vertex cap.  Any
other host with an edge needs two parts or more, and every accepted class
holds the single-edge graph (recognizers.ClassSpec), so each edge lies in
a member.  The bounds step then tries the paper's results before any
enumeration.  A colouring class {chi <= f(omega)} has the exact cover
number ceil_log(f(omega), chi), certified by the formula cover (method
"formula").  Every other class lies inside {chi = omega}, so its cover
number is at least max(2, ceil_log(omega, chi)); a class whose registry
entry witnesses the parts of a base-2 digit cover holds every bipartite
graph, so it is also covered by ceil_log(2, chi) parts, and where the two
bounds meet the bipartite formula cover's parts, witnessed for the class
from their bipartitions, settle it (method "bounds").

The formula needs only which range (b^(t-1), b^t] chi lies in, b the
base f(omega), not chi itself.  The formula cover's colouring starts
from first fit and asks for b^(t-1) colours until a search fails
(invariants.bracket_coloring); the failed host test has already shown
chi > b, so two digits need no search.  A class that holds every
bipartite graph is settled at 2 from a first-fit colouring with at most
4 colours (the host is not bipartite, so chi is 3 or 4), with no clique
search; on other hosts the bounds take omega and the exact chi.  A host
whose bounds cannot meet and whose sweep is over the edge budget fails
before the exact chromatic number is computed.

A class whose registry family declares best (unipolar, which no formula
bounds from above) is bounded by counting instead, on hosts within the
edge budget: with M the most edges of a member inside g, the cover
number is at least max(2, ceil(m / M)).  A greedy cover takes best's
member as its first part and then, while edges stay uncovered, either
those edges, where they alone are a member, or the member holding the
most of them; where its part count meets the lower bound it settles the
host (method "greedy"), and otherwise the solver sweeps as below.

Otherwise the solver sweeps: any cover part extends to a subgraph that is
maximal within the class (classes here are not all closed under edge
deletion, so maximal means "no proper superset is a member", not "adding
any one edge leaves").  The minimum cover therefore equals minimum set
cover over the family of class-maximal edge subsets, which branch and
bound settles quickly at desk scale.  The edge budget guards only this
sweep.  `sweep_cover_number` skips the bounds step, so the verify suites
compare the sweep with the formulas.

Three family generators, all exact:

* subset sweep, for every class: test every edge subset (gray-code
  incremental adjacency) into one table, then a downward DP turns each
  entry, once read, into "some superset is a member".  Predicted work 2^m
  membership tests.
* partition sweep, for the colouring classes (bipartite, chi-le,
  chi-le-f, chi-eq-omega): a maximal member M with color bound b carries
  a proper coloring c with at most b colors, and the bichromatic edge
  set of c is a member containing M, hence equal to M.  So maximal
  members all arise as bichromatic sets of vertex partitions into at
  most f(omega(G)) blocks, of which there are far fewer than 2^m on
  dense graphs.  The vertices are placed one at a time, each adding its
  bichromatic edges back to earlier vertices, so a partition's edge set
  is built as it is.  Predicted work: the number of those partitions.
* structural, for the classes whose registry entry declares a family
  (unipolar, co-unipolar, and gsp as their union): the maximal members
  are built from cliques and vertex sets of the host (see
  covernum.structural), and the entry predicts the work.

Each route a class has predicts its work on the host, and the cheapest
prediction runs, the earlier route in the list above winning ties; the
edge budget gates every route alike.  A structural prediction is capped
at the subset sweep's 2^m, exact up to it and only known to be larger
past it, so it costs O(2^m) at most and a structural route still wins
exactly when its work is at most 2^m.  The generators agree (tested).

The sweeps test membership without witnesses (membership_fn); a swept
cover's certificate comes from covers.witnessed_cover, which witnesses
each part.  `max_class_subgraph_size` asks a class's family for best
where it declares one (unipolar), instead of building the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .covers import CoverCertificate, digit_cover, digit_layout, witnessed_cover
from .graphs import EdgeSet, Graph, bits_of, edge_index, mask_rows
from .invariants import ceil_log, chromatic_number, first_fit_coloring, omega_of_rows
from .recognizers import CLASSES, ClassSpec, class_f, color_bound, in_class, membership_fn
from .structural import maximal_masks

# Unused here: bench/tracing.py hooks this name on this module.
from .graphs import spanning_subgraph  # noqa: F401


class BudgetError(RuntimeError):
    """Instance exceeds the configured enumeration budget."""


@dataclass(frozen=True)
class SolveBudget:
    max_edges: int = 22  # subset sweep cap: 2^22 membership tests worst case

    def __post_init__(self) -> None:
        if self.max_edges < 0:
            raise ValueError(f"edge budget must be >= 0, got {self.max_edges}")


@dataclass
class SolveStats:
    family_size: int = 0
    nodes: int = 0
    method: str = ""


@dataclass
class SolveResult:
    value: int
    certificate: CoverCertificate
    stats: SolveStats


def _partitions_upto(n: int, k: int) -> int:
    """Number of set partitions of n elements into at most k blocks."""
    if n == 0:
        return 1
    row = [0] * (k + 1)
    row[0] = 1  # S(0, 0)
    for _ in range(n):
        nxt = [0] * (k + 1)
        for j in range(1, k + 1):
            nxt[j] = j * row[j] + row[j - 1]
        row = nxt
    return sum(row)


def _partition_family(
    g: Graph, spec: ClassSpec, bound: int, active: List[int]
) -> List[int]:
    """Candidate masks from vertex partitions, membership-filtered unless
    every candidate is a member by construction.

    The active vertices are placed in order, each into a block already
    used or the next one, up to bound blocks; a vertex adds its edges back
    to earlier vertices in other blocks as it is placed."""
    pos = {v: i for i, v in enumerate(active)}
    back: List[List[Tuple[int, int]]] = [[] for _ in active]
    for j, (u, v) in enumerate(edge_index(g)):
        back[pos[v]].append((pos[u], 1 << j))
    block = [0] * len(active)
    masks: Set[int] = set()

    def place(i: int, used: int, mask: int) -> None:
        if i == len(active):
            masks.add(mask)
            return
        for b in range(min(used + 1, bound)):
            block[i] = b
            cut = mask
            for k, bit in back[i]:
                if block[k] != b:
                    cut |= bit
            place(i + 1, max(used, b + 1), cut)

    place(0, 0, 0)
    # A candidate's partition colours it with at most bound colours, and
    # bound <= f(1) <= f(omega(candidate)) makes it a member.
    if class_f(spec)(1) < bound:
        member = membership_fn(spec)
        masks = {mask for mask in masks if member(g.n, mask_rows(g, mask))}
    return maximal_masks(masks)


def _subset_family(g: Graph, spec: ClassSpec) -> List[int]:
    """Full sweep over edge subsets, then keep class-maximal ones."""
    idx = edge_index(g)
    m = len(idx)
    member_fn = membership_fn(spec)
    n = g.n
    rows = [0] * n
    total = 1 << m
    member = bytearray(total)
    member[0] = 1 if member_fn(n, rows) else 0
    prev = 0
    for i in range(1, total):
        gray = i ^ (i >> 1)
        diff = gray ^ prev
        j = diff.bit_length() - 1
        u, v = idx[j]
        if gray & diff:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        member[gray] = 1 if member_fn(n, rows) else 0
        prev = gray
    # Falling s visits every superset of s first, so once member[s] is read
    # it can hold "some superset of s (possibly s itself) is a member".
    full = total - 1
    maximal: List[int] = []
    for s in range(full, -1, -1):
        rem = full & ~s
        above = 0
        while rem:
            b = rem & -rem
            rem ^= b
            if member[s | b]:
                above = 1
                break
        if member[s]:
            if not above:
                maximal.append(s)
        else:
            member[s] = above
    maximal.reverse()
    return maximal


def _over_budget(g: Graph, budget: SolveBudget) -> BudgetError:
    return BudgetError(
        f"{g.edge_count} edges exceed the enumeration budget of {budget.max_edges}"
    )


def _cheapest_route(g: Graph, spec: ClassSpec) -> Tuple[str, Callable[[], List[int]]]:
    """(method, generator) of the class's route with the least predicted
    work on g; ties go to the earlier of partition, structural, subset."""
    active = [v for v in range(g.n) if g.rows[v]]
    routes: List[Tuple[int, str, Callable[[], List[int]]]] = []
    bound = color_bound(g, spec, len(active))
    if bound is not None:
        routes.append((_partitions_upto(len(active), bound), "partition",
                       lambda: _partition_family(g, spec, bound, active)))
    family = CLASSES[spec.kind].family
    if family is not None:
        routes.append((family.work(g, 1 << g.edge_count), "structural",
                       lambda: family.generate(g)))
    routes.append((1 << g.edge_count, "subset", lambda: _subset_family(g, spec)))
    _, method, generate = min(routes, key=lambda route: route[0])
    return method, generate


def family_maximal_masks(g: Graph, spec: ClassSpec, budget: SolveBudget) -> Tuple[List[int], str]:
    """The class-maximal edge masks of g, ascending, and the method of the
    route that built them."""
    if g.edge_count > budget.max_edges:
        raise _over_budget(g, budget)
    method, generate = _cheapest_route(g, spec)
    return generate(), method


def maximal_class_subgraphs(
    g: Graph, spec: ClassSpec, budget: SolveBudget = SolveBudget()
) -> List[EdgeSet]:
    """All edge sets maximal within the class, ascending by mask."""
    masks, _ = family_maximal_masks(g, spec, budget)
    return [EdgeSet(g, mask) for mask in masks]


def _min_set_cover(
    universe: int, sets: List[int], cap: Optional[int], stats: SolveStats
) -> Optional[List[int]]:
    """Smallest selection of sets covering the universe, or None under cap.
    The universe is non-empty and the sets cover it.

    Branches on the uncovered element in fewest sets; prunes with the
    greedy upper bound and a coverage-ratio lower bound.
    """
    elems = bits_of(universe)
    covering: Dict[int, List[int]] = {e: [] for e in elems}
    for i, s in enumerate(sets):
        for e in elems:
            if s >> e & 1:
                covering[e].append(i)

    # greedy upper bound, most new coverage first, ties to the lower index
    unc = universe
    greedy: List[int] = []
    while unc:
        best_i = -1
        best_cov = 0
        for i, s in enumerate(sets):
            cov = (s & unc).bit_count()
            if cov > best_cov:
                best_cov = cov
                best_i = i
        greedy.append(best_i)
        unc &= ~sets[best_i]
    limit = len(greedy) if cap is None else min(len(greedy), cap)
    best = greedy if len(greedy) <= limit else None

    chosen: List[int] = []

    def dfs(unc: int) -> None:
        nonlocal best, limit
        stats.nodes += 1
        if unc == 0:
            best = list(chosen)
            limit = len(best) - 1
            return
        if len(chosen) > limit - 1:
            return
        maxcov = 0
        for i in range(len(sets)):
            cov = (sets[i] & unc).bit_count()
            if cov > maxcov:
                maxcov = cov
        need = -(-unc.bit_count() // maxcov)
        if len(chosen) + need > limit:
            return
        pick = -1
        fewest = None
        m = unc
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            k = len(covering[e])
            if fewest is None or k < fewest:
                fewest = k
                pick = e
        for i in covering[pick]:
            chosen.append(i)
            dfs(unc & ~sets[i])
            chosen.pop()

    dfs(universe)  # records only covers of at most limit <= cap sets
    return best


Settled = Optional[Tuple[str, Callable[[], CoverCertificate]]]


def _greedy_bounds(g: Graph, spec: ClassSpec,
                   best: Callable[[Graph, int], Tuple[int, int]]) -> Tuple[int, Settled]:
    """The counting lower bound max(2, ceil(m / M)), M the most edges of a
    member inside g, and where a greedy cover meets it, that cover: each
    part is the member holding the most uncovered edges, until the
    uncovered edges alone are a member and make the last part."""
    full = (1 << g.edge_count) - 1
    most, part = best(g, full)
    lower = max(2, -(-g.edge_count // most))
    member = membership_fn(spec)
    parts = [part]
    uncovered = full & ~part
    while uncovered:
        if len(parts) == lower:
            return lower, None
        if member(g.n, mask_rows(g, uncovered)):
            part = uncovered
        else:
            part = best(g, uncovered)[1]
        parts.append(part)
        uncovered &= ~part
    return lower, ("greedy", lambda: witnessed_cover(g, spec, parts))


def _bounds(g: Graph, spec: ClassSpec, cap: Optional[int],
            budget: SolveBudget) -> Tuple[int, Settled]:
    """(lower, settled) for g, a host with an edge outside the class: lower
    bounds the cover number, and where an upper bound meets it, settled is
    (method, maker of a cover by lower parts); otherwise None."""
    if class_f(spec) is not None:
        # outside the class chi > f(omega), the base: two digits at least
        coloring, base, clique = digit_layout(g, spec, floor=2)
        value = ceil_log(base, coloring.count)
        return value, ("formula", lambda: digit_cover(g, spec, coloring, base, clique))
    entry = CLASSES[spec.kind]
    best = entry.family and entry.family.best
    if best is not None and g.edge_count <= budget.max_edges:
        return _greedy_bounds(g, spec, best)
    # a class that witnesses base-2 digit parts holds every bipartite graph
    holds_bipartite = entry.digit_witness is not None
    first_fit = first_fit_coloring(g.n, g.rows)
    if holds_bipartite and first_fit.count <= 4:
        # g is not bipartite, so 3 <= chi <= 4: both bounds are 2
        return 2, ("bounds", lambda: digit_cover(g, spec, first_fit, 2, ()))
    omega = omega_of_rows(g.n, g.rows)
    if g.edge_count > budget.max_edges:
        # First fit bounds chi, and so the lower bound, from above; the upper
        # bound is at least ceil_log(2, omega).  Where they cannot meet and
        # the lower one cannot answer cap, only the sweep could: fail before
        # the exponential chromatic number.
        most = max(2, ceil_log(omega, first_fit.count))
        may_meet = holds_bipartite and ceil_log(2, omega) <= most
        if not may_meet and (cap is None or cap >= most):
            raise _over_budget(g, budget)
    chi, coloring = chromatic_number(g)
    lower = max(2, ceil_log(omega, chi))
    if not holds_bipartite or ceil_log(2, chi) != lower:
        return lower, None
    return lower, ("bounds", lambda: digit_cover(g, spec, coloring, 2, ()))


def _solve(
    g: Graph, spec: ClassSpec, cap: Optional[int], budget: SolveBudget, stats: SolveStats,
    bounded: bool = True,
) -> Optional[CoverCertificate]:
    """Smallest cover of g with at most cap parts (None: no cap), or None.
    bounded=False skips the bounds step and always sweeps."""
    m = g.edge_count
    if m == 0:
        return CoverCertificate(g, spec, (), (), 0)
    if cap is not None and cap < 1:
        return None
    universe = (1 << m) - 1
    # A member host covers itself; one part is the floor for any graph
    # with an edge, so skip the family sweep entirely.  The class's own
    # witness search decides, and its witness is the one part's.
    witness = in_class(g, spec)
    if witness is not None:
        stats.family_size = 1
        stats.method = "host-member"
        return CoverCertificate(g, spec, (EdgeSet(g, universe),), (witness,), 1)
    if cap is not None and cap < 2:  # the floor of two
        return None
    if bounded:
        lower, settled = _bounds(g, spec, cap, budget)
        if cap is not None and cap < lower:
            return None
        if settled is not None:
            stats.method, cover = settled
            return cover()
    family, stats.method = family_maximal_masks(g, spec, budget)
    stats.family_size = len(family)
    picked = _min_set_cover(universe, family, cap, stats)
    if picked is None:
        return None
    return witnessed_cover(g, spec, sorted(family[i] for i in picked))


def exact_cover_number(
    g: Graph, spec: ClassSpec, budget: SolveBudget = SolveBudget()
) -> SolveResult:
    """Minimum number of class members whose union is E(g), certified."""
    stats = SolveStats()
    cert = _solve(g, spec, None, budget, stats)
    return SolveResult(len(cert.parts), cert, stats)


def sweep_cover_number(
    g: Graph, spec: ClassSpec, budget: SolveBudget = SolveBudget()
) -> SolveResult:
    """exact_cover_number without the bounds step: the host-member shortcut,
    then the maximal family and branch and bound.  Enumeration only, so it
    can be checked against the formulas."""
    stats = SolveStats()
    cert = _solve(g, spec, None, budget, stats, bounded=False)
    return SolveResult(len(cert.parts), cert, stats)


def decide_cover(
    g: Graph, spec: ClassSpec, k: int, budget: SolveBudget = SolveBudget()
) -> Optional[CoverCertificate]:
    """A cover with at most k parts, or None if none exists."""
    if k < 0:
        return None
    return _solve(g, spec, k, budget, SolveStats())


def max_class_subgraph_size(
    g: Graph, spec: ClassSpec, budget: SolveBudget = SolveBudget()
) -> int:
    """Most edges of any class member inside g.

    A class whose registry family declares best (unipolar) answers by it,
    past the edge budget too while the family's predicted work stays
    within 2^max_edges; every other class reads off the maximal family.
    """
    family = CLASSES[spec.kind].family
    best = family and family.best
    if best is not None:
        cap = 1 << budget.max_edges
        if g.edge_count > budget.max_edges and family.work(g, cap) > cap:
            raise _over_budget(g, budget)
        return best(g, (1 << g.edge_count) - 1)[0]
    masks, _ = family_maximal_masks(g, spec, budget)
    return max((mask.bit_count() for mask in masks), default=0)
