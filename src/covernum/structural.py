"""Class-maximal edge sets built from a class's structure.

The solver needs every edge subset of a host G that is maximal within a
class.  Testing all 2^m subsets finds them for any class; for the split
classes the structure of a member names them directly, at a cost that
depends on the vertices and cliques of G rather than on m.  Both
generators below work on the non-isolated vertices of G only and return
the masks ascending, as the subset sweep does.

* unipolar: a member is a clique A plus a disjoint union of cliques on
  the rest, so it lies inside the edge set that keeps every G-edge
  touching A and every G-edge inside a block of a partition of V - A into
  cliques of G, and that edge set is a member.  Growing A by a vertex
  adjacent to all of it only adds edges, so A ranges over the maximal
  cliques of G; the maximal cluster edge sets of each remaining vertex set
  are memoised, and each vertex's list of the cliques it is least in is
  built once per call and filtered to the vertex set at hand.
  `unipolar_best` keeps only each set's best cluster edge set, counted
  inside a given edge mask; over all of G's edges that is the most edges
  of a unipolar subgraph.
* co-unipolar: the complement of a member is unipolar, so a member is an
  independent set A plus a complete multipartite graph on the rest.  Its
  parts must hold every non-edge of G between rest vertices, so the
  finest parts are the components of complement(G)[V - A], and each A
  fixes one maximal candidate: the G-edges between A and the rest and
  those between different components.  Every vertex set is a candidate A.
  The components come from `graphs.components` on complement(G), and
  the edges touching A or a component are `graphs.neighbourhood` over
  the vertices' incident edge masks.

`maximal_masks`, the structural and partition routes' sink, finds the
inclusion-maximal masks of a list through an inverted index from each edge
to the kept masks that hold it.  The subset sweep keeps its bytearray DP:
at m = 22 its members could be 4M Python ints, its one bytearray takes 4 MB.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graphs import Graph, components, edge_index, neighbourhood, relabel_rows


def maximal_masks(masks: Iterable[int]) -> List[int]:
    """The inclusion-maximal masks among masks, ascending, each once.

    Masks are visited by falling size, so a mask has a proper superset
    exactly when some kept mask holds all its bits; holders[j] marks, one
    bit per kept mask, the kept masks that hold bit j.
    """
    uniq = sorted(set(masks), key=lambda s: (-s.bit_count(), s))
    holders = [0] * max((s.bit_length() for s in uniq), default=0)
    keep: List[int] = []
    kept = 0  # one bit per kept mask
    for s in uniq:
        over = kept
        m = s
        while m and over:
            b = m & -m
            m ^= b
            over &= holders[b.bit_length() - 1]
        if over:
            continue
        bit = 1 << len(keep)
        keep.append(s)
        kept |= bit
        m = s
        while m:
            b = m & -m
            m ^= b
            holders[b.bit_length() - 1] |= bit
    keep.sort()
    return keep


def incident_edges(g: Graph) -> List[int]:
    """inc[v]: the edge ids of g at v, as a mask over edge_index(g)."""
    inc = [0] * g.n
    for j, (u, v) in enumerate(edge_index(g)):
        inc[u] |= 1 << j
        inc[v] |= 1 << j
    return inc


def cliques(rows: Sequence[int], inc: Sequence[int], cur: int, cand: int,
            touch: int = 0, inside: int = 0) -> Iterator[Tuple[int, int, int]]:
    """(clique, edges touching it, edges inside it) for the clique cur and
    every clique extending it inside cand, where cand holds only common
    neighbours of cur and touch, inside are cur's edge masks."""
    yield cur, touch, inside
    m = cand
    while m:
        b = m & -m
        m ^= b
        u = b.bit_length() - 1
        yield from cliques(rows, inc, cur | b, m & rows[u], touch | inc[u],
                           inside | (inc[u] & touch))


def _bfs_rows(g: Graph) -> Tuple[List[int], List[int]]:
    """(rows, inc) of g's non-isolated vertices relabelled 0, 1, ... in
    breadth-first order, one component after another, with inc still
    over g's edge ids.  A vertex's neighbours then lie close to it in the
    order, which keeps the cluster recursion's vertex sets few."""
    order: List[int] = []
    seen = 0
    for s in range(g.n):
        if not g.rows[s] or seen >> s & 1:
            continue
        seen |= 1 << s
        order.append(s)
        i = len(order) - 1
        while i < len(order):
            fresh = g.rows[order[i]] & ~seen
            seen |= fresh
            while fresh:
                b = fresh & -fresh
                fresh ^= b
                order.append(b.bit_length() - 1)
            i += 1
    inc = incident_edges(g)
    return relabel_rows(g.rows, order, seen), [inc[v] for v in order]


def _clique_sides(rows: Sequence[int], inc: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """(clique, edges touching it) for every maximal clique of a graph
    without isolated vertices."""
    everyone = (1 << len(rows)) - 1
    for a, touch, _ in cliques(rows, inc, 0, everyone):
        common = everyone & ~a
        m = a
        while m and common:
            b = m & -m
            m ^= b
            common &= rows[b.bit_length() - 1]
        if not common:
            yield a, touch


def _blocks(rows: Sequence[int], inc: Sequence[int]) -> Callable[[int], List[Tuple[int, int]]]:
    """blocks(rest): every clique whose least vertex is rest's least
    vertex v, as (clique, edges inside it), in the order cliques() yields
    them; v's list is built the first time v is asked for.  The blocks a
    cluster partition of G[rest] can put v in are the cliques inside rest,
    the filter q & ~rest == 0 of that list, and the filter keeps the order
    cliques() gives them for rest: it extends each clique by rising
    vertices, so leaving out the vertices outside rest only prunes."""
    lists: List[Optional[List[Tuple[int, int]]]] = [None] * len(rows)

    def blocks(rest: int) -> List[Tuple[int, int]]:
        low = rest & -rest
        v = low.bit_length() - 1
        mine = lists[v]
        if mine is None:
            mine = lists[v] = [(q, inside) for q, _, inside in
                               cliques(rows, inc, low, rows[v] & -low, inc[v])]
        return mine

    return blocks


def unipolar_family(g: Graph) -> List[int]:
    """The unipolar-maximal edge sets of g, ascending."""
    rows, inc = _bfs_rows(g)
    blocks = _blocks(rows, inc)
    memo: Dict[int, List[int]] = {0: [0]}

    def clusters(rest: int) -> List[int]:
        """Maximal edge sets of disjoint unions of cliques inside G[rest]."""
        got = memo.get(rest)
        if got is None:
            got = memo[rest] = maximal_masks(
                inside | c for q, inside in blocks(rest) if not q & ~rest
                for c in clusters(rest & ~q)
            )
        return got

    everyone = (1 << len(rows)) - 1
    return maximal_masks(
        touch | c for a, touch in _clique_sides(rows, inc) for c in clusters(everyone & ~a)
    )


def unipolar_best(g: Graph, within: int) -> Tuple[int, int]:
    """(count, mask) for a unipolar subgraph of g holding the most edges of
    the mask within: count is how many it holds, mask its whole edge set,
    the edges touching its clique side plus its cluster edges.
    unipolar_family's recursion keeping, for each vertex set, only the
    best cluster edge set; ties go to the first found."""
    rows, inc = _bfs_rows(g)
    blocks = _blocks(rows, inc)
    memo: Dict[int, Tuple[int, int]] = {0: (0, 0)}

    def clusters(rest: int) -> Tuple[int, int]:
        """The disjoint union of cliques inside G[rest] holding the most
        edges of within, as (count, mask)."""
        got = memo.get(rest)
        if got is None:
            most = -1
            for q, inside in blocks(rest):
                if q & ~rest:
                    continue
                count, mask = clusters(rest & ~q)
                count += (inside & within).bit_count()
                if count > most:
                    most = count
                    got = count, inside | mask
            memo[rest] = got
        return got

    everyone = (1 << len(rows)) - 1
    best = (0, 0)
    most = -1
    for a, touch in _clique_sides(rows, inc):
        count, mask = clusters(everyone & ~a)
        count += (touch & within).bit_count()
        if count > most:
            most = count
            best = count, touch | mask
    return best


def unipolar_work(g: Graph, cap: int) -> int:
    """Predicted work of unipolar_family and unipolar_best: per clique
    side, the recursion visits at most S = the sum over t of 2^|N(below t)
    above t| vertex sets, as a set with least vertex t lacks, above t, only
    neighbours of vertices below t.  A clique is its least vertex plus later
    neighbours, so the clique walk is at most 2S + 2 steps.  The answer is
    exact up to cap, larger means "above cap", and costs O(cap): clique
    sides are counted only until S times their count passes cap."""
    rows, inc = _bfs_rows(g)
    sets = reach = 0  # reach: neighbours of the vertices below t
    for t, row in enumerate(rows):
        sets += 1 << (reach >> (t + 1)).bit_count()
        reach |= row
    if sets > cap:
        return sets
    work = 0
    for _ in _clique_sides(rows, inc):
        work += sets
        if work > cap:
            break
    return work


def co_unipolar_family(g: Graph) -> List[int]:
    """The co-unipolar-maximal edge sets of g, ascending."""
    inc = incident_edges(g)
    active = neighbourhood(g.rows, (1 << g.n) - 1)
    co = [~row & active & ~(1 << v) for v, row in enumerate(g.rows)]
    candidates: List[int] = []
    a = active
    while True:
        # once: edges touching the rest; twice: edges between two
        # components of complement(G)[rest]
        once = twice = 0
        for comp in components(co, active & ~a):
            touch = neighbourhood(inc, comp)
            twice |= once & touch
            once |= touch
        candidates.append(neighbourhood(inc, a) & once | twice)
        if not a:
            break
        a = (a - 1) & active
    return maximal_masks(candidates)


def co_unipolar_work(g: Graph, cap: int) -> int:
    """Predicted work of co_unipolar_family: one candidate per vertex set,
    exact whatever the cap."""
    return 1 << neighbourhood(g.rows, (1 << g.n) - 1).bit_count()
