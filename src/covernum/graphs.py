"""Small simple graphs as tuples of adjacency bitmasks.

Vertices are 0..n-1 with n <= 64, so one Python int per vertex holds the
whole neighbourhood and most operations reduce to bitwise arithmetic.
Graphs are immutable values: hashable, usable as cache keys, safe to share.

An EdgeSet is a subset of a host graph's edges, held in one form, as
adjacency rows over all the host's vertices, so spanning subgraphs and
certificate checks read it with no walk over edge ids.  One built from
a mask over the host's edge ids converts the mask once; cover parts
built from vertex masks (covers.digit_cover) and the host's own edges
(full_edge_set) are rows from the start, and the latter shares the
host's.  The mask is derived from the rows where it is read.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

MAX_VERTICES = 64

Edge = Tuple[int, int]


class _BitMatrix:
    """Square 0/1 matrices of side w packed into one int, row r in bits
    r*w .. r*w+w-1, so that a transpose over all rows is a few big-int
    operations instead of a loop over vertices."""

    def __init__(self, w: int) -> None:
        self.w = w
        self.code = next(c for c in "BHILQ" if array(c).itemsize * 8 == w)
        # Transpose by block swaps: at level j, entry (r, c) with bit j
        # clear in r and set in c trades places with (r + j, c - j).
        self.swaps = []
        j = w // 2
        while j:
            cols = sum(1 << c for c in range(w) if c & j)
            starts = sum(1 << (r * w) for r in range(w) if not r & j)
            self.swaps.append((j * (w - 1), cols * starts))
            j //= 2

    def pack(self, rows: Sequence[int]) -> int:
        a = array(self.code, rows)
        if sys.byteorder == "big":
            a.byteswap()
        return int.from_bytes(a.tobytes(), "little")

    def unpack(self, n: int, m: int) -> Tuple[int, ...]:
        a = array(self.code, m.to_bytes(n * self.w // 8, "little"))
        if sys.byteorder == "big":
            a.byteswap()
        return tuple(a)

    def transpose(self, m: int) -> int:
        for shift, mask in self.swaps:
            t = (m ^ m >> shift) & mask
            m ^= t ^ t << shift
        return m


_MATRICES = tuple(_BitMatrix(w) for w in (8, 16, 32, 64))

# Up to this many vertices symmetric_closure's loop over the rows is at
# least as fast as packing them.
_LOOP_MAX = 7


def _bit_matrix(n: int) -> _BitMatrix:
    """The packed-matrix layout with the narrowest row stride >= n."""
    return _MATRICES[(max(n, 8) - 1).bit_length() - 3]


def symmetric_closure(n: int, rows: Sequence[int]) -> Tuple[int, ...]:
    """rows[v] | (column v of rows): the adjacency of the undirected graph
    whose arcs are given, e.g. lower triangles only."""
    if n <= _LOOP_MAX:
        out = list(rows)
        for v, row in enumerate(rows):
            while row:
                low = row & -row
                row ^= low
                out[low.bit_length() - 1] |= 1 << v
        return tuple(out)
    mat = _bit_matrix(n)
    m = mat.pack(rows)
    return mat.unpack(n, m | mat.transpose(m))


class CapacityError(ValueError):
    """Raised when an input exceeds the 64-vertex representation."""


class _cached:
    """functools.cached_property without its lock, which on Python 3.11
    and earlier costs more than a count it saves: the first read stores
    the value in the instance dict, where later reads find it first, and
    which equality and hashing of a dataclass ignore."""

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, owner: object = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    rows[v] is the neighbourhood of v as a bitmask.  Rows are symmetric
    (u in rows[v] iff v in rows[u]) and irreflexive (no self loops).
    """

    n: int
    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        rows = self.rows
        if type(rows) is not tuple:
            rows = tuple(rows)
            object.__setattr__(self, "rows", rows)
        if len(rows) != n:
            raise ValueError("row count does not match vertex count")
        self._check_rows()

    def _check_rows(self) -> None:
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"self loop at vertex {v}")
        for v, row in enumerate(self.rows):
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> List[Edge]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u, row in enumerate(self.rows):
            m = row >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                out.append((u, v))
        return out

    @_cached
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2


def _derived_graph(n: int, rows: Tuple[int, ...]) -> Graph:
    """Graph(n, rows) without __post_init__'s check, for rows that follow
    from a checked graph (its complement, rows masked from its own) or
    are symmetric and in range by construction (a closed triangle, an
    edge list make_graph checked edge by edge, checked graphs shifted
    into disjoint ranges); n is in 0..MAX_VERTICES and rows is a tuple of
    n ints."""
    g = object.__new__(Graph)
    g.__dict__.update(n=n, rows=rows)
    return g


def make_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph from an edge list.

    Duplicate edges collapse; self loops and out-of-range endpoints are
    rejected.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _derived_graph(n, tuple(rows))


def complement_rows(n: int, rows: Sequence[int]) -> List[int]:
    """Adjacency rows of the complement: every non-edge becomes an edge."""
    full = (1 << n) - 1
    return [~rows[v] & full & ~(1 << v) for v in range(n)]


def complement(g: Graph) -> Graph:
    return _derived_graph(g.n, tuple(complement_rows(g.n, g.rows)))


def disjoint_union(gs: Sequence[Graph]) -> Graph:
    """Disjoint union with vertices relabelled consecutively, in input order."""
    total = sum(g.n for g in gs)
    if total > MAX_VERTICES:
        raise CapacityError(f"union has {total} vertices, limit is {MAX_VERTICES}")
    rows: List[int] = []
    shift = 0
    for g in gs:
        rows.extend(r << shift for r in g.rows)
        shift += g.n
    return _derived_graph(total, tuple(rows))


@lru_cache(maxsize=4096)
def edge_index(g: Graph) -> Tuple[Edge, ...]:
    """Canonical edge order of g: (u, v) with u < v, lexicographic.

    The position of an edge in this tuple is its id; EdgeSets are bitmasks
    over these ids.
    """
    return tuple(g.edges())


@dataclass(frozen=True, init=False, repr=False)
class EdgeSet:
    """Subset of E(host), held as the edges' adjacency rows over all
    host.n vertices, as a Graph holds its own.

    EdgeSet(host, bits) builds one from bits, a mask over the host's edge
    ids (edge_index), converted to rows once; a digit cover's parts and
    full_edge_set are built as rows (_rows_edge_set).  bits is derived
    from the rows on its first read.  Edge sets are immutable values
    whose equality and hash go by host and rows, which are canonical.
    """

    host: Graph
    rows: Tuple[int, ...]

    def __init__(self, host: Graph, bits: int) -> None:
        if bits >> host.edge_count:
            raise ValueError("edge bits outside the host's edge index")
        self.__dict__.update(host=host, rows=tuple(mask_rows(host, bits)))

    @_cached
    def bits(self) -> int:
        """The mask over the host's edge ids of the edges."""
        return _rows_bits(self.host, self.rows)

    def __repr__(self) -> str:
        return f"EdgeSet(host={self.host!r}, bits={self.bits!r})"

    def _check_host(self, other: "EdgeSet") -> None:
        if self.host != other.host:
            raise ValueError("EdgeSets belong to different host graphs")

    def union(self, other: "EdgeSet") -> "EdgeSet":
        self._check_host(other)
        return _rows_edge_set(self.host, tuple(map(or_, self.rows, other.rows)))

    def intersection(self, other: "EdgeSet") -> "EdgeSet":
        self._check_host(other)
        return _rows_edge_set(self.host, tuple(map(and_, self.rows, other.rows)))

    __or__ = union
    __and__ = intersection

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    # (u, v) pairs with u < v, in edge-id order
    edges = Graph.edges


def _rows_edge_set(host: Graph, rows: Tuple[int, ...]) -> EdgeSet:
    """The EdgeSet whose edges are rows, without EdgeSet's check, for rows
    that are host's own masked symmetrically (rows[v] within host.rows[v],
    u in rows[v] iff v in rows[u]); rows is a tuple of host.n ints."""
    es = object.__new__(EdgeSet)
    es.__dict__.update(host=host, rows=rows)
    return es


def _rows_bits(g: Graph, rows: Sequence[int]) -> int:
    """The edge-id mask of the edges in rows, a subset of g's: edge ids
    run through g's rows in order, each row's edges to higher vertices in
    order of the higher end."""
    bits = i = 0
    for u, (full, row) in enumerate(zip(g.rows, rows)):
        full >>= u + 1
        row >>= u + 1
        while full:
            low = full & -full
            full ^= low
            if row & low:
                bits |= 1 << i
            i += 1
    return bits


def empty_edge_set(g: Graph) -> EdgeSet:
    return EdgeSet(g, 0)


def full_edge_set(g: Graph) -> EdgeSet:
    return _rows_edge_set(g, g.rows)


def edge_set_of(g: Graph, edges: Iterable[Edge]) -> EdgeSet:
    idx = {e: i for i, e in enumerate(edge_index(g))}
    bits = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        i = idx.get((u, v))
        if i is None:
            raise ValueError(f"({u}, {v}) is not an edge of the host graph")
        bits |= 1 << i
    return EdgeSet(g, bits)


def spanning_subgraph(g: Graph, es: EdgeSet) -> Graph:
    """Subgraph keeping all n vertices and only the edges in es."""
    if es.host != g:
        raise ValueError("edge set belongs to a different host graph")
    return _derived_graph(g.n, es.rows)


def mask_rows(g: Graph, mask: int) -> List[int]:
    """Adjacency rows over all n vertices of the edges whose ids are in mask."""
    rows = [0] * g.n
    idx = edge_index(g)
    while mask:
        j = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        u, v = idx[j]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def induced_rows(rows: Sequence[int], vertex_mask: int) -> Tuple[int, Sequence[int]]:
    """Induced subgraph on the vertices of vertex_mask, relabelled compactly.

    Returns (k, rows') where k is the number of chosen vertices and rows'
    are adjacency masks over the new labels 0..k-1 (increasing original
    id).  A mask that keeps every vertex returns the given rows unchanged.
    """
    n = len(rows)
    vertex_mask &= (1 << n) - 1
    if vertex_mask == (1 << n) - 1:
        return n, rows
    verts = bits_of(vertex_mask)
    return len(verts), relabel_rows(rows, verts, vertex_mask)


def relabel_rows(rows: Sequence[int], order: Sequence[int], vertex_mask: int) -> List[int]:
    """Rows of the subgraph induced on vertex_mask, vertex order[i]
    relabelled i; order lists the vertices of vertex_mask."""
    pos = {v: i for i, v in enumerate(order)}
    out = []
    for v in order:
        row = rows[v] & vertex_mask
        acc = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            acc |= 1 << pos[u]
        out.append(acc)
    return out


def proper(rows: Sequence[int], colors: Sequence[int]) -> bool:
    """No edge inside a colour, colors[v] being v's: no row meets the
    vertex mask of its own colour."""
    classes: Dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(row & classes[c] for row, c in zip(rows, colors))


def is_clique(rows: Sequence[int], mask: int) -> bool:
    """The vertices of mask (none past the rows) are pairwise adjacent:
    each one's closed neighbourhood holds all of mask."""
    return all((rows[v] | 1 << v) & mask == mask for v in bits_of(mask))


def neighbourhood(rows: Sequence[int], mask: int) -> int:
    """The union of rows[v] over the vertices v of mask."""
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= rows[b.bit_length() - 1]
    return out


def components(rows: Sequence[int], mask: int) -> List[int]:
    """Vertex masks of the components of the graph induced on mask, by
    least vertex: each grows from that vertex one frontier at a time."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            frontier = neighbourhood(rows, frontier) & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask &= ~comp
    return comps


def bits_of(mask: int) -> List[int]:
    """Positions of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
