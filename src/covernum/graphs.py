"""Small simple graphs as tuples of adjacency bitmasks.

Vertices are 0..n-1 with n <= 64, so one Python int per vertex holds the
whole neighbourhood and most operations reduce to bitwise arithmetic.
Graphs are immutable values: hashable, usable as cache keys, safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

MAX_VERTICES = 64

Edge = Tuple[int, int]


class CapacityError(ValueError):
    """Raised when an input exceeds the 64-vertex representation."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    rows[v] is the neighbourhood of v as a bitmask.  Rows are symmetric
    (u in rows[v] iff v in rows[u]) and irreflexive (no self loops).
    """

    n: int
    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
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
        return bin(self.rows[v]).count("1")

    def edges(self) -> List[Edge]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(bin(r).count("1") for r in self.rows) // 2


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
    return Graph(n, tuple(rows))


def complement_rows(n: int, rows: Sequence[int]) -> List[int]:
    """Adjacency rows of the complement: every non-edge becomes an edge."""
    full = (1 << n) - 1
    return [~rows[v] & full & ~(1 << v) for v in range(n)]


def complement(g: Graph) -> Graph:
    return Graph(g.n, tuple(complement_rows(g.n, g.rows)))


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
    return Graph(total, tuple(rows))


@lru_cache(maxsize=4096)
def edge_index(g: Graph) -> Tuple[Edge, ...]:
    """Canonical edge order of g: (u, v) with u < v, lexicographic.

    The position of an edge in this tuple is its id; EdgeSets are bitmasks
    over these ids.
    """
    return tuple(g.edges())


@dataclass(frozen=True)
class EdgeSet:
    """Subset of E(host), one bit per edge id of the host's edge index."""

    host: Graph
    bits: int

    def __post_init__(self) -> None:
        full = (1 << len(edge_index(self.host))) - 1
        if self.bits & ~full:
            raise ValueError("edge bits outside the host's edge index")

    def _check_host(self, other: "EdgeSet") -> None:
        if self.host != other.host:
            raise ValueError("EdgeSets belong to different host graphs")

    def union(self, other: "EdgeSet") -> "EdgeSet":
        self._check_host(other)
        return EdgeSet(self.host, self.bits | other.bits)

    def intersection(self, other: "EdgeSet") -> "EdgeSet":
        self._check_host(other)
        return EdgeSet(self.host, self.bits & other.bits)

    __or__ = union
    __and__ = intersection

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def edges(self) -> List[Edge]:
        idx = edge_index(self.host)
        m = self.bits
        out = []
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            out.append(idx[i])
        return out


def empty_edge_set(g: Graph) -> EdgeSet:
    return EdgeSet(g, 0)


def full_edge_set(g: Graph) -> EdgeSet:
    return EdgeSet(g, (1 << len(edge_index(g))) - 1)


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
    return Graph(g.n, tuple(mask_rows(g, es.bits)))


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
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        row = rows[v] & vertex_mask
        acc = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            acc |= 1 << pos[u]
        out.append(acc)
    return len(verts), out


def bits_of(mask: int) -> List[int]:
    """Positions of set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out
