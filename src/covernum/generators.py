"""Graph families under study plus a deterministic sample stream.

The triangle-free high-chromatic family grows a K2 by repeated
Mycielski steps, which raise the chromatic number by one without
creating triangles (vertex counts 2, 5, 11, 23, 47 for chi = 2..6).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from .graphs import (
    MAX_VERTICES,
    CapacityError,
    Graph,
    _derived_graph,
    disjoint_union,
    make_graph,
    symmetric_closure,
)


def complete(n: int) -> Graph:
    # a generator, so make_graph's capacity check runs before any edge is built
    return make_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return make_graph(n, ((v, (v + 1) % n) for v in range(n)))


def complete_multipartite(parts: Sequence[int]) -> Graph:
    if any(p < 1 for p in parts):
        raise ValueError("every part must have at least one vertex")
    n = sum(parts)
    if n > MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    owner = []
    for i, p in enumerate(parts):
        owner.extend([i] * p)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if owner[u] != owner[v]
    ]
    return make_graph(n, edges)


def hypercube(d: int) -> Graph:
    """Q_d: vertices are d-bit strings, edges flip one coordinate."""
    if not 0 <= d <= 6:
        raise CapacityError(f"hypercube dimension {d} outside 0..6")
    n = 1 << d
    edges = []
    for x in range(n):
        for i in range(d):
            y = x ^ (1 << i)
            if x < y:
                edges.append((x, y))
    return make_graph(n, edges)


def mycielski_step(g: Graph) -> Graph:
    """Mycielskian: shadow vertex n+i mirrors i's neighbourhood, apex 2n
    joins all shadows.  Raises chi by 1, adds no triangle to a
    triangle-free graph."""
    n = g.n
    if 2 * n + 1 > MAX_VERTICES:
        raise CapacityError(f"Mycielski step would need {2 * n + 1} vertices")
    edges = []
    for u, v in g.edges():
        edges.append((u, v))
        edges.append((u, n + v))
        edges.append((v, n + u))
    apex = 2 * n
    edges.extend((n + i, apex) for i in range(n))
    return make_graph(2 * n + 1, edges)


def triangle_free_chromatic(c: int) -> Graph:
    """Triangle-free graph with chromatic number exactly c, 2 <= c <= 6."""
    if not 2 <= c <= 6:
        raise ValueError(f"target chromatic number {c} outside 2..6")
    g = complete(2)
    for _ in range(c - 2):
        g = mycielski_step(g)
    return g


def kKl(k: int, l: int) -> Graph:
    """k disjoint copies of K_l."""
    if k < 1 or l < 1:
        raise ValueError("kKl needs k >= 1 and l >= 1")
    if k * l > MAX_VERTICES:
        raise CapacityError(f"kKl({k}, {l}) needs {k * l} vertices")
    return disjoint_union([complete(l)] * k)


def far_graph(k: int, l: int) -> Graph:
    """Disjoint union Z + K + R: triangle-free chi = 2^l, K_{2^l}, and
    triangle-free chi = 2^k, laid out consecutively in that order."""
    if k < 1:
        raise ValueError("far graph needs k >= 1")
    if l < k:
        raise ValueError("far graph needs l >= k")
    if l > 2:
        # 2^l colours must stay within triangle_free_chromatic's 2..6
        raise ValueError(f"far graph needs l <= 2, got {l}")
    z = triangle_free_chromatic(2 ** l)
    kk = complete(2 ** l)
    r = triangle_free_chromatic(2 ** k)
    return disjoint_union([z, kk, r])


_M64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """Deterministic 64-bit word stream."""
    x = seed & _M64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def _pair_bits_graph(n: int, bits: int) -> Graph:
    """The graph on n vertices whose pair i in row order, (0, 1), (0, 2),
    ..., (0, n-1), (1, 2), ..., is an edge iff bit i of bits is set; bits
    past the last pair are ignored.  Row u takes the next n-1-u bits,
    shifted past u, and the closure adds the lower triangle."""
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    upper = []
    for u in range(n):
        width = n - 1 - u
        upper.append((bits & ((1 << width) - 1)) << (u + 1))
        bits >>= width
    return _derived_graph(n, symmetric_closure(n, upper))


def random_graphs(n: int, count: int, seed: int) -> List[Graph]:
    """count graphs on n labelled vertices, each pair an edge with
    probability 1/2, drawn from one splitmix64 stream.

    Each graph takes the next ceil(m / 64) words of the stream, m =
    n(n-1)/2, joined low bits first (word j is bits 64j..64j+63, the
    high bits of the last word unused); bit i is pair i in row order,
    (0, 1), (0, 2), ..., (n-2, n-1).  Seeds and pinned outputs rely on
    this layout."""
    m = n * (n - 1) // 2
    stream = splitmix64(seed)
    out = []
    for _ in range(count):
        bits = 0
        for got in range(0, m, 64):
            bits |= next(stream) << got
        out.append(_pair_bits_graph(n, bits))
    return out


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labelled graph on n vertices, by edge-mask order: mask bit i
    is pair i in row order, as in random_graphs."""
    for mask in range(1 << n * (n - 1) // 2):
        yield _pair_bits_graph(n, mask)


def parse_family_spec(text: str) -> Graph:
    """Grammar: complete:<n> | cycle:<n> | multipartite:<a,b,...> |
    hypercube:<d> | mycielski:<chi> | kkl:<k>,<l> | far:<k>,<l>"""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad family spec {text!r}")
    try:
        if head == "complete":
            return complete(int(rest))
        if head == "cycle":
            return cycle(int(rest))
        if head == "multipartite":
            return complete_multipartite([int(p) for p in rest.split(",")])
        if head == "hypercube":
            return hypercube(int(rest))
        if head == "mycielski":
            return triangle_free_chromatic(int(rest))
        if head == "kkl":
            k, l = rest.split(",")
            return kKl(int(k), int(l))
        if head == "far":
            k, l = rest.split(",")
            return far_graph(int(k), int(l))
    except CapacityError:
        raise
    except ValueError as exc:
        raise ValueError(f"bad family spec {text!r}: {exc}") from None
    raise ValueError(f"unknown family {head!r}")
