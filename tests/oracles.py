"""Naive reference implementations used to cross-check the fast code.

Most of these trade speed for obvious correctness: full subset sweeps,
full assignment sweeps, no pruning.  Keep these dumb.  The naive_*
graph6 decoder, row validator and DSATUR search are the one-bit-at-a-time
versions the packed and incremental code replaced, kept as references for
identical results and messages.  The naive_check_* witness checkers walk
the edge list and compare vertex pairs, as the mask checks they were
replaced by must agree with.  naive_bipartition_rows (vertex by vertex
two-colouring) and naive_components (vertex by vertex component walk)
are the searches the layered frontier walks of graphs.components and
bipartition_rows replaced.  naive_partition_family (restricted growth
strings, every edge rescanned per partition) and naive_subset_family (a
second table for "some superset is a member") are the solver's family
generators before partitions were placed vertex by vertex and the sweep
kept one table.  witnessed_host_member is the solver's host-member test
before the class's own witness search decided it: a membership test, then
the witness of an equal copy of the host.
"""

import random
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, List, Tuple

from covernum import CapacityError, Graph, ParseError, complement, make_graph
from covernum.covers import witnessed_cover
from covernum.graphs import MAX_VERTICES, edge_index, induced_rows, mask_rows
from covernum.invariants import chromatic_number, omega_of_rows
from covernum.recognizers import class_f, cluster_components, membership_fn
from covernum.structural import maximal_masks


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if any(colors[u] == colors[v] for u, v in g.edges()):
                continue
            if len(set(colors)) == k:
                return k
    raise AssertionError("unreachable")


def brute_clique(g: Graph) -> Tuple[int, Tuple[int, ...]]:
    """Clique number and the first maximum clique; combinations yields
    subsets in lexicographic order, so that clique is the least one."""
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size, sub
    return 0, ()


def naive_unipolar(g: Graph) -> bool:
    """Try every vertex subset as the clique side."""
    for a in range(1 << g.n):
        ok = True
        rem = a
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            if a & ~g.rows[v] & ~(1 << v):
                ok = False
                break
        if not ok:
            continue
        rest = [g.rows[v] & ~a if not a >> v & 1 else 0 for v in range(g.n)]
        if cluster_components(g.n, rest) is not None:
            return True
    return False


@lru_cache(maxsize=None)
def _chi_omega(k: int, rows: tuple) -> tuple:
    return chromatic_number(Graph(k, rows))[0], omega_of_rows(k, rows)


def naive_perfect(g: Graph) -> bool:
    """chi = omega on every induced subgraph.

    Every induced subgraph is still checked; only (chi, omega) of a
    relabelled subgraph already seen (on this or another graph) is reused.
    """
    for mask in range(1 << g.n):
        k, rows = induced_rows(g.rows, mask)
        chi, omega = _chi_omega(k, tuple(rows))
        if chi != omega:
            return False
    return True


def naive_odd_hole(n: int, rows):
    """First odd vertex subset of size >= 5, by size and then
    lexicographically, that induces a single cycle; None if there is none."""
    for k in range(5, n + 1, 2):
        for combo in combinations(range(n), k):
            if all(sum(rows[u] >> v & 1 for v in combo) == 2 for u in combo) \
                    and _connected(rows, combo):
                return combo
    return None


def _connected(rows, combo) -> bool:
    seen, todo = {combo[0]}, [combo[0]]
    while todo:
        u = todo.pop()
        for v in combo:
            if rows[u] >> v & 1 and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == len(combo)


def subgraph_of(g: Graph, edge_subset) -> Graph:
    return make_graph(g.n, list(edge_subset))


def gnp_graph(rng, n: int, p: float) -> Graph:
    """Random graph on n vertices, each pair an edge with chance p."""
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def planted_bipartite_hosts(seed: int, count: int):
    """count random hosts on 16-64 vertices: up to four planted bipartite
    blocks with isolated vertices among them, half of them made
    near-bipartite by one extra edge inside a side."""
    rng = random.Random(seed)
    hosts = []
    for _ in range(count):
        n = rng.randint(16, 64)
        blocks = rng.randint(1, 4)
        # place[v]: None for an isolated vertex, else (block, side)
        place = [None if rng.random() < 0.15 else (rng.randrange(blocks), rng.randrange(2))
                 for _ in range(n)]
        p = rng.uniform(0.05, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if place[u] and place[v] and place[u][0] == place[v][0]
                 and place[u][1] != place[v][1] and rng.random() < p]
        same = [(u, v) for u, v in combinations(range(n), 2)
                if place[u] and place[u] == place[v]]
        if same and rng.random() < 0.5:
            edges.append(rng.choice(same))
        hosts.append(make_graph(n, edges))
    return hosts


def naive_check_rows(n: int, rows) -> None:
    """Graph's validation one row and one edge at a time: raises what
    Graph(n, rows) must raise on bad rows, with the same message."""
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if len(rows) != n:
        raise ValueError("row count does not match vertex count")
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"row {v} references vertices >= {n}")
        if row >> v & 1:
            raise ValueError(f"self loop at vertex {v}")
    for v, row in enumerate(rows):
        m = row
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if not rows[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")


def naive_parse_graph6(text: str) -> Graph:
    """graph6 decoded into an edge list, one bit at a time."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    vals = []
    for ch in s:
        b = ord(ch) - 63
        if not 0 <= b < 64:
            raise ParseError(f"graph6 byte {ord(ch)} outside printable range 63..126")
        vals.append(b)
    if vals[0] == 63:
        if len(vals) < 4:
            raise ParseError("truncated graph6 vertex count")
        if vals[1] == 63:
            raise ParseError("graph6 very long form exceeds the 64 vertex limit")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 vertex count {n} exceeds {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise ParseError("truncated graph6 bit field")
    if len(body) > nbytes:
        raise ParseError("trailing garbage after graph6 bit field")
    bits = 0
    for b in body:
        bits = bits << 6 | b
    pad = nbytes * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise ParseError("nonzero padding bits in graph6 bit field")
    bits >>= pad
    edges = []
    # column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    pos = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if bits >> pos & 1:
                edges.append((u, v))
            pos -= 1
    return make_graph(n, edges)


def naive_k_colorable_rows(n: int, rows, k: int):
    """DSATUR backtracking that rescans every uncolored vertex's
    saturation at each step: most saturated first (ties: higher degree,
    then lower id), colors in increasing order, a fresh color only as the
    next unused index."""
    if n == 0:
        return []
    if k <= 0:
        return None
    if all(r == 0 for r in rows):
        return [0] * n
    degs = [rows[v].bit_count() for v in range(n)]
    colors = [-1] * n
    ncm = [0] * n  # bitmask of colors already on the neighbourhood

    def pick() -> int:
        best = -1
        best_key = (-1, -1)
        for v in range(n):
            if colors[v] < 0:
                key = (ncm[v].bit_count(), degs[v])
                if key > best_key:
                    best_key = key
                    best = v
        return best

    def dfs(done: int, used: int) -> bool:
        if done == n:
            return True
        v = pick()
        avail = ~ncm[v] & ((1 << min(used + 1, k)) - 1)
        while avail:
            c = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            colors[v] = c
            bit = 1 << c
            changed = []
            m = rows[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if colors[u] < 0 and not ncm[u] & bit:
                    ncm[u] |= bit
                    changed.append(u)
            if dfs(done + 1, max(used, c + 1)):
                return True
            for u in changed:
                ncm[u] &= ~bit
            colors[v] = -1
        return False

    if dfs(0, 0):
        return colors
    return None


def naive_check_coloring(g: Graph, coloring) -> bool:
    """check_coloring by the edge list: right length, every colour id in
    0..count-1 used, no edge inside a colour."""
    if len(coloring.colors) != g.n:
        return False
    if g.n == 0:
        return coloring.count == 0
    if any(c < 0 or c >= coloring.count for c in coloring.colors):
        return False
    if set(coloring.colors) != set(range(coloring.count)):
        return False
    return not any(coloring.colors[u] == coloring.colors[v] for u, v in g.edges())


def naive_check_clique(g: Graph, witness) -> bool:
    """check_clique pair by pair."""
    vs = witness.vertices
    if len(vs) != witness.size or len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])


def _ints(x) -> bool:
    return isinstance(x, (list, tuple)) and all(isinstance(v, int) for v in x)


def _check_bipartite(g: Graph, spec, witness) -> bool:
    sides = witness.get("sides")
    if not isinstance(sides, (list, tuple)) or len(sides) != 2 or not all(map(_ints, sides)):
        return False
    if sorted(list(sides[0]) + list(sides[1])) != list(range(g.n)):
        return False
    s0, s1 = set(sides[0]), set(sides[1])
    return not any((u in s0 and v in s0) or (u in s1 and v in s1) for u, v in g.edges())


def _check_chi_le(g: Graph, spec, witness) -> bool:
    colors = witness.get("coloring")
    if not _ints(colors) or len(colors) != g.n:
        return False
    if g.n and (min(colors) < 0 or max(colors) >= spec.k):
        return False
    return not any(colors[u] == colors[v] for u, v in g.edges())


def _check_chibound(g: Graph, spec, witness) -> bool:
    colors = witness.get("coloring")
    clique = witness.get("clique")
    if not _ints(colors) or not _ints(clique) or len(colors) != g.n:
        return False
    if g.n == 0:
        return len(clique) == 0
    if any(colors[u] == colors[v] for u, v in g.edges()):
        return False
    if not clique or len(set(clique)) != len(clique) or any(not 0 <= v < g.n for v in clique):
        return False
    if not all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]):
        return False
    try:
        return len(set(colors)) <= class_f(spec)(len(clique))
    except ValueError:
        return False


def _check_split(g: Graph, spec, witness) -> bool:
    a = witness.get("clique_side", [])
    clusters = witness.get("clusters", [])
    if not _ints(a) or not isinstance(clusters, (list, tuple)) or not all(map(_ints, clusters)):
        return False
    flat = list(a) + [v for c in clusters for v in c]
    if len(set(flat)) != len(flat) or set(flat) != set(range(g.n)):
        return False
    if not all(g.has_edge(u, v) for i, u in enumerate(a) for v in a[i + 1:]):
        return False
    for c in clusters:
        if not all(g.has_edge(u, v) for i, u in enumerate(c) for v in c[i + 1:]):
            return False
    for i, c1 in enumerate(clusters):
        for c2 in clusters[i + 1:]:
            if any(g.has_edge(u, v) for u in c1 for v in c2):
                return False
    return True


_NAIVE_CHECKS = {
    "bipartite": _check_bipartite,
    "chi-le": _check_chi_le,
    "chi-le-f": _check_chibound,
    "chi-eq-omega": _check_chibound,
    "unipolar": _check_split,
    "co-unipolar": lambda g, spec, w: _check_split(complement(g), spec, w),
}


def naive_check_witness(g: Graph, spec, witness) -> bool:
    """check_witness for every class but perfect, by edge walks and
    pairwise adjacency tests."""
    if not isinstance(witness, dict) or witness.get("class") != str(spec):
        return False
    kind = spec.kind
    if kind == "gsp":
        kind = witness.get("branch")
        if kind not in ("unipolar", "co-unipolar"):
            return False
    return _NAIVE_CHECKS[kind](g, spec, witness)


def naive_bipartition_rows(n: int, rows):
    """Two-coloring by BFS, sides as vertex masks; side 0 gets each
    component's least vertex."""
    side = [-1] * n
    mask0 = mask1 = 0
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        mask0 |= 1 << s
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                m = rows[v]
                while m:
                    u = (m & -m).bit_length() - 1
                    m &= m - 1
                    if side[u] < 0:
                        side[u] = side[v] ^ 1
                        if side[u]:
                            mask1 |= 1 << u
                        else:
                            mask0 |= 1 << u
                        nxt.append(u)
                    elif side[u] == side[v]:
                        return None
            frontier = nxt
    return mask0, mask1


def naive_components(n: int, rows):
    """Connected components as vertex masks, ordered by least vertex."""
    seen = 0
    comps = []
    for v in range(n):
        if seen >> v & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= rows[u]
            frontier = nxt & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def _rgs(n: int, k: int) -> Iterator[List[int]]:
    """Restricted growth strings: partitions of 0..n-1 into <= k blocks."""
    if n == 0:
        yield []
        return
    a = [0] * n

    def rec(i: int, mx: int) -> Iterator[List[int]]:
        if i == n:
            yield a
            return
        top = min(mx + 1, k - 1)
        for c in range(top + 1):
            a[i] = c
            yield from rec(i + 1, mx if c <= mx else c)

    yield from rec(1, 0)


def naive_partition_family(g: Graph, spec, bound: int, active) -> List[int]:
    """The cut masks of every partition of active into at most bound
    blocks, membership-filtered unless bound <= f(1), then maximal."""
    idx = edge_index(g)
    pos = {v: i for i, v in enumerate(active)}
    pairs = [(pos[u], pos[v]) for u, v in idx]
    masks = set()
    for a in _rgs(len(active), bound):
        mask = 0
        for j, (iu, iv) in enumerate(pairs):
            if a[iu] != a[iv]:
                mask |= 1 << j
        masks.add(mask)
    if class_f(spec)(1) < bound:
        member = membership_fn(spec)
        masks = {mask for mask in masks if member(g.n, mask_rows(g, mask))}
    return maximal_masks(masks)


def naive_subset_family(g: Graph, spec) -> List[int]:
    """Every edge subset tested in gray-code order, then the maximal
    members by a downward pass over a second table, up[s]: some superset
    of s (possibly s itself) is a member."""
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
    up = bytearray(total)
    full = total - 1
    maximal = []
    for s in range(full, -1, -1):
        rem = full & ~s
        above = 0
        while rem:
            b = rem & -rem
            rem ^= b
            if up[s | b]:
                above = 1
                break
        if member[s]:
            up[s] = 1
            if not above:
                maximal.append(s)
        else:
            up[s] = above
    maximal.reverse()
    return maximal


def witnessed_host_member(g: Graph, spec):
    """The one-part cover of a member host g, or None: membership_fn
    decides, then witnessed_cover witnesses spanning_subgraph(g, E(g))."""
    if not membership_fn(spec)(g.n, g.rows):
        return None
    return witnessed_cover(g, spec, [(1 << g.edge_count) - 1])
