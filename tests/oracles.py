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
the witness of an equal copy of the host.  two_scan_odd_hole_or_antihole
is the perfection scan before bipartite and co-bipartite graphs were
answered without one: the graph's odd-hole scan, then its complement's.
key_array_k_colorable_rows is the DSATUR search before its saturation and
degree counters were bit-sliced over vertex masks: one key per vertex,
picked by a max() scan and raised or lowered one neighbour at a time.
per_pair_random_graphs and per_pair_all_graphs are the generators
before graphs were built straight from their bit fields: bit i is pair i
in row order, each set bit becomes an edge, and make_graph builds the
graph.  per_edge_digit_cover is covers.digit_cover before its parts were
built as adjacency rows from colour-class masks and its colours carried
integer codes: it compares the endpoint digit strings of every edge of
the edge index, and writes each class's part witness itself, not through
the class registry.
recursive_k_colorable_rows and recursive_max_clique are the DSATUR and
clique searches before the first ran on an explicit stack and the second
took an upper bound; recursive_chromatic_number and whole_host_is_chi_le_f
are chromatic_number and is_chi_le_f built on them as they were before
the greedy colouring capped the clique search, the latter colouring the
whole host at once, not one component at a time.
uncut_unipolar_split_rows is the unipolar split search before it skipped
children whose frozen vertices induce a P3 and resumed each child's P3
scan at its parent's middle vertex: it rescans G - A from vertex 0 at
every node, one middle at a time, and descends into every child.  per_set_unipolar_best is
structural.unipolar_best before each vertex's cliques were listed once
per call: it runs the cliques() generator anew for every vertex set.
planted_unipolar_hosts plants a clique side and clusters, for the split
search to find.  suite_hhm, suite_far3, suite_hypercube and
suite_arithmetic are the verify suites that the chibound suite's
bipartite row and the gaps suite replaced, kept as they were: each
reads its oracle and formulas from this module, so a test that injects
a fault patches them here and in covernum.verify alike.
"""

import random
from functools import lru_cache, partial
from itertools import combinations, product
from typing import Dict, Iterator, List, Tuple

from covernum import CapacityError, Graph, ParseError, complement, make_graph
from covernum.covers import (CoverCertificate, check_certificate, hypercube_direction_cover,
                             hypercube_lower_bound, unipolar_subgraph_bound, witnessed_cover)
from covernum.generators import all_graphs, hypercube, kKl, splitmix64
from covernum.graphs import (MAX_VERTICES, EdgeSet, bits_of, complement_rows, edge_index,
                             induced_rows, mask_rows)
from covernum.invariants import ceil_log, chromatic_number, omega_of_rows
from covernum.recognizers import (ClassSpec, class_f, cluster_components, find_odd_hole,
                                  membership_fn)
from covernum.solver import max_class_subgraph_size, sweep_cover_number
from covernum.structural import _bfs_rows, _clique_sides, cliques, maximal_masks
from covernum.verify import DEFAULT_SEED, _chibound_failures, _corpus_suite, _far3_grid, _report


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


def two_scan_odd_hole_or_antihole(n: int, rows):
    """("odd-hole", vertices) or ("odd-antihole", vertices) from an
    odd-hole scan of the graph, then of its complement; None if neither
    holds one."""
    hole = find_odd_hole(n, rows)
    if hole is not None:
        return "odd-hole", hole
    hole = find_odd_hole(n, complement_rows(n, rows))
    return None if hole is None else ("odd-antihole", hole)


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


def key_array_k_colorable_rows(n: int, rows, k: int):
    """DSATUR with one key per vertex, key = saturation * n + degree (-1
    while colored), the pick a max() over all vertices (first best, so the
    lower id), keys raised and lowered one newly saturated neighbour at a
    time."""
    if n == 0:
        return []
    if k <= 0:
        return None
    if not any(rows):
        return [0] * n
    colors = [-1] * n
    has = [0] * min(k, n)
    key = [r.bit_count() for r in rows]
    key_of = key.__getitem__
    order = range(n)

    def dfs(uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        v = max(order, key=key_of)
        kv = key[v]
        key[v] = -1
        vbit = 1 << v
        rest = uncolored ^ vbit
        for c in range(min(used + 1, k)):
            hc = has[c]
            if hc & vbit:
                continue
            colors[v] = c
            new = rows[v] & rest & ~hc
            has[c] = hc | new
            m = new
            while m:
                low = m & -m
                m ^= low
                key[low.bit_length() - 1] += n
            if dfs(rest, max(used, c + 1)):
                return True
            has[c] = hc
            m = new
            while m:
                low = m & -m
                m ^= low
                key[low.bit_length() - 1] -= n
        colors[v] = -1
        key[v] = kv
        return False

    if dfs((1 << n) - 1, 0):
        return colors
    return None


def recursive_max_clique(rows, cand: int) -> int:
    """Lexicographically least maximum clique inside the candidate mask.

    Branch and bound that tries vertices in increasing id and cuts a
    branch only when it cannot beat the best size so far.  Cliques are
    visited in lexicographic order, so the first one to reach the final
    size is the least.
    """
    best = 0
    best_mask = 0

    def expand(cand: int, size: int, cur: int) -> None:
        nonlocal best, best_mask
        if size > best:
            best = size
            best_mask = cur
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            expand(cand & rows[low.bit_length() - 1], size + 1, cur | low)

    expand(cand, 0, 0)
    return best_mask


def recursive_k_colorable_rows(n: int, rows, k: int):
    """Proper coloring with at most k colors, or None.

    Backtracking on the most saturated vertex (ties: higher degree, then
    lower id).  A fresh color is only ever the next unused index, which
    breaks color symmetry and keeps witnesses dense in 0..used-1.

    Saturation and degree are bit-sliced counters over vertex masks, most
    significant slice first: bit v of sat[i] is bit i (from the top) of
    v's saturation, and likewise deg[] for its degree.  Coloring v with c
    adds 1 to the counters of new, its uncolored neighbors not yet next to
    c, by a ripple carry from the last slice; backtracking subtracts it
    again.  The pick narrows the uncolored mask through the saturation
    slices, then the degree slices, keeping a slice's vertices wherever
    some remain, and takes the lowest bit left.
    """
    if n == 0:
        return []
    if k <= 0:
        return None
    if not any(rows):
        return [0] * n
    colors = [-1] * n
    # has[c]: the vertices that were uncolored when a neighbor took color
    # c.  Saturation never exceeds min(k, n), so the carry always finds a
    # slice; deg[] is the rows summed the same way, its zero top slices cut.
    has = [0] * min(k, n)
    sat = [0] * min(k, n).bit_length()
    deg = [0] * (n - 1).bit_length()
    for r in rows:
        j = -1
        while r:
            s = deg[j]
            deg[j] = s ^ r
            r &= s
            j -= 1
    while not deg[0]:
        del deg[0]

    def dfs(uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        cand = uncolored
        for s in sat:
            t = cand & s
            if t:
                cand = t
        if cand & (cand - 1):
            for s in deg:
                t = cand & s
                if t:
                    cand = t
        vbit = cand & -cand
        v = vbit.bit_length() - 1
        rest = uncolored ^ vbit
        rv = rows[v] & rest
        for c in range(min(used + 1, k)):
            hc = has[c]
            if hc & vbit:
                continue
            colors[v] = c
            new = rv & ~hc
            if new:
                has[c] = hc | new
                j = -1
                carry = new
                while carry:
                    s = sat[j]
                    sat[j] = s ^ carry
                    carry &= s
                    j -= 1
            if dfs(rest, used if c < used else c + 1):
                return True
            if new:
                has[c] = hc
                j = -1
                while new:
                    s = sat[j]
                    sat[j] = s ^ new
                    new &= ~s
                    j -= 1
        return False

    if dfs((1 << n) - 1, 0):
        return colors
    return None

def recursive_chromatic_number(g: Graph):
    """chromatic_number with the recursive kernels: per component, deepen
    from the uncapped clique number until a search succeeds."""
    colors = [0] * g.n
    for comp in naive_components(g.n, g.rows):
        cn, crows = induced_rows(g.rows, comp)
        c = recursive_max_clique(crows, (1 << cn) - 1).bit_count()
        sol = recursive_k_colorable_rows(cn, crows, c)
        while sol is None:
            c += 1
            sol = recursive_k_colorable_rows(cn, crows, c)
        for v, color in zip(bits_of(comp), sol):
            colors[v] = color
    return max(colors, default=-1) + 1, tuple(colors)


def whole_host_is_chi_le_f(g: Graph, f):
    """is_chi_le_f before the greedy count capped its clique search: the
    uncapped clique search, then one search for f(omega) colours over the
    whole host; (colours, clique, f(omega)) or None."""
    if g.n == 0:
        return (), (), 0
    clique = tuple(bits_of(recursive_max_clique(g.rows, (1 << g.n) - 1)))
    fw = f(len(clique))
    sol = recursive_k_colorable_rows(g.n, g.rows, fw)
    return None if sol is None else (tuple(sol), clique, fw)



def small_and_seeded_hosts() -> Iterator[Graph]:
    """Every graph on up to 6 vertices, then seeded G(n, p) hosts on 7-40
    vertices from sparse to dense: the inputs the kernels are checked
    against their references on."""
    rng = random.Random(2025)
    for n in range(7):
        yield from all_graphs(n)
    for n in range(7, 41, 3):
        for p in (0.2, 0.5, 0.8):
            for _ in range(2):
                yield gnp_graph(rng, n, p)

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


def _per_pair_graph(n: int, bits: int) -> Graph:
    edges = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if bits >> i & 1:
                edges.append((u, v))
            i += 1
    return make_graph(n, edges)


def per_pair_random_graphs(n: int, count: int, seed: int) -> List[Graph]:
    """count graphs, each from the next ceil(m / 64) splitmix64 words
    joined low bits first, masked to the m = n(n-1)/2 pairs."""
    m = n * (n - 1) // 2
    stream = splitmix64(seed)
    out = []
    for _ in range(count):
        bits = 0
        got = 0
        while got < m:
            bits |= next(stream) << got
            got += 64
        out.append(_per_pair_graph(n, bits & ((1 << m) - 1)))
    return out


def per_pair_all_graphs(n: int) -> Iterator[Graph]:
    for mask in range(1 << n * (n - 1) // 2):
        yield _per_pair_graph(n, mask)


def per_edge_digit_cover(g: Graph, spec, coloring, base: int, clique) -> CoverCertificate:
    count = coloring.count
    if count <= 1:
        return CoverCertificate(g, spec, (), (), 0)
    t = ceil_log(base, count)
    if clique:
        const = {coloring.colors[v]: (i,) * t for i, v in enumerate(clique)}
        taken = set(const.values())
        counted = (tuple(c // base ** (t - 1 - d) % base for d in range(t))
                   for c in range(base ** t))
        fresh = (s for s in counted if s not in taken)
        strings = [const[c] if c in const else next(fresh) for c in range(count)]
    else:
        strings = [tuple(c // base ** d % base for d in range(t)) for c in range(count)]
    of = [strings[c] for c in coloring.colors]
    idx = edge_index(g)
    masks = [0] * t
    for i, (u, v) in enumerate(idx):
        su, sv = of[u], of[v]
        for d in range(t):
            if su[d] != sv[d]:
                masks[d] |= 1 << i
    label = str(spec)
    wits = []
    for d, mask in enumerate(masks):
        part_clique = clique or idx[(mask & -mask).bit_length() - 1]
        wits.append({"class": label, **_digit_body(spec, [s[d] for s in of], part_clique)})
    return CoverCertificate(g, spec, tuple(EdgeSet(g, mask) for mask in masks), tuple(wits), t)


def _digit_body(spec: ClassSpec, digits: List[int], clique) -> Dict:
    """The witness body of a digit cover part, written out for each class
    from the part's vertex digits and clique."""
    kind = spec.kind
    sides = [[v for v, x in enumerate(digits) if x == side] for side in (0, 1)]
    if kind == "bipartite":
        return {"sides": sides}
    if kind == "chi-le":
        return {"coloring": digits}
    if kind == "chi-le-f":
        return {"coloring": digits, "clique": list(clique), "f_omega": spec.f(len(clique))}
    if kind == "chi-eq-omega":
        return {"coloring": digits, "clique": list(clique)}
    if kind == "perfect":
        return {}
    split = {"clique_side": sides[0], "clusters": [sides[1]]}
    if kind == "co-unipolar":
        return split
    if kind == "gsp":
        return {"branch": "co-unipolar", **split}
    raise ValueError(f"class {spec} has no digit cover")


def _uncut_find_p3(rows, active: int):
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


def uncut_unipolar_split_rows(n: int, rows):
    """Clique side A (as a mask) such that the rest is a cluster, or None:
    branch three ways on the first induced P3 of G - A."""
    full = (1 << n) - 1
    seen = set()

    def rec(a_mask: int):
        if a_mask in seen:
            return None
        seen.add(a_mask)
        rest = full & ~a_mask
        p3 = _uncut_find_p3(rows, rest)
        if p3 is None:
            return a_mask
        for v in sorted(p3):
            if rows[v] & a_mask == a_mask:
                res = rec(a_mask | (1 << v))
                if res is not None:
                    return res
        return None

    return rec(0)


def per_set_unipolar_best(g: Graph, within: int):
    """(count, mask) of a unipolar subgraph of g holding the most edges of
    within, the cliques of each vertex set generated anew."""
    rows, inc = _bfs_rows(g)
    memo = {0: (0, 0)}

    def clusters(rest: int):
        got = memo.get(rest)
        if got is None:
            low = rest & -rest
            v = low.bit_length() - 1
            most = -1
            for q, _, inside in cliques(rows, inc, low, rows[v] & rest, inc[v]):
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


def planted_unipolar_hosts(seed: int, count: int, n_min: int = 24, n_max: int = 64):
    """count hosts on n_min..n_max vertices, each relabelled at random: a
    clique on a fifth of the vertices, cliques of 1-4 vertices on the rest,
    and each pair across the two sides an edge with chance 0.4."""
    rng = random.Random(seed)
    hosts = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        a = n // 5
        edges = list(combinations(range(a), 2))
        v = a
        while v < n:
            block = range(v, min(n, v + rng.randint(1, 4)))
            edges += combinations(block, 2)
            v = block.stop
        edges += [(x, y) for x in range(a) for y in range(a, n) if rng.random() < 0.4]
        label = rng.sample(range(n), n)
        hosts.append(make_graph(n, [(label[x], label[y]) for x, y in edges]))
    return hosts


def suite_hhm(n_max: int = 7, samples: int = 200, seed: int = DEFAULT_SEED) -> Dict:
    """Oracle minimum bipartite covers against ceil(log2 chi): the chibound
    check at f = 2."""
    check = partial(_chibound_failures, class_texts=("bipartite",))
    return _corpus_suite("hhm", check, n_max, samples, seed)


def suite_far3(seed: int = DEFAULT_SEED) -> Dict:
    """Co-unipolar cover numbers of k disjoint K_l on a fixed grid.

    The closed form min(k, log2 l) is asserted only when l is a power of
    two; other l are swept and recorded without assertion.
    """
    failures = []
    records = []
    spec = ClassSpec("co-unipolar")
    for k, l in _far3_grid():
        g = kKl(k, l)
        got = sweep_cover_number(g, spec).value
        power_of_two = l & (l - 1) == 0
        expected = min(k, ceil_log(2, l)) if power_of_two else None
        records.append({"k": k, "l": l, "computed": got, "expected": expected,
                        "asserted": power_of_two})
        if expected is not None and got != expected:
            failures.append({"k": k, "l": l, "expected": expected, "computed": got})
    params = {"seed": seed, "grid": [[k, l] for k, l in _far3_grid()]}
    return _report("far3", params, len(records), failures, {"records": records})


def suite_hypercube(n_max: int = 6, seed: int = DEFAULT_SEED) -> Dict:
    """Direction covers of Q_d, plus the Q_3 max unipolar subgraph size."""
    d_max = min(n_max if n_max >= 1 else 6, 6)
    failures = []
    records = []
    for d in range(1, d_max + 1):
        cert = hypercube_direction_cover(d)
        g = hypercube(d)
        sizes = [len(p) for p in cert.parts]
        # d parts of 2^(d-1) edges that cover Q_d's d * 2^(d-1) are disjoint
        ok = (
            check_certificate(g, cert)
            and len(cert.parts) == d
            and all(s == 2 ** (d - 1) for s in sizes)
        )
        records.append({"d": d, "parts": len(cert.parts), "part_sizes": sizes,
                        "valid": ok})
        if not ok:
            failures.append({"d": d, "parts": len(cert.parts), "part_sizes": sizes})
    if d_max >= 3:
        q3 = hypercube(3)
        got = max_class_subgraph_size(q3, ClassSpec("unipolar"))
        bound = unipolar_subgraph_bound(3)
        records.append({"d": 3, "max_unipolar_edges": got, "bound": bound})
        if got != bound:
            failures.append({"d": 3, "max_unipolar_edges": got, "bound": bound})
    params = {"d_max": d_max, "seed": seed}
    return _report("hypercube", params, len(records), failures, {"records": records})


def suite_arithmetic(n_max: int = 62, seed: int = DEFAULT_SEED) -> Dict:
    """Integer sweep of the Q_d cover lower bound: equals d iff d >= 8."""
    d_max = max(8, min(n_max, 62))
    failures = []
    for d in range(3, d_max + 1):
        lb = hypercube_lower_bound(d)
        ok = lb == d if d >= 8 else lb < d
        if not ok:
            failures.append({"d": d, "lower_bound": lb})
    params = {"d_min": 3, "d_max": d_max, "seed": seed}
    return _report("arithmetic", params, d_max - 2, failures)
