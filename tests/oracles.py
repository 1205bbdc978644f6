"""Naive reference implementations used to cross-check the fast code.

Everything here trades speed for obvious correctness: full subset sweeps,
full assignment sweeps, no pruning.  Keep these dumb.
"""

from functools import lru_cache
from itertools import combinations, product
from typing import Tuple

from covernum import Graph, make_graph
from covernum.graphs import induced_rows
from covernum.invariants import chi_of_rows, omega_of_rows
from covernum.recognizers import cluster_components


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
    return chi_of_rows(k, rows), omega_of_rows(k, rows)


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
