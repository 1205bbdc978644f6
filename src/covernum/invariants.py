"""Exact chromatic number, clique number and integer ceiling logs.

Everything here is exact and deterministic: searches iterate vertices in
increasing id, so repeated calls return identical witnesses.  Sizes are
desk scale (n <= 64), which branch and bound handles comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import Graph, bits_of, components, induced_rows, is_clique, proper


def ceil_log(base: int, x: int) -> int:
    """Least t >= 0 with base**t >= x, by pure integer arithmetic."""
    if base < 2:
        raise ValueError(f"log base must be >= 2, got {base}")
    if x < 1:
        raise ValueError(f"argument must be >= 1, got {x}")
    t = 0
    p = 1
    while p < x:
        p *= base
        t += 1
    return t


@dataclass(frozen=True)
class Coloring:
    """Proper coloring: colors[v] in 0..count-1, every color used."""

    colors: Tuple[int, ...]
    count: int


@dataclass(frozen=True)
class CliqueWitness:
    vertices: Tuple[int, ...]
    size: int


def _max_clique(rows: Sequence[int], cand: int) -> int:
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


def omega_of_rows(n: int, rows: Sequence[int]) -> int:
    return _max_clique(rows, (1 << n) - 1).bit_count()


def clique_number(g: Graph) -> Tuple[int, CliqueWitness]:
    """Maximum clique size with the lexicographically least witness."""
    clique = tuple(bits_of(_max_clique(g.rows, (1 << g.n) - 1)))
    return len(clique), CliqueWitness(clique, len(clique))


def k_colorable_rows(n: int, rows: Sequence[int], k: int) -> Optional[List[int]]:
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


def _color_components(n: int, rows: Sequence[int], k: Optional[int] = None) -> Optional[Coloring]:
    """Proper coloring built one connected component at a time, or None.

    With k given, every component gets at most k colors (None if one needs
    more); without, each gets its fewest, deepening from its clique number.
    """
    colors = [0] * n
    for comp in components(rows, (1 << n) - 1):
        cn, crows = induced_rows(rows, comp)
        c = omega_of_rows(cn, crows) if k is None else k
        sol = k_colorable_rows(cn, crows, c)
        while sol is None:
            if k is not None:
                return None
            c += 1
            sol = k_colorable_rows(cn, crows, c)
        for v, color in zip(bits_of(comp), sol):
            colors[v] = color
    return Coloring(tuple(colors), max(colors, default=-1) + 1)


def first_fit_colors(n: int, rows: Sequence[int]) -> int:
    """Colours a first-fit colouring in increasing vertex id uses: a cheap
    upper bound on chi."""
    classes: List[int] = []  # vertex mask of each colour
    for v in range(n):
        for i, cls in enumerate(classes):
            if not rows[v] & cls:
                classes[i] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def chromatic_number(g: Graph) -> Tuple[int, Coloring]:
    """Exact chromatic number and a coloring attaining it."""
    coloring = _color_components(g.n, g.rows)
    return coloring.count, coloring


def is_k_colorable(g: Graph, k: int) -> Optional[Coloring]:
    """A proper coloring of g with at most k colors, or None."""
    return _color_components(g.n, g.rows, k)


def check_coloring(g: Graph, coloring: Coloring) -> bool:
    """Independent validity check: proper and every color id used."""
    if len(coloring.colors) != g.n:
        return False
    if g.n == 0:
        return coloring.count == 0
    if any(c < 0 or c >= coloring.count for c in coloring.colors):
        return False
    if set(coloring.colors) != set(range(coloring.count)):
        return False
    return proper(g.rows, coloring.colors)


def check_clique(g: Graph, witness: CliqueWitness) -> bool:
    vs = witness.vertices
    if len(vs) != witness.size or len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    return is_clique(g.rows, sum(1 << v for v in vs))
