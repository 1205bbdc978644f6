"""Exact chromatic number, clique number, colourings bracketed by a base's
powers, and integer ceiling logs.

Everything here is exact and deterministic: searches iterate vertices in
increasing id, so repeated calls return identical witnesses.  Sizes are
desk scale (n <= 64), which branch and bound handles comfortably.

Colouring comes first: the DSATUR search with k = n never backtracks,
and its greedy colouring's count bounds omega from above, so the clique
search stops once a clique reaches it (Brelaz's DSATUR; Tomita and
Seki's colouring bounds for maximum clique).  Where the two meet, chi
is proved with no failing search and no proof that no larger clique
exists.  Elsewhere the same search is asked for fewer colours and goes
on from its last colouring (dsatur_search), which gives what a new
search would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

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


def _max_clique(rows: Sequence[int], cand: int, bound: Optional[int] = None) -> int:
    """Lexicographically least maximum clique inside the candidate mask,
    the search ending once the best clique reaches bound (default: the
    mask's size).

    Branch and bound that tries vertices in increasing id and cuts a
    branch only when it cannot beat the best size so far.  Cliques are
    visited in lexicographic order, so the first one to reach the final
    size is the least.  A proper colouring's count bounds omega from
    above, and with any bound of at least omega that clique is still the
    answer: the search only skips proving that no larger one exists.
    """
    if bound is None:
        bound = cand.bit_count()
    best = 0
    best_mask = 0

    def expand(cand: int, size: int, cur: int) -> bool:
        nonlocal best, best_mask
        if size > best:
            best = size
            best_mask = cur
            if best >= bound:
                return True
        while cand:
            if size + cand.bit_count() <= best:
                return False
            low = cand & -cand
            cand ^= low
            if expand(cand & rows[low.bit_length() - 1], size + 1, cur | low):
                return True
        return False

    expand(cand, 0, 0)
    return best_mask


def omega_of_rows(n: int, rows: Sequence[int], bound: Optional[int] = None) -> int:
    return _max_clique(rows, (1 << n) - 1, bound).bit_count()


def clique_number(g: Graph, bound: Optional[int] = None) -> Tuple[int, CliqueWitness]:
    """Maximum clique size with the lexicographically least witness.
    bound, where given, is an upper bound on omega, such as a proper
    colouring's count: the search stops once a clique reaches it."""
    clique = tuple(bits_of(_max_clique(g.rows, (1 << g.n) - 1, bound)))
    return len(clique), CliqueWitness(clique, len(clique))


def k_colorable_rows(n: int, rows: Sequence[int], k: int) -> Optional[List[int]]:
    """Proper coloring with at most k colors, or None: the first coloring
    of dsatur_search(n, rows, k).

    With k >= n the fresh color is always free, so the search never
    backtracks: it returns the greedy first descent, each vertex taking
    its lowest color free among its neighbours.  More generally the
    coloring found for k is also the answer for every k' from its color
    count up to k, since the search for k' walks the same tree pruned to
    fewer colors: one call with k = n gives an upper bound on chi and the
    answer for every k it covers.
    """
    if n == 0:
        return []
    if k <= 0:
        return None
    if not any(rows):
        return [0] * n
    for colors in dsatur_search(n, rows, k):
        if colors is not None:
            return colors
    return None


def dsatur_search(n: int, rows: Sequence[int], k: int) -> Generator[Optional[List[int]], int, None]:
    """The DSATUR search for a proper coloring with at most k colors, as
    a generator: it yields the first coloring it finds, and ends where
    there is none.  Sent a smaller k, it goes on from that coloring and
    yields the first with at most that many colors, which is what a new
    search for that k returns: the smaller search walks the same tree in
    the same order, pruned to fewer colors, every branch before the
    coloring just found holds no coloring at all, and every one under the
    first vertex colored k or above uses too many.  Where its first
    descent meets a vertex with no color left, before any coloring, it
    yields None there once and then goes on backtracking.

    Backtracking on the most saturated vertex (ties: higher degree, then
    lower id), on an explicit stack of colored vertices.  A fresh color
    is only ever the next unused index, which breaks color symmetry and
    keeps witnesses dense in 0..used-1.

    Saturation and degree are bit-sliced counters over vertex masks, most
    significant slice first: bit v of sat[i] is bit i (from the top) of
    v's saturation, and likewise deg[] for its degree.  Coloring v with c
    adds 1 to the counters of new, its uncolored neighbors not yet next to
    c, by a ripple carry from the last slice; backtracking subtracts it
    again.  The pick narrows the uncolored mask through the saturation
    slices, then the degree slices, keeping a slice's vertices wherever
    some remain, and takes the lowest bit left.
    """
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
    while deg and not deg[0]:
        del deg[0]
    # one entry per colored vertex: (vbit, rest, rv, used before it, c, new)
    stack = []
    uncolored = (1 << n) - 1
    used = 0
    descent = True  # no backtracking and no coloring yet
    while True:
        if uncolored:
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
            rest = uncolored ^ vbit
            rv = rows[vbit.bit_length() - 1] & rest
            c = 0
        else:
            colors = [0] * n
            for vbit, _, _, _, c, _ in stack:
                colors[vbit.bit_length() - 1] = c
            descent = False
            k = yield colors
            # the first vertex colored k or above has no color left: undo
            # it and the vertices after it, and backtrack from there
            first = next((i for i, frame in enumerate(stack) if frame[4] >= k), None)
            if first is None:
                continue
            while len(stack) > first:
                vbit, rest, rv, used, c, new = stack.pop()
                if new:
                    has[c] ^= new
                    j = -1
                    while new:
                        s = sat[j]
                        sat[j] = s ^ new
                        new &= ~s
                        j -= 1
            c = k
        while True:
            top = used + 1 if used < k else k
            while c < top and has[c] & vbit:
                c += 1
            if c < top:
                break
            if descent:
                descent = False
                yield None
            if not stack:  # every color of the first vertex failed
                return
            vbit, rest, rv, used, c, new = stack.pop()
            if new:
                has[c] ^= new
                j = -1
                while new:
                    s = sat[j]
                    sat[j] = s ^ new
                    new &= ~s
                    j -= 1
            c += 1
        hc = has[c]
        new = rv & ~hc
        stack.append((vbit, rest, rv, used, c, new))
        if new:
            has[c] = hc | new
            j = -1
            carry = new
            while carry:
                s = sat[j]
                sat[j] = s ^ carry
                carry &= s
                j -= 1
        if c == used:
            used += 1
        uncolored = rest


def _fewer(search: Generator[Optional[List[int]], int, None], k: int) -> Optional[List[int]]:
    """The next coloring of a DSATUR search with at most k colors, or
    None where there is none."""
    try:
        return search.send(k)
    except StopIteration:
        return None


def _color_components(n: int, rows: Sequence[int], k: Optional[int] = None,
                      search: Optional[Generator[Optional[List[int]], int, None]] = None
                      ) -> Optional[Coloring]:
    """Proper coloring built one connected component at a time, or None.

    With k given, every component gets at most k colors (None if one needs
    more).  The whole graph's search for k colors goes first: where its
    first descent colors every vertex, each component's search would
    make the same choices, so that coloring is the answer.  search, where
    given, is instead the whole graph's greedy search, already past a
    coloring with more than k colors.  Without k, each component gets its
    fewest (_fewest_colors).

    Only components with an edge are searched apart; an isolated vertex
    takes color 0.  Where at most one component has an edge the graph is
    searched whole, going on with the search already begun: DSATUR picks
    its isolated vertices last, each taking color 0 with no backtracking,
    so the coloring is the same.
    """
    if n == 0:
        return Coloring((), 0)
    if k is not None and search is None:
        search = dsatur_search(n, rows, k)
        descent = next(search, None)
        if descent is not None:
            return Coloring(tuple(descent), max(descent) + 1)
    parts = [comp for comp in components(rows, (1 << n) - 1) if comp & (comp - 1)]
    if len(parts) <= 1:
        sol = _fewest_colors(n, rows) if k is None else _fewer(search, k)
        return None if sol is None else Coloring(tuple(sol), max(sol) + 1)
    colors = [0] * n
    for comp in parts:
        cn, crows = induced_rows(rows, comp)
        sol = _fewest_colors(cn, crows) if k is None else k_colorable_rows(cn, crows, k)
        if sol is None:
            return None
        for v, color in zip(bits_of(comp), sol):
            colors[v] = color
    return Coloring(tuple(colors), max(colors) + 1)


def _fewest_colors(n: int, rows: Sequence[int]) -> List[int]:
    """What the search for chi colors returns.  The greedy first descent
    (the search with k = n) gives an upper bound top, the clique search
    stops at top, and the search is asked for one color fewer than its
    last coloring, going on from it, until it fails or meets the clique
    number: each coloring found is the answer for every k from its count
    up, so the last one is the answer for chi."""
    search = dsatur_search(n, rows, n)
    sol = next(search)
    floor = omega_of_rows(n, rows, max(sol) + 1)
    while max(sol) + 1 > floor:
        fewer = _fewer(search, max(sol))
        if fewer is None:
            break
        sol = fewer
    return sol


def first_fit_coloring(n: int, rows: Sequence[int]) -> Coloring:
    """First-fit colouring in increasing vertex id: each vertex takes the
    lowest colour none of its earlier neighbours has.  A cheap upper bound
    on chi."""
    classes: List[int] = []  # vertex mask of each colour
    colors = []
    for v in range(n):
        for i, cls in enumerate(classes):
            if not rows[v] & cls:
                classes[i] = cls | 1 << v
                colors.append(i)
                break
        else:
            colors.append(len(classes))
            classes.append(1 << v)
    return Coloring(tuple(colors), len(classes))


def bracket_coloring(n: int, rows: Sequence[int], base: int, floor: int,
                     coloring: Coloring) -> Coloring:
    """A proper colouring whose count c has ceil_log(base, c) equal to
    ceil_log(base, chi), or at most floor where that is.

    From the given proper colouring (first fit, say) with t =
    ceil_log(base, c), each round asks for base**(t-1) colours: a
    colouring found replaces the current one and t drops to its own
    ceil_log, and a failed search proves chi > base**(t-1), so t is
    minimal.  Only the range (base**(t-1), base**t] of chi is settled,
    never chi itself.
    """
    if coloring.count <= 1:  # no edge: no digit to spend
        return coloring
    t = ceil_log(base, coloring.count)
    while t > floor:
        better = _color_components(n, rows, base ** (t - 1))
        if better is None:
            break
        coloring = better
        t = ceil_log(base, coloring.count)
    return coloring


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
