"""Exact minimum conversion sets by pruned depth-first search.

Vertices of degree < k can never be converted, so they are forced into every
candidate seed.  For each size in turn, a depth-first search adds the other
vertices in increasing order and returns the lexicographically least witness
of that size, so the output is deterministic.

A child's closure is computed from its parent's, since
closure(closure(A) | B) = closure(A | B), and as the parent's closure is a
fixed point only the added vertex's neighbours can start the next round
(`run_bits`'s `fresh`).  The search skips a child only when
no seed containing it can convert: in a converting seed S every other vertex
has at least k neighbours that turned black strictly before it, and counting
each edge for its later endpoint, never for an edge inside S, gives
m - e(S) >= k * (n - |S|).

The last round adds a term.  When |S| < n, let L be the non-empty set of
vertices that turn black in the last round.  Every neighbour of a vertex v in
L is black by then, and at least k of them turned black before v, so v has at
most deg(v) - k neighbours inside L.  An edge inside L counts for neither
endpoint, so L alone contributes sum_L (deg - k) - e(L) beyond the count
above, and e(L) <= sum_L (deg - k) / 2.  Every vertex of L lies outside S, so
it is not forced, and with d the least deg(v) - k over the non-forced
vertices:

    m - e(S) - k * (n - |S|) >= sum_L (deg - k) - e(L) >= ceil(d / 2).

The search applies the term whenever some vertex is not forced; it then
never reaches size n, since n - 1 vertices already convert.  The prefix's
e(S) only grows as vertices are added, so a child that exceeds
m - k * (n - size) - ceil(d / 2) is cut with its subtree.
"""
from __future__ import annotations

from .gf2 import ConsistencyError
from .graph import Graph, GraphError
from .percolation import _check_k, forced_vertices, neighbor_masks, run_bits

__all__ = [
    "SearchBudgetExceeded",
    "min_conversion_set",
    "has_conversion_set_of_size",
    "maxdeg2_witness",
]

DEFAULT_BUDGET = 30


class SearchBudgetExceeded(ValueError):
    pass


def _guard(n: int, budget_vertices: int) -> None:
    if n > budget_vertices:
        raise SearchBudgetExceeded(
            f"n={n} exceeds search budget {budget_vertices}; "
            "pass a larger --budget (budget_vertices) to override"
        )


def _search_size(
    g: Graph, k: int, size: int, forced: frozenset[int]
) -> tuple[int, ...] | None:
    """Least witness of exactly this size containing forced, or None."""
    slack = g.m - k * (g.n - size)
    if not len(forced) <= size <= g.n or slack < 0:
        return None
    pool = [v for v in range(g.n) if v not in forced]
    if pool:
        slack -= (min(g.degree(v) for v in pool) - k + 1) // 2
    extra = size - len(forced)
    masks = neighbor_masks(g)
    seed = 0
    for v in forced:
        seed |= 1 << v
    inner = sum((masks[v] & seed).bit_count() for v in forced) // 2
    if inner > slack:
        return None
    full = (1 << g.n) - 1
    black = run_bits(masks, seed, k)
    if extra == 0:
        return tuple(sorted(forced)) if black == full else None
    # One frame per chosen vertex, kept off the interpreter's call stack:
    # [next pool index to try, seed, closure of seed, edges inside seed].
    stack = [[0, seed, black, inner]]
    while stack:
        frame = stack[-1]
        i, seed, black, inner = frame
        if i > len(pool) - extra + len(stack) - 1:
            stack.pop()
            continue
        frame[0] = i + 1
        v = pool[i]
        grown = inner + (masks[v] & seed).bit_count()
        if grown > slack:
            continue
        seed |= 1 << v
        black = run_bits(masks, black | 1 << v, k, 1 << v)
        if len(stack) < extra:
            stack.append([i + 1, seed, black, grown])
        elif black == full:
            return tuple(v for v in range(g.n) if seed >> v & 1)
    return None


def min_conversion_set(
    g: Graph, k: int, budget_vertices: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Minimum size and lexicographically least witness."""
    _check_k(k)
    _guard(g.n, budget_vertices)
    if g.n == 0:
        return 0, ()
    forced = forced_vertices(g, k)
    for size in range(len(forced), g.n + 1):
        witness = _search_size(g, k, size, forced)
        if witness is not None:
            return size, witness
    raise ConsistencyError("the whole vertex set always converts")


def has_conversion_set_of_size(
    g: Graph, k: int, size: int, budget_vertices: int = DEFAULT_BUDGET
) -> bool:
    """Does some seed of exactly this size convert everything?"""
    _check_k(k)
    if size < 0:
        return False
    _guard(g.n, budget_vertices)
    if size >= g.n:
        return size == g.n
    return _search_size(g, k, size, forced_vertices(g, k)) is not None


def _component_shape(g: Graph, comp: list[int]) -> tuple[str, list[int]]:
    """Classify a max-degree-2 component as path or cycle, in walk order."""
    degs = [g.degree(v) for v in comp]
    if any(d > 2 for d in degs):
        raise GraphError("component with degree > 2")
    if len(comp) == 1:
        return "path", comp
    ends = [v for v in comp if g.degree(v) == 1]
    if ends:
        start = min(ends)
        kind = "path"
    else:
        start = min(comp)
        kind = "cycle"
    order = [start]
    prev = None
    cur = start
    while len(order) < len(comp):
        nxt = next(w for w in g.adj[cur] if w != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return kind, order


def maxdeg2_witness(g: Graph) -> tuple[int, frozenset[int]]:
    """Closed-form minimum I2CS size of a graph with maximum degree <= 2,
    with a canonical optimal witness.

    Per component: a path on p vertices needs floor(p/2) + 1 (isolated vertex
    included as p = 1), a cycle on p vertices needs ceil(p/2).
    """
    witness: set[int] = set()
    total = 0
    for comp in g.components():
        kind, order = _component_shape(g, comp)
        p = len(order)
        if kind == "path":
            total += p // 2 + 1
            picks = set(order[0:p:2])
            picks.add(order[-1])
            witness |= picks
        else:
            total += (p + 1) // 2
            witness |= {order[i] for i in range(0, p, 2)}
    return total, frozenset(witness)
