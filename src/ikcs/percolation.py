"""Irreversible k-threshold conversion process.

Black vertices stay black; a white vertex turns black in the round after it
has at least k black neighbors.  All updates in a round are simultaneous.
The process is monotone in the seed and stabilizes within n rounds.

`run` and `is_conversion_set` read only a graph's `n` and `adj`, so they
take a `Graph` or a `NeighborTable`, whose neighbours need not be sorted;
the other functions here take a `Graph`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import ConsistencyError, Graph, GraphError

__all__ = [
    "NeighborTable",
    "PercolationTrace",
    "run",
    "is_conversion_set",
    "stuck_certificate",
    "forced_vertices",
    "neighbor_masks",
    "run_bits",
]


class NeighborTable(NamedTuple):
    """Vertices 0..n-1 and each one's neighbours, for a simple graph whose
    adjacency is known without building a `Graph`: no vertex lists itself
    or the same neighbour twice, and u lists v exactly when v lists u."""

    n: int
    adj: tuple[tuple[int, ...], ...]


def _check_seed(g: Graph | NeighborTable, seed) -> frozenset[int]:
    s = frozenset(seed)
    if s and (min(s) < 0 or max(s) >= g.n):
        v = next(v for v in s if not 0 <= v < g.n)
        raise GraphError(f"seed vertex {v} out of range")
    return s


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("threshold k must be >= 1")


@dataclass(frozen=True)
class PercolationTrace:
    seed: frozenset[int]
    rounds: tuple[frozenset[int], ...]  # newly black per round, round 1 onward
    final_black: frozenset[int]
    converted_all: bool

    def round_of(self) -> dict[int, int]:
        """Vertex -> round it became black (0 for seeds)."""
        out = {v: 0 for v in self.seed}
        for i, newly in enumerate(self.rounds, start=1):
            for v in newly:
                out[v] = i
        return out

    def to_json_dict(self) -> dict:
        return {
            "seed": sorted(self.seed),
            "rounds": [sorted(r) for r in self.rounds],
            "final_black": sorted(self.final_black),
            "converted_all": self.converted_all,
        }


def _spread(g: Graph | NeighborTable, seed: frozenset[int], k: int) -> list[list[int]]:
    """The conversion kernel: seeds, then each round's newly black vertices.

    need[v] counts the black neighbors v still lacks; each round walks only
    the neighbors of the previous round's newly black vertices, and a vertex
    joins the next round when its count reaches zero.  Seeds start at zero,
    so they (like converted vertices) go negative and are never added again.
    Every vertex and edge is touched a bounded number of times: O(n + m).
    """
    adj = g.adj
    need = [k] * g.n
    for v in seed:
        need[v] = 0
    layers = [list(seed)]
    frontier = layers[0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                left = need[w] - 1
                need[w] = left
                if not left:
                    nxt.append(w)
        if nxt:
            layers.append(nxt)
        frontier = nxt
    return layers


def run(g: Graph | NeighborTable, seed, k: int) -> PercolationTrace:
    """Run to the fixed point, recording each round's newly black set."""
    _check_k(k)
    s = _check_seed(g, seed)
    layers = _spread(g, s, k)
    fb = frozenset(v for layer in layers for v in layer)
    return PercolationTrace(
        seed=s,
        rounds=tuple(frozenset(layer) for layer in layers[1:]),
        final_black=fb,
        converted_all=len(fb) == g.n,
    )


def is_conversion_set(g: Graph | NeighborTable, seed, k: int) -> bool:
    """Does the seed eventually convert every vertex?"""
    _check_k(k)
    layers = _spread(g, _check_seed(g, seed), k)
    return sum(map(len, layers)) == g.n


def stuck_certificate(g: Graph, trace: PercolationTrace, k: int) -> frozenset[int]:
    """Final white set W of a non-converting run, given as its trace.

    Every w in W keeps at least deg(w) - k + 1 white neighbors, which is the
    reason the process is stuck; this is checked before returning (a failure
    raises ConsistencyError).  Raises ValueError if the run converted
    everything.
    """
    if trace.converted_all:
        raise ValueError("seed percolates; no stuck certificate exists")
    white = frozenset(range(g.n)) - trace.final_black
    for w in white:
        wn = sum(1 for x in g.adj[w] if x in white)
        if wn < g.degree(w) - k + 1:
            raise ConsistencyError(f"stuck set not self-certifying at {w}")
    return white


def forced_vertices(g: Graph, k: int) -> frozenset[int]:
    """Vertices of degree < k; they can never be converted, only seeded."""
    _check_k(k)
    return frozenset(v for v in range(g.n) if g.degree(v) < k)


def neighbor_masks(g: Graph) -> list[int]:
    """Adjacency as bitmasks, for `run_bits`."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def run_bits(masks: list[int], black: int, k: int, fresh: int | None = None) -> int:
    """Fixed point of the process on bitmask state; returns final black mask.

    A white vertex can only reach k black neighbours (k >= 1) in the round
    after one of them turned black, so each round checks just the white
    neighbours of the previous round's new vertices.  The first round checks
    those of `fresh`, which defaults to all of black.  A smaller fresh is
    enough when black minus fresh lies inside a closed subset of black, as
    when a caller adds vertices to a closure and passes just those.
    """
    _check_k(k)
    if fresh is None:
        fresh = black
    while fresh:
        near = 0
        while fresh:
            low = fresh & -fresh
            near |= masks[low.bit_length() - 1]
            fresh ^= low
        near &= ~black
        while near:
            low = near & -near
            if (masks[low.bit_length() - 1] & black).bit_count() >= k:
                fresh |= low
            near ^= low
        black |= fresh
    return black
