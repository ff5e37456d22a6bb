"""Minimum irreversible 2-conversion sets for graphs of maximum degree 3.

The route: attach a 5-vertex gadget to every degree-1 vertex (min degree
becomes 2), normalize away degree-2 vertices case by case until the graph is
cubic, represent each vertex as a line in the signed cycle space (the
cographic dual), find a minimum spanning set of the restricted 2-polymatroid
via matroid parity, and map the witness back through the pipeline.  Every
stage of the back-mapping is re-verified with the conversion process, so a
returned witness is always a genuine conversion set of the input.

The cycle space is taken with signs (oriented fundamental cycles), so the
lines represent the cographic matroid over GF(p), p = 2^31 - 1: cographic
matroids are regular, and a signed representation works over every field.

On a cubic graph a vertex set is a conversion set exactly when it meets
every cycle, which is what makes the cycle-space rank function the right
object: f(X) = mu(G) - mu(G - X) counts independent cycles broken by X.
The representation is checked, not sampled, and without an elimination:
both ends of every edge must read the same column from their lines, and
every cycle coordinate must be some edge's signed unit column, as the
non-tree edge of each fundamental cycle is; together these prove the
identity for every X (`_check_representation`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dfield

import numpy as np

from .exact import maxdeg2_witness
from .gf2 import ConsistencyError, PrimeField
from .graph import Graph, GraphError
from .percolation import is_conversion_set
from .polymatroid import (
    PolymatroidInstance,
    block_dims,
    check_parity_count,
    check_signed_count,
    min_spanning_set,
)

__all__ = [
    "h5_graph",
    "ReductionStep",
    "attach_h5_to_leaves",
    "normalize_degree2",
    "cographic_lines",
    "Deg3Result",
    "solve_deg3",
    "min_i2cs_maxdeg3",
]

EDGE_CHUNK = 2048  # edges per pass of `_check_representation`


def h5_graph() -> Graph:
    """The gadget: a 5-cycle v1..v5 (ids 0..4) plus chords v2v4 and v3v5."""
    return Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)))


@dataclass
class ReductionStep:
    """One reduction; `data` holds only what the two graphs do not give:
    attach_h5's leaves and split_adjacent_pair's u, v, x and y."""

    kind: str
    graph_before: Graph
    graph_after: Graph
    data: dict = dfield(default_factory=dict)


def attach_h5_to_leaves(g: Graph) -> ReductionStep:
    """Replace every degree-1 vertex by a gadget attachment.

    The minimum conversion-set size grows by exactly the number of leaves:
    each gadget needs two seeds but absorbs the forced seeding of its leaf.
    Copy j takes the vertices g.n + 4j .. g.n + 4j + 3, so the step records
    only the leaves: every vertex from g.n on is a gadget's internal one.
    """
    if g.max_degree() > 3:
        raise GraphError("maximum degree exceeds 3")
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    if not leaves:
        return ReductionStep("attach_h5", g, g, {"leaves": leaves})
    h5 = h5_graph().edges
    edges = list(g.edges)
    for j, v in enumerate(leaves):
        # the gadget's v1 is the leaf itself, v2..v5 the copy's fresh vertices
        ids = (v, *range(g.n + 4 * j, g.n + 4 * j + 4))
        edges += [(ids[a], ids[b]) for a, b in h5]
    after = Graph(g.n + 4 * len(leaves), tuple(edges))
    return ReductionStep("attach_h5", g, after, {"leaves": leaves})


def _caterpillar_extend(g2: Graph, d2s: list[int]) -> Graph:
    """Join k >= 3 degree-2 vertices to a fresh spine path of k - 2 vertices,
    g2.n .. g2.n + k - 3."""
    k = len(d2s)
    n = g2.n
    spine = list(range(n, n + k - 2))
    extra: list[tuple[int, int]] = []
    for i in range(len(spine) - 1):
        extra.append((spine[i], spine[i + 1]))
    if k == 3:
        extra += [(spine[0], d2s[0]), (spine[0], d2s[1]), (spine[0], d2s[2])]
    else:
        extra += [(spine[0], d2s[0]), (spine[0], d2s[1])]
        for i in range(1, k - 3):
            extra.append((spine[i], d2s[i + 1]))
        extra += [(spine[-1], d2s[k - 2]), (spine[-1], d2s[k - 1])]
    return Graph(n + k - 2, g2.edges + tuple(extra))


def normalize_degree2(g2: Graph) -> tuple[list[ReductionStep], Graph, frozenset[int]]:
    """Drive a min-degree-2 graph to a cubic one.

    Returns the step sequence, the cubic graph G3, and the subset V2 of its
    vertices on which the polymatroid is restricted (everything except a
    possible spine path).  Case analysis on the number d2 of degree-2
    vertices: 0 = done; 1 = duplicate and join; 2 adjacent = subdivide, hang
    a pendant, gadget it, then fall through to the nonadjacent case; 2
    nonadjacent = add the missing edge; >= 3 = attach a spine.
    """
    if g2.n == 0 or not g2.is_connected():
        raise GraphError("normalization expects a connected graph")
    degs = [g2.degree(v) for v in range(g2.n)]
    if min(degs) < 2 or max(degs) > 3:
        raise GraphError("normalization expects degrees 2 and 3 only")

    d2s = [v for v in range(g2.n) if g2.degree(v) == 2]
    steps: list[ReductionStep] = []

    if len(d2s) == 0:
        return steps, g2, frozenset(range(g2.n))

    if len(d2s) >= 3:
        g3 = _caterpillar_extend(g2, d2s)
        steps.append(ReductionStep("attach_caterpillar", g2, g3))
        return steps, g3, frozenset(range(g2.n))

    if len(d2s) == 1:
        v = d2s[0]
        off = g2.n
        shifted = tuple((u + off, w + off) for u, w in g2.edges)
        g3 = Graph(2 * off, g2.edges + shifted + ((v, v + off),))
        steps.append(ReductionStep("duplicate_graph", g2, g3))
        return steps, g3, frozenset(range(g3.n))

    u, v = d2s
    cur = g2
    if cur.has_edge(u, v):
        x, y = cur.n, cur.n + 1
        es = tuple(e for e in cur.edges if e != (min(u, v), max(u, v)))
        g1 = Graph(cur.n + 2, es + ((u, x), (v, x), (x, y)))
        steps.append(
            ReductionStep(
                "split_adjacent_pair", cur, g1,
                {"u": u, "v": v, "x": x, "y": y},
            )
        )
        steps.append(attach_h5_to_leaves(g1))  # y is g1's only leaf
        cur = steps[-1].graph_after
    g3 = Graph(cur.n, cur.edges + ((u, v),))
    steps.append(ReductionStep("add_edge_nonadjacent", cur, g3))
    return steps, g3, frozenset(range(g3.n))


def cographic_lines(g3: Graph) -> tuple[PolymatroidInstance, int]:
    """One line per vertex, spanned by two of its edge columns.

    Edge columns live in GF(p)^mu indexed by the oriented fundamental
    cycles: the column of edge e holds +1 or -1 for each cycle through e,
    by the direction the cycle traverses it.  Signed by the direction of e
    at v (+1 when v is its lower endpoint), the three columns at a vertex
    sum to zero, so any two of them span the same space, and for X a vertex
    set the rank of the union of its lines equals mu(G3) - mu(G3 - X);
    `_check_representation` proves this for every X before returning.  The
    cycles must be fundamental: each one's non-tree edge lies on no other,
    so its column is a signed unit vector, and these mu columns are the
    check's certificate that the lines have full rank mu.
    Bridge edges have zero columns, which legitimately yields lines of
    dimension below 2; such lines simply never enter matchings.  Returns
    the instance and mu.
    """
    if g3.n == 0 or not g3.is_connected():
        raise GraphError("cographic representation expects a connected graph")
    if any(g3.degree(v) != 3 for v in range(g3.n)):
        raise GraphError("cographic representation expects a cubic graph")
    check_signed_count(g3.n)
    lines, mu = _signed_lines(g3)
    inst = PolymatroidInstance(lines, mu, PrimeField())
    _check_representation(g3, inst, mu)
    return inst, mu


def _signed_lines(g3: Graph) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """The lines of `cographic_lines` as int8 arrays (a, b), and mu."""
    nontree, cycles = g3.fundamental_cycles()
    mu = len(nontree)
    cols = np.zeros((g3.m, mu), dtype=np.int8)
    for ci, cyc in enumerate(cycles):
        for ei, sign in cyc.items():
            cols[ei, ci] = sign
    # endpoint slot 2e + s of edge e: each vertex's three edges in index order
    order = np.lexsort((np.arange(2 * g3.m), np.ravel(g3.edges)))
    inc = (order // 2).reshape(g3.n, 3)
    out = np.where(order % 2 == 0, 1, -1).astype(np.int8).reshape(g3.n, 3)
    # the lines are the first two slots; the third is never stored
    a, b = (out[:, s, None] * cols[inc[:, s]] for s in (0, 1))
    return (a, b), mu


def _check_representation(g3: Graph, inst: PolymatroidInstance, mu: int) -> None:
    """Prove f(X) = mu(G3) - mu(G3 - X) for every vertex set X.

    Line v's three slots give the columns of its edges in index order:
    a_v, b_v and -(a_v + b_v), each signed by the edge's direction at v
    (+1 when v is its lower endpoint).  When both ends of every edge e read
    the same column c_e, the m x mu matrix C of these columns satisfies
    B C = 0 over GF(p), B the signed incidence matrix, so its columns lie
    in the cycle space ker B, of dimension m - n + 1 = mu for a connected
    graph.  When moreover every coordinate is the one nonzero of some
    c_e, those mu rows of C form a signed identity minor, so C has rank mu
    and no elimination is needed; with fundamental cycles the non-tree
    edges supply them.  The lines span exactly the c_e, so f(V) = mu, the
    columns of C span ker B, and the c_e represent the cographic matroid.
    Each line spans the columns of the three edges at its vertex, so
    f(X) = r*(edges meeting X) = mu - mu(G3 - X).
    """
    if mu != g3.m - g3.n + 1:
        raise ConsistencyError(f"{mu} cycles != m - n + 1 = {g3.m - g3.n + 1}")
    a, b = inst._signed
    ends = np.ravel(g3.edges)  # endpoint 2e + s of edge e
    slot = np.empty(len(ends), dtype=np.intp)
    slot[np.argsort(ends, kind="stable")] = np.arange(len(ends)) % 3
    covered = np.zeros(mu, dtype=bool)
    # EDGE_CHUNK edges at a time, so the columns read stay small
    for lo in range(0, len(ends), 2 * EDGE_CHUNK):
        at, side = ends[lo : lo + 2 * EDGE_CHUNK], slot[lo : lo + 2 * EDGE_CHUNK, None]
        read = np.where(side == 0, a[at], b[at])
        read = np.where(side == 2, -(a[at] + read), read)
        bad = np.flatnonzero((read[0::2] + read[1::2]).any(axis=1))
        if bad.size:
            u, w = g3.edges[lo // 2 + bad[0]]
            raise ConsistencyError(f"edge ({u}, {w}) reads different columns at its ends")
        cols = read[0::2]
        covered |= cols[np.count_nonzero(cols, axis=1) == 1].any(axis=0)
    missing = np.flatnonzero(~covered)
    if missing.size:
        raise ConsistencyError(
            f"no edge column is a unit vector at cycle {missing[0]}; "
            f"f(V) = {mu} is unproven"
        )


def _undo_candidates(step: ReductionStep, wit: frozenset[int]) -> list[frozenset[int]]:
    """Witness candidates for graph_before, given a witness for graph_after."""
    kind = step.kind
    if kind == "attach_h5":
        n = step.graph_before.n
        return [frozenset(v for v in wit if v < n).union(step.data["leaves"])]
    if kind == "attach_caterpillar":
        # the spine is every vertex the step added
        if not wit.isdisjoint(range(step.graph_before.n, step.graph_after.n)):
            raise ConsistencyError("witness touched the spine path")
        return [wit]
    if kind == "add_edge_nonadjacent":
        # every conversion set of the augmented graph works in the original
        return [wit]
    if kind == "duplicate_graph":
        off = step.graph_before.n  # the copy of vertex v is v + off
        left = frozenset(v for v in wit if v < off)
        right = frozenset(v - off for v in wit if v >= off)
        return [left, right] if len(left) <= len(right) else [right, left]
    if kind == "split_adjacent_pair":
        u, v, x, y = (step.data[k] for k in ("u", "v", "x", "y"))
        if y not in wit:
            raise ConsistencyError("pendant vertex missing from witness")
        base = wit - {x, y}
        if x not in wit:
            return [base]
        return [base | {r} for r in (u, v) if r not in base] or [base]
    raise ConsistencyError(f"unknown step kind {kind!r}")


def _backmap(steps: list[ReductionStep], wit: frozenset[int]) -> frozenset[int]:
    """Walk the pipeline backwards, verifying each stage's witness."""
    cur = wit
    for step in reversed(steps):
        for cand in _undo_candidates(step, cur):
            if is_conversion_set(step.graph_before, cand, 2):
                cur = cand
                break
        else:
            raise ConsistencyError(f"no valid witness past step {step.kind}")
    return cur


@dataclass
class Deg3Result:
    size: int
    witness: frozenset[int]
    components: list[dict]


def _solve_component(g: Graph, rng: random.Random) -> tuple[frozenset[int], dict]:
    if g.max_degree() <= 2:
        size, wit = maxdeg2_witness(g)
        if not is_conversion_set(g, wit, 2):
            raise ConsistencyError("closed-form witness fails to convert")
        return wit, {"mode": "closed_form", "n": g.n, "size": size}

    h5_step = attach_h5_to_leaves(g)
    steps = [h5_step]
    nsteps, g3, v2 = normalize_degree2(h5_step.graph_after)
    steps += nsteps
    check_parity_count(PrimeField.order, len(v2))
    inst, mu = cographic_lines(g3)
    sub = tuple(sorted(v2))

    span = min_spanning_set(inst, rng, subset=sub)
    if not is_conversion_set(g3, span, 2):
        raise ConsistencyError("spanning set does not convert the cubic graph")
    wit = _backmap(steps, frozenset(span))
    dims = block_dims(inst, sub)  # the solve's own decomposition, memoized
    summary = {
        "mode": "pipeline",
        "n": g.n,
        "leaves": len(h5_step.data["leaves"]),
        "steps": [s.kind for s in steps],
        "cubic_n": g3.n,
        "mu": mu,
        "v2": len(sub),
        "blocks": len(dims),
        "max_block_dim": max(dims, default=0),
        "spanning_size": len(span),
        "size": len(wit),
    }
    return wit, summary


def _split_components(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Each connected component renumbered 0.. in vertex order, with its
    vertex list (new id -> old id), from one pass over the edges."""
    comps = g.components()
    if len(comps) == 1:
        return [(g, comps[0])]
    where = [(0, 0)] * g.n
    for c, comp in enumerate(comps):
        for i, v in enumerate(comp):
            where[v] = (c, i)
    edges: list[list[tuple[int, int]]] = [[] for _ in comps]
    for u, v in g.edges:
        (c, i), (_, j) = where[u], where[v]
        edges[c].append((i, j))
    return [(Graph(len(comp), tuple(es)), comp) for comp, es in zip(comps, edges)]


def solve_deg3(g: Graph, rng: random.Random | None = None) -> Deg3Result:
    """Solve per component and stitch the witnesses together."""
    if g.max_degree() > 3:
        raise GraphError("maximum degree exceeds 3")
    rng = rng if rng is not None else random.Random()
    witness: set[int] = set()
    summaries = []
    for sub, back in _split_components(g):
        comp_rng = random.Random(rng.getrandbits(64))
        wit, summary = _solve_component(sub, comp_rng)
        witness |= {back[v] for v in wit}
        summaries.append(summary)
    if g.n and not is_conversion_set(g, witness, 2):
        raise ConsistencyError("assembled witness fails to convert the input")
    return Deg3Result(len(witness), frozenset(witness), summaries)


def min_i2cs_maxdeg3(
    g: Graph, rng: random.Random | None = None
) -> tuple[int, frozenset[int]]:
    """Minimum irreversible 2-conversion set (size, witness), max degree <= 3."""
    res = solve_deg3(g, rng)
    return res.size, res.witness
