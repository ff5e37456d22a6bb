"""Shared graph and instance generators for the test batteries, the
full-range GF(p) reference product, the full-width Gauss-Jordan pass, the
two-elimination principal inverse, the per-line extraction, per-matrix nu
trials, the nu-first matching protocol, the brute-force nu without a
ceiling and the full-rescan bitmask closure."""
from __future__ import annotations

from itertools import combinations

import networkx as nx
import numpy as np

from ikcs.gf2 import ConsistencyError, PrimeField, RowBasis, field
from ikcs.graph import Graph
import ikcs.polymatroid as poly
from ikcs.polymatroid import (
    MATCHING_RETRIES,
    PolymatroidInstance,
    _draw,
    _nu_draws,
    _scan,
    _skew_form_ext,
)


def prime_matmul(a, b):
    """a @ b mod p for int64 arrays with entries in [0, p), b split into
    16-bit halves: each partial product is below 2^31 * 2^16, so sums of up
    to 2^16 terms fit in int64.  The reference for the package's exact
    products with one side in {-1, 0, 1}."""
    if a.shape[-1] > 1 << 16:
        raise ValueError("inner dimension too large for int64 GF(p) products")
    p = PrimeField.p
    lo = a @ (b & 0xFFFF) % p
    hi = a @ (b >> 16) % p
    return (lo + (hi << 16)) % p


def eliminate_full_width(a, cols: int) -> list[int]:
    """Gauss-Jordan on a in place with pivots in the first `cols` columns,
    every row operation over the whole row: the reference for
    `PrimeField._eliminate(a, cols=cols)`, which skips the
    identity columns a pivot row is zero in."""
    fld = PrimeField()
    p = fld.p
    n = len(a)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        nz = a[r:, c].nonzero()[0]
        if not len(nz):
            continue
        k = r + int(nz[0])
        a[[r, k]] = a[[k, r]]
        a[r] = a[r] * fld.inv(int(a[r, c])) % p
        for i in range(n):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
    return pivots


def principal_inverse_reference(y):
    """(S, inverse of y[S, S]) for a skew y by two eliminations: S is the
    pivot columns of y, then Gauss-Jordan on [y[S, S] | I].  The reference
    for `PrimeField.principal_inverse`, which makes one pass."""
    fld = PrimeField()
    y = np.array(y, dtype=np.int64) % fld.p
    s = fld._eliminate(y.copy())
    k = len(s)
    aug = np.zeros((k, 2 * k), dtype=np.int64)
    aug[:, :k] = y[np.ix_(s, s)]
    aug[:, k:] = np.eye(k, dtype=np.int64)
    if eliminate_full_width(aug, k) != list(range(k)):
        raise ConsistencyError("principal submatrix on a row basis is singular")
    return s, aug[:, k:]


def reduced_rows(inst: PolymatroidInstance, idx, side: int):
    """Rows idx of side 0 (a) or 1 (b), reduced mod p."""
    return inst._signed[side][list(idx)].astype(np.int64) % inst.field.p


def split_skew_form(inst: PolymatroidInstance, idx, t):
    """Y(t) through the 16-bit split product on reduced entries."""
    p = inst.field.p
    ta = t[:, None] * reduced_rows(inst, idx, 0) % p
    x = prime_matmul(ta.T, reduced_rows(inst, idx, 1))
    return (x - x.T) % p


def extraction_per_line(inst: PolymatroidInstance, rng, idx):
    """Inverse-update extraction one line at a time over every line of idx,
    zero forms included, every product a dense split mat-vec on the whole
    inverse, from the two-elimination inverse: the reference for
    `polymatroid._extract_by_inverse`, which drops the lines of rank <= 1
    and applies the updates of the others in blocks."""
    fld, p = inst.field, inst.field.p
    t = _draw(fld.p, rng, len(idx))
    s, minv = principal_inverse_reference(split_skew_form(inst, idx, t))
    a_s, b_s = (reduced_rows(inst, range(len(inst)), side)[:, s] for side in (0, 1))
    alive = []
    for i, ti in zip(idx, t.tolist()):
        mb = prime_matmul(minv, b_s[i])
        delta = (int(prime_matmul(a_s[i], mb)) + fld.inv(ti)) % p
        if delta == 0:
            alive.append(i)
            continue
        ma = prime_matmul(minv, a_s[i])
        x = np.outer(mb * fld.inv(delta) % p, ma) % p
        minv = (minv + x - x.T) % p
    return tuple(alive)


def nu_per_matrix(inst: PolymatroidInstance, rng, trials: int, idx, known: int = 0):
    """`polymatroid.nu_algebraic` with every trial's whole Y(t) ranked by
    the field's `rank`, over GF(p) built by `split_skew_form`, none skipped
    and none refused: the reference for the ceiling skip and for the
    per-block ranks."""
    fld = inst.field
    form = split_skew_form if inst._signed is not None else _skew_form_ext
    draws = _nu_draws(inst, rng, trials, idx)
    return max([known] + [fld.rank(form(inst, idx, t)) // 2 for t in draws])


def max_matching_reference(inst: PolymatroidInstance, rng, subset=None):
    """`polymatroid.max_matching` in the nu-first order: rank the three nu
    trials, then extract and confirm, each trial ranked by
    `nu_per_matrix`.  The reference for `max_matching`'s order over either
    field, which extracts before it ranks, ranks all six trials after the
    certifying scan and ranks nothing when the extraction certifies a
    matching of the ceiling size.  The extraction is looked up on `ikcs.polymatroid` at each call,
    so a test that patches it there patches both sides."""
    idx = tuple(inst.ground() if subset is None else subset)
    target = nu_per_matrix(inst, rng, 3, idx)
    for _ in range(MATCHING_RETRIES):
        if inst._signed is not None:
            alive = poly._extract_by_inverse(inst, rng, idx)
        else:
            alive = poly._extract_by_rank(inst, rng, idx)
        kept = _scan(inst, alive, idx)[1]
        size = 2 * len(alive)
        certified = len(alive) == target and kept[:size] == list(range(size))
        better = nu_per_matrix(inst, rng, 3, idx, known=target)
        if certified and better == target:
            return alive
        target = better
    raise ConsistencyError("matching extraction failed to stabilize")


def nu_no_stop(inst: PolymatroidInstance, subset=None) -> int:
    """nu by growing every matching, depth first, pruned only where the
    lines left cannot beat the best found: the reference for
    `polymatroid.nu_bruteforce`, which also stops at the block ceiling."""
    idx = list(inst.ground() if subset is None else subset)
    best = 0

    def dfs(pos: int, basis, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + len(idx) - pos <= best:
            return
        for j in range(pos, len(idx)):
            nb = basis.copy()
            if all(nb.add(v) for v in inst.rows((idx[j],))):
                dfs(j + 1, nb, size + 1)

    dfs(0, RowBasis(inst.field), 0)
    return best


def run_bits_reference(masks: list[int], black: int, k: int) -> int:
    """The closure by rescanning every white vertex in every round: the
    reference for `percolation.run_bits`, which checks only the neighbours
    of the last round's new vertices."""
    full = (1 << len(masks)) - 1
    while black != full:
        new = 0
        rest = full & ~black
        while rest:
            low = rest & -rest
            if (masks[low.bit_length() - 1] & black).bit_count() >= k:
                new |= low
            rest ^= low
        if not new:
            break
        black |= new
    return black


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _iso_key(g: Graph):
    """Isomorphism invariant: vertex labels refined three times, starting
    from the degree, each round pairing a label with the sorted labels of
    the vertex's neighbours."""
    label = [g.degree(v) for v in range(g.n)]
    for _ in range(3):
        label = [
            (label[v], tuple(sorted(label[w] for w in g.adj[v])))
            for v in range(g.n)
        ]
    return g.n, g.m, tuple(sorted(label))


def dedupe_iso(graphs) -> list[Graph]:
    """Keep one representative per isomorphism class."""
    buckets: dict = {}
    out = []
    for g in graphs:
        key = _iso_key(g)
        bucket = buckets.setdefault(key, [])
        gn = to_nx(g)
        if any(nx.is_isomorphic(gn, seen) for seen in bucket):
            continue
        bucket.append(gn)
        out.append(g)
    return out


def connected_maxdeg3_exhaustive(max_n: int) -> list[Graph]:
    """All connected graphs with maximum degree <= 3, up to isomorphism.

    Grown one vertex at a time: every such graph has a non-cut vertex, so
    attaching a fresh vertex to 1..3 vertices of remaining capacity reaches
    everything.
    """
    levels: list[list[Graph]] = [[Graph(1, ())]]
    for n in range(2, max_n + 1):
        cand = []
        for g in levels[-1]:
            open_slots = [v for v in range(g.n) if g.degree(v) < 3]
            for r in (1, 2, 3):
                for att in combinations(open_slots, r):
                    cand.append(Graph(n, g.edges + tuple((v, n - 1) for v in att)))
        levels.append(dedupe_iso(cand))
    return [g for lvl in levels[: max_n] for g in lvl]


def connected_maxdeg3_direct(max_n: int) -> list[Graph]:
    """Independent reference: filter every labeled graph.  Feasible n <= 6."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        graphs = []
        for bits in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
            g = Graph(n, edges)
            if g.max_degree() <= 3 and g.is_connected():
                graphs.append(g)
        out.extend(dedupe_iso(graphs))
    return out


def random_connected_maxdeg3(rng, n: int) -> Graph:
    """Random tree grown under the degree cap, plus a few chords."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    extra = rng.randrange(0, n)
    for _ in range(extra):
        free = [v for v in range(n) if deg[v] < 3]
        rng.shuffle(free)
        done = False
        for u, v in combinations(free, 2):
            if (min(u, v), max(u, v)) not in edges and not done:
                edges.append((min(u, v), max(u, v)))
                deg[u] += 1
                deg[v] += 1
                done = True
        if not done:
            break
    return Graph(n, tuple(edges))


def random_graph(rng, n: int, p: float) -> Graph:
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges)


def random_degree_graph(rng, degrees) -> Graph:
    """Random connected simple graph with these degrees, by the pairing model."""
    n = len(degrees)
    while True:
        stubs = [v for v in range(n) for _ in range(degrees[v])]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) < len(stubs) // 2:
            continue
        if any(u == v for u, v in pairs):
            continue
        g = Graph(n, tuple(sorted(pairs)))
        if g.is_connected():
            return g


def random_cubic(rng, n: int) -> Graph:
    """Random 3-regular connected graph via the pairing model (n even >= 4)."""
    assert n % 2 == 0 and n >= 4
    return random_degree_graph(rng, [3] * n)


def _k4_with_ports(first: int, ports: int):
    """Edges of K4 on first..first+3 with `ports` of the edges (first,
    first+1) and (first+2, first+3) subdivided, and the subdivision
    vertices, numbered on from first+4."""
    a, b, c, d = range(first, first + 4)
    edges = [(a, c), (a, d), (b, c), (b, d)]
    split = [(a, b), (c, d)]
    subs = list(range(first + 4, first + 4 + ports))
    for (u, v), s in zip(split, subs):
        edges += [(u, s), (s, v)]
    edges += split[ports:]
    return edges, subs


def bridged_chain(blocks: int) -> Graph:
    """A path of `blocks` >= 2 K4 blocks joined by bridges: the end blocks
    subdivide one edge, the inner ones two, and each bridge joins two
    subdivision vertices.  Cubic, with n = 6 blocks - 2 and minimum
    2-conversion set 2 blocks: the complement of a conversion set of a
    cubic graph is a forest, and every block needs two of its vertices
    to break its cycles."""
    edges, prev, n = [], None, 0
    for i in range(blocks):
        es, subs = _k4_with_ports(n, 1 if i in (0, blocks - 1) else 2)
        edges += es
        if prev is not None:
            edges.append((prev, subs[0]))
        prev = subs[-1]
        n += 4 + len(subs)
    return Graph(n, tuple(edges))


def k4_ring(blocks: int) -> Graph:
    """A cycle of `blocks` K4 blocks, each with two edges subdivided, the
    subdivision vertices of consecutive blocks joined.  Cubic and
    2-edge-connected, so its cographic lines are one block of
    mu = 3 blocks + 1 coordinates.  Every block needs two of its vertices
    in a conversion set, and two per block suffice, so nu = mu - 2 blocks
    = blocks + 1, below mu // 2 from 3 blocks on."""
    edges, ports = [], []
    for i in range(blocks):
        es, subs = _k4_with_ports(6 * i, 2)
        edges += es
        ports.append(subs)
    edges += [(ports[i][1], ports[(i + 1) % blocks][0]) for i in range(blocks)]
    return Graph(6 * blocks, tuple(edges))


def scaled_subcubic(rng, n: int) -> Graph:
    """A subcubic graph on n vertices (n a multiple of 75): a random cubic
    core of 14n/75 vertices, then n/3 subdivisions of random edges, each
    with a pendant leaf on its new vertex, then 11n/75 plain subdivisions
    of random edges.  Each leaf gadget is a coordinate block of 3, and the
    core's cycles are one large block."""
    core = random_cubic(rng, 14 * n // 75)
    edges, size = list(core.edges), core.n
    for leaf in (True,) * (n // 3) + (False,) * (11 * n // 75):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, size), (size, v)]
        if leaf:
            edges.append((size, size + 1))
        size += 1 + leaf
    return Graph(size, tuple(edges))


def bridged_subcubic(rng, n: int, blocks: int) -> Graph:
    """`scaled_subcubic(rng, n)` and `k4_ring(blocks)` side by side, the
    last edge of each subdivided by a new vertex and the two new vertices
    joined by a bridge.  The ring stays one coordinate block, of
    3 blocks + 1, beside the subcubic graph's many small ones."""
    left, ring = scaled_subcubic(rng, n), k4_ring(blocks)
    right = [(u + left.n, v + left.n) for u, v in ring.edges]
    x, y = left.n + ring.n, left.n + ring.n + 1
    (a, b), (c, d) = left.edges[-1], right[-1]
    edges = [*left.edges[:-1], *right[:-1], (a, x), (x, b), (c, y), (y, d), (x, y)]
    return Graph(y + 1, tuple(edges))


def random_instance(rng, n_lines: int, dim: int, w: int = 32) -> PolymatroidInstance:
    """Random lines over GF(2^w), occasionally degenerate on purpose."""
    fld = field(w)
    lines = []
    for _ in range(n_lines):
        a = tuple(rng.randrange(fld.order) for _ in range(dim))
        b = tuple(rng.randrange(fld.order) for _ in range(dim))
        if rng.random() < 0.1:
            b = a  # rank-1 line
        if rng.random() < 0.05:
            a = (0,) * dim
        lines.append((a, b))
    return PolymatroidInstance(lines, dim, fld)
