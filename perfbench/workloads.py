"""Seeded input generators and the four workload definitions.

Every instance is fixed by (workload, seed, index) alone: the generators use
only `random.Random` and their own arithmetic, never `ikcs`, so two commits
of the program always receive byte-identical inputs.  Instance sizes follow
a fixed ladder per workload and the seed only draws the graph structure (for
a torus, the grid's orientation), so the cost mix of a run does not depend
on the seed.  A run repeats its
workload's instance set, in order, until its time is up.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

# Lines of the normalized cubic graph at or below which the deg3 solver uses
# its table-backed GF(2^16) field; above it, pure-Python GF(2^32).
TABLE_LINE_LIMIT = 180


@dataclass(frozen=True)
class Instance:
    """One CLI call: argv (with `{input}` for the generated file) and facts
    the answer checker needs."""

    ident: str
    argv: tuple[str, ...]
    kind: str  # "min_set" or "torus"
    k: int = 2
    n: int = 0
    edges: tuple[tuple[int, int], ...] = ()
    lower_bound: int = 0
    props: dict = field(default_factory=dict, compare=False)

    def edge_list_text(self) -> str:
        lines = [f"p {self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def degree_sequence_graph(rng: random.Random, degrees: list[int]) -> tuple[tuple[int, int], ...]:
    """Random connected simple graph with exactly these degrees.

    Configuration (pairing) model with rejection of loops, multi-edges and
    disconnected outcomes, so the result is uniform over such graphs.
    """
    if sum(degrees) % 2:
        raise ValueError("degree sum must be even")
    points = [v for v, d in enumerate(degrees) for _ in range(d)]
    n = len(degrees)
    for _ in range(100_000):
        rng.shuffle(points)
        edges = set()
        ok = True
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok and _connected(n, edges):
            return tuple(sorted(edges))
    raise RuntimeError("pairing model did not produce a simple connected graph")


def regular_graph(rng: random.Random, n: int, d: int) -> tuple[tuple[int, int], ...]:
    return degree_sequence_graph(rng, [d] * n)


def decycling_lower_bound(n: int, d: int) -> int:
    """Least size of a (d-1)-conversion set of a d-regular graph on n vertices.

    For k = d - 1 a seed S converts exactly when G - S is a forest, so
    dn/2 - d|S| <= n - |S| - 1, i.e. |S| >= ((d-2)n + 2) / (2(d-1)).
    For cubic graphs this is ceil((n + 2) / 4).
    """
    num = (d - 2) * n + 2
    den = 2 * (d - 1)
    return -(-num // den)


def normalized_lines(n: int, leaves: int, deg2: int) -> int:
    """Vertices (= lines) of the cubic graph the deg3 pipeline builds.

    Each leaf gains a 5-vertex gadget sharing the leaf (+4 vertices); with
    three or more degree-2 vertices a spine path of deg2 - 2 vertices joins
    them.
    """
    if deg2 < 3:
        raise ValueError("only the spine case is used here")
    return n + 4 * leaves + deg2 - 2


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def rng_seed_for(workload: str, seed: int, index: int) -> int:
    """The fixed --rng-seed passed to the program for one instance."""
    return _rng(workload, seed, index).getrandbits(32) ^ 0x5EED


# ---- deg3_table: cubic graphs whose line count stays on the table field ----

DEG3_TABLE_SIZES = (176, 48, 144, 80, 160, 112, 64, 128, 96, 40)


def _deg3_table(seed: int, index: int) -> Instance:
    n = DEG3_TABLE_SIZES[index]
    rng = _rng("deg3_table", seed, index)
    edges = regular_graph(rng, n, 3)
    return Instance(
        ident=f"deg3_table/{index}/n{n}",
        argv=("min-set", "--k", "2", "--engine", "deg3",
              "--rng-seed", str(rng_seed_for("deg3_table", seed, index)), "{input}"),
        kind="min_set", k=2, n=n, edges=edges,
        lower_bound=decycling_lower_bound(n, 3),
        props={"lines": n, "leaves": 0, "deg2": 0},
    )


# ---- deg3_wide: subcubic graphs whose normalized graph passes the limit ----

# (vertices, leaves, degree-2 vertices), normalizing to 184 lines, just past
# TABLE_LINE_LIMIT, so the wide field path runs.  One call takes 6-9 s on a
# 2-core 2.1 GHz Xeon VM, so a run holds a single instance, and one shape
# keeps that instance's cost the same for every seed.
DEG3_WIDE_SHAPE = (75, 25, 11)


def _deg3_wide(seed: int, index: int) -> Instance:
    n, leaves, deg2 = DEG3_WIDE_SHAPE
    lines = normalized_lines(n, leaves, deg2)
    if not TABLE_LINE_LIMIT < lines <= 200:
        raise ValueError(f"shape {n, leaves, deg2} gives {lines} lines")
    rng = _rng("deg3_wide", seed, index)
    degrees = [1] * leaves + [2] * deg2 + [3] * (n - leaves - deg2)
    rng.shuffle(degrees)
    edges = degree_sequence_graph(rng, degrees)
    return Instance(
        ident=f"deg3_wide/{index}/n{n}",
        argv=("min-set", "--k", "2", "--engine", "deg3",
              "--rng-seed", str(rng_seed_for("deg3_wide", seed, index)), "{input}"),
        kind="min_set", k=2, n=n, edges=edges,
        # every leaf is forced into any conversion set
        lower_bound=leaves,
        props={"lines": lines, "leaves": leaves, "deg2": deg2},
    )


# ---- exact_scan: many small graphs under the brute-force subset scan ----

# (vertices, degree, k).  The scan stops at the first witness of the last
# size, so an instance's cost depends on where that witness falls in
# lexicographic order; shapes where this swings the cost by 2x across seeds
# (4-regular at 20 and 22 vertices) are left out, and the costly shapes
# appear more than once so their mean cost is steady.  A pass sorts into 6
# cheap instances, 3 at 4-regular n=18, 3 at cubic n=20 and 2 at cubic n=22,
# so its median falls inside the n=18 group.
EXACT_SHAPES = ((18, 4, 3), (20, 3, 2), (16, 3, 2), (22, 3, 2), (18, 3, 2),
                (16, 4, 3), (18, 4, 3), (20, 3, 2), (16, 3, 2), (22, 3, 2),
                (18, 3, 2), (16, 4, 3), (18, 4, 3), (20, 3, 2))


def _exact_scan(seed: int, index: int) -> Instance:
    n, d, k = EXACT_SHAPES[index]
    rng = _rng("exact_scan", seed, index)
    edges = regular_graph(rng, n, d)
    return Instance(
        ident=f"exact_scan/{index}/d{d}n{n}",
        argv=("min-set", "--k", str(k), "--engine", "brute",
              "--rng-seed", str(rng_seed_for("exact_scan", seed, index)), "{input}"),
        kind="min_set", k=k, n=n, edges=edges,
        lower_bound=decycling_lower_bound(n, d),
        props={"degree": d},
    )


# ---- torus_verify: few large grids, every boundary case ----

# One pass: the paper's cases A-F (by side residues mod 3) on a large, a
# medium and a small grid, plus both side-4 families (odd and even long
# side).  The command's whole input is (m, n), so the sizes are fixed and the
# seed only picks each grid's orientation: grid shape sets the cost, and a
# seed-dependent shape would move the figures more than any small change to
# the program.  The side-4 grids are as cheap as the small tier, so a pass
# sorts into 8 cheap, 6 medium and 6 large instances and its median falls
# inside the medium tier.
TORUS_GRIDS = (
    (42, 39), (42, 41), (39, 40), (41, 38), (41, 40), (40, 40),  # A-F, large
    (41, 4), (4, 46),                                            # side 4
    (24, 24), (24, 23), (21, 25), (23, 26), (26, 25), (25, 22),  # A-F, medium
    (9, 12), (12, 8), (12, 10), (8, 14), (11, 13), (10, 13),     # A-F, small
)


def _torus_verify(seed: int, index: int) -> Instance:
    m, n = TORUS_GRIDS[index]
    if _rng("torus_verify", seed, index).random() < 0.5:
        m, n = n, m
    return Instance(
        ident=f"torus_verify/{index}/{m}x{n}",
        argv=("torus-construct", str(m), str(n), "--verify",
              "--rng-seed", str(rng_seed_for("torus_verify", seed, index))),
        kind="torus", k=3, n=m * n,
        props={"m": m, "n": n},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # (seed, index) -> Instance
    size: int  # instances per pass; the traced run and the digest cover one pass
    warmup: tuple[str, ...]  # tiny CLI call that finishes lazy set-up
    # hostspeed kernel that slows like the code the workload's time goes to
    host_kernel: str = "mixed"


# K4: the smallest cubic graph, enough to build the shared field tables.
WARMUP_GRAPH = "p 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deg3_table",
            "random cubic graphs, n 40-176, at most 180 lines: the deg3 solver's "
            "GF(2^16) table path; polymatroid and gf2 busy, exact and torus idle",
            _deg3_table, size=len(DEG3_TABLE_SIZES),
            warmup=("min-set", "--k", "2", "--engine", "deg3", "--rng-seed", "1", "{warmup}"),
        ),
        Workload(
            "deg3_wide",
            "subcubic graphs, 75 vertices with 25 leaves and 11 degree-2 vertices, "
            "normalizing to 184 lines: gadgets, spine and pure-Python GF(2^32)",
            _deg3_wide, size=1,
            warmup=("min-set", "--k", "2", "--engine", "deg3", "--rng-seed", "1", "{warmup}"),
            host_kernel="carryless",
        ),
        Workload(
            "exact_scan",
            "cubic graphs at k=2 (n 16-22) and 4-regular graphs at k=3 (n 16-18) under brute "
            "force: millions of small conversion runs, deg3 idle",
            _exact_scan, size=len(EXACT_SHAPES),
            warmup=("min-set", "--k", "2", "--engine", "brute", "--rng-seed", "1", "{warmup}"),
        ),
        Workload(
            "torus_verify",
            "torus-construct --verify over cases A-F at sides 8-42 and both side-4 "
            "families: few large conversion runs plus pattern placement",
            _torus_verify, size=len(TORUS_GRIDS),
            warmup=("torus-construct", "6", "6", "--verify", "--rng-seed", "1"),
        ),
    )
}

def instances(workload: str, seed: int) -> list[Instance]:
    w = WORKLOADS[workload]
    return [w.make(seed, i) for i in range(w.size)]
