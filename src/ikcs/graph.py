"""Simple undirected graphs with dense integer ids.

Vertices are 0..n-1, edges are unordered pairs without loops or multiplicity.
Graphs are immutable; transformations return new graphs (plus remap tables
where ids change).

`Graph` stores each edge as (a, b) with a < b, and `edges` is sorted.  Each
`adj[v]` is ascending: `adj` is filled by appending from the sorted edges, so
v's lower neighbours arrive first, in order, then its higher ones.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import islice, starmap
from operator import eq, itemgetter, lt

__all__ = [
    "ConsistencyError",
    "Graph",
    "GraphError",
    "ParseError",
    "parse_edge_list",
    "graph_from_json",
]

MAX_VERTEX_ID = 10_000_000
# Canonical edge-list text: an optional `p N M` header, then `U V` lines,
# single spaces, ASCII digits, every line ending in a newline
# (`_canonical_body`).
_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)\n")
_NO_DIGITS = str.maketrans("", "", "0123456789")


class ConsistencyError(RuntimeError):
    """A randomized certificate or an internal invariant failed its recheck."""


class GraphError(ValueError):
    pass


class ParseError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise GraphError("negative vertex count")
        es = self.edges
        # Canonical input (u < v in every edge, edges strictly increasing)
        # has no loops or duplicates and is stored as it is; anything else
        # is normalized and sorted, so that a loop reads (v, v) and equal
        # edges sit next to each other.
        if not (
            all(starmap(lt, es))
            and all(map(lt, es, islice(es, 1, None)))
        ):
            es = sorted([e if e[0] < e[1] else (e[1], e[0]) for e in es])
            if any(starmap(eq, es)) or any(map(eq, es, islice(es, 1, None))):
                _raise_first_fault(n, self.edges)
        # es is normalized and sorted: its least first endpoint is the least id
        if es and (es[0][0] < 0 or max(map(itemgetter(1), es)) >= n):
            _raise_first_fault(n, self.edges)
        nbr: list[list[int]] = [[] for _ in range(n)]
        for a, b in es:
            nbr[a].append(b)
            nbr[b].append(a)
        object.__setattr__(self, "edges", tuple(es))
        object.__setattr__(self, "adj", tuple(map(tuple, nbr)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return b in self.adj[a]

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by minimum."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def cyclomatic(self) -> int:
        """mu = m - n + number of components."""
        return self.m - self.n + len(self.components())

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def delete_vertices(self, drop) -> tuple["Graph", dict[int, int]]:
        """Remove a vertex set; return (new graph, old id -> new id remap)."""
        drop = set(drop)
        for v in drop:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} out of range")
        keep = [v for v in range(self.n) if v not in drop]
        remap = {v: i for i, v in enumerate(keep)}
        es = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u not in drop and v not in drop
        ]
        return Graph(len(keep), tuple(es)), remap

    def fundamental_cycles(self) -> tuple[list[int], list[dict[int, int]]]:
        """Non-tree edge indices and, per such edge, its oriented cycle.

        The forest is breadth-first, rooted at each unreached vertex in
        increasing order, with every vertex's neighbours taken in increasing
        order.  The cycle of a non-tree edge uv (u < v) runs u -> v along uv,
        then back along the forest path v..u, found by climbing the deeper
        end to the lowest common ancestor; it maps each of its edge indices
        to +1 where it traverses the edge from the lower to the higher
        endpoint and -1 otherwise.  The number of cycles equals the
        cyclomatic number.
        """
        nbr: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (a, b) in enumerate(self.edges):
            nbr[a].append((b, i))
            nbr[b].append((a, i))
        parent = [-1] * self.n
        pedge = [-1] * self.n
        depth = [-1] * self.n
        tree = [False] * self.m
        for root in range(self.n):
            if depth[root] >= 0:
                continue
            depth[root] = 0
            queue = [root]
            for u in queue:  # the loop reaches what it appends: FIFO order
                for w, i in nbr[u]:
                    if depth[w] < 0:
                        depth[w] = depth[u] + 1
                        parent[w], pedge[w], tree[i] = u, i, True
                        queue.append(w)
        nontree = [i for i in range(self.m) if not tree[i]]
        cycles: list[dict[int, int]] = []
        for i in nontree:
            u, v = self.edges[i]
            cyc = {i: 1}
            # v's side walks child -> parent, u's side parent -> child
            while u != v:
                if depth[v] >= depth[u]:
                    p = parent[v]
                    cyc[pedge[v]] = 1 if v < p else -1
                    v = p
                else:
                    p = parent[u]
                    cyc[pedge[u]] = 1 if p < u else -1
                    u = p
            cycles.append(cyc)
        return nontree, cycles

    def relabel(self, perm: dict[int, int]) -> "Graph":
        """Apply a bijection old id -> new id."""
        if sorted(perm) != list(range(self.n)) or sorted(perm.values()) != list(range(self.n)):
            raise GraphError("relabel requires a permutation of 0..n-1")
        return Graph(self.n, tuple((perm[u], perm[v]) for u, v in self.edges))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})


def _raise_first_fault(n: int, edges) -> None:
    """Raise the GraphError of the first bad edge in input order."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            raise GraphError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
    raise GraphError(f"invalid edge list for n={n}")


def graph_from_json(text: str) -> Graph:
    """Read the `Graph.to_json` form {"n": N, "edges": [[u, v], ...]}.

    n is an int in [0, MAX_VERTEX_ID + 1] and every edge a pair of ints;
    any other document raises GraphError before a graph is allocated.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"bad graph JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise GraphError("graph JSON must be an object with n and edges")
    n, edges = obj.get("n"), obj.get("edges")
    if type(n) is not int or not 0 <= n <= MAX_VERTEX_ID + 1:
        raise GraphError(f"graph JSON n must be an int in [0, {MAX_VERTEX_ID + 1}]")
    if not isinstance(edges, list) or not all(
        type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
        for e in edges
    ):
        raise GraphError("graph JSON edges must be a list of [u, v] int pairs")
    return Graph(n, tuple(map(tuple, edges)))


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated `u v` lines, optional `p <n> <m>` header.

    Blank lines and lines starting with '#' or 'c' are ignored.  Errors carry
    1-based line numbers.

    Canonical text (`_canonical_body`) that is within the limits and the
    header's counts is built with one split and one `Graph` call; anything
    else, including every faulty input, takes the line loop, which names
    the line.
    """
    canon = _canonical_body(text)
    if canon is not None:
        head, start = canon
        ids = list(map(int, text[start:].split()))
        top = max(ids, default=-1)
        n, m = (int(head[1]), int(head[2])) if head else (top + 1, len(ids) // 2)
        if top <= MAX_VERTEX_ID and n <= MAX_VERTEX_ID + 1 and 2 * m == len(ids):
            pairs = iter(ids)
            try:
                return Graph(n, tuple(zip(pairs, pairs)))
            except GraphError:
                pass
    return _parse_lines(text)


def _canonical_body(text: str) -> tuple[re.Match | None, int] | None:
    """(header match or None, offset of the body) for canonical text, None
    for anything else.

    With its ASCII digits deleted, a body of n lines reads " \n" n times
    exactly when each line is digits, one space, digits and a newline; no
    space at the start or end of a line then rules out an empty number.
    These are passes over the text that keep no per-line state; the one
    thing they build is that shape, for which `str.translate` reserves at
    most the text's length.
    """
    head, start = None, 0
    if text.startswith("p"):
        start = text.find("\n") + 1
        head = _HEADER.fullmatch(text, 0, start)
        if head is None:
            return None
    lines = text.count("\n", start)
    shape = text.translate(_NO_DIGITS)
    skip = len(shape) - 2 * lines  # "p  \n" from a header, else 0
    if (
        skip == (4 if head else 0)
        and shape.count(" \n", skip) == lines
        and (text.endswith("\n") or start == len(text))
        and not text.startswith(" ")
        and " \n" not in text
        and "\n " not in text
    ):
        return head, start
    return None


def _parse_lines(text: str) -> Graph:
    """`parse_edge_list` one line at a time, naming the first faulty line."""
    declared_n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c ") or line == "c":
            continue
        parts = line.split()
        if parts[0] == "p":
            if declared_n is not None:
                raise ParseError("repeated header", lineno)
            if edges:
                raise ParseError("header after edges", lineno)
            if len(parts) != 3:
                raise ParseError("malformed header, expected `p <n> <m>`", lineno)
            try:
                declared_n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("malformed header, expected `p <n> <m>`", lineno) from None
            if declared_n < 0 or declared_m < 0:
                raise ParseError("negative header counts", lineno)
            if declared_n > MAX_VERTEX_ID + 1:
                raise ParseError(f"header n={declared_n} exceeds limit", lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"malformed edge line {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge line {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError("negative vertex id", lineno)
        if max(u, v) > MAX_VERTEX_ID:
            raise ParseError(f"vertex id {max(u, v)} exceeds limit", lineno)
        if declared_n is not None and max(u, v) >= declared_n:
            raise ParseError(
                f"vertex id {max(u, v)} overflows declared n={declared_n}", lineno
            )
        if u == v:
            raise ParseError(f"self-loop at {u}", lineno)
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            raise ParseError(f"duplicate edge ({a},{b})", lineno)
        seen.add((a, b))
        edges.append((a, b))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if declared_m is not None and declared_m != len(edges):
        raise ParseError(
            f"header declared {declared_m} edges, found {len(edges)}",
            len(text.splitlines()) or 1,
        )
    return Graph(n, tuple(edges))
