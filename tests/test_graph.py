import random

import pytest

from ikcs.graph import Graph, GraphError, ParseError, graph_from_json, parse_edge_list


def test_basic_invariants():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    assert g.m == 4
    assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
    assert g.max_degree() == 2
    assert g.is_connected()
    assert g.cyclomatic() == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_validation():
    with pytest.raises(GraphError, match=r"^self-loop at 0$"):
        Graph(2, ((0, 0),))
    with pytest.raises(GraphError, match=r"^duplicate edge \(0,1\)$"):
        Graph(2, ((0, 1), (1, 0)))
    with pytest.raises(GraphError, match=r"^edge \(0,2\) out of range for n=2$"):
        Graph(2, ((0, 2),))
    with pytest.raises(GraphError, match=r"^negative vertex count$"):
        Graph(-1, ())


def reference_build(n, edges):
    """The per-edge construction loop `Graph` used before its sorted checks.

    Returns (edges, adj) as `Graph` stores them, or raises its GraphError.
    """
    if n < 0:
        raise GraphError("negative vertex count")
    seen = set()
    nbr = [[] for _ in range(n)]
    norm = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            raise GraphError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        norm.append((a, b))
        nbr[a].append(b)
        nbr[b].append(a)
    return tuple(sorted(norm)), tuple(tuple(sorted(x)) for x in nbr)


def _random_edges(rng, n):
    """Distinct edges on n vertices, shuffled, each in a random orientation."""
    pairs = n * (n - 1) // 2
    m = rng.randrange(min(pairs, 4 * n) + 1)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    return edges


def _corrupt(rng, n, edges):
    """A copy of edges with 1-3 faults inserted at random positions.

    A duplicate copies an edge already in the list; with none there, the
    fault is a self-loop instead.
    """
    out = list(edges)
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(max(n, 1))
        kind = rng.choice(["high", "negative", "loop", "duplicate"])
        if kind == "duplicate" and out:
            a, b = rng.choice(out)
            bad = rng.choice([(a, b), (b, a)])
        elif kind == "high":
            bad = rng.choice([(v, n), (n, v)])
        elif kind == "negative":
            bad = rng.choice([(v, -1), (-1, v)])
        else:
            bad = (v, v)
        out.insert(rng.randrange(len(out) + 1), bad)
    return out


def test_construction_matches_reference_loop():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.choice([0, 1, 2, 3, rng.randrange(301)])
        edges = _random_edges(rng, n)
        g = Graph(n, tuple(edges))
        assert (g.edges, g.adj) == reference_build(n, edges)
        assert all(list(a) == sorted(a) for a in g.adj)
        for _ in range(3):
            bad = _corrupt(rng, n, edges)
            with pytest.raises(GraphError) as ref:
                reference_build(n, bad)
            with pytest.raises(GraphError) as err:
                Graph(n, tuple(bad))
            assert str(err.value) == str(ref.value)


def test_components_and_delete():
    g = Graph(6, ((0, 1), (1, 2), (4, 5)))
    assert g.components() == [[0, 1, 2], [3], [4, 5]]
    assert not g.is_connected()
    h, remap = g.delete_vertices({1, 3})
    assert h.n == 4
    assert sorted(remap) == [0, 2, 4, 5]
    assert h.m == 1  # only the 4-5 edge survives
    assert h.has_edge(remap[4], remap[5])


def test_cyclomatic_counts_components():
    g = Graph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    assert g.cyclomatic() == 2  # two triangles plus an isolated vertex


def test_fundamental_cycles_partition():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(3, 10)
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        )
        g = Graph(n, edges)
        nontree, cycles = g.fundamental_cycles()
        assert len(nontree) == g.cyclomatic()
        for ei, cyc in zip(nontree, cycles):
            assert ei in cyc
            # a fundamental cycle visits each of its vertices exactly twice
            touch: dict[int, int] = {}
            for e in cyc:
                for end in g.edges[e]:
                    touch[end] = touch.get(end, 0) + 1
            assert all(c == 2 for c in touch.values())
            # and, following its orientation, leaves each vertex as often
            # as it enters it; the non-tree edge runs low -> high
            assert cyc[ei] == 1
            flow: dict[int, int] = {}
            for e, sign in cyc.items():
                lo, hi = g.edges[e]
                flow[lo] = flow.get(lo, 0) + sign
                flow[hi] = flow.get(hi, 0) - sign
            assert set(flow.values()) == {0}


def test_relabel_roundtrip():
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    perm = {0: 4, 1: 3, 2: 2, 3: 1, 4: 0}
    h = g.relabel(perm)
    assert h.n == 5 and h.m == g.m
    assert h.has_edge(4, 3) and h.has_edge(3, 2) and h.has_edge(1, 0)
    back = h.relabel({v: k for k, v in perm.items()})
    assert set(back.edges) == set(g.edges)


def test_parse_edge_list_happy():
    g = parse_edge_list("# comment\np 4 2\n0 1\n\n2 3\n")
    assert g.n == 4 and g.m == 2


def test_parse_edge_list_errors():
    for text, frag in [
        ("p 2 1\np 2 1\n0 1", "repeated"),
        ("0 1\np 3 1\n", "header after"),
        ("p x y\n", "malformed header"),
        ("p 2 2\n0 1\n", "declared 2 edges"),
        ("p 2 1\n0 1 2\n", "malformed edge"),
        ("p 2 1\n0 5\n", "overflows declared"),
        ("p 2 2\n0 1\n0 1\n", "duplicate"),
        ("p 10000002 0\n", "exceeds limit"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert frag in str(err.value)


def test_json_roundtrip():
    g = Graph(5, ((0, 1), (2, 3), (3, 4)))
    assert graph_from_json(g.to_json()) == g
