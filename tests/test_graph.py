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
    with pytest.raises(GraphError):
        Graph(2, ((0, 0),))  # loop
    with pytest.raises(GraphError):
        Graph(2, ((0, 1), (1, 0)))  # duplicate edge
    with pytest.raises(GraphError):
        Graph(2, ((0, 2),))  # out of range
    with pytest.raises(GraphError):
        Graph(-1, ())


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
