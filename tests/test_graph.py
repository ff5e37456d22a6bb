import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ikcs.graph
from ikcs.graph import (
    MAX_VERTEX_ID,
    Graph,
    GraphError,
    ParseError,
    graph_from_json,
    parse_edge_list,
)
from genutil import bridged_chain, k4_ring


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


def _canonical_faults(n, canon):
    """Canonical edge lists with one fault each, placed where sorting the
    normalized list would put it: a negative id first, id n last, a
    duplicate next to its copy, a loop (v, v) among the edges of v."""
    faults = [[(-1, 0)] + canon, canon + [(n - 1, n)]]
    if canon:
        i = len(canon) // 2
        faults.append(canon[:i + 1] + canon[i:])
    if n:
        v = n // 2
        i = next((i for i, (a, _) in enumerate(canon) if a >= v), len(canon))
        faults.append(canon[:i] + [(v, v)] + canon[i:])
    return faults


def _assert_same_error(n, edges):
    with pytest.raises(GraphError) as ref:
        reference_build(n, edges)
    with pytest.raises(GraphError) as err:
        Graph(n, tuple(edges))
    assert str(err.value) == str(ref.value)


def test_construction_matches_reference_loop():
    """Shuffled edges in random orientation take the canonicalizing step;
    the same sets in canonical order are stored as given.  Both must match
    the reference loop, faults and messages included."""
    rng = random.Random(14)
    for _ in range(300):
        n = rng.choice([0, 1, 2, 3, rng.randrange(301)])
        edges = _random_edges(rng, n)
        canon = sorted((min(e), max(e)) for e in edges)
        for given in (edges, canon):
            g = Graph(n, tuple(given))
            assert (g.edges, g.adj) == reference_build(n, given)
            assert all(list(a) == sorted(a) for a in g.adj)
        for _ in range(3):
            _assert_same_error(n, _corrupt(rng, n, edges))
        for bad in _canonical_faults(n, canon):
            _assert_same_error(n, bad)


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
    graphs = []
    for _ in range(50):
        n = rng.randrange(3, 10)
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        )
        graphs.append(Graph(n, edges))
    # deep forests, where a cycle climbs far to its lowest common ancestor
    graphs += [
        Graph(300, tuple((i, (i + 1) % 300) for i in range(300))),
        bridged_chain(60),
        k4_ring(40),
    ]
    for g in graphs:
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
        ("p a b\n", "line 1: malformed header"),
        ("p -1 0\n", "line 1: negative header counts"),
        ("-1 2\n", "line 1: negative vertex id"),
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


def test_graph_from_json_refuses_malformed_documents():
    for text in [
        '{"n": 3}',
        '{"edges": []}',
        "[1, 2]",
        '{"n": 2, "edges": [[0, 1.7]]}',
        '{"n": 2, "edges": [[0, true]]}',
        '{"n": 2, "edges": [[0, 1, 1]]}',
        '{"n": 2, "edges": [[0, "1"]]}',
        '{"n": 2, "edges": {"0": 1}}',
        '{"n": true, "edges": []}',
        '{"n": 2.0, "edges": []}',
        '{"n": -1, "edges": []}',
        f'{{"n": {MAX_VERTEX_ID + 2}, "edges": []}}',
        f'{{"n": 3, "edges": [[0, {MAX_VERTEX_ID + 1}]]}}',
        '{"n": 3, "edges": [[0, -1]]}',
        '{"n": 3, "edges": [[0, 0]]}',
        "{",
        "[" * 100_000,
    ]:
        with pytest.raises(GraphError):
            graph_from_json(text)
    assert graph_from_json('{"n": 0, "edges": []}') == Graph(0, ())


def test_graph_from_json_bounds_n_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(GraphError):
            graph_from_json('{"n": 1000000000, "edges": []}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 16, peak


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_EDITS = ("loop", "dup", "big", "comment", "c", "blank", "tab", "spaces",
          "zero", "digits", "crlf", "cut")


@st.composite
def _edge_list_texts(draw):
    """Valid canonical edge lists, with or without a header that may be off,
    then up to three edits: a self-loop, a duplicate or an id past the limit
    keep the text canonical; comments, blank lines, tabs, doubled spaces,
    leading zeros, non-ASCII digits, CRLF and a cut final newline do not.
    Valid ids stay small: one near the limit would build 10^7 vertices."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
        max_size=12, unique_by=frozenset,
    ))
    lines = [f"{u} {v}" for u, v in pairs]
    if draw(st.booleans()):
        top = max(map(max, pairs), default=-1) + 1
        n = draw(st.sampled_from([top, top + 3, max(top - 1, 0), MAX_VERTEX_ID + 2]))
        m = draw(st.sampled_from([len(pairs), len(pairs), len(pairs) + 1]))
        lines.insert(0, f"p {n} {m}")
    sep, end = "\n", "\n"
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        i = draw(st.integers(0, len(lines)))
        if edit == "crlf":
            sep = end = "\r\n"
        elif edit == "cut":
            end = ""
        elif edit in ("loop", "dup", "big", "comment", "c", "blank"):
            u, v = draw(st.sampled_from(pairs)) if pairs else (4, 7)
            lines.insert(i, {
                "loop": f"{u} {u}", "dup": f"{v} {u}", "big": f"{u} {MAX_VERTEX_ID + 1}",
                "comment": "# note", "c": "c note", "blank": "",
            }[edit])
        elif i < len(lines):
            lines[i] = {
                "tab": lines[i].replace(" ", "\t", 1),
                "spaces": lines[i].replace(" ", "  ", 1),
                "zero": "0" + lines[i],
                "digits": lines[i].translate(_ARABIC_INDIC),
            }[edit]
    return sep.join(lines) + end if lines else ""


# The canonical form as one regex: the reference for `_canonical_body`,
# which reads the same texts without the regex's per-line backtracking state.
CANONICAL_REFERENCE = re.compile(r"(?:p ([0-9]+) ([0-9]+)\n)?((?:[0-9]+ [0-9]+\n)*)")


def _outcome(parse, text):
    try:
        g = parse(text)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return g.n, g.edges, g.adj


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=_edge_list_texts())
@example(text="")
@example(text="p 3 0\n")
def test_parse_fast_path_matches_line_loop(text):
    """`parse_edge_list` gives what the line loop gives, graph or error
    message; canonical text the loop accepts never reaches the loop."""
    want = _outcome(ikcs.graph._parse_lines, text)
    assert _outcome(parse_edge_list, text) == want
    assert bool(ikcs.graph._canonical_body(text)) == bool(CANONICAL_REFERENCE.fullmatch(text))
    if ikcs.graph._canonical_body(text) and isinstance(want[0], int):
        with mock.patch.object(ikcs.graph, "_parse_lines", side_effect=AssertionError):
            assert _outcome(parse_edge_list, text) == want


def test_canonical_check_matches_reference_regex():
    """Random short strings over the characters that matter, plus edits of
    canonical text: `_canonical_body` accepts exactly what the regex does,
    and reports where the body starts."""
    rng = random.Random(61)
    alphabet = "0123 \np\t"
    texts = ["".join(rng.choices(alphabet, k=rng.randrange(12))) for _ in range(20000)]
    for _ in range(3000):
        lines = [f"{rng.randrange(30)} {rng.randrange(30)}" for _ in range(rng.randrange(5))]
        if rng.random() < 0.5:
            lines.insert(0, f"p {rng.randrange(40)} {len(lines)}")
        text = "\n".join(lines) + "\n" * (rng.random() < 0.9)
        pos = rng.randrange(len(text) + 1)
        texts.append(text)
        texts.append(text[:pos] + rng.choice(alphabet) + text[pos:])
        texts.append(text[:pos] + text[pos + 1 :])
    for text in texts:
        ref = CANONICAL_REFERENCE.fullmatch(text)
        got = ikcs.graph._canonical_body(text)
        assert bool(got) == bool(ref), repr(text)
        if ref:
            head, start = got
            assert start == ref.start(3)
            assert (head and head.groups()) == (ref[1] and (ref[1], ref[2]))


def test_canonical_check_keeps_no_per_line_memory():
    """The check on a 200,000-line list allocates no more than the text's
    own size; the one-regex form held about 300 bytes of backtracking
    state per line, over 20 times that."""
    text = "p 200001 200000\n" + "".join(f"{i} {i + 1}\n" for i in range(200000))
    tracemalloc.start()
    try:
        assert ikcs.graph._canonical_body(text) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(text) + (1 << 16), (peak, len(text))
