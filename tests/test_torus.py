import hashlib
import json
import random
from math import gcd
from pathlib import Path

import pytest

import ikcs.torus
from ikcs.cli import main
from ikcs.exact import min_conversion_set
from ikcs.graph import Graph, GraphError
from ikcs.percolation import is_conversion_set, run
from ikcs.tilesearch import search_tile_patterns
from ikcs.torus import (
    PATTERN_ENV,
    TorusError,
    TorusGrid,
    TorusPattern,
    construct_3cs,
    load_pattern,
    parse_pattern,
    place,
    render_cells,
    tile,
    white_cycle_structure,
)

ALL_PATTERNS = {
    "base3x3": (3, 3, 3), "merge3x3": (3, 3, 3),
    "strip_b2": (3, 2, 2), "strip_b4": (3, 4, 4),
    "strip_a2": (2, 3, 2), "strip_a4": (4, 3, 4),
    "corner_a2b2": (2, 2, 2), "corner_a2b4": (2, 4, 4),
    "corner_a4b4": (4, 4, 6),
    "n4_base": (2, 4, 3), "n4_cap1": (2, 4, 2), "n4_cap2": (2, 4, 3),
}


def test_grid_graph_is_4_regular():
    for m, n in ((3, 3), (4, 7), (6, 5)):
        g = TorusGrid(m, n).graph()
        assert g.n == m * n
        assert all(g.degree(v) == 4 for v in range(g.n))
        assert g.m == 2 * m * n


def test_grid_graph_matches_neighbors(monkeypatch):
    # the edges reach Graph canonical: u < v in each and strictly
    # increasing, so no torus build sorts
    given = []
    monkeypatch.setattr(
        ikcs.torus, "Graph", lambda n, edges: given.append(edges) or Graph(n, edges)
    )
    for m, n in ((3, 3), (3, 7), (4, 4), (7, 3), (8, 9)):
        grid = TorusGrid(m, n)
        ref = {
            tuple(sorted((grid.vertex(x, y), grid.vertex(*nb))))
            for x, y in grid.cells()
            for nb in grid.neighbors(x, y)
        }
        assert grid.graph().edges == tuple(sorted(ref)), (m, n)
        edges = given.pop()
        assert all(u < v for u, v in edges), (m, n)
        assert all(a < b for a, b in zip(edges, edges[1:])), (m, n)


def test_adjacency_matches_neighbors():
    for m, n in ((3, 3), (3, 7), (4, 4), (7, 3), (8, 9), (42, 41)):
        grid = TorusGrid(m, n)
        table = grid.adjacency()
        assert table.n == m * n and len(table.adj) == m * n, (m, n)
        for x, y in grid.cells():
            nbrs = table.adj[grid.vertex(x, y)]
            assert len(nbrs) == 4, (m, n, x, y)
            assert set(nbrs) == {grid.vertex(*nb) for nb in grid.neighbors(x, y)}, (m, n, x, y)


def test_kernel_reads_the_table_as_the_graph():
    """`run` and `is_conversion_set` give the same answers on T(m, n)'s
    neighbour table as on its `Graph`, and refuse the same seeds."""
    rng = random.Random(31)
    for m, n in ((3, 3), (5, 7), (8, 9)):
        grid = TorusGrid(m, n)
        table, graph = grid.adjacency(), grid.graph()
        for k in (1, 2, 3, 4):
            for _ in range(50):
                seed = rng.sample(range(m * n), rng.randrange(m * n + 1))
                on_table, on_graph = run(table, seed, k), run(graph, seed, k)
                assert on_table.converted_all == on_graph.converted_all, (m, n, k, seed)
                assert on_table.final_black == on_graph.final_black, (m, n, k, seed)
                assert on_table.rounds == on_graph.rounds, (m, n, k, seed)
                assert (
                    is_conversion_set(table, seed, k)
                    == is_conversion_set(graph, seed, k)
                    == on_graph.converted_all
                ), (m, n, k, seed)
        for check in (run, is_conversion_set):
            with pytest.raises(GraphError, match=f"seed vertex {m * n} out of range"):
                check(table, [0, m * n], 3)


def test_construct_builds_no_graph(monkeypatch):
    """A construction verifies on the neighbour table: no `Graph` is built,
    in any of cases A-F or either side-4 family."""
    builds, build = [], Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: builds.append(self.n) or build(self))
    tags = []
    for m, n in ((6, 6), (6, 8), (6, 7), (8, 8), (8, 10), (10, 10), (4, 4), (4, 7)):
        tags.append(construct_3cs(m, n).params.tag)
        assert builds == [], (m, n)
    assert tags == ["A", "B", "C", "D", "E", "F", "n4_a2", "n4_a1"]


def test_grid_too_small():
    with pytest.raises(TorusError):
        TorusGrid(2, 5)
    with pytest.raises(TorusError):
        construct_3cs(5, 2)


def test_vertex_cell_roundtrip():
    grid = TorusGrid(5, 7)
    for v in range(35):
        x, y = grid.cell(v)
        assert grid.vertex(x, y) == v
    assert grid.vertex(-1, -1) == grid.vertex(4, 6)
    wrapped = [(x, y) for x in range(-6, 13, 3) for y in range(-9, 16, 4)]
    assert any(x >= 5 for x, _ in wrapped) and any(y < 0 for _, y in wrapped)
    assert grid.vertices(wrapped) == frozenset(grid.vertex(x, y) for x, y in wrapped)


def test_all_committed_patterns_load():
    for name, (w, h, blacks) in ALL_PATTERNS.items():
        p = load_pattern(name)
        assert (p.width, p.height, len(p.cells)) == (w, h, blacks), name


def test_pattern_parse_orientation():
    # first text line is the top row
    p = parse_pattern("#.\n..\n", "t")
    assert p.cells == frozenset({(0, 1)})
    q = parse_pattern("..\n#.\n", "b")
    assert q.cells == frozenset({(0, 0)})


def test_pattern_parse_errors():
    with pytest.raises(TorusError):
        parse_pattern("", "e")
    with pytest.raises(TorusError):
        parse_pattern("#.\n#\n", "ragged")
    with pytest.raises(TorusError):
        parse_pattern("#x\n", "badchar")
    with pytest.raises(TorusError, match="empty dimensions"):
        TorusPattern("flat", 2, 0, frozenset())
    with pytest.raises(TorusError, match="outside bitmap"):
        TorusPattern("spill", 2, 2, frozenset({(0, 2)}))


def test_pattern_dir_override(tmp_path, monkeypatch):
    (tmp_path / "base3x3.txt").write_text("###\n...\n...\n")
    monkeypatch.setenv(PATTERN_ENV, str(tmp_path))
    p = load_pattern("base3x3")
    assert p.cells == frozenset({(0, 2), (1, 2), (2, 2)})
    monkeypatch.delenv(PATTERN_ENV)
    assert load_pattern("base3x3").cells != p.cells


def test_missing_pattern_exits_two(tmp_path, monkeypatch, capsys):
    """An absent base3x3.txt, or one that is a directory, is a one-line
    "missing pattern data file" error with exit 2."""
    for src in Path(ikcs.torus.__file__).parent.joinpath("patterns").glob("*.txt"):
        if src.name != "base3x3.txt":
            (tmp_path / src.name).write_text(src.read_text())
    monkeypatch.setenv(PATTERN_ENV, str(tmp_path))
    for make in (lambda p: None, lambda p: p.mkdir()):
        make(tmp_path / "base3x3.txt")
        assert main(["torus-construct", "6", "6", "--verify"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: missing pattern data file {tmp_path / 'base3x3.txt'}"
        ]


def test_place_wraps_and_unions():
    grid = TorusGrid(4, 4)
    pat = TorusPattern("dot", 2, 2, frozenset({(0, 0), (1, 1)}))
    black = place(grid, pat, 3, 3)
    assert black == {(3, 3), (0, 0)}
    black |= place(grid, pat, 0, 0)
    assert black == {(3, 3), (0, 0), (1, 1)}  # black wins, no removal


def test_tile_divisibility_guard():
    grid = TorusGrid(6, 6)
    base = load_pattern("base3x3")
    with pytest.raises(TorusError):
        tile(grid, base, (0, 0, 4, 5))
    with pytest.raises(TorusError, match="empty tiling rectangle"):
        tile(grid, base, (3, 0, 2, 5))
    out = tile(grid, base, (0, 0, 5, 5))
    assert len(out) == 12


def test_white_cycles_of_base_tiling():
    base = load_pattern("base3x3")
    for k, l in ((2, 2), (2, 3), (3, 3), (4, 2), (4, 6)):
        grid = TorusGrid(3 * k, 3 * l)
        black = tile(grid, base, (0, 0, 3 * k - 1, 3 * l - 1))
        comps, regular = white_cycle_structure(grid, black)
        assert regular
        assert len(comps) == gcd(k, l)
        assert sum(len(c) for c in comps) == 6 * k * l


def test_white_cycle_diagnostic_flag():
    grid = TorusGrid(3, 3)
    comps, regular = white_cycle_structure(grid, frozenset({(0, 0)}))
    assert not regular  # eight whites around one black are not 2-regular
    assert len(comps) == 1
    # cells outside the grid are ignored, not wrapped onto (0, 1) and (2, 2)
    assert white_cycle_structure(grid, {(0, 0), (3, 1), (-1, 2)}) == (comps, regular)


def test_construct_cases_and_sizes():
    expect = {
        (6, 6): ("A", 13), (6, 8): ("B", 17), (9, 6): ("A", 19),
        (6, 7): ("C", 15), (8, 8): ("D", 22), (8, 10): ("E", 28),
        (10, 10): ("F", 34), (7, 7): ("F", 17), (4, 4): ("n4_a2", 6),
        (4, 7): ("n4_a1", 11), (11, 4): ("n4_a1", 17),
    }
    for (m, n), (tag, size) in expect.items():
        c = construct_3cs(m, n)
        assert c.params.tag == tag, (m, n, c.params)
        assert c.params.size == size == len(c.cells)
        assert is_conversion_set(c.grid.graph(), c.vertices, 3)


def test_construct_large_sides():
    for m, n in ((90, 90), (90, 91), (150, 150), (152, 151)):
        c = construct_3cs(m, n)
        assert len(c.cells) == c.params.size <= c.params.bound, (m, n)
        assert is_conversion_set(c.grid.graph(), c.vertices, 3), (m, n)


def test_transpose_symmetry():
    a = construct_3cs(6, 8)
    b = construct_3cs(8, 6)
    assert a.params.size == b.params.size
    assert {a.params.tag, b.params.tag} == {"B"}
    assert b.params.transposed != a.params.transposed


def test_render_matches_cells():
    c = construct_3cs(6, 6)
    art = render_cells(6, 6, c.cells)
    rows = art.splitlines()
    assert len(rows) == 6 and all(len(r) == 6 for r in rows)
    assert sum(r.count("#") for r in rows) == c.params.size
    # top row of the art is the highest y
    for x in range(6):
        assert (rows[0][x] == "#") == ((x, 5) in c.cells)


def test_search_finds_committed_family():
    wins = search_tile_patterns(3, 3, 3, battery=((6, 6), (9, 6), (6, 9)))
    base, merge = load_pattern("base3x3"), load_pattern("merge3x3")
    assert any(
        b.cells == base.cells and mg.cells == merge.cells for b, mg in wins
    )


def test_search_exhausts_small_budget():
    assert search_tile_patterns(3, 3, 2, battery=((6, 6),)) == []
    with pytest.raises(ValueError, match="unknown family 'x'"):
        search_tile_patterns(3, 3, 2, family="x")


def test_search_n4_family():
    wins = search_tile_patterns(2, 4, 3, family="n4", battery=(3, 5, 6))
    assert wins
    nb = load_pattern("n4_base")
    assert any(b.cells == nb.cells for b, _, _ in wins)
    for base, cap1, cap2 in wins[:2]:
        assert len(cap1.cells) <= 2 and len(cap2.cells) <= 3


def test_construct_3cs_matches_exact_minimum():
    # the exact minimum equals the construction's size on each of these tori
    sides = [(m, n) for n in range(3, 7) for m in range(3, n + 1)] + [(3, 7), (4, 6)]
    for m, n in sides:
        size, _ = min_conversion_set(TorusGrid(m, n).graph(), 3, budget_vertices=m * n)
        assert size == len(construct_3cs(m, n).vertices), (m, n)


PINNED = Path(__file__).parent / "data" / "torus_pinned.json"


def test_construct_3cs_outputs_pinned():
    """Case tag, size and a digest of the sorted cells for every 3 <= m, n
    <= 25 plus 31x4, 4x50 and 90x91, recorded from an earlier release of
    the construction."""
    for key, (tag, size, digest) in json.loads(PINNED.read_text()).items():
        c = construct_3cs(*map(int, key.split("x")))
        cells = json.dumps(sorted(map(list, c.cells))).encode()
        got = (c.params.tag, c.params.size, hashlib.sha256(cells).hexdigest()[:16])
        assert got == (tag, size, digest), key
