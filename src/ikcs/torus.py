"""Irreversible 3-conversion sets on toroidal grids by pattern tiling.

T(m, n) is the Cartesian product of cycles C_m x C_n; cells are (x, y) with
the origin at the bottom left and wraparound in both directions.  Seeds are
assembled from small black/white patterns: a base tile whose periodic tiling
leaves gcd(k, l) disjoint white cycles, a modified tile that merges them
into one, strip and corner tiles for the non-multiple-of-3 boundary, and a
separate 2x4 family for grids with a side of length 4.  Overlapping
placements are resolved black-wins; every constructed seed is verified with
the conversion process before it is returned.

Pattern bitmaps are data files ('#' black, '.' white, top row first) found
by `ikcs.tilesearch.search_tile_patterns` and committed under the package's
patterns directory; IKCS_PATTERN_DIR overrides the location.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from .graph import MAX_VERTEX_ID, Graph
from .percolation import NeighborTable, is_conversion_set

__all__ = [
    "TorusError",
    "TorusGrid",
    "TorusPattern",
    "CaseParams",
    "TorusConstruction",
    "parse_pattern",
    "load_pattern",
    "pattern_dir",
    "place",
    "tile",
    "white_cycle_structure",
    "construct_3cs",
    "render_cells",
]

PATTERN_ENV = "IKCS_PATTERN_DIR"


class TorusError(ValueError):
    pass


@dataclass(frozen=True)
class TorusGrid:
    m: int  # width
    n: int  # height

    def __post_init__(self):
        if self.m < 3 or self.n < 3:
            raise TorusError("torus dimensions must be at least 3")
        if self.m * self.n > MAX_VERTEX_ID:
            raise TorusError(f"torus of {self.m * self.n} cells exceeds {MAX_VERTEX_ID}")

    def vertex(self, x: int, y: int) -> int:
        return (y % self.n) * self.m + (x % self.m)

    def cell(self, v: int) -> tuple[int, int]:
        return v % self.m, v // self.m

    def cells(self):
        return ((x, y) for y in range(self.n) for x in range(self.m))

    def vertices(self, cells) -> frozenset:
        m, n = self.m, self.n
        return frozenset(y % n * m + x % m for x, y in cells)

    def neighbors(self, x: int, y: int):
        m, n = self.m, self.n
        return (
            ((x + 1) % m, y), ((x - 1) % m, y),
            (x, (y + 1) % n), (x, (y - 1) % n),
        )

    def adjacency(self) -> NeighborTable:
        """T(m, n) as a neighbour table, the one source of its topology.

        Vertex v = y m + x lists its right, left, upper and lower neighbours,
        as `neighbors` does.  Each column is a shifted copy of one id list:
        v + 1 and v - 1 are patched at the row ends, v + m and v - m wrap
        mod mn.
        """
        m = self.m
        ids = list(range(m * self.n))
        right = ids[1:] + ids[:1]
        right[m - 1::m] = ids[0::m]
        left = ids[-1:] + ids[:-1]
        left[0::m] = ids[m - 1::m]
        up = ids[m:] + ids[:m]
        down = ids[-m:] + ids[:-m]
        return NeighborTable(len(ids), tuple(zip(right, left, up, down)))

    def graph(self) -> Graph:
        """T(m, n) as a `Graph`, with edges read off `adjacency` canonical:
        each vertex's higher neighbours in increasing order."""
        return Graph(self.m * self.n, tuple(
            (v, w) for v, nbrs in enumerate(self.adjacency().adj) for w in sorted(nbrs) if v < w
        ))


@dataclass(frozen=True)
class TorusPattern:
    name: str
    width: int
    height: int
    cells: frozenset  # black cells (x, y), origin bottom left

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise TorusError(f"pattern {self.name}: empty dimensions")
        for x, y in self.cells:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise TorusError(f"pattern {self.name}: cell ({x},{y}) outside bitmap")


def parse_pattern(text: str, name: str = "anon") -> TorusPattern:
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise TorusError(f"pattern {name}: empty file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise TorusError(f"pattern {name}: ragged rows")
    height = len(rows)
    cells = set()
    for r, row in enumerate(rows):
        y = height - 1 - r  # first file line is the top row
        for x, ch in enumerate(row):
            if ch == "#":
                cells.add((x, y))
            elif ch != ".":
                raise TorusError(f"pattern {name}: bad character {ch!r}")
    return TorusPattern(name, width, height, frozenset(cells))


def pattern_dir() -> Path:
    override = os.environ.get(PATTERN_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "patterns"


# pattern file path -> ((inode, mtime in ns, size), its parsed pattern)
_PARSED: dict[Path, tuple[tuple[int, int, int], TorusPattern]] = {}


def load_pattern(name: str) -> TorusPattern:
    """The pattern in `pattern_dir()`/name.txt, parsed once per version of
    the file: it is read again only when its inode, mtime or size differs
    from the last read's, as CPython revalidates its bytecode caches."""
    path = pattern_dir() / f"{name}.txt"
    try:
        # stat before the read: a file rewritten in between keeps the older
        # stamp, so the next call reads it again
        st = os.stat(path)
        stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
        hit = _PARSED.get(path)
        if hit is not None and hit[0] == stamp:
            return hit[1]
        text = path.read_text()
    except OSError:
        raise TorusError(f"missing pattern data file {path}") from None
    pattern = parse_pattern(text, name)
    _PARSED[path] = (stamp, pattern)
    return pattern


def _cells(grid: TorusGrid, copies) -> set:
    """The cells of the pattern copies (pattern, i, j), each with its
    bottom-left square at [i, j], in one set."""
    m, n = grid.m, grid.n
    return {((i + x) % m, (j + y) % n) for pat, i, j in copies for x, y in pat.cells}


def place(grid: TorusGrid, pattern: TorusPattern, i: int, j: int) -> frozenset:
    """The cells of the pattern with its bottom-left square at [i, j]."""
    return frozenset(_cells(grid, ((pattern, i, j),)))


def tile(grid: TorusGrid, pattern: TorusPattern, rect) -> frozenset:
    """The cells of copies tiling the rectangle (x0, y0, x1, y1), corners
    inclusive."""
    x0, y0, x1, y1 = rect
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w <= 0 or h <= 0:
        raise TorusError("empty tiling rectangle")
    if w % pattern.width or h % pattern.height:
        raise TorusError(
            f"rectangle {w}x{h} not divisible by pattern "
            f"{pattern.width}x{pattern.height}"
        )
    return frozenset(_cells(grid, (
        (pattern, x0 + dx, y0 + dy)
        for dy in range(0, h, pattern.height)
        for dx in range(0, w, pattern.width)
    )))


def white_cycle_structure(grid: TorusGrid, black) -> tuple[list[frozenset], bool]:
    """Connected components of the white subgraph, plus a 2-regularity flag.

    The white subgraph is T(m, n) with the black cells deleted; black cells
    outside the grid are ignored.  Components are cell sets sorted by their
    least cell.  When every white cell has exactly two white neighbors the
    components are disjoint cycles (the situation the base tiling is
    designed to create); otherwise the flag is False and the components are
    still returned for diagnostics.
    """
    white, remap = grid.graph().delete_vertices(
        grid.vertex(x, y) for x, y in black if 0 <= x < grid.m and 0 <= y < grid.n
    )
    kept = list(remap)  # white id -> torus id
    comps = [frozenset(grid.cell(kept[v]) for v in comp) for comp in white.components()]
    comps.sort(key=min)
    return comps, all(white.degree(v) == 2 for v in range(white.n))


@dataclass(frozen=True)
class CaseParams:
    tag: str
    m: int
    n: int
    k: int
    l: int | None
    a: int
    b: int | None
    g: int | None
    transposed: bool
    size: int
    bound: int


@dataclass(frozen=True)
class TorusConstruction:
    grid: TorusGrid
    cells: frozenset
    vertices: frozenset
    params: CaseParams


def _split_general(dim: int) -> tuple[int, int]:
    """dim = 3k + a with a in {0, 2, 4} and k >= 1 (dim >= 3, dim != 4)."""
    a = {0: 0, 2: 2, 1: 4}[dim % 3]
    return (dim - a) // 3, a


# (a, b) -> case tag and c, for a seed of (mn + c) // 3 cells
_GENERAL_CASES = {
    (0, 0): ("A", 3), (0, 2): ("B", 3), (0, 4): ("C", 3),
    (2, 2): ("D", 2), (2, 4): ("E", 4), (4, 4): ("F", 2),
}


def _merged_tiling(grid: TorusGrid, base: TorusPattern, merge: TorusPattern,
                   k: int, l: int) -> set:
    """k x l copies of base; the first gcd(k, l) - 1 copies of column 0 are
    merge, which joins the base tiling's gcd(k, l) white cycles into one."""
    g = gcd(k, l)
    return _cells(grid, (
        (merge if tx == 0 and ty <= g - 2 else base, base.width * tx, base.height * ty)
        for ty in range(l)
        for tx in range(k)
    ))


def _general_cells(grid: TorusGrid, k: int, l: int, a: int, b: int) -> frozenset:
    """The a <= b recipe on an m = 3k+a by n = 3l+b grid."""
    black = _merged_tiling(grid, load_pattern("base3x3"), load_pattern("merge3x3"), k, l)
    if b:
        strip = load_pattern(f"strip_b{b}")
        black.update(tile(grid, strip, (0, 3 * l, 3 * k - 1, 3 * l + b - 1)))
    if a:
        strip = load_pattern(f"strip_a{a}")
        black.update(tile(grid, strip, (3 * k, 0, 3 * k + a - 1, 3 * l - 1)))
    if a and b:
        black |= _cells(grid, ((load_pattern(f"corner_a{a}b{b}"), 3 * k, 3 * l),))
    return frozenset(black)


def _n4_cells(grid: TorusGrid, base: TorusPattern, cap: TorusPattern) -> frozenset:
    """Height-4 recipe on m = 2k + a, a in {1, 2}: k base copies, then the
    cap at column 2k + a - 2."""
    a = 2 - grid.m % 2
    k = (grid.m - a) // 2
    return tile(grid, base, (0, 0, 2 * k - 1, 3)) | place(grid, cap, 2 * k + a - 2, 0)


def _extra_squares(black) -> list:
    """The seed plus one extra black square, (0, 0) then (1, 1), which breaks
    the merged white cycle; a square that is already black is skipped."""
    return [black | {sq} for sq in ((0, 0), (1, 1)) if sq not in black]


def construct_3cs(m: int, n: int) -> TorusConstruction:
    """A small irreversible 3-conversion set of T(m, n), verified to work.

    General grids meet (mn + 3)/3, (mn + 2)/3 or (mn + 4)/3 depending on the
    boundary case; grids with a side of length 4 meet (3mn + 4)/8.  Each
    recipe is built on the grid with its special side (height 4, or the
    larger boundary remainder) vertical and transposed back.
    """
    grid = TorusGrid(m, n)
    if m == 4 or n == 4:
        transposed = n != 4
        width = n if transposed else m
        a = 2 - width % 2
        k = (width - a) // 2
        cap = load_pattern(f"n4_cap{a}")
        candidates = [_n4_cells(TorusGrid(width, 4), load_pattern("n4_base"), cap)]
        params = CaseParams(
            tag=f"n4_a{a}", m=m, n=n, k=k, l=None, a=a, b=None, g=None,
            transposed=transposed, size=3 * k + a + 1, bound=(3 * m * n + 4) // 8,
        )
    else:
        ka, aa = _split_general(m)
        kb, bb = _split_general(n)
        transposed = aa > bb
        k, a, l, b = (kb, bb, ka, aa) if transposed else (ka, aa, kb, bb)
        black = _general_cells(TorusGrid(n, m) if transposed else grid, k, l, a, b)
        tag, c = _GENERAL_CASES[(a, b)]
        candidates = _extra_squares(black) if tag in "ABC" else [black]
        params = CaseParams(
            tag=tag, m=m, n=n, k=k, l=l, a=a, b=b, g=gcd(k, l),
            transposed=transposed, size=(m * n + c) // 3, bound=(m * n + 4) // 3,
        )
    table = grid.adjacency()
    for black in candidates:
        cells = frozenset((y, x) for x, y in black) if transposed else frozenset(black)
        verts = grid.vertices(cells)
        if len(cells) == params.size <= params.bound and is_conversion_set(table, verts, 3):
            return TorusConstruction(grid, cells, verts, params)
    raise TorusError(f"case {params.tag}: no {params.size}-cell seed percolates")


def render_cells(m: int, n: int, cells) -> str:
    """ASCII art, top row first, '#' black '.' white."""
    black = set(cells)
    rows = []
    for y in range(n - 1, -1, -1):
        rows.append("".join("#" if (x, y) in black else "." for x in range(m)))
    return "\n".join(rows)
