"""Exhaustive search for the torus tile patterns.

`search_tile_patterns` re-derives the pattern bitmaps that `ikcs.torus`
loads from its patterns directory.  Nothing on the command line's path
imports this module: the committed patterns are data, and the search only
reproduces them.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd

from .percolation import is_conversion_set
from .torus import (
    TorusGrid,
    TorusPattern,
    _extra_squares,
    _merged_tiling,
    _n4_cells,
    tile,
    white_cycle_structure,
)

__all__ = ["search_tile_patterns"]


def _patterns(name: str, width: int, height: int, blacks: int):
    squares = [(x, y) for y in range(height) for x in range(width)]
    for combo in combinations(squares, blacks):
        yield TorusPattern(name, width, height, frozenset(combo))


def search_tile_patterns(
    width: int,
    height: int,
    blacks: int,
    family: str = "general",
    battery=None,
):
    """Exhaustive bitmap search for workable tile families.

    family="general": returns (base, merge) pairs such that the base tiling
    of every battery torus leaves a clean cycle decomposition with gcd(k, l)
    cycles, and the merge-plus-extra-square recipe percolates.

    family="n4": returns (base, cap1, cap2) triples for the height-4 recipe,
    cap budgets blacks - 1 and blacks, verified on odd and even widths.

    Exhausts the full space and returns the list; an empty list means no
    family fits the budget.
    """
    if family == "general":
        battery = battery or ((6, 6), (9, 6), (6, 9), (9, 9), (12, 6))
        found = (
            (base, merge)
            for base in _patterns("base", width, height, blacks)
            if _base_ok(base, battery)
            for merge in _patterns("merge", width, height, blacks)
            if _family_ok(base, merge, battery)
        )
    elif family == "n4":
        found = _n4_families(width, height, blacks, battery or (3, 5, 7, 6, 8))
    else:
        raise ValueError(f"unknown family {family!r}")
    return list(found)


def _n4_families(width: int, height: int, blacks: int, widths):
    for base in _patterns("n4_base", width, height, blacks):
        cap1 = _first_cap(base, 1, blacks - 1, widths)
        cap2 = cap1 and _first_cap(base, 2, blacks, widths)
        if cap2:
            yield base, cap1, cap2


def _first_cap(base: TorusPattern, a: int, blacks: int, widths):
    caps = _patterns(f"n4_cap{a}", base.width, base.height, blacks)
    return next((cap for cap in caps if _n4_ok(base, cap, a, widths)), None)


def _base_ok(base: TorusPattern, battery) -> bool:
    for m, n in battery:
        if m % base.width or n % base.height:
            return False
        grid = TorusGrid(m, n)
        black = tile(grid, base, (0, 0, m - 1, n - 1))
        comps, regular = white_cycle_structure(grid, black)
        if not regular:
            return False
        if len(comps) != gcd(m // base.width, n // base.height):
            return False
    return True


def _family_ok(base: TorusPattern, merge: TorusPattern, battery) -> bool:
    for m, n in battery:
        grid = TorusGrid(m, n)
        black = _merged_tiling(grid, base, merge, m // base.width, n // base.height)
        if len(black) != m * n // 3:
            return False
        table = grid.adjacency()
        seeds = _extra_squares(black)
        if not any(is_conversion_set(table, grid.vertices(s), 3) for s in seeds):
            return False
    return True


def _n4_ok(base: TorusPattern, cap: TorusPattern, a: int, widths) -> bool:
    for m in widths:
        if m % 2 != a % 2 or m < 3:
            continue
        grid = TorusGrid(m, 4)
        black = _n4_cells(grid, base, cap)
        if len(black) > (3 * m * 4 + 4) // 8:
            return False
        if not is_conversion_set(grid.adjacency(), grid.vertices(black), 3):
            return False
    return True
