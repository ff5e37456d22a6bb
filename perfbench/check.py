"""Answer checks written independently of `ikcs`.

Conversion is re-simulated with a frontier counter: every white vertex keeps
its number of black neighbours and turns black when that reaches k.  The
final black set equals the fixed point of the synchronous process, because
the process is monotone.  Each check returns a list of problems; an empty
list means the answer is accepted.
"""
from __future__ import annotations

import hashlib
import json


def closure_converts(adj: list[list[int]], seed, k: int) -> bool:
    """Does the seed convert every vertex under threshold k?"""
    n = len(adj)
    black = [False] * n
    frontier = []
    for v in seed:
        if not black[v]:
            black[v] = True
            frontier.append(v)
    count = [0] * n
    done = len(frontier)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if not black[w]:
                count[w] += 1
                if count[w] >= k:
                    black[w] = True
                    done += 1
                    frontier.append(w)
    return done == n


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def torus_adjacency(m: int, n: int) -> list[list[int]]:
    """4-neighbour torus, vertex y*m + x for cell (x, y)."""
    return [
        [y * m + (x + 1) % m, y * m + (x - 1) % m,
         ((y + 1) % n) * m + x, ((y - 1) % n) * m + x]
        for y in range(n) for x in range(m)
    ]


def torus_size(m: int, n: int) -> tuple[str, int]:
    """The paper's per-case seed size for T(m, n), from (m mod 3, n mod 3).

    A side of 4 uses the 2x4 family, floor((3mn + 4) / 8).  Otherwise: some
    side divisible by 3 gives (mn + 3)/3 (cases A-C); residues {2, 2} give
    (mn + 2)/3 (D), {2, 1} give (mn + 4)/3 (E) and {1, 1} give (mn + 2)/3 (F).
    """
    if m == 4 or n == 4:
        return "n4", (3 * m * n + 4) // 8
    r = sorted((m % 3, n % 3))
    if r[0] == 0:
        tag = {0: "A", 2: "B", 1: "C"}[r[1]]
        return tag, (m * n + 3) // 3
    if r == [2, 2]:
        return "D", (m * n + 2) // 3
    if r == [1, 2]:
        return "E", (m * n + 4) // 3
    return "F", (m * n + 2) // 3


def _payload(code: int, stdout: str, problems: list[str]) -> dict | None:
    if code != 0:
        problems.append(f"exit code {code}")
        return None
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def check_min_set(inst, code: int, stdout: str) -> tuple[list[str], dict | None]:
    """Witness converts, is inclusion-minimal, and meets the lower bound."""
    problems: list[str] = []
    obj = _payload(code, stdout, problems)
    if obj is None:
        return problems, None
    wit = obj.get("witness")
    size = obj.get("size")
    if not isinstance(wit, list) or not all(isinstance(v, int) for v in wit):
        return problems + ["witness is not a list of ints"], None
    if sorted(set(wit)) != wit or any(not 0 <= v < inst.n for v in wit):
        problems.append("witness not sorted, distinct and in range")
        return problems, None
    if size != len(wit):
        problems.append(f"size {size} != witness length {len(wit)}")
    if obj.get("graph", {}).get("edges") != [list(e) for e in inst.edges]:
        problems.append("echoed graph differs from the input")
    if len(wit) < inst.lower_bound:
        problems.append(f"size {len(wit)} below lower bound {inst.lower_bound}")
    adj = adjacency(inst.n, inst.edges)
    if not closure_converts(adj, wit, inst.k):
        problems.append("witness does not convert the graph")
    else:
        for v in wit:
            if closure_converts(adj, [x for x in wit if x != v], inst.k):
                problems.append(f"witness not minimal: {v} is redundant")
                break
    return problems, {"size": size, "witness": wit}


def check_torus(inst, code: int, stdout: str) -> tuple[list[str], dict | None]:
    """Size equals the closed form, cells and vertices agree, cells convert."""
    problems: list[str] = []
    obj = _payload(code, stdout, problems)
    if obj is None:
        return problems, None
    m, n = inst.props["m"], inst.props["n"]
    tag, want = torus_size(m, n)
    cells = obj.get("cells")
    if not isinstance(cells, list):
        return problems + ["cells missing"], None
    cellset = {tuple(c) for c in cells}
    if len(cellset) != len(cells) or any(
        not (0 <= x < m and 0 <= y < n) for x, y in cellset
    ):
        problems.append("cells not distinct and inside the grid")
        return problems, None
    if len(cells) != want or obj.get("size") != want:
        problems.append(f"size {len(cells)} != closed form {want} (case {tag})")
    if tag != "n4" and obj.get("case") != tag:
        problems.append(f"case {obj.get('case')} != expected {tag}")
    verts = sorted(y * m + x for x, y in cellset)
    if obj.get("vertices") != verts:
        problems.append("vertices do not match cells")
    if obj.get("verified") is not True:
        problems.append("program did not report verified")
    if not closure_converts(torus_adjacency(m, n), verts, 3):
        problems.append("cells do not 3-convert the torus")
    return problems, {"size": len(cells), "cells": sorted(map(list, cellset))}


def check(inst, code: int, stdout: str) -> tuple[list[str], dict | None]:
    if inst.kind == "torus":
        return check_torus(inst, code, stdout)
    return check_min_set(inst, code, stdout)


def digest(answers: list[tuple[str, dict | None]]) -> str:
    """Hash over instance ids, sizes and exact witnesses or cells."""
    h = hashlib.sha256()
    for ident, ans in answers:
        h.update(json.dumps([ident, ans], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
