"""3-SAT to minimum-seed reduction on graphs of maximum degree 4.

Builds, from a 3-CNF formula with n variables and m clauses, a graph G_F and
a target s such that G_F has an irreversible 2-conversion set of size s
exactly when the formula is satisfiable.  Degree-1 vertices are forced into
every seed, which pins the budget: s = |L| + n leaves exactly one free seed
per variable gadget, and that seed has to be the true/false vertex.

Signal flows from variable gadgets to clause gadgets through one-way
gadgets, then through a collecting path and back along a distributing path
that finishes converting the variable gadgets.  The one-way gadget used here
is a diamond: its end vertex feeds the start side in three rounds, while
nothing propagates from the start side back to the end's neighbor.  Antenna
outputs carry pendant leaves so a black x_i can walk its antenna; together
with the three leaves per one-way this gives |L| = 15m + n + 1.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .exact import _guard, has_conversion_set_of_size
from .gf2 import ConsistencyError
from .graph import MAX_VERTEX_ID, Graph, GraphError
from .percolation import is_conversion_set, run

__all__ = [
    "CnfFormula",
    "DimacsError",
    "parse_dimacs",
    "build_one_way",
    "build_reduction",
    "ReductionOutput",
    "satisfying_seed",
    "sat_bruteforce",
    "check_equivalence",
]

# vertex budget of `check_equivalence`'s exact seed search
EQUIVALENCE_BUDGET = 200


class DimacsError(ValueError):
    pass


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF: clauses of exactly three signed 1-based variable indices."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise DimacsError("negative variable count")
        for cl in self.clauses:
            if len(cl) != 3:
                raise DimacsError(f"clause {cl} does not have exactly 3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n:
                    raise DimacsError(f"literal {lit} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def occurrences(self, var: int, positive: bool) -> int:
        want = var if positive else -var
        return sum(1 for cl in self.clauses for lit in cl if lit == want)


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS CNF with a `p cnf n m` header; clauses are 0-terminated."""
    header = None
    clauses: list[tuple[int, ...]] = []
    cur: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: repeated header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from None
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from None
            if lit:
                cur.append(lit)
            else:
                clauses.append(tuple(cur))
                cur = []
    if header is None:
        raise DimacsError("missing `p cnf` header")
    if cur:
        raise DimacsError("unterminated clause at end of input")
    n, m = header
    if len(clauses) != m:
        raise DimacsError(f"header declared {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))  # type: ignore[arg-type]


def build_one_way() -> tuple[Graph, dict]:
    """The diamond gadget in isolation, ids fixed for inspection.

    Vertex 0 is the start u (the clause side), 1 the end v (the output
    side); 2..5 are w1..w4 and 6..8 pendant leaves on w2, w3, w4.  Seeding v
    plus the leaves blackens w1 (a neighbor of u) in three rounds; seeding u
    plus the leaves leaves every internal vertex white.
    """
    edges = (
        (0, 2),          # u - w1
        (2, 3), (2, 4),  # w1 - w2, w1 - w3
        (3, 5), (4, 5),  # w2 - w4, w3 - w4
        (5, 1),          # w4 - v
        (3, 6), (4, 7), (5, 8),
    )
    roles = {
        0: "start", 1: "end", 2: "w1", 3: "w2", 4: "w3", 5: "w4",
        6: "leaf", 7: "leaf", 8: "leaf",
    }
    return Graph(9, edges), roles


@functools.cache
def _one_way_self_test() -> None:
    """Simulate the gadget once per process before any assembly."""
    g, roles = build_one_way()
    leaves = {v for v, r in roles.items() if r == "leaf"}
    fwd = run(g, leaves | {1}, 2)
    order = fwd.round_of()
    if 2 not in order or order[2] > 3:
        raise ConsistencyError("one-way does not feed the start side in 3 rounds")
    rev = run(g, leaves | {0}, 2)
    if 5 in rev.final_black or 1 in rev.final_black:
        raise ConsistencyError("one-way leaks from start to end")


@dataclass
class ReductionOutput:
    graph: Graph
    s: int
    roles: dict[int, str]
    leaves: frozenset[int]
    variables: list[dict]   # per variable: x, y, z, pos_outputs, neg_outputs
    clauses: list[dict]     # per clause: spine ids and its a vertex
    collecting: list[int]
    distributing: list[int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "edges": self.graph.edges,
            "s": self.s,
            "roles": {str(v): r for v, r in sorted(self.roles.items())},
            "leaves": sorted(self.leaves),
        }


def _plan(formula: CnfFormula) -> tuple[Counter, int]:
    """Literal occurrences and the vertex count of G_F, refusing a formula
    that cannot be reduced or whose graph would pass the vertex-id bound.

    G_F has 5 vertices per variable (x, y, z, u_i and u_i's leaf), 2 per
    literal occurrence (an output and its leaf), 28 per clause (v_j, the
    spine and its leaves, three one-ways of 7 fresh vertices) and the
    collecting path's leaf: 5n + 34m + 1.
    """
    n, m = formula.n, formula.m
    if n < 1 or m < 1:
        raise GraphError("reduction needs at least one variable and one clause")
    # literal -> occurrences, counted once: `occurrences` scans every clause
    count = Counter(lit for cl in formula.clauses for lit in cl)
    for i in range(1, n + 1):
        if count[i] + count[-i] == 0:
            raise GraphError(f"variable {i} occurs in no clause")
    order = 5 * n + 34 * m + 1
    if order > MAX_VERTEX_ID + 1:
        raise GraphError(
            f"reduction graph of {order} vertices exceeds limit {MAX_VERTEX_ID + 1}"
        )
    return count, order


def build_reduction(formula: CnfFormula) -> ReductionOutput:
    """Assemble G_F with its role map and the target s = |L| + n."""
    _one_way_self_test()
    n, m = formula.n, formula.m
    count, order = _plan(formula)

    edges: list[tuple[int, int]] = []
    roles: dict[int, str] = {}
    counter = 0

    def fresh(role: str) -> int:
        nonlocal counter
        v = counter
        counter += 1
        roles[v] = role
        return v

    def leaf_on(v: int) -> int:
        w = fresh("leaf")
        edges.append((v, w))
        return w

    variables: list[dict] = []
    for i in range(1, n + 1):
        x = fresh(f"x_{i}")
        y = fresh(f"y_{i}")
        z = fresh(f"z_{i}")
        edges += [(x, y), (y, z), (x, z)]
        entry = {"x": x, "y": y, "z": z}
        for prev, lit, sign in ((x, i, "pos"), (y, -i, "neg")):
            entry[f"{sign}_outputs"] = chain = []
            for k in range(count[lit]):
                o = fresh(f"output_{sign}_{i}_{k + 1}")
                edges.append((prev, o))
                leaf_on(o)
                chain.append(o)
                prev = o
        variables.append(entry)

    # outputs are consumed in clause order, one per literal occurrence
    taken = {(i, pol): 0 for i in range(1, n + 1) for pol in (True, False)}

    # every one-way is a copy of the self-tested gadget: its start on the
    # clause spine, its end on a variable output, the rest fresh vertices
    gadget, gadget_roles = build_one_way()
    clauses: list[dict] = []
    for j, clause in enumerate(formula.clauses, start=1):
        spine = []
        for t in range(3):
            svert = fresh(f"a_{j}" if t == 0 else f"spine_{j}_{t + 1}")
            spine.append(svert)
            leaf_on(svert)
        edges += [(spine[0], spine[1]), (spine[1], spine[2])]
        for t, lit in enumerate(clause):
            var, pol = abs(lit), lit > 0
            bank = variables[var - 1]["pos_outputs" if pol else "neg_outputs"]
            out = bank[taken[(var, pol)]]
            taken[(var, pol)] += 1
            ends = {"start": spine[t], "end": out}
            ids = {
                v: ends[r] if r in ends
                else fresh("leaf" if r == "leaf" else "oneway_internal")
                for v, r in gadget_roles.items()
            }
            edges += [(ids[u], ids[v]) for u, v in gadget.edges]
        clauses.append({"spine": spine, "a": spine[0]})

    collecting = [fresh(f"v_{j}") for j in range(1, m + 1)]
    for a, b in zip(collecting, collecting[1:]):
        edges.append((a, b))
    leaf_on(collecting[0])
    for j, vj in enumerate(collecting):
        edges.append((clauses[j]["a"], vj))

    distributing = [fresh(f"u_{i}") for i in range(1, n + 1)]
    for a, b in zip(distributing, distributing[1:]):
        edges.append((a, b))
    edges.append((collecting[-1], distributing[0]))
    for i, ui in enumerate(distributing):
        leaf_on(ui)
        edges.append((ui, variables[i]["z"]))

    g = Graph(counter, tuple(edges))
    if g.max_degree() > 4:
        raise ConsistencyError("degree cap violated")
    leaves = frozenset(v for v in range(g.n) if g.degree(v) == 1)
    if len(leaves) != 15 * m + n + 1:
        raise ConsistencyError("leaf accounting is off")
    if g.n != order:
        raise ConsistencyError(f"graph has {g.n} vertices, not 5n + 34m + 1 = {order}")
    s = len(leaves) + n
    return ReductionOutput(
        graph=g, s=s, roles=roles, leaves=leaves,
        variables=variables, clauses=clauses,
        collecting=collecting, distributing=distributing,
    )


def satisfying_seed(out: ReductionOutput, assignment) -> frozenset[int]:
    """Seed derived from a truth assignment: all leaves plus x_i or y_i."""
    seed = set(out.leaves)
    for i, var in enumerate(out.variables, start=1):
        seed.add(var["x"] if assignment[i - 1] else var["y"])
    return frozenset(seed)


def sat_bruteforce(formula: CnfFormula):
    """First satisfying assignment as a tuple of bools, or None."""
    for bits in range(1 << formula.n):
        assign = [(bits >> i) & 1 == 1 for i in range(formula.n)]
        ok = all(
            any(assign[abs(lit) - 1] == (lit > 0) for lit in cl)
            for cl in formula.clauses
        )
        if ok:
            return tuple(assign)
    return None


def check_equivalence(
    formula: CnfFormula, budget_vertices: int = EQUIVALENCE_BUDGET
) -> dict:
    """Compare SAT truth against exact seed search on the assembled graph.

    Only sensible for tiny formulas: the exact side searches the vertex
    subsets of size s - |L| outside the forced leaves.  Its vertex budget is
    checked against the planned vertex count before the graph is built, and
    so before the 2^n satisfiability scan.
    """
    _guard(_plan(formula)[1], budget_vertices)
    out = build_reduction(formula)
    found = has_conversion_set_of_size(
        out.graph, 2, out.s, budget_vertices=budget_vertices
    )
    assign = sat_bruteforce(formula)
    report = {
        "n": formula.n,
        "m": formula.m,
        "graph_n": out.graph.n,
        "s": out.s,
        "satisfiable": assign is not None,
        "conversion_set_found": found,
        "match": (assign is not None) == found,
        "forward_seed_ok": None,
    }
    if assign is not None:
        seed = satisfying_seed(out, assign)
        report["forward_seed_ok"] = (
            len(seed) == out.s and is_conversion_set(out.graph, seed, 2)
        )
    return report
