import random
import time
from itertools import product

import pytest

import ikcs.satred as satred
from ikcs.gf2 import ConsistencyError
from ikcs.graph import Graph, GraphError
from ikcs.percolation import is_conversion_set, run
from ikcs.satred import (
    CnfFormula,
    DimacsError,
    build_one_way,
    build_reduction,
    check_equivalence,
    parse_dimacs,
    sat_bruteforce,
    satisfying_seed,
)

SAT3 = CnfFormula(3, ((1, 2, -3), (-1, 2, 3)))
UNSAT1 = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))


def test_parse_happy():
    f = parse_dimacs("c comment\np cnf 3 2\n1 2 -3 0\n-1 2 3 0\n")
    assert f == SAT3
    assert f.m == 2
    assert f.occurrences(2, True) == 2
    assert f.occurrences(3, False) == 1
    assert f.occurrences(1, False) == 1


def test_parse_multiline_and_duplicates():
    f = parse_dimacs("p cnf 2 1\n1\n1 -2\n0\n")
    assert f.clauses == ((1, 1, -2),)
    assert f.occurrences(1, True) == 2  # duplicates inside a clause count


def test_parse_errors():
    cases = [
        ("p cnf 1 1\np cnf 1 1\n1 1 1 0", "repeated header"),
        ("p cnf x 1\n1 1 1 0", "malformed header"),
        ("p cnf a b\n1 1 1 0", "line 1: malformed header"),
        ("p dnf 1 1\n1 1 1 0", "line 1: malformed header"),
        ("p cnf 1\n1 1 1 0", "line 1: malformed header"),
        ("1 1 1 0\np cnf 1 1\n", "clause before header"),
        ("p cnf 1 1\n1 one 1 0", "bad token"),
        ("c nothing here\n", "missing `p cnf`"),
        ("p cnf 3 1\n1 2 3", "unterminated clause"),
        ("p cnf 3 2\n1 2 3 0\n", "declared 2 clauses"),
        ("p cnf 3 1\n1 2 0\n", "exactly 3 literals"),
        ("p cnf 2 1\n1 2 3 0\n", "out of range"),
    ]
    for text, frag in cases:
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert frag in str(err.value), text


def test_one_way_transmits_end_to_start():
    g, roles = build_one_way()
    ids = {name: v for v, name in roles.items() if name != "leaf"}
    u, v, w1, w4 = ids["start"], ids["end"], ids["w1"], ids["w4"]
    leaves = frozenset(x for x in range(g.n) if roles[x] == "leaf")
    # influence flows from the end vertex toward the start's neighbor
    tr = run(g, leaves | {v}, 2)
    assert w1 in tr.final_black
    assert tr.round_of()[w1] <= 3
    # but never backwards
    tr = run(g, leaves | {u}, 2)
    assert v not in tr.final_black
    assert w4 not in tr.final_black


def test_reduction_shape():
    out = build_reduction(SAT3)
    g = out.graph
    n, m = SAT3.n, SAT3.m
    assert g.n == 5 * n + 34 * m + 1
    assert g.max_degree() <= 4
    assert len(out.leaves) == 15 * m + n + 1
    assert out.s == len(out.leaves) + n
    assert out.leaves == frozenset(v for v in range(g.n) if g.degree(v) == 1)
    # collecting path: v_j sees clause vertex a_j
    for j, vj in enumerate(out.collecting):
        assert g.has_edge(vj, out.clauses[j]["a"])
    # distributing path: u_i sees z_i
    for i, ui in enumerate(out.distributing):
        assert g.has_edge(ui, out.variables[i]["z"])
    assert g.has_edge(out.collecting[-1], out.distributing[0])


def test_reduction_self_checks_fire(monkeypatch):
    class TooWide(Graph):
        def max_degree(self):
            return 5

    class AllLeaves(Graph):
        def degree(self, v):
            return 1

    def one_more(n, edges):  # an isolated extra vertex: no leaf, no degree
        return Graph(n + 1, edges)

    for fake, message in (
        (TooWide, "degree cap"), (AllLeaves, "leaf accounting"),
        (one_more, "not 5n"),
    ):
        monkeypatch.setattr(satred, "Graph", fake)
        with pytest.raises(ConsistencyError, match=message):
            build_reduction(SAT3)


def test_antenna_lengths_match_occurrences():
    f = CnfFormula(2, ((1, 1, 2), (-1, 2, 2)))
    out = build_reduction(f)
    v1, v2 = out.variables
    assert len(v1["pos_outputs"]) == 2
    assert len(v1["neg_outputs"]) == 1
    assert len(v2["pos_outputs"]) == 3
    assert len(v2["neg_outputs"]) == 0


def test_reduction_builds_in_linear_time():
    """Each literal is counted once: about 10,000 variables build in well
    under 5 s (rescanning every clause per variable took 25 s)."""
    rng = random.Random(10_000)
    n = 9_999
    order = rng.sample(range(1, n + 1), n)
    picks = order + [v for _ in range(56) for v in rng.sample(range(1, n + 1), 3)]
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in picks[i : i + 3])
        for i in range(0, len(picks), 3)
    )
    formula = CnfFormula(n, clauses)
    start = time.perf_counter()
    out = build_reduction(formula)
    assert time.perf_counter() - start < 5
    assert len(out.leaves) == 15 * formula.m + n + 1
    assert sum(
        len(var["pos_outputs"]) + len(var["neg_outputs"]) for var in out.variables
    ) == 3 * formula.m


def test_unused_variable_rejected():
    f = CnfFormula(2, ((1, 1, 1),))
    with pytest.raises(GraphError):
        build_reduction(f)


def test_satisfying_seed_percolates():
    for f in (SAT3, CnfFormula(2, ((1, -2, 2), (2, 2, 2)))):
        out = build_reduction(f)
        assign = sat_bruteforce(f)
        assert assign is not None
        seed = satisfying_seed(out, assign)
        assert len(seed) == out.s
        assert is_conversion_set(out.graph, seed, 2)


def test_all_assignments_battery():
    out = build_reduction(SAT3)
    for bits in product((False, True), repeat=SAT3.n):
        sat = all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
            for cl in SAT3.clauses
        )
        seed = satisfying_seed(out, list(bits))
        assert is_conversion_set(out.graph, seed, 2) == sat


def test_equivalence_reports():
    rep = check_equivalence(SAT3)
    assert rep["satisfiable"] and rep["conversion_set_found"] and rep["match"]
    assert rep["forward_seed_ok"]
    rep = check_equivalence(UNSAT1)
    assert not rep["satisfiable"] and not rep["conversion_set_found"]
    assert rep["match"] and rep["forward_seed_ok"] is None


def gadget_subgraph(with_helper: bool):
    """One isolated variable gadget (plus optionally the distributing vertex)."""
    f = CnfFormula(2, ((1, 1, -1), (2, 2, 2)))  # variable 1: two pos, one neg
    out = build_reduction(f)
    var = out.variables[0]
    keep = {var["x"], var["y"], var["z"]}
    keep |= set(var["pos_outputs"]) | set(var["neg_outputs"])
    pendants = set()
    for o in list(var["pos_outputs"]) + list(var["neg_outputs"]):
        pendants |= {x for x in out.graph.adj[o] if x in out.leaves}
    keep |= pendants
    helper = out.distributing[0]
    if with_helper:
        keep.add(helper)
    h, remap = out.graph.delete_vertices(set(range(out.graph.n)) - keep)
    names = {
        "x": remap[var["x"]], "y": remap[var["y"]], "z": remap[var["z"]],
        "pos": [remap[o] for o in var["pos_outputs"]],
        "neg": [remap[o] for o in var["neg_outputs"]],
        "leaves": frozenset(remap[p] for p in pendants),
    }
    if with_helper:
        names["u"] = remap[helper]
    return h, names


def test_variable_gadget_output_activation():
    # black x converts every positive output; y stays in charge of negatives
    h, nm = gadget_subgraph(with_helper=False)
    tr = run(h, nm["leaves"] | {nm["x"]}, 2)
    assert all(o in tr.final_black for o in nm["pos"])
    assert all(o not in tr.final_black for o in nm["neg"])
    tr = run(h, nm["leaves"] | {nm["y"]}, 2)
    assert all(o in tr.final_black for o in nm["neg"])
    assert all(o not in tr.final_black for o in nm["pos"])


def test_variable_gadget_two_of_three():
    h, nm = gadget_subgraph(with_helper=False)
    tri = [nm["x"], nm["y"], nm["z"]]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        tr = run(h, nm["leaves"] | {tri[a], tri[b]}, 2)
        assert tr.converted_all


def test_variable_gadget_triangle_required():
    h, nm = gadget_subgraph(with_helper=False)
    tri = {nm["x"], nm["y"], nm["z"]}
    seed = frozenset(range(h.n)) - tri
    tr = run(h, seed, 2)
    assert tri.isdisjoint(tr.final_black)
    assert not tr.converted_all


def test_variable_gadget_single_choice_needs_x_or_y():
    h, nm = gadget_subgraph(with_helper=True)
    free = [nm["x"], nm["y"], nm["z"]] + nm["pos"] + nm["neg"]
    for v in free:
        seed = nm["leaves"] | {v, nm["u"]}
        converted = run(h, seed, 2).converted_all
        assert converted == (v in (nm["x"], nm["y"])), v


def test_variable_gadget_z_waits_for_helper():
    h, nm = gadget_subgraph(with_helper=True)
    # without the helper black, z never converts
    tr = run(h, nm["leaves"] | {nm["x"]}, 2)
    assert nm["z"] not in tr.final_black
    # with it, z follows and the whole gadget converts
    tr = run(h, nm["leaves"] | {nm["x"], nm["u"]}, 2)
    assert tr.converted_all
    assert tr.round_of()[nm["z"]] >= 1


def test_formula_validation():
    with pytest.raises(DimacsError):
        CnfFormula(1, ((1, 2, 1),))
    with pytest.raises(DimacsError):
        CnfFormula(1, ((1, 1),))
    with pytest.raises(DimacsError):
        CnfFormula(-1, ())


def test_reduction_json_has_graph_and_targets():
    out = build_reduction(UNSAT1)
    d = out.to_json_dict()
    assert d["s"] == out.s
    assert d["n"] == out.graph.n
    assert len(d["edges"]) == out.graph.m
    assert len(d["leaves"]) == len(out.leaves)
