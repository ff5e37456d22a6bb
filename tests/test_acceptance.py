"""Acceptance battery: one test per criterion, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v` to see the per-criterion verdicts;
each test also prints a one-line quantitative summary (visible with -s).
"""
import random
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd

from ikcs.deg3 import (
    attach_h5_to_leaves,
    cographic_lines,
    min_i2cs_maxdeg3,
    normalize_degree2,
)
from ikcs.exact import min_conversion_set
from ikcs.graph import Graph
from ikcs.percolation import forced_vertices, is_conversion_set, run
from ikcs.polymatroid import min_spanning_set, nu_algebraic, nu_bruteforce
from ikcs.satred import CnfFormula, build_one_way, build_reduction, check_equivalence
from ikcs.torus import TorusGrid, construct_3cs, load_pattern, tile, white_cycle_structure
from genutil import (
    connected_maxdeg3_exhaustive,
    random_connected_maxdeg3,
    random_cubic,
    random_graph,
    random_instance,
)


def test_criterion_1_deg3_equals_exact_oracle():
    rng = random.Random(1001)
    checked = 0
    for g in connected_maxdeg3_exhaustive(9):
        size, wit = min_i2cs_maxdeg3(g, rng=rng)
        assert size == min_conversion_set(g, 2)[0], g.edges
        assert is_conversion_set(g, wit, 2), g.edges
        checked += 1
    randoms = 0
    while randoms < 500:
        g = random_connected_maxdeg3(rng, rng.randrange(10, 17))
        size, wit = min_i2cs_maxdeg3(g, rng=rng)
        assert size == min_conversion_set(g, 2)[0], g.edges
        assert is_conversion_set(g, wit, 2), g.edges
        randoms += 1
    print(f"criterion 1 PASS: {checked} exhaustive + {randoms} random graphs, "
          "deg3 == exact everywhere")


def _c2(g):
    return min_conversion_set(g, 2)[0]


def test_criterion_2_pipeline_step_arithmetic():
    rng = random.Random(2002)
    done = {"attach": 0, "adjacent": 0, "duplicate": 0, "nonadjacent": 0}
    while done["attach"] < 25:
        g = random_connected_maxdeg3(rng, rng.randrange(3, 8))
        leaves = sum(1 for v in range(g.n) if g.degree(v) == 1)
        if not leaves:
            continue
        g2 = attach_h5_to_leaves(g).graph_after
        assert _c2(g2) == _c2(g) + leaves
        done["attach"] += 1
    while done["adjacent"] < 25:
        base = random_cubic(rng, rng.choice((6, 8)))
        u, v = base.edges[rng.randrange(base.m)]
        x, y = base.n, base.n + 1  # subdivide uv twice: adjacent degree-2 pair
        es = tuple(e for e in base.edges if e != (u, v))
        g2 = Graph(base.n + 2, es + ((u, x), (x, y), (y, v)))
        steps, g3, _ = normalize_degree2(g2)
        assert [s.kind for s in steps] == [
            "split_adjacent_pair", "attach_h5", "add_edge_nonadjacent",
        ]
        assert _c2(steps[0].graph_after) == _c2(g2) + 1
        assert _c2(steps[1].graph_after) == _c2(g2) + 2
        assert _c2(g3) == _c2(g2) + 2
        done["adjacent"] += 1
    while done["duplicate"] < 25:
        base = random_cubic(rng, rng.choice((6, 8)))
        u, v = base.edges[rng.randrange(base.m)]
        x = base.n  # subdivide once: a single degree-2 vertex
        es = tuple(e for e in base.edges if e != (u, v))
        g2 = Graph(base.n + 1, es + ((u, x), (x, v)))
        steps, g3, _ = normalize_degree2(g2)
        assert [s.kind for s in steps] == ["duplicate_graph"]
        assert _c2(g3) == 2 * _c2(g2)
        done["duplicate"] += 1
    while done["nonadjacent"] < 25:
        base = random_cubic(rng, rng.choice((6, 8, 10)))
        u, v = base.edges[rng.randrange(base.m)]
        es = tuple(e for e in base.edges if e != (u, v))
        g2 = Graph(base.n, es)  # u, v drop to degree 2 and are now nonadjacent
        if not g2.is_connected():
            continue
        steps, g3, _ = normalize_degree2(g2)
        assert [s.kind for s in steps] == ["add_edge_nonadjacent"]
        assert _c2(g3) == _c2(g2)
        done["nonadjacent"] += 1
    print(f"criterion 2 PASS: step arithmetic exact on {sum(done.values())} "
          f"instances {dict(done)}")


def _brute_rho(inst, subset=None):
    idx = sorted(subset) if subset is not None else range(len(inst.lines))
    idx = list(idx)
    full = inst.rank(idx)
    for size in range(len(idx) + 1):
        for sub in combinations(idx, size):
            if inst.rank(sub) == full:
                return size
    raise AssertionError


def test_criterion_3_gallai_identity():
    rng = random.Random(3003)
    n = 0
    for _ in range(200):
        inst = random_instance(rng, rng.randrange(1, 9), rng.randrange(2, 6), w=16)
        nu = nu_bruteforce(inst)
        rho = _brute_rho(inst)
        assert nu + rho == inst.rank()
        span = min_spanning_set(inst, rng=rng)
        assert len(span) == inst.rank() - nu
        assert inst.rank(span) == inst.rank()
        n += 1
    print(f"criterion 3 PASS: nu + rho == f(V) and |spanning| == f(V) - nu "
          f"on {n} instances")


def test_criterion_4_algebraic_parity_exact():
    rng = random.Random(4004)
    mismatches = []
    n = 0
    for _ in range(500):
        inst = random_instance(rng, rng.randrange(1, 11), rng.randrange(2, 7), w=32)
        want = nu_bruteforce(inst)
        got = nu_algebraic(inst, rng=rng, trials=3)
        if got != want:
            # one fresh-seed rerun is allowed before declaring failure
            retry = nu_algebraic(inst, rng=random.Random(rng.random()), trials=3)
            if retry != want:
                mismatches.append((inst.to_json_dict(), want, got, retry))
        n += 1
    assert not mismatches, mismatches[:1]
    print(f"criterion 4 PASS: algebraic nu == brute nu on {n} instances "
          "(3 trials, 32-bit field)")


def _degree2_input(rng):
    """A connected graph with degrees in {2, 3}: cubic minus 1 or 2 vertices,
    or cubic itself (so the caterpillar and identity pipelines both occur)."""
    mode = rng.randrange(4)
    if mode == 0:
        return random_cubic(rng, rng.choice((6, 8, 10, 12)))
    base = random_cubic(rng, rng.choice((8, 10, 12)))
    drop = {rng.randrange(base.n)}
    if mode == 1:
        drop.add(rng.randrange(base.n))
    g2, _ = base.delete_vertices(drop)
    if g2.n == 0 or not g2.is_connected():
        return None
    degs = [g2.degree(v) for v in range(g2.n)]
    if min(degs) < 2 or max(degs) > 3:
        return None
    return g2


def test_criterion_5_spanning_sets_are_conversion_sets():
    rng = random.Random(5005)
    pipelines = 0
    subsets = 0
    while pipelines < 50:
        g2 = _degree2_input(rng)
        if g2 is None or g2.n > 14:
            continue
        steps, g3, v2 = normalize_degree2(g2)
        if any(s.kind != "attach_caterpillar" for s in steps):
            continue  # keep the cases where V2 is exactly the input vertex set
        inst, _ = cographic_lines(g3)
        v2 = sorted(v2)
        assert v2 == list(range(g2.n))
        target = inst.rank(v2)
        for size in range(len(v2) + 1):
            for sub in combinations(v2, size):
                assert (inst.rank(sub) == target) == is_conversion_set(g2, sub, 2)
                subsets += 1
        pipelines += 1
    print(f"criterion 5 PASS: spanning == conversion over {pipelines} pipelines, "
          f"{subsets} subsets enumerated")


def _canonical_formula(n, clauses):
    best = None
    for perm in permutations(range(1, n + 1)):
        for flips in product((1, -1), repeat=n):
            mapped = []
            for cl in clauses:
                lits = tuple(sorted(
                    (1 if lit > 0 else -1) * flips[abs(lit) - 1] * perm[abs(lit) - 1]
                    for lit in cl
                ))
                mapped.append(lits)
            cand = tuple(sorted(mapped))
            if best is None or cand < best:
                best = cand
    return best


def _exhaustive_formulas():
    """All 3-CNF formulas with n <= 3, m <= 2, every variable used, up to
    variable permutation, polarity flip, and clause/literal order."""
    seen = set()
    out = []
    for n in (1, 2, 3):
        lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
        pool = list(combinations_with_replacement(sorted(lits), 3))
        for m in (1, 2):
            for cls in combinations_with_replacement(pool, m):
                used = {abs(l) for cl in cls for l in cl}
                if used != set(range(1, n + 1)):
                    continue
                key = (n, _canonical_formula(n, cls))
                if key in seen:
                    continue
                seen.add(key)
                out.append(CnfFormula(n, cls))
    return out


def test_criterion_6_reduction_equivalence():
    formulas = _exhaustive_formulas()
    for f in formulas:
        rep = check_equivalence(f)
        assert rep["match"], (f, rep)
        assert rep["forward_seed_ok"] in (True, None), (f, rep)
        g = build_reduction(f).graph
        assert g.max_degree() <= 4
    rng = random.Random(6006)
    larger = 0
    while larger < 20:
        n, m = rng.choice(((2, 3), (3, 3), (3, 3)))
        cls = []
        for _ in range(m):
            cls.append(tuple(
                rng.choice((1, -1)) * rng.randrange(1, n + 1) for _ in range(3)
            ))
        f = CnfFormula(n, tuple(cls))
        if {abs(l) for cl in f.clauses for l in cl} != set(range(1, n + 1)):
            continue
        rep = check_equivalence(f)
        assert rep["match"], (f, rep)
        larger += 1
    print(f"criterion 6 PASS: equivalence on {len(formulas)} exhaustive + "
          f"{larger} random formulas")


def _gadget_cut(formula, var_index, with_helper):
    out = build_reduction(formula)
    var = out.variables[var_index]
    keep = {var["x"], var["y"], var["z"]}
    keep |= set(var["pos_outputs"]) | set(var["neg_outputs"])
    pendants = set()
    for o in list(var["pos_outputs"]) + list(var["neg_outputs"]):
        pendants |= {x for x in out.graph.adj[o] if x in out.leaves}
    keep |= pendants
    if with_helper:
        keep.add(out.distributing[var_index])
    h, remap = out.graph.delete_vertices(set(range(out.graph.n)) - keep)
    nm = {
        "x": remap[var["x"]], "y": remap[var["y"]], "z": remap[var["z"]],
        "pos": [remap[o] for o in var["pos_outputs"]],
        "neg": [remap[o] for o in var["neg_outputs"]],
        "leaves": frozenset(remap[p] for p in pendants),
    }
    if with_helper:
        nm["u"] = remap[out.distributing[var_index]]
    return h, nm


def test_criterion_7_gadget_observations():
    checks = 0
    # one-way: transmits end to start, blocks start to end
    g, roles = build_one_way()
    ids = {name: v for v, name in roles.items() if name != "leaf"}
    leaves = frozenset(v for v, r in roles.items() if r == "leaf")
    tr = run(g, leaves | {ids["end"]}, 2)
    assert ids["w1"] in tr.final_black and tr.round_of()[ids["w1"]] <= 3
    tr = run(g, leaves | {ids["start"]}, 2)
    assert ids["end"] not in tr.final_black and ids["w4"] not in tr.final_black
    checks += 2
    # variable gadget under several occurrence profiles
    shapes = [
        CnfFormula(2, ((1, 1, -1), (2, 2, 2))),
        CnfFormula(2, ((1, 2, 2), (-1, -1, 2))),
        CnfFormula(2, ((1, 1, 1), (1, 2, -2))),
    ]
    for f in shapes:
        h, nm = _gadget_cut(f, 0, with_helper=False)
        tr = run(h, nm["leaves"] | {nm["x"]}, 2)
        assert all(o in tr.final_black for o in nm["pos"])          # (a)
        assert all(o not in tr.final_black for o in nm["neg"])
        tr = run(h, nm["leaves"] | {nm["y"]}, 2)
        assert all(o in tr.final_black for o in nm["neg"])          # (a)
        tri = [nm["x"], nm["y"], nm["z"]]
        for a, b in ((0, 1), (0, 2), (1, 2)):                       # (b)
            assert run(h, nm["leaves"] | {tri[a], tri[b]}, 2).converted_all
        blob = frozenset(range(h.n)) - set(tri)                     # (c)
        assert set(tri).isdisjoint(run(h, blob, 2).final_black)
        hh, nh = _gadget_cut(f, 0, with_helper=True)
        free = [nh["x"], nh["y"], nh["z"]] + nh["pos"] + nh["neg"]
        for v in free:                                              # (d)
            ok = run(hh, nh["leaves"] | {v, nh["u"]}, 2).converted_all
            assert ok == (v in (nh["x"], nh["y"]))
        tr = run(hh, nh["leaves"] | {nh["x"]}, 2)                   # (e)
        assert nh["z"] not in tr.final_black
        tr = run(hh, nh["leaves"] | {nh["x"], nh["u"]}, 2)
        assert tr.converted_all and tr.round_of()[nh["z"]] >= 1
        checks += 9 + len(free)
    print(f"criterion 7 PASS: {checks} gadget property checks, zero failures")


def test_criterion_8_torus_quantities():
    count = 0
    for m in range(3, 13):
        for n in range(3, 13):
            c = construct_3cs(m, n)
            assert is_conversion_set(c.grid.graph(), c.vertices, 3)
            if m == 4 or n == 4:
                assert c.params.size <= (3 * m * n + 4) // 8
            else:
                mn = m * n
                want = {
                    "A": (mn + 3) // 3, "B": (mn + 3) // 3, "C": (mn + 3) // 3,
                    "D": (mn + 2) // 3, "E": (mn + 4) // 3, "F": (mn + 2) // 3,
                }[c.params.tag]
                assert c.params.size == want
                assert c.params.size <= (mn + 4) // 3
            count += 1
    for m, n in ((15, 18), (16, 21), (19, 23), (22, 26), (27, 29), (30, 30),
                 (4, 25), (28, 4), (13, 30)):
        c = construct_3cs(m, n)
        assert is_conversion_set(c.grid.graph(), c.vertices, 3)
        count += 1
    base = load_pattern("base3x3")
    cycles = 0
    for k in range(2, 9):
        for l in range(2, 9):
            grid = TorusGrid(3 * k, 3 * l)
            black = tile(grid, base, (0, 0, 3 * k - 1, 3 * l - 1))
            comps, regular = white_cycle_structure(grid, black)
            assert regular and len(comps) == gcd(k, l)
            cycles += 1
    print(f"criterion 8 PASS: {count} tori verified with exact case sizes, "
          f"{cycles} white-cycle counts == gcd(k,l)")


def test_criterion_9_process_invariants():
    rng = random.Random(9009)
    n_checks = 0
    for _ in range(1000):
        n = rng.randrange(1, 15)
        g = random_graph(rng, n, rng.uniform(0.1, 0.5))
        k = rng.randrange(1, 5)
        seed = frozenset(v for v in range(n) if rng.random() < 0.3)
        tr = run(g, seed, k)
        # at most n rounds, and every round converts someone
        assert len(tr.rounds) <= g.n
        assert all(tr.rounds)
        assert seed <= tr.final_black
        # idempotence: restarting from the final state adds nothing
        again = run(g, tr.final_black, k)
        assert again.final_black == tr.final_black
        assert not again.rounds
        # monotonicity: a larger seed converts at least as much
        extra = seed | frozenset(
            v for v in range(n) if rng.random() < 0.2
        )
        assert tr.final_black <= run(g, extra, k).final_black
        # degree-deficient vertices convert only by seeding
        if tr.converted_all:
            assert forced_vertices(g, k) <= seed
        n_checks += 1
    print(f"criterion 9 PASS: invariants on {n_checks} (graph, seed, k) triples")
