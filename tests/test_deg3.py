import random
import time
from itertools import combinations, permutations, product

import networkx as nx
import numpy as np
import pytest

import ikcs.deg3
import ikcs.polymatroid
from ikcs.cli import main
from ikcs.deg3 import (
    ReductionStep,
    _backmap,
    _check_representation,
    _undo_candidates,
    attach_h5_to_leaves,
    cographic_lines,
    h5_graph,
    min_i2cs_maxdeg3,
    normalize_degree2,
    solve_deg3,
)
from ikcs.exact import min_conversion_set
from ikcs.gf2 import ConsistencyError, GF2Ext, PrimeField
from ikcs.graph import Graph, GraphError
from ikcs.percolation import is_conversion_set
from ikcs.polymatroid import PolymatroidInstance, block_dims, check_parity_count
from genutil import (
    bridged_chain,
    bridged_subcubic,
    connected_maxdeg3_exhaustive,
    k4_ring,
    random_connected_maxdeg3,
    random_cubic,
    random_degree_graph,
    scaled_subcubic,
    to_nx,
)


def test_gadget_shape_and_optimum():
    h = h5_graph()
    assert sorted(h.degree(v) for v in range(5)) == [2, 3, 3, 3, 3]
    assert is_conversion_set(h, {2, 3}, 2)
    assert min_conversion_set(h, 2)[0] == 2
    for v in range(5):
        assert not is_conversion_set(h, {v}, 2)


def test_attachment_absorbs_leaves():
    rng = random.Random(404)
    for _ in range(30):
        g = random_connected_maxdeg3(rng, rng.randrange(2, 9))
        leaves = sum(1 for v in range(g.n) if g.degree(v) == 1)
        step = attach_h5_to_leaves(g)
        g2 = step.graph_after
        assert g2.n == g.n + 4 * leaves
        assert all(
            g2.degree(v) >= 2
            for v in range(g2.n)
            if v >= g.n or g.degree(v) >= 1
        )
        if g2.n <= 14:
            assert min_conversion_set(g2, 2)[0] == min_conversion_set(g, 2)[0] + leaves


def pipeline_cases(rng, count):
    made = []
    while len(made) < count:
        g = random_connected_maxdeg3(rng, rng.randrange(3, 10))
        if g.max_degree() < 2:
            continue
        g2 = attach_h5_to_leaves(g).graph_after
        if any(g2.degree(v) < 2 for v in range(g2.n)):
            continue  # isolated vertices stay out of the pipeline
        made.append(g2)
    return made


def test_normalization_reaches_cubic():
    rng = random.Random(11)
    kinds = set()
    for g2 in pipeline_cases(rng, 60):
        steps, g3, v2 = normalize_degree2(g2)
        assert all(g3.degree(v) == 3 for v in range(g3.n))
        assert v2 <= frozenset(range(g3.n))
        for st in steps:
            kinds.add(st.kind)
        # original vertices always survive with their ids
        assert frozenset(range(g2.n)) <= frozenset(range(g3.n))
    assert "attach_caterpillar" in kinds


def test_cubic_input_is_identity():
    g = random_cubic(random.Random(1), 8)
    steps, g3, v2 = normalize_degree2(g)
    assert steps == [] and g3 is g and v2 == frozenset(range(8))


def test_duplicate_case():
    # K4 with one subdivided edge: exactly one degree-2 vertex
    g = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)))
    assert [g.degree(v) for v in range(5)] == [3, 3, 3, 3, 2]
    steps, g3, v2 = normalize_degree2(g)
    assert [s.kind for s in steps] == ["duplicate_graph"]
    assert g3.n == 10 and g3.has_edge(4, 9)
    assert all(g3.degree(v) == 3 for v in range(10))
    assert v2 == frozenset(range(10))
    size, wit = min_i2cs_maxdeg3(g, rng=random.Random(2))
    assert size == min_conversion_set(g, 2)[0]
    assert is_conversion_set(g, wit, 2)


def test_add_edge_and_split_cases():
    # two nonadjacent degree-2 vertices: C4 with one chord pair
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4), (1, 5), (3, 5)))
    d2 = [v for v in range(6) if g.degree(v) == 2]
    assert d2 == [4, 5] and not g.has_edge(4, 5)
    steps, g3, v2 = normalize_degree2(g)
    assert [s.kind for s in steps] == ["add_edge_nonadjacent"]
    assert g3.has_edge(4, 5)
    assert v2 == frozenset(range(6))

    # two adjacent degree-2 vertices: K4 with one edge subdivided twice
    g = Graph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 5), (5, 3)))
    d2 = [v for v in range(6) if g.degree(v) == 2]
    assert d2 == [4, 5] and g.has_edge(4, 5)
    steps, g3, v2 = normalize_degree2(g)
    assert [s.kind for s in steps] == [
        "split_adjacent_pair", "attach_h5", "add_edge_nonadjacent",
    ]
    assert all(g3.degree(v) == 3 for v in range(g3.n))
    u, v, x, y = (steps[0].data[k] for k in "uvxy")
    wit = frozenset({0, u, v, x, y})  # x, u and v together: only x and y go
    assert _undo_candidates(steps[0], wit) == [wit - {x, y}]


def test_backmap_drops_split_vertex_from_witness():
    """Minimum conversion sets of G3 that hold the subdivision vertex x of an
    adjacent degree-2 pair map back, by dropping x and adding u or v, to
    minimum conversion sets of the input."""
    for g in (
        Graph(4, ((0, 1), (1, 2), (2, 3))),
        Graph(8, ((0, 1), (0, 4), (0, 7), (1, 2), (1, 3), (2, 5), (2, 7),
                  (3, 6), (4, 5), (4, 7), (5, 6))),
    ):
        h5 = attach_h5_to_leaves(g)
        steps, g3, _ = normalize_degree2(h5.graph_after)
        steps = [h5, *steps]
        (x,) = (s.data["x"] for s in steps if s.kind == "split_adjacent_pair")
        size = min_conversion_set(g, 2)[0]
        size3 = min_conversion_set(g3, 2)[0]
        holding_x = [
            frozenset(c) for c in combinations(range(g3.n), size3)
            if x in c and is_conversion_set(g3, frozenset(c), 2)
        ]
        assert holding_x
        for wit in holding_x:
            back = _backmap(steps, wit)
            assert len(back) == size and is_conversion_set(g, back, 2), wit


def test_backmap_refuses_bad_witnesses():
    """Each back-mapping refusal fires on a crafted witness.  The spine and
    the duplicate's offset are read off the step's two graphs."""
    h = Graph(6, tuple((i, (i + 1) % 6) for i in range(6)))  # a spine of 4
    (cat,), g3, _ = normalize_degree2(h)
    assert cat.kind == "attach_caterpillar" and g3.n == h.n + 4
    for v in range(g3.n):
        if v < h.n:
            assert _undo_candidates(cat, frozenset({v})) == [frozenset({v})]
        else:
            with pytest.raises(ConsistencyError, match="witness touched the spine path"):
                _undo_candidates(cat, frozenset({v}))
    with pytest.raises(ConsistencyError, match="witness touched the spine path"):
        _backmap([cat], frozenset(range(g3.n)))

    # K4 with one edge subdivided twice: split, gadget, add edge
    g = Graph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 5), (5, 3)))
    steps, g3, _ = normalize_degree2(g)
    split = steps[0]
    u, v, x, y = (split.data[k] for k in "uvxy")
    with pytest.raises(ConsistencyError, match="pendant vertex missing from witness"):
        _undo_candidates(split, frozenset({0, u, x}))
    with pytest.raises(ConsistencyError, match="pendant vertex missing from witness"):
        _backmap(steps[:1], frozenset({0, u, v}))
    with pytest.raises(ConsistencyError, match="no valid witness past step add_edge_nonadjacent"):
        _backmap(steps, frozenset({0}))

    # one degree-2 vertex: the copy of vertex w is w + g.n
    g = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)))
    (dup,), g3, _ = normalize_degree2(g)
    assert dup.kind == "duplicate_graph" and g3.n == 2 * g.n
    assert _undo_candidates(dup, frozenset({0, g.n + 1, g.n + 2})) == [
        frozenset({0}), frozenset({1, 2}),
    ]
    with pytest.raises(ConsistencyError, match="no valid witness past step duplicate_graph"):
        _backmap([dup], frozenset({0, g.n}))


def test_cographic_rank_identity():
    rng = random.Random(31337)
    for _ in range(25):
        g3 = random_cubic(rng, rng.choice((8, 10, 12)))
        inst, mu = cographic_lines(g3)
        assert mu == g3.cyclomatic()
        assert inst.rank() == mu  # the whole vertex set breaks every cycle
        for _ in range(12):
            x = [v for v in range(g3.n) if rng.random() < 0.3]
            rest, _ = g3.delete_vertices(x)
            assert inst.rank(x) == mu - rest.cyclomatic()


def test_signed_representation_exhaustive():
    rng = random.Random(4242)
    for n in (4, 6, 6, 8, 8, 10, 10):
        g3 = random_cubic(rng, n)
        inst, mu = cographic_lines(g3)
        assert isinstance(inst.field, PrimeField)
        for v in inst._signed:
            assert v.dtype == np.int8 and set(np.unique(v)) <= {-1, 0, 1}
        for bits in range(1 << n):
            x = [v for v in range(n) if bits >> v & 1]
            rest, _ = g3.delete_vertices(x)
            assert inst.rank(x) == mu - rest.cyclomatic(), (g3.edges, x)


def test_spanning_equals_conversion_one_pipeline():
    # caterpillar case with |V2| small enough to enumerate completely
    g2 = Graph(6, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5), (3, 5)))
    h, _ = g2.delete_vertices({5})
    steps, g3, v2 = normalize_degree2(h)
    assert steps and steps[0].kind == "attach_caterpillar"
    inst, mu = cographic_lines(g3)
    target = inst.rank(sorted(v2))
    for size in range(len(v2) + 1):
        for sub in combinations(sorted(v2), size):
            spanning = inst.rank(sub) == target
            converts = is_conversion_set(h, sub, 2)
            assert spanning == converts, sub


def test_solver_matches_oracle_exhaustive_small():
    for g in connected_maxdeg3_exhaustive(7):
        size, wit = min_i2cs_maxdeg3(g, rng=random.Random(5))
        ref, _ = min_conversion_set(g, 2)
        assert size == ref, g.edges
        assert is_conversion_set(g, wit, 2)


def test_solver_matches_oracle_random():
    rng = random.Random(616)
    for _ in range(80):
        g = random_connected_maxdeg3(rng, rng.randrange(2, 13))
        size, wit = min_i2cs_maxdeg3(g, rng=rng)
        assert size == min_conversion_set(g, 2)[0]
        assert is_conversion_set(g, wit, 2)


def test_solver_matches_oracle_past_16_vertices():
    rng = random.Random(1812)
    graphs = [random_cubic(rng, n) for n in (18, 20, 22, 24) for _ in range(2)]
    graphs += [
        random_degree_graph(rng, [1] * 4 + [2] * 4 + [3] * 14),
        random_degree_graph(rng, [1] * 6 + [2] * 2 + [3] * 12),
    ]
    for g in graphs:
        size, wit = min_i2cs_maxdeg3(g, rng=rng)
        assert size == min_conversion_set(g, 2)[0], g.edges
        assert is_conversion_set(g, wit, 2)
    # subcubic graphs past n = 22, chosen by a fixed rule: n // 8 leaves and
    # n // 8 degree-2 vertices, one more degree-2 vertex when the degree sum
    # is odd, 12 seeds per n
    for n in (26, 30, 34, 38, 42):
        for seed in range(12):
            rng = random.Random(f"oracle/{n}/{seed}")
            degrees = [1] * (n // 8) + [2] * (n // 8) + [3] * (n - 2 * (n // 8))
            if sum(degrees) % 2:
                degrees[-1] = 2
            g = random_degree_graph(rng, degrees)
            size, wit = min_i2cs_maxdeg3(g, rng=rng)
            assert size == min_conversion_set(g, 2, budget_vertices=n)[0], (n, seed)
            assert is_conversion_set(g, wit, 2)


def test_solver_matches_oracle_cubic_32_to_48():
    # the exact oracle reaches these sizes through its last-round term
    rng = random.Random(3248)
    for n in (32, 36, 40, 48):
        g = random_cubic(rng, n)
        size, wit = min_i2cs_maxdeg3(g, rng=rng)
        assert size == min_conversion_set(g, 2, budget_vertices=48)[0], g.edges
        assert is_conversion_set(g, wit, 2)


def test_disconnected_input():
    g = Graph(9, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)))
    res = solve_deg3(g, rng=random.Random(0))
    # triangle + triangle + edge + isolated vertex: 2 + 2 + 2 + 1
    assert res.size == 7
    assert is_conversion_set(g, res.witness, 2)
    assert len(res.components) == 4


def test_many_components_in_linear_time():
    # 10,000 disjoint edges: splitting them one component at a time scans
    # every edge per component
    n = 20_000
    g = Graph(n, tuple((v, v + 1) for v in range(0, n, 2)))
    start = time.perf_counter()
    res = solve_deg3(g, rng=random.Random(0))
    assert time.perf_counter() - start < 10
    assert res.size == n and len(res.components) == n // 2


def count_eliminations(monkeypatch):
    calls = [0]
    eliminate = PrimeField._eliminate

    def counted(self, a, cols=None):
        calls[0] += 1
        return eliminate(self, a, cols)

    monkeypatch.setattr(PrimeField, "_eliminate", counted)
    return calls


def count_ranks(monkeypatch):
    """The number of nu trials ranked: one `_skew_rank` call each, however
    many blocks it ranks."""
    calls = [0]
    skew_rank = ikcs.polymatroid._skew_rank

    def counted(*args):
        calls[0] += 1
        return skew_rank(*args)

    monkeypatch.setattr(ikcs.polymatroid, "_skew_rank", counted)
    return calls


def test_cubic_solve_eliminations(monkeypatch):
    # two: 1 for the one-pass principal inverse and 1 for the scan that
    # certifies the matching and picks the completion (memoized, so the
    # spanning set reuses it); the representation check proves f(V) = mu
    # from unit edge columns, the scan's kept rows give f(V) and the
    # spanning set's rank, and the matching has the ceiling size dim // 2,
    # so no nu trial is ranked
    calls = count_eliminations(monkeypatch)
    ranks = count_ranks(monkeypatch)
    g = random_cubic(random.Random(48), 48)
    res = solve_deg3(g, rng=random.Random(1))
    assert res.size == -(-(48 + 2) // 4)
    assert calls[0] == 2
    assert ranks[0] == 0


def test_subcubic_solve_eliminations(monkeypatch):
    # 75 vertices with 25 leaves and 11 degree-2 vertices: nu = 34 is below
    # the ceiling min(93 // 2, 175) = 46 but reaches the block ceiling (each
    # leaf gadget is a block of its own), so no nu trial is ranked: the
    # principal inverse and the scan are the only eliminations, one per
    # stack of equal-shape blocks each: the 25 gadget blocks of 3
    # coordinates and 5 lines, and the block of the other 18 coordinates
    calls = count_eliminations(monkeypatch)
    ranks = count_ranks(monkeypatch)
    rng = random.Random(184)
    degrees = [1] * 25 + [2] * 11 + [3] * 39
    rng.shuffle(degrees)
    res = solve_deg3(random_degree_graph(rng, degrees), rng=random.Random(2))
    (summary,) = res.components
    assert (summary["mu"], summary["v2"], summary["spanning_size"]) == (93, 175, 59)
    assert (summary["blocks"], summary["max_block_dim"]) == (26, 18)
    assert calls[0] == 2 + 2
    assert ranks[0] == 0


def test_solve_below_the_block_ceiling_ranks_six_trials(monkeypatch):
    # a ring of three K4 blocks is one block of mu = 10 coordinates and
    # nu = 4 < 10 // 2, so the 3 first trials and 3 confirmation trials
    # are ranked, one elimination each beside the two of the solve
    calls = count_eliminations(monkeypatch)
    ranks = count_ranks(monkeypatch)
    res = solve_deg3(k4_ring(3), rng=random.Random(3))
    (summary,) = res.components
    assert (summary["mu"], summary["spanning_size"], res.size) == (10, 6, 6)
    assert calls[0] == 2 + 6
    assert ranks[0] == 6


def test_bridged_solve_ranks_six_trials_block_by_block(monkeypatch):
    # the scaled subcubic shape at n=300 bridged to a ring of ten K4
    # blocks: 362 vertices, mu = 403 coordinates in 102 blocks, and the
    # ring's nu below its block's ceiling, so six nu trials are ranked;
    # every Y(t) built, for the extraction and for each trial, is one
    # block's, never the 403-wide whole
    ranks = count_ranks(monkeypatch)
    widths = []
    skew_forms = ikcs.polymatroid._skew_forms

    def recorded(a, b, t, p):
        y = skew_forms(a, b, t, p)
        widths.append(y.shape[-1])
        return y

    monkeypatch.setattr(ikcs.polymatroid, "_skew_forms", recorded)
    g = bridged_subcubic(random.Random(1), 300, 10)
    res = solve_deg3(g, rng=random.Random(1))
    (summary,) = res.components
    assert (g.n, summary["mu"], summary["blocks"], summary["max_block_dim"]) == (362, 403, 102, 72)
    assert ranks[0] == 6
    assert widths and max(widths) <= summary["max_block_dim"]
    assert is_conversion_set(g, res.witness, 2)


def cyclomatic_numbers(g: Graph) -> list[int]:
    """m - n + 1 of each 2-edge-connected component of g with a cycle, the
    components found by deleting the bridges (`networkx.bridges`)."""
    h = to_nx(g)
    h.remove_edges_from(list(nx.bridges(h)))
    return sorted(
        n for n in (h.subgraph(c).number_of_edges() - len(c) + 1 for c in nx.connected_components(h))
        if n > 0
    )


def test_block_dims_are_the_cyclomatic_numbers_of_g3():
    """The coordinate blocks of a solve's lines over V2 (`block_dims`) have
    the dimensions of the cycle spaces of G3's 2-edge-connected
    components, one block per component with a cycle: scaled subcubic
    graphs, rings and chains of K4 blocks, random cubic graphs and random
    max-degree-3 graphs, which together take every normalization step
    sequence."""
    rng = random.Random(12)
    graphs = [scaled_subcubic(random.Random(n), n) for n in (75, 150, 300, 600)]
    graphs += [make(b) for make in (k4_ring, bridged_chain) for b in (3, 5, 20)]
    graphs += [random_cubic(rng, n) for n in (20, 40, 60, 90)]
    graphs += [random_connected_maxdeg3(rng, rng.randrange(8, 41)) for _ in range(40)]
    sequences = set()
    for g in graphs:
        h5 = attach_h5_to_leaves(g)
        steps, g3, v2 = normalize_degree2(h5.graph_after)
        sequences.add(tuple(s.kind for s in steps))
        inst, _ = cographic_lines(g3)
        assert sorted(block_dims(inst, sorted(v2))) == cyclomatic_numbers(g3)
    assert len(sequences) == 5, sequences


def test_bridged_chain_solve_ranks_no_trial(monkeypatch):
    # every K4 block of the chain needs two vertices, so the answer is
    # 2 blocks, far above (n + 2) / 4; nu = blocks is the block ceiling,
    # one line per block, so no nu trial is ranked
    ranks = count_ranks(monkeypatch)
    assert min_conversion_set(bridged_chain(3), 2)[0] == 6
    for blocks in (3, 250):
        g = bridged_chain(blocks)
        res = solve_deg3(g, rng=random.Random(blocks))
        assert res.size == 2 * blocks
        assert is_conversion_set(g, res.witness, 2)
    assert ranks[0] == 0


def test_odd_principal_rank_exits_three(monkeypatch, tmp_path, capsys):
    """A cubic solve ranks no Y(t), so an elimination that drops a pivot of
    the principal inverse is caught by its odd |S|: exit 3."""
    eliminate = PrimeField._eliminate

    def drop_pivot(self, a, cols=None):
        pivots = eliminate(self, a, cols)
        return pivots if cols is None else [s[:-1] for s in pivots]

    monkeypatch.setattr(PrimeField, "_eliminate", drop_pivot)
    path = tmp_path / "cubic12.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in random_cubic(random.Random(12), 12).edges))
    assert main(["min-set", "--k", "2", "--engine", "deg3", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "alternating matrix with odd rank" in captured.err


def test_petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    g = Graph(10, tuple(edges))
    size, wit = min_i2cs_maxdeg3(g, rng=random.Random(3))
    assert size == 3
    assert is_conversion_set(g, wit, 2)


def test_same_seed_same_witness():
    g = random_connected_maxdeg3(random.Random(8), 12)
    a = solve_deg3(g, rng=random.Random(99))
    b = solve_deg3(g, rng=random.Random(99))
    assert a.witness == b.witness
    c = solve_deg3(g, rng=random.Random(100))
    assert c.size == a.size


def test_degree_cap_enforced():
    g = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    with pytest.raises(GraphError):
        solve_deg3(g)


def test_closed_form_witness_is_checked(monkeypatch):
    # a path takes the closed-form branch; a false witness must not pass
    monkeypatch.setattr(ikcs.deg3, "is_conversion_set", lambda g, s, k: False)
    with pytest.raises(ConsistencyError):
        solve_deg3(Graph(4, ((0, 1), (1, 2), (2, 3))), rng=random.Random(0))


def assert_minimal_witness(g, wit, lower_bound):
    assert is_conversion_set(g, wit, 2)
    for v in wit:
        assert not is_conversion_set(g, wit - {v}, 2), v
    assert len(wit) >= lower_bound


def no_gf2ext(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the deg3 solver touched GF(2^w)")

    for name in ("__init__", "rank", "mul"):
        monkeypatch.setattr(GF2Ext, name, refuse)


def test_cubic_past_old_field_limit(monkeypatch):
    no_gf2ext(monkeypatch)
    n = 200
    g = random_cubic(random.Random(200), n)
    res = solve_deg3(g, rng=random.Random(1))
    # a cubic graph minus a 2-conversion set is a forest, so
    # |S| >= ceil((n + 2) / 4); random cubic graphs meet that bound
    assert res.size == -(-(n + 2) // 4)
    assert_minimal_witness(g, res.witness, res.size)


def test_subcubic_184_lines(monkeypatch):
    no_gf2ext(monkeypatch)
    rng = random.Random(184)
    degrees = [1] * 25 + [2] * 11 + [3] * 39
    rng.shuffle(degrees)
    g = random_degree_graph(rng, degrees)
    leaves = {v for v in range(g.n) if g.degree(v) == 1}
    res = solve_deg3(g, rng=random.Random(2))
    (summary,) = res.components
    # 75 vertices, 4 gadget vertices per leaf, a spine of 11 - 2 vertices
    assert summary["cubic_n"] == 75 + 4 * 25 + 9 == 184
    assert leaves <= res.witness  # a leaf can never be converted
    assert_minimal_witness(g, res.witness, len(leaves))


def normalized_mix(rng, count):
    """Cubic graphs normalized from random subcubic inputs with leaves and
    degree-2 vertices, with the step kinds that produced them."""
    out = []
    while len(out) < count:
        g = random_connected_maxdeg3(rng, rng.randrange(3, 13))
        if g.max_degree() < 3:
            continue
        h5 = attach_h5_to_leaves(g)
        steps, g3, _ = normalize_degree2(h5.graph_after)
        kinds = {st.kind for st in steps}
        if h5.data["leaves"]:
            kinds.add("attach_h5")
        out.append((g3, kinds))
    return out


def test_one_pass_check_matches_graph_rebuilds():
    rng = random.Random(2026)
    kinds: set[str] = set()
    low_rank_lines = 0
    for g3, seen in normalized_mix(rng, 200):
        kinds |= seen
        inst, mu = cographic_lines(g3)
        ranks = inst.line_ranks(range(g3.n))
        for v in range(g3.n):
            assert ranks[v] == inst.rank((v,)), (g3.edges, v)
        low_rank_lines += sum(rk < 2 for rk in ranks)  # ends of bridges
    assert kinds >= {
        "attach_h5", "attach_caterpillar", "duplicate_graph",
        "split_adjacent_pair", "add_edge_nonadjacent",
    }
    assert low_rank_lines


def with_line(inst, v, a=None, b=None):
    vecs = [x.copy() for x in inst._signed]
    for side, new in enumerate((a, b)):
        if new is not None:
            vecs[side][v] = new
    return PolymatroidInstance(tuple(vecs), inst.dim, inst.field)


def test_representation_check_catches_mutated_lines():
    g3 = random_cubic(random.Random(2), 8)
    inst, mu = cographic_lines(g3)
    zero_b = with_line(inst, 0, b=(0,) * mu)
    with pytest.raises(ConsistencyError):
        _check_representation(g3, zero_b, mu)
    b = inst._signed[1][0].copy()
    assert b[1] in (1, -1)
    b[1] = -b[1]
    flipped = with_line(inst, 0, b=b)
    with pytest.raises(ConsistencyError, match=r"edge \(0, 4\) reads different columns"):
        _check_representation(g3, flipped, mu)


def fold_coordinate(inst, i, j, s):
    """x_j -= s x_i, then x_i := 0, on both vectors of every line; None when
    an entry leaves {-1, 0, 1}."""
    vecs = [v.astype(np.int64) for v in inst._signed]
    for v in vecs:
        v[:, j] -= s * v[:, i]
        v[:, i] = 0
    if any((np.abs(v) > 1).any() for v in vecs):
        return None
    return PolymatroidInstance(tuple(vecs), inst.dim, inst.field)


def test_representation_check_refuses_rank_deficient_lines():
    # a fold keeps both ends of every edge reading the same column, but the
    # lines drop to rank mu - 1; where every singleton rank survives it
    # too, only the unit-column certificate is left to refuse them
    g3 = random_cubic(random.Random(0), 8)
    inst, mu = cographic_lines(g3)
    with pytest.raises(ConsistencyError, match="no edge column is a unit vector at cycle 0"):
        _check_representation(g3, fold_coordinate(inst, 0, 1, -1), mu)
    rng = random.Random(2222)
    past_singletons = 0
    for _ in range(20):
        g3 = random_cubic(rng, rng.choice((6, 8, 10, 12)))
        inst, mu = cographic_lines(g3)
        singles = inst.line_ranks(range(g3.n))
        for (i, j), s in product(permutations(range(mu), 2), (1, -1)):
            folded = fold_coordinate(inst, i, j, s)
            if folded is None:
                continue
            assert folded.rank() == mu - 1
            with pytest.raises(ConsistencyError) as err:
                _check_representation(g3, folded, mu)
            if folded.line_ranks(range(g3.n)) == singles:
                assert f"no edge column is a unit vector at cycle {i};" in str(err.value)
                past_singletons += 1
    assert past_singletons


def test_representation_check_refuses_every_single_entry_mutation():
    rng = random.Random(2026)
    bridged = [g3 for g3, _ in normalized_mix(rng, 10)
               if min(cographic_lines(g3)[0].line_ranks(range(g3.n))) < 2]
    assert len(bridged) >= 2
    graphs = [random_cubic(random.Random(2), 8), random_cubic(random.Random(3), 12)]
    for g3 in graphs + bridged[:2]:
        inst, mu = cographic_lines(g3)
        for side, v, j in np.ndindex(2, g3.n, mu):
            for val in {-1, 0, 1} - {int(inst._signed[side][v, j])}:
                row = inst._signed[side][v].copy()
                row[j] = val
                mutated = with_line(inst, v, **{"ab"[side]: row})
                with pytest.raises(ConsistencyError):
                    _check_representation(g3, mutated, mu)


def test_representation_check_refuses_every_singleton_fault():
    """Lines whose rank at some vertex v is not mu - mu(G3 - v) never pass
    the edge-column check and the unit-column certificate: together they
    prove every singleton rank, so no separate singleton check is needed."""
    rng = random.Random(2025)
    bridged = [g3 for g3, _ in normalized_mix(rng, 12)
               if min(cographic_lines(g3)[0].line_ranks(range(g3.n))) < 2]
    assert len(bridged) >= 3
    graphs = [random_cubic(rng, n) for n in (4, 6, 8, 10, 12, 16)] + bridged[:3]
    faults = 0
    for g3 in graphs:
        inst, mu = cographic_lines(g3)
        broken = [mu - g3.delete_vertices([v])[0].cyclomatic() for v in range(g3.n)]
        for _ in range(200):
            a, b = (x.copy() for x in inst._signed)
            for _ in range(rng.randint(1, 4)):
                side, v, j = rng.choice((a, b)), rng.randrange(g3.n), rng.randrange(mu)
                side[v, j] = rng.choice([x for x in (-1, 0, 1) if x != side[v, j]])
            if rng.random() < 0.3:
                v = rng.randrange(g3.n)
                a[v], b[v] = b[v].copy(), a[v].copy()
            mutated = PolymatroidInstance((a, b), mu, inst.field)
            if mutated.line_ranks(range(g3.n)) != broken:
                faults += 1
                with pytest.raises(ConsistencyError):
                    _check_representation(g3, mutated, mu)
    assert faults >= 250


def test_gfp_lines_reach_the_solver_without_line_tuples(monkeypatch):
    made = []
    init = PolymatroidInstance.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(PolymatroidInstance, "__init__", recorded)
    g3 = random_cubic(random.Random(7), 12)
    inst, mu = cographic_lines(g3)
    assert len(inst) == 12 and inst.rank() == mu
    res = solve_deg3(g3, rng=random.Random(1))
    assert is_conversion_set(g3, res.witness, 2)
    assert res.size == min_conversion_set(g3, 2)[0]
    # GF(p) lines stay int8 arrays: no instance holds a `lines` tuple
    assert made and not any(hasattr(x, "lines") for x in made)


def test_unknown_step_kind_is_a_consistency_failure(tmp_path, monkeypatch, capsys):
    g = h5_graph()
    with pytest.raises(ConsistencyError, match="unknown step kind"):
        _undo_candidates(ReductionStep("bogus", g, g), frozenset())
    real = ikcs.deg3.normalize_degree2

    def with_bogus_step(g2):
        steps, g3, v2 = real(g2)
        return steps + [ReductionStep("bogus", g3, g3)], g3, v2

    monkeypatch.setattr(ikcs.deg3, "normalize_degree2", with_bogus_step)
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(["min-set", "--k", "2", "--engine", "deg3", str(path)]) == 3
    assert "unknown step kind 'bogus'" in capsys.readouterr().err


def test_parity_field_limit_refused_before_cographic_lines(tmp_path, monkeypatch, capsys):
    def refuse(g3):
        raise AssertionError("cographic_lines ran past the parity field limit")

    monkeypatch.setattr(ikcs.deg3, "cographic_lines", refuse)
    half = 16_384  # circular ladder: two 16,384-cycles joined by rungs
    edges = [(i, (i + 1) % half) for i in range(half)]
    edges += [(i + half, (i + 1) % half + half) for i in range(half)]
    edges += [(i, i + half) for i in range(half)]
    path = tmp_path / "ladder.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    assert main(["min-set", "--k", "2", "--engine", "deg3", str(path)]) == 2
    assert "32768 lines, at most 32767" in capsys.readouterr().err
    check_parity_count(PrimeField.order, 32_767)  # the largest ground set solved
