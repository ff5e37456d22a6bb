import random
from itertools import combinations

import pytest

import ikcs.exact
import ikcs.percolation
from ikcs.exact import (
    SearchBudgetExceeded,
    has_conversion_set_of_size,
    maxdeg2_witness,
    min_conversion_set,
)
from ikcs.graph import Graph, GraphError
from ikcs.percolation import is_conversion_set, run
from genutil import random_cubic, random_degree_graph, random_graph


def brute_reference(g, k):
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            if is_conversion_set(g, cand, k):
                return size, cand
    raise AssertionError


def test_small_battery_matches_reference():
    rng = random.Random(2024)
    cases = [(rng.randrange(1, 9), 0.35, rng.randrange(1, 4)) for _ in range(120)]
    # larger graphs with k up to 4, so that degree < k forces vertices
    cases += [(rng.randrange(10, 15), rng.choice((0.2, 0.3, 0.45)), rng.randrange(1, 5))
              for _ in range(40)]
    for n, p, k in cases:
        g = random_graph(rng, n, p)
        size, wit = min_conversion_set(g, k)
        ref_size, ref_wit = brute_reference(g, k)
        assert size == ref_size
        assert wit == ref_wit  # lexicographically least witness
        assert is_conversion_set(g, wit, k)


def test_decision_flavor_consistent():
    # a seed of size 1 already converts the path 0-1-2 at k = 1, and size 2
    # must still be found although the prefix (0,) converts vertex 1
    path = Graph(3, ((0, 1), (1, 2)))
    assert has_conversion_set_of_size(path, 1, 2)
    # no seed has more vertices than the graph
    assert not has_conversion_set_of_size(path, 2, 4)
    assert not has_conversion_set_of_size(path, 2, 10)
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 9), 0.4)
        k = rng.randrange(1, 4)
        size, _ = min_conversion_set(g, k)
        for s in range(g.n + 3):
            assert has_conversion_set_of_size(g, k, s) == (size <= s <= g.n), (g, k, s)


def test_in_edge_bound_holds_for_converting_sets():
    # The search's prune: in a converting seed S every other vertex has k
    # neighbours that turned black before it, so m - e(S) >= k * (n - |S|).
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.choice((0.25, 0.45, 0.7)))
        k = rng.randrange(1, 5)
        for size in range(n + 1):
            for s in combinations(range(n), size):
                if is_conversion_set(g, s, k):
                    inside = sum(1 for u, v in g.edges if u in s and v in s)
                    assert g.m - inside >= k * (n - size), (g, k, s)


def test_last_round_bound_holds_for_converting_sets():
    # The search's last-round term: with L the vertices that turn black in
    # the last round of a converting seed S, |S| < n,
    # m - e(S) - k * (n - |S|) >= sum_L (deg - k) - e(L) >= ceil(d / 2),
    # where d is the least deg - k over the vertices that are not forced.
    rng = random.Random(113)
    cases = [
        (random_graph(rng, rng.randrange(1, 10), rng.choice((0.25, 0.45, 0.7))),
         rng.randrange(1, 5))
        for _ in range(150)
    ]
    cases += [(random_degree_graph(rng, [3] * n), k) for n in (4, 6, 8) for k in (1, 2, 3)]
    cases += [(random_degree_graph(rng, [4] * n), k) for n in (5, 7, 9) for k in (2, 3, 4)]
    for g, k in cases:
        n = g.n
        pool = [g.degree(v) - k for v in range(n) if g.degree(v) >= k]
        for size in range(n):
            for s in combinations(range(n), size):
                trace = run(g, s, k)
                if not trace.converted_all:
                    continue
                last = trace.rounds[-1]
                inside = sum(1 for u, v in g.edges if u in s and v in s)
                in_last = sum(1 for u, v in g.edges if u in last and v in last)
                term = sum(g.degree(v) - k for v in last) - in_last
                assert g.m - inside - k * (n - size) >= term >= (min(pool) + 1) // 2, (
                    g, k, s)


def test_budget_guard():
    g = random_graph(random.Random(0), 40, 0.1)
    with pytest.raises(SearchBudgetExceeded):
        min_conversion_set(g, 2, budget_vertices=30)
    # raising the budget clears the guard
    size, _ = min_conversion_set(Graph(3, ((0, 1), (1, 2))), 2, budget_vertices=3)
    assert size == 2


def test_cycle_17_sizes_8_and_9():
    g = Graph(17, tuple((i, (i + 1) % 17) for i in range(17)))
    assert not has_conversion_set_of_size(g, 2, 8)
    assert has_conversion_set_of_size(g, 2, 9)
    assert min_conversion_set(g, 2) == (9, (0,) + tuple(range(1, 17, 2)))


def test_long_paths_no_recursion_limit():
    # one search frame per chosen vertex: about 1200 on the longer path
    for p in (1200, 2400):
        g = Graph(p, tuple((i, i + 1) for i in range(p - 1)))
        size, wit = min_conversion_set(g, 2, budget_vertices=p)
        assert size == maxdeg2_witness(g)[0]
        assert is_conversion_set(g, wit, 2)


class CountingMasks(list):
    """Neighbour masks that count every lookup."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def test_closure_work_stays_linear_on_long_paths(monkeypatch):
    """Each closure of the search checks the new vertex's neighbours, not
    every white vertex: the mask lookups of a whole path search stay within
    a constant per vertex (a full rescan per closure makes millions)."""
    made = []

    def counting_masks(g):
        made.append(CountingMasks(ikcs.percolation.neighbor_masks(g)))
        return made[-1]

    monkeypatch.setattr(ikcs.exact, "neighbor_masks", counting_masks)
    for p in (600, 2400):
        made.clear()
        g = Graph(p, tuple((i, i + 1) for i in range(p - 1)))
        assert min_conversion_set(g, 2, budget_vertices=p)[0] == p // 2 + 1
        assert 0 < sum(m.lookups for m in made) <= 8 * p


def test_search_calls_run_bits_through_the_module_global(monkeypatch):
    """The search looks `run_bits` up on `ikcs.exact` at each call, so a
    wrapper set there (as the benchmark's tracer sets one) sees every
    closure and leaves the witness as it was."""
    g = random_cubic(random.Random(2), 20)
    want = min_conversion_set(g, 2)
    calls = []

    def counting(*args):
        calls.append(args)
        return ikcs.percolation.run_bits(*args)

    monkeypatch.setattr(ikcs.exact, "run_bits", counting)
    assert min_conversion_set(g, 2) == want
    assert len(calls) > 100


def test_closed_form_paths_and_cycles():
    for p in range(1, 10):
        g = Graph(p, tuple((i, i + 1) for i in range(p - 1)))
        size, wit = maxdeg2_witness(g)
        assert size == p // 2 + 1
        assert is_conversion_set(g, wit, 2)
        assert size == min_conversion_set(g, 2)[0]
    for p in range(3, 10):
        g = Graph(p, tuple((i, (i + 1) % p) for i in range(p)))
        size, wit = maxdeg2_witness(g)
        assert size == (p + 1) // 2
        assert is_conversion_set(g, wit, 2)
        assert size == min_conversion_set(g, 2)[0]
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(GraphError, match="component with degree > 2"):
        maxdeg2_witness(star)


def test_closed_form_disjoint_union():
    # path of 4 plus cycle of 5 plus isolated vertex
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
    g = Graph(10, tuple(edges))
    size, wit = maxdeg2_witness(g)
    assert size == (4 // 2 + 1) + (5 + 1) // 2 + 1
    assert is_conversion_set(g, wit, 2)
    assert min_conversion_set(g, 2)[0] == size


def test_trivial_sizes():
    assert min_conversion_set(Graph(0, ()), 2) == (0, ())
    assert min_conversion_set(Graph(1, ()), 3) == (1, (0,))
    g = Graph(2, ((0, 1),))
    assert min_conversion_set(g, 1) == (1, (0,))
