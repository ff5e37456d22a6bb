import random

import pytest

import ikcs.percolation as percolation
from ikcs.gf2 import ConsistencyError
from ikcs.graph import Graph, GraphError
from ikcs.percolation import (
    forced_vertices,
    is_conversion_set,
    neighbor_masks,
    run,
    run_bits,
    stuck_certificate,
)
from genutil import random_graph, run_bits_reference


def path(n):
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def test_path_endpoints_convert_whole_path():
    g = path(5)
    tr = run(g, {0, 4}, 2)
    assert not tr.converted_all  # interior of a path never reaches threshold 2
    tr = run(g, {0, 2, 4}, 2)
    assert tr.converted_all
    assert tr.round_of()[1] == 1 and tr.round_of()[3] == 1


def test_alternate_seed_on_cycle():
    g = cycle(6)
    assert is_conversion_set(g, {0, 2, 4}, 2)
    assert not is_conversion_set(g, {0, 3}, 2)


def reference_rounds(g, seed, k):
    """Synchronous process by rescanning every white vertex each round."""
    black = set(seed)
    rounds = []
    while True:
        new = {
            v for v in range(g.n)
            if v not in black and sum(1 for w in g.adj[v] if w in black) >= k
        }
        if not new:
            return rounds, black
        rounds.append(frozenset(new))
        black |= new


def test_step_returns_newly_black():
    g = path(4)
    assert run(g, {0, 2}, 2).rounds == ({1},)
    assert run(g, {0, 1, 2}, 2).rounds == ()  # endpoint 3 has degree 1 < k
    assert run(g, {0, 1, 2, 3}, 2).rounds == ()
    assert run(path(5), {0, 1}, 1).rounds == ({2}, {3}, {4})


def test_run_matches_reference_round_for_round():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(1, 30)
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.35)))
        k = rng.randrange(1, 5)
        seed = {v for v in range(n) if rng.random() < rng.choice((0.1, 0.3))}
        rounds, black = reference_rounds(g, seed, k)
        tr = run(g, seed, k)
        assert list(tr.rounds) == rounds
        assert tr.final_black == black
        assert tr.converted_all == (len(black) == n) == is_conversion_set(g, seed, k)
        bits = sum(1 << v for v in seed)
        assert run_bits(neighbor_masks(g), bits, k) == sum(1 << v for v in black)


def test_trace_rounds_partition():
    g = cycle(8)
    tr = run(g, {0, 2, 4, 6}, 2)
    flat = set(tr.seed)
    for rd in tr.rounds:
        assert not (set(rd) & flat)
        flat |= set(rd)
    assert flat == set(tr.final_black)
    assert tr.converted_all


def test_seed_validation():
    g = path(3)
    with pytest.raises(ValueError):
        run(g, {5}, 2)
    with pytest.raises(ValueError):
        run(g, {0}, 0)
    n = g.n
    for seed, bad in (({n}, n), ({-1}, -1), ({0, n + 3}, n + 3)):
        for check in (run, is_conversion_set):
            with pytest.raises(GraphError, match=rf"^seed vertex {bad} out of range$"):
                check(g, seed, 2)


def test_stuck_certificate_closure():
    # every stuck white vertex keeps at least deg - k + 1 white neighbors
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(2, 12)
        g = random_graph(rng, n, 0.3)
        k = rng.randrange(1, 4)
        seed = {v for v in range(n) if rng.random() < 0.3}
        tr = run(g, seed, k)
        if tr.converted_all:
            with pytest.raises(ValueError):
                stuck_certificate(g, tr, k)
            continue
        cert = stuck_certificate(g, tr, k)
        assert cert
        assert cert.isdisjoint(tr.final_black)
        for w in cert:
            whites = sum(1 for u in g.adj[w] if u in cert)
            assert whites >= g.degree(w) - k + 1


def test_stuck_certificate_checks_itself(monkeypatch):
    g = path(5)
    assert stuck_certificate(g, run(g, {0, 2}, 2), 2) == {3, 4}
    # a kernel that stops after the seeds leaves vertex 1 with too few whites
    monkeypatch.setattr(percolation, "_spread", lambda g, seed, k: [list(seed)])
    with pytest.raises(ConsistencyError):
        stuck_certificate(g, run(g, {0, 2}, 2), 2)


def test_forced_vertices_must_be_seeded():
    g = path(4)  # endpoints have degree 1 < 2
    assert forced_vertices(g, 2) == {0, 3}
    assert not is_conversion_set(g, {1, 2, 3}, 2)  # misses forced vertex 0


def test_run_bits_matches_run():
    rng = random.Random(123)
    for _ in range(150):
        n = rng.randrange(1, 14)
        g = random_graph(rng, n, 0.35)
        k = rng.randrange(1, 4)
        seed = {v for v in range(n) if rng.random() < 0.25}
        masks = neighbor_masks(g)
        bits = 0
        for v in seed:
            bits |= 1 << v
        out = run_bits(masks, bits, k)
        assert out == sum(1 << v for v in run(g, seed, k).final_black)


def test_run_bits_matches_full_rescan():
    """The frontier closure against the full-rescan loop: from any black set
    with fresh left out, from a closed set with fresh = 0, and from a closed
    set B plus vertices F with fresh = F and any part of B."""
    rng = random.Random(4242)
    for _ in range(400):
        n = rng.randrange(1, 31)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35]))
        masks = neighbor_masks(g)
        k = rng.randrange(1, 5)

        def subset():
            return sum(1 << v for v in range(n) if rng.random() < 0.2)

        black = subset()
        assert run_bits(masks, black, k) == run_bits_reference(masks, black, k)
        closed = run_bits_reference(masks, subset(), k)
        assert run_bits(masks, closed, k, 0) == closed
        added = subset()
        fresh = added | closed & subset()
        assert run_bits(masks, closed | added, k, fresh) == run_bits_reference(
            masks, closed | added, k
        )


def test_run_bits_rejects_k_below_one():
    masks = neighbor_masks(path(3))
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            run_bits(masks, 0b001, k)
