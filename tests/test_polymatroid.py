import random
from itertools import combinations

import numpy as np
import pytest

import ikcs.deg3
import ikcs.polymatroid
from ikcs.cli import main
from ikcs.deg3 import attach_h5_to_leaves, cographic_lines, normalize_degree2
from ikcs.gf2 import GF2Ext, PrimeField, RowBasis, field
from ikcs.graph import Graph
from ikcs.polymatroid import (
    EXTRACT_BLOCK,
    ConsistencyError,
    PolymatroidInstance,
    _block_ceiling,
    _draw,
    _extract_by_inverse,
    _skew_forms,
    block_dims,
    complete_matching,
    max_matching,
    min_spanning_set,
    nu_algebraic,
    nu_bruteforce,
)
from genutil import (
    bridged_chain,
    extraction_per_line,
    k4_ring,
    max_matching_reference,
    nu_no_stop,
    principal_inverse_reference,
    random_cubic,
    random_degree_graph,
    random_instance,
    reduced_rows,
    split_skew_form,
)


def std_basis_instance():
    # three disjoint coordinate lines in GF(2)^6: perfect matching exists
    lines = []
    for i in range(3):
        a = [0] * 6
        b = [0] * 6
        a[2 * i] = 1
        b[2 * i + 1] = 1
        lines.append((tuple(a), tuple(b)))
    return PolymatroidInstance(lines, 6, field(16))


def test_rank_function_axioms():
    rng = random.Random(8)
    for _ in range(40):
        inst = random_instance(rng, rng.randrange(1, 6), rng.randrange(2, 5), w=16)
        full = list(range(len(inst.lines)))
        assert inst.rank([]) == 0
        for x in full:
            assert inst.rank((x,)) <= 2
        # monotone and submodular on random pairs of nested subsets
        for _ in range(10):
            sub = [i for i in full if rng.random() < 0.5]
            sup = sorted(set(sub) | {i for i in full if rng.random() < 0.5})
            assert inst.rank(sub) <= inst.rank(sup)
            x = rng.randrange(len(inst.lines))
            if x not in sup:
                gain_small = inst.rank(sorted(set(sub) | {x})) - inst.rank(sub)
                gain_big = inst.rank(sorted(set(sup) | {x})) - inst.rank(sup)
                assert gain_big <= gain_small


def test_perfect_matching_detected():
    inst = std_basis_instance()
    assert nu_bruteforce(inst) == 3
    assert nu_algebraic(inst, rng=random.Random(0)) == 3
    m = max_matching(inst, rng=random.Random(1))
    assert len(m) == 3 and inst.rank(m) == 6


def test_degenerate_lines():
    fld = field(16)
    zero = ((0, 0), (0, 0))
    single = ((1, 0), (1, 0))  # rank-1 line
    inst = PolymatroidInstance([zero, single, ((1, 0), (0, 1))], 2, fld)
    assert inst.rank((0,)) == 0
    assert inst.rank((1,)) == 1
    assert nu_bruteforce(inst) == 1
    assert nu_algebraic(inst, rng=random.Random(5)) == 1


def test_algebraic_matches_bruteforce_battery():
    rng = random.Random(404)
    for _ in range(150):
        inst = random_instance(rng, rng.randrange(1, 8), rng.randrange(2, 6), w=16)
        assert nu_algebraic(inst, rng=rng) == nu_bruteforce(inst)


def test_field_too_small_rejected():
    fld = field(8)
    lines = [((1, 0), (0, 1))] * 12  # needs order >= 2 * 12^2 = 288 > 256
    inst = PolymatroidInstance(lines, 2, fld)
    with pytest.raises(ValueError):
        nu_algebraic(inst, rng=random.Random(0))


def ranks_every_trial(inst, rng, trials, subset):
    """nu_algebraic without skipped trials: every trial draws its t (over
    GF(2^w), one value per line with a nonzero form, while building Y(t))
    and ranks its whole Y(t), over GF(p) built by `split_skew_form`."""
    fld = inst.field
    idx = list(inst.ground() if subset is None else subset)
    best = 0
    for _ in range(trials):
        if isinstance(fld, PrimeField):
            y = split_skew_form(inst, idx, _draw(fld.p, rng, len(idx)))
        else:
            y = [[0] * inst.dim for _ in range(inst.dim)]
            for i in idx:
                a, b = inst.lines[i]
                form = {
                    (p, q): c
                    for p in range(inst.dim)
                    for q in range(p + 1, inst.dim)
                    if (c := fld.mul(a[p], b[q]) ^ fld.mul(b[p], a[q]))
                }
                if form:
                    t = fld.rand_nonzero(rng)
                    for (p, q), c in form.items():
                        y[p][q] ^= fld.mul(t, c)
                        y[q][p] ^= fld.mul(t, c)
        best = max(best, fld.rank(y) // 2)
    return best


def blocked_ext_instance(rng, w: int) -> PolymatroidInstance:
    """Random GF(2^w) lines, each confined to one of up to three disjoint
    coordinate blocks, so the block ceiling often sits below dim // 2."""
    fld = field(w)
    sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 4))]
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    dim = sum(sizes)
    lines = []
    for _ in range(rng.randrange(1, 8)):
        k = rng.randrange(len(sizes))
        block = range(starts[k], starts[k] + sizes[k])
        a, b = (
            tuple(rng.randrange(fld.order) if j in block else 0 for j in range(dim))
            for _ in "ab"
        )
        lines.append((a, b))
    return PolymatroidInstance(lines, dim, fld)


def skip_battery(rng):
    """(instance, subset) pairs over GF(p) and GF(2^w), many of them with nu
    at the ceiling min(dim // 2, |subset|); also bridged chains and lines
    on disjoint coordinate blocks, whose nu is below that ceiling but often
    at the block ceiling, rings of K4 blocks, whose nu is below the block
    ceiling too, GF(p) lines on several blocks of mixed shapes
    (`block_diagonal_instance`), often below the block ceiling, and two
    lines each on one coordinate, whose block ceiling is 0 while
    min(dim // 2, |subset|) is 2."""
    for n in (4, 8, 12, 20, 32):
        inst, _ = cographic_lines(random_cubic(rng, n))
        yield inst, None
        yield inst, sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
    for g in (bridged_chain(2), bridged_chain(5), k4_ring(3), k4_ring(4)):
        yield cographic_lines(g)[0], None
    for _ in range(6):
        inst = block_diagonal_instance(rng)
        yield inst, None
        yield inst, sorted(rng.sample(range(len(inst)), rng.randrange(1, len(inst) + 1)))
    for w in (8, 16, 32):
        for _ in range(8):
            inst = random_instance(rng, rng.randrange(1, 8), rng.randrange(1, 7), w=w)
            yield inst, None
            yield inst, sorted(rng.sample(range(len(inst)), rng.randrange(len(inst) + 1)))
        for _ in range(4):
            yield blocked_ext_instance(rng, w), None
    yield PolymatroidInstance([((3, 0, 0, 0), (5, 0, 0, 0)), ((0, 7, 0, 0), (0, 2, 0, 0))],
                              4, field(16)), None


def rank_counter(monkeypatch):
    """The number of nu trials ranked over either field: one
    `_skew_rank` call each, however many blocks it ranks."""
    calls = [0]
    skew_rank = ikcs.polymatroid._skew_rank

    def counted(*args):
        calls[0] += 1
        return skew_rank(*args)

    monkeypatch.setattr(ikcs.polymatroid, "_skew_rank", counted)
    return calls


def test_skipped_trials_keep_the_random_stream(monkeypatch):
    """Skipped trials still draw their t.  Over either field a call ranks
    every trial or none: none when known reaches the block ceiling, which
    is at most min(dim // 2, |subset|), known = 0 included, and all of them
    below; over both fields the block ceiling fires below
    min(dim // 2, |subset|), and over GF(p) trials are ranked with
    known = nu on lines of several blocks."""
    calls = rank_counter(monkeypatch)
    rng = random.Random(909)
    skipped = 0
    several = 0
    regimes = set()
    for inst, sub in skip_battery(rng):
        idx = list(inst.ground() if sub is None else sub)
        for trials in (1, 3, 5):
            seed = rng.getrandbits(32)
            ref = random.Random(seed)
            nu = ranks_every_trial(inst, ref, trials, sub)
            for known in (0, nu):
                got = random.Random(seed)
                before = calls[0]
                nu_algebraic(inst, rng=got, trials=trials, subset=sub, known=known)
                ranked = calls[0] - before
                skipped += trials - ranked
                assert got.getstate() == ref.getstate(), (inst.field, sub, trials)
                plain = min(inst.dim // 2, len(idx))
                fires = known >= _block_ceiling(inst, idx)
                assert ranked == (0 if fires else trials), (inst.field, sub, trials, known)
                regimes.add((inst._signed is None, fires, known < plain))
                if inst._signed is not None and known == nu and len(block_dims(inst, idx)) > 1:
                    several += ranked
    assert skipped > 0 and several > 0
    assert regimes == {
        (ext, fires, below) for ext in (False, True)
        for fires, below in ((True, False), (True, True), (False, True))
    }


def test_skipped_trials_keep_nu():
    rng = random.Random(910)
    for inst, sub in skip_battery(rng):
        seed = rng.getrandbits(32)
        ref = ranks_every_trial(inst, random.Random(seed), 3, sub)
        assert nu_algebraic(inst, rng=random.Random(seed), subset=sub) == ref
        # a known lower bound only raises the answer to itself
        for known in range(ref + 1):
            got = nu_algebraic(inst, rng=random.Random(seed), subset=sub, known=known)
            assert got == ref


def brute_rho(inst):
    full = inst.rank()
    idx = range(len(inst.lines))
    for size in range(len(inst.lines) + 1):
        for sub in combinations(idx, size):
            if inst.rank(sub) == full:
                return size
    raise AssertionError


def test_gallai_identity_battery():
    rng = random.Random(1234)
    for _ in range(60):
        inst = random_instance(rng, rng.randrange(1, 7), rng.randrange(2, 5), w=16)
        nu = nu_bruteforce(inst)
        rho = brute_rho(inst)
        assert nu + rho == inst.rank()
        span = min_spanning_set(inst, rng=rng)
        assert len(span) == rho
        assert inst.rank(span) == inst.rank()


def test_matching_is_downward_closed_certificate():
    rng = random.Random(9)
    for _ in range(40):
        inst = random_instance(rng, rng.randrange(1, 7), rng.randrange(2, 5), w=16)
        m = max_matching(inst, rng=rng)
        assert inst.rank(m) == 2 * len(m)
        assert len(m) == nu_bruteforce(inst)


def test_subset_queries():
    inst = std_basis_instance()
    assert nu_bruteforce(inst, subset=[0, 1]) == 2
    assert nu_algebraic(inst, rng=random.Random(3), subset=[0]) == 1
    span = min_spanning_set(inst, rng=random.Random(4), subset=[0, 2])
    assert set(span) == {0, 2}


def test_json_roundtrip():
    rng = random.Random(55)
    for w in (16, 32):
        inst = random_instance(rng, 5, 3, w=w)
        back = PolymatroidInstance.from_json_dict(inst.to_json_dict())
        assert back.lines == inst.lines
        assert back.dim == inst.dim
        assert back.field.w == inst.field.w
    signed, _ = cographic_lines(random_cubic(rng, 6))
    with pytest.raises(ValueError):
        signed.to_json_dict()  # the JSON form is GF(2^w) only


def test_instance_validation():
    fld = field(16)
    with pytest.raises(ValueError):
        PolymatroidInstance([((1,), (0, 1))], 2, fld)  # ragged vectors
    with pytest.raises(ValueError):
        PolymatroidInstance([((1 << 20, 0), (0, 1))], 2, fld)  # out of field range


def unsigned_copy(inst):
    """The same lines with every nonzero entry replaced by 1, over GF(2^16):
    the binary cycle-space representation of the same cographic matroid."""
    a, b = ((v != 0).astype(int).tolist() for v in inst._signed)
    return PolymatroidInstance(list(zip(a, b)), inst.dim, field(16))


def test_gfp_matching_matches_bruteforce_on_cographic():
    rng = random.Random(1812)
    for n in (4, 6, 8, 10, 12, 14, 16, 18) * 2:
        inst, mu = cographic_lines(random_cubic(rng, n))
        ref = unsigned_copy(inst)
        subsets = [None, sorted(rng.sample(range(n), rng.randrange(1, n + 1)))]
        for sub in subsets:
            m = max_matching(inst, rng=rng, subset=sub)
            nu = nu_bruteforce(inst, subset=sub)
            assert inst.rank(m) == 2 * len(m)
            assert len(m) == nu
            assert set(m) <= set(range(n) if sub is None else sub)
            # the rank-checked extraction over GF(2^16) is the reference
            assert len(max_matching(ref, rng=rng, subset=sub)) == nu
            span = min_spanning_set(inst, rng=rng, subset=sub)
            assert len(span) == inst.rank(sub) - nu
            assert inst.rank(span) == inst.rank(sub)


def matching_protocol_battery(rng):
    """(instance, subset) pairs: cographic lines of random cubic graphs,
    whose maximum matchings mostly reach the ceiling min(dim // 2, |idx|),
    the deg3 solver's lines of subcubic graphs with leaves and degree-2
    vertices over V2, whose nu mostly falls below it, and GF(2^16) lines."""
    for _ in range(12):
        yield cographic_lines(random_cubic(rng, 2 * rng.randrange(2, 30)))[0], None
    for _ in range(14):
        n = rng.randrange(12, 40)
        leaves, deg2 = rng.randrange(1, n // 4 + 1), rng.randrange(0, n // 4)
        degrees = [1] * leaves + [2] * deg2 + [3] * (n - leaves - deg2)
        if sum(degrees) % 2:
            degrees[-1] = 2
        rng.shuffle(degrees)
        h5 = attach_h5_to_leaves(random_degree_graph(rng, degrees))
        _, g3, v2 = normalize_degree2(h5.graph_after)
        yield cographic_lines(g3)[0], sorted(v2)
    for _ in range(6):
        yield random_instance(rng, rng.randrange(1, 8), rng.randrange(2, 7), w=16), None


def test_matching_matches_nu_first_reference():
    """`max_matching`, which over GF(p) extracts before it ranks, returns
    the matching of the nu-first reference and leaves the generator in the
    same state, at the ceiling and below it."""
    rng = random.Random(4242)
    regimes = set()
    for inst, sub in matching_protocol_battery(rng):
        idx = inst.ground() if sub is None else sub
        for _ in range(2):
            seed = rng.getrandbits(32)
            got, ref = random.Random(seed), random.Random(seed)
            m = max_matching(inst, got, sub)
            assert m == max_matching_reference(inst, ref, sub)
            assert got.getstate() == ref.getstate()
            if inst._signed is not None:
                regimes.add(len(m) == min(inst.dim // 2, len(idx)))
    assert regimes == {True, False}


def test_forced_retry_matches_nu_first_reference(monkeypatch):
    """A first extraction, over either field, that drops one survivor is
    still certified but falls short of the confirmed nu, so `max_matching`
    runs a second pass, which ranks only its three confirmation trials
    (draws = ()); the matching and the generator state still match the
    reference's."""
    passes = []

    def dropping(extract):
        def drop_first(inst, rng, idx):
            passes.append(idx)
            alive = extract(inst, rng, idx)
            return alive[:-1] if len(passes) == 1 else alive

        return drop_first

    for name in ("_extract_by_inverse", "_extract_by_rank"):
        monkeypatch.setattr(ikcs.polymatroid, name, dropping(getattr(ikcs.polymatroid, name)))
    rng = random.Random(77)
    regimes = set()
    fields = set()
    for inst, sub in matching_protocol_battery(rng):
        idx = inst.ground() if sub is None else sub
        seed = rng.getrandbits(32)
        got, ref = random.Random(seed), random.Random(seed)
        passes.clear()
        m = max_matching(inst, got, sub)
        assert len(passes) == 2 or not m
        passes.clear()
        assert m == max_matching_reference(inst, ref, sub)
        assert got.getstate() == ref.getstate()
        assert len(passes) == 2 or not m
        regimes.add(len(m) == min(inst.dim // 2, len(idx)))
        fields.add(type(inst.field))
    assert regimes == {True, False}
    assert fields == {PrimeField, GF2Ext}


def random_signed_instance(rng, n_lines, dim):
    lines = [
        [[rng.choice((0, 0, 1, -1)) for _ in range(dim)] for _ in "ab"]
        for _ in range(n_lines)
    ]
    a, b = np.array(lines, dtype=np.int8).reshape(n_lines, 2, dim).transpose(1, 0, 2)
    return PolymatroidInstance((a, b), dim, PrimeField())


@pytest.mark.parametrize("bound", [2, 5, 6, 7, 1000, PrimeField.p, 1 << 32])
def test_bulk_draw_keeps_the_random_stream(bound):
    """`_draw` gives the values of one `randrange(1, bound)` per item and
    leaves the generator where those calls leave it, also at bounds where
    half the words are drawn again."""
    for seed in range(60):
        for count in (0, 1, 2, 9, 176):
            got, ref = random.Random(seed), random.Random(seed)
            t = _draw(bound, got, count)
            assert t.dtype == np.int64
            assert t.tolist() == [ref.randrange(1, bound) for _ in range(count)]
            assert got.getstate() == ref.getstate(), (bound, seed, count)


def skew_form(inst, idx, t):
    """`_skew_forms` on the lines idx and every coordinate, a stack of one."""
    a, b = (v[list(idx)][None] for v in inst._signed)
    return _skew_forms(a, b, t[None], inst.field.p)[0]


def test_signed_skew_form_matches_split_product():
    rng = random.Random(53)
    fld = PrimeField()
    for _ in range(80):
        inst = random_signed_instance(rng, rng.randrange(1, 40), rng.randrange(1, 30))
        idx = sorted(rng.sample(range(len(inst)), rng.randrange(1, len(inst) + 1)))
        t = _draw(fld.p, rng, len(idx))
        assert np.array_equal(skew_form(inst, idx, t), split_skew_form(inst, idx, t))
    # largest magnitudes: every entry -1 and every t_i = p - 1
    p = fld.p
    inst = PolymatroidInstance(
        (np.full((3000, 3), -1), np.tile([-1, 0, 1], (3000, 1))), 3, fld
    )
    idx = range(3000)
    t = np.full(3000, p - 1, dtype=np.int64)
    assert np.array_equal(skew_form(inst, idx, t), split_skew_form(inst, idx, t))


def test_nu_trials_refuse_a_matrix_that_is_not_alternating(monkeypatch):
    """A GF(p) nu trial whose Y_k(t) is not alternating is refused before
    it is ranked: not skew, a nonzero diagonal, or skew but not reduced,
    in the one block of a cubic graph's lines and in each nonzero stack of
    a block-diagonal instance."""
    p = PrimeField.p
    cubic, _ = cographic_lines(random_cubic(random.Random(3), 12))
    blocked = block_diagonal_instance(random.Random(4))
    for inst in (cubic, blocked):
        idx = tuple(inst.ground())
        draws = [_draw(p, random.Random(5), len(idx)) for _ in range(3)]
        for fault in ("skew", "diagonal", "reduced"):
            faulted = []

            def faulty(*args):
                y = _skew_forms(*args)
                if y.any():  # at the stack's first nonzero entry
                    k, a, b = (int(x) for x in np.argwhere(y)[0])
                    if fault == "skew":
                        y[k, a, b] = (y[k, a, b] + 1) % p
                    elif fault == "diagonal":
                        y[k, a, a] = 1
                    else:
                        y[k, a, b] -= p
                    faulted.append(y)
                return y

            monkeypatch.setattr(ikcs.polymatroid, "_skew_forms", faulty)
            with pytest.raises(ConsistencyError, match="not alternating"):
                ikcs.polymatroid._nu_ranks(inst, idx, draws)
            assert faulted
            monkeypatch.undo()
    assert len(block_dims(cubic)) == 1
    assert ikcs.polymatroid._nu_ranks(cubic, tuple(cubic.ground()), draws) == cubic.dim // 2


def test_signed_extraction_matches_dense_products():
    rng = random.Random(55)
    for n in (6, 10, 16, 24, 40, 64, 100, 200) * 2:
        inst, _ = cographic_lines(random_cubic(rng, n))
        idx = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
        seed = rng.getrandbits(32)
        got = _extract_by_inverse(inst, random.Random(seed), idx)
        assert got == extraction_per_line(inst, random.Random(seed), idx)


@pytest.mark.parametrize("extra", [-1, 0, 1, EXTRACT_BLOCK + 1])
def test_blocked_extraction_at_block_boundaries(extra):
    """|idx| = B - 1, B, B + 1 and 2B + 1, over leading lines and over
    random subsets in random order, against the per-line reference."""
    count = EXTRACT_BLOCK + extra
    rng = random.Random(56 + extra)
    for _ in range(6):
        n = 2 * rng.randrange(count // 2 + 2, 2 * count)
        inst, _ = cographic_lines(random_cubic(rng, n))
        for idx in (tuple(range(count)), tuple(rng.sample(range(n), count))):
            seed = rng.getrandbits(32)
            got = _extract_by_inverse(inst, random.Random(seed), idx)
            assert got == extraction_per_line(inst, random.Random(seed), idx)


def test_blocked_extraction_with_blocks_that_keep_every_line():
    """The first block's lines are the only lines on their coordinates, so
    each of them survives (delta = 0) and that block folds nothing; the
    lines after it mix survivors and deletions."""
    rng = random.Random(57)
    fld = PrimeField()
    b = EXTRACT_BLOCK
    dim = 2 * b + 6
    for more in (0, 1, b, 2 * b + 3):
        lines = np.zeros((2, b + more, dim), dtype=np.int8)
        lines[0, range(b), range(0, 2 * b, 2)] = 1
        lines[1, range(b), range(1, 2 * b, 2)] = -1
        lines[:, b:, 2 * b :] = np.array(
            rng.choices((0, 0, 1, -1), k=2 * more * 6), dtype=np.int8
        ).reshape(2, more, 6)
        inst = PolymatroidInstance(tuple(lines), dim, fld)
        idx = tuple(range(len(inst)))
        seed = rng.getrandbits(32)
        got = _extract_by_inverse(inst, random.Random(seed), idx)
        assert got[:b] == tuple(range(b))
        assert got == extraction_per_line(inst, random.Random(seed), idx)


def test_extraction_without_zero_forms_matches_per_line_reference():
    """Dropping the lines of rank <= 1 before the updates keeps the
    survivors and the random stream of the per-line extraction over every
    line: deg3 lines of subcubic graphs, whose leaf gadgets hang on
    bridges, over V2 and over subsets in random order, bridged chains, and
    subsets of rank <= 1 lines only, where Y(t) = 0 and S is empty."""
    rng = random.Random(4343)
    cases = []
    for _ in range(50):
        n = rng.randrange(8, 40)
        leaves, deg2 = rng.randrange(1, n // 4 + 1), rng.randrange(0, n // 4)
        degrees = [1] * leaves + [2] * deg2 + [3] * (n - leaves - deg2)
        if sum(degrees) % 2:
            degrees[-1] = 2
        rng.shuffle(degrees)
        h5 = attach_h5_to_leaves(random_degree_graph(rng, degrees))
        _, g3, v2 = normalize_degree2(h5.graph_after)
        inst, _ = cographic_lines(g3)
        cases.append((inst, tuple(sorted(v2))))
        cases.append((inst, tuple(rng.sample(range(len(inst)), rng.randrange(1, len(inst))))))
    for blocks in range(2, 12):
        inst, _ = cographic_lines(bridged_chain(blocks))
        cases.append((inst, inst.ground()))
        low = [i for i, rk in enumerate(inst.line_ranks(inst.ground())) if rk < 2]
        cases.append((inst, tuple(rng.sample(low, rng.randrange(1, len(low) + 1)))))
    dropped = empty = 0
    for inst, idx in cases:
        seed = rng.getrandbits(32)
        got, ref = random.Random(seed), random.Random(seed)
        alive = _extract_by_inverse(inst, got, idx)
        assert alive == extraction_per_line(inst, ref, idx)
        assert got.getstate() == ref.getstate()
        ranks = inst.line_ranks(idx)
        dropped += sum(rk < 2 for rk in ranks)
        empty += max(ranks) < 2
    assert len(cases) >= 120 and dropped and empty >= 10


def direct_sum(rng, parts):
    """Random signed instances on disjoint coordinate ranges, their lines
    shuffled together, and the sum over parts of min(dim // 2, lines)."""
    blocks = [
        random_signed_instance(rng, rng.randrange(1, 5), rng.randrange(1, 6))
        for _ in range(parts)
    ]
    dim = sum(x.dim for x in blocks)
    lines = np.zeros((2, sum(len(x) for x in blocks), dim), dtype=np.int8)
    row = col = 0
    for x in blocks:
        lines[:, row : row + len(x), col : col + x.dim] = x._signed
        row, col = row + len(x), col + x.dim
    lines = lines[:, rng.sample(range(row), row)]
    bound = sum(min(x.dim // 2, len(x)) for x in blocks)
    return PolymatroidInstance(tuple(lines), dim, PrimeField()), bound


def test_block_ceiling_bounds_nu():
    """nu <= block ceiling <= min(dim // 2, |idx|) on direct sums of random
    signed instances and their subsets, with the sum over the parts as a
    bound on the whole; equality on bridged chains, whose blocks each hold
    a matching of one line."""
    rng = random.Random(612)
    tighter = 0
    for _ in range(200):
        inst, bound = direct_sum(rng, rng.randrange(1, 5))
        idx = sorted(rng.sample(range(len(inst)), rng.randrange(len(inst) + 1)))
        ceiling = _block_ceiling(inst, idx)
        assert nu_no_stop(inst, idx) <= ceiling <= min(inst.dim // 2, len(idx))
        assert _block_ceiling(inst, inst.ground()) <= bound
        tighter += ceiling < min(inst.dim // 2, len(idx))
    assert tighter
    for blocks in (2, 3):
        inst, _ = cographic_lines(bridged_chain(blocks))
        assert _block_ceiling(inst, inst.ground()) == nu_no_stop(inst) == blocks


def brute_battery(rng):
    """(instance, subset) pairs with nu at min(dim // 2, |subset|), at the
    block ceiling below it, and below both: direct sums of signed lines,
    cographic lines and their subsets, a ring of K4 blocks, and random and
    block-confined GF(2^w) lines."""
    for _ in range(60):
        inst, _ = direct_sum(rng, rng.randrange(1, 5))
        yield inst, sorted(rng.sample(range(len(inst)), rng.randrange(len(inst) + 1)))
    for n in (4, 8, 12, 16):
        inst, _ = cographic_lines(random_cubic(rng, n))
        yield inst, None
        yield inst, sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
    yield cographic_lines(bridged_chain(2))[0], None
    yield cographic_lines(k4_ring(3))[0], None
    for w in (8, 16, 32, 64):
        for _ in range(10):
            yield random_instance(rng, rng.randrange(1, 9), rng.randrange(1, 8), w=w), None
            yield blocked_ext_instance(rng, w), None


def test_bruteforce_matches_the_search_without_a_ceiling():
    """nu_bruteforce, which stops at the block ceiling, equals the search
    that grows every matching, over both fields; the battery reaches the
    block ceiling below dim // 2, and nu below the block ceiling, on each."""
    rng = random.Random(613)
    regimes = set()
    for inst, sub in brute_battery(rng):
        idx = list(inst.ground() if sub is None else sub)
        nu = nu_no_stop(inst, sub)
        assert nu_bruteforce(inst, sub) == nu, (inst.field, sub)
        ceiling = _block_ceiling(inst, idx)
        if nu == ceiling < min(inst.dim // 2, len(idx)):
            regimes.add((inst._signed is None, "at the block ceiling"))
        if nu < ceiling:
            regimes.add((inst._signed is None, "below it"))
    assert regimes == {
        (ext, regime) for ext in (False, True) for regime in ("at the block ceiling", "below it")
    }


def test_bruteforce_stops_once_it_reaches_the_ceiling(monkeypatch):
    """On 18 dense lines of dim 8 over GF(2^64) the first four lines form a
    matching of dim // 2 lines, so the search adds their 8 rows and stops;
    a search without the stop adds 16,318 rows on these lines."""
    fld = field(64)
    rng = random.Random(18)
    lines = [
        tuple(tuple(rng.randrange(1, fld.order) for _ in range(8)) for _ in "ab")
        for _ in range(18)
    ]
    inst = PolymatroidInstance(lines, 8, fld)
    adds = [0]
    add = RowBasis.add

    def counted(self, vec):
        adds[0] += 1
        return add(self, vec)

    monkeypatch.setattr(RowBasis, "add", counted)
    assert nu_bruteforce(inst) == 4
    assert adds[0] == 8


def test_signed_invariants_are_real_errors(monkeypatch, tmp_path, capsys):
    fld = PrimeField()
    # entries are signed values, not residues: p and 257 (1 once wrapped
    # to int8) are refused like 2
    for big in (2, fld.p, 257):
        with pytest.raises(ConsistencyError, match="outside"):
            PolymatroidInstance(([[1, big]], [[0, 1]]), 2, fld)
    with pytest.raises(ConsistencyError, match="does not match dim"):
        PolymatroidInstance(([[1, 0]], [[0, 1, 0]]), 2, fld)
    with pytest.raises(ConsistencyError, match="integer arrays"):
        PolymatroidInstance(([[1.0, 0.0]], [[0.0, 1.0]]), 2, fld)
    monkeypatch.setattr(ikcs.polymatroid, "SIGNED_LINE_LIMIT", 8)
    assert len(PolymatroidInstance(([[1, 0]] * 7, [[0, 1]] * 7), 2, fld)) == 7
    with pytest.raises(ValueError, match="exact signed-product limit"):
        PolymatroidInstance(([[1, 0]] * 8, [[0, 1]] * 8), 2, fld)
    g3 = random_cubic(random.Random(1), 8)

    def refuse(self):
        raise AssertionError("cycle space built before the size check")

    monkeypatch.setattr(Graph, "fundamental_cycles", refuse)
    with pytest.raises(ValueError, match="exact signed-product limit"):
        cographic_lines(g3)
    path = tmp_path / "cubic8.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in g3.edges))
    assert main(["min-set", "--k", "2", "--engine", "deg3", str(path)]) == 2
    assert "exact signed-product limit" in capsys.readouterr().err


@pytest.mark.parametrize("mangle, msg", [
    (lambda a, b: (a, b[:, :-1]), "does not match dim"),
    (lambda a, b: (a, b.astype(np.float64)), "integer arrays"),
], ids=["short-rows", "float"])
def test_malformed_gfp_lines_exit_three(monkeypatch, tmp_path, capsys, mangle, msg):
    """Only deg3 builds GF(p) lines, so a mis-shaped or non-integer pair
    is an internal fault (exit 3), not bad input (exit 2)."""
    def build(lines, dim, fld):
        return PolymatroidInstance(mangle(*lines), dim, fld)

    monkeypatch.setattr(ikcs.deg3, "PolymatroidInstance", build)
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(["min-set", "--k", "2", "--engine", "deg3", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("consistency failure: ")
    assert msg in out.err


def with_degenerate_lines(rng, inst):
    """The same instance with some lines zero and some of rank 1."""
    rows = inst.rows(inst.ground())
    zero = [0 * x for x in rows[0]]
    pairs = [[rows[2 * i], rows[2 * i + 1]] for i in inst.ground()]
    for pair in pairs:
        r = rng.random()
        if r < 0.15:
            pair[:] = [zero, zero]
        elif r < 0.3:
            pair[1] = pair[0]
        elif r < 0.4:
            pair[0] = zero
    if inst._signed is not None:
        a, b = np.array(pairs).transpose(1, 0, 2)
        return PolymatroidInstance((a, b), inst.dim, inst.field)
    return PolymatroidInstance(pairs, inst.dim, inst.field)


def scan_instances(rng):
    """Random signed GF(p) and GF(2^16) instances, dim 1 included."""
    for _ in range(30):
        lines, dim = rng.randrange(1, 16), rng.choice((1, 1, 2, 3, 5, 8))
        yield with_degenerate_lines(rng, random_signed_instance(rng, lines, dim))
        yield with_degenerate_lines(rng, random_instance(rng, lines, dim, w=16))


def test_independent_matches_row_basis():
    rng = random.Random(77)
    fld = PrimeField()

    def accepted(rows):
        basis = RowBasis(fld)
        return [i for i, row in enumerate(rows) if basis.add(row)]

    cases = [[], np.zeros((0, 4), dtype=np.int8), np.zeros((5, 3), dtype=np.int8),
             [[0]], [[1], [0], [2]]]
    for _ in range(60):
        inst = random_signed_instance(rng, rng.randrange(1, 12), rng.randrange(1, 9))
        cases.append(with_degenerate_lines(rng, inst).rows(inst.ground()))
        cases.append(reduced_rows(inst, inst.ground(), 0))
        count, dim = rng.randrange(1, 10), rng.randrange(1, 6)
        full_range = [[rng.randrange(fld.p) for _ in range(dim)] for _ in range(count)]
        # repeat some rows and some multiples of earlier ones
        for i in range(1, count):
            if rng.random() < 0.3:
                j = rng.randrange(i)
                full_range[i] = [x * (j + 2) % fld.p for x in full_range[j]]
        cases.append(full_range)
    for rows in cases:
        assert fld.independent(rows) == accepted(rows)
    assert field(16).independent([]) == [] and field(16).rank([]) == 0


def test_min_spanning_set_is_greedy_completion():
    """The spanning set is max_matching's output, from the same seed, plus
    each later line of the subset that adds one to the rank of the lines
    taken so far; no line adds two."""
    rng = random.Random(2718)
    for inst in scan_instances(rng):
        for sub in (None, [], sorted(rng.sample(inst.ground(), rng.randrange(len(inst) + 1)))):
            idx = inst.ground() if sub is None else sub
            seed = rng.getrandbits(32)
            matching = max_matching(inst, random.Random(seed), sub)
            basis = RowBasis(inst.field)
            assert all(basis.add(v) for v in inst.rows(matching))
            chosen = list(matching)
            for x in idx:
                if x not in matching:
                    gain = sum(basis.add(v) for v in inst.rows((x,)))
                    assert gain < 2
                    if gain:
                        chosen.append(x)
            assert min_spanning_set(inst, random.Random(seed), sub) == tuple(sorted(chosen))
            assert complete_matching(inst, matching, sub) == tuple(sorted(chosen))
            assert len(chosen) == inst.rank(idx) - len(matching)


def test_completion_rank_by_independent_eliminations():
    """`complete_matching` reads f(subset) and the spanning set's rank off
    its certifying scan; fresh eliminations agree over GF(p) and
    GF(2^8/16/32), and f(V2) = mu on normalized subcubic graphs, since
    G3 - V2 is the spine path, a forest."""
    rng = random.Random(1729)
    cases = list(matching_protocol_battery(rng))
    for _ in range(10):
        lines, dim = rng.randrange(1, 12), rng.choice((2, 3, 5, 8))
        signed = random_signed_instance(rng, lines, dim)
        cases.append((with_degenerate_lines(rng, signed), None))
        cases += [(random_instance(rng, lines, dim, w=w), None) for w in (8, 16, 32)]
    v2_cases = 0
    for inst, v2 in cases:
        if v2 is not None:
            assert inst.rank(v2) == inst.dim
            v2_cases += 1
        part = sorted(rng.sample(inst.ground(), rng.randrange(len(inst) + 1)))
        for sub in (v2, part):
            m = max_matching(inst, rng, sub)
            span = complete_matching(inst, m, sub)
            assert inst.rank(span) == inst.rank(sub)
            assert len(span) == inst.rank(sub) - len(m)
    assert v2_cases
    with pytest.raises(ValueError, match="outside the subset"):
        complete_matching(std_basis_instance(), (0,), [1, 2])


def test_spanning_set_refuses_a_matching_short_of_maximum(monkeypatch):
    inst = std_basis_instance()
    monkeypatch.setattr(ikcs.polymatroid, "max_matching", lambda *args, **kw: (0,))
    with pytest.raises(ConsistencyError, match="rank jumped by 2"):
        min_spanning_set(inst, rng=random.Random(1))


def block_diagonal_instance(rng, w=None):
    """Random lines on blocks of mixed sizes, over GF(p) (signed) or
    GF(2^w): the coordinates are permuted and the blocks' lines interleaved
    in line order.  Two to four blocks share one shape of 4 to 6
    coordinates and as many lines, so they run as one stack whose blocks
    keep different lines; one block is rank-deficient (its lines lie in a
    plane of its 4 coordinates), one holds a single line on 4 coordinates,
    and some lines of the other blocks are zero or of rank 1."""
    fld = PrimeField() if w is None else field(w)

    def entry():
        return rng.choice((-1, 0, 1)) if w is None else rng.randrange(fld.order)

    shape = rng.randrange(4, 7), rng.randrange(3, 7)
    blocks = [shape] * rng.randrange(2, 5)
    blocks += [(rng.randrange(1, 7), rng.randrange(1, 6)) for _ in range(rng.randrange(1, 4))]
    blocks += [(4, "plane"), (4, 1)]
    dim = sum(d for d, _ in blocks)
    perm = rng.sample(range(dim), dim)
    lines, start = [], 0
    for k, (d, count) in enumerate(blocks):
        coords = perm[start : start + d]
        start += d
        if count == "plane":  # a and b from {u, v, u + v}
            u, v = [0] * dim, [0] * dim
            u[coords[0]] = u[coords[1]] = 1
            v[coords[2]], v[coords[3]] = 1, fld.order - 1 if w else -1
            plane = [u, v, [x + y for x, y in zip(u, v)]]
            for _ in range(rng.randrange(1, 5)):
                lines.append((rng.choice(plane), rng.choice(plane), True))
            continue
        for _ in range(count):
            a, b = [0] * dim, [0] * dim
            for c in coords:
                a[c], b[c] = entry(), entry()
            lines.append((a, b, (d, count) == shape))
    rng.shuffle(lines)
    for i, (a, b, stacked) in enumerate(lines):
        r = rng.random()
        if not stacked and r < 0.15:
            lines[i] = ([0] * dim, [0] * dim, stacked)
        elif not stacked and r < 0.3:
            lines[i] = (a, a, stacked)
    if w is None:
        a, b = (np.array([ln[s] for ln in lines], dtype=np.int8) for s in (0, 1))
        return PolymatroidInstance((a.reshape(-1, dim), b.reshape(-1, dim)), dim, fld)
    return PolymatroidInstance([(tuple(a), tuple(b)) for a, b, _ in lines], dim, fld)


def test_block_inverses_match_the_whole_matrix_reference():
    """The inverses of the blocks' Y_k[S_k, S_k], stacked by shape, placed
    back on their coordinates, are the two-elimination inverse of the
    whole Y(t) (block diagonal, coordinates permuted): the same S and the
    same entries, 0 between blocks."""
    rng = random.Random(3101)
    fld = PrimeField()
    stacked = 0
    for _ in range(60):
        inst = block_diagonal_instance(rng)
        idx = tuple(rng.sample(range(len(inst)), len(inst)))
        t = _draw(fld.p, rng, len(idx))
        ref_s, ref_inv = principal_inverse_reference(split_skew_form(inst, idx, t))
        coords, held = ikcs.polymatroid._blocks(inst, idx)
        lines = np.asarray(idx)
        got = np.zeros((inst.dim, inst.dim), dtype=np.int64)
        s = []
        for items, rows in ikcs.polymatroid._block_stacks(inst, idx, lines):
            y = _skew_forms(rows[:, 0::2], rows[:, 1::2], t[items], fld.p)
            piv, inv = fld.principal_inverse(y)
            stacked += len(items) > 1
            for k in range(len(items)):
                # the block's coordinates, increasing, as its rows read them
                at = np.flatnonzero(coords == held[lines[items[k, 0]]])[piv[k]]
                s += at.tolist()
                got[np.ix_(at, at)] = inv[k, : len(at), : len(at)]
        assert sorted(s) == ref_s
        want = np.zeros_like(got)
        want[np.ix_(ref_s, ref_s)] = ref_inv
        assert np.array_equal(got, want)
    assert stacked


def test_block_extraction_matches_per_line_reference():
    """Survivors and random stream of the per-block extraction equal the
    per-line extraction over the whole inverse, on block-diagonal
    instances with permuted coordinates and interleaved lines, over every
    line and over subsets in random order."""
    rng = random.Random(3102)
    for _ in range(60):
        inst = block_diagonal_instance(rng)
        part = tuple(rng.sample(range(len(inst)), rng.randrange(1, len(inst) + 1)))
        for idx in (inst.ground(), part):
            seed = rng.getrandbits(32)
            got, ref = random.Random(seed), random.Random(seed)
            assert _extract_by_inverse(inst, got, idx) == extraction_per_line(inst, ref, idx)
            assert got.getstate() == ref.getstate()


@pytest.mark.parametrize("w", [None, 16])
def test_block_scan_matches_one_whole_pass(w):
    """The kept rows of the per-block scan are those of one `independent`
    pass over all the rows in scan order, for leading line sets that are
    matchings and for ones that are not."""
    rng = random.Random(3103)
    for _ in range(40):
        inst = block_diagonal_instance(rng, w)
        idx = tuple(rng.sample(range(len(inst)), len(inst)))
        fronts = [(), max_matching(inst, random.Random(rng.getrandbits(32)), idx)]
        fronts.append(tuple(rng.sample(idx, rng.randrange(len(idx) + 1))))
        for front in fronts:
            order, kept = ikcs.polymatroid._scan(inst, front, idx)
            assert order == list(front) + [i for i in idx if i not in set(front)]
            assert kept == inst.field.independent(inst.rows(order))


def subspace_instance(rng, lines, dim, rank, w=64):
    """Random lines in a random rank-dimensional subspace of GF(2^w)^dim."""
    fld = field(w)
    basis = [[rng.randrange(fld.order) for _ in range(dim)] for _ in range(rank)]

    def vector():
        out = [0] * dim
        for row in basis:
            c = rng.randrange(fld.order)
            out = [x ^ fld.mul(c, y) for x, y in zip(out, row)]
        return tuple(out)

    return PolymatroidInstance([(vector(), vector()) for _ in range(lines)], dim, fld)


def test_bruteforce_stops_at_the_rank_ceiling(monkeypatch):
    """18 lines of dim 8 in a 7-dimensional subspace over GF(2^64): nu = 3
    sits below the block ceiling 4 but meets the rank ceiling 7 // 2, so
    the search stops at its first matching of 3 lines once the greedy one
    falls short of 4.  It adds the 36 rows of the rank scan and a few dozen
    more; stopped only at the block ceiling it grows every matching."""
    inst = subspace_instance(random.Random(18), 18, 8, 7)
    idx = list(inst.ground())
    assert ikcs.polymatroid._block_ceiling(inst, idx) == 4
    assert ikcs.polymatroid._rank_ceiling(inst, idx) == 3
    adds = [0]
    add = RowBasis.add

    def counted(self, vec):
        adds[0] += 1
        return add(self, vec)

    monkeypatch.setattr(RowBasis, "add", counted)
    assert nu_bruteforce(inst) == 3
    assert adds[0] < 100


def test_rank_ceiling_bounds_nu():
    """nu <= rank ceiling <= block ceiling, and nu_bruteforce equals the
    search without a ceiling, on random subspace instances over GF(2^w)
    and on block-diagonal ones over both fields."""
    rng = random.Random(3104)
    below = 0
    for _ in range(40):
        dim = rng.randrange(2, 7)
        rank, w = rng.randrange(1, dim + 1), rng.choice((8, 32))
        inst = subspace_instance(rng, rng.randrange(1, 9), dim, rank, w)
        cases = [inst, block_diagonal_instance(rng), block_diagonal_instance(rng, 16)]
        for case in cases:
            if len(case) > 12:
                continue
            idx = list(case.ground())
            nu = nu_no_stop(case)
            rank_ceiling = ikcs.polymatroid._rank_ceiling(case, idx)
            assert nu <= rank_ceiling <= ikcs.polymatroid._block_ceiling(case, idx)
            assert nu_bruteforce(case) == nu
            below += rank_ceiling < ikcs.polymatroid._block_ceiling(case, idx)
    assert below


def extraction_rebuilt(inst, rng, idx):
    """`_extract_by_rank` from scratch: the same t (one per line of rank 2,
    in idx order) and the same S (the row basis of Y(t)), and at each line
    Y[S, S] rebuilt from the lines still kept, with no incremental update.
    Returns the survivors and S."""
    fld = inst.field
    lines = [i for i in idx if inst.rank((i,)) == 2]
    t = {i: fld.rand_nonzero(rng) for i in lines}

    def form(kept, coords):
        out = [[0] * len(coords) for _ in coords]
        for i in kept:
            a, b = inst.lines[i]
            for r, p in enumerate(coords):
                for c, q in enumerate(coords):
                    out[r][c] ^= fld.mul(t[i], fld.mul(a[p], b[q]) ^ fld.mul(b[p], a[q]))
        return out

    s = fld.independent(form(lines, range(inst.dim)))
    kept, alive = lines, []
    for i in lines:
        rest = [j for j in kept if j != i]
        if fld.rank(form(rest, s)) == len(s):
            kept = rest
        else:
            alive.append(i)
    return tuple(alive), s


def rank_extraction_battery(rng):
    """(instance, idx) pairs over GF(2^w), w in {8, 16, 32, 64}: random lines
    with zero forms mixed in (b = 0, b = a); lines on coordinates 0-2, where
    Y(t) has rank 2 and S is mostly {0, 1}, half of them with a on
    coordinate 2 alone, so that their forms miss S x S; and lines in a
    random subspace, whose nu falls below both ceilings.  idx is every
    line, or a random subset in random order."""

    def vector(dim, span):
        return tuple(rng.randrange(fld.order) if j in span else 0 for j in range(dim))

    for w in (8, 16, 32, 64):
        fld = field(w)
        for _ in range(12):
            dim = rng.randrange(3, 9)
            count = rng.randrange(2, 12)
            kind = rng.randrange(3)
            if kind == 2:
                lines = subspace_instance(rng, count, dim, rng.randrange(1, dim), w).lines
            elif kind == 1:
                lines = [
                    (vector(dim, rng.choice(((2,), range(3)))), vector(dim, range(3)))
                    for _ in range(count)
                ]
            else:
                lines = [(vector(dim, range(dim)), vector(dim, range(dim))) for _ in range(count)]
            lines = [
                (a, (0,) * dim) if (r := rng.random()) < 0.1 else (a, a) if r < 0.2 else (a, b)
                for a, b in lines
            ]
            inst = PolymatroidInstance(lines, dim, fld)
            yield inst, inst.ground()
            yield inst, tuple(rng.sample(range(count), rng.randrange(1, count + 1)))


def test_rank_extraction_matches_rebuilt_reference():
    """`_extract_by_rank` keeps the lines, and leaves the generator in the
    state, of the reference that rebuilds Y[S, S] at every line; when
    |S| = 2 nu the survivors are a certified matching of nu lines.  The
    battery has zero forms, forms that miss S x S and nu below both
    ceilings."""
    rng = random.Random(3535)
    cases = zero = missed = below = maximum = 0
    for inst, idx in rank_extraction_battery(rng):
        cases += 1
        seed = rng.getrandbits(32)
        got, ref = random.Random(seed), random.Random(seed)
        alive = ikcs.polymatroid._extract_by_rank(inst, got, idx)
        expected, s = extraction_rebuilt(inst, ref, idx)
        assert alive == expected
        assert got.getstate() == ref.getstate()
        supports = inst.alt_supports()
        zero += sum(not supports[i] for i in idx)
        missed += sum(
            bool(supports[i]) and not any(p in s and q in s for p, q, _ in supports[i])
            for i in idx
        )
        nu = nu_bruteforce(inst, idx)
        below += nu < _block_ceiling(inst, idx)
        if len(s) == 2 * nu:
            maximum += 1
            assert len(alive) == nu
            assert ikcs.polymatroid._certified(inst, alive, idx)
    assert zero and missed and below and maximum > cases * 3 // 4


def test_gf2w_matching_at_the_block_ceiling_ranks_no_trial(monkeypatch):
    """Over GF(2^w), as over GF(p) (`test_cubic_solve_eliminations`), a
    certified matching that reaches the block ceiling ranks none of the
    six nu trials `max_matching` draws: no `rank` call happens inside
    `_nu_ranks`.  Disjoint coordinate lines, dense lines at dim // 2 and
    lines on 6 of 8 coordinates, below dim // 2."""
    calls = rank_counter(monkeypatch)
    inside = [0]
    nu_ranks = ikcs.polymatroid._nu_ranks

    def counted(*args):
        before = calls[0]
        out = nu_ranks(*args)
        inside[0] += calls[0] - before
        return out

    monkeypatch.setattr(ikcs.polymatroid, "_nu_ranks", counted)
    rng = random.Random(36)
    fld = field(64)

    def lines(count, width):
        """count random lines of dim 8 on the first width coordinates"""
        vector = lambda: tuple(rng.randrange(fld.order) if j < width else 0 for j in range(8))
        return PolymatroidInstance([(vector(), vector()) for _ in range(count)], 8, fld)

    for inst in (std_basis_instance(), lines(12, 8), lines(10, 6)):
        for seed in range(3):
            m = max_matching(inst, random.Random(seed))
            assert len(m) == _block_ceiling(inst, inst.ground())
    assert inside[0] == 0
