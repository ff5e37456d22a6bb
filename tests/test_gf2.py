import random

import numpy as np
import pytest

from ikcs.gf2 import PANEL, ConsistencyError, GF2Ext, IRREDUCIBLE, PrimeField, field, gf2_rank
from genutil import (
    eliminate_full_width,
    gauss_jordan_in_place,
    prime_matmul,
    principal_inverse_reference,
)


def _polymulmod(a, b, mod, w):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a >> w:
            a ^= mod
        b >>= 1
    return r


def _polypow(a, e, mod, w):
    r = 1
    while e:
        if e & 1:
            r = _polymulmod(r, a, mod, w)
        a = _polymulmod(a, a, mod, w)
        e >>= 1
    return r


def _gcd_poly(a, b):
    while b:
        while a.bit_length() >= b.bit_length() > 0:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


@pytest.mark.parametrize("w", [8, 16, 32, 64])
def test_moduli_irreducible_rabin(w):
    # x^(2^w) == x mod f, and gcd(x^(2^(w/p)) - x, f) == 1 for prime p | w
    mod = IRREDUCIBLE[w]
    assert mod.bit_length() == w + 1
    x = 0b10
    assert _polypow(x, 1 << w, mod, w) == x
    primes = {p for p in (2, 3, 5, 7) if w % p == 0}
    for p in primes:
        h = _polypow(x, 1 << (w // p), mod, w) ^ x
        assert _gcd_poly(mod, h) == 1


@pytest.mark.parametrize("w", [1, 8, 16, 32, 64])
def test_field_axioms(w):
    fld = field(w)
    rng = random.Random(10_000 + w)
    for _ in range(300):
        a, b, c = (rng.randrange(fld.order) for _ in range(3))
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
        assert fld.mul(a, 1) == a
        assert fld.mul(a, b) == _polymulmod(a, b, fld.modulus, w)
        if a:
            assert 0 < fld.inv(a) < fld.order
            assert fld.mul(a, fld.inv(a)) == 1
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        fld.inv(0)


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0b011, 0b011, 0b110]) == 2
    assert gf2_rank([0, 0]) == 0


def test_gf2_rank_matches_field_rank():
    # reference: the same rows as 0/1 vectors, ranked by GF(2)'s own basis
    fld = field(1)
    rng = random.Random(42)
    for _ in range(100):
        width = rng.randrange(1, 13)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(1, 10))]
        bits = [[(r >> j) & 1 for j in range(width)] for r in rows]
        assert gf2_rank(rows) == fld.rank(bits)


@pytest.mark.parametrize("w", [1, 8, 16, 32, 64])
def test_rank_random_vs_reference(w):
    # reference: elimination with this file's own multiply
    fld = field(w)
    rng = random.Random(w * 31)
    for _ in range(60):
        n, m = rng.randrange(1, 8), rng.randrange(1, 8)
        mat = [[rng.randrange(fld.order) for _ in range(m)] for _ in range(n)]
        assert fld.rank(mat) == _rank_reference(fld, [row[:] for row in mat])


def _rank_reference(fld, mat):
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = fld.inv(mat[rank][c])
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                coef = _polymulmod(mat[i][c], inv, fld.modulus, fld.w)
                mat[i] = [
                    x ^ _polymulmod(coef, y, fld.modulus, fld.w)
                    for x, y in zip(mat[i], mat[rank])
                ]
        rank += 1
    return rank


def test_rank_singular_structures():
    fld = field(16)
    ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert fld.rank(ident) == 5
    assert fld.rank([[0, 0], [0, 0]]) == 0
    assert fld.rank([[3, 5, 7], [3, 5, 7], [1, 0, 0]]) == 2


def test_unsupported_width_rejected():
    with pytest.raises(ValueError):
        GF2Ext(24)


def _rank_mod_p(mat, p):
    """Reference GF(p) rank on Python ints."""
    mat = [[x % p for x in row] for row in mat]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] * inv % p
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _random_skew(rng, p, r, lines):
    """sum_i t_i (a_i b_i^T - b_i a_i^T) with +-1 entries, as Python ints."""
    y = [[0] * r for _ in range(r)]
    for _ in range(lines):
        a = [rng.choice((0, 1, -1)) for _ in range(r)]
        b = [rng.choice((0, 1, -1)) for _ in range(r)]
        t = rng.randrange(1, p)
        for i in range(r):
            for j in range(r):
                y[i][j] = (y[i][j] + t * (a[i] * b[j] - b[i] * a[j])) % p
    return y


def test_prime_field_scalars():
    fld = PrimeField()
    p = fld.p
    assert p == 2**31 - 1 and fld.order == p
    rng = random.Random(31)
    for _ in range(200):
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert 0 < a < p and fld.mul(a, b) == a * b % p
        assert fld.mul(a, fld.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        fld.inv(0)


def test_prime_rank_and_matmul_vs_reference():
    fld = PrimeField()
    p = fld.p
    rng = random.Random(2024)
    for _ in range(150):
        n, m, k = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(0, 6)
        # a product of n x k and k x m factors has rank <= k
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        right = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
        mat = [
            [sum(left[i][j] * right[j][c] for j in range(k)) % p for c in range(m)]
            for i in range(n)
        ]
        assert fld.rank(mat) == _rank_mod_p(mat, p) <= k
        if k:
            prod = prime_matmul(np.array(left, dtype=np.int64),
                                np.array(right, dtype=np.int64))
            assert prod.tolist() == mat
    assert fld.rank([[0, 0], [0, 0]]) == 0
    assert fld.rank([[1, 2], [2, 4], [p - 1, p - 2]]) == 1


def test_prime_principal_inverse_of_skew():
    fld = PrimeField()
    p = fld.p
    rng = random.Random(77)
    for _ in range(120):
        r = rng.randrange(1, 10)
        y = _random_skew(rng, p, r, rng.randrange(0, 6))
        s, inv = fld.principal_inverse(np.array(y, dtype=np.int64))
        assert len(s) == _rank_mod_p(y, p) and len(s) % 2 == 0
        sub = np.array([[y[i][j] for j in s] for i in s], dtype=np.int64).reshape(len(s), len(s))
        assert prime_matmul(sub, inv).tolist() == np.eye(len(s), dtype=np.int64).tolist()


def test_split_product_matches_reference():
    """`PrimeField.matmul` against the int64 reference, with and without an
    addend, across the 32-wide inner chunks and at the largest entries."""
    fld = PrimeField()
    p = fld.p
    rng = np.random.default_rng(58)
    for inner in (0, 1, 2, 31, 32, 33, 64, 65, 100):
        for rows, cols in ((1, 1), (7, 3), (40, 65)):
            a = rng.integers(0, p, size=(rows, inner))
            b = rng.integers(0, p, size=(inner, cols))
            c = rng.integers(0, p, size=(rows, cols))
            ref = prime_matmul(a, b) if inner else np.zeros((rows, cols), dtype=np.int64)
            got = fld.matmul(a, b)
            assert got.dtype == np.float64 and np.array_equal(got, ref)
            assert np.array_equal(fld.matmul(a, b, c), (ref + c) % p)
        # entries just below p, low halves all ones: 64-wide chunks would
        # carry sums past 2^53 here
        a = p - 1 - rng.integers(0, 50, size=(8, inner))
        b = np.minimum((p - 1 - rng.integers(0, 1 << 17, size=(inner, 8))) | 0xFFFF, p - 1)
        c = p - 1 - rng.integers(0, 50, size=(8, 8))
        ref = prime_matmul(a, b) if inner else np.zeros((8, 8), dtype=np.int64)
        assert np.array_equal(fld.matmul(a, b, c), (ref + c) % p)


def _skew_of_rank(rng, p, n, half):
    """sum of `half` random forms a b^T - b a^T on GF(p)^n, rows and columns
    permuted: rank 2 half for generic a and b."""
    y = np.zeros((n, n), dtype=np.int64)
    for _ in range(half):
        a, b = (np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64) for _ in "ab")
        x = prime_matmul(a[:, None], b[None, :])
        y = (y + x - x.T) % p
    perm = rng.sample(range(n), n)
    return y[np.ix_(perm, perm)]


def test_one_pass_inverse_matches_two_eliminations():
    """S and the inverse are the two-elimination reference's, on skew
    matrices of every even rank from 0 to full."""
    fld = PrimeField()
    p = fld.p
    rng = random.Random(59)
    for n in (1, 2, 5, 8, 13):
        for half in range(n // 2 + 1):
            for _ in range(3):
                y = _skew_of_rank(rng, p, n, half)
                s, inv = fld.principal_inverse(y)
                assert len(s) == 2 * half == _rank_mod_p(y.tolist(), p)
                ref_s, ref_inv = principal_inverse_reference(y)
                assert s == ref_s
                assert inv.dtype == np.int64 and np.array_equal(inv, ref_inv)


def _skew_kinds(rng, p):
    """(kind, skew matrix) over GF(p): ones whose pivot rows lie far from
    row 0 or out of order (a zero leading block; a permuted block-diagonal
    skew), rank-deficient ones and random full ones."""
    for n in (2, 3, 6, 9, 14):
        for lead in range(1, n):
            y = _skew_of_rank(rng, p, n, n // 2)
            y[:lead, :] = 0
            y[:, :lead] = 0
            yield "zero leading block", y
        blocks = np.zeros((n, n), dtype=np.int64)
        for b in range(0, n - 1, 2):
            t = rng.randrange(1, p)
            blocks[b, b + 1], blocks[b + 1, b] = t, p - t
        perm = rng.sample(range(n), n)
        yield "permuted block-diagonal", blocks[np.ix_(perm, perm)]
        for half in range(n // 2):
            yield "rank-deficient", _skew_of_rank(rng, p, n, half)
        upper = np.triu(np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)]), 1)
        yield "random", (upper - upper.T) % p


def test_principal_inverse_with_far_pivots_and_deficient_rank():
    """On every kind of skew matrix, pivot rows far from row 0 and out of
    order included, S and the inverse are the two-elimination reference's,
    and the elimination leaves the [R | T] of the swapless column-at-a-
    time Gauss-Jordan pass, rows in place."""
    fld = PrimeField()
    p = fld.p
    for kind, y in _skew_kinds(random.Random(61), p):
        n = len(y)
        s, inv = fld.principal_inverse(y)
        ref_s, ref_inv = principal_inverse_reference(y)
        assert s == ref_s and np.array_equal(inv, ref_inv), kind
        aug = np.zeros((n, 2 * n), dtype=np.int64)
        aug[:, :n] = y
        aug[:, n:] = np.eye(n, dtype=np.int64)
        ref = aug.copy()
        assert fld._eliminate(aug, cols=n) == gauss_jordan_in_place(ref, n)
        assert np.array_equal(aug, ref), kind


def test_gauss_jordan_rows_never_move():
    """Skew matrices whose row 0 is zero, so every pivot row lies below it,
    alone and in a stack of mixed ranks: after the Gauss-Jordan pass row 0
    is still 0 in y's columns and e_0 in the identity's, each pivot row
    holds in its own place the row of R with its pivot column, as the
    swapping reference finds it, and [R | T] is the swapless pass's."""
    fld = PrimeField()
    p = fld.p
    rng = random.Random(64)
    n = PANEL + 5
    ys = []
    for half in (n // 2, 3, 0, 1, n // 2):
        y = _skew_of_rank(rng, p, n, half)
        y[0, :] = 0
        y[:, 0] = 0
        ys.append(y)
    for stack in [y[None] for y in ys] + [np.array(ys)]:
        aug = np.zeros((len(stack), n, 2 * n), dtype=np.int64)
        aug[:, :, :n], aug[:, :, n:] = stack, np.eye(n, dtype=np.int64)
        got = fld._eliminate(aug, cols=n)
        for k, y in enumerate(stack):
            assert not aug[k, 0, :n].any()
            assert aug[k, 0, n] == 1 and not aug[k, 0, n + 1 :].any()
            ref = np.zeros((n, 2 * n), dtype=np.int64)
            ref[:, :n], ref[:, n:] = y, np.eye(n, dtype=np.int64)
            swapped = ref.copy()
            assert got[k] == eliminate_full_width(swapped, n)
            r_rows = aug[k, :, :n].any(axis=1).nonzero()[0]
            assert len(r_rows) == len(got[k])
            for i in r_rows:
                lead = int(aug[k, i, :n].nonzero()[0][0])
                assert np.array_equal(aug[k, i, :n], swapped[got[k].index(lead), :n])
            assert got[k] == gauss_jordan_in_place(ref, n) and np.array_equal(aug[k], ref)


def test_principal_inverse_checks_its_result(monkeypatch):
    """One wrong entry in the Gauss-Jordan transform, which lands in exactly
    one entry of the inverse, is refused."""
    fld = PrimeField()
    eliminate = PrimeField._eliminate

    def corrupt(self, a, cols=None):
        pivots = eliminate(self, a, cols)
        if cols is not None and pivots[0]:
            a[0, 0, cols + pivots[0][0]] = (a[0, 0, cols + pivots[0][0]] + 1) % self.p
        return pivots

    y = _skew_of_rank(random.Random(60), fld.p, 6, 2)
    fld.principal_inverse(y)
    monkeypatch.setattr(PrimeField, "_eliminate", corrupt)
    with pytest.raises(ConsistencyError, match="principal inverse fails its check"):
        fld.principal_inverse(y)


def test_stacks_match_their_matrices_one_by_one():
    """A stack of skew matrices of one shape, of mixed ranks (zero, deficient,
    full, and ones whose pivot rows lie far from row 0), gets from one
    elimination what each matrix gets from the references on its own: S
    and the inverse of `principal_inverse_reference`, zero-padded, the
    [R | T] of the swapless Gauss-Jordan pass, and the independent rows of
    `_rank_mod_p`."""
    fld = PrimeField()
    p = fld.p
    rng = random.Random(62)
    by_size: dict[int, list] = {}
    for _, y in _skew_kinds(rng, p):
        by_size.setdefault(len(y), []).append(y)
    for n, ys in by_size.items():
        ys.append(np.zeros((n, n), dtype=np.int64))
        rng.shuffle(ys)
        stack = np.array(ys)
        s, inv = fld.principal_inverse(stack)
        aug = np.zeros((len(ys), n, 2 * n), dtype=np.int64)
        aug[:, :, :n] = stack
        aug[:, :, n:] = np.eye(n, dtype=np.int64)
        pivots = fld._eliminate(aug, cols=n)
        for k, y in enumerate(ys):
            ref_s, ref_inv = principal_inverse_reference(y)
            size = len(ref_s)
            assert s[k] == ref_s and np.array_equal(inv[k, :size, :size], ref_inv)
            assert not inv[k, size:].any() and not inv[k, :, size:].any()
            ref = np.zeros((n, 2 * n), dtype=np.int64)
            ref[:, :n], ref[:, n:] = y, np.eye(n, dtype=np.int64)
            assert pivots[k] == gauss_jordan_in_place(ref, n)
            assert np.array_equal(aug[k], ref)
        kept = fld.independent(stack)
        assert [len(x) for x in kept] == [_rank_mod_p(y.tolist(), p) for y in ys]
        assert kept == [fld.independent(y) for y in ys]


def _forward_reference(a) -> list[int]:
    """Forward elimination on a in place, one column at a time: the pivot is
    the first row nonzero in column c, and every row nonzero there, the
    pivot row included, takes the scaled pivot row off, so the pivot row
    comes out 0 and rows never move.  The reference for `_eliminate`
    without `cols`."""
    fld = PrimeField()
    p = fld.p
    pivots: list[int] = []
    for c in range(a.shape[1]):
        nz = a[:, c].nonzero()[0]
        if not len(nz):
            continue
        row = a[nz[0]] * fld.inv(int(a[nz[0], c])) % p
        for i in nz:
            a[i] = (a[i] - a[i, c] * row) % p
        pivots.append(c)
    return pivots


def _panel_kinds(rng, p, n):
    """(kind, n x n matrix) over GF(p) for the panel-boundary battery: zero
    leading blocks, one wider than a panel so that a whole panel finds no
    pivot; permuted block-diagonal skews, whose pivot rows lie out of order
    across panels; rank-deficient skews; sparse matrices; and random full
    ones."""
    for lead in {1, min(PANEL + 2, n - 2), n - 2} - {0}:
        y = _skew_of_rank(rng, p, n, n // 2)
        y[:lead, :] = 0
        y[:, :lead] = 0
        yield f"zero leading block of {lead}", y
    blocks = np.zeros((n, n), dtype=np.int64)
    for b in range(0, n - 1, 2):
        t = rng.randrange(1, p)
        blocks[b, b + 1], blocks[b + 1, b] = t, p - t
    perm = rng.sample(range(n), n)
    yield "permuted block-diagonal", blocks[np.ix_(perm, perm)]
    for half in (1, n // 4, n // 2 - 1):
        yield "rank-deficient", _skew_of_rank(rng, p, n, half)
    for density in (0.05, 0.2):
        mask = np.array([[rng.random() < density for _ in range(n)] for _ in range(n)])
        vals = np.array([[rng.randrange(1, p) for _ in range(n)] for _ in range(n)])
        upper = np.triu(mask * vals, 1)
        yield f"sparse skew {density}", (upper - upper.T) % p
        yield f"sparse {density}", mask * vals
    yield "random", np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", [PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1, 3 * PANEL + 5])
def test_panel_boundaries(n):
    """Sizes around the panel width, single matrices and a stack of mixed
    ranks: Gauss-Jordan gives the pivots and [R | T] of the swapless
    column-at-a-time pass, forward elimination the pivots and result of the column-at-a-
    time one, on the matrices and on their n x (2n + 3) widenings, and
    `independent` keeps `_rank_mod_p` rows; the principal inverse of each
    skew matrix is the two-elimination reference's."""
    fld = PrimeField()
    p = fld.p
    rng = random.Random(n)
    kinds = list(_panel_kinds(rng, p, n)) + [("zero", np.zeros((n, n), dtype=np.int64))]
    for kind, y in kinds:
        aug = np.zeros((n, 2 * n), dtype=np.int64)
        aug[:, :n], aug[:, n:] = y, np.eye(n, dtype=np.int64)
        ref = aug.copy()
        assert fld._eliminate(aug, cols=n) == gauss_jordan_in_place(ref, n), kind
        assert np.array_equal(aug, ref), kind
        wide = np.concatenate([y, y[:, ::-1] * 3 % p, np.ones((n, 3), dtype=np.int64)], axis=1)
        for x in (y, wide):
            got, ref = x.copy(), x.copy()
            assert fld._eliminate(got) == _forward_reference(ref), kind
            assert np.array_equal(got, ref), kind
        kept = fld.independent(y)
        assert len(kept) == _rank_mod_p(y.tolist(), p), kind
        assert kept == gauss_jordan_in_place(np.ascontiguousarray(y.T), n), kind
        if np.array_equal(y, -y.T % p):
            s, inv = fld.principal_inverse(y)
            ref_s, ref_inv = principal_inverse_reference(y)
            assert s == ref_s and np.array_equal(inv, ref_inv), kind
    # one stack of every kind, mixed ranks, in a shuffled order
    rng.shuffle(kinds)
    ys = np.array([y for _, y in kinds])
    aug = np.zeros((len(ys), n, 2 * n), dtype=np.int64)
    aug[:, :, :n], aug[:, :, n:] = ys, np.eye(n, dtype=np.int64)
    got = fld._eliminate(aug, cols=n)
    fwd = ys.copy()
    got_fwd = fld._eliminate(fwd)
    for k, y in enumerate(ys):
        ref = np.zeros((n, 2 * n), dtype=np.int64)
        ref[:, :n], ref[:, n:] = y, np.eye(n, dtype=np.int64)
        assert got[k] == gauss_jordan_in_place(ref, n) and np.array_equal(aug[k], ref)
        ref = y.copy()
        assert got_fwd[k] == _forward_reference(ref) and np.array_equal(fwd[k], ref)
    assert fld.independent(ys) == [fld.independent(y) for y in ys]


def test_empty_shapes_in_both_fields():
    """A matrix with no rows or no columns has rank 0 and no independent
    row in GF(2^16) and in GF(p); an empty skew matrix has S = [] and a
    0 x 0 inverse."""
    fp, f16 = PrimeField(), field(16)
    for shape in ((3, 0), (0, 3), (0, 0)):
        mat = np.zeros(shape, dtype=np.int64)
        for fld in (fp, f16):
            assert fld.rank(mat) == 0 and fld.independent(mat) == []
            assert fld.rank(mat.tolist()) == 0
    assert fp.rank([[], [], []]) == f16.rank([[], [], []]) == 0
    assert fp._eliminate(np.zeros((2, 0, 4), dtype=np.int64)) == [[], []]
    s, inv = fp.principal_inverse(np.zeros((0, 0), dtype=np.int64))
    assert s == [] and inv.shape == (0, 0)
    s, inv = fp.principal_inverse(np.zeros((2, 0, 0), dtype=np.int64))
    assert s == [[], []] and inv.shape == (2, 0, 0)


def test_one_panel_forward_makes_no_product(monkeypatch):
    """Forward elimination of a matrix no wider than a panel runs no
    `PrimeField.matmul`, so small ranks pay no trailing update; one panel
    wider takes one product."""
    calls = [0]
    matmul = PrimeField.matmul

    def counted(self, *args):
        calls[0] += 1
        return matmul(self, *args)

    monkeypatch.setattr(PrimeField, "matmul", counted)
    fld = PrimeField()
    rng = np.random.default_rng(5)
    for rows, dim in ((1, 1), (4, 3), (PANEL, 40), (PANEL, PANEL), (6, 2)):
        mat = rng.integers(0, 3, size=(rows, dim))
        assert fld.rank(mat) == _rank_mod_p(mat.tolist(), fld.p)
        assert fld.independent(np.stack([mat, mat])) == [fld.independent(mat)] * 2
    assert calls[0] == 0
    mat = rng.integers(1, 3, size=(PANEL + 1, 40))
    assert fld.rank(mat) == _rank_mod_p(mat.tolist(), fld.p)
    assert calls[0] == 1


def test_trailing_product_in_chunks(monkeypatch):
    """With chunks of a few columns the trailing product gives the same
    pivots and [R | T] as the column-at-a-time references, on a stack and on single
    matrices of every panel-boundary kind."""
    monkeypatch.setattr("ikcs.gf2.TAIL_CELLS", 3 * (2 * PANEL + 1))
    fld = PrimeField()
    p = fld.p
    n = 2 * PANEL + 1
    ys = [y for _, y in _panel_kinds(random.Random(63), p, n)]
    for stack in [np.array(ys)] + [y[None] for y in ys]:
        aug = np.zeros((len(stack), n, 2 * n), dtype=np.int64)
        aug[:, :, :n], aug[:, :, n:] = stack, np.eye(n, dtype=np.int64)
        got, fwd = fld._eliminate(aug, cols=n), stack.copy()
        got_fwd = fld._eliminate(fwd)
        for k, y in enumerate(stack):
            ref = np.zeros((n, 2 * n), dtype=np.int64)
            ref[:, :n], ref[:, n:] = y, np.eye(n, dtype=np.int64)
            assert got[k] == gauss_jordan_in_place(ref, n) and np.array_equal(aug[k], ref)
            ref = y.copy()
            assert got_fwd[k] == _forward_reference(ref) and np.array_equal(fwd[k], ref)
