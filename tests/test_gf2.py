import random

import numpy as np
import pytest

from ikcs.gf2 import ConsistencyError, GF2Ext, IRREDUCIBLE, PrimeField, field, gf2_rank
from genutil import eliminate_full_width, prime_matmul, principal_inverse_reference


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
    """(kind, skew matrix) over GF(p): ones whose pivot search must swap
    row 0 with a far row (a zero leading block; a permuted block-diagonal
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


def test_principal_inverse_with_swaps_and_deficient_rank():
    """The identity block's triangular shape survives row swaps: S and the
    inverse are the reference's, and the elimination leaves the [R | T] of
    a full-width Gauss-Jordan pass, on every kind of skew matrix."""
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
        assert fld._eliminate(aug, cols=n) == eliminate_full_width(ref, n)
        assert np.array_equal(aug, ref), kind


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
    full, and ones whose pivot search swaps), gets from one elimination what
    each matrix gets from the references on its own: S and the inverse of
    `principal_inverse_reference`, zero-padded, the [R | T] of a full-width
    Gauss-Jordan pass, and the independent rows of `_rank_mod_p`."""
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
            assert pivots[k] == eliminate_full_width(ref, n)
            assert np.array_equal(aug[k], ref)
        kept = fld.independent(stack)
        assert [len(x) for x in kept] == [_rank_mod_p(y.tolist(), p) for y in ys]
        assert kept == [fld.independent(y) for y in ys]
