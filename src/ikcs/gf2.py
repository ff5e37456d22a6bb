"""Linear algebra over GF(2), its extension fields GF(2^w), and GF(p).

GF(2) vectors are plain ints used as bitmasks (`gf2_rank`).  Extension field
elements are ints below 2**w; addition is xor, and every supported width (1,
8, 16, 32, 64) shares one carry-less product and one extended-Euclid
inverse.

GF(p) for the prime p = 2^31 - 1 works on int64 numpy arrays: a product of
two reduced elements stays below 2^62, so elimination reduces after every
multiplication.  `PrimeField.matmul` is the one exact product of two full-range
matrices: float64 products of 16-bit halves over inner chunks of 32.

Both fields answer `independent(rows)`, the indices of the rows that are
independent of the rows before them, and `rank`, the count of those rows:
GF(2^w) by feeding a fresh `RowBasis`, GF(p) by one `_eliminate` of the
transposed matrix (`_eliminate` is the one GF(p) elimination;
`principal_inverse` runs it as Gauss-Jordan by passing `cols`).  `RowBasis`
is the one incremental basis, for either field: each field supplies the row
operation v - c row (`sub_scaled`), xor over GF(2^w) and mod p over GF(p).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gf2_rank",
    "GF2Ext",
    "RowBasis",
    "IRREDUCIBLE",
    "PrimeField",
    "ConsistencyError",
]


class ConsistencyError(RuntimeError):
    """A randomized certificate or an internal invariant failed its recheck."""


# Low-weight irreducible polynomials over GF(2), one per supported width.
IRREDUCIBLE = {
    1: 0b10,  # x: GF(2)[x]/(x) is GF(2) itself
    8: 0x11B,
    16: 0x1002B,
    32: 0x1_0000_008D,
    64: 0x1_0000_0000_0000_001B,
}


def gf2_rank(rows: list[int]) -> int:
    """Rank of a set of GF(2) row vectors given as bitmask ints."""
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


class GF2Ext:
    """Arithmetic in GF(2^w) with a fixed irreducible modulus."""

    def __init__(self, w: int):
        if w not in IRREDUCIBLE:
            raise ValueError(f"no built-in modulus for w={w}")
        self.w = w
        self.modulus = IRREDUCIBLE[w]
        self.order = 1 << w
        self.taps = [k for k in range(w) if self.modulus >> k & 1]

    def mul(self, a: int, b: int) -> int:
        """Carry-less product, one shifted a per set bit of b; bits from w
        up fold down by x^w = sum of x^k over the modulus's lower `taps`."""
        r = 0
        while b:
            low = b & -b
            r ^= a * low
            b ^= low
        while r >> self.w:
            high, r = r >> self.w, r & (self.order - 1)
            for k in self.taps:
                r ^= high << k
        return r

    def inv(self, a: int) -> int:
        """Inverse by the extended Euclidean algorithm on polynomials.

        Invariants: g1 a = u and g2 a = v modulo the modulus; each step
        cancels the leading term of the longer of u and v.
        """
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^w)")
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            if not u:
                raise ZeroDivisionError(f"{a:#x} shares a factor with the modulus")
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def rand_nonzero(self, rng) -> int:
        return rng.randrange(1, self.order)

    def sub_scaled(self, v: list[int], c: int, row: list[int]) -> list[int]:
        """v - c row (subtraction is xor)."""
        return [x ^ self.mul(c, y) for x, y in zip(v, row)]

    def independent(self, rows) -> list[int]:
        """Indices of the rows a fresh `RowBasis` accepts."""
        basis = RowBasis(self)
        return [i for i, row in enumerate(rows) if basis.add(row)]

    def rank(self, mat) -> int:
        """Rank of a dense matrix with entries in this field."""
        return len(self.independent(mat))


class RowBasis:
    """Incremental row basis over a GF2Ext or PrimeField; each row has a
    unique pivot, scaled to 1 when the row is stored."""

    def __init__(self, fld: GF2Ext | PrimeField):
        self.field = fld
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def copy(self) -> "RowBasis":
        out = RowBasis(self.field)
        out.rows = [list(r) for r in self.rows]
        out.pivots = list(self.pivots)
        return out

    def add(self, vec) -> bool:
        """Insert vec if independent of the current basis; report success."""
        f = self.field
        v = [int(x) % f.order for x in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = f.sub_scaled(v, c, row)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        self.rows.append([f.mul(inv, x) for x in v])
        self.pivots.append(piv)
        return True


class PrimeField:
    """Arithmetic and dense linear algebra in GF(p), p = 2^31 - 1.

    Matrices are int64 numpy arrays with entries reduced into [0, p).
    """

    p = (1 << 31) - 1
    order = p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def sub_scaled(self, v: list[int], c: int, row: list[int]) -> list[int]:
        """v - c row, reduced mod p."""
        p = self.p
        return [(x - c * y) % p for x, y in zip(v, row)]

    def _eliminate(self, a, cols: int | None = None) -> list[int]:
        """Row-reduce a in place; return its pivot columns.

        Each pivot row is scaled to a leading 1 once, then cleared from the
        rows below it.  The rows below to clear are the pivot search's
        other hits: a swap only moves a row that is zero in column c.

        With `cols` given the pass is Gauss-Jordan: each pivot row is
        cleared from the rows above it too, giving the reduced echelon
        form, and pivots are sought in the first `cols` columns only.
        The columns past them must then start as the identity, and the row
        operations carry them along.  A swap of rows r and k also swaps
        identity columns r and k, so every row i >= r is zero from identity
        column r on but for a 1 in its own column i; pivot row r is then
        nonzero only in identity columns 0..r, and each row operation stops
        there.  The identity columns are put back in order at the end.
        These are the row operations of a full-width pass, so a comes out
        the same.
        """
        p = self.p
        n, m = a.shape
        pivots: list[int] = []
        order = None if cols is None else list(range(m - cols))
        r = 0
        for c in range(m if cols is None else cols):
            if r == n:
                break
            nz = a[r:, c].nonzero()[0]
            if not len(nz):
                continue
            k = r + int(nz[0])
            stop = m if cols is None else cols + r + 1
            if k != r:
                # the 1s at identity columns r and k stay put: the rows
                # and those two columns swap together
                end = m if cols is None else cols + r
                a[[r, k], :end] = a[[k, r], :end]
                if order is not None:
                    order[r], order[k] = order[k], order[r]
            row = a[r, c:stop] * self.inv(int(a[r, c])) % p
            a[r, c:stop] = row
            hit = nz[1:] + r
            if cols is not None:
                hit = np.concatenate([a[:r, c].nonzero()[0], hit])
            if len(hit):
                a[hit, c:stop] = (a[hit, c:stop] - a[hit, c, None] * row) % p
            pivots.append(c)
            r += 1
        if order is not None:
            a[:, cols + np.array(order)] = a[:, cols:].copy()
        return pivots

    def matmul(self, a, b, c=None) -> np.ndarray:
        """c + a @ b mod p (c defaults to 0), as float64 in [0, p), for
        integer-valued arrays with entries in [0, p).

        b is split into 16-bit halves and the inner dimension into chunks
        of 32, so each chunk's float64 products sum below
        32 * 2^31 * 2^16 = 2^52 and are exact.  Since 2^31 = 1 mod p,
        x - floor(x / 2^31) p is x mod 2^31 plus x // 2^31: exact, and
        below 2^31 + 2^22 for x < 2^53, so the running sum is reduced that
        way after every chunk and moved into [0, p) at the end.
        """
        p = float(self.p)
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        hi = np.floor(b * 2.0**-16)
        lo = b - hi * 65536.0
        shape = (a.shape[0], b.shape[1])
        out = np.zeros(shape) if c is None else np.array(c, dtype=np.float64)
        q = np.empty(shape)

        def reduce(x):
            np.multiply(x, 2.0**-31, out=q)
            np.floor(q, out=q)
            np.multiply(q, p, out=q)
            np.subtract(x, q, out=x)

        for i in range(0, a.shape[1], 32):
            part = a[:, i : i + 32]
            t = part @ hi[i : i + 32]
            reduce(t)
            t *= 65536.0
            out += t
            out += part @ lo[i : i + 32]
            reduce(out)
        np.subtract(out, p, out=out, where=out >= p)
        return out

    def independent(self, rows) -> list[int]:
        """Indices of the rows independent of the rows before them: the
        pivot columns of the transposed matrix."""
        a = np.array(np.transpose(rows), dtype=np.int64, order="C")
        if a.size == 0:
            return []
        a %= self.p
        return self._eliminate(a)

    def rank(self, mat) -> int:
        """Rank of an integer matrix, its entries read mod p."""
        return len(self.independent(mat))

    def principal_inverse(self, y) -> tuple[list[int], np.ndarray]:
        """(S, inverse of y[S, S]) for S the pivot columns of a skew matrix y.

        One Gauss-Jordan pass over y's columns of [y | I] gives the pivot
        columns S, a basis of the column space, and T with T y = R, the
        reduced echelon form; R_k and T_k are their first k = |S| rows.
        Every column of y is y[:, S] R_k, so skewness gives
        y = R_k^T y[S, S] R_k, and T_k y = R_k then reads
        (T_k R_k^T) y[S, S] R_k = R_k; R_k has full row rank, hence
        y[S, S]^-1 = T_k R_k^T = T_k[:, S] + T_k[:, N] R_k[:, N]^T, N the
        non-pivot columns.  The result is checked: k is even, as the rank of
        a skew matrix is (an odd y[S, S] is singular, so this is checked
        first), and y[S, S] (inv r) = r for r = (1, ..., k).
        """
        p = self.p
        n = len(y)
        aug = np.zeros((n, 2 * n), dtype=np.int64)
        aug[:, :n] = y
        aug[:, n:] = np.eye(n, dtype=np.int64)
        s = self._eliminate(aug, cols=n)
        k = len(s)
        if k % 2:
            raise ConsistencyError("alternating matrix with odd rank")
        rest = np.ones(n, dtype=bool)
        rest[s] = False
        r_k, t_k = aug[:k, :n], aug[:k, n:]
        inv = (t_k[:, s] + self.matmul(t_k[:, rest], r_k[:, rest].T).astype(np.int64)) % p
        r = np.arange(1, k + 1)
        back = self.matmul(y[np.ix_(s, s)], self.matmul(inv, r[:, None]))
        if not np.array_equal(back[:, 0], r):
            raise ConsistencyError("principal inverse fails its check y[S, S] inv r = r")
        return s, inv


@lru_cache(maxsize=None)
def field(w: int) -> GF2Ext:
    """Shared field instance for a supported width."""
    return GF2Ext(w)
