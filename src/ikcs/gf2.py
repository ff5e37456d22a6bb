"""Linear algebra over GF(2), its extension fields GF(2^w), and GF(p).

GF(2) vectors are plain ints used as bitmasks.  Extension field elements are
ints below 2**w; addition is xor, multiplication is polynomial multiplication
modulo a fixed irreducible polynomial.  For w <= 16 multiplication goes
through log/antilog tables, built lazily once per width.

GF(p) for the prime p = 2^31 - 1 works on int64 numpy arrays: a product of
two reduced elements stays below 2^62, so elimination reduces after every
multiplication, and `matmul` splits one operand into 16-bit halves so no sum
of products can overflow.  Products whose one side has entries in
{-1, 0, 1} need no split; `polymatroid` computes those exactly in float64.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gf2_rank",
    "Gf2Basis",
    "GF2Ext",
    "IRREDUCIBLE",
    "PrimeField",
    "ConsistencyError",
]


class ConsistencyError(RuntimeError):
    """A randomized certificate or an internal invariant failed its recheck."""


# Low-weight irreducible polynomials over GF(2), one per supported width.
IRREDUCIBLE = {
    1: 0b10,  # x (placeholder; w=1 arithmetic never reduces)
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


class Gf2Basis:
    """Incrementally maintained row basis over GF(2)."""

    def __init__(self) -> None:
        self.rows: list[int] = []

    def reduce(self, v: int) -> int:
        for b in self.rows:
            v = min(v, v ^ b)
        return v

    def add(self, v: int) -> bool:
        """Insert v if independent of the current basis; report success."""
        v = self.reduce(v)
        if v:
            self.rows.append(v)
            self.rows.sort(reverse=True)
            return True
        return False

    def copy(self) -> "Gf2Basis":
        out = Gf2Basis()
        out.rows = list(self.rows)
        return out

    def __len__(self) -> int:
        return len(self.rows)


class GF2Ext:
    """Arithmetic in GF(2^w) with a fixed irreducible modulus."""

    def __init__(self, w: int, modulus: int | None = None):
        if modulus is None:
            if w not in IRREDUCIBLE:
                raise ValueError(f"no built-in modulus for w={w}")
            modulus = IRREDUCIBLE[w]
        if modulus.bit_length() != w + 1:
            raise ValueError("modulus degree does not match w")
        self.w = w
        self.modulus = modulus
        self.order = 1 << w
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if 1 < w <= 16:
            self._build_tables()

    def _mul_slow(self, a: int, b: int) -> int:
        w, mod = self.w, self.modulus
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a >> w:
                a ^= mod
            b >>= 1
        return r

    def _build_tables(self) -> None:
        n = self.order - 1
        g = self._find_generator()
        exp = [1] * (2 * n)
        log = [0] * self.order
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self._mul_slow(x, g)
        if x != 1:
            raise ConsistencyError("generator order wrong")
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        self._exp, self._log = exp, log
        self._np_exp = np.array(exp, dtype=np.int64)
        self._np_log = np.array(log, dtype=np.int64)

    def _find_generator(self) -> int:
        n = self.order - 1
        primes = []
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                primes.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            primes.append(m)
        for g in range(2, self.order):
            if all(self._pow_slow(g, n // p) != 1 for p in primes):
                return g
        raise ConsistencyError("no generator found")

    def _pow_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return r

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.w == 1:
            return a & b
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^w)")
        if self.w == 1:
            return 1
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(n - self._log[a]) % n]
        # a^(2^w - 2) by square and multiply
        return self._pow_slow(a, self.order - 2)

    def rand(self, rng) -> int:
        return rng.randrange(self.order)

    def rand_nonzero(self, rng) -> int:
        return rng.randrange(1, self.order)

    def rank(self, mat) -> int:
        """Rank of a dense matrix with entries in this field."""
        if self._exp is not None:
            return self._rank_tables(mat)
        rows = [[int(x) for x in r] for r in mat if any(r)]
        if not rows:
            return 0
        ncols = len(rows[0])
        rk = 0
        for col in range(ncols):
            piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            inv = self.inv(rows[rk][col])
            if inv != 1:
                rows[rk] = [self.mul(inv, x) for x in rows[rk]]
            for i in range(len(rows)):
                if i != rk and rows[i][col]:
                    f = rows[i][col]
                    piv_row = rows[rk]
                    rows[i] = [x ^ self.mul(f, y) for x, y in zip(rows[i], piv_row)]
            rk += 1
            if rk == len(rows):
                break
        return rk

    def _rank_tables(self, mat) -> int:
        """Vectorized elimination using the log/antilog tables."""
        a = np.array(mat, dtype=np.int64)
        if a.size == 0:
            return 0
        n, m = a.shape
        period = self.order - 1
        log, exp = self._np_log, self._np_exp
        r = 0
        for c in range(m):
            if r == n:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                a[[r, p]] = a[[p, r]]
            piv_row = a[r]
            inv_log = (period - int(log[a[r, c]])) % period
            below = a[r + 1:]
            hit = np.nonzero(below[:, c])[0]
            if hit.size:
                coef_log = (log[below[hit, c]] + inv_log) % period
                prod = exp[coef_log[:, None] + log[piv_row][None, :]]
                prod[:, piv_row == 0] = 0
                below[hit] ^= prod
            r += 1
        return r


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

    def rand_nonzero(self, rng) -> int:
        return rng.randrange(1, self.p)

    def matmul(self, a, b):
        """a @ b mod p, with b split into 16-bit halves.

        Each partial product is below 2^31 * 2^16, so sums of up to 2^16
        terms fit in int64.
        """
        if a.shape[-1] > 1 << 16:
            raise ValueError("inner dimension too large for int64 GF(p) products")
        p = self.p
        lo = a @ (b & 0xFFFF) % p
        hi = a @ (b >> 16) % p
        return (lo + (hi << 16)) % p

    def _eliminate(self, a, jordan: bool = False) -> list[int]:
        """Row-reduce a in place; return its pivot columns.

        Each pivot row is scaled to a leading 1 once, then cleared from the
        rows below it (and above it too when `jordan`, giving the reduced
        echelon form).
        """
        p = self.p
        n, m = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(m):
            if r == n:
                break
            nz = a[r:, c].nonzero()[0]
            if not len(nz):
                continue
            k = r + int(nz[0])
            if k != r:
                a[[r, k]] = a[[k, r]]
            row = a[r, c:] * self.inv(int(a[r, c])) % p
            a[r, c:] = row
            if jordan:
                hit = a[:, c].nonzero()[0]
                hit = hit[hit != r]
            else:
                hit = a[r + 1:, c].nonzero()[0] + (r + 1)
            if len(hit):
                a[hit, c:] = (a[hit, c:] - a[hit, c, None] * row) % p
            pivots.append(c)
            r += 1
        return pivots

    def rank(self, mat) -> int:
        a = np.array(mat, dtype=np.int64) % self.p
        if a.size == 0:
            return 0
        return len(self._eliminate(a))

    def principal_inverse(self, y) -> tuple[list[int], np.ndarray]:
        """(S, inverse of y[S, S]) for S the pivot columns of a skew matrix y.

        The columns S are a basis of the column space, and for a skew (or
        symmetric) matrix the principal submatrix on such a set is
        nonsingular, so |S| = rank(y).
        """
        s = self._eliminate(np.array(y, dtype=np.int64))
        k = len(s)
        aug = np.zeros((k, 2 * k), dtype=np.int64)
        aug[:, :k] = y[np.ix_(s, s)]
        aug[:, k:] = np.eye(k, dtype=np.int64)
        if self._eliminate(aug, jordan=True) != list(range(k)):
            raise ConsistencyError("principal submatrix on a row basis is singular")
        return s, aug[:, k:]


@lru_cache(maxsize=None)
def field(w: int) -> GF2Ext:
    """Shared field instance for a supported width."""
    return GF2Ext(w)
