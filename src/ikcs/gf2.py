"""Linear algebra over GF(2), its extension fields GF(2^w), and GF(p).

GF(2) vectors are plain ints used as bitmasks (`gf2_rank`).  Extension field
elements are ints below 2**w; addition is xor, and every supported width (1,
8, 16, 32, 64) shares one carry-less product and one extended-Euclid
inverse.

GF(p) for the prime p = 2^31 - 1 works on int64 numpy arrays: a product of
two reduced elements stays below 2^62, so elimination reduces after every
multiplication.  `PrimeField.matmul` is the one exact product of two full-range
matrices: float64 products of 16-bit halves over inner chunks of 32.  Every
GF(p) routine takes one matrix or a stack of equal-shape matrices, shape
(count, n, m), and runs each step once for the whole stack; a matrix is a
stack of one.

Both fields answer `independent(rows)`, the indices of the rows that are
independent of the rows before them, and `rank`, the count of those rows:
GF(2^w) by feeding a fresh `RowBasis`, GF(p) by one `_eliminate` of the
transposed matrix (`_eliminate` is the one GF(p) elimination;
`principal_inverse` runs it as Gauss-Jordan by passing `cols`).  `RowBasis`
is the one incremental basis, for either field: each field supplies the row
operation v - c row (`sub_scaled`), xor over GF(2^w) and mod p over GF(p).
"""
from __future__ import annotations

from bisect import bisect_left
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

    def _eliminate(self, a, cols: int | None = None) -> list:
        """Row-reduce a in place; return its pivot columns.

        a is one matrix or a C-contiguous stack of them, shape
        (count, n, m); a stack gets one list of pivot columns per matrix.
        Each step below runs once for the whole stack, every matrix with
        its own pivot row, found among the nonzero rows of the stack's
        column c.  A matrix is a stack of one.

        Each pivot row is scaled to a leading 1 and cleared from the rows
        nonzero in column c, gathered over the whole stack.  Without `cols`
        these are few, and each takes its own matrix's pivot row; with
        `cols` they are most rows, so each matrix gathers its rows in their
        union over the stack (those 0 in column c take a multiple of 0) and
        its pivot row broadcasts over them.

        Without `cols` only the pivot columns are sought: the pivot is the
        first row nonzero in column c, rows stay where they are, and the
        pivot row, cleared too, leaves play as 0, so the rows still nonzero
        are the ones in play.

        With `cols` the pass is Gauss-Jordan, giving the reduced echelon
        form, and pivots are sought in the first `cols` columns only: the
        pivot is the first nonzero row at or after r, the matrix's next
        pivot row, a swap brings it up to r, moving a row that is zero in
        column c, and it is cleared from the rows above it too.  The
        columns past `cols` must start as the identity, and the row
        operations carry them along.  A swap of rows r and k also swaps
        identity columns r and k, so every row i >= r is zero from identity
        column r on but for a 1 in its own column i; pivot row r is then
        nonzero only in identity columns 0..r, and each row operation stops
        past the largest such r of the stack.  The identity columns are
        put back in order at the end.  These are the row operations of a
        full-width pass, so a comes out the same.
        """
        p = self.p
        stack = a if a.ndim == 3 else a[None]
        count, n, m = stack.shape
        width = m if cols is None else cols
        # rows and entries by their index in the whole stack: row i n + j
        # is row j of matrix i (views, as the stack is C-contiguous)
        rows, cells = stack.reshape(count * n, m), stack.reshape(-1)
        starts = np.arange(0, count * n, n)
        base = starts.tolist()
        r = [0] * count  # each matrix's pivots so far
        pivots: list[list[int]] = [[] for _ in range(count)]
        order = None if cols is None else [list(range(m - cols)) for _ in range(count)]
        found = top = 0
        for c in range(width):
            if found == count * n:
                break
            hit = rows[:, c].nonzero()[0]
            if not len(hit):
                continue
            # each matrix's pivot: its first nonzero row in column c, at or
            # after r with cols
            nonzero = hit.tolist()
            sel, at, ks = [], [], []
            for i in range(count):
                start = base[i] if cols is None else base[i] + r[i]
                j = bisect_left(nonzero, start)
                if j < len(nonzero) and nonzero[j] < base[i] + n:
                    sel.append(i)
                    at.append(nonzero[j] if cols is None else start)
                    ks.append(nonzero[j])
            if not sel:
                continue
            stop = m
            if cols is not None:
                swap = [(x, y) for x, y in zip(at, ks) if x != y]
                if swap:
                    # rows r and k swap, and so do the 1s at identity columns
                    # r and k, which puts them back where they were
                    there = [g for pair in swap for g in pair]
                    rows[there] = rows[[g for pair in swap for g in pair[::-1]]]
                    units = [g * m + cols + h % n for x, y in swap
                             for g, h in ((x, x), (x, y), (y, y), (y, x))]
                    cells[units] = [1, 0] * (2 * len(swap))
                    for x, y in swap:
                        mine, x, y = order[x // n], x % n, y % n
                        mine[x], mine[y] = mine[y], mine[x]
                top = min(top + 1, n)
                stop = cols + top
            at = np.array(at)
            row = rows[at, c:stop]
            row *= np.array([self.inv(x) for x in row[:, 0].tolist()])[:, None]
            row %= p
            # clear column c from the rows nonzero there (read before any
            # swap, after which row k is 0 there) of the matrices with a
            # pivot; a pivot row among them comes out 0, and with cols it
            # is written after
            if cols is None:
                # few rows: each takes its own matrix's pivot row
                which = hit // n
                if len(sel) < count:
                    slot = np.full(count, -1)
                    slot[sel] = range(len(sel))
                    which = slot[which]
                    hit, which = hit[which >= 0], which[which >= 0]
                block = rows[hit, c:stop]
                block -= block[:, :1] * row.take(which, axis=0)
                np.remainder(block, p, out=block)
                rows[hit, c:stop] = block
            else:
                # most rows: each matrix's rows in the union over the stack
                # form one block, its pivot row broadcast over it
                union = np.bincount(hit % n, minlength=n).nonzero()[0]
                first = starts if len(sel) == count else starts[sel]
                pick = (first[:, None] + union).reshape(-1)
                block = rows[pick, c:stop].reshape(len(sel), len(union), -1)
                work = block[:, :, :1] * row[:, None, :]
                np.subtract(block, work, out=work)
                np.remainder(work, p, out=work)
                rows[pick, c:stop] = work.reshape(len(pick), -1)
                rows[at, c:stop] = row
            for i in sel:
                pivots[i].append(c)
                r[i] += 1
            found += len(sel)
        if order is not None:
            back = np.argsort(order, axis=1)
            stack[:, :, cols:] = np.take_along_axis(stack[:, :, cols:], back[:, None, :], axis=2)
        return pivots if a.ndim == 3 else pivots[0]

    def matmul(self, a, b, c=None) -> np.ndarray:
        """c + a @ b mod p (c defaults to 0), as float64 in [0, p), for
        integer-valued arrays with entries in [0, p): two matrices, or two
        stacks of as many matrices.

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
        shape = a.shape[:-1] + b.shape[-1:]
        out = np.zeros(shape) if c is None else np.array(c, dtype=np.float64)
        q = np.empty(shape)

        def reduce(x):
            np.multiply(x, 2.0**-31, out=q)
            np.floor(q, out=q)
            np.multiply(q, p, out=q)
            np.subtract(x, q, out=x)

        for i in range(0, a.shape[-1], 32):
            part = a[..., i : i + 32]
            t = part @ hi[..., i : i + 32, :]
            reduce(t)
            t *= 65536.0
            out += t
            out += part @ lo[..., i : i + 32, :]
            reduce(out)
        np.subtract(out, p, out=out, where=out >= p)
        return out

    def independent(self, rows) -> list:
        """Indices of the rows independent of the rows before them: the
        pivot columns of the transposed matrix.  A stack of matrices,
        shape (count, rows, dim), gets one list per matrix from one
        `_eliminate` of the stack."""
        a = np.asarray(rows)
        if a.ndim < 2:
            return []
        a = np.array(np.swapaxes(a, -1, -2), dtype=np.int64, order="C")
        a %= self.p
        return self._eliminate(a)

    def rank(self, mat) -> int:
        """Rank of an integer matrix, its entries read mod p."""
        return len(self.independent(mat))

    def principal_inverse(self, y) -> tuple[list, np.ndarray]:
        """(S, inverse of y[S, S]) for S the pivot columns of a skew matrix y;
        a stack of skew matrices, shape (count, n, n), gets one S per matrix
        and a stack of inverses from one `_eliminate`, each zero-padded to
        the largest |S|.

        One Gauss-Jordan pass over y's columns of [y | I] gives the pivot
        columns S, a basis of the column space, and T with T y = R, the
        reduced echelon form; R_k and T_k are their first k = |S| rows.
        Every column of y is y[:, S] R_k, so skewness gives
        y = R_k^T y[S, S] R_k, and T_k y = R_k then reads
        (T_k R_k^T) y[S, S] R_k = R_k; R_k has full row rank, hence
        y[S, S]^-1 = T_k R_k^T = T_k[:, S] + T_k[:, N] R_k[:, N]^T, N the
        non-pivot columns.  In a stack, S and N are gathered per matrix
        and padded to the widest, the padding read as 0.  The result is
        checked: k is even, as the rank of a skew matrix is (an odd
        y[S, S] is singular, so this is checked first), and
        y[S, S] (inv r) = r for r = (1, ..., k).
        """
        p = self.p
        ys = np.asarray(y)[None] if np.ndim(y) == 2 else np.asarray(y)
        count, n, _ = ys.shape
        aug = np.zeros((count, n, 2 * n), dtype=np.int64)
        aug[:, :, :n] = ys
        aug[:, :, n:] = np.eye(n, dtype=np.int64)
        s = self._eliminate(aug, cols=n)
        ks = np.array([len(x) for x in s], dtype=np.intp)
        if (ks % 2).any():
            raise ConsistencyError("alternating matrix with odd rank")
        k = int(ks.max()) if count else 0
        inside = np.arange(k) < ks[:, None]
        both = inside[:, :, None] & inside[:, None, :]
        piv = np.zeros((count, n), dtype=bool)
        piv[np.repeat(np.arange(count), ks), [c for x in s for c in x]] = True
        at, row = np.arange(count)[:, None, None], np.arange(k)[:, None]
        cols = np.argsort(~piv, axis=1, kind="stable")  # S, then N
        rest = cols[:, None, int(ks.min()) if count else 0 :]
        t_k, r_k = aug[:, :k, n:], aug[:, :k, :n]
        t_n = t_k[at, row, rest] * ~piv[at[:, :, 0], rest[:, 0]][:, None, :]
        inv = t_k[at, row, cols[:, None, :k]]
        inv += self.matmul(t_n, np.swapaxes(r_k[at, row, rest], 1, 2)).astype(np.int64)
        inv *= both
        inv %= p
        r = np.where(inside, np.arange(1, k + 1), 0)
        y_s = ys[at, cols[:, :k, None], cols[:, None, :k]] * both
        if not np.array_equal(self.matmul(y_s, self.matmul(inv, r[:, :, None]))[:, :, 0], r):
            raise ConsistencyError("principal inverse fails its check y[S, S] inv r = r")
        return (s, inv) if np.ndim(y) == 3 else (s[0], inv[0])


@lru_cache(maxsize=None)
def field(w: int) -> GF2Ext:
    """Shared field instance for a supported width."""
    return GF2Ext(w)
