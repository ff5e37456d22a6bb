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
stack of one.  The elimination is blocked: it finds the pivots of a panel of
`PANEL` columns one column at a time on a narrow copy, and the columns right
of the panel take its row operations in one `matmul`.  It never moves a row:
the pivot of a column is the first row nonzero there that is not yet a pivot
row, and the Gauss-Jordan form keeps the pivot rows where they lie.

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

from .graph import ConsistencyError

__all__ = [
    "gf2_rank",
    "GF2Ext",
    "RowBasis",
    "IRREDUCIBLE",
    "PrimeField",
    "ConsistencyError",
]

PANEL = 16  # columns per panel of `PrimeField._eliminate`
TAIL_CELLS = 1 << 18  # trailing cells per product of a panel's update


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
        (count, n, m); a stack gets one list of pivot columns per matrix,
        and each step below runs once for the whole stack, every matrix
        with its own pivots.  A matrix is a stack of one.

        Rows never move.  The pivot of column c is the first row nonzero
        there that is not yet a pivot row; it is scaled to a leading 1 and
        cleared from every row nonzero in column c, itself included.
        Without `cols` only the pivot columns are sought: the pivot row
        leaves play as 0, so the rows still nonzero are the ones in play.
        With `cols` the pass is Gauss-Jordan, giving the reduced echelon
        form in place, and pivots are sought in the first `cols` columns
        only: the clearing reaches the earlier pivot rows too, the pivot
        row is written back after it, and a mask keeps it out of later
        selections.  The columns past `cols` must start as the identity,
        and identity column q stays e_q until row q becomes a pivot row.

        The columns are taken in panels of `PANEL`.  A panel's row
        operations run column by column on a work copy: the panel's columns
        and one tracking column per pivot, set to e_q when row q becomes the
        pivot.  Together these operations are one transform M that differs
        from the identity only in the columns of the panel's pivot rows Q,
        and those columns of M are the tracking columns T.  So, with the
        panel written back, the columns right of it take M in one `matmul`
        for the stack: a[:, tr] <- (a[:, tr], rows Q zeroed) + T a[Q, tr],
        T zero-padded to the panel's largest pivot count (`_trail`).  The
        product only reads the rows where T is nonzero, in their union over
        the stack, and the columns where a row of Q is nonzero, as no other
        entry changes but Q's, and it runs in column chunks of at most
        `TAIL_CELLS` entries.  Without `cols` Q's rows of T are 0.  With `cols` this product also
        writes T into identity columns Q, as a[Q] is e_q there, and a
        forward pass no wider than one panel makes none.

        In exact arithmetic these are the row operations of a
        column-at-a-time pass, so a comes out the same.
        """
        p = self.p
        stack = a if a.ndim == 3 else a[None]
        count, n, m = stack.shape
        pivots: list[list[int]] = [[] for _ in range(count)]
        if not count * n:
            return pivots if a.ndim == 3 else pivots[0]
        width = m if cols is None else cols
        # rows by their index in the whole stack: row i n + j is row j of
        # matrix i (a view, as the stack is C-contiguous)
        rows = stack.reshape(count * n, m)
        starts = np.arange(0, count * n, n)
        base = starts.tolist()
        r = [0] * count  # each matrix's pivots so far
        free = None if cols is None else np.ones(count * n, dtype=bool)
        found = 0
        for c0 in range(0, width, PANEL):
            if found == count * n:
                break
            w = min(PANEL, width - c0)
            r0 = list(r)
            track = PANEL if m > c0 + w else 0
            work = np.zeros((count * n, w + track), dtype=np.int64)
            work[:, :w] = rows[:, c0 : c0 + w]
            q_mat, q_slot, q_row = [], [], []
            for c in range(w):
                if found == count * n:
                    break
                col = work[:, c]
                hit = col.nonzero()[0]
                # each matrix's pivot: its first row nonzero in column c
                # and not yet a pivot row
                nonzero = (hit if free is None else hit[free[hit]]).tolist()
                if not nonzero:
                    continue
                sel, at = [], []
                for i in range(count):
                    j = bisect_left(nonzero, base[i])
                    if j < len(nonzero) and nonzero[j] < base[i] + n:
                        sel.append(i)
                        at.append(nonzero[j])
                if not sel:
                    continue
                if count == 1:
                    # one pivot row: a row index, no gather
                    pos, scale = at[0], self.inv(int(col[at[0]]))
                else:
                    pos, scale = at, np.array([self.inv(x) for x in col[at].tolist()])[:, None]
                stop = w
                if track:
                    slots = [r[i] - r0[i] for i in sel]
                    work[pos, w + slots[0] if count == 1 else [w + x for x in slots]] = 1
                    stop += max(slots) + 1
                    q_slot += slots
                row = work[pos, c:stop] * scale
                row %= p
                # clear column c from the rows nonzero there of the matrices
                # with a pivot, each with its own matrix's pivot row; a pivot
                # row among them comes out 0, and with cols it is written after
                piv = row
                if count > 1:
                    which = hit // n
                    if len(sel) < count:
                        slot = np.full(count, -1)
                        slot[sel] = range(len(sel))
                        which = slot[which]
                        hit, which = hit[which >= 0], which[which >= 0]
                    piv = row.take(which, axis=0)
                every = len(hit) == count * n
                block = work[:, c:stop] if every else work[hit, c:stop]
                prod = block[:, :1] * piv
                block -= prod
                _reduce(block, p, prod)
                if not every:
                    work[hit, c:stop] = block
                if free is not None:
                    work[pos, c:stop] = row
                    free[pos] = False
                q_mat += sel
                q_row += at
                for i in sel:
                    pivots[i].append(c0 + c)
                    r[i] += 1
                found += len(sel)
            if not q_row:
                continue
            rows[:, c0 : c0 + w] = work[:, :w]
            if track:
                t = work[:, w : w + max(q_slot) + 1]
                self._trail(rows, starts, t, (q_mat, q_slot, q_row), c0 + w)
        return pivots if a.ndim == 3 else pivots[0]

    def _trail(self, rows, starts, t, pivots, lo_col: int) -> None:
        """The columns from lo_col on of the stacked rows of `_eliminate`
        (matrix i from row starts[i] on) take one panel's transform:
        a <- (a, rows Q zeroed) + T a[Q].  pivots lists Q as (matrix, slot,
        row) columns; T is t, matrix i's pivot of slot j in its column j,
        zero-padded."""
        q_mat, q_slot, q_row = pivots
        count, n, kmax = len(starts), len(rows) // len(starts), t.shape[1]
        q = [[x] * kmax for x in starts.tolist()]  # each matrix's Q, padded
        for i, j, x in zip(q_mat, q_slot, q_row):
            q[i][j] = x
        top = rows[q, lo_col:]
        rows[q_row, lo_col:] = 0
        # only the rows where T is nonzero (Q among them if its rows of T are
        # not 0), in their union over the stack, and the columns where a row
        # of Q is nonzero change
        union = t.reshape(count, n, kmax).any(axis=(0, 2)).nonzero()[0]
        hot = top.any(axis=(0, 1)).nonzero()[0]
        if not len(union) or not len(hot):
            return
        pick = slice(None) if len(union) == n else (starts[:, None] + union).reshape(-1)
        tp = t[pick].reshape(count, len(union), kmax)
        # a run of columns is sliced, as a fancy-indexed gather of it is
        # slower (a dense Gauss-Jordan hot set is a run but not the range)
        run = len(hot) == hot[-1] - hot[0] + 1
        top = top[:, :, hot[0] : hot[-1] + 1] if run else top[:, :, hot]
        rsel = pick if run or len(union) == n else pick[:, None]
        step = max(1, TAIL_CELLS // (count * len(union)))
        for lo in range(0, len(hot), step):
            cut = lo_col + hot[lo : lo + step]
            at = rsel, slice(cut[0], cut[-1] + 1) if run else cut
            part = rows[at]
            new = self.matmul(tp, top[:, :, lo : lo + step], part.reshape(count, len(union), -1))
            rows[at] = new.reshape(part.shape)

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
        reduced echelon form; R_k and T_k are their pivot rows, by pivot
        column.  Rows never move in the pass, so pivot j's row is the one
        whose first nonzero in R is column S_j, and the rows zero in R
        count as past the last column.
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
        at = np.arange(count)[:, None, None]
        cols = np.argsort(~piv, axis=1, kind="stable")  # S, then N
        rest = cols[:, None, int(ks.min()) if count else 0 :]
        # each row's leading zeros in R, n for a zero row: the rows by
        # pivot column, pivot rows first
        lead = n - np.logical_or.accumulate(aug[:, :, :n] != 0, axis=2).sum(axis=2)
        row = np.argsort(lead, axis=1, kind="stable")[:, :k, None]
        t_n = aug[at, row, n + rest] * ~piv[at[:, :, 0], rest[:, 0]][:, None, :]
        inv = aug[at, row, n + cols[:, None, :k]]
        inv += self.matmul(t_n, np.swapaxes(aug[at, row, rest], 1, 2)).astype(np.int64)
        inv *= both
        inv %= p
        r = np.where(inside, np.arange(1, k + 1), 0)
        y_s = ys[at, cols[:, :k, None], cols[:, None, :k]] * both
        if not np.array_equal(self.matmul(y_s, self.matmul(inv, r[:, :, None]))[:, :, 0], r):
            raise ConsistencyError("principal inverse fails its check y[S, S] inv r = r")
        return (s, inv) if np.ndim(y) == 3 else (s[0], inv[0])


def _reduce(x, p: int, scratch) -> None:
    """x %= p in place, scratch an array of x's shape.  numpy divides int64
    by a scalar through a multiplication, a few times faster per entry
    than its remainder, which still wins below about 1,000 entries, where
    the cost is per call."""
    if x.size < 1024:
        np.remainder(x, p, out=x)
        return
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch


@lru_cache(maxsize=None)
def field(w: int) -> GF2Ext:
    """Shared field instance for a supported width."""
    return GF2Ext(w)
