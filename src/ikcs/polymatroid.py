"""Linear 2-polymatroids over GF(2^w) or GF(p) and matroid parity.

An instance is a list of lines, each spanned by two vectors in F^dim; the
rank function f(S) is the dimension of the span of all vectors of S.  A
matching is a set M with f(M) = 2|M|; nu is the maximum matching size, rho
the minimum size of a spanning set (f(S) = f(ground)), and nu + rho = f(V)
(Gallai-type identity).

nu is computed two ways: exhaustive search over matchings (matchings form an
independence system, so depth-first growth with a basis is exact), and the
randomized algebraic route: the skew matrix Y(t) = sum_i t_i
(a_i b_i^T - b_i a_i^T) has rank 2 nu for generic t, and never more, so
random t over a large field gives a one-sided estimate with failure
probability O(lines / field size) per trial (Lovasz 1979).

GF(p) instances, which the degree-3 solver builds, have signed lines (entries
in {-1, 0, 1} before reduction mod p), stored once as int8 numpy arrays:
every product with a line as one operand is exact in float64 or int64
without splitting, and a maximum matching comes from one inverse (Cheung,
Lau and Leung, "Algebraic algorithms for linear matroid parity problems",
TALG 2014).  Y(t) is block diagonal over the coordinate blocks of the lines
(`_blocks`), so the nu trials' ranks, the inverse, its updates and the
certifying scan run per block, blocks of one shape as one stack through
the field's stacked routines (`_block_stacks`): no GF(p) matrix is wider
than its block.  GF(2^w) instances, which only `polymatroid-debug` and
the tests build, run on Python ints through `gf2.GF2Ext`: Y(t) is
assembled entry by entry and ranked whole (dim <= `MAX_DIM`), f over
GF(2) itself (w = 1) is a bitmask rank, and a maximum matching comes from
the same deletions on the same fixed S, each checked by ranking Y[S, S].

Over either field nu has one ceiling, `_block_ceiling`: nu trials whose
known lower bound reaches it rank nothing, and nu_bruteforce (growing
matchings with `gf2.RowBasis`) stops there, or at the tighter
`_rank_ceiling` once its greedy matching falls short.  One `independent`
scan of the matching's rows and then the other lines' rows, block by
block, certifies f(M) = 2|M|, picks the greedy completion of M to a
minimum spanning set and counts its rank (`_scan`).
"""
from __future__ import annotations

import math
import random

import numpy as np

from .gf2 import (
    ConsistencyError,
    GF2Ext,
    IRREDUCIBLE,
    PrimeField,
    RowBasis,
    field as shared_field,
    gf2_rank,
)

__all__ = [
    "PolymatroidInstance",
    "ConsistencyError",
    "nu_bruteforce",
    "nu_algebraic",
    "max_matching",
    "min_spanning_set",
    "complete_matching",
    "block_dims",
    "pack_vector",
    "unpack_vector",
]

NU_BRUTE_MAX_LINES = 18
MATCHING_RETRIES = 5  # extraction passes before max_matching gives up
# Instance JSON caps, checked before any vector is unpacked.  They bound
# the time of a GF(2^w) instance: nu_bruteforce (up to 18 lines) grows
# matchings until one reaches a ceiling, and `_extract_by_rank` ranks one
# |S| x |S| matrix per line, |S| <= dim, about lines dim^3 products.
MAX_DIM = 8
MAX_CELLS = 1 << 10
# A sum of L products (p - 1) * (+-1) stays below 2^53, so float64 is exact.
SIGNED_LINE_LIMIT = 1 << 22
# Lines per lazy inverse update in `_extract_by_inverse`.
EXTRACT_BLOCK = 16
# Lines per float64 product in `_skew_forms`, and per pass of `line_ranks`
# and `_blocks` over an instance's lines.
FORM_CHUNK = 512


def check_signed_count(count: int) -> None:
    """Refuse a GF(p) instance too large for exact float64 line products."""
    if count >= SIGNED_LINE_LIMIT:
        raise ValueError(
            f"{count} lines exceed the exact signed-product limit {SIGNED_LINE_LIMIT}"
        )


def check_parity_count(order: int, count: int) -> None:
    """Refuse more lines than `nu_algebraic` takes over a field of this
    order: its per-trial failure bound needs order >= 2 count^2."""
    most = math.isqrt(order // 2)
    if count > most:
        raise ValueError(
            f"field too small for the randomized parity bound: {count} lines, "
            f"at most {most} over a field of order {order}"
        )


class PolymatroidInstance:
    """Lines over GF(2^w), as pairs of coordinate tuples, or over GF(p).

    GF(p) lines arrive as the pair (a, b) of integer arrays, shape
    (count, dim), with entries in {-1, 0, 1}; they are kept once, as the
    int8 `_signed`, and such an instance has no `lines` tuple."""

    def __init__(self, lines, dim: int, fld: GF2Ext | PrimeField):
        self.field = fld
        self.dim = int(dim)
        self._signed: tuple[np.ndarray, np.ndarray] | None = None
        if isinstance(fld, PrimeField):
            a, b = lines
            check_signed_count(len(a))
            vecs = (np.asarray(a), np.asarray(b))
            # only deg3 builds GF(p) lines: a fault here is a bug, not input
            if any(v.shape != (len(a), self.dim) for v in vecs):
                raise ConsistencyError("vector length does not match dim")
            if not all(np.issubdtype(v.dtype, np.integer) for v in vecs):
                raise ConsistencyError("GF(p) lines must be integer arrays")
            if any(((v < -1) | (v > 1)).any() for v in vecs):
                raise ConsistencyError("GF(p) line entry outside {-1, 0, 1}")
            self._signed = tuple(v.astype(np.int8) for v in vecs)
        else:
            self.lines = tuple((tuple(a), tuple(b)) for a, b in lines)
            if any(len(a) != self.dim or len(b) != self.dim for a, b in self.lines):
                raise ValueError("vector length does not match dim")
            if any(not 0 <= c < fld.order for a, b in self.lines for c in a + b):
                raise ValueError("coefficient outside the field")
        self._alt: list | None = None
        # `_scan` results by (matching, lines): complete_matching repeats
        # the scan that certified its matching
        self._scans: dict[tuple, tuple[list[int], list[int]]] = {}
        # `_blocks` by lines: a solve's ceiling, extractions and scans
        # share one decomposition
        self._blocks: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.lines) if self._signed is None else len(self._signed[0])

    def ground(self) -> tuple[int, ...]:
        return tuple(range(len(self)))

    def rank(self, subset=None) -> int:
        """f(subset): dimension of the span of the subset's vectors."""
        rows = self.rows(self.ground() if subset is None else subset)
        if self.field.order == 2:
            # over GF(2) itself each row is a bitmask
            return gf2_rank([sum(c << j for j, c in enumerate(v)) for v in rows])
        return self.field.rank(rows)

    def rows(self, idx):
        """The vectors a_i, b_i of each line i of idx, in that order: an int8
        array over GF(p), a list of tuples over GF(2^w)."""
        ix = list(idx)
        if self._signed is not None:
            a, b = self._signed
            return np.stack((a[ix], b[ix]), axis=1).reshape(2 * len(ix), self.dim)
        return [v for i in ix for v in self.lines[i]]

    def line_ranks(self, idx) -> list[int]:
        """f({i}) for each i in idx; GF(p) takes one vectorized pass.

        With a != 0 and j its first nonzero coordinate, b lies in the span
        of a exactly when every 2 x 2 minor a_j b_k - a_k b_j vanishes; on
        signed rows a minor lies in [-2, 2], so it vanishes when it is 0.
        """
        ix = list(idx)
        if self._signed is None or not self.dim:
            return [self.rank((i,)) for i in ix]
        ranks = []
        for lo in range(0, len(ix), FORM_CHUNK):
            a, b = (v[ix[lo : lo + FORM_CHUNK]] for v in self._signed)
            rows = np.arange(len(a))
            piv = (a != 0).argmax(axis=1)
            minors = b * a[rows, piv, None] - a * b[rows, piv, None]
            ranks += np.where(a.any(axis=1), 1 + minors.any(axis=1), b.any(axis=1)).tolist()
        return ranks

    def alt_supports(self) -> list[list[tuple[int, int, int]]]:
        """Per line, the nonzero entries (p, q, c), p < q, of a b^T + b a^T."""
        if self._alt is None:
            self._alt = [_alt_support(self, i) for i in self.ground()]
        return self._alt

    def to_json_dict(self) -> dict:
        if self._signed is not None:
            raise ValueError("only GF(2^w) instances have a JSON form")
        return {
            "w": self.field.w,
            "dim": self.dim,
            "lines": [
                [pack_vector(a, self.field.w), pack_vector(b, self.field.w)]
                for a, b in self.lines
            ],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "PolymatroidInstance":
        """Parse {"w": int, "dim": int, "lines": [[hex, hex], ...]}.

        Malformed input raises ValueError.
        """
        if not isinstance(obj, dict):
            raise ValueError("instance JSON must be an object")
        for key in ("w", "dim"):
            val = obj.get(key)
            if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                raise ValueError(f"instance needs a non-negative integer {key!r}")
        w, dim = obj["w"], obj["dim"]
        if w not in IRREDUCIBLE:
            raise ValueError(f"no supported field of width {w}")
        if dim > MAX_DIM:
            raise ValueError(f"dim {dim} exceeds the limit {MAX_DIM}")
        raw = obj.get("lines")
        if not isinstance(raw, list):
            raise ValueError("instance needs a 'lines' list")
        # a dim-0 line still costs every pass over the lines, so it counts once
        cells = len(raw) * max(dim, 1)
        if cells > MAX_CELLS:
            raise ValueError(f"lines x max(dim, 1) = {cells} exceeds {MAX_CELLS}")
        lines = []
        for ln in raw:
            if not (
                isinstance(ln, list)
                and len(ln) == 2
                and all(isinstance(x, str) for x in ln)
            ):
                raise ValueError("each line must be a pair of hex strings")
            lines.append(tuple(unpack_vector(x, w, dim) for x in ln))
        return cls(lines, dim, shared_field(w))


def pack_vector(vec, w: int) -> str:
    """Hex encoding; coordinate j sits at bits [j*w, (j+1)*w)."""
    out = 0
    for j, c in enumerate(vec):
        out |= int(c) << (j * w)
    return hex(out)


def unpack_vector(text: str, w: int, dim: int) -> tuple[int, ...]:
    """Inverse of `pack_vector`; ValueError for a negative value or one with
    bits past coordinate dim - 1."""
    x = int(text, 16)
    if x < 0 or x >> (dim * w):
        raise ValueError(f"vector {text!r} does not fit {dim} coordinates of {w} bits")
    mask = (1 << w) - 1
    return tuple((x >> (j * w)) & mask for j in range(dim))


def nu_bruteforce(inst: PolymatroidInstance, subset=None) -> int:
    """Exact nu by exhaustive growth of matchings, stopped once the best
    reaches the ceiling or the lines left cannot beat it.  The ceiling is
    the block ceiling until the first matching the search completes, its
    greedy one, falls short of it; from then on it is the rank ceiling
    (`_rank_ceiling`), which costs a rank per block."""
    idx = list(inst.ground() if subset is None else subset)
    if len(idx) > NU_BRUTE_MAX_LINES:
        raise ValueError(f"{len(idx)} lines exceed brute-force cap {NU_BRUTE_MAX_LINES}")
    ceiling = _block_ceiling(inst, idx)
    best = 0
    ranked = False

    def dfs(pos: int, basis, size: int) -> None:
        nonlocal best, ceiling, ranked
        best = max(best, size)
        for j in range(pos, len(idx)):
            if best >= min(ceiling, size + len(idx) - j):
                return
            nb = basis.copy()
            if all(nb.add(v) for v in inst.rows((idx[j],))):
                dfs(j + 1, nb, size + 1)
        if not ranked:
            ranked, ceiling = True, _rank_ceiling(inst, idx)

    dfs(0, RowBasis(inst.field), 0)
    return best


def _alt_support(inst: PolymatroidInstance, i: int) -> list[tuple[int, int, int]]:
    """The nonzero entries (p, q, c), p < q, of the form a b^T + b a^T."""
    mul = inst.field.mul
    a, b = inst.lines[i]
    return [
        (p, q, c)
        for p in range(inst.dim)
        for q in range(p + 1, inst.dim)
        if (c := mul(a[p], b[q]) ^ mul(b[p], a[q]))
    ]


def _draw(bound: int, rng: random.Random, count: int) -> np.ndarray:
    """`[rng.randrange(1, bound) for _ in range(count)]` as an int64 array,
    with the same values and the same generator state after, for
    2 <= bound <= 2^32.

    randrange(1, bound) is 1 + getrandbits(b), drawn again while that is
    >= bound - 1, with b the bit length of bound - 1; getrandbits(b) is the
    top b bits of one 32-bit Mersenne Twister word, and
    getrandbits(32 c) packs the next c words little-endian.  Reading those
    words in order and drawing each shortfall the same way consumes exactly
    the words the single draws would.
    """
    below = bound - 1
    shift = 32 - below.bit_length()
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        need = count - len(out)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        words = np.frombuffer(raw, dtype="<u4") >> shift
        out = np.concatenate([out, words[words < below]])
    return out + 1


def _skew_forms(a: np.ndarray, b: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """Y(t) = X - X^T over GF(p), X = sum_i t_i a_i b_i^T, for each matrix
    of a stack: a and b hold the signed lines, shape (count, lines, dim),
    t their values, shape (count, lines).

    With signed a and b, X = (t A)^T B is a sum of float64 products, one per
    `FORM_CHUNK` lines, so the float64 copies of the lines stay small; every
    partial sum is an integer of magnitude at most lines (p - 1) < 2^53,
    so X is exact.  X accumulates in place, in the result's buffer read as
    float64, each product landing in one scratch buffer; X mod p goes into
    the scratch as int64 and X mod p minus its transpose into the result,
    so a build holds two stacks of dim x dim arrays and one chunk's float64
    lines.
    """
    count, lines, dim = a.shape
    y = np.zeros((count, dim, dim), dtype=np.int64)
    x = y.view(np.float64)  # 0 reads 0.0: X accumulates in the result's buffer
    scratch = np.empty_like(y)
    for lo in range(0, lines, FORM_CHUNK):
        ta = a[:, lo : lo + FORM_CHUNK].astype(np.float64)
        ta *= t[:, lo : lo + FORM_CHUNK, None]
        x += np.matmul(
            np.swapaxes(ta, 1, 2),
            b[:, lo : lo + FORM_CHUNK].astype(np.float64),
            out=scratch.view(np.float64),
        )
    scratch[...] = x
    scratch %= p
    np.subtract(scratch, np.swapaxes(scratch, 1, 2), out=y)
    y %= p
    return y


def _draw_ext(inst: PolymatroidInstance, idx, rng: random.Random) -> list[int]:
    """One nonzero t per line of idx whose form a b^T + b a^T is not zero."""
    supports = inst.alt_supports()
    return [inst.field.rand_nonzero(rng) for i in idx if supports[i]]


def _skew_form_ext(inst: PolymatroidInstance, idx, t: list[int]) -> list[list[int]]:
    """Y(t) over GF(2^w), where the form is symmetric as well as alternating;
    t holds one value per line of idx with a nonzero form (`_draw_ext`)."""
    fld = inst.field
    supports = inst.alt_supports()
    y = [[0] * inst.dim for _ in range(inst.dim)]
    for i, ti in zip([i for i in idx if supports[i]], t):
        for p, q, c in supports[i]:
            v = fld.mul(ti, c)
            y[p][q] ^= v
            y[q][p] ^= v
    return y


def _nu_draws(inst: PolymatroidInstance, rng: random.Random, trials: int, idx) -> list:
    """The t of each of `trials` nu trials on lines idx, in draw order: the
    random half of `nu_algebraic`."""
    fld = inst.field
    check_parity_count(fld.order, len(idx))
    if inst._signed is not None:
        return [_draw(fld.p, rng, len(idx)) for _ in range(trials)]
    return [_draw_ext(inst, idx, rng) for _ in range(trials)]


def _blocks(inst: PolymatroidInstance, idx) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate blocks of the lines idx: the connected components of
    the graph joining two coordinates when some line of idx (`rows`) is
    nonzero on both.  Returns the block of each coordinate and of each line
    of the instance, a block named by its least coordinate, and -1 for a
    coordinate no line of idx touches, for a zero line and for a line
    outside idx.  Memoized per idx.

    The blocks' coordinates are disjoint, so Y(t) over idx is block
    diagonal, a matching's span is the direct sum of its parts' spans, and
    a row is independent of earlier rows exactly when it is independent of
    the earlier rows of its own block.  The components come from min-label
    hooking, in vectorized rounds: each line takes the least root over its
    coordinates, each of those roots is hooked to it, and pointer jumping
    flattens the forest again.  Roots only decrease, so the rounds end;
    they end when every line's coordinates share one root.
    """
    key = tuple(idx)
    if key not in inst._blocks:
        # (line, coordinate) where the line's a or b is nonzero, as the
        # flat index 2 dim line + dim side + coordinate
        wide = 2 * max(inst.dim, 1)
        flat = np.concatenate([np.zeros(0, dtype=np.intp)] + [
            (np.reshape(inst.rows(key[lo : lo + FORM_CHUNK]), (-1, wide)) != 0)
            .reshape(-1).nonzero()[0] + lo * wide
            for lo in range(0, len(key), FORM_CHUNK)
        ])
        line, coord = np.divmod(flat, wide)
        coord %= max(inst.dim, 1)
        root = np.arange(inst.dim)
        while True:
            low = np.full(len(key), inst.dim)
            np.minimum.at(low, line, root[coord])
            hooked = root.copy()
            np.minimum.at(hooked, root[coord], low[line])
            while not np.array_equal(hooked[hooked], hooked):
                hooked = hooked[hooked]
            if np.array_equal(hooked, root):
                break
            root = hooked
        coords = np.full(inst.dim, -1)
        coords[coord] = root[coord]
        lines = np.full(len(inst), -1)
        lines[np.asarray(key, dtype=np.intp)] = np.where(low < inst.dim, low, -1)
        inst._blocks[key] = coords, lines
    return inst._blocks[key]


def _block_stacks(inst: PolymatroidInstance, idx, lines: np.ndarray):
    """The blocks (`_blocks`) of the lines idx holding one of `lines`,
    stacked by shape (d coordinates, L of the lines): for each, the
    positions in `lines` of its K blocks' lines, (K, L), each row
    increasing, and their rows a_i, b_i on the block's coordinates,
    (K, 2L, d) int8 over GF(p), K lists of 2L tuples over GF(2^w)."""
    coords, held = _blocks(inst, idx)
    items = held[lines]
    sizes = np.bincount(items[items >= 0], minlength=inst.dim)
    blocks = sizes.nonzero()[0]
    sizes, dims = sizes[blocks], np.bincount(coords[coords >= 0], minlength=inst.dim)[blocks]
    by_coord = np.argsort(coords, kind="stable")
    coord_at = np.searchsorted(coords[by_coord], blocks)
    by_item = np.argsort(items, kind="stable")
    item_at = np.searchsorted(items[by_item], blocks)
    for d, count in sorted(set(zip(dims.tolist(), sizes.tolist()))):
        of = (dims == d) & (sizes == count)
        cs = by_coord[coord_at[of][:, None] + np.arange(d)]
        pos = by_item[item_at[of][:, None] + np.arange(count)]
        if inst._signed is None:
            yield pos, [
                [tuple(v[c] for c in c_row) for i in l_row for v in inst.lines[i]]
                for l_row, c_row in zip(lines[pos].tolist(), cs.tolist())
            ]
            continue
        at = lines[pos][:, :, None] * inst.dim + cs[:, None, :]
        rows = np.stack([v.reshape(-1)[at] for v in inst._signed], axis=2)
        del at  # int64, four times the rows: freed before the caller works
        yield pos, rows.reshape(len(pos), -1, d)


def _ceiling(inst: PolymatroidInstance, idx, weights: np.ndarray) -> int:
    """sum over the blocks k of the lines idx of min(w_k // 2, |idx_k|), w_k
    the number of entries of weights (block names) naming block k."""
    held = _blocks(inst, idx)[1]
    return int(np.minimum(
        np.bincount(weights, minlength=inst.dim) // 2,
        np.bincount(held[held >= 0], minlength=inst.dim),
    ).sum())


def _block_ceiling(inst: PolymatroidInstance, idx) -> int:
    """sum over blocks k of min(dim_k // 2, |idx_k|), an upper bound on nu
    over lines idx in either field, at most min(dim // 2, |idx|): block k
    (`_blocks`) has dim_k coordinates and |idx_k| lines, and a matching's
    part in block k is a matching of at most min(dim_k // 2, |idx_k|)
    lines."""
    coords = _blocks(inst, idx)[0]
    return _ceiling(inst, idx, coords[coords >= 0])


def _rank_ceiling(inst: PolymatroidInstance, idx) -> int:
    """sum over blocks k of min(r_k // 2, |idx_k|), r_k the rank of the rows
    of block k's lines: a matching M has f(M) = 2|M|, and its part in block
    k spans at most r_k, so this bounds nu too, and r_k <= dim_k puts it
    at most the block ceiling.  The ranks come from one `_scan` of idx."""
    order, kept = _scan(inst, (), idx)
    held = _blocks(inst, idx)[1][np.asarray(order, dtype=np.intp)]
    return _ceiling(inst, idx, held[np.asarray(kept, dtype=np.intp) // 2])


def block_dims(inst: PolymatroidInstance, subset=None) -> list[int]:
    """The number of coordinates of each block (`_blocks`) that holds a line
    of the subset, by block."""
    coords, lines = _blocks(inst, tuple(inst.ground() if subset is None else subset))
    dims = np.bincount(coords[coords >= 0], minlength=inst.dim)
    return dims[np.bincount(lines[lines >= 0], minlength=inst.dim).nonzero()[0]].tolist()


def _skew_rank(fld: GF2Ext | PrimeField, ys: list) -> int:
    """rank Y(t), the sum of the ranks of one trial's forms ys: its blocks'
    Y_k(t) over GF(p), stacked by shape, each stack ranked by one
    `independent`, and its whole Y(t) over GF(2^w).  Odd ranks are
    refused, and over GF(p) a Y_k(t) that is not alternating."""
    if isinstance(fld, PrimeField):
        if not all(np.array_equal(y, -np.swapaxes(y, 1, 2) % fld.p) for y in ys):
            raise ConsistencyError("skew rank of a matrix that is not alternating")
        ranks = [len(s) for y in ys for s in fld.independent(y)]
    else:
        ranks = [fld.rank(y) for y in ys]
    if any(r % 2 for r in ranks):
        raise ConsistencyError("alternating matrix with odd rank")
    return sum(ranks)


def _nu_ranks(inst: PolymatroidInstance, idx, draws, known: int = 0) -> int:
    """max(known, rank Y(t) / 2 over the drawn t): the rank half of
    `nu_algebraic`.  rank Y(t) <= 2 nu, so once known reaches the block
    ceiling no Y(t) is ranked; below it each trial's Y(t) is ranked by
    `_skew_rank`, over GF(p) from the block rows gathered once for every
    trial (`_block_stacks`)."""
    fld = inst.field
    if known >= _block_ceiling(inst, idx):
        return known
    if inst._signed is None:
        return max([known] + [_skew_rank(fld, [_skew_form_ext(inst, idx, t)]) // 2 for t in draws])
    stacks = list(_block_stacks(inst, idx, np.asarray(idx, dtype=np.intp)))
    return max([known] + [
        _skew_rank(fld, [_skew_forms(rows[:, 0::2], rows[:, 1::2], t[pos], fld.p)
                         for pos, rows in stacks]) // 2
        for t in draws
    ])


def nu_algebraic(
    inst: PolymatroidInstance,
    rng: random.Random | None = None,
    trials: int = 3,
    subset=None,
    known: int = 0,
) -> int:
    """Randomized nu: max over trials of rank(Y(t)) / 2; never overestimates.

    `known` is a lower bound on nu the caller already holds: the size of a
    matching it has checked, or an earlier estimate.  Every trial draws its
    t (`_nu_draws`), so the random stream (and every seeded result after
    it) does not depend on the ranks; a known at the block ceiling ranks
    no Y(t) (`_nu_ranks`).
    """
    idx = tuple(inst.ground() if subset is None else subset)
    rng = rng if rng is not None else random.Random()
    return _nu_ranks(inst, idx, _nu_draws(inst, rng, trials, idx), known)


def _extract_by_inverse(
    inst: PolymatroidInstance, rng: random.Random, idx
) -> tuple[int, ...]:
    """Lines left after deleting every line Y(t)[S, S] can spare, over GF(p).

    S is a row basis of one random Y(t), so Y[S, S] is nonsingular and
    |S| = 2 nu for generic t.  Deleting line i subtracts t_i U J U^T
    (U = [a_i b_i] restricted to S); with M the current inverse, which is
    skew, the result stays nonsingular exactly when
    delta = a^T M b + 1/t_i != 0, and its inverse is
    M + (M b (M a)^T - M a (M b)^T) / delta.  The Pfaffian of Y[S, S] is a
    sum over matchings of |S| / 2 lines, and a line is kept only when every
    remaining term contains it, so the survivors form one such matching
    (up to the Schwartz-Zippel failure chance, which the caller rechecks).

    Y(t) is block diagonal over the coordinate blocks of idx (`_blocks`),
    so S is the union of the blocks' S, M is block diagonal, and a line's
    delta and update read only its own block: each block is extracted on
    its own, from its own Y_k(t) and inverse, and yields the survivors the
    whole pass would.  Every t is still drawn first, for every line of
    idx in idx order, so the random stream does not depend on the blocks.
    Blocks of one shape (coordinates, lines) run as one stack
    (`_extract_stack`).

    A line of rank <= 1 is dropped before all this, once its t is drawn:
    its b is a multiple of a, or a = 0, so its form a b^T - b a^T is 0 and
    adds nothing to Y(t); with M skew its a^T M b is 0, so
    delta = 1 / t_i != 0 and the update is 0.  It would be deleted and
    change nothing.
    """
    t = _draw(inst.field.p, rng, len(idx))
    two = np.flatnonzero(np.equal(inst.line_ranks(idx), 2))
    lines = np.asarray(idx, dtype=np.intp)[two]
    alive: list[int] = []
    for items, rows in _block_stacks(inst, idx, lines):
        pos = two[items]
        alive += pos[_extract_stack(inst, rows, t[pos])].tolist()
    return tuple(idx[j] for j in sorted(alive))


def _extract_stack(inst: PolymatroidInstance, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Which lines survive the deletion pass of `_extract_by_inverse` in
    each block of a stack: rows (K, 2L, d) holds each block's lines as
    `_block_stacks` gives them, t (K, L) their t.

    `principal_inverse` gives each block's S and the inverse M of
    Y_k[S, S], zero-padded to the stack's largest |S|, and each block's
    lines are read on its S, padded alike; it refuses an odd |S|
    ("alternating matrix with odd rank"), as `_nu_ranks` refuses an odd
    rank of a nu trial, so a solve reaches this check even when
    `max_matching` ranks no Y(t) at all.

    The updates are applied lazily, B = `EXTRACT_BLOCK` lines at a time
    (Harvey, SIAM J. Comput. 2009).  Let M0 be the inverse at the start of
    a group and V = [a_1 b_1 a_2 b_2 ...] the group's lines.  Within the
    group M = M0 + Z K Z^T with Z = M0 V, so M V = Z C for
    C = I + K Z^T V; let G = V^T M V.  Deleting a line with cu = C b / delta
    and cw = C a (M b / delta and M a in Z's coordinates) adds
    cu cw^T - cw cu^T to K, and G over C takes the same rank-2 update,
    kept to the columns of the lines still to come; delta is read off G.
    So a line touches at most 4B x 2B numbers per block, never the
    |S| x |S| inverse.  After the group one exact product folds
    Z K Z^T = (Z CU)(Z CW)^T - (Z CW)(Z CU)^T into M0, CU and CW holding
    the group's cu and cw.  Every value is the one the per-line updates
    give, so the survivors are the same.  Each step runs once for the
    stack; a block that keeps line j (delta = 0) takes cu = 0, which
    changes nothing, and a line every block keeps adds no column.
    """
    fld = inst.field
    p = fld.p
    count, width, _ = rows.shape
    lines = width // 2
    s, m0 = fld.principal_inverse(_skew_forms(rows[:, 0::2], rows[:, 1::2], t, p))
    m0 = m0.astype(np.float64)
    # padded coordinates meet rows and columns of M that are 0
    pad = np.array([x + [0] * (len(m0[0]) - len(x)) for x in s], dtype=np.intp)
    rows = np.take_along_axis(rows, pad[:, None, :], axis=2)
    tinv = [[fld.inv(x) for x in col] for col in t.T.tolist()]
    deltas = []  # per line, its delta in each block: 0 keeps it
    for start in range(0, lines, EXTRACT_BLOCK):
        stop = min(start + EXTRACT_BLOCK, lines)
        v = rows[:, 2 * start : 2 * stop].astype(np.float64)
        # Z and V^T Z are exact: signed sums of fewer than 2^22 entries below p
        z = (m0 @ np.swapaxes(v, 1, 2)).astype(np.int64) % p
        h = v.shape[1]
        gc = np.zeros((count, 2 * h, h), dtype=np.int64)  # G over C
        gc[:, :h] = (v @ z).astype(np.int64) % p
        gc[:, h:] = np.eye(h, dtype=np.int64)
        cu, cw = [], []
        for j in range(stop - start):
            a, b = 2 * j, 2 * j + 1
            delta = [(x + y) % p for x, y in zip(gc[:, a, b].tolist(), tinv[start + j])]
            deltas.append(delta)
            if not any(delta):
                continue
            # only the rows and columns of the lines still to come are read
            # again; products below p^2 < 2^62 keep one reduction exact
            u = gc[:, b + 1 :, b] * np.array([[fld.inv(x) if x else 0] for x in delta]) % p
            w = gc[:, b + 1 :, a]
            f = h - b - 1
            rest = gc[:, b + 1 :, b + 1 :]
            rest += u[:, :, None] * w[:, None, :f]
            rest -= w[:, :, None] * u[:, None, :f]
            rest %= p
            cu.append(u[:, f:])
            cw.append(w[:, f:])
        if cu and stop < lines:
            d = len(cu)
            zuw = fld.matmul(z, np.array(cu + cw).transpose(1, 2, 0))
            zu, zw = zuw[:, :, :d], zuw[:, :, d:]
            m0 = fld.matmul(
                np.concatenate((zu, -zw % p), axis=2),
                np.swapaxes(np.concatenate((zw, zu), axis=2), 1, 2),
                m0,
            )
    return np.array(deltas).reshape(lines, count).T == 0


def _extract_by_rank(inst: PolymatroidInstance, rng: random.Random, idx) -> tuple[int, ...]:
    """Lines left after deleting every line Y(t)[S, S] can spare, over
    GF(2^w): `_extract_by_inverse`'s deletions, each checked by rank.  t is
    drawn once (`_draw_ext`) and S is a row basis of Y(t).  Over the lines
    with a nonzero form, in idx order, a line's term t_i (a b^T + b a^T)
    leaves Y when Y[S, S] keeps rank |S|, exactly when the inverse pass
    reads delta != 0, and the line survives otherwise.  |S| <= `MAX_DIM`,
    so no inverse is kept."""
    fld, supports = inst.field, inst.alt_supports()
    t = _draw_ext(inst, idx, rng)
    y = _skew_form_ext(inst, idx, t)
    s = fld.independent(y)
    alive = []
    for i, ti in zip([i for i in idx if supports[i]], t):
        term = _skew_form_ext(inst, (i,), [ti])
        rest = [[x ^ z for x, z in zip(r, u)] for r, u in zip(y, term)]
        if fld.rank([[rest[p][q] for q in s] for p in s]) == len(s):
            y = rest
        else:
            alive.append(i)
    return tuple(alive)


def _scan(inst: PolymatroidInstance, matching, idx) -> tuple[list[int], list[int]]:
    """One `independent` pass over the rows of the matching, then over the
    two rows of each other line of idx, in idx order.

    A row is kept when it is independent of the rows before it, so the
    matching is certified, f(M) = 2|M|, exactly when its 2|M| leading rows
    are all kept, and the other lines with a kept row form the greedy
    completion of M.  Returns the lines in scan order and the kept rows
    (row 2j + s is side s of line j of that order).

    A row is independent of the rows before it exactly when it is
    independent of the earlier rows of its own coordinate block
    (`_blocks`), so each block's rows are scanned on the block's
    coordinates alone, blocks of one shape as one stack, and a zero line,
    which has no block, keeps no row.
    """
    key = (tuple(matching), tuple(idx))
    if key not in inst._scans:
        inm = set(matching)
        order = np.array(list(matching) + [i for i in idx if i not in inm], dtype=np.intp)
        kept = [np.zeros(0, dtype=np.intp)]
        for items, rows in _block_stacks(inst, idx, order):
            if inst._signed is not None:
                found = inst.field.independent(rows)
            else:
                found = [inst.field.independent(m) for m in rows]
            ids = (2 * items[:, :, None] + np.arange(2)).reshape(len(items), -1)
            at = np.repeat(np.arange(len(found)), [len(x) for x in found])
            kept.append(ids[at, [j for x in found for j in x]])
        inst._scans[key] = order.tolist(), np.sort(np.concatenate(kept)).tolist()
    return inst._scans[key]


def _certified(inst: PolymatroidInstance, alive, idx) -> bool:
    """f(alive) = 2|alive|, read off the `_scan` of alive over idx."""
    size = 2 * len(alive)
    return _scan(inst, alive, idx)[1][:size] == list(range(size))


def max_matching(
    inst: PolymatroidInstance,
    rng: random.Random | None = None,
    subset=None,
) -> tuple[int, ...]:
    """A maximum matching, extracted and confirmed in one loop.

    Each pass extracts a survivor set by deletion on a fixed row basis S
    of one Y(t) (Cheung, Lau and Leung), from an inverse and rank-2
    updates over GF(p) (`_extract_by_inverse`) and by rank over GF(2^w)
    (`_extract_by_rank`).  It certifies the set deterministically
    (f(M) = 2|M|, by `_scan`) and confirms its size with nu trials; on
    mismatch the pass is rerun with fresh randomness.

    The first three nu trials' t are drawn before the first extraction,
    three confirmation trials' t right after the certifying scan, and all
    six are ranked then, with a certified matching as the known lower
    bound: a known at the block ceiling ranks no Y(t) (`_nu_ranks`), and
    the random stream does not depend on the ranks.
    """
    idx = tuple(inst.ground() if subset is None else subset)
    rng = rng if rng is not None else random.Random()
    extract = _extract_by_inverse if inst._signed is not None else _extract_by_rank
    draws = _nu_draws(inst, rng, 3, idx)
    target = 0
    for _ in range(MATCHING_RETRIES):
        alive = extract(inst, rng, idx)
        certified = _certified(inst, alive, idx)
        known = max(target, len(alive)) if certified else target
        draws = [*draws, *_nu_draws(inst, rng, 3, idx)]
        better = _nu_ranks(inst, idx, draws, known)
        # a certified len(alive) <= known <= better
        if certified and len(alive) == better:
            return alive
        target, draws = better, ()
    raise ConsistencyError("matching extraction failed to stabilize")


def complete_matching(
    inst: PolymatroidInstance, matching, subset=None
) -> tuple[int, ...]:
    """The matching plus its greedy completion within the subset: a minimum
    S with f(S) = f(subset), |S| = f - |M|, when the matching is maximum.

    The completion is the other lines with a row kept by the `_scan` that
    certifies the matching: each such line adds exactly one to the rank,
    or the matching was not maximum.  The scan needs no second
    elimination to prove S spanning: its kept rows are a basis of the
    subset's rows, so f(subset) is their count, and each lies in a line of
    S.  Deterministic; the scan is the one `max_matching` memoized.
    """
    idx = tuple(inst.ground() if subset is None else subset)
    if not set(matching) <= set(idx):
        raise ValueError("matching has lines outside the subset")
    if not _certified(inst, matching, idx):
        raise ConsistencyError("matching does not span twice its size")
    order, kept = _scan(inst, matching, idx)
    size = 2 * len(matching)
    joined = sorted({order[r // 2] for r in kept[size:]})
    if len(joined) != len(kept) - size:
        raise ConsistencyError(
            "rank jumped by 2 past a maximum matching; nu was undercounted"
        )
    return tuple(sorted(list(matching) + joined))


def min_spanning_set(
    inst: PolymatroidInstance,
    rng: random.Random | None = None,
    subset=None,
) -> tuple[int, ...]:
    """Minimum S within the subset with f(S) = f(subset); |S| = f - nu."""
    return complete_matching(inst, max_matching(inst, rng, subset), subset)
