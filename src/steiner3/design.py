"""Incidence structures with explicit block lists.

A design is stored canonically: every block strictly increasing, the
block list sorted lexicographically, in one read-only (b, k) int32 array
that holds every point, as a design has at most 2^31 points; the tuple
form is derived from it on first use.  The catalogue's constructions,
`derived_design` and `from_json` of a file in the layout `to_json` writes
all build the array directly, so a 128-point design goes from
construction to disk and back without a Python object per block.
Blocks are looked up through a table of ranked 3-subsets when each
3-subset lies in at most one block, and by sorted prefix keys otherwise;
`Design.block_through` is the one vectorised read of that table.  The
table is filled and rows are looked up CHUNK_ROWS rows at a time, and
written out in pieces of as many points as CHUNK_ROWS rows of 4, each
from a template of its own rows.
Verification is exhaustive t-subset enumeration; that brute force is the
oracle for everything else in the package, so it stays free of shortcuts.
It imports only `errors`; the bounds on parameters are in `steiner3.sieve`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DesignError

MAX_POINTS = 128
_INT32_POINTS = 2**31  # an int32 block array holds every point below this
# rows per pass of the row-wise array loops: their temporaries stay a few
# hundred KB whatever the block count
CHUNK_ROWS = 16384

class Design:
    """Point count (an int, at most 2^31) plus a canonical sorted list of
    k-subsets, held as one read-only (b, k) int32 array, `block_array`.

    The blocks are given as an iterable of point sequences, or as a 2-D
    integer array.  An array already canonical and in range is kept as
    it is; anything else, a list included, is sorted and checked as a
    tuple list, which names the first fault, and only then cast to one
    int32 array.  `blocks`, the tuple form, is derived on first use.
    """

    __slots__ = ("v", "t", "labels", "_blocks", "_array", "_keys", "_ranks")

    def __init__(
        self,
        v: int,
        t: int,
        blocks: Iterable[Sequence[int]] | np.ndarray,
        labels: Sequence[str] | None = None,
    ):
        # exact type tests, as for the points: JSON writes no other type as an int
        for name, value in (("point count", v), ("strength", t)):
            if type(value) is not int:
                raise DesignError(f"{name} must be an int, got {value!r}")
        if v < 1:
            raise DesignError(f"point count must be positive, got {v}")
        if t < 1:
            raise DesignError(f"strength must be positive, got {t}")
        if v > _INT32_POINTS:
            raise DesignError(f"point count must be at most 2^31, got {v}")
        if not _is_canonical_array(blocks, v):
            listed = blocks.tolist() if isinstance(blocks, np.ndarray) else blocks
            if not isinstance(listed, Iterable):
                raise DesignError(f"blocks must be an iterable of point sequences, got {blocks!r}")
            listed = list(listed)
            _check_points_are_ints(listed)
            canon = sorted(tuple(sorted(block)) for block in listed)
            _check_blocks(canon, v)
            # every point is now in 0..v-1, and v <= 2^31, so int32 holds it
            blocks = np.array(canon, dtype=np.int32)
        array = blocks.astype(np.int32, copy=False)
        array.flags.writeable = False
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != v:
                raise DesignError(f"expected {v} labels, got {len(labels)}")
        self.v = v
        self.t = t
        self.labels = labels
        self._array = array
        # the tuple form, once `blocks` is read
        self._blocks: tuple[tuple[int, ...], ...] | None = None
        self._keys: np.ndarray | None = None
        # the ranked 3-subset table once decided, or why there is none
        self._ranks: np.ndarray | str | None = None

    @property
    def b(self) -> int:
        return self._array.shape[0]

    @property
    def k(self) -> int:
        return self._array.shape[1]

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as strictly increasing tuples, in canonical order."""
        if self._blocks is None:
            # k columns of ints zipped into tuples: never a list per block
            self._blocks = tuple(zip(*self._array.T.tolist()))
        return self._blocks

    @property
    def block_array(self) -> np.ndarray:
        """The blocks as a read-only (b, k) int32 array, in canonical order."""
        return self._array

    def block_index(self, block: Sequence[int] | np.ndarray):
        """Index of a point set in the canonical block list, or -1.

        Given a 2-D array, looks up every row as a point set and returns
        an int32 array of indices, -1 where a row is not a block.  Points
        of any type other than an integer, bool included, raise.
        """
        rows = np.asarray(block)
        if rows.size and rows.dtype.kind not in "iu":
            raise DesignError(f"points must be integers, got {rows.dtype}")
        if rows.ndim == 1:
            return int(self._lookup(rows[np.newaxis])[0])
        if rows.ndim != 2:
            raise DesignError(f"expected one point set or a 2-D array of rows, got {rows.ndim}-D")
        return self._lookup(rows)

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] != self.k:
            return np.full(len(rows), -1, dtype=np.int32)
        # the ranked path widens rows to a signed integer dtype, which a
        # uint64 does not have
        if self._rank_table() is None or rows.dtype == np.uint64:
            return self._prefix_lookup(rows)
        return self._ranked_lookup(rows)

    def _rank_table(self) -> np.ndarray | None:
        """The block through each 3-subset a < b < c, at its rank
        C(c,3) + C(b,2) + a, or -1 where there is none (Knuth, TAOCP 4A,
        7.2.1.3); None when there is no such table.  Decided once, on
        first use: `_ranks` keeps the table, or the reason there is none."""
        if self._ranks is None:
            try:
                self._ranks = self._fill_ranks()
            except DesignError as exc:
                self._ranks = str(exc)
        return None if isinstance(self._ranks, str) else self._ranks

    def rank_table(self) -> np.ndarray:
        """The table `_rank_table` gives; raises DesignError, with the
        reason `_fill_ranks` gave, where there is none."""
        table = self._rank_table()
        if table is None:
            raise DesignError(self._ranks)
        return table

    def block_through(self, x, y, z) -> np.ndarray:
        """The index of the block through each 3-subset {x, y, z}, or -1
        where there is none or x, y and z are not three distinct points
        below v.  The points are integers or integer arrays, which
        broadcast, and are put in order with min and max only to read
        `rank_table`, which raises DesignError where there is no table."""
        ranks = self.rank_table()
        # at least int32, so the ranks of points below MAX_POINTS cannot overflow
        dtype = np.result_type(*map(np.asarray, (x, y, z)), np.int32)
        x, y, z = (np.asarray(p, dtype=dtype) for p in (x, y, z))
        low = np.minimum(np.minimum(x, y), z)
        high = np.maximum(np.maximum(x, y), z)
        mid = x + y + z - low - high
        # a 3-subset out of range or with a repeated point gets a
        # meaningless rank, clipped into the table, and -1
        found = np.asarray(ranks.take(rank3(low, mid, high), mode="clip"))
        found[(low < 0) | (high >= self.v) | (low == mid) | (mid == high)] = -1
        return found

    def _fill_ranks(self) -> np.ndarray:
        """The rank table; DesignError for k < 3, above MAX_POINTS points,
        above `block_limit`, and when some 3-subset lies in two blocks,
        which leaves fewer than C(k,3) entries per block marked."""
        v, k, b = self.v, self.k, self.b
        if k < 3 or v > MAX_POINTS:
            raise DesignError(f"no ranked 3-subset table for blocks of {k} points on {v} points")
        block_limit(v, k, b)
        table = np.full(math.comb(v, 3), -1, dtype=np.int32)
        mark_triples(table, self._array, 0)
        covered, per_block = int(np.count_nonzero(table >= 0)), math.comb(k, 3)
        if covered != b * per_block:
            raise DesignError(
                f"{b} blocks of size {k} cover {covered} 3-subsets, "
                f"not {b * per_block}: some 3-subset lies in two blocks"
            )
        return table

    def _ranked_lookup(self, rows: np.ndarray) -> np.ndarray:
        # In a partial Steiner 3-system the block through m0, m1, m2 is the
        # block through m0, m1, mj exactly when mj lies in it, so a row of k
        # distinct points is a block when every (m0, m1, mj) gives the block
        # of (m0, m1, m2); `block_through` gives -1 for an mj out of range
        # or equal to m0 or m1.  CHUNK_ROWS rows go at a time, each chunk's
        # columns made contiguous, where the elementwise passes are several
        # times faster than down a strided column.
        found = np.empty(len(rows), dtype=np.int32)
        for start in range(0, len(rows), CHUNK_ROWS):
            m0, m1, *rest = map(np.ascontiguousarray, rows[start : start + CHUNK_ROWS].T)
            block = self.block_through(m0, m1, rest[0])
            for j, mj in enumerate(rest[1:], 1):
                block[self.block_through(m0, m1, mj) != block] = -1
                for mi in rest[:j]:
                    block[mi == mj] = -1
            found[start : start + CHUNK_ROWS] = block
        return found

    def _prefix_width(self) -> int:
        """How many leading points key a block: min(k, 3), fewer if
        v^3 would overflow int64."""
        width = min(self.k, 3)
        while width > 1 and self.v**width > 2**62:
            width -= 1
        return width

    def _prefix_key(self, rows: np.ndarray) -> np.ndarray:
        """The leading points of each sorted row, read as base-v digits,
        in int64 whatever the rows' own dtype."""
        key = rows[:, 0].astype(np.int64)
        for j in range(1, self._prefix_width()):
            key = key * self.v + rows[:, j]
        return key

    def _prefix_lookup(self, rows: np.ndarray) -> np.ndarray:
        # The general path, for any design and any rows of width k.
        # Canonical order keeps blocks with the same prefix contiguous, so
        # a row's candidates are one searchsorted range of the prefix keys.
        # Equal keys mean equal prefixes, so only the remaining points of
        # each candidate are compared with the row.
        found = np.full(len(rows), -1, dtype=np.int32)
        rows = np.sort(rows, axis=1)
        in_range = (rows[:, 0] >= 0) & (rows[:, -1] < self.v)
        if self._keys is None:
            self._keys = self._prefix_key(self.block_array)
        key = np.where(in_range, self._prefix_key(rows), -1)
        lo = np.searchsorted(self._keys, key, side="left")
        width = np.searchsorted(self._keys, key, side="right") - lo
        rest = self._prefix_width()
        for offset in range(int(width.max(initial=0))):
            live = np.flatnonzero(width > offset)
            candidate = lo[live] + offset
            hit = (self.block_array[candidate, rest:] == rows[live, rest:]).all(axis=1)
            found[live[hit]] = candidate[hit]
        return found

    def __eq__(self, other):
        if not isinstance(other, Design):
            return False
        if (self.v, self.t, self.labels) != (other.v, other.t, other.labels):
            return False
        # both canonical, so equal blocks are equal arrays
        return np.array_equal(self._array, other._array)

    def __hash__(self):
        return hash((self.v, self.t, self._array.shape, self._array.tobytes()))

    def __repr__(self):
        return f"Design({self.t}-({self.v},{self.k},1), b={self.b})"


def rank3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The rank C(c,3) + C(b,2) + a of each 3-subset a < b < c (Knuth,
    TAOCP 4A, 7.2.1.3): 0..C(v,3)-1 for points below v.  The points must
    be of a dtype that holds C(c,3), int32 up to MAX_POINTS points."""
    return c * (c - 1) * (c - 2) // 6 + b * (b - 1) // 2 + a


def mark_triples(table: np.ndarray, rows: np.ndarray, first: int) -> None:
    """Write first + i into table at the rank of every 3-subset of rows[i].

    The rows are strictly increasing, of at least 3 points and a dtype
    `rank3` can use; CHUNK_ROWS rows are ranked at a time.  A 3-subset
    of two rows keeps one of them, so a caller that must find repeats
    counts the entries set.
    """
    k = rows.shape[1]
    for start in range(0, len(rows), CHUNK_ROWS):
        chunk = rows[start : start + CHUNK_ROWS]
        ids = np.arange(first + start, first + start + len(chunk), dtype=np.int32)
        # columns i < j < l hold a < b < c; one pass per (i, j) ranks the
        # 3-subsets with every later l at once
        for i, j in combinations(range(k - 1), 2):
            ranks = rank3(chunk[:, i, np.newaxis], chunk[:, j, np.newaxis], chunk[:, j + 1 :])
            table[ranks] = ids[:, np.newaxis]


def _is_canonical_array(rows: object, v: int) -> bool:
    """Whether rows is a (b, k) integer array holding a canonical, valid
    block list: b, k > 0, each row strictly increasing within 0..v-1, the
    rows in strictly increasing lexicographic order.  Each test is a
    vectorised pass over the array or one of its columns."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iu"):
        return False
    if 0 in rows.shape or not (rows[:, 1:] > rows[:, :-1]).all():
        return False
    # walk the columns while some pair of consecutive rows is tied: a pair
    # must not fall where it is tied, and no pair may stay tied
    tied = np.ones(len(rows) - 1, dtype=bool)
    for j in range(rows.shape[1]):
        if not tied.any():
            break
        before, after = rows[:-1, j], rows[1:, j]
        if (tied & (after < before)).any():
            return False
        tied &= after == before
    # once sorted, the least point leads the first row and the greatest
    # ends some row; compared as Python ints, whatever v is
    return not tied.any() and int(rows[0, 0]) >= 0 and int(rows[:, -1].max()) < v


def _check_points_are_ints(blocks: list[Sequence]) -> None:
    """Raise DesignError naming the first block that is not a sequence or
    has a point not exactly an int: a float, a bool or a NumPy integer
    would be written to JSON as something other than an integer, or not at all."""
    for block in blocks:
        if not isinstance(block, Iterable):
            raise DesignError(f"block {block!r} is not a sequence of points")
        if not set(map(type, block)) <= {int}:
            raise DesignError(f"block {tuple(block)} has a point that is not an int")


def _check_blocks(canon: list[tuple[int, ...]], v: int) -> None:
    """Raise DesignError for the first fault in a sorted block list."""
    if not canon:
        raise DesignError("a design needs at least one block")
    k = len(canon[0])
    if k == 0:
        raise DesignError("blocks must not be empty")
    for block in canon:
        if len(block) != k:
            raise DesignError(f"non-uniform block size: {len(block)} != {k}")
        if len(set(block)) != k:
            raise DesignError(f"repeated point in block {block}")
        if block[0] < 0 or block[-1] >= v:
            raise DesignError(f"block {block} out of range for {v} points")
    for prev, cur in zip(canon, canon[1:]):
        if prev == cur:
            raise DesignError(f"duplicate block {cur}")


@dataclass(frozen=True)
class DesignParams:
    t: int
    v: int
    k: int
    lam: int
    b: int
    r: int
    lambda2: int


@dataclass(frozen=True)
class SteinerReport:
    ok: bool
    witness: tuple[int, ...] | None = None
    count: int | None = None


def params_of(design: Design) -> DesignParams:
    """Exact parameters, cross-checked against direct incidence counts."""
    t, v, k, b = design.t, design.v, design.k, design.b
    if t < 2:
        raise DesignError(f"parameters need strength at least 2, got t={t}")
    if not t <= k <= v:
        raise DesignError(f"need t <= k <= v, got t={t}, k={k}, v={v}")

    # lambda = 1 needs b = C(v,t)/C(k,t) = C(v,m)/C(v-t,m), m = v-k: the
    # product of the t factors (v-i)/(k-i), each >= v // k, and of the m
    # factors (v-i)/(v-t-i), each >= v // (v-t).  A factor n is at least
    # 2^(bits of n, less one): once either count times that exponent
    # reaches the bits of b, b falls short, and no binomial is formed.
    # Else the form with fewer factors is.
    m = v - k
    exponent = max(
        t * ((v // k).bit_length() - 1), m * ((v // max(v - t, 1)).bit_length() - 1)
    )
    if (
        exponent >= b.bit_length()
        or t <= m and b * math.comb(k, t) != math.comb(v, t)
        or t > m and b * math.comb(v - t, m) != math.comb(v, m)
    ):
        raise DesignError(f"block count {b} does not give lambda = 1")
    if (b * k) % v:
        raise DesignError(f"bk = vr fails: {b}*{k} not divisible by {v}")
    r = b * k // v
    lam2_num = math.comb(v - 2, t - 2)
    lam2_den = math.comb(k - 2, t - 2)
    if lam2_num % lam2_den:
        raise DesignError("pair count is not integral")
    # r(k-1) = lambda2(v-1), and (k-2) lambda2 = v-2 for t = 3, follow
    # from these exact quotients of binomials
    lambda2 = lam2_num // lam2_den

    r_direct = sum(1 for block in design.blocks if 0 in block)
    if r_direct != r:
        raise DesignError(f"point 0 lies in {r_direct} blocks, expected r = {r}")
    lam2_direct = sum(1 for block in design.blocks if 0 in block and 1 in block)
    if lam2_direct != lambda2:
        raise DesignError(
            f"pair (0,1) lies in {lam2_direct} blocks, expected lambda2 = {lambda2}"
        )
    return DesignParams(t=t, v=v, k=k, lam=1, b=b, r=r, lambda2=lambda2)


def verify_steiner(design: Design, t: int | None = None) -> SteinerReport:
    """Exhaustively check that every t-subset lies in exactly one block."""
    if t is None:
        t = design.t
    if not 1 <= t <= design.k:
        raise DesignError(f"strength must lie in 1..{design.k}, got {t}")
    v = design.v
    if v > MAX_POINTS:
        raise DesignError(f"verification budget is {MAX_POINTS} points, got {v}")
    # the oracle holds up to C(v,t) subsets, no more than 3-subsets at the cap
    subsets, budget = math.comb(v, t), math.comb(MAX_POINTS, 3)
    if subsets > budget:
        raise DesignError(f"verification budget is {budget} subsets, got C({v},{t}) = {subsets}")
    counts: dict[tuple[int, ...], int] = {}
    for block in design.blocks:
        for sub in combinations(block, t):
            n = counts.get(sub, 0) + 1
            if n > 1:
                return SteinerReport(ok=False, witness=sub, count=n)
            counts[sub] = n
    if len(counts) != subsets:
        for sub in combinations(range(v), t):
            if sub not in counts:
                return SteinerReport(ok=False, witness=sub, count=0)
    return SteinerReport(ok=True)


def derived_design(design: Design, x: int) -> Design:
    """Blocks through x with x removed, points relabeled order-preserving."""
    if design.t < 2:
        raise DesignError("derivation needs strength at least 2")
    if not 0 <= x < design.v:
        raise DesignError(f"point {x} out of range")
    # the rows through x, x dropped and every point above it lowered by
    # one: still strictly increasing and in lexicographic order
    rows = design.block_array
    through = rows[(rows == x).any(axis=1)]
    blocks = through[through != x].reshape(len(through), design.k - 1)
    blocks[blocks > x] -= 1
    labels = None
    if design.labels is not None:
        labels = design.labels[:x] + design.labels[x + 1 :]
    return Design(design.v - 1, design.t - 1, blocks, labels)


def block_limit(v: int, k: int, b: int = 0) -> int:
    """C(v,s)/C(k,s), s = min(k, 3), the most blocks of k points in a
    partial Steiner 3-system on v points: each covers C(k,s) s-subsets, none
    covered twice (for k < 3, by distinct blocks).  DesignError if b > it."""
    s = min(k, 3)
    limit = math.comb(v, s) // math.comb(k, s)
    if b > limit:
        raise DesignError(
            f"{b} blocks of size {k} on {v} points: "
            f"a partial Steiner 3-system has at most {limit}"
        )
    return limit


def to_json(design: Design) -> str:
    """Canonical JSON; parse(emit(d)) == d byte-for-byte on re-emission.
    The same bytes as `json.dumps` of the payload with `(",", ":")`
    separators, the blocks written from the array by `_block_text`."""
    head = _json_head(design.v, design.t, design.labels)
    return head + "".join(_block_text(design.block_array)) + "]}\n"


def _json_head(v: int, t: int, labels: Sequence[str] | None) -> str:
    """The design JSON up to the opening bracket of its block list."""
    payload: dict = {"v": v, "t": t, "lambda": 1}
    if labels is not None:
        payload["labels"] = list(labels)
    return json.dumps(payload, separators=(",", ":"))[:-1] + ',"blocks":['


def _block_text(blocks: np.ndarray) -> Iterator[str]:
    """A non-empty (b, k) integer array as JSON rows "[0,1,2,3],..." in
    pieces of as many points as CHUNK_ROWS rows of 4 (at least one row),
    with a lone comma between two pieces.  Each piece is one %-format of
    its points; "%d" writes an int as `json` does."""
    k = len(blocks[0])
    row = "[" + ",".join(["%d"] * k) + "]"
    step = max(1, CHUNK_ROWS * 4 // k)
    for start in range(0, len(blocks), step):
        chunk = blocks[start : start + step]
        if start:
            yield ","
        yield ",".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())


# the opening of a file in to_json's layout without labels; v and t of at
# most 18 digits, which int() reads at once, so at most 70 characters
_CANONICAL_HEAD = re.compile(rb'\{"v":(-?\d{1,18}),"t":(-?\d{1,18}),"lambda":1,"blocks":\[')
_CANONICAL_HEAD_CHARS = 70
_NO_BRACKETS = str.maketrans("", "", "[]")


def from_json(data: bytes | str) -> Design:
    """The design a JSON document, UTF-8 bytes or text, describes.  One
    in the layout `to_json` writes, without labels, is parsed from its
    bytes straight into one block array; any other is decoded (bytes
    that are not UTF-8 raise UnicodeDecodeError) and goes through
    `json.loads`, with every field's type checked."""
    canonical = _canonical_rows(data)
    if canonical is not None:
        return Design(*canonical)
    try:
        payload = json.loads(data if isinstance(data, str) else data.decode())
    except json.JSONDecodeError as exc:
        raise DesignError(f"invalid design JSON: {exc}") from exc
    except RecursionError:
        raise DesignError("design JSON is nested too deeply") from None
    if not isinstance(payload, dict):
        raise DesignError("design JSON must be an object")
    for key in ("v", "t", "blocks"):
        if key not in payload:
            raise DesignError(f"design JSON is missing {key!r}")
    lam = payload.get("lambda", 1)
    if type(lam) is not int or lam != 1:
        raise DesignError("only lambda = 1 designs are supported")
    for key in ("v", "t"):
        if type(payload[key]) is not int:
            raise DesignError(f"{key!r} must be an integer, got {payload[key]!r}")
    blocks = payload["blocks"]
    # exact type tests, so bools (an int subclass) are rejected as well
    if (
        type(blocks) is not list
        or not set(map(type, blocks)) <= {list}
        or not set(map(type, chain.from_iterable(blocks))) <= {int}
    ):
        raise DesignError("'blocks' must be a list of lists of integers")
    labels = payload.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise DesignError("'labels' must be a list of strings")
    return Design(payload["v"], payload["t"], blocks, labels)


def _canonical_rows(data: bytes | str) -> tuple[int, int, np.ndarray] | None:
    """v, t and the blocks as a (b, k) int32 array, for a document that
    `to_json` writes for a design without labels (the final newline
    optional); None for any other.  Text is read in place, not encoded.

    The points are parsed by `np.fromstring` from one copy of the rows,
    their brackets deleted, which makes no Python object per point.  The
    array is kept only when `_block_text` writes it back as the document's
    own bytes: the document is then exactly what `to_json` writes, whose
    blocks `json.loads` reads as these rows.  That test also rejects every
    point the parse misread, such as a leading zero, -0, a float or one
    beyond int32.
    """
    text = isinstance(data, str)
    # literals and pieces in the type of data, and translate's arguments
    # that delete the brackets
    form = str if text else str.encode
    no_brackets = (_NO_BRACKETS,) if text else (None, b"[]")
    # the head is ASCII, so its offsets in the encoded prefix are data's
    prefix = data[:_CANONICAL_HEAD_CHARS].encode("utf-8", "surrogatepass") if text else data
    head = _CANONICAL_HEAD.match(prefix)
    if head is None:
        return None
    v, t = int(head[1]), int(head[2])
    start, end = head.end(), len(data) - (3 if data.endswith(form("\n")) else 2)
    first = data.find(form("]"), start, end)
    if head[0] != _json_head(v, t, None).encode() or first < 0 or not data.startswith(form("]}"), end):
        return None
    k = data.count(form(","), start, first) + 1
    # brackets deleted: the head loses its last character and the tail its first
    try:
        points = np.fromstring(
            data.translate(*no_brackets)[start - 1 : end + 1 - len(data)], np.int32, sep=","
        )
    except ValueError:
        return None
    if points.size == 0 or points.size % k:
        return None
    rows = points.reshape(-1, k)
    at = start
    for piece in _block_text(rows):
        if not data.startswith(form(piece), at):
            return None
        at += len(piece)
    return (v, t, rows) if at == end else None
