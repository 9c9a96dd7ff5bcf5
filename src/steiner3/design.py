"""Incidence structures with explicit block lists.

A design is stored canonically: every block a strictly increasing tuple,
the block list sorted lexicographically.  Verification is exhaustive
t-subset enumeration; that brute force is the oracle for everything else
in the package, so it stays free of shortcuts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .gf import FieldContext

MAX_POINTS = 128

CAMERON_EQUALITY_CASES = (
    (3, 4, 8),
    (3, 6, 22),
    (3, 12, 112),
    (4, 7, 23),
    (5, 8, 24),
)


class DesignError(ValueError):
    """Malformed incidence structure or inconsistent parameters."""


class Design:
    """Point count plus a canonical sorted list of k-subsets."""

    __slots__ = ("v", "t", "blocks", "labels", "_array", "_keys")

    def __init__(
        self,
        v: int,
        t: int,
        blocks: Iterable[Sequence[int]],
        labels: Sequence[str] | None = None,
    ):
        if v < 1:
            raise DesignError(f"point count must be positive, got {v}")
        if t < 1:
            raise DesignError(f"strength must be positive, got {t}")
        canon = sorted(tuple(sorted(block)) for block in blocks)
        if not canon:
            raise DesignError("a design needs at least one block")
        k = len(canon[0])
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
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != v:
                raise DesignError(f"expected {v} labels, got {len(labels)}")
        self.v = v
        self.t = t
        self.blocks: tuple[tuple[int, ...], ...] = tuple(canon)
        self.labels = labels
        self._array: np.ndarray | None = None
        self._keys: np.ndarray | None = None

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks[0])

    @property
    def block_array(self) -> np.ndarray:
        """The blocks as a read-only (b, k) array, in canonical order."""
        if self._array is None:
            array = np.array(self.blocks, dtype=np.int64)
            array.flags.writeable = False
            self._array = array
        return self._array

    def block_index(self, block: Sequence[int] | np.ndarray):
        """Index of a point set in the canonical block list, or -1.

        Given a 2-D array, looks up every row as a point set and returns
        an array of indices, -1 where a row is not a block.
        """
        rows = np.asarray(block)
        if rows.ndim == 1:
            return int(self._lookup(rows[np.newaxis])[0])
        return self._lookup(rows)

    def _prefix_width(self) -> int:
        """How many leading points key a block: min(k, 3), fewer if
        v^3 would overflow int64."""
        width = min(self.k, 3)
        while width > 1 and self.v**width > 2**62:
            width -= 1
        return width

    def _prefix_key(self, rows: np.ndarray) -> np.ndarray:
        """The leading points of each sorted row, read as base-v digits."""
        key = rows[:, 0].copy()
        for j in range(1, self._prefix_width()):
            key = key * self.v + rows[:, j]
        return key

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        # Canonical order keeps blocks with the same prefix contiguous, so
        # a row's candidates are one searchsorted range of the prefix keys.
        # Equal keys mean equal prefixes, so only the remaining points of
        # each candidate are compared with the row.
        found = np.full(len(rows), -1, dtype=np.int64)
        if rows.shape[1] != self.k:
            return found
        rows = np.sort(rows.astype(np.int64, copy=False), axis=1)
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
        return (
            isinstance(other, Design)
            and (self.v, self.t, self.blocks, self.labels)
            == (other.v, other.t, other.blocks, other.labels)
        )

    def __hash__(self):
        return hash((self.v, self.t, self.blocks))

    def __repr__(self):
        return f"Design({self.t}-({self.v},{self.k},1), b={self.b})"


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


@dataclass(frozen=True)
class CameronResult:
    status: str  # "strict" | "equality" | "violated"
    case: tuple[int, int, int]
    listed: bool


def params_of(design: Design) -> DesignParams:
    """Exact parameters, cross-checked against direct incidence counts."""
    t, v, k, b = design.t, design.v, design.k, design.b
    if t < 2:
        raise DesignError(f"parameters need strength at least 2, got t={t}")
    if not t <= k <= v:
        raise DesignError(f"need t <= k <= v, got t={t}, k={k}, v={v}")

    lam_num = b * math.comb(k, t)
    if lam_num % math.comb(v, t) or lam_num // math.comb(v, t) != 1:
        raise DesignError(f"block count {b} does not give lambda = 1")
    if (b * k) % v:
        raise DesignError(f"bk = vr fails: {b}*{k} not divisible by {v}")
    r = b * k // v
    lam2_num = math.comb(v - 2, t - 2)
    lam2_den = math.comb(k - 2, t - 2)
    if lam2_num % lam2_den:
        raise DesignError("pair count is not integral")
    lambda2 = lam2_num // lam2_den
    if r * (k - 1) != lambda2 * (v - 1):
        raise DesignError("r(k-1) = lambda2(v-1) fails")
    if t == 3 and (k - 2) * lambda2 != v - 2:
        raise DesignError("(k-2) lambda2 = v-2 fails")

    r_direct = sum(1 for block in design.blocks if 0 in block)
    if r_direct != r:
        raise DesignError(f"point 0 lies in {r_direct} blocks, expected r = {r}")
    lam2_direct = sum(1 for block in design.blocks if 0 in block and 1 in block)
    if v > 1 and lam2_direct != lambda2:
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
    counts: dict[tuple[int, ...], int] = {}
    for block in design.blocks:
        for sub in combinations(block, t):
            n = counts.get(sub, 0) + 1
            if n > 1:
                return SteinerReport(ok=False, witness=sub, count=n)
            counts[sub] = n
    if len(counts) != math.comb(v, t):
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
    blocks = [
        tuple(p if p < x else p - 1 for p in block if p != x)
        for block in design.blocks
        if x in block
    ]
    labels = None
    if design.labels is not None:
        labels = design.labels[:x] + design.labels[x + 1 :]
    return Design(design.v - 1, design.t - 1, blocks, labels)


def is_affine_line_system(derived: Design, ctx: FieldContext, q: int) -> bool:
    """Whether every block is a coset of a 1-dimensional GF(q)-subspace.

    Points of `derived` must be element indices of ctx; the scalar set is
    {a : a^q = a}, so a False answer distinguishes genuine line systems
    from triple systems living in a field with no GF(q) subfield.
    """
    if derived.v != ctx.order:
        raise DesignError(
            f"derived design has {derived.v} points, field has {ctx.order} elements"
        )
    if derived.k != q:
        raise DesignError(f"block size {derived.k} does not match line size {q}")
    scalars = [i for i in range(ctx.order) if ctx._pow(i, q) == i]
    for block in derived.blocks:
        base = block[0]
        diffs = {ctx._add(p, ctx._neg(base)) for p in block}
        for u in diffs:
            if u == 0:
                continue
            if {ctx._mul(s, u) for s in scalars} != diffs:
                return False
    return True


def cameron_check(t: int, k: int, v: int) -> CameronResult:
    """Evaluate the lower bounds v >= (t+1)(k-t+1) and, for t > 2,
    v-t+1 >= (k-t+2)(k-t+1), flagging the known equality cases."""
    if not t < k < v:
        raise DesignError(f"need t < k < v for a non-trivial design, got {(t, k, v)}")
    case = (t, k, v)
    if v < (t + 1) * (k - t + 1):
        return CameronResult("violated", case, False)
    if t > 2:
        lhs = v - t + 1
        rhs = (k - t + 2) * (k - t + 1)
        if lhs < rhs:
            return CameronResult("violated", case, False)
        if lhs == rhs:
            return CameronResult("equality", case, case in CAMERON_EQUALITY_CASES)
    return CameronResult("strict", case, False)


def blocksize_bound(v: int) -> int:
    """floor(sqrt(v) + 3/2): the largest k with (2k-3)^2 <= 4v, all integer."""
    if v < 4:
        raise DesignError(f"need at least 4 points, got {v}")
    return (math.isqrt(4 * v) + 3) // 2


def to_json(design: Design) -> str:
    """Canonical JSON; parse(emit(d)) == d byte-for-byte on re-emission."""
    payload: dict = {"v": design.v, "t": design.t, "lambda": 1}
    if design.labels is not None:
        payload["labels"] = list(design.labels)
    payload["blocks"] = [list(block) for block in design.blocks]
    return json.dumps(payload, separators=(",", ":")) + "\n"


def from_json(text: str) -> Design:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DesignError(f"invalid design JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DesignError("design JSON must be an object")
    for key in ("v", "t", "blocks"):
        if key not in payload:
            raise DesignError(f"design JSON is missing {key!r}")
    if payload.get("lambda", 1) != 1:
        raise DesignError("only lambda = 1 designs are supported")
    for key in ("v", "t"):
        if not _is_int(payload[key]):
            raise DesignError(f"{key!r} must be an integer, got {payload[key]!r}")
    blocks = payload["blocks"]
    if not isinstance(blocks, list) or not all(
        isinstance(block, list) and all(map(_is_int, block)) for block in blocks
    ):
        raise DesignError("'blocks' must be a list of lists of integers")
    labels = payload.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise DesignError("'labels' must be a list of strings")
    return Design(payload["v"], payload["t"], blocks, labels)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
