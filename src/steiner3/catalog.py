"""The four flag-transitive Steiner 3-design families and their groups.

Constructions are orbit-based wherever a base block exists (projective
families) and first-principles otherwise: the 3-(2^d,4,1) designs come
straight from the zero-XOR-sum condition, and the 3-(22,6,1) design is
built from scratch through the length-24 minimum-distance-8 binary
lexicode (greedy closure), its 759 weight-8 supports, and two
derivations.  Each lexicode basis word after the first few is read off
a coset-leader table, built once by meeting in the middle and then
folded by each word found.  Every route is self-certifying: wrong
intermediate counts raise instead of producing a wrong design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .design import CHUNK_ROWS, MAX_POINTS, Design, block_limit, derived_design, mark_triples, rank3
from .errors import DesignError, Steiner3Error
from .gf import FieldContext, exceeds, power_exponent, prime_power
from .permgrp import GeneratorSet
from .trace import emit

AFFINE_KINDS = ("AGL_d_2", "AGL_1", "AGammaL_1", "T_A7")
PROJECTIVE_KINDS = ("PSL", "PGL", "PSigmaL", "PGammaL")


class CatalogError(Steiner3Error, ValueError):
    """Parameters outside a family's admissible range."""


class GolayConstructionError(Steiner3Error, RuntimeError):
    """An intermediate count of the lexicode pipeline came out wrong."""


# -- projective line labeling -------------------------------------------------


class ProjectiveLine:
    """GF(q^e) together with one extra point at infinity.

    Point ids follow the field's element indexing; infinity gets the last
    id, ``ctx.order``.  The fractional-linear conventions are 1/0 = inf,
    1/inf = 0, and inf fixed by translation, scaling and field
    automorphisms.
    """

    def __init__(self, ctx: FieldContext):
        if ctx.order + 1 > MAX_POINTS:
            raise CatalogError(
                f"projective line on {ctx.order + 1} points exceeds the {MAX_POINTS} bound"
            )
        self.ctx = ctx
        self.size = ctx.order + 1
        self.infinity = ctx.order

    def translation(self) -> tuple[int, ...]:
        """x -> x + 1."""
        return tuple([self.ctx.add(i, 1) for i in range(self.ctx.order)] + [self.infinity])

    def scaling(self, factor_index: int) -> tuple[int, ...]:
        """x -> c x for a fixed nonzero c."""
        ctx = self.ctx
        if factor_index == 0:
            raise CatalogError("scaling factor must be nonzero")
        return tuple([ctx.mul(factor_index, i) for i in range(ctx.order)] + [self.infinity])

    def inversion(self, negate: bool = False) -> tuple[int, ...]:
        """x -> 1/x, or x -> -1/x with negate=True."""
        ctx = self.ctx
        images = [self.infinity]  # 0 -> inf
        for i in range(1, ctx.order):
            j = ctx.inv(i)
            images.append(ctx.neg(j) if negate else j)
        images.append(0)  # inf -> 0
        return tuple(images)

    def frobenius_map(self) -> tuple[int, ...]:
        """x -> x^p."""
        ctx = self.ctx
        return tuple([ctx.pow(i, ctx.p) for i in range(ctx.order)] + [self.infinity])

    def group(self, kind: str) -> GeneratorSet:
        """Generators of `kind`, one of PROJECTIVE_KINDS, on the line.  For
        even order the PSL and PGL sets coincide (squaring is a bijection,
        and -1 = 1); the catalogue reports such entries once."""
        ctx = self.ctx
        if kind in ("PGL", "PGammaL"):
            gens = [self.translation(), self.scaling(ctx.omega), self.inversion()]
        else:
            omega2 = ctx.mul(ctx.omega, ctx.omega)
            gens = [self.translation(), self.scaling(omega2), self.inversion(negate=True)]
        if kind in ("PSigmaL", "PGammaL"):
            gens.append(self.frobenius_map())
        return GeneratorSet(self.size, gens)


def _projective_line(q: int, e: int) -> ProjectiveLine:
    """The projective line over GF(q^e); q is factored only once q^e + 1
    is within MAX_POINTS."""
    if e < 1:
        raise CatalogError(f"e must be >= 1, got {e}")
    if q < 2:
        raise CatalogError(f"q must be a prime power, got {q}")
    if exceeds(q, e, MAX_POINTS - 1):
        raise CatalogError(f"q^e + 1 for q = {q}, e = {e} exceeds the {MAX_POINTS} bound")
    pp = prime_power(q)
    if pp is None:
        raise CatalogError(f"q must be a prime power, got {q}")
    p, j = pp
    return ProjectiveLine(FieldContext(p, j * e))


def _block_orbit(gens: Sequence[tuple[int, ...]], base: tuple[int, ...]) -> np.ndarray:
    """Images of a sorted base block of at least 3 points under the group
    the generators span, as a sorted (b, k) int32 array.

    Breadth-first over a preallocated (cap, k) block array, cap the
    `block_limit` of a partial Steiner 3-system: each level maps its
    frontier through every generator, CHUNK_ROWS blocks at a time, and
    sorts the rows.  Every 3-subset of a stored block is marked with the
    block in a table of C(v,3) ranked 3-subsets, ranked as `Design` ranks
    them, so an image is found through the rank of its first three
    points, and an image whose first three points are unmarked is new; a
    chunk's new blocks are stored and marked before the next is mapped.
    A new block marking an already marked 3-subset, or an image other
    than the stored block its first three points give, means two blocks
    share three points, so the orbit is not a partial Steiner 3-system:
    that raises CatalogError, and more than cap blocks DesignError.
    Distinct first three points make their order the lexicographic order.  When tracing, one JSON
    line of counters goes to stderr.
    """
    if not gens:
        return np.array([base], dtype=np.int32)
    v, k = len(gens[0]), len(base)
    per_block = math.comb(k, 3)
    cap = block_limit(v, k)
    table = np.array(gens, dtype=np.uint8)
    store = np.empty((cap, k), dtype=np.int32)
    store[0] = base
    # block_of[r]: the stored block through the 3-subset of rank r, or -1
    block_of = np.full(math.comb(v, 3), -1, dtype=np.int32)
    mark_triples(block_of, store[:1], 0)
    # store[lo:hi] is the level's frontier, store[:end] every block found
    lo, hi, end = 0, 1, 1
    levels = images = 0
    while lo < hi:
        levels += 1
        for start in range(lo, hi, CHUNK_ROWS):
            frontier = store[start : min(start + CHUNK_ROWS, hi)]
            rows = np.sort(table[:, frontier].reshape(-1, k), axis=1).astype(np.int32)
            images += len(rows)
            first = rank3(rows[:, 0], rows[:, 1], rows[:, 2])
            unseen = np.flatnonzero(block_of[first] < 0)
            _, new = np.unique(first[unseen], return_index=True)
            block_limit(v, k, end + len(new))
            store[end : end + len(new)] = rows[unseen[new]]
            mark_triples(block_of, store[end : end + len(new)], end)
            end += len(new)
            if (
                np.count_nonzero(block_of >= 0) != end * per_block
                or not (store[block_of[first]] == rows).all()
            ):
                raise CatalogError("block orbit has two blocks sharing three points")
        lo, hi = hi, end
    emit("catalog._block_orbit", levels=levels, images=images, blocks=end)
    del block_of
    blocks = store[:end]
    return blocks[np.lexsort(blocks[:, 2::-1].T)]


# -- design constructors -------------------------------------------------------


def construct_boolean_affine(d: int) -> Design:
    """Points and planes of AG(d,2): all 4-sets with zero XOR sum."""
    if d < 3 or exceeds(2, d, MAX_POINTS):
        raise CatalogError(f"need 3 <= d <= 7, got {d}")
    n = 1 << d
    # the pairs x < y in lexicographic order and, for each, every z above
    # y whose fourth point x^y^z lies above z: the blocks in canonical order
    points = np.arange(n, dtype=np.uint8)
    x, y = (p.astype(np.uint8) for p in np.triu_indices(n, 1))
    s = x ^ y
    pair, z = np.nonzero((points > y[:, np.newaxis]) & ((points ^ s[:, np.newaxis]) > points))
    blocks = np.empty((len(z), 4), dtype=np.int32)
    blocks[:, 0] = x[pair]
    blocks[:, 1] = y[pair]
    blocks[:, 2] = z
    blocks[:, 3] = z ^ s[pair]
    return Design(n, 3, blocks)


def construct_spherical(q: int, e: int) -> Design:
    """3-(q^e+1, q+1, 1): orbit of the subline GF(q) u {inf} under PGL."""
    if q < 3:
        raise CatalogError(f"q must be a prime power >= 3, got {q}")
    if e < 2:
        raise CatalogError(f"e must be >= 2, got {e}")
    line = _projective_line(q, e)
    base = tuple(sorted(line.ctx.subfield_indices(q) + [line.infinity]))
    blocks = _block_orbit(line.group("PGL").gens, base)
    return Design(line.size, 3, blocks)


def construct_netto_extension(q: int) -> Design:
    """3-(q+1, 4, 1): orbit of {0, 1, eps, inf} under PSL, q = 7 (mod 12)."""
    if q % 12 != 7:
        raise CatalogError(f"q must be a prime power congruent to 7 mod 12, got {q}")
    line = _projective_line(q, 1)
    base = tuple(sorted((0, 1, line.ctx.primitive_sixth_root(), line.infinity)))
    blocks = _block_orbit(line.group("PSL").gens, base)
    return Design(line.size, 3, blocks)


def construct_octad_design() -> Design:
    """The 5-(24,8,1) design whose blocks are the lexicode octads."""
    words = np.array(lexicode_codewords(), dtype=np.uint32)
    if len(words) != 4096:
        raise GolayConstructionError(f"expected 4096 codewords, got {len(words)}")
    octads = words[np.bitwise_count(words) == 8]
    if len(octads) != 759:
        raise GolayConstructionError(f"expected 759 octads, got {len(octads)}")
    # the support of each octad, one sorted row of 8 points, rows in order
    bits = (octads[:, np.newaxis] >> np.arange(_LEX_LENGTH, dtype=np.uint32)) & 1
    rows = bits.nonzero()[1].astype(np.int32).reshape(-1, 8)
    return Design(_LEX_LENGTH, 5, rows[np.lexsort(rows.T[::-1])])


def construct_witt_22() -> Design:
    """The 3-(22,6,1) design: the octad design derived at its two last points."""
    first = derived_design(construct_octad_design(), 23)
    if first.b != 253:
        raise GolayConstructionError(f"expected 253 blocks after one derivation, got {first.b}")
    second = derived_design(first, 22)
    if second.b != 77:
        raise GolayConstructionError(f"expected 77 blocks after two derivations, got {second.b}")
    return second


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
    scalars = [i for i in range(ctx.order) if ctx.pow(i, q) == i]
    for block in derived.blocks:
        base = block[0]
        diffs = {ctx.add(p, ctx.neg(base)) for p in block}
        for u in diffs:
            if u == 0:
                continue
            if {ctx.mul(s, u) for s in scalars} != diffs:
                return False
    return True


# -- lexicode ------------------------------------------------------------------

_LEX_LENGTH = 24
_LEX_DISTANCE = 8
_LEX_DIMENSION = 12
# below this many basis words the leader table would exceed 2^19 entries
_LEX_SCAN_WORDS = 5
_LEX_CHUNK = 1 << 16


@lru_cache(maxsize=1)
def lexicode_codewords() -> tuple[int, ...]:
    """All words of the greedy minimum-distance-8 lexicode of length 24.

    The greedy next basis word is the least integer whose coset of the
    span keeps distance >= 8.  The first few are found by scanning
    candidates against the span words, the rest read off coset-leader
    tables: one built, each later one the last folded by the word found.
    When tracing, one JSON line of counters goes to stderr per
    computation, `tables` counting the words read off a table.
    """
    basis: list[int] = []
    span = np.zeros(1, dtype=np.uint32)
    scanned = tables = 0
    table = None
    while len(basis) < _LEX_DIMENSION:
        if len(basis) < _LEX_SCAN_WORDS:
            start = basis[-1] + 1 if basis else 1
            found = _scan_span(span, start)
            if found is not None:
                scanned += found - start + 1
        else:
            table = _coset_table(basis) if table is None else _fold(*table, s)
            s, found = _read_off(*table)
            tables += 1
        if found is None:
            break
        basis.append(found)
        span = np.concatenate([span, span ^ np.uint32(found)])
    if len(basis) != _LEX_DIMENSION:
        raise GolayConstructionError(
            f"lexicode scan found {len(basis)} basis words, expected {_LEX_DIMENSION}"
        )
    emit("catalog.lexicode_codewords", basis=len(basis), scanned=scanned, tables=tables)
    return tuple(sorted(span.tolist()))


def _scan_span(span: np.ndarray, start: int) -> int | None:
    """The least word >= start at distance >= 8 from every span word."""
    for lo in range(start, 1 << _LEX_LENGTH, _LEX_CHUNK):
        cand = np.arange(lo, min(lo + _LEX_CHUNK, 1 << _LEX_LENGTH), dtype=np.uint32)
        alive = np.ones(cand.shape, dtype=bool)
        for w in span:
            alive &= np.bitwise_count(cand ^ w) >= _LEX_DISTANCE
        hits = alive.nonzero()[0]
        if hits.size:
            return int(cand[hits[0]])
    return None


def _rref(basis: list[int]) -> list[tuple[int, int]]:
    """Row-reduce over GF(2) to (pivot bit, row) pairs, fully reduced: each
    row's pivot is its top bit, and no other row has that bit set."""
    rows: list[tuple[int, int]] = []
    for word in basis:
        for pivot, row in rows:
            if (word >> pivot) & 1:
                word ^= row
        if word == 0:
            raise GolayConstructionError("dependent lexicode basis word")
        pivot = word.bit_length() - 1
        rows = [(p, r ^ word if (r >> pivot) & 1 else r) for p, r in rows]
        rows.append((pivot, word))
    return rows


def _syndrome(rows: list[tuple[int, int]], nonpivots: list[int], word: int) -> int:
    """The non-pivot bits, packed in order, of the word's coset member
    with every pivot bit clear."""
    for pivot, row in rows:
        if (word >> pivot) & 1:
            word ^= row
    return sum(1 << i for i, bit in enumerate(nonpivots) if (word >> bit) & 1)


def _coset_table(basis: list[int]) -> tuple[np.ndarray, list[int]]:
    """The coset-leader table of the span and its non-pivot bits: entry s
    is True when a word of weight <= 7 has syndrome s.  Such a word splits
    into its low and high 12 bits, so the table marks each XOR of a
    syndrome of a low a-subset with one of a high subset of at most 7 - a
    bits, a few rows at a time: no index array outgrows the table.
    """
    rows = _rref(basis)
    pivots = {p for p, _ in rows}
    nonpivots = [b for b in range(_LEX_LENGTH) if b not in pivots]
    half = _LEX_LENGTH // 2
    # low[i] (high[i]): the syndrome of the word with low (high) 12 bits i, the rest 0
    low, high = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    for j in range(half):
        low = np.concatenate([low, low ^ _syndrome(rows, nonpivots, 1 << j)])
        high = np.concatenate([high, high ^ _syndrome(rows, nonpivots, 1 << (half + j))])
    size = np.bitwise_count(np.arange(1 << half))
    near = np.zeros(1 << len(nonpivots), dtype=bool)
    for a in range(_LEX_DISTANCE):
        lows, highs = low[size == a], high[size < _LEX_DISTANCE - a]
        step = max(1, len(near) // (16 * len(highs)))
        for i in range(0, len(lows), step):
            near[lows[i : i + step, np.newaxis] ^ highs] = True
    return near, nonpivots


def _fold(near: np.ndarray, nonpivots: list[int], s: int) -> tuple[np.ndarray, list[int]]:
    """The table once a word of syndrome s joins the basis.  Its pivot is
    non-pivot bit p, the top bit of s; a syndrome with bit p set gains s,
    and bit p drops: new[t] = near[u] | near[u ^ s], u being t with a 0
    inserted at bit p.  On a (2,)*n view, XOR by s reverses some axes.
    """
    p = s.bit_length() - 1
    bits = range(len(nonpivots) - 1, -1, -1)
    cube = near.reshape((2,) * len(nonpivots))
    kept = cube[tuple(0 if b == p else slice(None) for b in bits)]
    moved = cube[tuple(1 if b == p else slice(None, None, -1 if s >> b & 1 else 1) for b in bits)]
    return (kept | moved).reshape(-1), nonpivots[:p] + nonpivots[p + 1 :]


def _read_off(near: np.ndarray, nonpivots: list[int]) -> tuple[int, int | None]:
    """The least syndrome of leader weight >= 8 and its coset's least word,
    the one with every pivot bit clear (a codeword sets its highest pivot
    and no higher bit), or None for the word if every coset is near."""
    s = int(near.argmin())
    return s, None if near[s] else sum(1 << b for i, b in enumerate(nonpivots) if s >> i & 1)


# -- group generator constructions ---------------------------------------------


def affine_group_generators(kind: str, d: int) -> GeneratorSet:
    """Generators of the affine-type groups on GF(2)^d (as 0..2^d-1)."""
    if kind not in AFFINE_KINDS:
        raise CatalogError(f"unknown affine kind {kind!r}, expected one of {AFFINE_KINDS}")
    if d < 1 or exceeds(2, d, MAX_POINTS):
        raise CatalogError(f"need 1 <= d <= 7, got {d}")
    n = 1 << d
    translations = [tuple(x ^ (1 << i) for x in range(n)) for i in range(d)]
    if kind == "AGL_d_2":
        pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
        shears = [tuple(x ^ (((x >> j) & 1) << i) for x in range(n)) for i, j in pairs]
        return GeneratorSet(n, translations + shears)
    if kind == "T_A7":
        if d != 4:
            raise CatalogError("the A7 point stabilizer lives in GL(4,2); need d = 4")
        return GeneratorSet(n, tuple(translations) + load_a7_generators().gens)
    ctx = FieldContext(2, d)
    gens = [
        tuple(ctx.add(x, 1) for x in range(n)),
        tuple(ctx.mul(ctx.omega, x) for x in range(n)),
    ]
    if kind == "AGammaL_1":
        gens.append(tuple(ctx.pow(x, 2) for x in range(n)))
    return GeneratorSet(n, gens)


def projective_group_generators(kind: str, q: int, e: int) -> GeneratorSet:
    """Generators of PSL/PGL/PSigmaL/PGammaL(2, q^e) on the projective line."""
    if kind not in PROJECTIVE_KINDS:
        raise CatalogError(f"unknown projective kind {kind!r}, expected one of {PROJECTIVE_KINDS}")
    return _projective_line(q, e).group(kind)


# A7 <= GL(4,2) as two permutations of GF(2)^4, vectors as integers 0..15:
# the first random pair of invertible matrices (seed 20240229, 17 attempts)
# spanning a group of order 2520 transitive on the 15 nonzero vectors;
# scripts/find_a7_generators.py repeats the search
_A7_GENERATORS = (
    (0, 1, 11, 10, 3, 2, 8, 9, 15, 14, 4, 5, 12, 13, 7, 6),
    (0, 6, 8, 14, 2, 4, 10, 12, 15, 9, 7, 1, 13, 11, 5, 3),
)


def load_a7_generators() -> GeneratorSet:
    """The A7 <= GL(4,2) generators as permutations of GF(2)^4."""
    return GeneratorSet(16, _A7_GENERATORS)


# -- the classification table ---------------------------------------------------


@dataclass(frozen=True)
class CatalogueEntry:
    family: str  # "affine" | "spherical" | "netto" | "witt"
    params: tuple[tuple[str, int], ...]
    groups: tuple[tuple[str, str], ...]  # (group name, construction recipe)

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        groups = "; ".join(name for name, _ in self.groups)
        return f"{self.family}({params}): {groups}" if params else f"{self.family}: {groups}"


def _affine_entry(d: int) -> CatalogueEntry:
    groups = [(f"AGL({d},2)", f"affine --kind AGL_d_2 --d {d}")]
    if d == 3:
        groups.append(("AGL(1,8)", "affine --kind AGL_1 --d 3"))
        groups.append(("AGammaL(1,8)", "affine --kind AGammaL_1 --d 3"))
    if d == 4:
        groups.append(("2^4:A7", "affine --kind T_A7 --d 4"))
    if d == 5:
        groups.append(("AGammaL(1,32)", "affine --kind AGammaL_1 --d 5"))
    return CatalogueEntry("affine", (("d", d),), tuple(groups))


def _spherical_entry(q: int, e: int) -> CatalogueEntry:
    n = q**e
    groups = [(f"PGL(2,{n}) up to PGammaL(2,{n})", f"projective --kind PGL --q {q} --e {e}")]
    if e % 2 == 1 and q % 2 == 1:
        groups.append((f"PSL(2,{n}) (e odd)", f"projective --kind PSL --q {q} --e {e}"))
    return CatalogueEntry("spherical", (("q", q), ("e", e)), tuple(groups))


def _netto_entry(q: int) -> CatalogueEntry:
    groups = (
        (f"PSL(2,{q})", f"projective --kind PSL --q {q} --e 1"),
        (f"PSigmaL(2,{q})", f"projective --kind PSigmaL --q {q} --e 1"),
    )
    return CatalogueEntry("netto", (("q", q),), groups)


_WITT_ENTRY = CatalogueEntry(
    "witt",
    (),
    (("Aut of the 3-(22,6,1) design (contains M22)", "autgroup on the witt design"),),
)


# classify factors v - 1 and k - 1 by trial division: about 0.1 s for a prime
# just below 2^40
CLASSIFY_MAX_BITS = 40


def classify(v: int, k: int) -> list[CatalogueEntry]:
    """All catalogue rows with the given parameters; empty means no
    flag-transitive Steiner 3-design with these parameters exists."""
    if not 3 < k < v:
        raise CatalogError(f"need 3 < k < v for a non-trivial design, got {(v, k)}")
    if (v - 1).bit_length() > CLASSIFY_MAX_BITS:
        raise CatalogError(
            f"need v <= 2^{CLASSIFY_MAX_BITS} for factoring, "
            f"got v - 1 of {(v - 1).bit_length()} bits"
        )
    rows: list[CatalogueEntry] = []
    # 3 < k < v: a power of two v is at least 8, and q = k - 1 at least 3
    if k == 4 and v & (v - 1) == 0:
        rows.append(_affine_entry(v.bit_length() - 1))
    q = k - 1
    e = power_exponent(v - 1, q)
    if e is not None and e >= 2 and prime_power(q) is not None:
        rows.append(_spherical_entry(q, e))
    if k == 4:
        q = v - 1
        if q % 12 == 7 and prime_power(q) is not None:
            rows.append(_netto_entry(q))
    if (v, k) == (22, 6):
        rows.append(_WITT_ENTRY)
    return rows
