"""The four flag-transitive Steiner 3-design families and their groups.

Constructions are orbit-based wherever a base block exists (projective
families) and first-principles otherwise: the 3-(2^d,4,1) designs come
straight from the zero-XOR-sum condition, and the 3-(22,6,1) design is
built from scratch through the length-24 minimum-distance-8 binary
lexicode (greedy closure), its 759 weight-8 supports, and two
derivations.  Every route is self-certifying: wrong intermediate counts
raise instead of producing a wrong design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

import numpy as np

from .design import MAX_POINTS, Design, derived_design
from .gf import FieldContext, prime_power
from .permgrp import GeneratorSet, parse_generators

AFFINE_KINDS = ("AGL_d_2", "AGL_1", "AGammaL_1", "T_A7")
PROJECTIVE_KINDS = ("PSL", "PGL", "PSigmaL", "PGammaL")


class CatalogError(ValueError):
    """Parameters outside a family's admissible range."""


class GolayConstructionError(RuntimeError):
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
        ctx = self.ctx
        images = [ctx._add(i, 1) for i in range(ctx.order)] + [self.infinity]
        return tuple(images)

    def scaling(self, factor_index: int) -> tuple[int, ...]:
        """x -> c x for a fixed nonzero c."""
        ctx = self.ctx
        if factor_index == 0:
            raise CatalogError("scaling factor must be nonzero")
        images = [ctx._mul(factor_index, i) for i in range(ctx.order)]
        images.append(self.infinity)
        return tuple(images)

    def inversion(self, negate: bool = False) -> tuple[int, ...]:
        """x -> 1/x, or x -> -1/x with negate=True."""
        ctx = self.ctx
        images = [self.infinity]  # 0 -> inf
        for i in range(1, ctx.order):
            j = ctx._inv(i)
            images.append(ctx._neg(j) if negate else j)
        images.append(0)  # inf -> 0
        return tuple(images)

    def frobenius_map(self) -> tuple[int, ...]:
        """x -> x^p."""
        ctx = self.ctx
        images = [ctx._pow(i, ctx.p) for i in range(ctx.order)] + [self.infinity]
        return tuple(images)


def _block_orbit(gens: Sequence[tuple[int, ...]], base: tuple[int, ...]) -> list:
    """Sorted images of a base block under the group the generators span:
    a breadth-first closure over point sets, which have no dense index."""
    seen = {base}
    frontier = [base]
    while frontier:
        new = []
        for g in gens:
            for block in frontier:
                image = tuple(sorted(map(g.__getitem__, block)))
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return sorted(seen)


# -- design constructors -------------------------------------------------------


def construct_boolean_affine(d: int) -> Design:
    """Points and planes of AG(d,2): all 4-sets with zero XOR sum."""
    if d < 3 or (1 << d) > MAX_POINTS:
        raise CatalogError(f"need 3 <= d <= 7, got {d}")
    n = 1 << d
    blocks = []
    for x in range(n):
        for y in range(x + 1, n):
            xy = x ^ y
            for z in range(y + 1, n):
                w = xy ^ z
                if w > z:
                    blocks.append((x, y, z, w))
    return Design(n, 3, blocks)


def construct_spherical(q: int, e: int) -> Design:
    """3-(q^e+1, q+1, 1): orbit of the subline GF(q) u {inf} under PGL."""
    pp = prime_power(q)
    if pp is None or q < 3:
        raise CatalogError(f"q must be a prime power >= 3, got {q}")
    if e < 2:
        raise CatalogError(f"e must be >= 2, got {e}")
    if q**e + 1 > MAX_POINTS:
        raise CatalogError(f"q^e + 1 = {q**e + 1} exceeds the {MAX_POINTS} bound")
    p, j = pp
    ctx = FieldContext(p, j * e)
    line = ProjectiveLine(ctx)
    base = tuple(sorted(ctx.subfield_indices(q) + [line.infinity]))
    gens = projective_group_generators("PGL", q, e)
    blocks = _block_orbit(gens.gens, base)
    return Design(line.size, 3, blocks)


def construct_netto_extension(q: int) -> Design:
    """3-(q+1, 4, 1): orbit of {0, 1, eps, inf} under PSL, q = 7 (mod 12)."""
    pp = prime_power(q)
    if pp is None or q % 12 != 7:
        raise CatalogError(f"q must be a prime power congruent to 7 mod 12, got {q}")
    if q + 1 > MAX_POINTS:
        raise CatalogError(f"q + 1 = {q + 1} exceeds the {MAX_POINTS} bound")
    p, j = pp
    ctx = FieldContext(p, j)
    line = ProjectiveLine(ctx)
    eps = ctx.primitive_sixth_root()
    base = tuple(sorted((0, 1, eps.index, line.infinity)))
    gens = projective_group_generators("PSL", q, 1)
    blocks = _block_orbit(gens.gens, base)
    return Design(line.size, 3, blocks)


def construct_octad_design() -> Design:
    """The 5-(24,8,1) design whose blocks are the lexicode octads."""
    words = lexicode_codewords()
    if len(words) != 4096:
        raise GolayConstructionError(f"expected 4096 codewords, got {len(words)}")
    octads = sorted(
        tuple(i for i in range(24) if (w >> i) & 1)
        for w in words
        if w.bit_count() == 8
    )
    if len(octads) != 759:
        raise GolayConstructionError(f"expected 759 octads, got {len(octads)}")
    return Design(24, 5, octads)


def construct_witt_22() -> Design:
    """The 3-(22,6,1) design: the octad design derived at its two last points."""
    first = derived_design(construct_octad_design(), 23)
    if first.b != 253:
        raise GolayConstructionError(
            f"expected 253 blocks after one derivation, got {first.b}"
        )
    second = derived_design(first, 22)
    if second.b != 77:
        raise GolayConstructionError(
            f"expected 77 blocks after two derivations, got {second.b}"
        )
    return second


# -- lexicode ------------------------------------------------------------------

_LEX_LENGTH = 24
_LEX_DISTANCE = 8
_LEX_DIMENSION = 12


@lru_cache(maxsize=1)
def lexicode_codewords() -> tuple[int, ...]:
    """All words of the greedy minimum-distance-8 lexicode of length 24.

    Scans candidates in increasing order, keeping the span closed: a word
    joins the basis iff its whole coset keeps distance >= 8.  While the
    span is small the scan tests candidates against span words directly;
    once the syndrome space is small it switches to a coset-leader-weight
    table (breadth-first to depth 7, since only "weight >= 8" matters).
    """
    basis: list[int] = []
    span = np.zeros(1, dtype=np.uint32)
    c = 1
    limit = 1 << _LEX_LENGTH
    chunk = 1 << 16
    while len(basis) < _LEX_DIMENSION and c < limit:
        if len(basis) < 8:
            hi = min(c + chunk, limit)
            cand = np.arange(c, hi, dtype=np.uint32)
            alive = np.ones(cand.shape, dtype=bool)
            for w in span:
                if not alive.any():
                    break
                sub = cand[alive]
                alive[alive.nonzero()[0]] = np.bitwise_count(sub ^ w) >= _LEX_DISTANCE
            hits = alive.nonzero()[0]
            if hits.size:
                found = int(cand[hits[0]])
            else:
                c = hi
                continue
        else:
            found = _scan_with_syndromes(basis, c, limit)
            if found is None:
                break
        basis.append(found)
        span = np.concatenate([span, span ^ np.uint32(found)])
        c = found + 1
    if len(basis) != _LEX_DIMENSION:
        raise GolayConstructionError(
            f"lexicode scan found {len(basis)} basis words, expected {_LEX_DIMENSION}"
        )
    return tuple(sorted(int(w) for w in span))


def _rref(basis: list[int]) -> list[tuple[int, int]]:
    """Row-reduce over GF(2); returns (pivot bit, row) pairs."""
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


def _scan_with_syndromes(basis: list[int], start: int, limit: int) -> int | None:
    rows = _rref(basis)
    pivots = {p for p, _ in rows}
    nonpivots = [b for b in range(_LEX_LENGTH) if b not in pivots]

    def packed_syndrome(word: int) -> int:
        for pivot, row in rows:
            if (word >> pivot) & 1:
                word ^= row
        out = 0
        for j, bit in enumerate(nonpivots):
            out |= ((word >> bit) & 1) << j
        return out

    tables = [
        np.array([packed_syndrome(byte << shift) for byte in range(256)], dtype=np.uint32)
        for shift in (0, 8, 16)
    ]
    # coset-leader weights by BFS, capped: 255 means weight >= distance
    size = 1 << len(nonpivots)
    weights = np.full(size, 255, dtype=np.uint8)
    weights[0] = 0
    columns = np.array([packed_syndrome(1 << j) for j in range(_LEX_LENGTH)], dtype=np.uint32)
    frontier = np.array([0], dtype=np.uint32)
    for depth in range(1, _LEX_DISTANCE):
        nxt = (frontier[:, None] ^ columns[None, :]).ravel()
        nxt = np.unique(nxt[weights[nxt] == 255])
        if nxt.size == 0:
            break
        weights[nxt] = depth
        frontier = nxt

    t0, t1, t2 = tables
    c = start
    block = 1 << 20
    while c < limit:
        hi = min(c + block, limit)
        cand = np.arange(c, hi, dtype=np.uint32)
        syn = t0[cand & 0xFF] ^ t1[(cand >> 8) & 0xFF] ^ t2[cand >> 16]
        hits = (weights[syn] == 255).nonzero()[0]
        if hits.size:
            return int(cand[hits[0]])
        c = hi
    return None


# -- group generator constructions ---------------------------------------------


def affine_group_generators(kind: str, d: int) -> GeneratorSet:
    """Generators of the affine-type groups on GF(2)^d (as 0..2^d-1)."""
    if kind not in AFFINE_KINDS:
        raise CatalogError(f"unknown affine kind {kind!r}, expected one of {AFFINE_KINDS}")
    if d < 1 or (1 << d) > MAX_POINTS:
        raise CatalogError(f"need 1 <= d <= 7, got {d}")
    n = 1 << d
    if kind == "AGL_d_2":
        gens = [tuple(x ^ (1 << i) for x in range(n)) for i in range(d)]
        for i in range(d):
            for j in range(d):
                if i != j:
                    gens.append(
                        tuple(x ^ (((x >> j) & 1) << i) for x in range(n))
                    )
        return GeneratorSet(n, gens)
    if kind == "T_A7":
        if d != 4:
            raise CatalogError("the A7 point stabilizer lives in GL(4,2); need d = 4")
        translations = [tuple(x ^ (1 << i) for x in range(n)) for i in range(4)]
        a7 = load_a7_generators()
        return GeneratorSet(n, tuple(translations) + a7.gens)
    ctx = FieldContext(2, d)
    gens = [
        tuple(ctx._add(x, 1) for x in range(n)),
        tuple(ctx._mul(ctx._omega_idx, x) for x in range(n)),
    ]
    if kind == "AGammaL_1":
        gens.append(tuple(ctx._pow(x, 2) for x in range(n)))
    return GeneratorSet(n, gens)


def projective_group_generators(kind: str, q: int, e: int) -> GeneratorSet:
    """Generators of PSL/PGL/PSigmaL/PGammaL(2, q^e) on the projective line.

    For even q the PSL and PGL generator sets coincide (squaring is a
    bijection there, and -1 = 1); the catalogue reports such entries once.
    """
    if kind not in PROJECTIVE_KINDS:
        raise CatalogError(
            f"unknown projective kind {kind!r}, expected one of {PROJECTIVE_KINDS}"
        )
    pp = prime_power(q)
    if pp is None:
        raise CatalogError(f"q must be a prime power, got {q}")
    if e < 1:
        raise CatalogError(f"e must be >= 1, got {e}")
    if q**e + 1 > MAX_POINTS:
        raise CatalogError(f"q^e + 1 = {q**e + 1} exceeds the {MAX_POINTS} bound")
    p, j = pp
    ctx = FieldContext(p, j * e)
    line = ProjectiveLine(ctx)
    if kind in ("PGL", "PGammaL"):
        gens = [line.translation(), line.scaling(ctx._omega_idx), line.inversion()]
    else:
        omega2 = ctx._mul(ctx._omega_idx, ctx._omega_idx)
        gens = [line.translation(), line.scaling(omega2), line.inversion(negate=True)]
    if kind in ("PSigmaL", "PGammaL"):
        gens.append(line.frobenius_map())
    return GeneratorSet(line.size, gens)


def load_a7_generators() -> GeneratorSet:
    """The bundled A7 <= GL(4,2) generators as permutations of GF(2)^4.

    The data file records its own search oracle: random pairs of
    invertible 4x4 matrices over GF(2), accepted when the generated group
    has order 2520 and is transitive on the 15 nonzero vectors.
    """
    path = resources.files("steiner3") / "data" / "a7_gl42.gens"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise CatalogError("bundled data file a7_gl42.gens is missing") from exc
    gens = parse_generators(text)
    if gens.degree != 16 or not gens.gens:
        raise CatalogError("a7_gl42.gens is corrupt: expected degree-16 generators")
    for g in gens.gens:
        if g[0] != 0:
            raise CatalogError("a7_gl42.gens is corrupt: generators must fix 0")
    return gens


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
    groups = [
        (
            f"PGL(2,{q**e}) up to PGammaL(2,{q**e})",
            f"projective --kind PGL --q {q} --e {e}",
        )
    ]
    if e % 2 == 1 and q % 2 == 1:
        groups.append(
            (f"PSL(2,{q**e}) (e odd)", f"projective --kind PSL --q {q} --e {e}")
        )
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


def classify(v: int, k: int) -> list[CatalogueEntry]:
    """All catalogue rows with the given parameters; empty means no
    flag-transitive Steiner 3-design with these parameters exists."""
    if not 3 < k < v:
        raise CatalogError(f"need 3 < k < v for a non-trivial design, got {(v, k)}")
    rows: list[CatalogueEntry] = []
    if k == 4 and v >= 8:
        d = v.bit_length() - 1
        if 1 << d == v and d >= 3:
            rows.append(_affine_entry(d))
    if k >= 4:
        q = k - 1
        if prime_power(q) is not None and q >= 3:
            base = v - 1
            e = 0
            power = 1
            while power < base:
                power *= q
                e += 1
            if power == base and e >= 2:
                rows.append(_spherical_entry(q, e))
    if k == 4:
        q = v - 1
        if q % 12 == 7 and prime_power(q) is not None:
            rows.append(_netto_entry(q))
    if (v, k) == (22, 6):
        rows.append(_WITT_ENTRY)
    return rows
