"""Groups of permutations on {0..n-1}: orbits, exact orders, design actions.

A permutation is its image tuple g, sending x to g[x]; `GeneratorSet`
checks each one, and `orbit` is the single breadth-first closure that
every orbit computation goes through: a frontier search with a visited
bitmap over an array of generator images.

Group order uses a deterministic Schreier-Sims construction: no
randomness, so stabilizer chains (and everything derived from them) are
reproducible run to run.  The automorphism search for a design is a
backtracking search over point images, pruned by the block structure,
returning one coset representative per stabilizer-chain level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .design import MAX_POINTS, Design


class PermutationError(ValueError):
    """Malformed permutation or mismatched degrees."""


class SetNotPreserved(ValueError):
    """A permutation mapped some block outside the block list."""

    def __init__(self, witness: tuple[int, ...]):
        super().__init__(f"image of block {witness} is not a block")
        self.witness = witness


class SearchBudgetExceeded(RuntimeError):
    """Automorphism search refused: degree above the supported bound."""


@dataclass(frozen=True)
class GeneratorSet:
    """Permutations of {0..degree-1}, each stored as its image tuple:
    g sends x to g[x].  Every generator is checked here to be a
    bijection of the right degree."""

    degree: int
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.gens)
        for i, g in enumerate(gens):
            if len(g) != self.degree:
                raise PermutationError(
                    f"generator {i + 1} has degree {len(g)}, expected {self.degree}"
                )
            if sorted(g) != list(range(len(g))):
                raise PermutationError(
                    f"generator {i + 1} is not a bijection on 0..{self.degree - 1}: {g}"
                )
        object.__setattr__(self, "gens", gens)


@dataclass(frozen=True)
class GroupSummary:
    order: int
    base: tuple[int, ...]
    stabilizer_orders: tuple[int, ...]  # |G|, |G_b1|, |G_b1b2|, ..., 1


def orbit(images: Sequence[Sequence[int]], seeds: Sequence[int]) -> np.ndarray:
    """Sorted closure of the seed states under a table of generator images.

    `images` is an (m, n) integer array over the states range(n):
    generator i sends state s to images[i][s].  Breadth-first, one
    frontier at a time: each level maps the whole frontier through every
    generator in turn and keeps the states not yet set in a visited
    bitmap.  Each generator is a bijection, so what it reaches has no
    repeats and the next frontier needs no deduplication.  With no
    generators the orbit is the seeds themselves.
    """
    table = np.asarray(images)
    frontier = np.unique(np.asarray(seeds, dtype=np.intp))
    if table.size == 0:
        return frontier
    seen = np.zeros(table.shape[1], dtype=bool)
    seen[frontier] = True
    while frontier.size:
        fresh = []
        for row in table:
            reached = row[frontier]
            reached = reached[~seen[reached]]
            seen[reached] = True
            fresh.append(reached)
        frontier = np.concatenate(fresh)
    return np.flatnonzero(seen)


def _image_table(perms: Sequence, n: int) -> np.ndarray:
    """The (len(perms), n) int32 array of image tuples; (0, n) for none."""
    return np.array(perms, dtype=np.int32).reshape(len(perms), n)


def _orbit_sizes(table: np.ndarray, skip: slice = slice(0)) -> list[int]:
    """Sizes of the orbits splitting the table's states (less `skip`),
    ordered by their least state."""
    covered = np.zeros(table.shape[1], dtype=bool)
    covered[skip] = True
    sizes = []
    for seed in range(len(covered)):
        if not covered[seed]:
            part = orbit(table, [seed])
            covered[part] = True
            sizes.append(len(part))
    return sizes


# -- Schreier-Sims --------------------------------------------------------


class _Level:
    __slots__ = ("beta", "gens", "transversal", "done")

    def __init__(self, beta: int, ident: tuple):
        self.beta = beta
        self.gens: list[tuple] = []
        self.transversal: dict[int, tuple[tuple, tuple]] = {beta: (ident, ident)}
        self.done: set[tuple[int, int]] = set()


def _compose(f: tuple, g: tuple) -> tuple:
    return tuple(g[x] for x in f)


def _invert(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def group_order(gens: GeneratorSet, base_prefix: Sequence[int] = ()) -> GroupSummary:
    """Exact order and stabilizer-chain orders via Schreier-Sims.

    New base points are chosen greedily as the smallest point moved at
    that level; `base_prefix` forces the first base points, which makes
    stabilizer orders along a chosen point sequence directly readable.
    """
    degree = gens.degree
    ident = tuple(range(degree))
    levels = [_Level(b, ident) for b in base_prefix]

    def sift(g: tuple, start: int) -> tuple[tuple, int]:
        for i in range(start, len(levels)):
            lvl = levels[i]
            d = g[lvl.beta]
            if d == lvl.beta:
                continue
            entry = lvl.transversal.get(d)
            if entry is None:
                return g, i
            g = _compose(g, entry[1])
        return g, len(levels)

    def place(residue: tuple, top: int, j: int) -> None:
        # append residue to every level it belongs to: top..j
        if j == len(levels):
            beta = min(x for x in range(degree) if residue[x] != x)
            levels.append(_Level(beta, ident))
        for m in range(top, j + 1):
            levels[m].gens.append(residue)

    def process(i: int) -> int | None:
        """Handle unprocessed (orbit point, generator) pairs at level i.

        Returns the deepest level that received a new generator, or None
        once level i is complete.
        """
        lvl = levels[i]
        frontier = list(lvl.transversal)
        while frontier:
            new_points = []
            for p in frontier:
                up = lvl.transversal[p][0]
                for gi in range(len(lvl.gens)):
                    if (p, gi) in lvl.done:
                        continue
                    lvl.done.add((p, gi))
                    s = lvl.gens[gi]
                    q = s[p]
                    entry = lvl.transversal.get(q)
                    if entry is None:
                        u = _compose(up, s)
                        lvl.transversal[q] = (u, _invert(u))
                        new_points.append(q)
                        continue
                    schreier = _compose(_compose(up, s), entry[1])
                    if schreier == ident:
                        continue
                    residue, j = sift(schreier, i + 1)
                    if residue == ident:
                        continue
                    place(residue, i + 1, j)
                    return j
            frontier = new_points
        return None

    for g in gens.gens:
        residue, j = sift(g, 0)
        if residue == ident:
            continue
        place(residue, 0, j)
        i = j
        while i >= 0:
            deeper = process(i)
            i = deeper if deeper is not None else i - 1

    order = 1
    chain = [1]
    for lvl in reversed(levels):
        order *= len(lvl.transversal)
        chain.append(order)
    chain.reverse()
    return GroupSummary(
        order=order,
        base=tuple(lvl.beta for lvl in levels),
        stabilizer_orders=tuple(chain),
    )


# -- actions on designs ----------------------------------------------------


def block_action(design: Design, g: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation induced on block indices, if g preserves the blocks.

    Otherwise raises SetNotPreserved with the first block, in canonical
    order, whose image is not a block.
    """
    if len(g) != design.v:
        raise PermutationError(
            f"permutation degree {len(g)} != point count {design.v}"
        )
    images = design.block_index(np.asarray(g)[design.block_array])
    missing = np.flatnonzero(images < 0)
    if missing.size:
        raise SetNotPreserved(design.blocks[missing[0]])
    return tuple(images.tolist())


@dataclass(frozen=True)
class FlagReport:
    v: int
    b: int
    k: int
    preserves_blocks: bool
    flag_count: int
    flag_orbit_size: int
    block_orbit_count: int
    block_orbit_sizes: tuple[int, ...]
    point_orbit_count: int
    point_pair_orbit_count: int
    flag_transitive: bool
    block_transitive: bool
    point_transitive: bool
    point_2_transitive: bool


def is_flag_transitive(design: Design, gens: GeneratorSet) -> FlagReport:
    """Transitivity report for a group acting on a design.

    Flags are encoded as block_index*k + position in the block.  Raises
    SetNotPreserved if some generator is not an automorphism.
    """
    if gens.degree != design.v:
        raise PermutationError(
            f"generator degree {gens.degree} != point count {design.v}"
        )
    v, b, k = design.v, design.b, design.k
    points = _image_table(gens.gens, v)
    blocks = np.empty((len(points), b), dtype=np.int32)
    flags = np.empty((len(points), b * k), dtype=np.int32)
    for i, g in enumerate(gens.gens):
        blocks[i] = block_action(design, g)
        # the image of a flag's point sits at its rank in the mapped block
        mapped = points[i][design.block_array]
        rank = sum(mapped > mapped[:, j, np.newaxis] for j in range(k))
        flags[i] = (blocks[i][:, np.newaxis] * k + rank).ravel()
    pairs = (points[:, :, np.newaxis] * v + points[:, np.newaxis, :]).reshape(-1, v * v)

    flag_orbit_size = len(orbit(flags, [0]))
    flag_count = b * k
    block_orbit_sizes = _orbit_sizes(blocks)
    point_orbit_sizes = _orbit_sizes(points)
    pair_orbit_sizes = _orbit_sizes(pairs, skip=slice(None, None, v + 1))

    return FlagReport(
        v=v,
        b=b,
        k=k,
        preserves_blocks=True,
        flag_count=flag_count,
        flag_orbit_size=flag_orbit_size,
        block_orbit_count=len(block_orbit_sizes),
        block_orbit_sizes=tuple(block_orbit_sizes),
        point_orbit_count=len(point_orbit_sizes),
        point_pair_orbit_count=len(pair_orbit_sizes),
        flag_transitive=flag_orbit_size == flag_count,
        block_transitive=len(block_orbit_sizes) == 1,
        point_transitive=len(point_orbit_sizes) == 1,
        point_2_transitive=len(pair_orbit_sizes) == 1,
    )


# -- automorphism search ----------------------------------------------------

AUT_SEARCH_MAX_POINTS = 64


class _AutSearch:
    """Backtracking over point images with block-consistency propagation.

    Once three assigned points of a block determine its image block, every
    further point of that block is confined to the image; the next point
    to branch on is always one lying in the most already-determined
    blocks, so refutations stay shallow.
    """

    def __init__(self, design: Design):
        self.v = design.v
        self.blocks = design.blocks
        self.nblocks = len(design.blocks)
        self.through: list[list[int]] = [[] for _ in range(self.v)]
        for bi, block in enumerate(design.blocks):
            for x in block:
                self.through[x].append(bi)
        self.triple: dict[tuple[int, int, int], int] = {}
        for bi, block in enumerate(design.blocks):
            for tri in combinations(block, 3):
                self.triple[tri] = bi
        self.members = [set(block) for block in design.blocks]

    def find(self, partial: dict[int, int]) -> tuple[int, ...] | None:
        """First automorphism extending the partial point map, or None."""
        v = self.v
        self.img = [-1] * v
        self.pre = [-1] * v
        self.blk_img = [-1] * self.nblocks
        self.blk_pre = [-1] * self.nblocks
        self.count = [0] * self.nblocks
        self.assigned = [[] for _ in range(self.nblocks)]
        for x, y in partial.items():
            if self._assign(x, y) is None:
                return None
        return tuple(self.img) if self._dfs() else None

    def _assign(self, x: int, y: int):
        if self.pre[y] != -1 or self.img[x] != -1:
            return None
        self.img[x] = y
        self.pre[y] = x
        touched = 0
        determined = []
        ok = True
        for bi in self.through[x]:
            self.count[bi] += 1
            self.assigned[bi].append(x)
            touched += 1
            ti = self.blk_img[bi]
            if ti != -1:
                if y not in self.members[ti]:
                    ok = False
                    break
                continue
            if self.count[bi] != 3:
                continue
            a, c = (p for p in self.assigned[bi] if p != x)
            key = tuple(sorted((self.img[a], self.img[c], y)))
            ti = self.triple.get(key)
            if ti is None or self.blk_pre[ti] != -1:
                ok = False
                break
            consistent = True
            for w in self.blocks[ti]:
                z = self.pre[w]
                if z != -1 and z not in self.members[bi]:
                    consistent = False
                    break
            if not consistent:
                ok = False
                break
            self.blk_img[bi] = ti
            self.blk_pre[ti] = bi
            determined.append(bi)
        if ok:
            return determined
        for bi in self.through[x][:touched]:
            self.count[bi] -= 1
            self.assigned[bi].pop()
        for bi in determined:
            self.blk_pre[self.blk_img[bi]] = -1
            self.blk_img[bi] = -1
        self.img[x] = -1
        self.pre[y] = -1
        return None

    def _unassign(self, x: int, y: int, determined: list[int]) -> None:
        for bi in self.through[x]:
            self.count[bi] -= 1
            self.assigned[bi].pop()
        for bi in determined:
            self.blk_pre[self.blk_img[bi]] = -1
            self.blk_img[bi] = -1
        self.img[x] = -1
        self.pre[y] = -1

    def _next_point(self) -> tuple[int, int]:
        best, best_score = -1, -1
        for x in range(self.v):
            if self.img[x] != -1:
                continue
            score = sum(1 for bi in self.through[x] if self.blk_img[bi] != -1)
            if score > best_score:
                best, best_score = x, score
        return best, best_score

    def _dfs(self) -> bool:
        x, score = self._next_point()
        if x == -1:
            return True
        if score > 0:
            for bi in self.through[x]:
                ti = self.blk_img[bi]
                if ti != -1:
                    candidates = [w for w in self.blocks[ti] if self.pre[w] == -1]
                    break
        else:
            candidates = [w for w in range(self.v) if self.pre[w] == -1]
        for y in candidates:
            undo = self._assign(x, y)
            if undo is None:
                continue
            if self._dfs():
                return True
            self._unassign(x, y, undo)
        return False


def automorphism_group(design: Design) -> GeneratorSet:
    """Generators of the full automorphism group of a design.

    Walks the stabilizer chain of the base 0, 1, 2, ...: at each level it
    finds one automorphism per candidate image of the base point (skipping
    images already reachable by automorphisms found so far), so the union
    of the discovered coset representatives generates the whole group.
    Output order is deterministic.
    """
    v = design.v
    if v > AUT_SEARCH_MAX_POINTS:
        raise SearchBudgetExceeded(
            f"automorphism search supports at most {AUT_SEARCH_MAX_POINTS} points, got {v}"
        )
    searcher = _AutSearch(design)
    gens: list[tuple[int, ...]] = []
    prefix: dict[int, int] = {}

    for base in range(v):
        fixing = [g for g in gens if all(g[p] == p for p in prefix)]
        table = _image_table(fixing, v)
        done = orbit(table, [base])
        # an automorphism fixing 0..base-1 pointwise cannot send base below itself
        for y in range(base + 1, v):
            if y in done:
                continue
            trial = dict(prefix)
            trial[base] = y
            found = searcher.find(trial)
            if found is not None:
                gens.append(found)
                fixing.append(found)
                table = _image_table(fixing, v)
            done = orbit(table, np.append(done, y))
        prefix[base] = base
    return GeneratorSet(v, gens)


# -- generator file format ---------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_generators(text: str) -> GeneratorSet:
    """Parse the text format: a 'degree: n' header, then one permutation
    per line, either 1-based cycles "(1 2 3)(5 6)" or an image list
    "img: 2,0,1".  '#' starts a comment."""
    degree = None
    perms: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree:\s*(\d+)", line)
            if not m:
                raise PermutationError(
                    f"line {lineno}: expected 'degree: n' header, got {line!r}"
                )
            digits = m.group(1).lstrip("0") or "0"
            if len(digits) > len(str(MAX_POINTS)) or int(digits) > MAX_POINTS:
                raise PermutationError(
                    f"line {lineno}: degree {digits} exceeds the {MAX_POINTS}-point cap"
                )
            degree = int(digits)
            continue
        if line.startswith("img:"):
            perms.append(_integers(line[4:], lineno))
            continue
        if line.startswith("("):
            consumed = _CYCLE_RE.sub("", line).strip()
            if consumed:
                raise PermutationError(f"line {lineno}: trailing junk {consumed!r}")
            images = list(range(degree))
            for body in _CYCLE_RE.findall(line):
                pts = [p - 1 for p in _integers(body, lineno)]
                if any(p < 0 or p >= degree for p in pts):
                    raise PermutationError(
                        f"line {lineno}: cycle entry out of range 1..{degree}"
                    )
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    images[a] = b
            perms.append(images)
            continue
        raise PermutationError(f"line {lineno}: unrecognized permutation {line!r}")
    if degree is None:
        raise PermutationError("missing 'degree: n' header")
    return GeneratorSet(degree, perms)


def _integers(text: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise PermutationError(
            f"line {lineno}: expected integers, got {text.strip()!r}"
        ) from None


def format_generators(gens: GeneratorSet, comment: str | None = None) -> str:
    """Emit the canonical form of the generator file format: image lists."""
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"degree: {gens.degree}")
    for g in gens.gens:
        lines.append("img: " + ",".join(map(str, g)))
    return "\n".join(lines) + "\n"
