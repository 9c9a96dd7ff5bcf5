"""Groups of permutations on {0..n-1}: orbits, exact orders, design actions.

A permutation is its image tuple g, sending x to g[x]; `GeneratorSet`
checks each one, and `orbit` is the single breadth-first closure that
every orbit computation goes through: a frontier search with a visited
bitmap over an array of generator images.

Group order uses a deterministic Schreier-Sims construction: no
randomness, so stabilizer chains (and everything derived from them) are
reproducible run to run.  The chain holds its permutations as 256-byte
translation tables.  The flag check reads its orbits through the
generators its chain admits, and the stabilizer-order identities of a
flag-transitive action read |G| from that chain.
The automorphism search for a design is a
backtracking search over point images, pruned by the block structure,
returning one coset representative per new image of each base point.
One search state lives for the whole stabilizer-chain walk: the fixed
prefix of base points is assigned once, each trial assigns and undoes
only its own images on top of it, and the branching scores are kept up
to date as block images are fixed and released.  Image blocks are found
through the design's ranked 3-subset table.  For blocks of 4 points the
search also keeps the closure of its map under forced images, extended
with each assignment, which refutes a subtree at a contradiction and
settles it through `block_action`, the flag checks' own test, once every
point is forced.  `block_action` maps and looks up CHUNK_ROWS blocks at
a time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .design import CHUNK_ROWS, MAX_POINTS, Design, params_of, rank3
from .errors import DesignError, Steiner3Error
from .trace import emit


class PermutationError(Steiner3Error, ValueError):
    """Malformed permutation or mismatched degrees."""


class SetNotPreserved(Steiner3Error, ValueError):
    """A permutation mapped some block outside the block list."""

    def __init__(self, witness: tuple[int, ...]):
        super().__init__(f"image of block {witness} is not a block")
        self.witness = witness


class SearchBudgetExceeded(Steiner3Error, RuntimeError):
    """Automorphism search refused: degree above the supported bound, or
    more search nodes than the node budget."""


class NotFlagTransitive(Steiner3Error, ValueError):
    """The stabilizer identities require a flag-transitive action."""


@dataclass(frozen=True)
class GeneratorSet:
    """Permutations of {0..degree-1}, each stored as its image tuple:
    g sends x to g[x].  Every generator is checked here to be a
    bijection of the right degree, at most MAX_POINTS: Schreier-Sims
    holds each as a 256-byte translation table."""

    degree: int
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.degree > MAX_POINTS:
            raise PermutationError(f"degree {self.degree} exceeds the {MAX_POINTS}-point cap")
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


def orbit(
    images: Sequence[Sequence[int]], seeds: Sequence[int], seen: np.ndarray | None = None
) -> np.ndarray:
    """Sorted closure of the seed states under a table of generator images.

    `images` is an (m, n) integer array over the states range(n):
    generator i sends state s to images[i][s].  Breadth-first, one
    frontier at a time: each level maps the whole frontier through every
    generator in turn and keeps the states not yet set in a visited
    bitmap.  Each generator is a bijection, so what it reaches has no
    repeats and the next frontier needs no deduplication.  With no
    generators the orbit is the distinct seeds, in order.  The orbit is
    gathered from the frontiers, so no pass reads the whole bitmap.

    `seen`, if given, is the visited bitmap, marked in place: a caller
    that splits the states into orbits passes one bitmap for every seed,
    so no search allocates or scans one as wide as the table.  States
    already set in it count as other orbits' and are left out.
    """
    table = np.asarray(images)
    seeds = np.asarray(seeds, dtype=np.intp)
    if seen is None:
        width = table.shape[-1] if table.size else int(seeds.max(initial=-1)) + 1
        seen = np.zeros(width, dtype=bool)
    # the distinct new seeds, in order (np.unique would import numpy.ma)
    frontier = np.sort(seeds[~seen[seeds]])
    frontier = frontier[np.diff(frontier, prepend=-1) != 0]
    seen[frontier] = True
    parts = [frontier]
    while frontier.size and table.size:
        fresh = []
        for row in table:
            reached = row[frontier]
            reached = reached[~seen[reached]]
            seen[reached] = True
            fresh.append(reached)
        frontier = np.concatenate(fresh)
        parts.append(frontier)
    return np.sort(np.concatenate(parts))


def _image_table(perms: Sequence, n: int) -> np.ndarray:
    """The (len(perms), n) int32 array of image tuples; (0, n) for none."""
    return np.array(perms, dtype=np.int32).reshape(len(perms), n)


def _orbit_sizes(table: np.ndarray) -> list[int]:
    """Sizes of the orbits splitting the table's states, ordered by their
    least state.  Each seed is the first state not yet covered: a bool
    `argmin` from the last seed on stops at it, and one covered bitmap
    serves every seed's `orbit`.  With no generators every state is an
    orbit of its own."""
    covered = np.zeros(table.shape[1], dtype=bool)
    if not len(table):
        return [1] * len(covered)
    sizes = []
    seed = int(covered.argmin())
    while not covered[seed]:
        sizes.append(len(orbit(table, [seed], covered)))
        seed += int(covered[seed:].argmin())
    return sizes


# -- Schreier-Sims --------------------------------------------------------
#
# The chain holds each permutation as a 256-byte translation table (see
# `_table`): "f, then g" is the one C pass f.translate(g), an inverse
# bytes.maketrans(f, _IDENTITY), and the identity test one comparison.

_IDENTITY = bytes(range(256))


def _table(g: Sequence[int]) -> bytes:
    """g as a 256-byte translation table: its images, then fixed points."""
    return bytes(g) + _IDENTITY[len(g) :]


def _table_rows(tables: Sequence[bytes], n: int) -> np.ndarray:
    """The (len(tables), n) int32 array of the first n images of each table."""
    rows = np.frombuffer(b"".join(tables), dtype=np.uint8).reshape(len(tables), 256)
    return rows[:, :n].astype(np.int32)


class _Level:
    __slots__ = ("beta", "gens", "transversal", "done")

    def __init__(self, beta: int):
        self.beta = beta
        self.gens: list[bytes] = []
        self.transversal: dict[int, tuple[bytes, bytes]] = {beta: (_IDENTITY, _IDENTITY)}
        self.done: dict[int, int] = {}  # p: the pairs (p, gi) handled are gi < done[p]


def _schreier_sims(
    gens: GeneratorSet,
    base_prefix: Sequence[int] = (),
    admit: Callable[[tuple[int, ...]], None] | None = None,
) -> tuple[list[_Level], int, int]:
    """The levels of a stabilizer chain, base `base_prefix` extended
    greedily, with its sift and Schreier generator counts.

    Level i's transversal is the orbit of its base point under the
    stabilizer of the earlier ones, which its strong generators `gens`
    generate; each transversal entry is a pair of translation tables,
    u and its inverse.  An input generator that sifts to the identity
    lies in the group of the earlier ones and is skipped; `admit`, if
    given, is called with each other one, in input order, before the
    chain takes it in.
    """
    degree = gens.degree
    ident = _IDENTITY
    levels = [_Level(b) for b in base_prefix]
    sifts = schreier_formed = 0

    def sift(g: bytes, start: int) -> tuple[bytes, int]:
        nonlocal sifts
        sifts += 1
        for i in range(start, len(levels)):
            lvl = levels[i]
            d = g[lvl.beta]
            if d == lvl.beta:
                continue
            entry = lvl.transversal.get(d)
            if entry is None:
                return g, i
            g = g.translate(entry[1])
        return g, len(levels)

    def place(residue: bytes, top: int, j: int) -> None:
        # append residue to every level it belongs to: top..j
        if j == len(levels):
            beta = min(x for x in range(degree) if residue[x] != x)
            levels.append(_Level(beta))
        for m in range(top, j + 1):
            levels[m].gens.append(residue)

    def process(i: int) -> int | None:
        """Handle unprocessed (orbit point, generator) pairs at level i.

        Returns the deepest level that received a new generator, or None
        once level i is complete.  A scan returns right after the pair it
        counts, and `gens` only grows, so a point's pairs are a prefix.
        """
        nonlocal schreier_formed
        lvl = levels[i]
        frontier = list(lvl.transversal)
        while frontier:
            new_points = []
            for p in frontier:
                up = lvl.transversal[p][0]
                for gi in range(lvl.done.get(p, 0), len(lvl.gens)):
                    lvl.done[p] = gi + 1
                    s = lvl.gens[gi]
                    q = s[p]
                    u = up.translate(s)
                    entry = lvl.transversal.get(q)
                    if entry is None:
                        lvl.transversal[q] = (u, bytes.maketrans(u, ident))
                        new_points.append(q)
                        continue
                    schreier = u.translate(entry[1])
                    schreier_formed += 1
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
        residue, j = sift(_table(g), 0)
        if residue == ident:
            continue
        if admit is not None:
            admit(g)
        place(residue, 0, j)
        i = j
        while i >= 0:
            deeper = process(i)
            i = deeper if deeper is not None else i - 1
    return levels, sifts, schreier_formed


def group_order(gens: GeneratorSet, base_prefix: Sequence[int] = ()) -> GroupSummary:
    """Exact order and stabilizer-chain orders via Schreier-Sims.

    New base points are chosen greedily as the smallest point moved at
    that level; `base_prefix` forces the first base points, which makes
    stabilizer orders along a chosen point sequence directly readable.
    When tracing, one JSON line of counters goes to stderr.
    """
    levels, sifts, schreier_formed = _schreier_sims(gens, base_prefix)
    order = 1
    chain = [1]
    for lvl in reversed(levels):
        order *= len(lvl.transversal)
        chain.append(order)
    chain.reverse()
    emit("permgrp.group_order", levels=len(levels), sifts=sifts, schreier=schreier_formed)
    return GroupSummary(
        order=order,
        base=tuple(lvl.beta for lvl in levels),
        stabilizer_orders=tuple(chain),
    )


# -- actions on designs ----------------------------------------------------


def block_action(design: Design, g: tuple[int, ...]) -> np.ndarray:
    """The permutation induced on block indices, if g preserves the blocks,
    as a read-only (b,) int32 array: block i goes to block images[i].

    Otherwise raises SetNotPreserved with the first block, in canonical
    order, whose image is not a block.  The blocks are mapped and looked
    up CHUNK_ROWS at a time: take copies its indices to intp, so one
    gather over every block would hold twice the blocks.
    """
    if len(g) != design.v:
        raise PermutationError(
            f"permutation degree {len(g)} != point count {design.v}"
        )
    perm = np.asarray(g, dtype=np.int32)
    blocks = design.block_array
    images = np.empty(design.b, dtype=np.int32)
    for start in range(0, design.b, CHUNK_ROWS):
        found = design.block_index(perm.take(blocks[start : start + CHUNK_ROWS]))
        missing = np.flatnonzero(found < 0)
        if missing.size:
            raise SetNotPreserved(tuple(blocks[start + missing[0]].tolist()))
        images[start : start + len(found)] = found
    images.flags.writeable = False
    return images


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

    The orbit of the flag (B0, x0), B0 the first block and x0 its least
    point, has size |x0^G| * |B0^(G_x0)| by the orbit-stabiliser theorem:
    a Schreier-Sims chain with base x0 gives the orbit of x0 and strong
    generators of G_x0, which act on the r blocks through x0.  Raises
    SetNotPreserved if some generator is not an automorphism.  When
    tracing, one JSON line of counters goes to stderr.
    """
    return _flag_report(design, gens)[0]


def _flag_report(design: Design, gens: GeneratorSet) -> tuple[FlagReport, list[_Level]]:
    """`is_flag_transitive`'s report and the levels of the chain it builds.

    The block, point and pair orbits are those of any generating set, so
    they are read through the generators the chain admits only.  Each is
    checked with `block_action` as it is admitted: the first
    non-automorphism in input order is not a product of the earlier,
    block-preserving generators, so the chain admits it, and the check
    fails on it before the chain goes on.
    """
    if gens.degree != design.v:
        raise PermutationError(
            f"generator degree {gens.degree} != point count {design.v}"
        )
    v, b, k = design.v, design.b, design.k
    # one row per admitted generator; rows never written are never touched
    blocks = np.empty((len(gens.gens), b), dtype=np.int32)
    admitted: list[tuple[int, ...]] = []

    def admit(g: tuple[int, ...]) -> None:
        blocks[len(admitted)] = block_action(design, g)
        admitted.append(g)

    x0 = int(design.block_array[0, 0])
    levels, _, _ = _schreier_sims(gens, (x0,), admit)
    blocks = blocks[: len(admitted)]
    points = _image_table(admitted, v)
    pairs = (points[:, :, np.newaxis] * v + points[:, np.newaxis, :]).reshape(-1, v * v)

    stabilizer = levels[1].gens if len(levels) > 1 else []
    # the blocks through x0, in canonical order, so B0 is the first; G_x0
    # maps them among themselves, read off as positions in that list
    through = np.flatnonzero((design.block_array == x0).any(axis=1))
    rows = _table_rows(stabilizer, v)[:, design.block_array[through]]
    images = design.block_index(rows.reshape(-1, k))
    local = np.searchsorted(through, images).reshape(len(stabilizer), len(through))
    flag_orbit_size = len(levels[0].transversal) * len(orbit(local, [0]))
    flag_count = b * k
    block_orbit_sizes = _orbit_sizes(blocks)
    point_orbit_sizes = _orbit_sizes(points)
    # the pairs (x, x) make one orbit per point orbit
    pair_orbit_count = len(_orbit_sizes(pairs)) - len(point_orbit_sizes)
    emit(
        "permgrp.is_flag_transitive",
        generators=len(gens.gens),
        admitted=len(admitted),
        stabilizer_generators=len(stabilizer),
        through_blocks=len(through),
        flag_orbit=flag_orbit_size,
    )

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
        point_pair_orbit_count=pair_orbit_count,
        flag_transitive=flag_orbit_size == flag_count,
        block_transitive=len(block_orbit_sizes) == 1,
        point_transitive=len(point_orbit_sizes) == 1,
        point_2_transitive=pair_orbit_count == 1,
    ), levels


@dataclass(frozen=True)
class StabilizerReport:
    order: int
    v: int
    b: int
    k: int
    g_x: int
    g_xy: int
    g_b: int
    g_xb: int
    block_identity: bool  # b * |G_B| == v(v-1) |G_xy|
    point_identity: bool  # (v-2) |G_xB| == (k-1)(k-2) |G_xy|

    @property
    def ok(self) -> bool:
        return self.block_identity and self.point_identity


def stabilizer_identities(design: Design, gens: GeneratorSet) -> StabilizerReport:
    """Exact stabilizer-order identities for a flag-transitive action.

    With b*k flags in one orbit, |G_x| = |G|/v, |G_xy| = |G|/(v(v-1))
    (point 2-transitivity follows from flag-transitivity at t = 3),
    |G_B| = |G|/b and |G_xB| = |G|/(bk); then both
    b = v(v-1)|G_xy|/|G_B| and v-2 = (k-1)(k-2)|G_xy|/|G_xB| must hold.
    |G| is the product of the transversal sizes of the flag check's chain.
    """
    report, levels = _flag_report(design, gens)
    if not report.flag_transitive:
        raise NotFlagTransitive(
            f"flag orbit has size {report.flag_orbit_size} of {report.flag_count}"
        )
    params = params_of(design)
    v, b, k = params.v, params.b, params.k
    order = math.prod(len(lvl.transversal) for lvl in levels)
    quotients = {}
    for name, denom in (
        ("g_x", v),
        ("g_xy", v * (v - 1)),
        ("g_b", b),
        ("g_xb", b * k),
    ):
        if order % denom:
            raise NotFlagTransitive(
                f"|G| = {order} is not divisible by {denom} ({name} not integral)"
            )
        quotients[name] = order // denom
    g_xy, g_b, g_xb = quotients["g_xy"], quotients["g_b"], quotients["g_xb"]
    return StabilizerReport(
        order=order,
        v=v,
        b=b,
        k=k,
        g_x=quotients["g_x"],
        g_xy=g_xy,
        g_b=g_b,
        g_xb=g_xb,
        block_identity=b * g_b == v * (v - 1) * g_xy,
        point_identity=(v - 2) * g_xb == (k - 1) * (k - 2) * g_xy,
    )


# -- automorphism search ----------------------------------------------------

AUT_SEARCH_MAX_POINTS = 64
# the catalogue's largest search under the point cap, s72, takes 46 498
# nodes; a sparse partial system can take millions
AUT_SEARCH_MAX_NODES = 100_000


class _AutSearch:
    """Backtracking over point images with block-consistency propagation.

    Once three assigned points of a block determine its image block, every
    further point of that block is confined to the image; the next point
    to branch on is always the least one lying in the most
    already-determined blocks, so refutations stay shallow.  `score[x]`
    holds that count of determined blocks through x, kept live by
    `_assign` and `_unassign`; an assigned point's score is lowered by
    `taken`, so the first maximum of `score` is the branch point.  Each
    block keeps the bitmask of its assigned points' images; once three are
    assigned, its image block is the one the design's ranked 3-subset
    table (`Design.rank_table`) holds at the rank of those images, if it
    holds no other used image.  `used` is the bitmask of all assigned images.

    Beside the assignment runs its closure under forced images
    (`closure`, `cimg`, `cpre`): for k = 4, three closed points fix the
    fourth point of their block, whose image must be the fourth point of
    the block through their images.  The closure is anchored on its first
    two points: each newly closed point is tried with each anchor and the
    points closed after that anchor, through a table of the fourth points
    of the blocks through each anchor and through its image (`_fourth`).
    Every candidate image is closed before it is assigned.  A
    contradiction (a forced image already taken or different, or a block
    on one side only) refutes the subtree; a closure of all v points is
    the subtree's one candidate, kept only when it passes `block_action`
    (`_settle`).  The tree and its candidate order are those of the
    search without the closure, so the first automorphism found is the
    same.  For other k the closure stays empty.

    One searcher serves the whole stabilizer-chain walk: `generators`
    fixes each finished base point once, and every trial closes and
    assigns base -> y on top of that fixed prefix, its search unwinding
    all of its own assignments and closed points whether it succeeds or
    not.  `levels`, `trials`, `successes`, `nodes` and `settled` count
    the work.
    """

    def __init__(self, design: Design):
        # a block's image is fixed by three of its points: with fewer, no
        # assignment is ever checked against the blocks
        if design.k < 3:
            raise DesignError(
                f"automorphism search needs blocks of at least 3 points, got {design.k}"
            )
        self.design = design
        # the search maps each 3-subset to its one block, read one entry at
        # a time through a memoryview
        self.ranks = memoryview(design.rank_table())
        self.v = v = design.v
        # the rank of a < b < c is cubes[c] + pairs[(1 << a) | (1 << b)]
        self.cubes = rank3(0, 0, np.arange(v)).tolist()
        a, b = np.triu_indices(v, 1)
        keys = [(1 << i) | (1 << j) for i, j in zip(a.tolist(), b.tolist())]
        self.pairs = dict(zip(keys, rank3(a, b, 0).tolist()))
        rows = design.block_array
        self.blocks = rows.tolist()
        self.nblocks = len(self.blocks)
        # the blocks through each point, in block order: a stable sort of
        # the flattened rows groups each point's block indices, ascending
        flat = rows.ravel()
        order = np.argsort(flat, kind="stable") // design.k
        ends = np.cumsum(np.bincount(flat, minlength=v))
        self.through: list[list[int]] = [part.tolist() for part in np.split(order, ends[:-1])]
        self.points = [sum(1 << x for x in block) for block in self.blocks]
        self.img = [-1] * v
        self.blk_img = [-1] * self.nblocks
        self.mask = [0] * self.nblocks
        self.used = 0
        self.score = [0] * v
        self.taken = self.nblocks + 1
        self.closure: list[int] = []
        self.cimg = [-1] * v
        self.cpre = [-1] * v
        # only blocks of 4 points have a point fixed by three others
        self.fourths: dict[int, list[int]] | None = {} if design.k == 4 else None
        self.levels = self.trials = self.successes = self.nodes = self.settled = 0

    def generators(self) -> list[tuple[int, ...]]:
        """One automorphism per new image of each base point 0, 1, 2, ...

        Each generator found at level j fixes 0..j-1 and moves j, so none
        fixes a later level's prefix: every level starts with no generators
        and only its base point marked.  A per-level bitmap marks the images
        reachable by the generators this level has found, or already
        refuted; with no generator yet an image's orbit is itself.
        """
        v = self.v
        gens: list[tuple[int, ...]] = []
        for base in range(v):
            self.levels += 1
            start = len(gens)
            seen = np.zeros(v, dtype=bool)
            seen[base] = True
            # an automorphism fixing 0..base-1 pointwise cannot send base below itself
            for y in range(base + 1, v):
                if seen[y]:
                    continue
                found = self._trial(base, y)
                if found is None:
                    # no automorphism sends base into the orbit of y either
                    seen[orbit(table, [y]) if len(gens) > start else y] = True
                    continue
                gens.append(found)
                table = _image_table(gens[start:], v)
                seen[orbit(table, np.flatnonzero(seen))] = True
            self._fix(base)
        return gens

    def _fix(self, p: int) -> None:
        """Close and assign p -> p for the rest of the walk."""
        self._close(p, p)
        self._assign(p, p)

    def _trial(self, base: int, y: int) -> tuple[int, ...] | None:
        """First automorphism extending the prefix and base -> y, or None."""
        self.trials += 1
        found = self._extend(base, y)
        if found is not None:
            self.successes += 1
        return found

    def _extend(self, x: int, y: int) -> tuple[int, ...] | None:
        """First automorphism extending the current map and x -> y, or
        None; the map and its closure are left as they were."""
        mark = len(self.closure)
        found = None
        if self._close(x, y):
            if len(self.closure) == self.v:
                found = self._settle()
            else:
                undo = self._assign(x, y)
                if undo is not None:
                    found = self._dfs()
                    self._unassign(x, y, self.through[x], undo)
        self._cut(mark)
        return found

    def _close(self, x: int, y: int) -> bool:
        """Add x -> y and every image it forces to the closure; False at
        a contradiction, with the closure left for `_cut` to restore.
        Without forced images the closure stays empty."""
        if self.fourths is None:
            return True
        cimg, cpre, closure = self.cimg, self.cpre, self.closure
        if cimg[x] != -1:
            return cimg[x] == y
        if cpre[y] != -1:
            return False
        cimg[x], cpre[y] = y, x
        closure.append(x)
        # each newly closed z meets each anchor, one of the first two
        # closed points, with every point closed after that anchor and
        # before z, so each triple of anchor and pair is met once
        v, i = self.v, len(closure) - 1
        if i < 2:
            return True
        anchors = [
            (self._fourth(a), self._fourth(cimg[a]), after)
            for after, a in enumerate(closure[:2], 1)
        ]
        while i < len(closure):
            z = closure[i]
            zrow, wrow = z * v, cimg[z] * v
            for pre, post, after in anchors:
                for c in closure[after:i]:
                    d, e = pre[zrow + c], post[wrow + cimg[c]]
                    if d == -1 or e == -1:
                        # a block on one side only
                        if d != e:
                            return False
                    elif cimg[d] == -1:
                        if cpre[e] != -1:
                            return False
                        cimg[d], cpre[e] = e, d
                        closure.append(d)
                    elif cimg[d] != e:
                        return False
            i += 1
        return True

    def _fourth(self, a: int) -> list[int]:
        """At z*v + c, the fourth point of the block through a, z and c,
        or -1 where there is none or a, z and c are not distinct.  Built
        on first use by `Design.block_through`, for all z and c at once."""
        table = self.fourths.get(a)
        if table is None:
            z, c = np.divmod(np.arange(self.v**2, dtype=np.int32), self.v)
            blocks = self.design.block_through(a, z, c)
            sums = self.design.block_array.sum(axis=1, dtype=np.int32)
            fourth = sums.take(blocks) - (z + c + a)
            fourth[blocks < 0] = -1
            table = self.fourths[a] = fourth.tolist()
        return table

    def _cut(self, mark: int) -> None:
        """Take the points closed after the first `mark` out of the closure."""
        cimg, cpre, closure = self.cimg, self.cpre, self.closure
        for x in closure[mark:]:
            cpre[cimg[x]] = -1
            cimg[x] = -1
        del closure[mark:]

    def _settle(self) -> tuple[int, ...] | None:
        """The closure, complete, if it maps every block to a block."""
        self.settled += 1
        found = tuple(self.cimg)
        try:
            block_action(self.design, found)
        except SetNotPreserved:
            return None
        return found

    def _assign(self, x: int, y: int) -> list[int] | None:
        """Set x -> y and the block images it determines; the list of
        those blocks, or None (and no change) if x -> y contradicts the
        block structure.  x is unassigned and y unused: `_dfs` offers only
        such pairs, and the walk fixes each base point once."""
        bit = 1 << y
        self.img[x] = y
        self.used |= bit
        score = self.score
        score[x] -= self.taken
        mask, blk_img = self.mask, self.blk_img
        points, used, ranks = self.points, self.used, self.ranks
        cubes, pairs = self.cubes, self.pairs
        through = self.through[x]
        determined = []
        for bi in through:
            images = mask[bi] | bit
            mask[bi] = images
            ti = blk_img[bi]
            if ti != -1:
                if not points[ti] & bit:
                    break
                continue
            if images.bit_count() != 3:
                continue
            # the image block, at the rank of the three images a < b < c, with
            # no other used point: none outside bi maps into it, so no other
            # block, which shares at most two points with bi, has claimed it
            c = images.bit_length() - 1
            ti = ranks[cubes[c] + pairs[images ^ (1 << c)]]
            if ti == -1 or used & points[ti] != images:
                break
            blk_img[bi] = ti
            for w in self.blocks[bi]:
                score[w] += 1
            determined.append(bi)
        else:
            return determined
        self._unassign(x, y, through[: through.index(bi) + 1], determined)
        return None

    def _unassign(self, x: int, y: int, touched: list[int], determined: list[int]) -> None:
        """Undo x -> y: `touched` are the blocks through x whose image
        masks it entered, `determined` those whose image it fixed."""
        mask = self.mask
        bit = 1 << y
        for bi in touched:
            mask[bi] ^= bit
        blk_img, score = self.blk_img, self.score
        for bi in determined:
            blk_img[bi] = -1
            for w in self.blocks[bi]:
                score[w] -= 1
        self.img[x] = -1
        self.used ^= bit
        score[x] += self.taken

    def _next_point(self) -> tuple[int, int]:
        best_score = max(self.score)
        if best_score < 0:
            return -1, best_score
        return self.score.index(best_score), best_score

    def _dfs(self) -> tuple[int, ...] | None:
        self.nodes += 1
        if self.nodes > AUT_SEARCH_MAX_NODES:
            raise SearchBudgetExceeded(
                f"automorphism search of {self.v} points passed its budget "
                f"of {AUT_SEARCH_MAX_NODES} nodes"
            )
        x, score = self._next_point()
        if x == -1:
            # every point assigned; with a closure, `_extend` settles the
            # map before this
            return tuple(self.img)
        if score > 0:
            for bi in self.through[x]:
                ti = self.blk_img[bi]
                if ti != -1:
                    images = self.blocks[ti]
                    break
        else:
            images = range(self.v)
        candidates = [w for w in images if not self.used >> w & 1]
        for y in candidates:
            found = self._extend(x, y)
            if found is not None:
                return found
        return None


def automorphism_group(design: Design) -> GeneratorSet:
    """Generators of the full automorphism group of a design.

    Walks the stabilizer chain of the base 0, 1, 2, ...: at each level it
    finds one automorphism per candidate image of the base point (skipping
    images already reachable by automorphisms found so far), so the union
    of the discovered coset representatives generates the whole group.
    Output order is deterministic.  When tracing, one JSON line of search
    counters goes to stderr.  SearchBudgetExceeded refuses a design above
    AUT_SEARCH_MAX_POINTS points, or a search past AUT_SEARCH_MAX_NODES nodes.
    """
    v = design.v
    if v > AUT_SEARCH_MAX_POINTS:
        raise SearchBudgetExceeded(
            f"automorphism search supports at most {AUT_SEARCH_MAX_POINTS} points, got {v}"
        )
    searcher = _AutSearch(design)
    gens = GeneratorSet(v, searcher.generators())
    emit(
        "permgrp.automorphism_group",
        levels=searcher.levels,
        trials=searcher.trials,
        successes=searcher.successes,
        nodes=searcher.nodes,
        settled=searcher.settled,
    )
    return gens


# -- generator file format ---------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


# is_flag_transitive holds an (m, b) int32 block table and an (m, v*v)
# pair table for the m generators its chain admits, at most the file's
MAX_GENERATORS = MAX_POINTS


def parse_generators(text: str) -> GeneratorSet:
    """Parse the text format: a 'degree: n' header, then at most
    MAX_GENERATORS permutations, one per line, either 1-based cycles
    "(1 2 3)(5 6)" or an image list "img: 2,0,1".  '#' starts a comment."""
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
        if len(perms) == MAX_GENERATORS:
            raise PermutationError(
                f"line {lineno}: more than {MAX_GENERATORS} generators"
            )
        if line.startswith("img:"):
            perms.append(_integers(line[4:], lineno))
            continue
        if line.startswith("("):
            consumed = _CYCLE_RE.sub("", line).strip()
            if consumed:
                raise PermutationError(f"line {lineno}: trailing junk {consumed!r}")
            images = list(range(degree))
            seen: set[int] = set()
            for body in _CYCLE_RE.findall(line):
                pts = [p - 1 for p in _integers(body, lineno)]
                if any(p < 0 or p >= degree for p in pts):
                    raise PermutationError(
                        f"line {lineno}: cycle entry out of range 1..{degree}"
                    )
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    if a in seen:
                        raise PermutationError(
                            f"line {lineno}: point {a + 1} appears twice in the cycles"
                        )
                    seen.add(a)
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
