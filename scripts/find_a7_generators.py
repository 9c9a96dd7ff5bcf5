#!/usr/bin/env python3
"""Regenerate src/steiner3/data/a7_gl42.gens.

Randomized search with a fixed seed: sample pairs of invertible 4x4
matrices over GF(2), view them as permutations of GF(2)^4, and accept
the first pair whose generated group has order 2520 and is transitive
on the 15 nonzero vectors.  Any order-2520 subgroup of GL(4,2) is an
irreducible copy of A7 and is already transitive on the nonzero vectors
(A7 cannot fix a vector or act on a 15-point set with smaller orbits),
so the transitivity test is a redundant safety invariant, not a class
selector; both conjugacy classes of A7 serve the affine construction.

Run from the repository root:  python3 scripts/find_a7_generators.py
`generator_file()` returns the file's text without writing it.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steiner3.permgrp import GeneratorSet, format_generators, group_order, orbit

SEED = 20240229
TARGET_ORDER = 2520
DATA_FILE = Path(__file__).resolve().parent.parent / "src" / "steiner3" / "data" / "a7_gl42.gens"


def random_invertible(rng: random.Random) -> list[int]:
    """Rows of an invertible 4x4 GF(2) matrix, as bitmask integers."""
    while True:
        rows = [rng.randrange(1, 16) for _ in range(4)]
        # Gaussian elimination to test invertibility
        work = rows[:]
        ok = True
        for col in range(4):
            pivot = next(
                (i for i in range(col, 4) if (work[i] >> col) & 1), None
            )
            if pivot is None:
                ok = False
                break
            work[col], work[pivot] = work[pivot], work[col]
            for i in range(4):
                if i != col and (work[i] >> col) & 1:
                    work[i] ^= work[col]
        if ok:
            return rows


def matrix_permutation(rows: list[int]) -> tuple[int, ...]:
    """The image tuple of x -> xM on GF(2)^4, vectors as integers."""
    images = []
    for x in range(16):
        y = 0
        for i in range(4):
            if (x >> i) & 1:
                y ^= rows[i]
        images.append(y)
    return tuple(images)


def generator_file() -> str:
    """The text of a7_gl42.gens: the first accepted pair, with the search
    that found it in the comment."""
    rng = random.Random(SEED)
    attempts = 0
    while True:
        attempts += 1
        a = matrix_permutation(random_invertible(rng))
        b = matrix_permutation(random_invertible(rng))
        gens = GeneratorSet(16, (a, b))
        if group_order(gens).order != TARGET_ORDER:
            continue
        if len(orbit(gens.gens, [1])) != 15:
            continue
        break
    comment = (
        "A7 <= GL(4,2) acting on GF(2)^4 (vectors as integers 0..15).\n"
        f"Search oracle: random matrix pairs, seed {SEED}, accepted on\n"
        f"group order {TARGET_ORDER} and transitivity on the 15 nonzero vectors\n"
        f"(pair found after {attempts} attempts).\n"
        "Regenerate with scripts/find_a7_generators.py."
    )
    return format_generators(gens, comment)


def main() -> int:
    DATA_FILE.parent.mkdir(parents=True, exist_ok=True)
    DATA_FILE.write_text(generator_file(), encoding="utf-8")
    print(f"wrote {DATA_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
