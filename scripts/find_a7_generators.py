#!/usr/bin/env python3
"""Repeat the search that found catalog's A7 <= GL(4,2) generators.

Randomized search with a fixed seed: sample pairs of invertible 4x4
matrices over GF(2), view them as permutations of GF(2)^4, and accept
the first pair whose generated group has order 2520 and is transitive
on the 15 nonzero vectors.  Any order-2520 subgroup of GL(4,2) is an
irreducible copy of A7 and is already transitive on the nonzero vectors
(A7 cannot fix a vector or act on a 15-point set with smaller orbits),
so the transitivity test is a redundant safety invariant, not a class
selector; both conjugacy classes of A7 serve the affine construction.

Run from the repository root:  python3 scripts/find_a7_generators.py
It prints the accepted pair; `search()` returns it with the attempt count.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from steiner3.permgrp import GeneratorSet, group_order, orbit

SEED = 20240229
TARGET_ORDER = 2520


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


def search() -> tuple[tuple[tuple[int, ...], ...], int]:
    """The first accepted pair of image tuples, and the attempts taken."""
    rng = random.Random(SEED)
    attempts = 0
    while True:
        attempts += 1
        a = matrix_permutation(random_invertible(rng))
        b = matrix_permutation(random_invertible(rng))
        gens = GeneratorSet(16, (a, b))
        if group_order(gens).order == TARGET_ORDER and len(orbit(gens.gens, [1])) == 15:
            return gens.gens, attempts


def main() -> int:
    pair, attempts = search()
    print(f"seed {SEED}: pair found after {attempts} attempts")
    for images in pair:
        print(images)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
