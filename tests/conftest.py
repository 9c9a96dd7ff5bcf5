import pytest

from steiner3.catalog import (
    affine_group_generators,
    construct_boolean_affine,
    construct_netto_extension,
    construct_spherical,
    construct_witt_22,
    projective_group_generators,
)
from steiner3.permgrp import automorphism_group

SPHERICAL_CASES = ((3, 2), (3, 3), (4, 2), (5, 2))
NETTO_CASES = (7, 19, 31, 43)
AFFINE_CASES = (3, 4, 5)


@pytest.fixture(scope="session")
def catalogue():
    """Every catalogue design exercised by the acceptance suite."""
    designs = {}
    for d in AFFINE_CASES:
        designs[("affine", d)] = construct_boolean_affine(d)
    for q, e in SPHERICAL_CASES:
        designs[("spherical", q, e)] = construct_spherical(q, e)
    for q in NETTO_CASES:
        designs[("netto", q)] = construct_netto_extension(q)
    designs[("witt",)] = construct_witt_22()
    return designs


@pytest.fixture(scope="session")
def witt_aut(catalogue):
    return automorphism_group(catalogue[("witt",)])


@pytest.fixture(scope="session")
def flag_transitive_pairs(catalogue, witt_aut):
    """The (label, design, generators) table of the classification's
    "if" direction, at desk scale."""
    pairs = [
        ("AGL(3,2) on affine d=3", catalogue[("affine", 3)], affine_group_generators("AGL_d_2", 3)),
        ("AGL(1,8) on affine d=3", catalogue[("affine", 3)], affine_group_generators("AGL_1", 3)),
        ("AGammaL(1,8) on affine d=3", catalogue[("affine", 3)], affine_group_generators("AGammaL_1", 3)),
        ("2^4:A7 on affine d=4", catalogue[("affine", 4)], affine_group_generators("T_A7", 4)),
        ("AGammaL(1,32) on affine d=5", catalogue[("affine", 5)], affine_group_generators("AGammaL_1", 5)),
        ("AGL(5,2) on affine d=5", catalogue[("affine", 5)], affine_group_generators("AGL_d_2", 5)),
    ]
    for q, e in SPHERICAL_CASES:
        pairs.append(
            (f"PGL(2,{q**e}) on spherical ({q},{e})",
             catalogue[("spherical", q, e)],
             projective_group_generators("PGL", q, e))
        )
    pairs.append(
        ("PSL(2,27) on spherical (3,3)",
         catalogue[("spherical", 3, 3)],
         projective_group_generators("PSL", 3, 3))
    )
    for q in NETTO_CASES:
        pairs.append(
            (f"PSL(2,{q}) on netto q={q}",
             catalogue[("netto", q)],
             projective_group_generators("PSL", q, 1))
        )
        pairs.append(
            (f"PSigmaL(2,{q}) on netto q={q}",
             catalogue[("netto", q)],
             projective_group_generators("PSigmaL", q, 1))
        )
    pairs.append(("Aut on witt", catalogue[("witt",)], witt_aut))
    return pairs


class CountingSink:
    """A stdout that keeps no text, only the number of writes, characters
    and lines written."""

    def __init__(self):
        self.writes = self.chars = self.lines = 0

    def write(self, text: str) -> int:
        self.writes += 1
        self.chars += len(text)
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


@pytest.fixture
def counting_sink():
    """A fresh `CountingSink`, to stand in for stdout with `redirect_stdout`
    inside the test (pytest's capture replaces a stdout set by a fixture)."""
    return CountingSink()
