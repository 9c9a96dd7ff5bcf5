"""The group kinds `catalog` writes generators for, in a module of their
own so that the CLI's parser can offer them without loading the catalogue."""

AFFINE_KINDS = ("AGL_d_2", "AGL_1", "AGammaL_1", "T_A7")
PROJECTIVE_KINDS = ("PSL", "PGL", "PSigmaL", "PGammaL")
