"""Flag-transitive Steiner 3-designs: constructions, group checks, sieves."""

from .design import (
    CameronResult,
    Design,
    DesignError,
    DesignParams,
    SteinerReport,
    blocksize_bound,
    cameron_check,
    derived_design,
    from_json,
    is_affine_line_system,
    params_of,
    to_json,
    verify_steiner,
)
from .errors import Steiner3Error
from .gf import FieldContext, FieldError
from .catalog import (
    CatalogError,
    CatalogueEntry,
    GolayConstructionError,
    ProjectiveLine,
    affine_group_generators,
    classify,
    construct_boolean_affine,
    construct_netto_extension,
    construct_octad_design,
    construct_spherical,
    construct_witt_22,
    lexicode_codewords,
    load_a7_generators,
    projective_group_generators,
)
from .permgrp import (
    FlagReport,
    GeneratorSet,
    GroupSummary,
    PermutationError,
    SearchBudgetExceeded,
    SetNotPreserved,
    automorphism_group,
    block_action,
    format_generators,
    group_order,
    is_flag_transitive,
    orbit,
    parse_generators,
)
from .sieve import (
    CyclotomicEval,
    NotFlagTransitive,
    SieveError,
    SieveReport,
    StabilizerReport,
    ZsigmondyResult,
    admissible_parameters,
    cyclotomic_eval,
    division_property,
    ramanujan_nagell,
    ramanujan_nagell_block_sizes,
    screen_parameters,
    semilinear_divisibility,
    stabilizer_identities,
    zsigmondy_ppd,
)

__version__ = "0.1.0"
