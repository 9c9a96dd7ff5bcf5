"""Flag-transitive Steiner 3-designs: constructions, group checks, sieves."""

from .design import (
    Design,
    DesignParams,
    SteinerReport,
    derived_design,
    from_json,
    params_of,
    to_json,
    verify_steiner,
)
from .errors import DesignError, Steiner3Error
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
    is_affine_line_system,
    lexicode_codewords,
    load_a7_generators,
    projective_group_generators,
)
from .permgrp import (
    FlagReport,
    GeneratorSet,
    GroupSummary,
    NotFlagTransitive,
    PermutationError,
    SearchBudgetExceeded,
    SetNotPreserved,
    StabilizerReport,
    automorphism_group,
    block_action,
    format_generators,
    group_order,
    is_flag_transitive,
    orbit,
    parse_generators,
    stabilizer_identities,
)
from .sieve import (
    CameronResult,
    CyclotomicEval,
    SieveError,
    SieveReport,
    ZsigmondyResult,
    admissible_parameters,
    blocksize_bound,
    cameron_check,
    cyclotomic_eval,
    division_property,
    ramanujan_nagell,
    ramanujan_nagell_block_sizes,
    screen_parameters,
    semilinear_divisibility,
    zsigmondy_ppd,
)

__version__ = "0.1.0"
