"""Flag-transitive Steiner 3-designs: constructions, group checks, sieves.

The package imports none of its modules itself.  Each public name below,
and each module, is imported on first use through the module
`__getattr__` (PEP 562), so `import steiner3.cli` loads only what the
CLI loads.
"""

_EXPORTS = {
    "design": (
        "Design",
        "DesignParams",
        "SteinerReport",
        "derived_design",
        "from_json",
        "params_of",
        "to_json",
        "verify_steiner",
    ),
    "errors": ("DesignError", "Steiner3Error"),
    "gf": ("FieldContext", "FieldError"),
    "catalog": (
        "CatalogError",
        "CatalogueEntry",
        "GolayConstructionError",
        "ProjectiveLine",
        "affine_group_generators",
        "classify",
        "construct_boolean_affine",
        "construct_netto_extension",
        "construct_octad_design",
        "construct_spherical",
        "construct_witt_22",
        "is_affine_line_system",
        "lexicode_codewords",
        "load_a7_generators",
        "projective_group_generators",
    ),
    "permgrp": (
        "FlagReport",
        "GeneratorSet",
        "GroupSummary",
        "NotFlagTransitive",
        "PermutationError",
        "SearchBudgetExceeded",
        "SetNotPreserved",
        "StabilizerReport",
        "automorphism_group",
        "block_action",
        "format_generators",
        "group_order",
        "is_flag_transitive",
        "orbit",
        "parse_generators",
        "stabilizer_identities",
    ),
    "sieve": (
        "CameronResult",
        "CyclotomicEval",
        "SieveError",
        "SieveReport",
        "ZsigmondyResult",
        "admissible_parameters",
        "blocksize_bound",
        "cameron_check",
        "cyclotomic_eval",
        "division_property",
        "ramanujan_nagell",
        "ramanujan_nagell_block_sizes",
        "screen_parameters",
        "semilinear_divisibility",
        "zsigmondy_ppd",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = {"catalog", "design", "errors", "gf", "kinds", "permgrp", "sieve", "trace"}

# the names and the modules the old eager imports bound (kinds is newer)
__all__ = [*_HOME, *sorted(_MODULES - {"kinds"})]
__version__ = "0.1.0"


def __dir__():
    return sorted({*globals(), *__all__})


def __getattr__(name: str):
    """A public name, bound on the package from its module, or a module,
    imported (the import binds it on the package)."""
    home = name if name in _MODULES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value
