"""Macaulay growth bounds, exact finite-field verification of the classical
growth and restriction theorems on projective space, and explicit
Noether-Lefschetz codimension floors for threefolds.

Importing the package binds no submodule and loads no numpy: every name
below is imported on first use, from the module that defines it.  So
`default_catalog()` loads the catalog and the threefold invariants
(`invariants`) but not the floor evaluator (`bounds`); `upper_macaulay`
loads the scalar Macaulay layer alone; and numpy loads only where F_p
arithmetic runs (`graded`, `modp`, `monomials`, `verify`).  The whole-range
Macaulay functions over c = 0..c_max (`upper_macaulay_upto`,
`lower_macaulay_upto`, `green_implication_scan`) load it when first called.
"""

__version__ = "0.1.0"

# the one row-reduction kernel (`modp`), named in run records
KERNEL_BACKEND = "blas-f64"

# the public names, by the module that defines them; each is imported when first read
_LAZY_NAMES = {
    "invariants": ("ThreefoldInvariants", "derive_subcanonical_invariants"),
    "bounds": (
        "AmplenessResult",
        "BoundResult",
        "BundleSpec",
        "ContradictionTrace",
        "HypothesisCheck",
        "blowup_ampleness",
        "contradiction_trace",
        "ein_lazarsfeld_floor",
        "n_of",
        "nl_codim_floor",
        "threshold_value",
        "vanishing_hypothesis_met",
    ),
    "catalog": (
        "CatalogError",
        "CatalogRecord",
        "default_catalog",
        "dumps_catalog",
        "find_record",
        "load_catalog",
        "loads_catalog",
    ),
    "macaulay": (
        "GrowthSlackCheck",
        "MacaulayRep",
        "binom",
        "green_implication_scan",
        "growth_slack_check",
        "lower_macaulay",
        "lower_macaulay_upto",
        "macaulay_rep",
        "upper_macaulay",
        "upper_macaulay_upto",
    ),
    "settings": ("DEFAULT_SEED", "SUITES", "VerifyConfig"),
    "graded": (
        "AdditivityError",
        "BudgetExceededError",
        "CertificationError",
        "GenericityError",
        "GotzmannCheck",
        "GradedSubspace",
        "KoszulResult",
        "RestrictionResult",
        "RingContext",
        "SplitSheaf",
        "check_macaulay_gotzmann",
        "full_space",
        "is_basepoint_free",
        "is_cm_regular",
        "koszul_middle_exact",
        "lex_segment_subspace",
        "multiply",
        "random_subspace",
        "restrict_to_hyperplane",
        "section_dim",
        "subspace_from_rows",
    ),
    "verify": ("SuiteReport", "TrialRow", "consistency_sweep", "run_all", "run_suite"),
}
_LAZY = {name: module for module, names in _LAZY_NAMES.items() for name in names}
_SUBMODULES = (
    "bounds",
    "catalog",
    "graded",
    "invariants",
    "macaulay",
    "modp",
    "monomials",
    "settings",
    "verify",
)

__all__ = ["KERNEL_BACKEND", *_LAZY]


def __getattr__(name: str):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
