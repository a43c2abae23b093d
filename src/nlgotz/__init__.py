"""Macaulay growth bounds, exact finite-field verification of the classical
growth and restriction theorems on projective space, and explicit
Noether-Lefschetz codimension floors for threefolds.

Importing the package loads no numpy.  The floor evaluator (`bounds`), the
catalog, the scalar Macaulay functions and the run settings are plain
Python and are bound here at import.  The F_p layers (`graded`, `modp`,
`monomials`, `verify`) and their names are imported on first access, so
numpy loads only where F_p arithmetic runs; the whole-range Macaulay
functions (`*_many`, `green_implication_scan`) load it when first called.
"""

from .bounds import (
    AmplenessResult,
    BoundResult,
    BundleSpec,
    ContradictionTrace,
    HypothesisCheck,
    ThreefoldInvariants,
    blowup_ampleness,
    contradiction_trace,
    derive_subcanonical_invariants,
    ein_lazarsfeld_floor,
    n_of,
    nl_codim_floor,
    threshold_value,
    vanishing_hypothesis_met,
)
from .catalog import (
    CatalogError,
    CatalogRecord,
    default_catalog,
    dumps_catalog,
    find_record,
    load_catalog,
    loads_catalog,
)
from .macaulay import (
    GrowthSlackCheck,
    MacaulayRep,
    binom,
    green_implication_scan,
    growth_slack_check,
    lower_macaulay,
    lower_macaulay_many,
    macaulay_rep,
    macaulay_rep_many,
    upper_macaulay,
    upper_macaulay_many,
)
from .settings import DEFAULT_SEED, SUITES, VerifyConfig

__version__ = "0.1.0"

# the one row-reduction kernel (`modp`), named in run records
KERNEL_BACKEND = "blas-f64"

# the F_p names, by the module that defines them; each is imported when first read
_LAZY_NAMES = {
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
_SUBMODULES = ("graded", "modp", "monomials", "verify")

__all__ = [
    "AmplenessResult",
    "BoundResult",
    "BundleSpec",
    "ContradictionTrace",
    "HypothesisCheck",
    "ThreefoldInvariants",
    "blowup_ampleness",
    "contradiction_trace",
    "derive_subcanonical_invariants",
    "ein_lazarsfeld_floor",
    "n_of",
    "nl_codim_floor",
    "threshold_value",
    "vanishing_hypothesis_met",
    "CatalogError",
    "CatalogRecord",
    "default_catalog",
    "dumps_catalog",
    "find_record",
    "load_catalog",
    "loads_catalog",
    "GrowthSlackCheck",
    "MacaulayRep",
    "binom",
    "green_implication_scan",
    "growth_slack_check",
    "lower_macaulay",
    "lower_macaulay_many",
    "macaulay_rep",
    "macaulay_rep_many",
    "upper_macaulay",
    "upper_macaulay_many",
    "DEFAULT_SEED",
    "SUITES",
    "VerifyConfig",
    "KERNEL_BACKEND",
    *_LAZY,
]


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
