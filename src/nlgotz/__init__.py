"""Macaulay growth bounds, exact finite-field verification of the classical
growth and restriction theorems on projective space, and explicit
Noether-Lefschetz codimension floors for threefolds."""

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
    save_catalog,
)
from .graded import (
    AdditivityError,
    BudgetExceededError,
    CertificationError,
    GenericityError,
    GotzmannCheck,
    GradedSubspace,
    KoszulResult,
    RestrictionResult,
    RingContext,
    SplitSheaf,
    check_macaulay_gotzmann,
    full_space,
    is_basepoint_free,
    is_cm_regular,
    koszul_middle_exact,
    lex_segment_subspace,
    multiply,
    random_subspace,
    restrict_to_hyperplane,
    section_dim,
    subspace_from_rows,
    zero_subspace,
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
from .verify import (
    DEFAULT_SEED,
    SUITES,
    SuiteReport,
    TrialRow,
    VerifyConfig,
    consistency_sweep,
    run_all,
    run_suite,
)

__version__ = "0.1.0"

# the one row-reduction kernel (`modp`), named in run records
KERNEL_BACKEND = "blas-f64"
