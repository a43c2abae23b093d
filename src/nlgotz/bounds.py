"""Explicit codimension floors for Noether-Lefschetz loci on threefolds.

A smooth projective threefold Y (not P^3) with very ample H carries four
small invariants, alpha, beta, a_adj and b_adj, defined once in
`nlgotz.invariants`: (alpha, beta) serve the (-d)-regular family of line
bundles and (a_adj, b_adj) the adjoint bundles L = K_Y + dH + A with A nef.
The evaluator turns those invariants, a degree d, and knowledge about an
H^1 vanishing into an explicit lower bound for the codimension of the
components of the Noether-Lefschetz locus, following the chain: restrict to
a general surface section, multiply into a regular twist, apply the
Macaulay growth bound, and compare with the base-point-free floor of
Ein-Lazarsfeld type.  `contradiction_trace` replays that chain numerically
for a hypothetical component below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Optional

from .invariants import ThreefoldInvariants, derive_subcanonical_invariants
from .macaulay import growth_slack_sum, upper_macaulay

__all__ = [
    "ThreefoldInvariants",
    "BundleSpec",
    "HypothesisCheck",
    "BoundResult",
    "ContradictionTrace",
    "AmplenessResult",
    "derive_subcanonical_invariants",
    "n_of",
    "vanishing_hypothesis_met",
    "threshold_value",
    "nl_codim_floor",
    "ein_lazarsfeld_floor",
    "contradiction_trace",
    "blowup_ampleness",
]

Variant = Literal["minus_d_regular", "adjoint"]
VARIANTS: tuple[str, ...] = ("minus_d_regular", "adjoint")


@dataclass(frozen=True)
class BundleSpec:
    """Which family of line bundles is being bounded, at which degree."""

    variant: Variant
    d: int
    h1_vanishing: Literal["known_zero", "unknown"] = "unknown"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.h1_vanishing not in ("known_zero", "unknown"):
            raise ValueError(f"unknown h1 state {self.h1_vanishing!r}")
        if self.d < 1:
            raise ValueError("degree d must be >= 1")


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BoundResult:
    """Outcome of the floor evaluator: a floor, or the reason there is none."""

    status: Literal["floor", "no_bound", "out_of_domain"]
    floor_value: Optional[int]
    branch: str
    hypotheses: tuple[HypothesisCheck, ...]
    n_value: int
    assumptions: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def n_of(d: int, a: int, b: int) -> int:
    """floor((d + 3 - a) / b) - 4, the number of regular twists available."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return (d + 3 - a) // b - 4


def _twist_pair(inv: ThreefoldInvariants, spec: BundleSpec) -> tuple[int, int]:
    """(a, b): (alpha, beta) for the (-d)-regular family, (a_adj, b_adj) for adjoint bundles."""
    if spec.variant == "minus_d_regular":
        return inv.alpha, inv.beta
    return inv.a_adj, inv.b_adj


def _h1_threshold(inv: ThreefoldInvariants, spec: BundleSpec) -> int:
    """Least d forcing H^1 vanishing: 3(beta - alpha) + 13, or 2(b_adj - a_adj) + 13 if adjoint."""
    a, b = _twist_pair(inv, spec)
    return (3 if spec.variant == "minus_d_regular" else 2) * (b - a) + 13


def vanishing_hypothesis_met(inv: ThreefoldInvariants, spec: BundleSpec) -> bool:
    """Whether H^1(Omega^2_Y x L) = 0 is available for the whole family.

    Either the caller knows it vanishes, or the degree clears the explicit
    ampleness threshold `_h1_threshold`.
    """
    return spec.h1_vanishing == "known_zero" or spec.d >= _h1_threshold(inv, spec)


_THRESHOLD_KINDS = ("T1", "T2_general", "T2_p2bundle")


def threshold_value(kind: str, b: int) -> int:
    """Degree threshold for the b >= 2 branches of the two main bounds."""
    if kind not in _THRESHOLD_KINDS:
        raise ValueError(f"unknown threshold kind {kind!r}")
    if b < 2:
        raise ValueError("thresholds only apply to b >= 2")
    if kind == "T1":
        return b * b * (b + 5) // 2
    if kind == "T2_general":
        return b * (b * b + 7 * b - 6) // 2
    return b * (b - 1) * (b + 8) // 2


_QUADRIC_NOTE = (
    "quadric: the (-d)-regular floor is reported through the degenerate adjoint "
    "route (K_Y(3) trivial), which proves d - 5; the general beta = 1 formula "
    "would suggest d - 2 but is not established for alpha = 4 without a bundle "
    "structure"
)

_ADJOINT_ASSUMPTION = "A nef: assumed by the caller, not checked here"


# the quadric's (-d)-regular branch, which `contradiction_trace` recognizes
_QUADRIC_BRANCH = "quadric-special"


def _branch_label(variant: str, bundle: bool, b: int) -> str:
    head = "minus-d-regular" if variant == "minus_d_regular" else "adjoint"
    mid = "p2-bundle" if bundle else "general"
    tail = "b>=2" if b >= 2 else "b=1"
    if variant == "minus_d_regular":
        tail = tail.replace("b", "beta")
    return f"{head}.{mid}.{tail}"


def _floor_formula(variant: str, bundle: bool, d: int, a: int, b: int) -> int:
    if variant == "minus_d_regular":
        if bundle:
            return d - 2 - 2 * b if b >= 2 else d - 3
        return d - 5 + a - 2 * b if b >= 2 else d - 6 + a
    if bundle:
        return d - 6 - b if b >= 2 else d - 6
    return d - 5 - b if b >= 2 else d - 5


def nl_codim_floor(inv: ThreefoldInvariants, spec: BundleSpec) -> BoundResult:
    """Evaluate the explicit Noether-Lefschetz codimension floor.

    Selects the branch from the variant, the bundle flag, and b (or beta),
    checks the branch hypotheses (H^1 vanishing, and the degree threshold when
    b >= 2), and reports the floor with every check listed.  P^3 is out of
    domain: its Noether-Lefschetz theory is handled by older sharp results.
    """
    inv.validate()
    if inv.is_p3:
        return BoundResult(
            status="out_of_domain",
            floor_value=None,
            branch="p3-excluded",
            hypotheses=(HypothesisCheck("not_p3", False, "Y = P^3 is outside the domain"),),
            n_value=0,
            notes=("P^3 has its own sharp theory; nothing is evaluated here",),
        )
    minus = spec.variant == "minus_d_regular"
    a, b = _twist_pair(inv, spec)
    d = spec.d
    n_value = n_of(d, a, b)
    assumptions = () if minus else (_ADJOINT_ASSUMPTION,)

    if inv.is_quadric and minus:
        ok = d >= 7
        checks = (
            HypothesisCheck("branch_selector", True, "variant=minus_d_regular, quadric"),
            HypothesisCheck("quadric_degree", ok, f"d = {d} >= 7"),
        )
        # validate pins the quadric's adjoint pair, so this is d - 5
        floor = _floor_formula("adjoint", False, d, inv.a_adj, inv.b_adj) if ok else None
        return BoundResult(
            "floor" if ok else "no_bound",
            floor,
            _QUADRIC_BRANCH,
            checks,
            n_value,
            assumptions,
            (_QUADRIC_NOTE,),
        )

    bundle = inv.is_linear_p2_bundle
    checks = [
        HypothesisCheck(
            "branch_selector",
            True,
            f"variant={spec.variant}, p2_bundle={'yes' if bundle else 'no'}, "
            f"{'beta' if minus else 'b'}={b}",
        )
    ]
    if spec.h1_vanishing == "known_zero":
        detail = "declared known_zero"
    else:
        formula = "3*beta - 3*alpha + 13" if minus else "2*b - 2*a + 13"
        detail = f"d = {d} vs {formula} = {_h1_threshold(inv, spec)}"
    checks.append(HypothesisCheck("h1_vanishing", vanishing_hypothesis_met(inv, spec), detail))
    if b >= 2:
        kind = "T1" if minus else ("T2_p2bundle" if bundle else "T2_general")
        thr = threshold_value(kind, b)
        checks.append(HypothesisCheck("degree_threshold", d >= thr, f"d = {d} >= {thr}"))
    ok = all(ch.passed for ch in checks)
    return BoundResult(
        "floor" if ok else "no_bound",
        _floor_formula(spec.variant, bundle, d, a, b) if ok else None,
        _branch_label(spec.variant, bundle, b),
        tuple(checks),
        n_value,
        assumptions,
    )


def ein_lazarsfeld_floor(inv: ThreefoldInvariants, spec: BundleSpec) -> int:
    """The base-point-free pencil floor the contradiction argument leans on.

    d - 5 + alpha - beta for the (-d)-regular family, d - 5 for adjoint
    bundles; meaningful once d >= 4 so the relevant multiplication maps are
    onto.
    """
    inv.validate()
    if inv.is_p3:
        raise ValueError("P^3 is out of domain")
    if spec.d < 4:
        raise ValueError("the floor needs d >= 4")
    if spec.variant == "minus_d_regular":
        return spec.d - 5 + inv.alpha - inv.beta
    return spec.d - 5


def _extra_twist(inv: ThreefoldInvariants) -> int:
    """1 for linear P^2-bundles, whose chain runs through one extra twist.

    The degenerate adjunction needs K_Y(4) in place of K_Y(3).
    """
    return 1 if inv.is_linear_p2_bundle else 0


def _growth_step(
    inv: ThreefoldInvariants, spec: BundleSpec, c_hyp: int
) -> tuple[int, int, int, bool]:
    """(n, slack e, slack sum, hypothesis met) of the chain's growth step.

    n counts the regular twists at the chain's degree, which the extra twist
    raises by one; the slack is b for b >= 2 and 0 for b = 1; the hypothesis
    is 0 <= e <= n + 1 and c_hyp below the slack sum.
    """
    a, b = _twist_pair(inv, spec)
    n = n_of(spec.d + _extra_twist(inv), a, b)
    slack = b if b >= 2 else 0
    slack_sum = growth_slack_sum(n, slack)
    return n, slack, slack_sum, 0 <= slack <= n + 1 and c_hyp < slack_sum


@dataclass(frozen=True)
class ContradictionTrace:
    """Numerical replay of the bound argument for a hypothetical component."""

    c_hyp: int
    branch: str
    n_value: int
    slack: int
    slack_sum: int
    upper_value: Optional[int]
    el_floor: int
    steps: tuple[HypothesisCheck, ...]
    confirmed: bool


def contradiction_trace(
    inv: ThreefoldInvariants, spec: BundleSpec, c_hyp: int
) -> ContradictionTrace:
    """Replay the floor argument against a component of codimension c_hyp.

    Requires nl_codim_floor to have produced a floor F and 0 <= c_hyp <= F-1.
    The chain: restrict to a surface section (codimension stays c_hyp), push
    into the n-th regular twist, grow by the Macaulay bound with the branch
    slack, and check the result undercuts the Ein-Lazarsfeld floor, which is
    the contradiction establishing F.  Each number comes from the formula
    that defines it: n, the slack and the slack sum from `_growth_step`, and
    the pencil floor from `ein_lazarsfeld_floor`, one lower for linear
    P^2-bundles (the quadric route takes the adjoint variant's floor, d - 5,
    as its degenerate adjoint argument does).
    """
    res = nl_codim_floor(inv, spec)
    if res.status != "floor":
        raise ValueError(f"no floor to contradict (status {res.status})")
    if c_hyp < 0:
        raise ValueError("c_hyp must be nonnegative")
    if c_hyp > res.floor_value - 1:
        raise ValueError(
            f"c_hyp = {c_hyp} is not below the floor {res.floor_value}; nothing to refute"
        )
    n_chain, slack, slack_sum, slack_ok = _growth_step(inv, spec, c_hyp)
    if res.branch == _QUADRIC_BRANCH:
        el = ein_lazarsfeld_floor(inv, replace(spec, variant="adjoint"))
    else:
        el = ein_lazarsfeld_floor(inv, spec) - _extra_twist(inv)

    steps = [
        HypothesisCheck("floor_exists", True, f"floor {res.floor_value} on {res.branch}"),
        HypothesisCheck(
            "component_below_floor", True, f"c_hyp = {c_hyp} <= {res.floor_value} - 1"
        ),
        HypothesisCheck(
            "growth_slack_hypothesis",
            slack_ok,
            f"slack e = {slack}, c_hyp = {c_hyp} < {slack_sum} with n = {n_chain}",
        ),
    ]
    upper: Optional[int] = None
    if c_hyp == 0:
        upper = 0
        steps.append(HypothesisCheck("macaulay_growth", True, "c_hyp = 0 grows to 0"))
    elif n_chain >= 1 and slack_ok:
        upper = upper_macaulay(c_hyp, n_chain)
        steps.append(
            HypothesisCheck(
                "macaulay_growth",
                upper <= c_hyp + slack,
                f"c_hyp^<{n_chain}> = {upper} <= {c_hyp} + {slack}",
            )
        )
    else:
        steps.append(
            HypothesisCheck(
                "macaulay_growth", False, f"growth not controlled at n = {n_chain}"
            )
        )
    if upper is None:
        steps.append(
            HypothesisCheck("pencil_floor_contradiction", False, "no growth value")
        )
    else:
        steps.append(
            HypothesisCheck(
                "pencil_floor_contradiction",
                upper <= el - 1,
                f"{upper} <= {el} - 1 undercuts the base-point-free floor",
            )
        )
    confirmed = all(s.passed for s in steps)
    return ContradictionTrace(
        c_hyp=c_hyp,
        branch=res.branch,
        n_value=n_chain,
        slack=slack,
        slack_sum=slack_sum,
        upper_value=upper,
        el_floor=el,
        steps=tuple(steps),
        confirmed=confirmed,
    )


@dataclass(frozen=True)
class AmplenessResult:
    """Whether dH - kE stays outside the countable union, with the numbers."""

    verdict: Literal["ample", "not_ample", "hypotheses_unmet"]
    lhs: Optional[int]
    rhs: Optional[int]
    checks: tuple[HypothesisCheck, ...]


def blowup_ampleness(
    inv: ThreefoldInvariants, d: int, k: int, h1_known_zero: bool = False
) -> AmplenessResult:
    """Blow-up of a very general point: decide positivity of dH - kE.

    Needs Picard group Z (so dH - kE generates with the exceptional E), the
    degree H^3, the subcanonical degree e with K_Y = eH, and the two degree
    hypotheses d >= 7 + e and (H^1 vanishing known or d >= 3e + 13).  Under
    those, the verdict is decided by the strict inequality d^3 H^3 > k.

    Unresolved mismatch: d^3 H^3 - k is the top self-intersection of
    dH - E_1 - ... - E_k on the blow-up at k points, while for one point
    (dH - kE)^3 = d^3 H^3 - k^3.  Which of the two the source states is not
    settled here; the verdicts follow d^3 H^3 > k as they always have.
    """
    inv.validate()
    if inv.is_p3:
        raise ValueError("P^3 is out of domain")
    if inv.subcanonical_e is None:
        raise ValueError(f"{inv.name}: subcanonical degree e is required")
    if inv.h3 is None:
        raise ValueError(f"{inv.name}: H^3 is required")
    if not inv.pic_is_z:
        raise ValueError(f"{inv.name}: the criterion needs Picard group Z")
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    e = inv.subcanonical_e
    checks = (
        HypothesisCheck("degree_vs_e", d >= 7 + e, f"d = {d} >= 7 + e = {7 + e}"),
        HypothesisCheck(
            "h1_vanishing",
            h1_known_zero or d >= 3 * e + 13,
            "declared known_zero" if h1_known_zero else f"d = {d} >= 3e + 13 = {3 * e + 13}",
        ),
    )
    if not all(ch.passed for ch in checks):
        return AmplenessResult("hypotheses_unmet", None, None, checks)
    lhs = d**3 * inv.h3
    verdict = "ample" if lhs > k else "not_ample"
    return AmplenessResult(verdict, lhs, k, checks)
