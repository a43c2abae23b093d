"""Seeded verification sweeps.

Each suite stresses one exact statement over a family of randomized or
exhaustive instances and reports one row per trial.  All randomness flows
through counter-based generators keyed by (seed, suite, trial), so reports are
bit-identical across runs and platforms for a fixed configuration.  The run
settings (`VerifyConfig`, `SUITES` and the defaults) live in `settings`,
which the command line reads without loading numpy; they are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graded
from .bounds import (
    VARIANTS,
    BundleSpec,
    ThreefoldInvariants,
    _floor_formula,
    _growth_step,
    contradiction_trace,
    nl_codim_floor,
    threshold_value,
)
from .catalog import CatalogRecord, default_catalog
from .graded import (
    AdditivityError,
    GenericityError,
    RingContext,
    SplitSheaf,
    check_macaulay_gotzmann,
    full_space,
    is_basepoint_free,
    lex_segment_subspace,
    random_subspace,
    restrict_to_hyperplane,
    section_dim,
    subspace_from_rows,
)
from .macaulay import green_implication_scan, growth_slack_sum, upper_macaulay_many
from .monomials import monomial_index
from .settings import DEFAULT_SEED, DEFAULT_TRACE_DMAX, SUITES, VerifyConfig

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TRACE_DMAX",
    "SUITES",
    "VerifyConfig",
    "TrialRow",
    "SuiteReport",
    "run_suite",
    "run_all",
    "consistency_sweep",
]

_SUITE_TAGS = {name: tag for tag, name in enumerate(SUITES, start=1)}

# the sampled families: both small projective spaces, split ranks 1 to 3
_FAMILIES = [
    (N, twists, d)
    for N in (2, 3)
    for twists in ((0,), (0, 1), (0, 1, 2))
    for d in (1, 2, 3, 4)
]


@dataclass(frozen=True)
class TrialRow:
    suite: str
    trial: int
    params: str
    observed: str
    bound: str
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    rows: list[TrialRow] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def failures(self) -> list[TrialRow]:
        return [r for r in self.rows if not r.passed]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def add(self, params: str, observed: str, bound: str, passed: bool) -> None:
        """Record one verdict; its trial number is its position in the report."""
        # the global `TrialRow` is read at each call, never bound once, so a
        # replacement of `verify.TrialRow` sees every row (perfbench times
        # each row of `verify all` that way)
        self.rows.append(TrialRow(self.suite, len(self.rows), params, observed, bound, passed))


def trial_rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    """Counter-based generator for one trial; independent of execution order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_SUITE_TAGS[suite], trial))
    return np.random.Generator(np.random.Philox(seq))


def _random_trials(cfg: VerifyConfig, suite: str):
    """(subspace, generator, params) of each random trial of `suite`.

    Trial t takes the families in turn and draws its subspace from
    `trial_rng(cfg.seed, suite, t)`, which the suite may draw more from.
    """
    for t in range(cfg.trials):
        N, twists, d = _FAMILIES[t % len(_FAMILIES)]
        rng = trial_rng(cfg.seed, suite, t)
        v = random_subspace(RingContext(N, cfg.prime), SplitSheaf(twists), d, rng)
        twist_text = "+".join(str(a) for a in twists)
        yield v, rng, f"N={N};twists={twist_text};d={d};c={v.codim}"


def run_macaulay_suite(cfg: VerifyConfig) -> SuiteReport:
    """Random subspaces against the growth bound, plus the sharp lex grid."""
    report = SuiteReport("macaulay")
    for v, _, params in _random_trials(cfg, "macaulay"):
        chk = check_macaulay_gotzmann(v)
        report.add(params, f"codim_next={chk.codim_next}", f"upper={chk.bound}", chk.holds)
    # lex segments must meet the bound exactly
    ctx = RingContext(3, cfg.prime)
    for d in range(1, 6):
        n = section_dim(SplitSheaf((0,)), d, ctx)
        for c in range(0, min(60, n) + 1):
            chk = check_macaulay_gotzmann(lex_segment_subspace(c, d, ctx))
            report.add(
                f"lex;N=3;d={d};c={c}",
                f"codim_next={chk.codim_next}",
                f"upper={chk.bound}",
                chk.codim_next == chk.bound,
            )
    return report


def run_restriction_suite(cfg: VerifyConfig) -> SuiteReport:
    """Random subspaces against additivity and the restriction bound."""
    report = SuiteReport("restriction")
    for v, rng, params in _random_trials(cfg, "restriction"):
        try:
            res = restrict_to_hyperplane(v, rng)
        except (AdditivityError, GenericityError) as exc:
            report.add(params, f"error={exc}", "", False)
            continue
        ok = res.restriction_bound_holds
        if v.degree == 1 and v.codim >= 1:
            # degree one must reproduce the exact c - 1 bound
            ok = ok and res.bound == v.codim - 1
        report.add(
            params,
            f"codim_h={res.codim_h};codim_pre={res.codim_preimage};attempts={res.attempts}",
            f"lower={res.bound}",
            ok,
        )
    return report


def _koszul_plan(cfg: VerifyConfig) -> list[tuple[str, graded.GradedSubspace]]:
    """Certified base-point-free subsystems of the conics on P^2.

    One structured witness per codimension (drop mixed monomials, keeping all
    squares) and three certified random draws, for c = 0..3.  Each witness is
    certified here, once, so the strands of `run_koszul_suite` need not
    certify it again.
    """
    ctx = RingContext(2, cfg.prime)
    sheaf = SplitSheaf((0,))
    degree = 2
    idx = monomial_index(3, degree)
    mixed = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    n = section_dim(sheaf, degree, ctx)
    plan: list[tuple[str, graded.GradedSubspace]] = []

    def add_structured(label: str, v: graded.GradedSubspace) -> None:
        if is_basepoint_free(v, cfg.t_max) != "free":
            raise graded.CertificationError(
                f"structured witness {label} failed to certify "
                f"base-point-freeness within t_max = {cfg.t_max}"
            )
        plan.append((label, v))

    add_structured("full", full_space(ctx, sheaf, degree))
    for c in (1, 2, 3):
        keep = [i for i in range(n) if i not in {idx[m] for m in mixed[:c]}]
        rows = np.eye(n, dtype=np.int64)[keep]
        add_structured(f"drop-mixed-c{c}", subspace_from_rows(ctx, sheaf, degree, rows))
        made = 0
        attempt = 0
        while made < 3:
            rng = trial_rng(cfg.seed, "koszul", 1000 * c + attempt)
            attempt += 1
            if attempt > 50:
                raise graded.CertificationError(
                    f"no certified random subspace of codimension {c} in 50 draws"
                )
            v = random_subspace(ctx, sheaf, degree, rng, dim=n - c)
            if v.codim != c or is_basepoint_free(v, cfg.t_max) != "free":
                continue
            made += 1
            plan.append((f"random-c{c}-{made}", v))
    return plan


def run_koszul_suite(cfg: VerifyConfig) -> SuiteReport:
    """Koszul strands p = 0, 1 in the expected-exact range on P^2 conics."""
    report = SuiteReport("koszul")
    for label, v in _koszul_plan(cfg):
        d_form = v.degree + v.sheaf.twists[0]
        for p_index in (0, 1):
            start = p_index + d_form + v.codim
            for k in (start, start + 1):
                # every witness of the plan is certified base-point free
                res = graded._koszul_strand(v, k, p_index, cfg.entry_budget)
                report.add(
                    f"V={label};c={v.codim};p={p_index};k={k}",
                    f"exact={res.exact};rank_in={res.rank_in};rank_out={res.rank_out}",
                    f"hypothesis k>={start}",
                    res.exact and res.hypothesis_met,
                )
    return report


def run_green_scan(cfg: VerifyConfig) -> SuiteReport:
    """Exhaustive hunt for counterexamples to the restriction implication."""
    report = SuiteReport("green-scan")
    hits = green_implication_scan(cfg.c_max, cfg.d_max)
    report.add(
        f"c_max={cfg.c_max};d_max={cfg.d_max}",
        f"counterexamples={len(hits)}",
        "expected=0",
        len(hits) == 0,
    )
    for c, cp, d in hits:
        report.add(f"c={c};c_prime={cp};d={d}", "violation", "", False)
    return report


def run_growth_suite(cfg: VerifyConfig) -> SuiteReport:
    """Exhaustive check of the slack growth bound over its whole domain.

    Row (n, e) counts the c < growth_slack_sum(n, e) with c^<n> > c + e.  The
    sums for one n are prefixes of 0..(n + 1)(n + 2)/2 - 1, the largest, so
    c^<n> is computed once over that range and each row reads a prefix.
    """
    report = SuiteReport("growth")
    for n in range(1, cfg.n_max + 1):
        cs = np.arange(growth_slack_sum(n, n))
        ups = upper_macaulay_many(cs, n)
        for e in range(0, n + 2):
            slack_sum = growth_slack_sum(n, e)
            bad = int(np.count_nonzero(ups[:slack_sum] > cs[:slack_sum] + e))
            report.add(f"n={n};e={e}", f"violations={bad}", f"cases={slack_sum}", bad == 0)
    return report


def _threshold_grid_rows(report: SuiteReport) -> None:
    """Grids certifying the slack hypothesis above each degree threshold.

    For each branch, the largest hypothetical codimension (floor - 1) must
    stay strictly below the triangular slack sum at n(d).  The floor and the
    growth step come from the functions `nl_codim_floor` and
    `contradiction_trace` evaluate them with, so the grid certifies the
    evaluator's own formulas.  The sum gains b + 1 every b degrees while the
    floor gains 1 per degree, so the margin trends upward and any failure
    lives near the threshold; a 40-degree window is several full periods for
    every b here.
    """
    window = 40
    # non-bundle chains run through one very ample canonical twist: a <= 3;
    # bundle chains (a = 4) need the extra twist
    cases = [("T2_general", a, b) for a in range(0, 4) for b in range(2, 9)]
    cases += [("T1", a, b) for a in range(1, 4) for b in range(2, 9)]
    for b in range(2, 9):
        cases += [("T1_bundle", 4, b), ("T2_p2bundle", 4, b)]
    for kind, a, b in cases:
        minus = kind.startswith("T1")
        variant = "minus_d_regular" if minus else "adjoint"
        bundle = a == 4
        inv = ThreefoldInvariants(
            kind, alpha=max(a, 1), beta=b, a_adj=a, b_adj=b, is_linear_p2_bundle=bundle
        )
        thr = threshold_value("T1" if minus else kind, b)
        worst = None
        ok = True
        for d in range(thr, thr + window + 1):
            floor = _floor_formula(variant, bundle, d, a, b)
            _, _, slack_sum, holds = _growth_step(
                inv, BundleSpec(variant, d, "known_zero"), floor - 1
            )
            margin = slack_sum - floor
            if worst is None or margin < worst:
                worst = margin
            if not holds:
                ok = False
        report.add(f"kind={kind};a={a};b={b};threshold={thr}", f"min_margin={worst}", "lhs<sum", ok)


def run_thresholds_suite(cfg: VerifyConfig) -> SuiteReport:
    """Threshold formulas: exact values, integrality, and the slack grids."""
    report = SuiteReport("thresholds")
    expected = {("T1", 2): 14, ("T2_general", 2): 12, ("T2_p2bundle", 2): 10}
    for (kind, b), want in expected.items():
        got = threshold_value(kind, b)
        report.add(f"kind={kind};b={b}", f"value={got}", f"expected={want}", got == want)
    _threshold_grid_rows(report)
    return report


def consistency_sweep(
    records: tuple[CatalogRecord, ...] | None = None, d_max: int = DEFAULT_TRACE_DMAX
) -> SuiteReport:
    """Replay the contradiction argument under every floor the catalog yields.

    For each entry, variant, H^1 state and degree d <= d_max where the
    evaluator returns a floor F >= 1, the trace at c_hyp = F - 1 must confirm
    the contradiction; floors of 0 or less assert nothing and pass vacuously.
    A sweep that meets no floor of 1 or more checks nothing and is refused.
    """
    report = SuiteReport("consistency")
    if records is None:
        records = default_catalog()
    traced = 0
    for rec in records:
        inv = rec.invariants
        for variant in VARIANTS:
            for h1 in ("unknown", "known_zero"):
                for d in range(1, d_max + 1):
                    spec = BundleSpec(variant=variant, d=d, h1_vanishing=h1)
                    res = nl_codim_floor(inv, spec)
                    if res.status != "floor":
                        continue
                    params = f"entry={inv.name};variant={variant};h1={h1};d={d}"
                    if res.floor_value <= 0:
                        report.add(params, f"floor={res.floor_value} (vacuous)", "", True)
                        continue
                    trace = contradiction_trace(inv, spec, res.floor_value - 1)
                    traced += 1
                    report.add(
                        params,
                        f"floor={res.floor_value};upper={trace.upper_value};el={trace.el_floor}",
                        f"branch={trace.branch}",
                        trace.confirmed,
                    )
    if not traced:
        raise ValueError(
            f"no catalog entry has a floor of 1 or more at any d <= {d_max}; the sweep checks nothing"
        )
    return report


_RUNNERS = {
    "macaulay": run_macaulay_suite,
    "restriction": run_restriction_suite,
    "koszul": run_koszul_suite,
    "green-scan": run_green_scan,
    "growth": run_growth_suite,
    "thresholds": run_thresholds_suite,
}


def run_suite(name: str, cfg: VerifyConfig) -> SuiteReport:
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite '{name}' (have: {', '.join(SUITES)})")
    return _RUNNERS[name](cfg)


def run_all(cfg: VerifyConfig) -> list[SuiteReport]:
    return [run_suite(name, cfg) for name in SUITES]
