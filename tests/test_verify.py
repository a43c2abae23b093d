"""The seeded verification suites themselves."""

import numpy as np
import pytest

from nlgotz import graded, verify
from nlgotz.bounds import ThreefoldInvariants
from nlgotz.catalog import CatalogRecord
from nlgotz.macaulay import growth_slack_check, growth_slack_sum
from nlgotz.verify import (
    SUITES,
    SuiteReport,
    TrialRow,
    VerifyConfig,
    consistency_sweep,
    run_all,
    run_suite,
    trial_rng,
)

SMALL = VerifyConfig(trials=8, c_max=150, d_max=4, n_max=8)


def test_trial_rng_is_counter_based():
    a = trial_rng(7, "macaulay", 3).integers(0, 1000, size=5)
    b = trial_rng(7, "macaulay", 3).integers(0, 1000, size=5)
    c = trial_rng(7, "macaulay", 4).integers(0, 1000, size=5)
    d = trial_rng(7, "restriction", 3).integers(0, 1000, size=5)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense", SMALL)


def test_macaulay_suite_small():
    rep = run_suite("macaulay", SMALL)
    assert rep.all_passed
    # trials random rows plus the exhaustive lex grid on P^3, degrees 1..5
    lex_rows = sum(min(60, n) + 1 for n in (4, 10, 20, 35, 56))
    assert rep.total == SMALL.trials + lex_rows
    rerun = run_suite("macaulay", SMALL)
    assert rerun.rows == rep.rows  # bit-identical reruns


def test_restriction_suite_small():
    rep = run_suite("restriction", SMALL)
    assert rep.all_passed and rep.total == SMALL.trials
    assert all("attempts=" in r.observed for r in rep.rows)


def test_koszul_suite_plan_size():
    rep = run_suite("koszul", SMALL)
    assert rep.all_passed
    # 13 certified subsystems (1 full + 4 per codimension 1..3),
    # each checked at two strands and two degrees
    assert rep.total == 52


def test_koszul_suite_certifies_each_witness_once(monkeypatch):
    certified = []
    real = graded.is_basepoint_free

    def counting(v, t_max=6, scan_limit=2_000_000):
        verdict = real(v, t_max, scan_limit)
        if verdict == "free":
            certified.append(id(v))
        return verdict

    def refuse(*args, **kwargs):
        raise AssertionError("a strand certified its witness again")

    monkeypatch.setattr(verify, "is_basepoint_free", counting)
    plan = verify._koszul_plan(SMALL)
    assert sorted(certified) == sorted(id(v) for _, v in plan) and len(plan) == 13
    certified.clear()
    monkeypatch.setattr(graded, "is_basepoint_free", refuse)
    rep = run_suite("koszul", SMALL)
    assert rep.all_passed and rep.total == 52
    assert len(certified) == 13


def test_green_scan_suite():
    rep = run_suite("green-scan", SMALL)
    assert rep.all_passed and rep.total == 1
    assert "counterexamples=0" in rep.rows[0].observed


def test_growth_suite_small():
    rep = run_suite("growth", SMALL)
    assert rep.all_passed
    assert rep.total == sum(n + 2 for n in range(1, SMALL.n_max + 1))


def _scalar_growth_rows(n_max):
    """The growth suite's rows from one growth_slack_check per (c, n, e)."""
    rows = []
    for n in range(1, n_max + 1):
        for e in range(0, n + 2):
            slack_sum = growth_slack_sum(n, e)
            bad = 0
            for c in range(slack_sum):
                chk = growth_slack_check(c, n, e)
                bad += not (chk.hypothesis_met and chk.bound_holds)
            params, observed = f"n={n};e={e}", f"violations={bad}"
            rows.append(TrialRow("growth", len(rows), params, observed, f"cases={slack_sum}", bad == 0))
    return rows


def test_growth_suite_equals_the_scalar_loop():
    assert run_suite("growth", SMALL).rows == _scalar_growth_rows(SMALL.n_max)


def test_growth_suite_reports_a_planted_violation(monkeypatch):
    # c^<n> raised past c + n + 1, the loosest bound any slack e allows, at one c:
    # exactly the rows whose prefix 0..slack_sum - 1 reaches that c must fail
    planted_c = 12
    real = verify.upper_macaulay_many

    def planted(cs, n):
        ups = real(cs, n)
        if planted_c < len(ups):
            ups[planted_c] = planted_c + n + 2
        return ups

    monkeypatch.setattr(verify, "upper_macaulay_many", planted)
    rows = run_suite("growth", SMALL).rows
    assert [r.params for r in rows] == [r.params for r in _scalar_growth_rows(SMALL.n_max)]
    failed = 0
    for row in rows:
        n, e = (int(part.split("=")[1]) for part in row.params.split(";"))
        covers = growth_slack_sum(n, e) > planted_c
        assert row.observed == f"violations={int(covers)}" and row.passed == (not covers)
        failed += covers
    assert 0 < failed < len(rows)


def test_thresholds_suite():
    rep = run_suite("thresholds", SMALL)
    assert rep.all_passed
    assert rep.total == 3 + 28 + 21 + 14  # frozen values + the three grids
    margins = [r for r in rep.rows if "min_margin=" in r.observed]
    assert margins, "grid rows must report their worst margin"


def test_run_all_order():
    cfg = VerifyConfig(trials=2, c_max=60, d_max=3, n_max=3)
    reports = run_all(cfg)
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.all_passed for r in reports)


def test_consistency_sweep_small():
    rep = consistency_sweep(d_max=20)
    assert rep.all_passed and rep.total > 0
    confirmed = [r for r in rep.rows if "floor=" in r.observed and "vacuous" not in r.observed]
    assert confirmed, "at least one real floor must be traced"


def test_consistency_sweep_custom_records():
    inv = ThreefoldInvariants(name="only", alpha=1, beta=1, a_adj=1, b_adj=1)
    rep = consistency_sweep(records=(CatalogRecord(invariants=inv),), d_max=16)
    assert rep.all_passed
    assert all(r.params.startswith("entry=only") for r in rep.rows)


def test_suite_report_accounting():
    rep = SuiteReport("demo")
    rep.rows.append(TrialRow("demo", 0, "p", "o", "b", True))
    rep.rows.append(TrialRow("demo", 1, "p", "o", "b", False))
    assert rep.total == 2
    assert len(rep.failures) == 1 and not rep.all_passed


@pytest.mark.parametrize(
    "sizes",
    [
        {"trials": 0},
        {"c_max": -1},
        {"d_max": 1},
        {"n_max": 0},
        {"t_max": 0},
        {"entry_budget": 0},
        {"c_max": 2},
    ],
)
def test_config_rejects_sizes_that_check_nothing(sizes):
    with pytest.raises(ValueError, match="must be at least"):
        VerifyConfig(**sizes)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"prime": 4}, "not a prime"),
        ({"prime": 1}, "not a prime"),
        ({"prime": 2**31}, "not a prime"),
        ({"seed": -1}, "seed must be nonnegative"),
    ],
)
def test_config_rejects_a_bad_prime_or_seed(kwargs, message):
    with pytest.raises(ValueError, match=message):
        VerifyConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs", [{"d_max": 0}, {"records": ()}, {"d_max": 1}, {"d_max": 2}, {"d_max": 3}]
)
def test_consistency_sweep_rejects_empty_sweeps(kwargs):
    # below d = 4 every catalog floor is 0 or less, so each row is vacuous
    with pytest.raises(ValueError, match="checks nothing"):
        consistency_sweep(**kwargs)


def test_consistency_sweep_at_the_first_real_floor():
    rep = consistency_sweep(d_max=4)
    real = [r for r in rep.rows if "vacuous" not in r.observed]
    assert rep.all_passed and len(real) == 3
