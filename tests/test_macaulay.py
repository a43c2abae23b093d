"""Binomial expansions and growth bounds against independent oracles."""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlgotz import macaulay
from nlgotz.macaulay import (
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

from oracles import all_decompositions, green_triangle, pascal_binom


def test_binom_matches_pascal_recurrence():
    for m in range(0, 40):
        for k in range(0, m + 1):
            assert binom(m, k) == pascal_binom(m, k)


def test_binom_conventions():
    assert binom(3, 5) == 0
    assert binom(-2, 1) == 0
    assert binom(0, 0) == 1
    with pytest.raises(ValueError):
        binom(4, -1)


def test_expansion_frozen_examples():
    rep = macaulay_rep(5, 2)
    assert rep.ks == (3, 2)
    assert rep.lowest_index == 1
    assert upper_macaulay(5, 2) == 7
    assert lower_macaulay(5, 2) == 2

    rep = macaulay_rep(29, 10)
    assert rep.ks == (11, 10, 8, 7, 6, 5, 4, 3, 2, 1)
    assert upper_macaulay(29, 10) == 31

    rep = macaulay_rep(0, 5)
    assert rep.ks == ()
    assert rep.lowest_index == 6
    assert rep.value() == 0
    assert upper_macaulay(0, 5) == 0
    assert lower_macaulay(0, 5) == 0


def test_expansion_domain_errors():
    with pytest.raises(ValueError):
        macaulay_rep(5, 0)
    with pytest.raises(ValueError):
        macaulay_rep(-1, 2)


def test_value_refuses_more_terms_than_the_degree():
    # a term past C(k_1, 1) would be C(k, 0) = 1, and value() once added it
    for degree, ks in ((1, (5, 3)), (2, (5, 3, 1)), (3, (6, 4, 2, 0))):
        rep = MacaulayRep(degree, ks)
        assert rep.lowest_index == 0
        with pytest.raises(ValueError, match="more than the degree"):
            rep.value()
    with pytest.raises(ValueError):
        MacaulayRep(2, (5, -1)).value()
    assert MacaulayRep(2, (5, 3)).value() == 13


def test_expansion_is_the_unique_valid_one():
    # brute force finds exactly one valid expansion, and it is ours
    for d in range(1, 7):
        for c in range(0, 301):
            found = all_decompositions(c, d)
            assert len(found) == 1, (c, d, found)
            assert found[0] == macaulay_rep(c, d).ks


def test_expansion_shape_and_reconstruction():
    for d in range(1, 13):
        for c in range(0, 2000, 7):
            rep = macaulay_rep(c, d)
            assert rep.value() == c
            assert all(x > y for x, y in zip(rep.ks, rep.ks[1:]))
            if rep.ks:
                assert rep.lowest_index >= 1
                assert rep.ks[-1] >= rep.lowest_index


def test_value_uses_positional_degrees():
    rep = MacaulayRep(degree=4, ks=(6, 4, 2))
    assert rep.value() == binom(6, 4) + binom(4, 3) + binom(2, 2)
    assert rep.lowest_index == 2


def test_upper_stability_below_degree():
    # c <= d expands into C(d,d) + C(d-1,d-1) + ... so the bound is c itself
    for d in range(1, 30):
        for c in range(0, d + 1):
            assert upper_macaulay(c, d) == c


def test_upper_full_space_step():
    # ambient dimensions map to the next ambient dimension
    for n in range(1, 6):
        for d in range(1, 6):
            c = binom(n + d, n)
            assert upper_macaulay(c, d) == binom(n + d + 1, n)


def test_upper_strictly_increasing_lower_monotone():
    for d in range(1, 8):
        ups = np.array([upper_macaulay(c, d) for c in range(400)])
        lows = np.array([lower_macaulay(c, d) for c in range(400)])
        assert np.all(np.diff(ups) >= 1)
        assert np.all(np.diff(lows) >= 0)


def test_lower_degree_one_is_c_minus_one():
    assert lower_macaulay(0, 1) == 0
    for c in range(1, 200):
        assert lower_macaulay(c, 1) == c - 1


def test_growth_slack_frozen_examples():
    chk = growth_slack_check(29, 10, 2)
    assert chk == GrowthSlackCheck(
        hypothesis_met=True, bound_holds=True, upper_value=31, slack_sum=30
    )
    chk = growth_slack_check(0, 5, 0)
    assert chk.hypothesis_met and chk.bound_holds and chk.upper_value == 0
    assert chk.slack_sum == 6
    chk = growth_slack_check(5, 10, 0)
    assert chk.hypothesis_met and chk.bound_holds and chk.upper_value == 5
    assert chk.slack_sum == 11


def test_growth_slack_domain():
    with pytest.raises(ValueError):
        growth_slack_check(3, 0, 0)
    with pytest.raises(ValueError):
        growth_slack_check(3, 5, -1)
    with pytest.raises(ValueError):
        growth_slack_check(3, 5, 7)
    with pytest.raises(ValueError):
        growth_slack_check(-1, 5, 0)
    # e = n + 1 is the edge of the domain, not outside it
    growth_slack_check(3, 5, 6)


def test_growth_slack_sum_formula():
    for n in range(1, 12):
        for e in range(0, n + 2):
            chk = growth_slack_check(0, n, e)
            assert chk.slack_sum == sum(n + 1 - i for i in range(e + 1))


def test_growth_slack_bound_holds_under_hypothesis():
    for n in range(1, 12):
        for e in range(0, n + 2):
            top = (e + 1) * (2 * n + 2 - e) // 2
            for c in range(top):
                chk = growth_slack_check(c, n, e)
                assert chk.hypothesis_met
                assert chk.bound_holds, (c, n, e, chk)


def test_green_scan_small_domain_is_empty():
    assert green_implication_scan(200, 6) == []
    assert green_implication_scan(-1, 5) == []
    assert green_implication_scan(50, 1) == []


def test_green_scan_reports_a_planted_violation(monkeypatch):
    # one less c_<2> at c = 20 (it is 14): c' = 14 still meets the premise
    # 14 <= 14_<2> + 6_<1>, so (20, 14, 2) must come back, and nothing else
    real = macaulay._lower_table
    assert real(30, 2)[20] == 14

    def planted(c_max, d):
        table = real(c_max, d).copy()
        if d == 2:
            table[20] -= 1
        return table

    monkeypatch.setattr(macaulay, "_lower_table", planted)
    assert green_implication_scan(30, 3) == [(20, 14, 2)]


def test_green_scan_equals_the_triangle_oracle():
    for c_max in (0, 1, 2, 7, 40, 151, 400):
        for d_max in (2, 3, 6, 11):
            want = green_triangle(c_max, d_max, macaulay._lower_table)
            assert green_implication_scan(c_max, d_max) == want == [], (c_max, d_max)


def test_green_scan_premise_first_holds_for_positive_c_prime_at_c_max_3():
    # c' = 0 always meets the conclusion, so a scan whose premises all have
    # c' = 0 checks nothing: `VerifyConfig` starts c_max at 3 for this reason
    for d_max in range(2, 11):
        for c_max in (0, 1, 2, 3):
            premises = green_triangle(c_max, d_max, macaulay._lower_table, premise_only=True)
            positive = [hit for hit in premises if hit[1] >= 1]
            assert bool(positive) == (c_max == 3), (c_max, d_max)


def test_green_scan_equals_the_triangle_oracle_on_planted_violations(monkeypatch):
    # nondecreasing tables pushed below the true c_<d> in places give many
    # hits, which must come back exactly as the whole triangle finds them
    real = macaulay._lower_table
    found = 0
    for trial in range(12):
        rng = np.random.default_rng(trial)
        drop = int(rng.integers(1, 40))
        c_max, d_max = int(rng.integers(0, 300)), int(rng.integers(2, 8))

        def planted(c_max, d, trial=trial, drop=drop):
            cut = np.random.default_rng((trial, d)).integers(0, drop + 1, c_max + 1)
            return np.maximum.accumulate(np.maximum(real(c_max, d) - cut, 0))

        monkeypatch.setattr(macaulay, "_lower_table", planted)
        want = green_triangle(c_max, d_max, planted)
        assert green_implication_scan(c_max, d_max) == want, (trial, c_max, d_max)
        found += len(want)
    assert found > 1000


def test_green_scan_refuses_a_table_that_decreases(monkeypatch):
    real = macaulay._lower_table

    def planted(c_max, d):
        table = real(c_max, d).copy()
        if d == 3:
            table[25] = table[24] - 1
        return table

    monkeypatch.setattr(macaulay, "_lower_table", planted)
    assert green_implication_scan(30, 2) == []
    with pytest.raises(AssertionError, match="c_<3> decreases"):
        green_implication_scan(30, 3)


def test_green_scan_at_acceptance_size_is_fast():
    green_implication_scan(2000, 10)  # warm the tables
    best = min(_timed(green_implication_scan, 2000, 10) for _ in range(3))
    assert best < 0.02, best


def test_expansions_benchmark_pass_matches_its_recorded_digest(workloads):
    # the `expansions` workload pins each pair's expansion and both bounds by
    # a digest per seed, which a miss turns into a failure of every item
    res = workloads.run_expansions(0)
    assert res.info["digest_recorded"] and res.items > 0
    assert res.failed == 0, res.errors


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _padded(c, d):
    ks = macaulay_rep(c, d).ks
    return list(ks) + [0] * (d - len(ks))


def test_many_equal_the_scalar_functions_below_3000():
    cs = np.arange(3000)
    for d in range(1, 13):
        ks = macaulay_rep_many(cs, d)
        assert ks.dtype == np.int64 and ks.shape == (3000, d)
        assert ks.tolist() == [_padded(c, d) for c in range(3000)]
        assert upper_macaulay_many(cs, d).tolist() == [upper_macaulay(c, d) for c in range(3000)]
        assert lower_macaulay_many(cs, d).tolist() == [lower_macaulay(c, d) for c in range(3000)]


def test_many_edge_contract():
    for fn in (macaulay_rep_many, upper_macaulay_many, lower_macaulay_many):
        with pytest.raises(ValueError):
            fn([3, -1], 2)
        with pytest.raises(ValueError):
            fn([3], 0)
        with pytest.raises(ValueError):
            fn([], 0)
        # past int64, as a Python int or as uint64
        with pytest.raises(ValueError):
            fn([2**64], 3)
        with pytest.raises(ValueError):
            fn(np.array([2**63], dtype=np.uint64), 3)
    assert macaulay_rep_many([], 4).shape == (0, 4)
    assert upper_macaulay_many([], 4).shape == lower_macaulay_many([], 4).shape == (0,)
    assert macaulay_rep_many([0], 5).tolist() == [[0] * 5]
    assert upper_macaulay_many([0], 5).tolist() == lower_macaulay_many([0], 5).tolist() == [0]
    # degree one: k_1 = c, c^<1> = C(c + 1, 2), c_<1> = c - 1
    cs = np.array([0, 1, 7, 2**31 + 5, 2**32 - 1])
    assert macaulay_rep_many(cs, 1)[:, 0].tolist() == cs.tolist()
    assert upper_macaulay_many(cs, 1).tolist() == [c * (c + 1) // 2 for c in cs.tolist()]
    assert lower_macaulay_many(cs, 1).tolist() == [0, 0, 6, 2**31 + 4, 2**32 - 2]
    # C(2^32 + 1, 2) = 2^63 + 2^31 is past int64: refused, never wrapped
    with pytest.raises(ValueError, match="int64"):
        upper_macaulay_many([5, 2**32], 1)
    top = 2**63 - 1
    assert lower_macaulay_many([top], 1).tolist() == [top - 1]
    assert macaulay_rep_many([top], 2)[0].tolist() == _padded(top, 2)


def test_huge_c_stays_fast_with_bounded_tables():
    for d in (2, 3):
        t0 = time.perf_counter()
        rep = macaulay_rep(10**40, d)
        assert time.perf_counter() - t0 < 1.0
        assert rep.value() == 10**40
        assert all(a > b for a, b in zip(rep.ks, rep.ks[1:]))
    for d in (1, 2, 3):
        macaulay_rep_many([2**63 - 1, 2**40], d)
        lower_macaulay_many([2**63 - 1, 2**40], d)
    # degrees 1 and 2 need no table, and no table outgrows the cap
    assert 1 not in macaulay._tables and 2 not in macaulay._tables
    assert all(len(t) <= macaulay._TABLE_CAP for t in macaulay._tables.values())


# small c exercises short expansions, large c long ones with big k_d
_cs = st.one_of(st.integers(0, 500), st.integers(0, 10**12))
_ds = st.integers(1, 12)
# below and above the int64 sweep limit, up to the largest int64
_int64_cs = st.one_of(st.integers(0, 3000), st.integers(0, 2**31 + 10), st.integers(0, 2**63 - 1))


@given(cs=st.lists(_int64_cs, max_size=12), d=_ds)
def test_many_equal_the_scalar_functions(cs, d):
    assert macaulay_rep_many(cs, d).tolist() == [_padded(c, d) for c in cs]
    assert lower_macaulay_many(cs, d).tolist() == [lower_macaulay(c, d) for c in cs]
    uppers = [upper_macaulay(c, d) for c in cs]
    if max(uppers, default=0) <= 2**63 - 1:
        assert upper_macaulay_many(cs, d).tolist() == uppers
    else:
        with pytest.raises(ValueError, match="int64"):
            upper_macaulay_many(cs, d)


@given(c=_cs, d=_ds)
def test_expansion_round_trips_through_value(c, d):
    rep = macaulay_rep(c, d)
    assert rep.value() == c
    # strictly decreasing, with k_f >= f >= 1
    assert all(a > b for a, b in zip(rep.ks, rep.ks[1:]))
    assert all(k >= d - j for j, k in enumerate(rep.ks))


@given(c=_cs, step=st.integers(0, 1000), d=_ds)
def test_growth_bounds_are_monotone_in_c(c, step, d):
    assert upper_macaulay(c, d) <= upper_macaulay(c + step, d)
    assert lower_macaulay(c, d) <= lower_macaulay(c + step, d)
