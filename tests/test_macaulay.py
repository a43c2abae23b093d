"""Binomial expansions and growth bounds against independent oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlgotz.macaulay import (
    GrowthSlackCheck,
    MacaulayRep,
    binom,
    green_implication_scan,
    growth_slack_check,
    lower_macaulay,
    macaulay_rep,
    upper_macaulay,
)

from oracles import all_decompositions, pascal_binom


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


# small c exercises short expansions, large c long ones with big k_d
_cs = st.one_of(st.integers(0, 500), st.integers(0, 10**12))
_ds = st.integers(1, 12)


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
