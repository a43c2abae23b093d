"""Codimension floors, contradiction traces, and blow-up positivity."""

import pytest

from nlgotz.bounds import (
    BundleSpec,
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
from nlgotz.catalog import default_catalog, find_record
from nlgotz.macaulay import upper_macaulay


def _entry(name):
    return find_record(default_catalog(), name).invariants


def _synthetic(b, a=1, **kw):
    return ThreefoldInvariants(name="synthetic", alpha=a, beta=b, a_adj=a, b_adj=b, **kw)


def test_derive_subcanonical_invariants():
    assert derive_subcanonical_invariants(-3) == (4, 1, 4, 1)
    assert derive_subcanonical_invariants(-1) == (2, 1, 2, 1)
    assert derive_subcanonical_invariants(0) == (1, 1, 1, 1)
    assert derive_subcanonical_invariants(1) == (1, 2, 0, 1)
    with pytest.raises(ValueError):
        derive_subcanonical_invariants(2)


def test_n_of():
    assert n_of(10, 1, 1) == 8
    assert n_of(12, 1, 2) == 3
    assert n_of(1, 4, 1) == -4
    assert n_of(2, 4, 3) == -4
    assert n_of(7, 3, 1) == 3
    with pytest.raises(ValueError):
        n_of(10, 1, 0)


def test_invariant_validation():
    good = _synthetic(2)
    good.validate()
    cases = [
        dict(name=""),
        dict(alpha=0),
        dict(beta=0),
        dict(b_adj=0),
        dict(a_adj=-1),
        dict(alpha=5),
        dict(a_adj=5),
        dict(alpha=4),  # alpha = 4 without bundle or quadric structure
        dict(a_adj=4),  # a_adj = 4 likewise
        dict(is_quadric=True, is_linear_p2_bundle=True, alpha=4),
        dict(is_linear_p2_bundle=True, alpha=2),  # K_Y + 3H is trivial on the fibres
        dict(subcanonical_e=0, beta=2),
        dict(h3=0),
    ]
    base = dict(name="x", alpha=1, beta=1, a_adj=1, b_adj=1)
    for override in cases:
        inv = ThreefoldInvariants(**{**base, **override})
        with pytest.raises(ValueError):
            inv.validate()
    # alpha = 4 is fine on P^3, on the quadric, and on a linear P^2-bundle
    ThreefoldInvariants(**{**base, "alpha": 4, "is_p3": True}).validate()
    ThreefoldInvariants(**{**base, "alpha": 4, "a_adj": 4, "is_quadric": True}).validate()
    ThreefoldInvariants(**{**base, "alpha": 4, "is_linear_p2_bundle": True}).validate()
    ThreefoldInvariants(**{**base, "a_adj": 4, "is_p3": True}).validate()
    ThreefoldInvariants(
        **{**base, "alpha": 4, "a_adj": 4, "is_linear_p2_bundle": True}
    ).validate()


def test_the_quadric_has_the_invariants_of_k_equal_minus_3h():
    # K_Q = -3H: (alpha, beta, a_adj, b_adj) = (4, 1, 4, 1) and e = -3 if given
    quadric = dict(name="q", alpha=4, beta=1, a_adj=4, b_adj=1, is_quadric=True)
    ThreefoldInvariants(**quadric).validate()
    ThreefoldInvariants(**quadric, subcanonical_e=-3).validate()
    for override in (
        dict(beta=2),  # the floor d - 5 was then refuted by its own chain
        dict(b_adj=2),
        dict(a_adj=3),
        dict(alpha=3, a_adj=3),
        dict(subcanonical_e=-2),
        dict(subcanonical_e=0),
    ):
        with pytest.raises(ValueError, match="quadric has K = -3H"):
            ThreefoldInvariants(**{**quadric, **override}).validate()


def test_bundle_spec_validation():
    BundleSpec(variant="adjoint", d=5)
    with pytest.raises(ValueError):
        BundleSpec(variant="nonsense", d=5)
    with pytest.raises(ValueError):
        BundleSpec(variant="adjoint", d=5, h1_vanishing="maybe")
    with pytest.raises(ValueError):
        BundleSpec(variant="adjoint", d=0)


def test_vanishing_hypothesis():
    quintic = _entry("quintic")
    assert vanishing_hypothesis_met(quintic, BundleSpec("minus_d_regular", 13))
    assert not vanishing_hypothesis_met(quintic, BundleSpec("minus_d_regular", 12))
    assert vanishing_hypothesis_met(quintic, BundleSpec("adjoint", 13))
    assert not vanishing_hypothesis_met(quintic, BundleSpec("adjoint", 12))
    assert vanishing_hypothesis_met(
        quintic, BundleSpec("adjoint", 5, h1_vanishing="known_zero")
    )
    quadric = _entry("quadric")
    # alpha = 4, beta = 1: the explicit thresholds drop to 4 and 7
    assert vanishing_hypothesis_met(quadric, BundleSpec("minus_d_regular", 4))
    assert not vanishing_hypothesis_met(quadric, BundleSpec("minus_d_regular", 3))
    assert vanishing_hypothesis_met(quadric, BundleSpec("adjoint", 7))
    assert not vanishing_hypothesis_met(quadric, BundleSpec("adjoint", 6))


def test_threshold_values():
    assert threshold_value("T1", 2) == 14
    assert threshold_value("T2_general", 2) == 12
    assert threshold_value("T2_p2bundle", 2) == 10
    assert threshold_value("T1", 3) == 36
    assert threshold_value("T2_general", 3) == 36
    assert threshold_value("T2_p2bundle", 3) == 33
    with pytest.raises(ValueError):
        threshold_value("T1", 1)
    with pytest.raises(ValueError):
        threshold_value("T9", 2)


def test_floor_quadric_special_route():
    quadric = _entry("quadric")
    res = nl_codim_floor(quadric, BundleSpec("minus_d_regular", 10))
    assert res.status == "floor" and res.floor_value == 5
    assert res.branch == "quadric-special"
    assert res.notes
    res = nl_codim_floor(quadric, BundleSpec("minus_d_regular", 6))
    assert res.status == "no_bound" and res.branch == "quadric-special"
    # the adjoint route on the quadric is the ordinary b = 1 branch
    res = nl_codim_floor(quadric, BundleSpec("adjoint", 10))
    assert res.status == "floor" and res.floor_value == 5
    assert res.branch == "adjoint.general.b=1"


def test_floor_adjoint_b1():
    quintic = _entry("quintic")
    res = nl_codim_floor(quintic, BundleSpec("adjoint", 12))
    assert res.status == "no_bound"
    assert [c.passed for c in res.hypotheses] == [True, False]
    res = nl_codim_floor(quintic, BundleSpec("adjoint", 12, h1_vanishing="known_zero"))
    assert res.status == "floor" and res.floor_value == 7
    assert res.branch == "adjoint.general.b=1"
    assert any("A nef" in s for s in res.assumptions)
    res = nl_codim_floor(quintic, BundleSpec("adjoint", 13))
    assert res.status == "floor" and res.floor_value == 8


def test_floor_minus_d_b1():
    quintic = _entry("quintic")
    res = nl_codim_floor(quintic, BundleSpec("minus_d_regular", 13))
    assert res.status == "floor" and res.floor_value == 13 - 6 + 1
    assert res.branch == "minus-d-regular.general.beta=1"
    assert res.n_value == n_of(13, 1, 1)
    assert res.assumptions == ()


def test_floor_b2_branches_and_thresholds():
    inv = _synthetic(2)
    spec = BundleSpec("minus_d_regular", 14, h1_vanishing="known_zero")
    res = nl_codim_floor(inv, spec)
    assert res.status == "floor" and res.floor_value == 14 - 5 + 1 - 4
    assert res.branch == "minus-d-regular.general.beta>=2"
    res = nl_codim_floor(inv, BundleSpec("minus_d_regular", 13, h1_vanishing="known_zero"))
    assert res.status == "no_bound"
    assert [c.name for c in res.hypotheses if not c.passed] == ["degree_threshold"]
    res = nl_codim_floor(inv, BundleSpec("adjoint", 12, h1_vanishing="known_zero"))
    assert res.status == "floor" and res.floor_value == 12 - 5 - 2
    assert res.branch == "adjoint.general.b>=2"


def test_floor_p2_bundle_branches():
    bundle = _entry("p2-bundle-template")
    res = nl_codim_floor(bundle, BundleSpec("adjoint", 12))
    assert res.status == "floor" and res.floor_value == 6
    assert res.branch == "adjoint.p2-bundle.b=1"
    res = nl_codim_floor(bundle, BundleSpec("minus_d_regular", 10))
    assert res.status == "floor" and res.floor_value == 7
    assert res.branch == "minus-d-regular.p2-bundle.beta=1"
    inv = ThreefoldInvariants(
        name="b2-bundle", alpha=4, beta=2, a_adj=4, b_adj=2, is_linear_p2_bundle=True
    )
    res = nl_codim_floor(inv, BundleSpec("adjoint", 10, h1_vanishing="known_zero"))
    assert res.status == "floor" and res.floor_value == 10 - 6 - 2
    assert res.branch == "adjoint.p2-bundle.b>=2"
    res = nl_codim_floor(inv, BundleSpec("minus_d_regular", 14, h1_vanishing="known_zero"))
    assert res.status == "floor" and res.floor_value == 14 - 2 - 4
    assert res.branch == "minus-d-regular.p2-bundle.beta>=2"


def test_floor_p3_out_of_domain():
    p3 = ThreefoldInvariants(name="p3", alpha=4, beta=1, a_adj=4, b_adj=1, is_p3=True)
    res = nl_codim_floor(p3, BundleSpec("adjoint", 12))
    assert res.status == "out_of_domain"
    assert res.branch == "p3-excluded"
    assert res.floor_value is None


def test_floor_grows_with_degree():
    quintic = _entry("quintic")
    prev = None
    for d in range(13, 60):
        res = nl_codim_floor(quintic, BundleSpec("adjoint", d))
        assert res.status == "floor"
        if prev is not None:
            assert res.floor_value == prev + 1
        prev = res.floor_value


def test_branch_labels_total():
    seen = set()
    entries = [
        _synthetic(1),
        _synthetic(2),
        _entry("p2-bundle-template"),
        ThreefoldInvariants(
            name="b2b", alpha=4, beta=2, a_adj=4, b_adj=2, is_linear_p2_bundle=True
        ),
        _entry("quadric"),
    ]
    for inv in entries:
        for variant in ("minus_d_regular", "adjoint"):
            res = nl_codim_floor(
                inv, BundleSpec(variant, 40, h1_vanishing="known_zero")
            )
            seen.add(res.branch)
    assert seen == {
        "minus-d-regular.general.beta=1",
        "minus-d-regular.general.beta>=2",
        "minus-d-regular.p2-bundle.beta=1",
        "minus-d-regular.p2-bundle.beta>=2",
        "adjoint.general.b=1",
        "adjoint.general.b>=2",
        "adjoint.p2-bundle.b=1",
        "adjoint.p2-bundle.b>=2",
        "quadric-special",
    }


def test_ein_lazarsfeld_floor():
    assert ein_lazarsfeld_floor(_entry("quintic"), BundleSpec("minus_d_regular", 13)) == 8
    assert ein_lazarsfeld_floor(_entry("quadric"), BundleSpec("minus_d_regular", 10)) == 8
    assert ein_lazarsfeld_floor(_entry("quadric"), BundleSpec("adjoint", 9)) == 4
    with pytest.raises(ValueError):
        ein_lazarsfeld_floor(_entry("quintic"), BundleSpec("adjoint", 3))
    p3 = ThreefoldInvariants(name="p3", alpha=4, beta=1, a_adj=4, b_adj=1, is_p3=True)
    with pytest.raises(ValueError):
        ein_lazarsfeld_floor(p3, BundleSpec("adjoint", 12))


def test_trace_quintic_adjoint():
    spec = BundleSpec("adjoint", 12, h1_vanishing="known_zero")
    trace = contradiction_trace(_entry("quintic"), spec, 6)
    assert trace.confirmed
    assert trace.n_value == 10
    assert trace.slack == 0 and trace.slack_sum == 11
    assert trace.upper_value == 6 and trace.el_floor == 7
    assert [s.name for s in trace.steps] == [
        "floor_exists",
        "component_below_floor",
        "growth_slack_hypothesis",
        "macaulay_growth",
        "pencil_floor_contradiction",
    ]


def test_trace_b2_adjoint():
    spec = BundleSpec("adjoint", 12, h1_vanishing="known_zero")
    trace = contradiction_trace(_synthetic(2), spec, 4)
    assert trace.confirmed
    assert trace.n_value == 3 and trace.slack == 2 and trace.slack_sum == 9
    assert trace.upper_value == upper_macaulay(4, 3) == 5
    assert trace.el_floor == 7


def test_trace_bundle_uses_extra_twist():
    bundle = _entry("p2-bundle-template")
    trace = contradiction_trace(bundle, BundleSpec("adjoint", 12), 5)
    assert trace.confirmed
    # n and the pencil floor both shift by one through K_Y(4)
    assert trace.n_value == (12 + 4 - 4) // 1 - 4 == 8
    assert trace.el_floor == 12 - 5 - 1


def test_trace_quadric_route():
    trace = contradiction_trace(_entry("quadric"), BundleSpec("minus_d_regular", 10), 4)
    assert trace.confirmed
    assert trace.branch == "quadric-special"
    assert trace.el_floor == 5 and trace.upper_value == 4


def test_trace_zero_component():
    trace = contradiction_trace(_entry("quintic"), BundleSpec("adjoint", 13), 0)
    assert trace.confirmed and trace.upper_value == 0


def test_trace_domain_errors():
    quintic = _entry("quintic")
    spec = BundleSpec("adjoint", 13)
    floor = nl_codim_floor(quintic, spec).floor_value
    with pytest.raises(ValueError):
        contradiction_trace(quintic, spec, floor)
    with pytest.raises(ValueError):
        contradiction_trace(quintic, spec, -1)
    with pytest.raises(ValueError):
        contradiction_trace(quintic, BundleSpec("adjoint", 12), 3)  # no floor there


def test_blowup_ampleness_flip():
    quadric = _entry("quadric")
    res = blowup_ampleness(quadric, 4, 100)
    assert res.verdict == "ample" and (res.lhs, res.rhs) == (128, 100)
    res = blowup_ampleness(quadric, 4, 127)
    assert res.verdict == "ample"
    res = blowup_ampleness(quadric, 4, 128)
    assert res.verdict == "not_ample"
    res = blowup_ampleness(quadric, 3, 10)
    assert res.verdict == "hypotheses_unmet"
    assert res.lhs is None and res.rhs is None


def test_blowup_h1_declaration():
    quintic = _entry("quintic")
    res = blowup_ampleness(quintic, 12, 10)
    assert res.verdict == "hypotheses_unmet"  # 12 < 3e + 13 = 13
    res = blowup_ampleness(quintic, 12, 10, h1_known_zero=True)
    assert res.verdict == "ample" and res.lhs == 12**3 * 5
    res = blowup_ampleness(quintic, 13, 13**3 * 5 - 1)
    assert res.verdict == "ample"


def test_blowup_requirements():
    with pytest.raises(ValueError):
        blowup_ampleness(_entry("p2-bundle-template"), 12, 1)  # no e, no h3, no Pic
    quintic = _entry("quintic")
    with pytest.raises(ValueError):
        blowup_ampleness(quintic, 0, 1)
    with pytest.raises(ValueError):
        blowup_ampleness(quintic, 13, -1)
    p3 = ThreefoldInvariants(
        name="p3", alpha=4, beta=1, a_adj=4, b_adj=1, is_p3=True,
        subcanonical_e=-4, h3=1, pic_is_z=True,
    )
    with pytest.raises(ValueError):
        blowup_ampleness(p3, 13, 1)
    no_pic = ThreefoldInvariants(
        name="x", alpha=1, beta=1, a_adj=1, b_adj=1, subcanonical_e=0, h3=5
    )
    with pytest.raises(ValueError):
        blowup_ampleness(no_pic, 13, 1)
