"""Graded subspaces over F_p: growth, restriction, freeness, Koszul strands.

The heavier statements are cross-checked against dict-polynomial oracles
and sympy ranks from tests/oracles.py, which share no code with the
package's scatter-matrix machinery.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from nlgotz import graded, modp
from nlgotz.graded import (
    RETRY_CAP,
    AdditivityError,
    BudgetExceededError,
    CertificationError,
    GenericityError,
    GradedSubspace,
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
from nlgotz.macaulay import upper_macaulay
from nlgotz.monomials import dim_degree, monomial_index, monomials, unit_exponent

from oracles import (
    form_value,
    gfp_rref,
    rational_common_zero,
    substitute_last_variable,
    vector_times_var,
    vectors_preimage,
    vectors_rank,
)

P = 101


def _as_dict_vectors(v):
    """Convert basis rows into tuples of exponent-dict polynomials."""
    nv = v.context.N + 1
    blocks = []
    off = 0
    for a in v.sheaf.twists:
        monos = monomials(nv, v.degree + a)
        blocks.append((monos, off))
        off += len(monos)
    out = []
    for row in v.basis:
        vec = []
        for monos, boff in blocks:
            vec.append(
                {e: int(row[boff + j]) for j, e in enumerate(monos) if row[boff + j]}
            )
        out.append(tuple(vec))
    return out


def _squares(ctx):
    """span{x0^2, x1^2, x2^2} inside the conics on P^2."""
    sheaf = SplitSheaf((0,))
    idx = monomial_index(3, 2)
    rows = np.zeros((3, 6), dtype=np.int64)
    for i, e in enumerate([(2, 0, 0), (0, 2, 0), (0, 0, 2)]):
        rows[i, idx[e]] = 1
    return subspace_from_rows(ctx, sheaf, 2, rows)


def test_context_and_sheaf_validation():
    with pytest.raises(ValueError):
        RingContext(-1)
    with pytest.raises(ValueError):
        RingContext(2, 100)
    with pytest.raises(ValueError):
        SplitSheaf(())
    assert RingContext(2).p == P
    assert is_cm_regular(SplitSheaf((0, 1, 2)))
    assert not is_cm_regular(SplitSheaf((0, -1)))


def test_section_dim_frozen():
    ctx = RingContext(3, P)
    assert section_dim(SplitSheaf((0,)), 2, ctx) == 10
    ctx2 = RingContext(2, P)
    assert section_dim(SplitSheaf((0, 1)), 1, ctx2) == 3 + 6
    assert section_dim(SplitSheaf((0,)), -1, ctx2) == 0
    assert section_dim(SplitSheaf((-3, 0)), 1, ctx2) == 0 + 3


def test_subspace_canonicalization():
    ctx = RingContext(2, P)
    sheaf = SplitSheaf((0,))
    rows = np.array([[2, 4, 6, 0, 0, 0], [1, 2, 3, 0, 0, 0], [0, 0, 0, 5, 0, 0]])
    v = subspace_from_rows(ctx, sheaf, 2, rows)
    assert v.ambient_dim == 6
    assert v.dim == 2 and v.codim == 4
    # rows are the canonical reduced echelon basis, pivots normalized to 1
    assert v.basis[0].tolist() == [1, 2, 3, 0, 0, 0]
    assert v.basis[1].tolist() == [0, 0, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        v.basis[0, 0] = 9  # read-only


def test_subspace_from_rows_never_writes_to_the_callers_array():
    ctx = RingContext(3, P)
    sheaf = SplitSheaf((0, 1))
    n = section_dim(sheaf, 3, ctx)
    rows = np.random.default_rng(8).integers(0, P, size=(90, n)).astype(np.int64)
    frozen = rows.copy()
    frozen.setflags(write=False)
    for mat in (rows, frozen, rows[::-1], np.asfortranarray(rows)):
        before = mat.copy()
        v = subspace_from_rows(ctx, sheaf, 3, mat)
        assert np.array_equal(mat, before)
        assert not np.shares_memory(v.basis, mat)


def test_library_built_subspaces_equal_the_public_constructor():
    # random draws, lex segments, multiply stacks and restriction products
    # are reduced in place; the basis must be the one `GradedSubspace` gives
    def same(v, rows):
        want = GradedSubspace(v.context, v.sheaf, v.degree, rows)
        assert v.basis.dtype == np.int64 and not v.basis.flags.writeable
        assert np.array_equal(v.basis, want.basis) and v.basis.shape == want.basis.shape

    for N, twists, degree, codim in ((2, (0,), 12, 2), (3, (0, 1), 3, 3), (4, (0,), 3, 1)):
        ctx = RingContext(N, P)
        sheaf = SplitSheaf(twists)
        n = section_dim(sheaf, degree, ctx)
        v = random_subspace(ctx, sheaf, degree, np.random.default_rng(N), dim=n - codim)
        same(v, np.random.default_rng(N).integers(0, P, size=(n - codim, n)))
        same(multiply(v, 1), graded._shifted_rows(v, 1))
        res = restrict_to_hyperplane(v, seed=N)
        ctx_h = RingContext(N - 1, P)
        sub = graded._substitution_matrix(ctx_h, sheaf, degree, np.array(res.linear_form))
        same(res.v_h, modp.matmul_mod(v.basis, sub, P))
        same(res.v_preimage, res.v_preimage.basis.copy())
        if twists == (0,):
            lex = lex_segment_subspace(codim, degree, ctx)
            same(lex, np.eye(n, dtype=np.int64)[: n - codim])
            same(multiply(lex, 1), graded._shifted_rows(lex, 1))
        same(full_space(ctx, sheaf, degree), np.eye(n, dtype=np.int64))


def test_subspaces_benchmark_pass_matches_its_recorded_digest(monkeypatch):
    # the `subspaces` workload checks growth and restriction on ambient dims
    # 105..453 and pins their outputs by a digest per seed, which a miss
    # turns into a failure of every item
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    res = workloads.run_subspaces(0)
    assert res.info["digest_recorded"] and res.items > 0
    assert res.failed == 0, res.errors


def test_full_zero_and_lex_edges():
    ctx = RingContext(3, P)
    sheaf = SplitSheaf((0,))
    assert full_space(ctx, sheaf, 2).codim == 0
    assert zero_subspace(ctx, sheaf, 2).dim == 0
    # `[]` is the empty set of rows
    empty = subspace_from_rows(ctx, sheaf, 2, [])
    assert empty.basis.shape == (0, 10) and empty.codim == 10
    assert lex_segment_subspace(0, 2, ctx).codim == 0
    assert lex_segment_subspace(10, 2, ctx).dim == 0
    with pytest.raises(ValueError):
        lex_segment_subspace(11, 2, ctx)
    with pytest.raises(ValueError):
        lex_segment_subspace(-1, 2, ctx)


def test_lex_segment_keeps_greatest_monomials():
    ctx = RingContext(1, P)
    v = lex_segment_subspace(2, 2, ctx)
    # of {x0^2, x0 x1, x1^2} only the single greatest survives
    assert v.basis.tolist() == [[1, 0, 0]]


def test_multiply_against_dict_oracle():
    # (-1, 0, 2) at d = 0: the twist -1 summand has no sections in degree
    # 0 but one in degree 1, which no product reaches
    rng = np.random.default_rng(31)
    N = 2
    for twists, d, p in itertools.product(
        [(0,), (0, 1), (0, 1, 2), (-1, 0, 2)], (0, 1, 2, 3), (2, 101)
    ):
        ctx = RingContext(N, p)
        sheaf = SplitSheaf(twists)
        n = section_dim(sheaf, d, ctx)
        cols = [(bi, e) for bi, a in enumerate(twists) for e in _lex_monomials(N + 1, d + 1 + a)]
        index = {key: j for j, key in enumerate(cols)}
        for dim in sorted({1, n // 2, n}):
            v = random_subspace(ctx, sheaf, d, rng, dim=dim)
            w = multiply(v, 1)
            products = []
            for vec in _as_dict_vectors(v):
                for i in range(N + 1):
                    row = [0] * len(cols)
                    for bi, f in enumerate(vector_times_var(vec, i)):
                        for e, c in f.items():
                            row[index[(bi, e)]] = c
                    products.append(row)
            assert w.basis.tolist() == gfp_rref(products, p), (twists, d, p, dim)
            # two single steps equal one double step
            assert multiply(v, 2).basis.tolist() == multiply(w, 1).basis.tolist()
    with pytest.raises(ValueError):
        multiply(v, 0)


def test_multiply_edges():
    ctx = RingContext(2, P)
    sheaf = SplitSheaf((0,))
    assert multiply(full_space(ctx, sheaf, 1), 1).codim == 0
    assert multiply(zero_subspace(ctx, sheaf, 1), 3).dim == 0


def test_gotzmann_growth_lex_is_sharp():
    ctx = RingContext(3, P)
    for d in (1, 2, 3):
        n = dim_degree(4, d)
        for c in range(0, min(n, 12) + 1):
            chk = check_macaulay_gotzmann(lex_segment_subspace(c, d, ctx))
            assert chk.holds
            assert chk.codim_next == chk.bound == upper_macaulay(c, d)


def test_gotzmann_growth_frozen_example():
    ctx = RingContext(3, P)
    chk = check_macaulay_gotzmann(lex_segment_subspace(5, 2, ctx))
    assert (chk.codim, chk.codim_next, chk.bound, chk.holds) == (5, 7, 7, True)


def test_gotzmann_random_split_sheaves():
    rng = np.random.default_rng(8)
    for twists in [(0,), (0, 2), (1, 1, 0)]:
        ctx = RingContext(2, P)
        v = random_subspace(ctx, SplitSheaf(twists), 2, rng)
        assert check_macaulay_gotzmann(v).holds


def test_growth_codim_both_ways_against_dict_oracle():
    # codim V S_1 from the inverse-system count and from the multiply stack,
    # against the rank of the products computed on dict polynomials.  d = 1
    # with twist 0 puts a degree-0 block at d - 1; N = 0 has no conditions.
    rng = np.random.default_rng(12)
    for p, N, (twists, d) in itertools.product(
        (2, 3, 101, 2**31 - 1), range(4), [((0,), 1), ((0,), 2), ((0, 1), 1)]
    ):
        ctx = RingContext(N, p)
        sheaf = SplitSheaf(twists)
        n = section_dim(sheaf, d, ctx)
        n_next = section_dim(sheaf, d + 1, ctx)
        for dim in sorted({0, 1, n // 2, n - 1, n}):
            v = random_subspace(ctx, sheaf, d, rng, dim=dim)
            perp = modp.rref_kernel(v.basis, p)
            assert perp.shape == (v.codim, n)
            assert not modp.matmul_mod(v.basis, perp.T, p).any()
            products = [
                vector_times_var(vec, i) for vec in _as_dict_vectors(v) for i in range(N + 1)
            ]
            expected = n_next - vectors_rank(products, p)
            dual = graded._codim_times_linear_forms(v)
            assert dual == multiply(v, 1).codim == expected, (p, N, twists, d, v.dim)
            assert check_macaulay_gotzmann(v).codim_next == expected


def test_gotzmann_growth_reduces_the_smaller_matrix(monkeypatch):
    # P^5, twists (0, 1), d = 4, codim 4: the stack of multiply is 2,244 x 714,
    # the inverse-system matrix 2,730 x 24
    ctx = RingContext(5, P)
    sheaf = SplitSheaf((0, 1))
    n = section_dim(sheaf, 4, ctx)
    v = random_subspace(ctx, sheaf, 4, np.random.default_rng(19), dim=n - 4)
    expected = multiply(v, 1).codim

    def refuse(w, t):
        raise AssertionError("the multiply stack is the larger matrix here")

    monkeypatch.setattr(graded, "multiply", refuse)
    chk = check_macaulay_gotzmann(v)
    assert (chk.codim, chk.codim_next) == (4, expected)

    # dim V = 1: the stack has N + 1 rows and is the smaller matrix
    calls = []
    monkeypatch.setattr(graded, "multiply", lambda w, t: calls.append(t) or multiply(w, t))
    ctx = RingContext(2, P)
    v = random_subspace(ctx, SplitSheaf((0,)), 2, np.random.default_rng(3), dim=1)
    chk = check_macaulay_gotzmann(v)
    assert calls == [1]
    assert chk.codim_next == graded._codim_times_linear_forms(v) == 10 - 3


def test_gotzmann_preconditions():
    ctx = RingContext(2, P)
    with pytest.raises(ValueError):
        check_macaulay_gotzmann(full_space(ctx, SplitSheaf((-1,)), 2))
    with pytest.raises(ValueError):
        check_macaulay_gotzmann(full_space(ctx, SplitSheaf((0,)), 0))


def test_restriction_frozen_example():
    ctx = RingContext(3, P)
    v = lex_segment_subspace(5, 2, ctx)
    res = restrict_to_hyperplane(v, seed=1)
    assert res.codim == 5
    assert res.bound == 2
    assert res.additivity_holds and res.restriction_bound_holds
    assert res.codim == res.codim_h + res.codim_preimage
    assert res.codim_h <= 2
    assert res.v_h.context.N == 2
    assert res.v_preimage.degree == 1
    assert len(res.linear_form) == 4 and res.linear_form[-1] != 0


def test_restriction_is_deterministic():
    ctx = RingContext(2, P)
    rng = np.random.default_rng(40)
    v = random_subspace(ctx, SplitSheaf((0, 1)), 2, rng, dim=5)
    a = restrict_to_hyperplane(v, seed=7)
    b = restrict_to_hyperplane(v, seed=7)
    assert a.linear_form == b.linear_form
    assert a.v_h.basis.tolist() == b.v_h.basis.tolist()
    assert a.v_preimage.basis.tolist() == b.v_preimage.basis.tolist()


def _lex_monomials(num_vars, degree):
    """Exponent tuples of one degree in descending lex, by brute force."""
    grid = itertools.product(range(degree + 1), repeat=num_vars)
    return sorted((e for e in grid if sum(e) == degree), reverse=True)


def _lex_columns(num_vars, degree, twists):
    """(summand, exponents) of each column of H^0(M(degree)), by brute force."""
    return [(bi, e) for bi, a in enumerate(twists) for e in _lex_monomials(num_vars, degree + a)]


def test_restriction_against_substitution_oracle():
    # blocks of degree 1 to 6; sympy's GF(p) elimination takes seconds a
    # shape past ambient dim 120, so the substitution map on P^3 and P^4 at
    # block degrees up to 6 is checked on its own, below
    shapes = itertools.product(
        (1, 2, 3, 4), (1, 2, 3, 4), ((0,), (0, 1), (0, 1, 2)), (2, 3, 101, 2147483647)
    )
    for degree, N, twists, p in shapes:
        where = (degree, N, twists, p)
        ctx = RingContext(N, p)
        sheaf = SplitSheaf(twists)
        if section_dim(sheaf, degree, ctx) > 120:
            continue
        rng = np.random.default_rng(17)
        v = random_subspace(ctx, sheaf, degree, rng, dim=section_dim(sheaf, degree, ctx) // 2)
        res = restrict_to_hyperplane(v, seed=5)
        lam = res.linear_form
        inv_last = pow(lam[N], -1, p)
        mu = tuple((-lam[i] * inv_last) % p for i in range(N))
        # independently substitute into each basis polynomial; the columns are
        # the monomials in x_0..x_{N-1}, one block per summand
        index = {key: j for j, key in enumerate(_lex_columns(N, degree, twists))}
        v_rows = _as_dict_vectors(v)
        restricted = []
        for vec in v_rows:
            row = [0] * len(index)
            for bi, poly in enumerate(vec):
                for e, c in substitute_last_variable(poly, mu, p).items():
                    row[index[(bi, e[:N])]] = c
            restricted.append(row)
        assert res.v_h.basis.tolist() == gfp_rref(restricted, p), where
        # the preimage is the whole of {f : (lam . x) f in V}, not just inside it
        products = []
        for bi, e in _lex_columns(N + 1, degree - 1, twists):
            prod = tuple({} for _ in twists)
            for i in range(N + 1):
                if lam[i]:
                    prod[bi][e[:i] + (e[i] + 1,) + e[i + 1 :]] = lam[i]
            products.append(prod)
        assert res.v_preimage.basis.tolist() == vectors_preimage(products, v_rows, p), where


def test_substitution_matrix_at_the_largest_prime():
    # lam = (1, ..., 1) makes every mu_i = p - 1, the largest entry
    p = 2147483647
    twists = (0, 1, 2)
    for N in (3, 4):
        mu = (p - 1,) * N
        for degree in range(1, 5):
            sub = graded._substitution_matrix(
                RingContext(N - 1, p), SplitSheaf(twists), degree, np.ones(N + 1, dtype=np.int64)
            )
            index = {key: j for j, key in enumerate(_lex_columns(N, degree, twists))}
            expect = []
            for bi, e in _lex_columns(N + 1, degree, twists):
                row = [0] * len(index)
                for f, c in substitute_last_variable({e: 1}, mu, p).items():
                    row[index[(bi, f[:N])]] = c
                expect.append(row)
            assert sub.tolist() == expect, (N, degree)


def test_restriction_degree_one_bound_is_exact():
    ctx = RingContext(3, P)
    rng = np.random.default_rng(3)
    v = random_subspace(ctx, SplitSheaf((0,)), 1, rng, dim=2)
    res = restrict_to_hyperplane(v, seed=2)
    assert res.bound == v.codim - 1
    assert res.codim_h <= v.codim - 1


def test_restriction_edges():
    ctx = RingContext(2, P)
    # (codim, codim_h, codim_preimage, dim V^H)
    cases = [
        (zero_subspace(ctx, SplitSheaf((0,)), 2), (6, 3, 3, 0)),
        (full_space(ctx, SplitSheaf((0,)), 2), (0, 0, 0, 3)),
        (zero_subspace(ctx, SplitSheaf((0, 1)), 1), (9, 5, 4, 0)),
    ]
    for v, expect in cases:
        res = restrict_to_hyperplane(v, seed=1)
        assert (res.codim, res.codim_h, res.codim_preimage, res.v_preimage.dim) == expect
        assert res.additivity_holds and res.restriction_bound_holds
    # P^1 onto the point P^0 at p = 2: H = {x_1 = 0}, so V_H = S_{H,3} and
    # V^H = {f : x_1 f in V} = span{x_0^2, x_0 x_1}
    res = restrict_to_hyperplane(lex_segment_subspace(1, 3, RingContext(1, 2)), seed=1)
    assert (res.codim, res.codim_h, res.codim_preimage, res.linear_form) == (1, 0, 1, (0, 1))
    assert res.v_h.basis.tolist() == [[1]]
    assert res.v_preimage.basis.tolist() == [[1, 0, 0], [0, 1, 0]]
    res = restrict_to_hyperplane(zero_subspace(RingContext(1, 2), SplitSheaf((0, 1)), 2), seed=1)
    assert (res.codim, res.codim_h, res.codim_preimage) == (7, 2, 5)


def test_restriction_preconditions():
    ctx0 = RingContext(0, P)
    with pytest.raises(ValueError):
        restrict_to_hyperplane(full_space(ctx0, SplitSheaf((0,)), 2), seed=0)
    ctx = RingContext(2, P)
    with pytest.raises(ValueError):
        restrict_to_hyperplane(full_space(ctx, SplitSheaf((0,)), 0), seed=0)
    with pytest.raises(ValueError):
        restrict_to_hyperplane(full_space(ctx, SplitSheaf((-2,)), 3), seed=0)


def test_restriction_redraws_a_missed_bound_up_to_the_cap(monkeypatch):
    # a bound no hyperplane meets: every draw is redrawn until the cap
    monkeypatch.setattr(graded, "lower_macaulay", lambda c, d: -1)
    seen = []
    real = graded._restrict_once

    def spy(v, lam):
        res = real(v, lam)
        seen.append(res.codim_h)
        return res

    monkeypatch.setattr(graded, "_restrict_once", spy)
    v = lex_segment_subspace(5, 2, RingContext(3, P))
    with pytest.raises(GenericityError) as info:
        restrict_to_hyperplane(v, seed=1)
    assert len(seen) == RETRY_CAP
    assert f"smallest codim_h = {min(seen)} " in str(info.value)


def test_restriction_raises_at_once_when_additivity_fails(monkeypatch):
    # a wrong multiplication map breaks the identity for every hyperplane
    calls = []

    def zero_map(v):
        calls.append(v)  # one preimage build per draw
        n_src = section_dim(v.sheaf, v.degree - 1, v.context)
        return np.zeros((v.codim, n_src, v.context.N + 1), dtype=np.int64)

    monkeypatch.setattr(graded, "_contractions", zero_map)
    v = lex_segment_subspace(5, 2, RingContext(3, P))
    with pytest.raises(AdditivityError, match="codim V != codim V"):
        restrict_to_hyperplane(v, seed=1)
    assert len(calls) == 1


def test_annihilator_route_raises_at_once_when_its_check_fails(monkeypatch):
    # codim 1 in S_4 on P^3 takes the annihilator route, where the count
    # holds by rank-nullity: the check V (sub Phi^T) = 0 must catch the map
    ctx = RingContext(3, P)
    sheaf = SplitSheaf((0,))
    n = section_dim(sheaf, 4, ctx)
    for v in (
        lex_segment_subspace(1, 4, ctx),
        random_subspace(ctx, sheaf, 4, np.random.default_rng(4), dim=n - 1),
    ):
        assert v.codim == 1 and graded._restricts_by_annihilator(v)
        assert restrict_to_hyperplane(v, seed=1).additivity_holds
        calls = []

        def zero_map(v):
            calls.append(v)
            n_src = section_dim(v.sheaf, v.degree - 1, v.context)
            return np.zeros((v.codim, n_src, v.context.N + 1), dtype=np.int64)

        with monkeypatch.context() as m:
            m.setattr(graded, "_contractions", zero_map)
            with pytest.raises(AdditivityError, match="codim V != codim V"):
                restrict_to_hyperplane(v, seed=1)
        assert len(calls) == 1


def test_restriction_routes_give_the_same_bases(monkeypatch):
    # each subspace restricted by both routes, forced, at small and large primes
    real = graded._restricts_by_annihilator
    shapes = itertools.product((2, 3, 101, 2147483647), (1, 2, 3), ((0,), (0, 1)), (1, 2, 3))
    taken = set()
    for p, N, twists, degree in shapes:
        ctx = RingContext(N, p)
        sheaf = SplitSheaf(twists)
        n = section_dim(sheaf, degree, ctx)
        rng = np.random.default_rng((p % 97, N, degree))
        for dim in sorted({0, 1, n // 2, n - 2, n - 1, n} & set(range(n + 1))):
            v = random_subspace(ctx, sheaf, degree, rng, dim=dim)
            lam = rng.integers(0, p, size=N + 1)
            lam[N] = rng.integers(1, p)
            taken.add(real(v))
            results = []
            for route in (True, False):
                monkeypatch.setattr(graded, "_restricts_by_annihilator", lambda v, r=route: r)
                results.append(graded._restrict_once(v, lam))
            a, b = results
            where = (p, N, twists, degree, dim)
            assert a.additivity_holds and b.additivity_holds, where
            assert np.array_equal(a.v_h.basis, b.v_h.basis), where
            assert np.array_equal(a.v_preimage.basis, b.v_preimage.basis), where
    assert taken == {True, False}


def test_restriction_suite_families_take_both_routes():
    # the seeded draws of `verify restriction` at the default seed
    from nlgotz import verify

    routes = {}
    for t in range(2 * len(verify._FAMILIES)):
        N, twists, d = verify._FAMILIES[t % len(verify._FAMILIES)]
        rng = verify.trial_rng(verify.DEFAULT_SEED, "restriction", t)
        v = random_subspace(RingContext(N, P), SplitSheaf(twists), d, rng)
        routes.setdefault(graded._restricts_by_annihilator(v), []).append((N, twists, d))
    assert set(routes) == {True, False}
    assert len(routes[True]) >= 5 and len(routes[False]) >= 5


def _spy_kernel(monkeypatch, calls):
    """Log each `modp._eliminate` and `modp._dot` call as ("elim", a) or ("dot", a, b) copies."""
    real_eliminate, real_dot = modp._eliminate, modp._dot

    def eliminate(a, p):
        calls.append(("elim", a.copy()))
        return real_eliminate(a, p)

    def dot(a, b, p):
        calls.append(("dot", np.array(a), np.array(b)))
        return real_dot(a, b, p)

    monkeypatch.setattr(modp, "_eliminate", eliminate)
    monkeypatch.setattr(modp, "_dot", dot)


def test_bases_born_reduced_are_not_eliminated(monkeypatch):
    # identity rows and kernels from `nullspace` are already canonical RREF
    # bases: they are taken as they are, and equal what the public
    # constructor gives
    calls = []
    ctx = RingContext(3, P)
    sheaf = SplitSheaf((0, 1))
    n = section_dim(sheaf, 2, ctx)
    built = []
    routes = set()
    with monkeypatch.context() as m:
        _spy_kernel(m, calls)
        for c in (0, 1, 7, 20):
            built.append(lex_segment_subspace(c, 3, ctx))
        built += [full_space(ctx, sheaf, 2), zero_subspace(ctx, sheaf, 2)]
        assert calls == []
        for dim in (n - 1, n // 2):
            v = random_subspace(ctx, sheaf, 2, np.random.default_rng(dim), dim=dim)
            routes.add(graded._restricts_by_annihilator(v))
            del calls[:]
            res = restrict_to_hyperplane(v, seed=3)
            # every matrix here has at most 64 rows, so each reduction of a
            # matrix with rows is one `_eliminate`: one for V^H (with A on the
            # annihilator route), one for V_H unless its matrix is empty, and
            # no basis is eliminated a second time
            elims = [call[1] for call in calls if call[0] == "elim"]
            assert res.attempts <= len(elims) <= 2 * res.attempts
            kernels = [res.v_preimage.basis]
            if graded._restricts_by_annihilator(v):
                kernels.append(res.v_h.basis)
            assert not any(np.array_equal(e, k) for e in elims for k in kernels)
            built += [res.v_preimage, res.v_h]
    assert routes == {True, False}
    for v in built:
        want = GradedSubspace(v.context, v.sheaf, v.degree, v.basis.copy())
        assert np.array_equal(v.basis, want.basis) and not v.basis.flags.writeable


def test_multiplication_stacks_are_reduced_below_x0_times_the_basis(monkeypatch):
    # dim V = 70: x_0 * B alone is past one 64-row block, so a kernel that
    # started from the top would eliminate a block of it first
    ctx = RingContext(2, P)
    sheaf = SplitSheaf((0,))
    v = random_subspace(ctx, sheaf, 12, np.random.default_rng(12), dim=70)
    stack = graded._shifted_rows(v, 1)
    top = {tuple(row) for row in stack[: v.dim]}
    calls = []
    with monkeypatch.context() as m:
        _spy_kernel(m, calls)
        w = multiply(v, 1)
    # the first step reduces the block below x_0 * B against it
    kind, below, basis_rows = calls[0]
    assert kind == "dot" and len(below) <= 64
    assert {tuple(row) for row in basis_rows} <= top
    assert np.array_equal(w.basis, GradedSubspace(ctx, sheaf, 13, stack).basis)


@pytest.mark.parametrize("p", (2, 101))
def test_x0_times_a_basis_is_its_own_rref(p):
    # `_times_linear_forms` states x_0 * B, the first block of the stack, as
    # reduced, which must hold on every split sheaf, negative twists included
    rng = np.random.default_rng(p)
    for twists in ((0,), (0, 1), (1, 0, 2), (-1, 0, 2)):
        sheaf = SplitSheaf(twists)
        for N in range(4):
            ctx = RingContext(N, p)
            for d in range(4):
                n = section_dim(sheaf, d, ctx)
                for dim in {n, n // 2, int(rng.integers(0, n + 1))}:
                    v = random_subspace(ctx, sheaf, d, rng, dim=dim)
                    head = graded._shifted_rows(v, 1)[: v.dim]
                    assert np.array_equal(head, modp.row_space(head, p)), (twists, N, d, dim)


def test_basepoint_free_verdicts():
    ctx = RingContext(2, P)
    sheaf = SplitSheaf((0,))
    assert is_basepoint_free(full_space(ctx, sheaf, 2)) == "free"
    assert is_basepoint_free(zero_subspace(ctx, sheaf, 2)) == "not_free"
    # x0 * S_1 vanishes along the line x0 = 0
    idx = monomial_index(3, 2)
    rows = np.zeros((3, 6), dtype=np.int64)
    for i, e in enumerate([(2, 0, 0), (1, 1, 0), (1, 0, 1)]):
        rows[i, idx[e]] = 1
    assert is_basepoint_free(subspace_from_rows(ctx, sheaf, 2, rows)) == "not_free"
    # the three squares saturate at the second multiplication step
    assert is_basepoint_free(_squares(ctx)) == "free"
    # dropping the least monomial of the conics leaves the base point (0:0:1)
    assert is_basepoint_free(lex_segment_subspace(1, 2, ctx)) == "not_free"


def test_chart_values_match_direct_evaluation():
    # cubics on P^3 (a twisted quadric system), at every point of every
    # chart; at p = 3 the exponents fold, since a^3 = a on F_3
    for p in (3, 13):
        ctx = RingContext(3, p)
        v = random_subspace(ctx, SplitSheaf((1,)), 2, np.random.default_rng(9), dim=6)
        mons = monomials(4, 3)
        width = min(4, p)
        for lead in range(4):
            k = 3 - lead
            points = [(0,) * lead + (1,) + a for a in itertools.product(range(p), repeat=k)]
            want = [[form_value(mons, row, x, p) for x in points] for row in v.basis]
            keys, coef = graded._chart_forms(v.basis, graded.exponent_table(4, 3), lead, width, p)
            for first in (np.arange(p), np.arange(1, p)):
                # a slab of a_1 values gives the matching slice of the grid
                skip = (p - first.size) * p ** max(k - 1, 0) if k else 0
                got = [graded._grid_values(keys, row, k, width, p, first) for row in coef]
                assert [g.tolist() for g in got] == [row[skip:] for row in want]
            idx = np.arange(p**k, dtype=np.int64)
            assert graded._point_values(keys, coef, k, width, p, idx).tolist() == want


def _vanishing_on_rational_points(N, p):
    """Coefficient row of x0^p x1 - x0 x1^p, zero at every point of P^N(F_p)."""
    idx = monomial_index(N + 1, p + 1)
    row = np.zeros(len(idx), dtype=np.int64)
    row[idx[(p, 1) + (0,) * (N - 1)]] = 1
    row[idx[(1, p) + (0,) * (N - 1)]] = p - 1
    return row


@pytest.mark.parametrize("N", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_basepoint_scan_matches_brute_force(p, N):
    ctx = RingContext(N, p)
    sheaf = SplitSheaf((0,))
    rng = np.random.default_rng(100 * p + N)
    seen = set()
    for d in range(1, p + 2):
        mons = monomials(N + 1, d)
        n = len(mons)
        systems = [rng.integers(0, p, size=(r, n)) for r in range(1, N + 2)]
        # a base point planted on each chart, the last one being [0 : ... : 0 : 1]
        for lead in range(N + 1):
            point = (0,) * lead + (1,) + tuple(int(a) for a in rng.integers(0, p, size=N - lead))
            rows = rng.integers(0, p, size=(N + 1, n))
            rows[:, mons.index(tuple(d * x for x in unit_exponent(N + 1, lead)))] -= [
                form_value(mons, row, point, p) for row in rows
            ]
            systems.append(rows % p)
        # divisible by x0: every form is zero on every chart past the first
        systems.append(rng.integers(0, p, size=(N + 1, n)) * [e[0] > 0 for e in mons])
        if N >= 1 and d == p + 1:
            # zero at every rational point, but not as a polynomial
            vanish = _vanishing_on_rational_points(N, p)
            systems.append(vanish[None, :])
            tail = rng.integers(0, p, size=n) * [e[0] < d - 1 for e in mons]
            systems.append(np.stack([vanish, tail]))
        for rows in systems:
            v = subspace_from_rows(ctx, sheaf, d, rows)
            got = is_basepoint_free(v, t_max=1)
            if rational_common_zero(mons, rows.tolist(), p, N) is not None:
                assert got == "not_free", (d, rows.tolist())
            elif len(rows) <= N:
                # N forms or fewer share a zero over the algebraic closure
                assert got == "inconclusive", (d, rows.tolist())
            else:
                assert got in ("free", "inconclusive"), (d, rows.tolist())
            seen.add(got)
    assert "not_free" in seen


def test_basepoint_scan_on_a_million_points():
    # P^1(F_p) at p = 1,000,003 has p + 1 points, under the default scan_limit
    p = 1_000_003
    ctx = RingContext(1, p)
    sheaf = SplitSheaf((0,))
    idx = monomial_index(2, 2)

    def quadric(a, b, c):  # a x0^2 + b x0 x1 + c x1^2
        row = np.zeros(3, dtype=np.int64)
        row[[idx[(2, 0)], idx[(1, 1)], idx[(0, 2)]]] = a, b, c
        return subspace_from_rows(ctx, sheaf, 2, row[None, :] % p)

    # (x1 - a x0)^2 for a = p - 1: the only base point is the last grid point of the chart x0 = 1
    a = p - 1
    assert is_basepoint_free(quadric(a * a, -2 * a, 1)) == "not_free"
    # x1^2 - n x0^2 for a non-residue n has no rational zero
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    assert is_basepoint_free(quadric(-n, 0, 1)) == "inconclusive"


def test_basepoint_free_edges():
    # H^0(O(-2)) = 0: no sections, so every point is a base point
    ctx = RingContext(2)
    for v in (zero_subspace(ctx, SplitSheaf((-3,)), 1), full_space(ctx, SplitSheaf((-3,)), 1)):
        assert (v.dim, v.codim) == (0, 0)
        assert is_basepoint_free(v) == "not_free"
    # the full space saturates before any multiplication
    v = full_space(RingContext(2, 5), SplitSheaf((0,)), 1)
    assert is_basepoint_free(v, t_max=0) == "free"
    assert is_basepoint_free(_squares(RingContext(2, 5)), t_max=0) == "inconclusive"
    for kwargs in ({"t_max": -1}, {"scan_limit": -5}, {"t_max": -1, "scan_limit": -5}):
        with pytest.raises(ValueError, match="nonnegative"):
            is_basepoint_free(v, **kwargs)


def test_basepoint_free_inconclusive_paths():
    ctx = RingContext(2, P)
    squares = _squares(ctx)
    # saturation needs two steps; with one step and no rational zero the
    # scan cannot settle it (a base point could hide in an extension field)
    assert is_basepoint_free(squares, t_max=1) == "inconclusive"
    assert is_basepoint_free(squares, t_max=1, scan_limit=10) == "inconclusive"
    with pytest.raises(ValueError):
        is_basepoint_free(full_space(ctx, SplitSheaf((0, 1)), 2))


def test_koszul_surjectivity_strand():
    ctx = RingContext(2, P)
    squares = _squares(ctx)
    res = koszul_middle_exact(squares, 5, 0)
    assert res.exact and res.hypothesis_met
    assert res.rank_in == res.middle_dim == dim_degree(3, 5) == 21
    # below the certified range the map can still be onto, but at k = 2 the
    # image is V itself, a strict subspace
    res = koszul_middle_exact(squares, 2, 0)
    assert not res.hypothesis_met
    assert not res.exact
    assert res.rank_in == 3 and res.middle_dim == 6


def test_koszul_middle_strand_frozen():
    ctx = RingContext(2, P)
    res = koszul_middle_exact(_squares(ctx), 6, 1)
    assert res.exact and res.hypothesis_met
    assert (res.middle_dim, res.rank_out, res.rank_in) == (84, 45, 39)


def _koszul_oracle_ranks(v, k, p_index):
    """(rank_in, rank_out) of one Koszul strand, from dict polynomials.

    A vector of Wedge^q V x S_t is a dict {(q-subset, exponent): coefficient};
    the differential sends e_I x f to the sum over s of
    (-1)^s e_{I - i_s} x v_{i_s} f, so Wedge^0 V x S_t maps to zero.
    """
    nv = v.context.N + 1
    d_form = v.degree + v.sheaf.twists[0]
    basis = [vec[0] for vec in _as_dict_vectors(v)]

    def differential(q, t):
        images = []
        for subset in itertools.combinations(range(len(basis)), q):
            for f in monomials(nv, t):
                image = {}
                for s, i in enumerate(subset):
                    face = subset[:s] + subset[s + 1 :]
                    for e, c in basis[i].items():
                        key = (face, tuple(a + b for a, b in zip(e, f)))
                        image[key] = (image.get(key, 0) + (-1) ** s * c) % P
                images.append((image,))
        return vectors_rank(images, P)

    return differential(p_index + 1, k - d_form), differential(p_index, k)


def test_koszul_middle_strand_against_dict_oracle():
    ctx = RingContext(2, P)
    v = full_space(ctx, SplitSheaf((0,)), 1)
    res = koszul_middle_exact(v, 2, 1)
    assert res.exact and res.hypothesis_met
    assert (res.middle_dim, res.rank_out, res.rank_in) == (18, 10, 8)
    # the twisted case: forms of degree D = 2 from O(1) at degree 1, so the
    # column maps start at degree 1 while the strand is graded by D
    twisted = full_space(ctx, SplitSheaf((1,)), 1)
    squares = _squares(ctx)
    checked = []
    for w, k in ((v, 2), (twisted, 3), (twisted, 4), (squares, 4), (squares, 6)):
        for p_index in range(w.dim + 1):
            try:
                res = koszul_middle_exact(w, k, p_index)
            except BudgetExceededError:
                # the default budget admits every strand at p = 0, 1
                assert p_index >= 2
                continue
            assert res.form_degree == w.degree + w.sheaf.twists[0]
            assert (res.rank_in, res.rank_out) == _koszul_oracle_ranks(w, k, p_index)
            checked.append((w.dim, k, p_index))
    # p = 0..dim V, less the 7 strands at p >= 2 that exceed the budget
    assert len(checked) == 20


def test_koszul_guards():
    ctx = RingContext(2, P)
    squares = _squares(ctx)
    with pytest.raises(ValueError):
        koszul_middle_exact(squares, 5, -1)
    # a zero middle term checks nothing: S_k = 0 for k < 0, Wedge^4 V = 0 for dim V = 3
    for k, p_index in ((-1, 0), (-3, 1), (6, 4)):
        with pytest.raises(ValueError, match="checks nothing"):
            koszul_middle_exact(squares, k, p_index)
    with pytest.raises(BudgetExceededError):
        koszul_middle_exact(squares, 6, 1, entry_budget=100)
    idx = monomial_index(3, 2)
    rows = np.zeros((3, 6), dtype=np.int64)
    for i, e in enumerate([(2, 0, 0), (1, 1, 0), (1, 0, 1)]):
        rows[i, idx[e]] = 1
    not_free = subspace_from_rows(ctx, SplitSheaf((0,)), 2, rows)
    with pytest.raises(CertificationError):
        koszul_middle_exact(not_free, 5, 0)


def test_random_subspace_bounds():
    ctx = RingContext(2, P)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_subspace(ctx, SplitSheaf((0,)), 2, rng, dim=7)
    v = random_subspace(ctx, SplitSheaf((0,)), 2, rng, dim=0)
    assert v.dim == 0


def test_random_subspace_is_seed_deterministic():
    ctx = RingContext(3, P)
    sheaf = SplitSheaf((0, 1))
    a = random_subspace(ctx, sheaf, 2, np.random.default_rng(123))
    b = random_subspace(ctx, sheaf, 2, np.random.default_rng(123))
    assert a.basis.tolist() == b.basis.tolist()
