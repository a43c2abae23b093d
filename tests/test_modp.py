"""Prime-field linear algebra against sympy's exact arithmetic."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlgotz import modp

from oracles import gfp_nullspace, gfp_rank, gfp_rref

# 2147483647 fits no float64 product ((p - 1)**2 > 2**53), so it is
# eliminated column by column at every size
PRIMES = (2, 3, 7, 101, 32003, 2147483647)


def _random_matrices():
    rng = np.random.default_rng(20260814)
    shapes = [(1, 1), (3, 5), (5, 3), (8, 8), (12, 20), (20, 12), (16, 16)]
    for p in PRIMES:
        for shape in shapes:
            yield p, rng.integers(0, p, size=shape).astype(np.int64)
        # singular by construction: duplicated and scaled rows
        base = rng.integers(0, p, size=(4, 9)).astype(np.int64)
        stacked = np.vstack([base, base * 2 % p, base[::-1]])
        yield p, stacked
        # past one block of the elimination (64 rows): dense square, tall
        # with 1.5% nonzeros, and rank-deficient stacked
        yield p, rng.integers(0, p, size=(100, 100)).astype(np.int64)
        sparse = rng.integers(1, p, size=(300, 120)) * (rng.random((300, 120)) < 0.015)
        yield p, sparse.astype(np.int64)
        base = rng.integers(0, p, size=(40, 60)).astype(np.int64)
        yield p, np.vstack([base, base[::-1] * 3 % p, (base[:20] + base[20:]) % p, base])


def test_rank_matches_sympy():
    for p, mat in _random_matrices():
        assert modp.rank_of(mat, p) == gfp_rank(mat.tolist(), p), (p, mat)


def test_rref_is_canonical_under_row_shuffles():
    rng = np.random.default_rng(7)
    for p, mat in _random_matrices():
        basis = modp.row_space(mat, p)
        shuffled = mat[rng.permutation(mat.shape[0])]
        mixed = modp.row_space(shuffled, p)
        assert np.array_equal(basis, mixed)
        # idempotent
        assert np.array_equal(modp.row_space(basis, p), basis)


# the least prime with 99 * (p - 1)**2 < 2**53 <= 100 * (p - 1)**2: past one
# 64-row block, rref eliminates it in float64 blocks while min(m, n) <= 99
# and column by column from min(m, n) = 100 on
SWITCH_PRIME = 9490631


@settings(max_examples=60)
@given(
    p=st.sampled_from((2, SWITCH_PRIME, 2147483647)),
    m=st.integers(1, 140),
    n=st.one_of(st.integers(1, 99), st.integers(100, 140)),
    # low ranks leave blocks whose residual is zero, and sparse rows leave
    # pivots for later blocks to find left of the earlier ones
    rank=st.one_of(st.integers(0, 140), st.integers(0, 20)),
    density=st.sampled_from((1.0, 0.03)),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=SWITCH_PRIME, m=130, n=99, rank=140, density=1.0, seed=0)
@example(p=SWITCH_PRIME, m=130, n=100, rank=140, density=1.0, seed=0)
@example(p=SWITCH_PRIME, m=140, n=90, rank=30, density=0.03, seed=1)
@example(p=2, m=64, n=90, rank=140, density=1.0, seed=2)
@example(p=2, m=130, n=90, rank=50, density=0.03, seed=3)
def test_rref_matches_column_elimination_and_is_canonical(p, m, n, rank, density, seed):
    # `_eliminate` is the kernel that also finishes each block, so this is a
    # cross-check of the blocked path against the column path, not an
    # independent oracle (see test_rref_matches_sympy_across_the_lazy_window).
    # A product through an inner dimension of min(rank, m, n) has at most that rank.
    rng = np.random.default_rng(seed)
    k = min(rank, m, n)
    mat = modp.matmul_mod(rng.integers(0, p, size=(m, k)), rng.integers(0, p, size=(k, n)), p)
    mat *= rng.random(mat.shape) < density
    reduced, r = modp.rref(mat, p)
    by_column = mat.copy()
    assert r == modp._eliminate(by_column, p)
    assert np.array_equal(reduced, by_column)
    assert np.array_equal(modp.rref(reduced, p)[0], reduced)
    assert np.array_equal(modp.rref(mat[rng.permutation(m)], p)[0], reduced)


# residual blocks wider than twice their rows are eliminated by panels
PANEL_PRIMES = (2, 3, 101, SWITCH_PRIME)


def _panel_matrix(rng, p, m, w, b, panel_rank, rank, density=1.0):
    """m x w: rank <= panel_rank on the first b columns, rank <= `rank` on the rest."""

    def low_rank(rows, cols, k):
        left = rng.integers(0, p, size=(rows, k)).astype(object)
        return (left @ rng.integers(0, p, size=(k, cols)) % p).astype(np.int64)

    mat = np.hstack([low_rank(m, b, panel_rank), low_rank(m, w - b, rank)])
    return mat * (rng.random(mat.shape) < density)


def _spy_on_panels(mp):
    """Record the shape of every block `_eliminate_panels` is given."""
    shapes = []
    inner = modp._eliminate_panels

    def spy(a, p):
        shapes.append(a.shape)
        return inner(a, p)

    mp.setattr(modp, "_eliminate_panels", spy)
    return shapes


@settings(max_examples=60)
@given(
    p=st.sampled_from(PANEL_PRIMES),
    b=st.integers(1, 64),
    w=st.integers(129, 460),
    # a zero first panel, a few panel pivots, or up to one per row
    panel_rank=st.one_of(st.just(0), st.integers(1, 4), st.integers(0, 64)),
    rank=st.integers(0, 64),
    density=st.sampled_from((1.0, 0.05)),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=SWITCH_PRIME, b=64, w=460, panel_rank=0, rank=64, density=1.0, seed=0)
@example(p=2, b=64, w=460, panel_rank=63, rank=64, density=1.0, seed=1)
@example(p=101, b=64, w=129, panel_rank=64, rank=64, density=1.0, seed=2)
@example(p=3, b=1, w=129, panel_rank=0, rank=1, density=1.0, seed=3)
def test_panel_elimination_matches_column_elimination(p, b, w, panel_rank, rank, density, seed):
    # `w` > 2 b, so every call takes the panel path at least once
    rng = np.random.default_rng(seed)
    mat = _panel_matrix(rng, p, b, w, b, min(panel_rank, b), min(rank, b), density)
    by_column = mat.copy()
    by_panel = mat.copy()
    assert modp._eliminate_panels(by_panel, p) == modp._eliminate(by_column, p)
    assert np.array_equal(by_panel, by_column)


def test_panel_elimination_matches_sympy():
    rng = np.random.default_rng(20261019)
    # (rows, width, panel width, panel rank, trailing rank): a zero first
    # panel, panel ranks below the row count, and widths up to 460
    shapes = [(64, 460, 64, 0, 6), (64, 300, 64, 3, 5), (20, 460, 20, 0, 4), (30, 200, 30, 7, 8)]
    for p in PANEL_PRIMES:
        for b, w, pw, pr, tr in shapes:
            mat = _panel_matrix(rng, p, b, w, pw, pr, tr)
            panel = mat.copy()
            r = modp._eliminate_panels(panel, p)
            want = gfp_rref(mat.tolist(), p)
            assert r == len(want) and panel[:r].tolist() == want, (p, b, w)
            assert not panel[r:].any()


def test_rref_eliminates_wide_residuals_by_panels():
    rng = np.random.default_rng(20261020)
    # past one block; low ranks on the first columns leave later blocks'
    # residuals with rows whose first panel vanishes.  At SWITCH_PRIME the
    # blocked path needs min(m, n) <= 99, so three blocks come only below it
    cases = [(80, 460, 40, 2, 6), (99, 300, 70, 0, 5)]
    for p in PANEL_PRIMES:
        for m, n, pw, pr, tr in cases + [(130, 200, 64, 3, 4)] * (p < SWITCH_PRIME):
            mat = _panel_matrix(rng, p, m, n, pw, pr, tr)
            with pytest.MonkeyPatch.context() as mp:
                shapes = _spy_on_panels(mp)
                reduced, r = modp.rref(mat, p)
            assert any(w > 2 * b for b, w in shapes), (p, m, n, shapes)
            by_column = mat.copy()
            assert r == modp._eliminate(by_column, p)
            assert np.array_equal(reduced, by_column)
            assert reduced[:r].tolist() == gfp_rref(mat.tolist(), p), (p, m, n)


# The steps `_eliminate` may leave unreduced: about 4.5e14 at 101 (and more
# at 2), 3 at 1073741827 and 1 at 2147483647, where it reduces the updated
# rows at every step.
LAZY_PRIMES = (2, 101, 1073741827, 2147483647)


def test_lazy_window():
    assert [modp._lazy_window(p) for p in LAZY_PRIMES[2:]] == [3, 1]
    assert modp._lazy_window(101) == (2**62 - 101) // 100**2


def test_rref_matches_sympy_across_the_lazy_window():
    rng = np.random.default_rng(20261018)
    # each side of the 64-row block, tall and wide; rank k = min(m, n) - 4
    # leaves non-pivot columns for a wrong step to show in, and is more
    # pivots than the window at the two large primes
    shapes = [(8, 6), (12, 40), (40, 40), (64, 40), (65, 40), (70, 40)]
    for p in LAZY_PRIMES:
        for m, n in shapes:
            k = min(m, n) - 4
            left = rng.integers(0, p, size=(m, k)).astype(object)
            low_rank = (left @ rng.integers(0, p, size=(k, n)) % p).astype(np.int64)
            top = np.full((m, n), p - 1, dtype=np.int64)
            # L U with -1 below the unit diagonal of L and above that of U:
            # step j pivots on U[j], whose entries past j are p - 1, with
            # multiplier p - 1 in every row below, so every entry there
            # falls by the largest product, (p - 1)**2, at every step
            lower = np.tril(np.full((m, k), -1), -1) + np.eye(m, k, dtype=np.int64)
            upper = np.triu(np.full((k, n), -1), 1) + np.eye(k, n, dtype=np.int64)
            worst = lower @ upper % p
            for mat in (rng.integers(0, p, size=(m, n)), low_rank, top, worst):
                want = gfp_rref(mat.tolist(), p)
                assert modp.row_space(mat, p).tolist() == want, (p, m, n)


def _random_rref(rng, k, n, p):
    """A k-row RREF basis of F_p^n with pivots spread over the columns."""
    piv = np.sort(rng.choice(n, size=k, replace=False))
    basis = rng.integers(0, p, size=(k, n)) * (np.arange(n) > piv[:, None])
    basis[:, piv] = 0
    basis[np.arange(k), piv] = 1
    return basis.astype(np.int64)


def test_rref_inplace_takes_the_stated_reduced_rows():
    # the rows a caller states as reduced are the basis found so far: the
    # result is still the canonical RREF, whatever lies below them
    rng = np.random.default_rng(99)
    for p in (2, 101):
        basis = _random_rref(rng, 30, 40, p)
        rest = rng.integers(0, p, size=(40, 40))
        mat = np.vstack([basis, rest])
        for k in (0, 5, 30):
            a = mat.copy()
            r = modp._rref_inplace(a, p, reduced=k)
            assert a[:r].tolist() == gfp_rref(mat.tolist(), p), (p, k)
            assert not a[r:].any()
    # a run that ends at row 90, inside the second 64-row block
    basis = _random_rref(rng, 90, 120, 2)
    mat = np.vstack([basis, rng.integers(0, 2, size=(50, 120))])
    a = mat.copy()
    r = modp._rref_inplace(a, 2, reduced=90)
    assert a[:r].tolist() == gfp_rref(mat.tolist(), 2)
    # all rows reduced: returned at once, `a` untouched (it cannot be written)
    basis = _random_rref(rng, 70, 100, 101)
    basis.setflags(write=False)
    assert modp._rref_inplace(basis, 101, reduced=70) == 70
    assert basis.tolist() == gfp_rref(basis.tolist(), 101)


def _caller_arrays(p):
    """Reduced int64 matrices as a caller may hold them: C-contiguous, read-only, strided."""
    rng = np.random.default_rng(31)
    for shape in ((12, 20), (150, 130)):
        mat = rng.integers(0, p, size=shape).astype(np.int64)
        mat[::3] = mat[1::3]  # rank-deficient, so nullspaces are not empty
        frozen = mat.copy()
        frozen.setflags(write=False)
        yield mat
        yield frozen
        yield np.asfortranarray(mat)
        yield mat[::2, ::-1]
        yield frozen.T


def test_public_calls_never_write_to_the_callers_array():
    for p in (2, 101, 2147483647):
        for mat in _caller_arrays(p):
            before = mat.copy()
            outs = [
                modp.rref(mat, p)[0],
                modp.row_space(mat, p),
                modp.nullspace(mat, p),
                modp.nullspace(mat.T, p),
                modp.matmul_mod(mat, np.ascontiguousarray(mat.T), p),
            ]
            assert modp.rank_of(mat, p) == outs[1].shape[0]
            assert np.array_equal(mat, before), (p, mat.shape, mat.flags)
            assert not any(np.shares_memory(out, mat) for out in outs)


def test_rref_pivot_structure():
    for p, mat in _random_matrices():
        basis = modp.row_space(mat, p)
        piv = modp.pivot_columns(basis)
        assert np.all(np.diff(piv) > 0) or piv.size <= 1
        for i, c in enumerate(piv):
            col = basis[:, c]
            assert col[i] == 1
            assert np.count_nonzero(col) == 1


def test_nullspace_is_the_kernel():
    for p, mat in _random_matrices():
        ns = modp.nullspace(mat, p)
        assert ns.shape[0] == mat.shape[1] - modp.rank_of(mat, p)
        if ns.shape[0]:
            prod = modp.matmul_mod(mat % p, np.ascontiguousarray(ns.T), p)
            assert not np.any(prod)
            assert modp.rank_of(ns, p) == ns.shape[0]


def test_left_nullspace_annihilates():
    # the left nullspace {w : w @ mat = 0} is the nullspace of the transpose
    for p, mat in _random_matrices():
        ln = modp.nullspace(mat.T, p)
        assert ln.shape[0] == mat.shape[0] - modp.rank_of(mat, p)
        if ln.shape[0]:
            prod = modp.matmul_mod(ln, mat % p, p)
            assert not np.any(prod)


def test_nullspaces_are_the_rref_of_the_sympy_kernel():
    rng = np.random.default_rng(11)
    cases = [(p, mat) for p, mat in _random_matrices() if mat.shape[1] <= 20]
    for p in PRIMES:
        # more than one block of rows and no columns, or the transpose
        shapes = ((0, 4), (3, 0), (0, 0), (3, 5), (65, 0), (200, 0), (0, 65))
        cases += [(p, np.zeros(shape, dtype=np.int64)) for shape in shapes]
        # invertible: unit lower times unit upper triangular
        low = np.tril(rng.integers(0, p, size=(6, 6)), -1) + np.eye(6, dtype=np.int64)
        cases.append((p, modp.matmul_mod(low, low.T, p)))
    for p, mat in cases:
        m, n = mat.shape
        kernel = modp.nullspace(mat, p)
        assert kernel.shape == (len(kernel), n)
        assert kernel.tolist() == gfp_rref(gfp_nullspace(mat.tolist(), n, p), p), (p, mat)
        left = modp.nullspace(mat.T, p)
        assert left.shape == (len(left), m)
        assert left.tolist() == gfp_rref(gfp_nullspace(mat.T.tolist(), m, p), p), (p, mat)


def test_kernels_by_one_elimination():
    # the kernel is `nullspace`'s, and the left kernel a basis of {y : y mat = 0}
    cases = list(_random_matrices())
    for shape in ((0, 4), (3, 0), (70, 5)):
        cases += [(p, np.zeros(shape, dtype=np.int64)) for p in PRIMES]
    for p, mat in cases:
        mat = mat % p
        kernel, left = modp._kernels(mat, p)
        assert np.array_equal(kernel, modp.nullspace(mat, p)), (p, mat.shape)
        assert left.shape == (mat.shape[0] - modp.rank_of(mat, p), mat.shape[0])
        assert modp.rank_of(left, p) == len(left)
        if len(left) and mat.shape[1]:
            assert not modp.matmul_mod(left, mat, p).any()


def test_span_membership_by_rank():
    # a vector lies in the span exactly when stacking it on the basis
    # leaves the rank unchanged
    rng = np.random.default_rng(5)
    p = 101
    mat = rng.integers(0, p, size=(4, 10)).astype(np.int64)
    basis = modp.row_space(mat, p)
    combos = modp.matmul_mod(rng.integers(0, p, size=(6, 4)).astype(np.int64), mat, p)
    for row in combos:
        assert modp.rank_of(np.vstack([basis, row]), p) == len(basis)
    outside = rng.integers(0, p, size=(1, 10))
    # a uniform random vector lies in a 4-dim subspace of F_101^10 with
    # probability 101**-6; treat membership as impossible at this seed
    assert modp.rank_of(np.vstack([basis, outside]), p) == len(basis) + 1


def test_matmul_mod_big_prime_fallback():
    p = 2147483647
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, size=(3, 5)).astype(np.int64)
    b = rng.integers(0, p, size=(5, 4)).astype(np.int64)
    got = modp.matmul_mod(a, b, p)
    want = np.array(
        [
            [sum(int(a[i, t]) * int(b[t, j]) for t in range(5)) % p for j in range(4)]
            for i in range(3)
        ],
        dtype=np.int64,
    )
    assert np.array_equal(got, want)


# Each side of the float64 limit k * (p - 1)**2 < 2**53: k = 2 | 3 at
# 67108859, 1 | 2 at 94906249, and none at 94906297.  Then each side of the
# int64 limit k * (p - 1)**2 < 2**62: k = 511 | 512 at 94906297, 3 | 4 at
# 1073741827 and 1 | 2 at 2147483647.
THRESHOLD_PRIMES = (101, 67108859, 94906249, 94906297, 1073741827, 2147483647)


@settings(max_examples=80)
@given(
    p=st.sampled_from(THRESHOLD_PRIMES),
    m=st.integers(1, 4),
    k=st.one_of(st.integers(1, 8), st.integers(500, 530)),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    top=st.sampled_from((0, 1, 2)),
)
@example(p=67108859, m=2, k=2, n=2, seed=0, top=2)
@example(p=67108859, m=2, k=3, n=2, seed=0, top=2)
@example(p=94906249, m=2, k=1, n=2, seed=0, top=2)
@example(p=94906249, m=2, k=2, n=2, seed=0, top=2)
@example(p=2147483647, m=2, k=1, n=2, seed=0, top=1)
@example(p=2147483647, m=2, k=2, n=2, seed=0, top=1)
@example(p=94906297, m=2, k=511, n=2, seed=0, top=1)
@example(p=94906297, m=2, k=512, n=2, seed=0, top=1)
def test_products_agree_with_python_integers(p, m, k, n, seed, top):
    if top:
        # every entry p - top: p - 1 makes every term its largest, (p - 1)**2;
        # p - 2 makes it odd, and float64 cannot hold an odd sum past 2**53
        a = np.full((m, k), p - top, dtype=np.int64)
        b = np.full((k, n), p - top, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p, size=(m, k)).astype(np.int64)
        b = rng.integers(0, p, size=(k, n)).astype(np.int64)
    want = (a.astype(object) @ b.astype(object) % p).astype(np.int64)
    assert np.array_equal(modp.matmul_mod(a, b, p), want)
    assert np.array_equal(modp._dot(a, b, p), want)
    # the point scan passes its monomial values as float64
    assert np.array_equal(modp._dot(a, b.astype(np.float64), p), want)


def test_matmul_mod_empty_inner():
    out = modp.matmul_mod(np.zeros((3, 0)), np.zeros((0, 4)), 7)
    assert out.shape == (3, 4) and not np.any(out)


def test_asmod_normalizes():
    out = modp.asmod(np.array([-1, 7, 13]), 7)
    assert out.shape == (1, 3)
    assert out.tolist() == [[6, 0, 6]]
    # integers past int64 are reduced exactly, before any conversion
    big = np.array([[2**70, -(2**80), 5]], dtype=object)
    assert modp.asmod(big, 7).tolist() == [[2**70 % 7, -(2**80) % 7, 5]]
    assert modp.asmod(np.array([2**64 - 1], dtype=np.uint64), 7).tolist() == [[(2**64 - 1) % 7]]
    assert modp.asmod(np.array([[3.0, -1.0]]), 7).tolist() == [[3, 6]]
    for bad in (np.array([[2.5, 1]]), np.array([np.nan]), np.array([np.inf]), np.array([[1, 0.5]], dtype=object)):
        with pytest.raises(ValueError):
            modp.asmod(bad, 7)


def test_asmod_returns_a_fresh_reduced_copy():
    p = 7
    for inp in (
        np.array([[0, 3, 6], [1, 2, 5]], dtype=np.int64),
        np.arange(7, dtype=np.int64),
        np.zeros((0, 4), dtype=np.int64),
        np.array([[1, 2], [3, 4]], dtype=np.int32),
    ):
        before = inp.copy()
        out = modp.asmod(inp, p)
        assert out.dtype == np.int64 and out.flags.c_contiguous
        assert out.shape == (inp.shape if inp.ndim == 2 else (1, inp.size))
        assert np.array_equal(out.reshape(inp.shape), inp)
        assert not np.shares_memory(out, inp)
        out[...] = 1
        assert np.array_equal(inp, before)
    for inp, want in (
        (np.array([[-1, -7, -8]]), [[6, 0, 6]]),
        (np.array([[6, 7]]), [[6, 0]]),
        (np.array([7, 8, 2**62]), [[0, 1, 2**62 % 7]]),
        (np.array([[-(2**63), 2**63 - 1]]), [[-(2**63) % 7, (2**63 - 1) % 7]]),
        (np.array([[6, 9]], dtype=np.uint32), [[6, 2]]),
        (np.array([[True, False]]), [[1, 0]]),
        (np.array([[14.0, -3.0]]), [[0, 4]]),
        (np.array([[2**65 + 3, 4]], dtype=object), [[(2**65 + 3) % 7, 4]]),
    ):
        assert modp.asmod(inp, p).tolist() == want
    assert modp.asmod(np.zeros((0, 3), dtype=np.int64), p).shape == (0, 3)
    assert modp.asmod(np.array([], dtype=np.int64), p).shape == (1, 0)


# the elimination and int64 products leave entries in [-(2**62 - p), 2**62);
# the ends of int64 are checked too, where p * (x // p) wraps around
REDUCE_PRIMES = (2, 3, 101, 65521, 1073741827, 2147483647)


@settings(max_examples=60)
@given(
    p=st.sampled_from(REDUCE_PRIMES),
    size=st.sampled_from((0, 1, 1023, 1024, 5000)),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=2147483647, size=1024, seed=0)
@example(p=2, size=1023, seed=0)
def test_reduce_and_sign_fix_are_exact(p, size, seed):
    rng = np.random.default_rng(seed)
    lo, hi = -(2**62 - p), 2**62
    x = rng.integers(lo, hi, size=size, dtype=np.int64)
    edges = [lo, hi - 1, -p, -1, 0, p - 1, p, -(2**63), 2**63 - 1]
    edges = np.array(edges, dtype=np.int64)[:size]
    x[: edges.size] = edges
    want = [v % p for v in x.tolist()]
    assert modp._reduce(x, p) is x
    assert x.tolist() == want
    # differences of two reduced values lie in (-p, p)
    d = rng.integers(-(p - 1), p, size=size, dtype=np.int64)
    want = [v % p for v in d.tolist()]
    assert modp._sign_fix(d, p) is d
    assert d.tolist() == want


def test_prime_checks():
    for p in (2, 3, 101, 32003, 2147483647):
        assert modp.check_prime(p) == p
    for bad in (0, 1, 4, 100, 561, 2**31, -7):
        with pytest.raises(ValueError):
            modp.check_prime(bad)
    assert modp.is_prime(2147483647)
    assert not modp.is_prime(561)  # Carmichael
    assert not modp.is_prime(1)
    # is_prime is memoized; an equal float is still refused with 101 cached
    with pytest.raises((TypeError, ValueError)):
        modp.check_prime(101.0)


def test_rank_of_empty_and_zero():
    assert modp.rank_of(np.zeros((0, 5), dtype=np.int64), 7) == 0
    assert modp.rank_of(np.zeros((4, 4), dtype=np.int64), 7) == 0
    assert modp.row_space(np.zeros((4, 4), dtype=np.int64), 7).shape == (0, 4)
    # more rows than one elimination block, and no columns
    for m in (10, 65, 200):
        mat = np.zeros((m, 0), dtype=np.int64)
        assert modp.rank_of(mat, 7) == 0
        assert modp.rref(mat, 7)[0].shape == (m, 0)
        assert modp.row_space(mat, 7).shape == (0, 0)
        assert modp.nullspace(mat, 7).shape == (0, 0)
