"""Exact dense linear algebra over a prime field F_p, for every prime p < 2**31.

All matrices are numpy int64 arrays with entries reduced into [0, p).  The
exactness rule: floating point only ever carries integers below 2**53.  Each
product of a (m x k) by a (k x n) matrix picks its arithmetic by
k * (p - 1)**2, the largest dot product it can form: float64 BLAS below
2**53, int64 below 2**62, Python integers above.  Row reduction eliminates
blocks of rows with float64 products where every product it forms is below
2**53, and finishes each block, each small matrix and every other case
column by column in int64; a block more than twice as wide as it is tall
is finished by panels, column by column only on its first columns and by
one product on the rest.  That elimination reduces mod p lazily: an entry
falls by at most (p - 1)**2 per step, and the matrix is reduced before the
unreduced steps could take an entry below -2**62 (see `_lazy_window`).
Bulk reductions go by floor division (`_reduce`), differences of two reduced
values get only a sign fix (`_sign_fix`), and reduced input is not reduced.
The public functions copy their input; matrices the library has just built
itself are reduced in place through `_rref_inplace`, with no copy, and the
code that built them says how many of their leading rows are already an
RREF basis: nothing here scans for them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_PRIME = 2**31


@lru_cache(maxsize=256)
def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for every m < 3,317,044,064,679,887,385,961,981.

    Memoized: every `RingContext` checks its prime, and a run uses few.
    """
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not (2 <= p < MAX_PRIME) or not is_prime(p):
        raise ValueError(f"p = {p} is not a prime in [2, 2**31)")
    return p


def _int_mod(x, p: int) -> int:
    """x mod p for a value equal to an integer; anything else raises ValueError."""
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v != x:
        raise ValueError(f"{x!r} is not an integer")
    return v % p


def asmod(mat: np.ndarray, p: int) -> np.ndarray:
    """Copy of `mat` as a C-contiguous int64 array with entries in [0, p).

    Integers of any size, Python integers in an object array included, are
    reduced exactly; a value that is not an integer raises ValueError.
    """
    a = np.asarray(mat)
    kind = a.dtype.kind
    if kind not in "bi" and not (kind == "u" and a.itemsize < 8):
        # floats, uint64 and objects: reduce each value before the cast
        a = np.array([_int_mod(x, p) for x in a.flat], dtype=np.int64).reshape(a.shape)
    a = np.array(a, dtype=np.int64, order="C", copy=True)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.size and (a.min() < 0 or a.max() >= p):
        _reduce(a, p)
    return a


# Delayed reduction on float64 BLAS (Dumas, Giorgi and Pernet, ACM TOMS 35(3),
# 2008): a dot product of k terms below p, each product at most (p - 1)**2,
# is an integer below 2**53 -- so float64 holds it exactly, whatever order
# BLAS sums in -- while k * (p - 1)**2 < 2**53.
_F64_EXACT = 2**53
_I64_EXACT = 2**62
# rows eliminated per block of `_rref_inplace`
_BLOCK = 64
# arrays of at least this many entries are reduced by floor division
_FLOOR_DIVIDE_MIN = 1024


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array `x` into [0, p) in place and return it.

    Large arrays take x - p * (x // p): numpy divides by a scalar with a
    multiply and a shift (Granlund and Montgomery, PLDI 1994).  Exact on all
    of int64, as the result lies in [0, p) even where p * (x // p) wraps.
    """
    if x.size < _FLOOR_DIVIDE_MIN:
        return np.remainder(x, p, out=x)
    q = np.floor_divide(x, p)
    q *= p
    x -= q
    return x


def _sign_fix(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array `x`, with entries in (-p, p), into [0, p) in place."""
    x += (x >> 63) & p
    return x


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p as int64, for int64 or float64 `a`, `b` holding integers in [0, p).

    Uses float64 BLAS while k * (p - 1)**2 < 2**53 for the inner dimension k,
    int64 `@` while it is below 2**62, Python integers otherwise.
    """
    bound = a.shape[1] * (p - 1) * (p - 1)
    if bound < _F64_EXACT:
        out = (a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)).astype(np.int64)
        return _reduce(out, p)
    a = a.astype(np.int64, copy=False)
    b = b.astype(np.int64, copy=False)
    if bound < _I64_EXACT:
        return _reduce(a @ b, p)
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def _lazy_window(p: int) -> int:
    """Elimination steps whose unreduced updates int64 holds exactly at prime p.

    Each step subtracts products of two entries in [0, p), each at most
    (p - 1)**2, so after s steps an entry lies in (-s * (p - 1)**2, p).  That
    stays above -2**62 for s up to (2**62 - p) // (p - 1)**2: about 4.5e14
    steps at p = 101, 3 at p = 1073741827 and 1 at p = 2**31 - 1.
    """
    return (_I64_EXACT - p) // ((p - 1) * (p - 1))


def _eliminate(a: np.ndarray, p: int) -> int:
    """Column-by-column Gauss-Jordan elimination of `a` in place; returns the rank.

    `a` is a C-contiguous int64 array with entries in [0, p).  Reduction mod
    p is delayed: each step reduces only the pivot column, for the pivot
    search and the multipliers, and the pivot row, then subtracts multiplier
    times pivot row from each row whose multiplier is nonzero and leaves the
    differences unreduced.  The whole matrix is reduced once the steps since
    the last reduction reach `_lazy_window(p)`, and at the end, so the result
    is exact for every p < 2**31.  Where that window is one step, the
    updated rows are reduced at each step instead.  Rows are swapped and
    updated from column c on only: left of it they are zero mod p.  A
    column nonzero in more than half the rows updates the whole tail
    a[:, c:] in place, with multiplier 0 in the other rows, rather than
    gathering and scattering the rows it changes.
    """
    m, n = a.shape
    window = _lazy_window(p)
    r = 0
    lazy = 0
    for c in range(n):
        if r == m:
            break
        col = a[:, c] % p
        nz = col.nonzero()[0]
        i = int(nz.searchsorted(r))
        if i == nz.size:
            continue
        piv = int(nz[i])
        row = a[piv, c:] % p
        if piv != r:
            a[piv, c:] = a[r, c:]
        inv = pow(int(col[piv]), -1, p)
        if inv != 1:
            row *= inv
            row %= p
        a[r, c:] = row
        if nz.size > 1:
            # the pivot row takes no update, and neither does the old row r
            # now at piv, which is zero in column c
            dense = 2 * nz.size > m
            if dense:
                col[r] = col[piv] = 0
                upd = a[:, c:]
                upd -= col[:, None] * row
            else:
                mult = col[nz]
                mult[i] = 0
                upd = a[nz, c:] - mult[:, None] * row
            if window == 1:
                _reduce(upd, p)
            else:
                lazy += 1
            if not dense:
                a[nz, c:] = upd
            if lazy == window:
                _reduce(a, p)
                lazy = 0
        r += 1
    if lazy:
        _reduce(a, p)
    return r


def _eliminate_panels(a: np.ndarray, p: int) -> int:
    """`_eliminate` for a block of at most `_BLOCK` rows, by panels where it is wide.

    A block of b rows and more than 2 b columns is eliminated column by
    column only on [a[:, :b] | I], which records the row transform T that
    brings its first b columns to RREF; one product applies T to the
    trailing columns (the echelon form of FFLAS-FFPACK: Dumas, Giorgi and
    Pernet, ACM TOMS 35(3), 2008).  Only the rows whose first b columns
    vanished under T go on, eliminated the same way on the trailing
    columns, and their pivots are back-substituted into the rows above,
    whose pivots lie in the first b columns.  The result is the RREF
    `_eliminate` gives.
    """
    b, w = a.shape
    if w <= 2 * b:
        return _eliminate(a, p)
    panel = np.hstack([a[:, :b], np.eye(b, dtype=np.int64)])
    _eliminate(panel, p)
    # [R | T] in RREF: the rows with a pivot in R come first
    k = int(np.count_nonzero(panel[:, :b].any(axis=1)))
    trail = _dot(panel[:, b:], a[:, b:], p)
    rt = _eliminate_panels(trail[k:], p) if k < b else 0
    if k and rt:
        new = trail[k : k + rt]
        piv = np.argmax(new != 0, axis=1)
        trail[:k] -= _dot(trail[:k, piv], new, p)
        _sign_fix(trail[:k], p)
    a[:, :b] = panel[:, :b]
    a[:, b:] = trail
    return k + rt


def _rref_inplace(a: np.ndarray, p: int, reduced: int = 0) -> int:
    """Reduce `a` to reduced row echelon form mod p and return its rank.

    `a` is a C-contiguous int64 array with entries in [0, p) whose first
    `reduced` rows are already an RREF basis, as the code that built `a`
    knows: identity rows, a kernel from `nullspace`, or x_0 * B on top of
    the other shifts of a basis B.  Those rows are taken as the basis found
    so far and never searched for (the FFLAS-FFPACK echelon form: Dumas,
    Giorgi and Pernet, ACM TOMS 35(3), 2008); with `reduced == len(a)`, `a`
    is returned untouched.  The rows after them are taken in blocks of
    `_BLOCK`: each block is reduced against the basis found so far with one
    product, its residual is eliminated on the columns where it is nonzero
    (`_eliminate_panels`), and the new pivots are back-substituted into the
    basis rows that meet them.  The basis is kept in the leading rows of
    `a`, read through the view a[:r] where a product needs every basis row,
    and sorted by pivot at the end if the blocks found pivots out of order.
    RREF is canonical, so the result is the one column-by-column
    elimination gives.  Every product here has inner dimension at most
    min(m, n); small matrices, and sizes and primes where such a product
    would not be exact in float64, take `_eliminate` directly.  (At most
    `_BLOCK` rows, one block product and its back-substitution cost more
    than the pivots the reduced rows save.)
    """
    m, n = a.shape
    if reduced == m:
        return m
    if m <= _BLOCK or min(m, n) * (p - 1) * (p - 1) >= _F64_EXACT:
        return _eliminate(a, p)
    piv = pivot_columns(a[:reduced])
    r = reduced
    for s in range(r, m, _BLOCK):
        if r == n:
            break
        blk = a[s : s + _BLOCK].copy()
        if r:
            hit = np.flatnonzero(blk[:, piv].any(axis=0))
            if hit.size:
                # every basis row hit: read the view a[:r], not a gather
                hit = slice(r) if hit.size == r else hit
                blk -= _dot(blk[:, piv[hit]], a[hit], p)
                _sign_fix(blk, p)
        cols = np.flatnonzero(blk.any(axis=0))
        if cols.size == 0:
            continue
        res = np.ascontiguousarray(blk[:, cols])
        rb = _eliminate_panels(res, p)
        if rb == 0:
            continue
        res = res[:rb]
        new_piv = cols[np.argmax(res != 0, axis=1)]
        if r:
            meet = np.flatnonzero(a[:r, new_piv].any(axis=1))
            if meet.size:
                meet = slice(r) if meet.size == r else meet[:, None]
                upd = a[meet, cols] - _dot(a[meet, new_piv], res, p)
                a[meet, cols] = _sign_fix(upd, p)
        a[r : r + rb] = 0
        a[r : r + rb, cols] = res
        piv = np.concatenate([piv, new_piv])
        r += rb
    if np.any(piv[1:] < piv[:-1]):
        a[:r] = a[np.argsort(piv)]
    a[r:] = 0
    return r


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Reduced row echelon form (a copy) and rank."""
    a = asmod(mat, p)
    return a, _rref_inplace(a, p)


def row_space(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the row space: the nonzero rows of the RREF."""
    a, r = rref(mat, p)
    return a[:r]


def rank_of(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[1]


def pivot_columns(basis: np.ndarray) -> np.ndarray:
    """First nonzero column of each row of an RREF basis."""
    if basis.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.argmax(basis != 0, axis=1).astype(np.int64)


def rref_kernel(basis: np.ndarray, p: int) -> np.ndarray:
    """Basis, as rows, of {x : basis @ x = 0} for an RREF basis, with no elimination.

    One vector per free column f, in increasing f: 1 at f, zero at the
    other free columns and minus column f of `basis` at the pivot columns.
    """
    n = basis.shape[1]
    piv = pivot_columns(basis)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    k = np.zeros((free.size, n), dtype=np.int64)
    k[np.arange(free.size), free] = 1
    k[:, piv] = _sign_fix(-basis[:, free].T, p)
    return k


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis, as rows, of the kernel {x : mat @ x = 0} over F_p.

    `mat` is row reduced with its columns reversed.  Back in the original
    order, each kernel vector it gives is 1 at its own free column f, zero
    at the other free columns and nonzero only at pivot columns right of f,
    so the vectors, ordered by f, are already the canonical basis.
    """
    a, r = rref(np.atleast_2d(mat)[:, ::-1], p)
    return _kernel_of_reversed(a[:r], p)


def _kernel_of_reversed(basis: np.ndarray, p: int) -> np.ndarray:
    """The RREF kernel basis of a matrix whose columns reversed have the RREF basis `basis`."""
    return np.ascontiguousarray(rref_kernel(basis, p)[::-1, ::-1])


def _kernels(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(`nullspace(mat)`, a basis of the left kernel {y : y @ mat = 0}), by one elimination.

    `mat` holds reduced entries.  [mat with its columns reversed | I] is
    row reduced: its rows with a pivot in the first part are the RREF that
    `nullspace` reads the kernel from, and the identity part of the other
    rows, zero on `mat`, is a basis of the left kernel.
    """
    m, n = mat.shape
    a = np.zeros((m, n + m), dtype=np.int64)
    a[:, :n] = mat[:, ::-1]
    a[:, n:] = np.eye(m, dtype=np.int64)
    _rref_inplace(a, p)
    r = int(np.count_nonzero(a[:, :n].any(axis=1)))
    return _kernel_of_reversed(a[:r, :n], p), a[r:, n:]


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p, exact for every p < 2**31 (see `_dot`)."""
    return _dot(asmod(a, p), asmod(b, p), p)
