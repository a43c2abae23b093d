"""Exact dense linear algebra over a prime field F_p, for every prime p < 2**31.

All matrices are numpy int64 arrays with entries reduced into [0, p).  The
exactness rule: floating point only ever carries integers below 2**53.  Each
product of a (m x k) by a (k x n) matrix picks its arithmetic by
k * (p - 1)**2, the largest dot product it can form: float64 BLAS below
2**53, int64 below 2**62, Python integers above.  Row reduction eliminates
blocks of rows with float64 products where every product it forms is below
2**53, and finishes each block, each small matrix and every other case
column by column in int64, where every intermediate stays below
p**2 < 2**62.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 2**31


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for every m < 3,317,044,064,679,887,385,961,981."""
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


def asmod(mat: np.ndarray, p: int) -> np.ndarray:
    """Copy of `mat` as a C-contiguous int64 array with entries in [0, p)."""
    a = np.array(mat, dtype=np.int64, order="C", copy=True)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    np.remainder(a, p, out=a)
    return a


# Delayed reduction on float64 BLAS (Dumas, Giorgi and Pernet, ACM TOMS 35(3),
# 2008): a dot product of k terms below p, each product at most (p - 1)**2,
# is an integer below 2**53 -- so float64 holds it exactly, whatever order
# BLAS sums in -- while k * (p - 1)**2 < 2**53.
_F64_EXACT = 2**53
_I64_EXACT = 2**62
# rows eliminated per block of `_rref_inplace`
_BLOCK = 64


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p as int64, for int64 or float64 `a`, `b` holding integers in [0, p).

    Uses float64 BLAS while k * (p - 1)**2 < 2**53 for the inner dimension k,
    int64 `@` while it is below 2**62, Python integers otherwise.
    """
    k = a.shape[1]
    if k == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    bound = k * (p - 1) * (p - 1)
    if bound < _F64_EXACT:
        prod = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
        out = prod.astype(np.int64)
        del prod
        np.remainder(out, p, out=out)
        return out
    a = a.astype(np.int64, copy=False)
    b = b.astype(np.int64, copy=False)
    if bound < _I64_EXACT:
        out = a @ b
        np.remainder(out, p, out=out)
        return out
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def _eliminate(a: np.ndarray, p: int) -> int:
    """Column-by-column Gauss-Jordan elimination of `a` in place; returns the rank.

    `a` is a C-contiguous int64 array with entries in [0, p).  Products stay
    below p**2 < 2**62, so this is exact for every p < 2**31.
    """
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = a[r, c:] * inv % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        r += 1
    return r


def _rref_inplace(a: np.ndarray, p: int) -> int:
    """Reduce `a` to reduced row echelon form mod p and return its rank.

    `a` is a C-contiguous int64 array with entries in [0, p).  Rows are
    taken in blocks of `_BLOCK`: each block is reduced against the basis
    found so far with one product, its residual is eliminated column by
    column on the columns where it is nonzero, and the new pivots are
    back-substituted into the basis rows that meet them.  The basis is kept
    in the leading rows of `a` and sorted by pivot at the end.  RREF is
    canonical, so the result is the one column-by-column elimination gives.
    Every product here has inner dimension at most min(m, n); small
    matrices, and sizes and primes where such a product would not be exact
    in float64, take that elimination directly.
    """
    m, n = a.shape
    if m <= _BLOCK or min(m, n) * (p - 1) * (p - 1) >= _F64_EXACT:
        return _eliminate(a, p)
    piv = np.empty(0, dtype=np.int64)
    r = 0
    for s in range(0, m, _BLOCK):
        if r == n:
            break
        blk = a[s : s + _BLOCK].copy()
        if r:
            hit = np.flatnonzero(blk[:, piv].any(axis=0))
            if hit.size:
                blk -= _dot(blk[:, piv[hit]], a[hit], p)
                np.remainder(blk, p, out=blk)
        cols = np.flatnonzero(blk.any(axis=0))
        if cols.size == 0:
            continue
        res = np.ascontiguousarray(blk[:, cols])
        rb = _eliminate(res, p)
        if rb == 0:
            continue
        res = res[:rb]
        new_piv = cols[np.argmax(res != 0, axis=1)]
        if r:
            meet = np.flatnonzero(a[:r, new_piv].any(axis=1))
            if meet.size:
                met = a[meet]
                upd = met[:, cols] - _dot(met[:, new_piv], res, p)
                np.remainder(upd, p, out=upd)
                a[np.ix_(meet, cols)] = upd
        a[r : r + rb] = 0
        a[r : r + rb, cols] = res
        piv = np.concatenate([piv, new_piv])
        r += rb
    a[:r] = a[np.argsort(piv)]
    a[r:] = 0
    return r


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Reduced row echelon form (a copy) and rank."""
    a = asmod(mat, p)
    if a.size == 0:
        return a, 0
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


def reduce_rows(basis: np.ndarray, vectors: np.ndarray, p: int) -> np.ndarray:
    """Reduce each row of `vectors` modulo the row space of an RREF `basis`.

    The result has zeros in every pivot column, so a row reduces to zero
    exactly when it lies in the span.
    """
    w = asmod(vectors, p)
    if basis.shape[0] == 0 or w.shape[0] == 0:
        return w
    piv = pivot_columns(basis)
    w -= _dot(w[:, piv], basis, p)
    np.remainder(w, p, out=w)
    return w


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis, as rows, of the kernel {x : mat @ x = 0} over F_p."""
    a, r = rref(mat, p)
    piv = pivot_columns(a[:r])
    free = np.setdiff1d(np.arange(a.shape[1]), piv)
    k = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    k[np.arange(free.size), free] = 1
    k[:, piv] = (-a[:r, free].T) % p
    return k


def left_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis, as rows, of {w : w @ mat = 0} over F_p."""
    return nullspace(np.ascontiguousarray(mat.T), p)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p, exact for every p < 2**31 (see `_dot`)."""
    return _dot(asmod(a, p), asmod(b, p), p)
