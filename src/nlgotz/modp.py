"""Exact dense linear algebra over a prime field F_p.

All matrices are numpy int64 arrays with entries reduced into [0, p).  Row
reduction is one numpy kernel, vectorized over rows; every intermediate
product stays below p**2 < 2**62, so every result here is exact for each
prime p < 2**31.
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


def _rref_inplace(a: np.ndarray, p: int) -> int:
    """Reduce `a` to reduced row echelon form mod p and return its rank.

    `a` is a C-contiguous int64 array with entries in [0, p).
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
            # products stay below p**2 < 2**62, safe in int64
            a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        r += 1
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
    w -= matmul_mod(w[:, piv], basis, p)
    np.remainder(w, p, out=w)
    return w


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis, as rows, of the kernel {x : mat @ x = 0} over F_p."""
    a, r = rref(mat, p)
    n = a.shape[1]
    piv = pivot_columns(a[:r])
    free = np.setdiff1d(np.arange(n), piv)
    k = np.zeros((free.size, n), dtype=np.int64)
    for row, f in enumerate(free):
        k[row, f] = 1
        if r:
            k[row, piv] = (-a[:r, f]) % p
    return k


def left_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis, as rows, of {w : w @ mat = 0} over F_p."""
    return nullspace(np.ascontiguousarray(mat.T), p)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p without int64 overflow.

    For the usual small primes the accumulated dot products fit directly; for
    primes near the 2**31 cap the computation falls back to Python integers.
    """
    a = asmod(a, p)
    b = asmod(b, p)
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if (p - 1) * (p - 1) * inner < 2**62:
        return (a @ b) % p
    prod = a.astype(object) @ b.astype(object) % p
    return prod.astype(np.int64)
