"""Independent recomputation paths used to pin down expected values.

Nothing in this module imports from nlgotz.  Binomials come from the
Pascal recurrence, expansions from exhaustive search (and, for c too large
to search, from a greedy bisection on `math.comb`), the restriction
implication's counterexamples from the whole (c, c') triangle, matrix ranks,
reduced echelon forms and kernels from sympy's exact GF(p) arithmetic,
polynomial images and preimages from dict-based exponent bookkeeping, and
rational base points from evaluating at every point of P^N(F_p).  Tests
compare package output against these slower but independently derived
answers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

# _columns[t][i] = C(t + i, t), grown on demand by the Pascal recurrence
_columns: list[list[int]] = [[1]]


def pascal_binom(m: int, k: int) -> int:
    """C(m, k) via the Pascal recurrence, 0 outside 0 <= k <= m.

    Grows cached triangle columns instead of rows, so large m with small k
    (the shape every expansion search needs) stays cheap; the symmetric
    reduction k -> m - k keeps the column count small in the other regime.
    """
    if k < 0 or m < 0 or k > m:
        return 0
    k = min(k, m - k)
    while len(_columns) <= k:
        _columns.append([1])
    for t in range(k + 1):
        col = _columns[t]
        while len(col) <= m - t:
            if t == 0:
                col.append(1)
            else:
                i = len(col)
                col.append(col[i - 1] + _columns[t - 1][i])
    return _columns[k][m - k]


def all_decompositions(c: int, d: int) -> list[tuple[int, ...]]:
    """Every expansion c = sum C(k_i, i), i = d down to some f, by brute force.

    Valid expansions have k_d > k_{d-1} > ... > k_f >= f >= 1.  The search
    tries every admissible leading index and recurses on the remainder, so
    the returned list is exhaustive; uniqueness of the Macaulay expansion
    is the statement that it always has length one (length zero never
    happens for c >= 0).
    """

    def search(rem: int, i: int, cap: int) -> list[tuple[int, ...]]:
        if rem == 0:
            return [()]
        if i < 1:
            return []
        found = []
        k = i
        while k <= cap and pascal_binom(k, i) <= rem:
            term = pascal_binom(k, i)
            # the tail below k at degrees i-1, i-2, ... is at most
            # C(k-1, i-1) + C(k-2, i-2) + ... = C(k, i-1) - 1 by the
            # hockey-stick identity, so branches that cannot reach rem
            # are cut without loss
            if rem - term <= pascal_binom(k, i - 1) - 1 or rem == term:
                for tail in search(rem - term, i - 1, k - 1):
                    found.append((k,) + tail)
            k += 1
        return found

    if c < 0 or d < 1:
        raise ValueError("need c >= 0 and d >= 1")
    return search(c, d, c + d)


def comb_greedy(c: int, d: int) -> tuple[int, ...]:
    """The greedy expansion of c in degree d: at each i, the largest k with
    C(k, i) <= rem, found by doubling and bisecting on `math.comb`."""
    if c < 0 or d < 1:
        raise ValueError("need c >= 0 and d >= 1")
    ks = []
    rem = c
    for i in range(d, 0, -1):
        if rem == 0:
            break
        lo, hi = i, i + 1  # C(lo, i) = 1 <= rem
        while math.comb(hi, i) <= rem:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.comb(mid, i) <= rem:
                lo = mid
            else:
                hi = mid
        ks.append(lo)
        rem -= math.comb(lo, i)
    return tuple(ks)


def shifted_bounds(d: int, ks: tuple[int, ...]) -> tuple[int, int]:
    """(c^<d>, c_<d>) from the expansion ks of c: sum C(k + 1, i + 1) and sum C(k - 1, i)."""
    degrees = range(d, d - len(ks), -1)
    return (
        sum(math.comb(k + 1, i + 1) for k, i in zip(ks, degrees)),
        sum(math.comb(k - 1, i) for k, i in zip(ks, degrees)),
    )


def green_triangle(
    c_max: int, d_max: int, lower_table, premise_only: bool = False
) -> list[tuple[int, int, int]]:
    """Every (c, c', d) whose premise holds and conclusion fails, over the whole triangle.

    The implication is c' <= c'_<d> + (c - c')_<d-1>  =>  c' <= c_<d> for
    0 <= c' <= c <= c_max and 2 <= d <= d_max; `lower_table(c_max, d)` gives
    c_<d> for c = 0..c_max.  Each c tests every c' <= c, with no use of
    monotonicity, and the hits come ordered by d, then c, then c'.  With
    `premise_only`, every (c, c', d) whose premise holds comes back.
    """
    hits = []
    for d in range(2, d_max + 1):
        low_d = lower_table(c_max, d)
        low_prev = lower_table(c_max, d - 1)
        for c in range(c_max + 1):
            cp = np.arange(c + 1)
            premise = cp <= low_d[: c + 1] + low_prev[c::-1]
            bad = premise if premise_only else premise & (cp > low_d[c])
            for j in np.nonzero(bad)[0]:
                hits.append((c, int(j), d))
    return hits


def _domain_rref(rows, p: int):
    """sympy's exact GF(p) row reduction: (reduced matrix, pivots), or None if empty."""
    rows = [[int(x) for x in row] for row in rows]
    if not rows or not rows[0]:
        return None
    K = GF(p)
    dm = DomainMatrix([[K(x) for x in row] for row in rows], (len(rows), len(rows[0])), K)
    return dm.rref()


def gfp_rank(rows, p: int) -> int:
    """Rank over GF(p) via sympy's exact domain matrices."""
    reduced = _domain_rref(rows, p)
    return 0 if reduced is None else len(reduced[1])


def gfp_rref(rows, p: int) -> list[list[int]]:
    """Nonzero rows of the reduced row echelon form over GF(p), entries in [0, p)."""
    reduced = _domain_rref(rows, p)
    if reduced is None:
        return []
    red, pivots = reduced
    return [[int(x) % p for x in row] for row in red.to_Matrix().tolist()[: len(pivots)]]


# -- dict polynomials: {exponent tuple: coefficient}, vectors are tuples of
#    one polynomial per sheaf summand --


def poly_times_var(poly: dict, var: int) -> dict:
    out = {}
    for e, coeff in poly.items():
        shifted = list(e)
        shifted[var] += 1
        out[tuple(shifted)] = coeff
    return out


def vector_times_var(vec: tuple, var: int) -> tuple:
    return tuple(poly_times_var(f, var) for f in vec)


def _vector_rows(vectors: list, p: int) -> list[list[int]]:
    """Dict-polynomial vectors as coefficient rows over the exponents present.

    Absent ambient monomials would only add zero columns, which change no
    rank and no kernel of the rows.
    """
    cols = sorted({(bi, e) for vec in vectors for bi, f in enumerate(vec) for e in f})
    index = {key: j for j, key in enumerate(cols)}
    rows = []
    for vec in vectors:
        row = [0] * len(cols)
        for bi, f in enumerate(vec):
            for e, coeff in f.items():
                row[index[(bi, e)]] = coeff % p
        rows.append(row)
    return rows


def vectors_rank(vectors: list, p: int) -> int:
    """Rank of a set of dict-polynomial vectors over GF(p)."""
    return gfp_rank(_vector_rows(vectors, p), p)


def gfp_nullspace(rows, ncols: int, p: int) -> list[list[int]]:
    """Basis, as rows, of {x : rows @ x = 0} over GF(p), read off sympy's RREF.

    Each free column f gives the vector with x_f = 1, zero at the other
    free columns and -(row i of the RREF)[f] at the pivot of row i.
    """
    reduced = _domain_rref(rows, p)
    red, pivots = (reduced[0].to_list(), reduced[1]) if reduced else ([], ())
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        x = [0] * ncols
        x[f] = 1
        for i, c in enumerate(pivots):
            x[c] = -int(red[i][f]) % p
        out.append(x)
    return out


def vectors_preimage(products: list, space: list, p: int) -> list[list[int]]:
    """RREF of {c : sum_j c_j products[j] lies in the span of `space`} over GF(p).

    A vector lies in that span exactly when it is orthogonal to each a of
    a basis of {a : space @ a = 0}, so the answer is the kernel of the
    pairings of the products with those a.
    """
    rows = _vector_rows(products + space, p)
    ncols = len(rows[0]) if rows else 0
    annihilator = gfp_nullspace(rows[len(products) :], ncols, p)
    pairings = [
        [sum(x * y for x, y in zip(a, row)) % p for row in rows[: len(products)]]
        for a in annihilator
    ]
    return gfp_rref(gfp_nullspace(pairings, len(products), p), p)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def multinomial(k: int, parts: tuple[int, ...]) -> int:
    """k! / (parts_1! ... parts_r!) as a product of Pascal binomials."""
    out = 1
    running = k
    for c in parts:
        out *= pascal_binom(running, c)
        running -= c
    return out


def substitute_last_variable(poly: dict, mu: tuple[int, ...], p: int) -> dict:
    """Replace the last variable by sum(mu[i] x_i) in a dict polynomial.

    Expands each power of the last variable with the multinomial theorem
    over the remaining variables, reducing coefficients mod p.
    """
    out: dict = {}
    for expo, coeff in poly.items():
        t = expo[-1]
        base = expo[:-1]
        for gamma in _compositions(t, len(base)):
            term = coeff * multinomial(t, gamma)
            for mi, gi in zip(mu, gamma):
                term *= mi**gi
            new = tuple(b + g for b, g in zip(base, gamma)) + (0,)
            out[new] = (out.get(new, 0) + term) % p
    return {e: c for e, c in out.items() if c}


def form_value(exponents, row, point, p: int) -> int:
    """sum(c * x^e) at `point`, mod p, in Python integers."""
    terms = zip(row, exponents)
    return sum(int(c) * math.prod(x**e for x, e in zip(point, expo)) for c, expo in terms) % p


def rational_common_zero(exponents, rows, p: int, N: int):
    """A point of P^N(F_p) where every row vanishes, or None, by exhaustion.

    `exponents` lists the exponent tuple of each column.  The points are
    enumerated normalized, first nonzero coordinate 1, so each point of
    P^N(F_p) is tried exactly once.
    """
    for lead in range(N + 1):
        for tail in itertools.product(range(p), repeat=N - lead):
            point = (0,) * lead + (1,) + tail
            if all(form_value(exponents, row, point, p) == 0 for row in rows):
                return point
    return None
