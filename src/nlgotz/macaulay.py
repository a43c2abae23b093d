"""Binomial expansions of integers and the growth bounds built on them.

Every integer c >= 0 has a unique expansion in a given degree d >= 1,

    c = C(k_d, d) + C(k_{d-1}, d-1) + ... + C(k_f, f),

with k_d > k_{d-1} > ... > k_f >= f >= 1 (empty for c = 0).  Shifting the
expansion up or down produces the two classical bounds used everywhere else in
this package: `upper_macaulay` caps the codimension jump of a polynomial
subspace under multiplication by linear forms, and `lower_macaulay` caps the
codimension of its restriction to a generic hyperplane.

The scalar functions are plain integer arithmetic.  The whole-range
functions (`*_many`, `green_implication_scan`) work on numpy arrays and
import numpy when first called, so the floor evaluator and the command line,
which use only the scalar ones, start without it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "binom",
    "MacaulayRep",
    "macaulay_rep",
    "upper_macaulay",
    "lower_macaulay",
    "macaulay_rep_many",
    "upper_macaulay_many",
    "lower_macaulay_many",
    "growth_slack_sum",
    "GrowthSlackCheck",
    "growth_slack_check",
    "green_implication_scan",
]


def binom(m: int, p: int) -> int:
    """C(m, p) with the convention C(m, p) = 0 whenever m < p.

    p must be nonnegative; m may be any integer, and m < p (negative m
    included) simply yields 0.
    """
    if p < 0:
        raise ValueError("lower index of a binomial must be nonnegative")
    if m < p:
        return 0
    return math.comb(m, p)


@dataclass(frozen=True)
class MacaulayRep:
    """The d-th Macaulay expansion of an integer.

    `ks` lists k_d, k_{d-1}, ..., k_f in that order, so the term at position
    j is C(ks[j], degree - j).  The empty tuple represents 0.  Every k is
    nonnegative; `value` raises ValueError on a negative k or on more terms
    than the degree.
    """

    degree: int
    ks: tuple[int, ...]

    @property
    def lowest_index(self) -> int:
        """The index f of the last term (degree + 1 for the empty rep)."""
        return self.degree - len(self.ks) + 1

    def value(self) -> int:
        d = self.degree
        if len(self.ks) > d:
            # a term past C(k, 1) would be C(k, 0) = 1, which no expansion has
            raise ValueError(f"{len(self.ks)} terms are more than the degree {d}")
        return sum(map(math.comb, self.ks, range(d, d - len(self.ks), -1)))


# one growing table per degree: _tables[d][j] = C(d + j, d), for j < _TABLE_CAP.
# Degree 1 needs no table (k = c) and degree 2 none either (k from isqrt), so
# no table grows with c; past the cap, k comes from a search on math.comb.
_tables: dict[int, list[int]] = {}
_TABLE_CAP = 4096

# below this c the whole-range functions work in int64: a term is below 2^31 and
# its k at most c + d, so every product they form is below 2^31 (2^31 + d) < 2^63;
# rows at or above it go through the exact scalar path
_VECTOR_LIMIT = 2**31
_INT64_MAX = 2**63 - 1


def _table_upto(d: int, limit: int) -> list[int]:
    """The degree-d table, grown until its last entry exceeds limit or it is full."""
    t = _tables.setdefault(d, [1])
    while t[-1] <= limit and len(t) < _TABLE_CAP:
        j = len(t)
        # C(d + j, d) = C(d + j - 1, d) * (d + j) / j
        t.append(t[-1] * (d + j) // j)
    return t


def _top_past_table(c: int, i: int) -> int:
    """The largest k with C(k, i) <= c, for c at or past the end of the full table."""
    lo = i + _TABLE_CAP - 1  # C(lo, i) is the table's last entry, <= c
    hi = 2 * lo
    while math.comb(hi, i) <= c:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, i) <= c:
            lo = mid
        else:
            hi = mid
    return lo


def _expand(c: int, d: int) -> tuple[int, ...]:
    """k_d > k_{d-1} > ... > k_f of the greedy expansion of c >= 0 in degree d >= 1.

    Each step takes the largest k with C(k, i) <= rem and subtracts that
    binomial, read from the table it was found in rather than recomputed; the
    classical argument shows this is the unique valid expansion, so the
    strict-decrease check can never fire.
    """
    ks: list[int] = []
    rem = c
    i = d
    while rem > 0:
        if i == 1:
            k, term = rem, rem
        elif i == 2:
            # k(k - 1)/2 <= rem < (k + 1)k/2
            k = (1 + math.isqrt(1 + 8 * rem)) // 2
            term = k * (k - 1) // 2
        else:
            t = _tables.get(i)
            if t is None or rem >= t[-1]:
                t = _table_upto(i, rem)
            if rem < t[-1]:
                j = bisect_right(t, rem) - 1
                k, term = i + j, t[j]
            else:
                k = _top_past_table(rem, i)
                term = math.comb(k, i)
        if ks and k >= ks[-1]:
            raise AssertionError("greedy expansion lost strict decrease")
        ks.append(k)
        rem -= term
        i -= 1
    return tuple(ks)


def _check_args(c: int, d: int) -> None:
    if d < 1:
        raise ValueError("expansion degree must be at least 1")
    if c < 0:
        raise ValueError("only nonnegative integers have Macaulay expansions")


def macaulay_rep(c: int, d: int) -> MacaulayRep:
    """Greedy binomial expansion of c in degree d.

    Picks the largest k_d with C(k_d, d) <= c and recurses on the remainder
    in degree d - 1.
    """
    _check_args(c, d)
    return MacaulayRep(d, _expand(c, d))


def upper_macaulay(c: int, d: int) -> int:
    """The Macaulay growth bound c^<d>: shift both binomial indices up by one.

    Satisfies c^<d> = c for 0 <= c <= d, and equals the next full-space
    dimension when c is one: C(N + d, N)^<d> = C(N + d + 1, N).
    """
    _check_args(c, d)
    return sum([math.comb(k + 1, d - j + 1) for j, k in enumerate(_expand(c, d))])


def lower_macaulay(c: int, d: int) -> int:
    """The restriction bound c_<d>: shift the top index down by one.

    In degree one this is exactly c - 1 for c >= 1, and 0 for c = 0.
    """
    _check_args(c, d)
    return sum([math.comb(k - 1, d - j) for j, k in enumerate(_expand(c, d))])


def _counts(cs, d: int) -> np.ndarray:
    """cs as a 1-D int64 array, refusing what the scalar functions refuse."""
    import numpy as np

    if d < 1:
        raise ValueError("expansion degree must be at least 1")
    try:
        a = np.asarray(cs)
    except OverflowError:
        raise ValueError("cs must be integers that fit in int64") from None
    if a.ndim != 1:
        raise ValueError("cs must be one-dimensional")
    if a.size == 0:
        return np.zeros(0, dtype=np.int64)
    if a.dtype.kind not in "iu" or (a.dtype.kind == "u" and a.max() > _INT64_MAX):
        raise ValueError("cs must be integers that fit in int64")
    a = a.astype(np.int64)
    if a.min() < 0:
        raise ValueError("only nonnegative integers have Macaulay expansions")
    return a


def _expand_many(cs: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(k_i, C(k_i, i)) of every c < _VECTOR_LIMIT, as (len, d) matrices, 0 where absent.

    The greedy step of `_expand` for all rows at once: one searchsorted per
    degree on the table, a float64 square root in degree 2.
    """
    import numpy as np

    ks = np.zeros((cs.size, d), dtype=np.int64)
    terms = np.zeros_like(ks)
    rem = cs.copy()
    for j in range(d):
        i = d - j
        top = int(rem.max(initial=0))
        if top == 0:
            break
        if i == 1:
            k, term = rem, rem
        elif i == 2:
            # as in `_expand`: 1 + 8 rem < 2^34, so the float64 root is within
            # 2^-35 of the true one, which is an integer or 2^-18 from one,
            # and its floor is isqrt(1 + 8 rem)
            k = ((1 + np.floor(np.sqrt(1 + 8 * rem))) // 2).astype(np.int64)
            term = k * (k - 1) // 2
        else:
            t = _table_upto(i, top)
            t = np.array(t[: bisect_right(t, top) + 1], dtype=np.int64)
            idx = np.searchsorted(t, rem, side="right") - 1
            k, term = i + idx, t[idx]
        live = rem > 0
        ks[:, j] = np.where(live, k, 0)
        terms[:, j] = np.where(live, term, 0)
        rem = rem - terms[:, j]
    return ks, terms


def macaulay_rep_many(cs, d: int) -> np.ndarray:
    """Macaulay expansions in degree d of every c in cs at once.

    Returns an int64 (len(cs), d) matrix whose row r is
    `macaulay_rep(cs[r], d).ks` padded with 0 where a term is absent.  cs is
    a 1-D sequence of nonnegative integers that fit in int64; a negative c,
    d < 1 or a c past int64 raises ValueError.
    """
    import numpy as np

    cs = _counts(cs, d)
    near = cs < _VECTOR_LIMIT
    ks = np.zeros((cs.size, d), dtype=np.int64)
    ks[near] = _expand_many(cs[near], d)[0]
    for r in np.flatnonzero(~near):
        row = _expand(int(cs[r]), d)
        ks[r, : len(row)] = row
    return ks


def _bound_many(cs, d: int, scalar, shifted) -> np.ndarray:
    """Sum `shifted(ks, terms, degrees)` over the terms of each c below
    _VECTOR_LIMIT, and take `scalar(c, d)` for the rest, refusing a value
    past int64 rather than letting it wrap."""
    import numpy as np

    cs = _counts(cs, d)
    near = cs < _VECTOR_LIMIT
    out = np.zeros(cs.size, dtype=np.int64)
    ks, terms = _expand_many(cs[near], d)
    out[near] = shifted(ks, terms, np.arange(d, 0, -1)).sum(axis=1)
    for r in np.flatnonzero(~near):
        value = scalar(int(cs[r]), d)
        if value > _INT64_MAX:
            raise ValueError(f"{scalar.__name__}({cs[r]}, {d}) = {value} does not fit in int64")
        out[r] = value
    return out


def upper_macaulay_many(cs, d: int) -> np.ndarray:
    """`upper_macaulay(c, d)` for every c in cs, as int64 (see `macaulay_rep_many`).

    A c whose bound c^<d> would not fit in int64 raises ValueError.
    """
    # C(k + 1, i + 1) = C(k, i) (k + 1) / (i + 1)
    return _bound_many(cs, d, upper_macaulay, lambda ks, terms, i: terms * (ks + 1) // (i + 1))


def lower_macaulay_many(cs, d: int) -> np.ndarray:
    """`lower_macaulay(c, d)` for every c in cs, as int64 (see `macaulay_rep_many`)."""
    import numpy as np

    # C(k - 1, i) = C(k, i) (k - i) / k
    return _bound_many(
        cs, d, lower_macaulay, lambda ks, terms, i: terms * (ks - i) // np.maximum(ks, 1)
    )


def growth_slack_sum(n: int, e: int) -> int:
    """The triangular sum (n + 1) + n + ... + (n + 1 - e) = (e + 1)(2n + 2 - e) / 2.

    No range check: callers test whether (n, e) is in the domain themselves.
    """
    return (e + 1) * (2 * n + 2 - e) // 2


@dataclass(frozen=True)
class GrowthSlackCheck:
    """Outcome of the slack form of the growth bound."""

    hypothesis_met: bool
    bound_holds: bool
    upper_value: int
    slack_sum: int


def growth_slack_check(c: int, n: int, e: int) -> GrowthSlackCheck:
    """Check c < sum_{i=0}^{e} (n + 1 - i) and, with it, c^<n> <= c + e.

    The slack e must lie in [0, n + 1]; outside that window the premise stops
    controlling the expansion and the implication is not claimed.
    """
    if n < 1:
        raise ValueError("growth degree n must be at least 1")
    if not 0 <= e <= n + 1:
        raise ValueError("slack e must lie in [0, n + 1]")
    if c < 0:
        raise ValueError("c must be nonnegative")
    slack_sum = growth_slack_sum(n, e)
    upper = upper_macaulay(c, n)
    return GrowthSlackCheck(
        hypothesis_met=c < slack_sum,
        bound_holds=upper <= c + e,
        upper_value=upper,
        slack_sum=slack_sum,
    )


@lru_cache(maxsize=32)
def _lower_table(c_max: int, d: int) -> np.ndarray:
    import numpy as np

    out = lower_macaulay_many(np.arange(c_max + 1), d)
    out.setflags(write=False)
    return out


def green_implication_scan(c_max: int, d_max: int) -> list[tuple[int, int, int]]:
    """Hunt for violations of the implication behind the restriction recursion.

    For 0 <= c' <= c <= c_max and 2 <= d <= d_max, test whether

        c' <= c'_<d> + (c - c')_<d-1>   implies   c' <= c_<d>.

    Returns the list of (c, c', d) triples where the premise holds but the
    conclusion fails, ordered by d, then c, then c'; an exhaustive scan is
    expected to return none.

    c -> c_<d> is nondecreasing, and each table is checked to be (an
    AssertionError if not).  So for each c' the conclusion fails exactly
    for c in [c', hi), hi the first c with c_<d> >= c', and the premise
    holds exactly for c >= c' + J, J the first j with j_<d-1> >= c' - c'_<d>:
    two searchsorted calls per degree find every hit, with no (c, c')
    triangle.
    """
    import numpy as np

    if c_max < 0 or d_max < 2:
        return []
    hits: list[tuple[int, int, int]] = []
    cp = np.arange(c_max + 1)
    for d in range(2, d_max + 1):
        low_d = _lower_table(c_max, d)
        low_prev = _lower_table(c_max, d - 1)
        for table, degree in ((low_d, d), (low_prev, d - 1)):
            if np.any(table[1:] < table[:-1]):
                raise AssertionError(f"c -> c_<{degree}> decreases somewhere in 0..{c_max}")
        hi = np.maximum(cp, np.searchsorted(low_d, cp, side="left"))
        lo = cp + np.searchsorted(low_prev, cp - low_d, side="left")
        count = np.maximum(hi - lo, 0)
        if not count.any():
            continue
        cps = np.repeat(cp, count)
        # each c' contributes the run lo[c'], lo[c'] + 1, ..., hi[c'] - 1
        cs = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(cps.size)
        order = np.lexsort((cps, cs))
        hits.extend((int(c), int(j), d) for c, j in zip(cs[order], cps[order]))
    return hits
