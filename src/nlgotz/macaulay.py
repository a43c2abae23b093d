"""Binomial expansions of integers and the growth bounds built on them.

Every integer c >= 0 has a unique expansion in a given degree d >= 1,

    c = C(k_d, d) + C(k_{d-1}, d-1) + ... + C(k_f, f),

with k_d > k_{d-1} > ... > k_f >= f >= 1 (empty for c = 0).  Shifting the
expansion up or down produces the two classical bounds used everywhere else in
this package: `upper_macaulay` caps the codimension jump of a polynomial
subspace under multiplication by linear forms, and `lower_macaulay` caps the
codimension of its restriction to a generic hyperplane.

The scalar functions are plain integer arithmetic on one greedy walk,
`_walk`.  It is memoized on the last few (c, d), so the expansion and both
bounds of one pair walk once, and it stops at the trailing terms
C(j, j) = 1, so an expansion that ends in many ones costs no search and
grows no table.  The whole-range functions, `upper_macaulay_upto`,
`lower_macaulay_upto` and `green_implication_scan`, cover every c in
0..c_max for c_max < 2^31 with one int64 loop over the degrees.  They
import numpy when first called, so the floor evaluator and the command
line, which use only the scalar ones, start without it.
"""

from __future__ import annotations

import math
import operator
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
    "upper_macaulay_upto",
    "lower_macaulay_upto",
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
# (c, d) pairs whose greedy walk `_walk` keeps: one pair's expansion and both
# bounds walk once
_WALK_MEMO = 8

# the whole-range bounds cover c < 2^31: a term is then below 2^31 and its k
# at most c + d, so every product they form is below 2^31 (2^31 + d) < 2^63
_UPTO_LIMIT = 2**31


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


@lru_cache(maxsize=_WALK_MEMO)
def _walk(c: int, d: int) -> tuple[tuple[int, ...], int]:
    """The greedy expansion of c >= 0 in degree d >= 1, as (walked ks, ones).

    Each step takes the largest k with C(k, i) <= rem and subtracts that
    binomial, read from the table it was found in rather than recomputed; the
    classical argument shows this is the unique valid expansion, so the
    strict-decrease check can never fire.  The walk stops once rem <= i:
    the rest of the expansion is then rem terms C(j, j) = 1, j = i, i - 1,
    ..., which need no search and are returned as their count, so
    k_d, ..., k_f is the walked tuple followed by range(i, i - ones, -1),
    i = d - len(walked).  Memoized on the last few (c, d), since a caller
    usually wants the expansion and both bounds of one pair.  A numpy
    integer shares its key with the equal int, so both are made ints here,
    on a miss, before any arithmetic could wrap at 2^63.
    """
    c, d = operator.index(c), operator.index(d)
    if d < 1:
        raise ValueError("expansion degree must be at least 1")
    if c < 0:
        raise ValueError("only nonnegative integers have Macaulay expansions")
    ks: list[int] = []
    rem = c
    i = d
    prev = c + d  # above k_d, as C(k_d, d) >= k_d - d + 1
    while rem > i:
        if i > 2:
            # the degree-i table, grown first if it ends at or below rem
            t = _tables.get(i)
            if (t is not None and rem < t[-1]) or rem < (t := _table_upto(i, rem))[-1]:
                j = bisect_right(t, rem) - 1
                k, term = i + j, t[j]
            else:
                k = _top_past_table(rem, i)
                term = math.comb(k, i)
        elif i == 2:
            # k(k - 1)/2 <= rem < (k + 1)k/2
            k = (1 + math.isqrt(1 + 8 * rem)) // 2
            term = k * (k - 1) // 2
        else:
            k, term = rem, rem
        if k >= prev:
            raise AssertionError("greedy expansion lost strict decrease")
        ks.append(k)
        prev = k
        rem -= term
        i -= 1
    return tuple(ks), rem


def macaulay_rep(c: int, d: int) -> MacaulayRep:
    """Greedy binomial expansion of c in degree d.

    Picks the largest k_d with C(k_d, d) <= c and recurses on the remainder
    in degree d - 1.
    """
    ks, ones = _walk(c, d)
    if ones:
        i = d - len(ks)
        ks += tuple(range(i, i - ones, -1))
    return MacaulayRep(d, ks)


def upper_macaulay(c: int, d: int) -> int:
    """The Macaulay growth bound c^<d>: shift both binomial indices up by one.

    Satisfies c^<d> = c for 0 <= c <= d, and equals the next full-space
    dimension when c is one: C(N + d, N)^<d> = C(N + d + 1, N).
    """
    ks, ones = _walk(c, d)
    # each trailing C(j, j) = 1 maps to C(j + 1, j + 1) = 1
    return sum([math.comb(k + 1, d - j + 1) for j, k in enumerate(ks)]) + ones


def lower_macaulay(c: int, d: int) -> int:
    """The restriction bound c_<d>: shift the top index down by one.

    In degree one this is exactly c - 1 for c >= 1, and 0 for c = 0.
    """
    # each trailing C(j, j) = 1 maps to C(j - 1, j) = 0
    return sum([math.comb(k - 1, d - j) for j, k in enumerate(_walk(c, d)[0])])


def _bound_upto(c_max: int, d: int, shifted) -> np.ndarray:
    """Sum `shifted(k, term, i)` over the degree-d expansion terms C(k, i) of
    every c in 0..c_max, as one int64 vector indexed by c.

    The greedy step of `_walk` for the whole range at once, degree by degree:
    one searchsorted on the table, a float64 square root in degree 2, k = rem
    in degree 1.  A c whose expansion has ended takes k = i - 1 and term 0,
    which every shift maps to 0, and the loop stops once every rem is 0.
    """
    import numpy as np

    if d < 1:
        raise ValueError("expansion degree must be at least 1")
    if not 0 <= c_max < _UPTO_LIMIT:
        raise ValueError(f"c_max must lie in [0, 2^31), got {c_max}")
    rem = np.arange(c_max + 1, dtype=np.int64)
    out = np.zeros_like(rem)
    for i in range(d, 0, -1):
        top = int(rem.max())
        if top == 0:
            break
        if i == 1:
            k, term = rem, rem
        elif i == 2:
            # as in `_walk`: 1 + 8 rem < 2^34, so the float64 root is within
            # 2^-35 of the true one, which is an integer or 2^-18 from one,
            # and its floor is isqrt(1 + 8 rem)
            k = ((1 + np.floor(np.sqrt(1 + 8 * rem))) // 2).astype(np.int64)
            term = k * (k - 1) // 2
        else:
            # led by C(i - 1, i) = 0, so rem = 0 finds j = 0
            t = _table_upto(i, top)
            t = np.array([0, *t[: bisect_right(t, top) + 1]], dtype=np.int64)
            j = np.searchsorted(t, rem, side="right") - 1
            k, term = i - 1 + j, t[j]
        out += shifted(k, term, i)
        rem = rem - term
    return out


def upper_macaulay_upto(c_max: int, d: int) -> np.ndarray:
    """`upper_macaulay(c, d)` for every c in 0..c_max, as int64 indexed by c.

    c_max must lie in [0, 2^31) and d be at least 1; ValueError otherwise.
    """
    # C(k + 1, i + 1) = C(k, i) (k + 1) / (i + 1)
    return _bound_upto(c_max, d, lambda k, term, i: term * (k + 1) // (i + 1))


def lower_macaulay_upto(c_max: int, d: int) -> np.ndarray:
    """`lower_macaulay(c, d)` for every c in 0..c_max (see `upper_macaulay_upto`)."""
    import numpy as np

    # C(k - 1, i) = C(k, i) (k - i) / k, and C(-1, 1) = 0 in degree 1
    return _bound_upto(c_max, d, lambda k, term, i: term * (k - i) // np.maximum(k, 1))


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

    out = lower_macaulay_upto(c_max, d)
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
