"""Binomial expansions of integers and the growth bounds built on them.

Every integer c >= 0 has a unique expansion in a given degree d >= 1,

    c = C(k_d, d) + C(k_{d-1}, d-1) + ... + C(k_f, f),

with k_d > k_{d-1} > ... > k_f >= f >= 1 (empty for c = 0).  Shifting the
expansion up or down produces the two classical bounds used everywhere else in
this package: `upper_macaulay` caps the codimension jump of a polynomial
subspace under multiplication by linear forms, and `lower_macaulay` caps the
codimension of its restriction to a generic hyperplane.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "binom",
    "MacaulayRep",
    "macaulay_rep",
    "upper_macaulay",
    "lower_macaulay",
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
    j is C(ks[j], degree - j).  The empty tuple represents 0.
    """

    degree: int
    ks: tuple[int, ...]

    @property
    def lowest_index(self) -> int:
        """The index f of the last term (degree + 1 for the empty rep)."""
        return self.degree - len(self.ks) + 1

    def value(self) -> int:
        return sum(binom(k, self.degree - j) for j, k in enumerate(self.ks))


# one growing table per degree: _tables[d][j] = C(d + j, d)
_tables: dict[int, list[int]] = {}


def _table_upto(d: int, limit: int) -> list[int]:
    t = _tables.setdefault(d, [1])
    while t[-1] <= limit:
        j = len(t)
        # C(d + j, d) = C(d + j - 1, d) * (d + j) / j
        t.append(t[-1] * (d + j) // j)
    return t


def macaulay_rep(c: int, d: int) -> MacaulayRep:
    """Greedy binomial expansion of c in degree d.

    Picks the largest k_d with C(k_d, d) <= c and recurses on the remainder
    in degree d - 1; the classical argument shows this is the unique valid
    expansion, so the strict-decrease check below can never fire.
    """
    if d < 1:
        raise ValueError("expansion degree must be at least 1")
    if c < 0:
        raise ValueError("only nonnegative integers have Macaulay expansions")
    ks: list[int] = []
    rem = c
    i = d
    while rem > 0:
        if i == 1:
            k = rem
        else:
            t = _table_upto(i, rem)
            k = i + bisect_right(t, rem) - 1
        if ks and k >= ks[-1]:
            raise AssertionError("greedy expansion lost strict decrease")
        ks.append(k)
        rem -= binom(k, i)
        i -= 1
    return MacaulayRep(degree=d, ks=tuple(ks))


def upper_macaulay(c: int, d: int) -> int:
    """The Macaulay growth bound c^<d>: shift both binomial indices up by one.

    Satisfies c^<d> = c for 0 <= c <= d, and equals the next full-space
    dimension when c is one: C(N + d, N)^<d> = C(N + d + 1, N).
    """
    rep = macaulay_rep(c, d)
    return sum(binom(k + 1, rep.degree - j + 1) for j, k in enumerate(rep.ks))


def lower_macaulay(c: int, d: int) -> int:
    """The restriction bound c_<d>: shift the top index down by one.

    In degree one this is exactly c - 1 for c >= 1, and 0 for c = 0.
    """
    rep = macaulay_rep(c, d)
    return sum(binom(k - 1, rep.degree - j) for j, k in enumerate(rep.ks))


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
    out = np.empty(c_max + 1, dtype=np.int64)
    for c in range(c_max + 1):
        out[c] = lower_macaulay(c, d)
    out.setflags(write=False)
    return out


def green_implication_scan(c_max: int, d_max: int) -> list[tuple[int, int, int]]:
    """Hunt for violations of the implication behind the restriction recursion.

    For 0 <= c' <= c <= c_max and 2 <= d <= d_max, test whether

        c' <= c'_<d> + (c - c')_<d-1>   implies   c' <= c_<d>.

    Returns the list of (c, c', d) triples where the premise holds but the
    conclusion fails; an exhaustive scan is expected to return none.
    """
    if c_max < 0 or d_max < 2:
        return []
    hits: list[tuple[int, int, int]] = []
    for d in range(2, d_max + 1):
        low_d = _lower_table(c_max, d)
        low_prev = _lower_table(c_max, d - 1)
        for c in range(c_max + 1):
            cp = np.arange(c + 1)
            premise = cp <= low_d[: c + 1] + low_prev[c::-1]
            bad = premise & (cp > low_d[c])
            for j in np.nonzero(bad)[0]:
                hits.append((c, int(j), d))
    return hits
