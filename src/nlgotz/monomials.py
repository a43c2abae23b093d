"""Monomial bases of fixed degree in a fixed variable order, and their products.

Monomials are exponent tuples, always enumerated in descending lexicographic
order with the first variable greatest (x_0 > x_1 > ... > x_N).  This module
owns that layout and every table of monomial products on it, so `graded`
builds its matrices without handling exponent tuples.  A monomial's position
in that order is a closed formula in its exponents (`_lex_rank`), so the
product tables are array arithmetic on `exponent_table` rows.  Everything
here is cached: repeated lookups must be cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "dim_degree",
    "monomials",
    "monomial_index",
    "exponent_table",
    "shift_table",
    "product_table",
]


def dim_degree(num_vars: int, degree: int) -> int:
    """Number of degree-`degree` monomials in `num_vars` variables (0 if degree < 0)."""
    if degree < 0:
        return 0
    return math.comb(num_vars - 1 + degree, num_vars - 1)


@lru_cache(maxsize=None)
def monomials(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given degree, descending lex."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for tail in monomials(num_vars - 1, degree - e0):
            out.append((e0,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict[tuple[int, ...], int]:
    """Exponent tuple -> position in the descending lex enumeration."""
    return {e: i for i, e in enumerate(monomials(num_vars, degree))}


@lru_cache(maxsize=None)
def exponent_table(num_vars: int, degree: int) -> np.ndarray:
    """The exponent tuples of `monomials`, one row each (monomials x variables)."""
    return _frozen(np.array(monomials(num_vars, degree), dtype=np.int64).reshape(-1, num_vars))


def _lex_rank(exps: np.ndarray) -> np.ndarray:
    """Position of each exponent row (last axis) in the descending lex basis of its degree.

    With T_i = e_i + ... + e_N, the monomials before x^e are, for each
    i = 1..N, those that agree with e on x_0, ..., x_{i-2} and have a larger
    exponent of x_{i-1}: C(T_i - 1 + N + 1 - i, N + 1 - i) of them, the
    number of monomials of degree below T_i in x_i, ..., x_N (0 when T_i = 0).
    """
    # column j holds T_{N-j}, whose count is C(T - 1 + k, k) with k = j + 1
    tails = np.cumsum(exps[..., :0:-1], axis=-1)
    terms = tails.copy()  # C(T, 1) = T
    for k in range(2, tails.shape[-1] + 1):
        # C(T - 1 + k, k) = C(T - 2 + k, k - 1) * (T - 1 + k) / k, exactly
        terms[..., k - 1 :] *= tails[..., k - 1 :] + (k - 1)
        terms[..., k - 1 :] //= k
    return terms.sum(axis=-1)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def shift_table(num_vars: int, degree: int, shift: tuple[int, ...]) -> np.ndarray:
    """Index map for multiplication by the monomial with exponents `shift`.

    Entry j is the position of (degree-j monomial) * x^shift inside the basis
    of degree `degree + sum(shift)`.
    """
    return _frozen(_lex_rank(exponent_table(num_vars, degree) + np.asarray(shift, dtype=np.int64)))


@lru_cache(maxsize=None)
def product_table(num_vars: int, degree: int, t: int) -> np.ndarray:
    """Shift tables for every degree-t monomial, one row each, in lex order.

    Row k is `shift_table(num_vars, degree, f)` for the k-th monomial f of
    degree t; a negative t has no monomials, so no rows.
    """
    exps = exponent_table(num_vars, t)[:, None] + exponent_table(num_vars, degree)
    return _frozen(_lex_rank(exps))

