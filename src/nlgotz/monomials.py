"""Monomial bases of fixed degree in a fixed variable order, and their products.

Monomials are exponent tuples, always enumerated in descending lexicographic
order with the first variable greatest (x_0 > x_1 > ... > x_N).  This module
owns that layout and every table of monomial products on it, so `graded`
builds its matrices without handling exponent tuples.  Everything here is
cached: repeated lookups must be cheap.
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
    "lead_divisions",
    "unit_exponent",
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
    table = np.array(monomials(num_vars, degree), dtype=np.int64).reshape(-1, num_vars)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def shift_table(num_vars: int, degree: int, shift: tuple[int, ...]) -> np.ndarray:
    """Index map for multiplication by the monomial with exponents `shift`.

    Entry j is the position of (degree-j monomial) * x^shift inside the basis
    of degree `degree + sum(shift)`.
    """
    tgt = monomial_index(num_vars, degree + sum(shift))
    src = monomials(num_vars, degree)
    table = np.empty(len(src), dtype=np.int64)
    for j, e in enumerate(src):
        table[j] = tgt[tuple(a + b for a, b in zip(e, shift))]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def product_table(num_vars: int, degree: int, t: int) -> np.ndarray:
    """Shift tables for every degree-t monomial, one row each, in lex order.

    Row k is `shift_table(num_vars, degree, f)` for the k-th monomial f of
    degree t; a negative t has no monomials, so no rows.
    """
    table = np.empty((dim_degree(num_vars, t), dim_degree(num_vars, degree)), dtype=np.int64)
    for k, f in enumerate(monomials(num_vars, t)):
        table[k] = shift_table(num_vars, degree, f)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def lead_divisions(num_vars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(var, quotient) for the degree-`degree` monomials, degree >= 1.

    var[j] is the first variable x_i dividing monomial j and quotient[j] the
    position of monomial j / x_i among the monomials one degree lower, so
    each monomial is one product of a lower one with one variable.
    """
    if degree < 1:
        raise ValueError("lead divisions need degree >= 1")
    var = np.empty(dim_degree(num_vars, degree), dtype=np.int64)
    quotient = np.empty_like(var)
    lower = np.arange(dim_degree(num_vars, degree - 1), dtype=np.int64)
    # x_0 writes last, so every monomial keeps its first variable
    for i in range(num_vars - 1, -1, -1):
        table = shift_table(num_vars, degree - 1, unit_exponent(num_vars, i))
        var[table] = i
        quotient[table] = lower
    var.setflags(write=False)
    quotient.setflags(write=False)
    return var, quotient


def unit_exponent(num_vars: int, i: int) -> tuple[int, ...]:
    """The exponent tuple of the single variable x_i."""
    e = [0] * num_vars
    e[i] = 1
    return tuple(e)
