"""Monomial enumeration, indexing, and multiplication tables."""

import pytest

from nlgotz.monomials import (
    dim_degree,
    exponent_table,
    monomial_index,
    monomials,
    product_table,
    shift_table,
    unit_exponent,
)

from oracles import pascal_binom


def test_dim_degree_counts():
    assert dim_degree(4, 2) == 10  # conics on P^3
    assert dim_degree(3, 3) == 10
    assert dim_degree(2, 5) == 6
    assert dim_degree(1, 9) == 1
    assert dim_degree(5, 0) == 1
    assert dim_degree(3, -1) == 0
    for nv in range(1, 6):
        for d in range(0, 8):
            assert dim_degree(nv, d) == pascal_binom(nv - 1 + d, nv - 1)
            assert len(monomials(nv, d)) == dim_degree(nv, d)


def test_monomials_are_descending_lex():
    for nv in range(1, 5):
        for d in range(0, 7):
            monos = monomials(nv, d)
            assert list(monos) == sorted(monos, reverse=True)
            assert len(set(monos)) == len(monos)
            assert all(len(e) == nv and sum(e) == d for e in monos)


def test_monomials_edges():
    assert monomials(3, 0) == ((0, 0, 0),)
    assert monomials(1, 4) == ((4,),)
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(4, -1) == ()
    with pytest.raises(ValueError):
        monomials(0, 2)


def test_monomial_index_roundtrip():
    for nv in range(1, 5):
        for d in range(0, 7):
            idx = monomial_index(nv, d)
            for j, e in enumerate(monomials(nv, d)):
                assert idx[e] == j
            table = exponent_table(nv, d)
            assert table.shape == (dim_degree(nv, d), nv) and not table.flags.writeable
            assert [tuple(row) for row in table.tolist()] == list(monomials(nv, d))


def test_shift_table_is_exponent_addition():
    for nv in (2, 3, 4):
        for d in (0, 1, 2, 3):
            src = monomials(nv, d)
            for i in range(nv):
                shift = unit_exponent(nv, i)
                table = shift_table(nv, d, shift)
                tgt = monomials(nv, d + 1)
                for j, e in enumerate(src):
                    expect = tuple(a + b for a, b in zip(e, shift))
                    assert tgt[table[j]] == expect
            # a degree-2 shift in one go
            table = shift_table(nv, d, (2,) + (0,) * (nv - 1))
            tgt = monomials(nv, d + 2)
            for j, e in enumerate(src):
                assert tgt[table[j]] == (e[0] + 2,) + e[1:]


def test_shift_table_injective_and_frozen():
    table = shift_table(3, 2, unit_exponent(3, 1))
    assert len(set(table.tolist())) == len(table)
    with pytest.raises(ValueError):
        table[0] = 5  # read-only


def test_product_table_stacks_the_shift_tables():
    for nv in (1, 2, 3, 4):
        for d in (0, 1, 2):
            for t in (-1, 0, 1, 2, 3):
                table = product_table(nv, d, t)
                assert table.shape == (dim_degree(nv, t), dim_degree(nv, d))
                for k, f in enumerate(monomials(nv, t)):
                    assert table[k].tolist() == shift_table(nv, d, f).tolist()
    with pytest.raises(ValueError):
        product_table(3, 1, 1)[0, 0] = 5  # read-only


def test_tables_match_the_monomial_index():
    shapes = [(nv, d, t) for nv in range(1, 7) for d in range(-1, 9) for t in range(-1, 5)]
    # the subspaces benchmark's shapes: multiplication on P^2 up to degree 30,
    # and every split m = k + (m - k) of restriction to P^1
    shapes += [(3, d, t) for d in range(9, 31) for t in (0, 1, 2)]
    shapes += [(2, d, t) for d in range(31) for t in range(31 - d)]
    for nv, d, t in shapes:
        idx = monomial_index(nv, d + t) if t >= 0 else {}
        expect = [
            [idx[tuple(a + b for a, b in zip(e, f))] for e in monomials(nv, d)]
            for f in monomials(nv, t)
        ]
        table = product_table(nv, d, t)
        assert table.shape == (dim_degree(nv, t), dim_degree(nv, d)), (nv, d, t)
        assert table.tolist() == expect, (nv, d, t)
        for k, f in enumerate(monomials(nv, t)):
            assert shift_table(nv, d, f).tolist() == expect[k], (nv, d, t)


def test_unit_exponent():
    assert unit_exponent(4, 0) == (1, 0, 0, 0)
    assert unit_exponent(4, 3) == (0, 0, 0, 1)
