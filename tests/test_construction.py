"""Automorphism matrix B, shift matrix S, and the Y endomorphisms."""

from math import comb

import numpy as np
import pytest

from fsz_forge.construction import (
    b_power_table,
    binomial_entry_closed,
    build_b,
    build_shift,
    build_y,
    shift_power_closed,
    verify_construction,
)
from fsz_forge.mixedmod import (
    EndoMatrix,
    GroupParams,
    identity_matrix,
    mat_add,
    mat_mul,
    mat_pow,
    mat_scale,
)

GRID = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]

EXPECTED_CHECKS = {
    "b_last_power_corner",
    "b_order_exact",
    "binomial_closed_agrees",
    "power_divisibility_invariant",
    "shift_power_closed_agrees",
    "y1_b_fixed_point",
    "y1_block_form",
    "yp_scaled_block_forms",
}


@pytest.mark.parametrize("p,j", GRID)
def test_verify_construction_grid(p, j):
    checks = verify_construction(GroupParams(p, j))
    assert isinstance(checks, tuple)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert set(names) == EXPECTED_CHECKS
    assert len(names) == len(set(names))
    assert names == sorted(names)


def test_small_case_matrix_literals():
    p = GroupParams(3, 1)
    B = build_b(p)
    S = build_shift(p)
    assert B.rows == ((1, 6), (2, 1))
    assert mat_pow(B, 2).rows == ((4, 3), (1, 1))
    assert mat_pow(B, 3).rows == ((1, 0), (0, 1))
    assert S.rows == ((0, 6), (2, 0))
    assert mat_pow(S, 2).rows == ((3, 0), (0, 0))
    assert mat_pow(S, 3).rows == ((0, 0), (0, 0))
    assert build_y(p, 0).rows == ((6, 0), (0, 0))


@pytest.mark.parametrize("p,j", GRID)
def test_b_order_is_exactly_p_to_j(p, j):
    params = GroupParams(p, j)
    B = build_b(params)
    I = identity_matrix(params).rows
    assert mat_pow(B, params.b_order).rows == I
    for k in range(1, params.b_order):
        assert mat_pow(B, k).rows != I


@pytest.mark.parametrize("p,j", GRID)
def test_b_penultimate_power_corner_entry(p, j):
    params = GroupParams(p, j)
    top = mat_pow(build_b(params), params.b_order - 1)
    assert top.rows[0][0] == params.n + 1


@pytest.mark.parametrize("p,j", GRID)
def test_y_block_forms(p, j):
    params = GroupParams(p, j)
    y1 = build_y(params, 0)
    assert y1.rows[0][0] == 2 * params.n
    assert all(
        y1.rows[r][c] == 0 for r in range(params.dim) for c in range(params.dim)
        if (r, c) != (0, 0)
    )
    for t in range(1, j):
        scaled = mat_scale(p**t, build_y(params, t))
        assert scaled.rows[0][0] == params.n
        assert all(
            scaled.rows[r][c] == 0
            for r in range(params.dim)
            for c in range(params.dim)
            if (r, c) != (0, 0)
        )


@pytest.mark.parametrize("p,j", GRID)
def test_closed_forms_match_mat_pow(p, j):
    params = GroupParams(p, j)
    B = build_b(params)
    S = build_shift(params)
    for k in range(1, params.b_order + 1):
        assert shift_power_closed(params, k).rows == mat_pow(S, k).rows
    for k in range(1, params.b_order - 1):
        assert binomial_entry_closed(params, k).rows == mat_pow(B, k).rows


def test_y1_absorbs_b():
    params = GroupParams(5, 1)
    B = build_b(params)
    y1 = build_y(params, 0)
    assert mat_mul(B, y1).rows == y1.rows
    assert mat_mul(y1, B).rows == y1.rows


TABLE_GRID = [(3, 1), (5, 1), (3, 2), (7, 2)]


@pytest.mark.parametrize("p,j", TABLE_GRID)
def test_b_power_table_is_read_only_and_matches_mat_pow(p, j):
    params = GroupParams(p, j)
    B = build_b(params)
    table = b_power_table(params)
    assert table.shape == (params.b_order, params.dim, params.dim)
    assert table.dtype == np.int64
    for k in range(params.b_order):
        assert np.array_equal(table[k], mat_pow(B, k).array)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0


def _y_by_products(params, t):
    """Y(p^t) by the product loop over mat_pow(B, p^t): the oracle for build_y."""
    step = mat_pow(build_b(params), params.p ** t)
    total = identity_matrix(params)
    power = identity_matrix(params)
    for _ in range(params.p ** (params.j - t) - 1):
        power = mat_mul(power, step)
        total = mat_add(total, power)
    return total


@pytest.mark.parametrize("p,j", TABLE_GRID)
def test_build_y_matches_the_product_loop(p, j):
    params = GroupParams(p, j)
    for t in range(j + 1):
        assert build_y(params, t) == _y_by_products(params, t)


def _binomial_by_comb(params, k):
    """The closed form of binomial_entry_closed from math.comb, reduced by EndoMatrix."""
    d, pj = params.dim, params.n
    C = [comb(k, r) for r in range(d)]
    rows = [[0] * d for _ in range(d)]
    rows[0][0] = 1
    for c in range(1, d):
        rows[0][c] = -C[d - c] * pj
    for r in range(1, d):
        rows[r][0] = -C[r]
        for c in range(1, r + 1):
            rows[r][c] = C[r - c]
    return EndoMatrix(params, rows)


@pytest.mark.parametrize("p,j", [(5, 3), (3, 4)])
def test_pascal_binomial_matches_math_comb(p, j):
    # C(k, r) * p^j is far beyond int64 here; the Pascal row kept mod
    # p^{j+1} must still give the reduced closed form.
    params = GroupParams(p, j)
    assert comb(params.n - 2, params.dim // 2) * params.n > 2 ** 63
    for k in range(1, params.n - 1):
        assert binomial_entry_closed(params, k) == _binomial_by_comb(params, k)
