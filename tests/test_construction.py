"""Automorphism matrix B, shift matrix S, and the Y endomorphisms."""

import itertools
from math import comb

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge import construction
from fsz_forge.construction import (
    b_power_table,
    binomial_entry_closed,
    build_b,
    build_shift,
    build_y,
    right_product,
    row_product,
    shift_power_closed,
    verify_construction,
)
from fsz_forge.mixedmod import EndoMatrix, GroupParams

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
    assert tf.mat_pow(B, 2).rows == ((4, 3), (1, 1))
    assert tf.mat_pow(B, 3).rows == ((1, 0), (0, 1))
    assert S.rows == ((0, 6), (2, 0))
    assert tf.mat_pow(S, 2).rows == ((3, 0), (0, 0))
    assert tf.mat_pow(S, 3).rows == ((0, 0), (0, 0))
    assert build_y(p, 0).rows == ((6, 0), (0, 0))


def _list_built_b(params):
    """B as nested Python lists, column c the image of generator c."""
    d, pj = params.dim, params.n
    rows = [[0] * d for _ in range(d)]
    for c in range(d):
        rows[c][c] = 1
    rows[1][0] = -1
    for c in range(1, d - 1):
        rows[c + 1][c] = 1
    rows[0][d - 1] = -pj
    return rows


@pytest.mark.parametrize("p,j", [(3, 1), (5, 2), (7, 2), (509, 1)])
def test_build_b_equals_the_list_built_grid(p, j):
    params = GroupParams(p, j)
    assert build_b(params) == EndoMatrix(params, _list_built_b(params))


@pytest.mark.parametrize("p,j", GRID)
def test_b_order_is_exactly_p_to_j(p, j):
    params = GroupParams(p, j)
    I = tf.identity_matrix(params).rows
    powers = list(itertools.islice(tf.mat_powers(build_b(params)), params.b_order + 1))
    assert powers[params.b_order].rows == I
    for k in range(1, params.b_order):
        assert powers[k].rows != I


@pytest.mark.parametrize("p,j", GRID)
def test_b_penultimate_power_corner_entry(p, j):
    params = GroupParams(p, j)
    top = tf.mat_pow(build_b(params), params.b_order - 1)
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
        scaled = EndoMatrix(params, p**t * build_y(params, t).array)
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
    S_powers = tf.mat_powers(build_shift(params))
    B_powers = tf.mat_powers(build_b(params))
    for k, S_k in zip(range(1, params.b_order + 1), itertools.islice(S_powers, 1, None)):
        assert shift_power_closed(params, k).rows == S_k.rows
    for k, B_k in zip(range(1, params.b_order - 1), itertools.islice(B_powers, 1, None)):
        assert binomial_entry_closed(params, k).rows == B_k.rows


def test_y1_absorbs_b():
    params = GroupParams(5, 1)
    B = build_b(params)
    y1 = build_y(params, 0)
    assert tf.mat_mul(B, y1).rows == y1.rows
    assert tf.mat_mul(y1, B).rows == y1.rows


TABLE_GRID = [(3, 1), (5, 1), (3, 2), (7, 2)]


@pytest.mark.parametrize("p,j", TABLE_GRID)
def test_b_power_table_is_read_only_and_matches_mat_pow(p, j):
    params = GroupParams(p, j)
    table = b_power_table(params)
    assert table.shape == (params.b_order, params.dim, params.dim)
    assert table.dtype == np.min_scalar_type(params.top_modulus - 1)
    for k, B_k in zip(range(params.b_order), tf.mat_powers(build_b(params))):
        assert np.array_equal(table[k], B_k.array)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0


def _y_by_products(params, t):
    """Y(p^t) by the product loop over tf.mat_pow(B, p^t): the oracle for build_y."""
    step = tf.mat_pow(build_b(params), params.p ** t)
    total = tf.identity_matrix(params)
    power = tf.identity_matrix(params)
    for _ in range(params.p ** (params.j - t) - 1):
        power = tf.mat_mul(power, step)
        total = EndoMatrix(params, total.array + power.array)
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


def _endomorphisms(params, rng):
    """B, S, a random well defined endomorphism, and one each with a zero and a dense column."""
    d, p = params.dim, params.p
    R = rng.integers(0, p, size=(d, d))
    R[0, 0] = rng.integers(0, params.top_modulus)
    R[0, 1:] *= params.n
    zero_column = R.copy()
    zero_column[:, d // 2] = 0
    dense_column = np.zeros((d, d), dtype=np.int64)
    dense_column[:, 0] = rng.integers(1, p, size=d)
    b_dense_last = build_b(params).array.copy()
    b_dense_last[1:, -1] = rng.integers(1, p, size=d - 1)
    b_dense_last[0, -1] = params.n * rng.integers(1, p)
    return [build_b(params), build_shift(params)] + [
        EndoMatrix(params, A) for A in (R, zero_column, dense_column, b_dense_last)
    ]


@pytest.mark.parametrize("p,j", TABLE_GRID)
def test_right_product_matches_the_dense_product(p, j):
    # A column of M with no nonzero entry is all padding and must give
    # zeros; one dense column among columns of two nonzeros makes every
    # other column padded to depth dim.  row_product reads the same layers
    # off the rows of M, so the rows of X^T, X and one vector run through
    # it too, and a row of X M^T reduces per coordinate.
    params = GroupParams(p, j)
    rng = np.random.default_rng(p * 10 + j)
    Ms = _endomorphisms(params, rng)
    assert not Ms[3].array[:, params.dim // 2].any() and Ms[4].array[:, 0].all()
    assert Ms[5].array[:, -1].all() and (Ms[5].array[:, :-1] != 0).sum(axis=0).max() == 2
    moduli = params.row_moduli[:, None]
    for X in [M.array for M in Ms] + [tf.identity_matrix(params).array]:
        for M in Ms:
            want = np.remainder(X @ M.array, moduli)
            assert np.array_equal(right_product(M)(X), want)
            out = np.full_like(X, -1)
            right_product(M)(X, out=out)
            assert np.array_equal(out, want)
            assert np.array_equal(row_product(M)(X.T).T, np.remainder(M.array @ X, moduli))
            assert np.array_equal(row_product(M)(X[0]), M.array @ X[0] % params.row_moduli)


def _failed(params):
    return {c.name: c.detail for c in verify_construction(params) if not c.passed}


@pytest.mark.parametrize("p,j", [(3, 2), (5, 1), (7, 1)])
def test_a_wrong_shift_closed_form_at_one_k_fails_only_its_check(monkeypatch, p, j):
    params = GroupParams(p, j)
    real = construction._shift_power_array
    for bad_k in (1, params.n - 1, params.n):

        def corrupted(pr, k, bad_k=bad_k):
            A = real(pr, k)
            if k == bad_k:
                A[-1, -1] = (A[-1, -1] + 1) % pr.p
            return A

        monkeypatch.setattr(construction, "_shift_power_array", corrupted)
        assert _failed(params) == {"shift_power_closed_agrees": f"disagreement at k = [{bad_k}]"}


@pytest.mark.parametrize("p,j", [(3, 2), (5, 1), (7, 1)])
def test_a_wrong_binomial_closed_form_at_one_k_fails_only_its_check(monkeypatch, p, j):
    # C(k, 1) = k enters B^k below the diagonal, so a wrong Pascal row k
    # moves only the closed form of B^k.
    params = GroupParams(p, j)
    real = construction._pascal_rows
    for bad_k in (1, params.n - 2):

        def corrupted(pr, bad_k=bad_k):
            for k, row in enumerate(real(pr)):
                if k == bad_k:
                    row = row.copy()
                    row[1] += 1
                yield row

        monkeypatch.setattr(construction, "_pascal_rows", corrupted)
        assert _failed(params) == {"binomial_closed_agrees": f"disagreement at k = [{bad_k}]"}


@pytest.fixture
def serve_table(monkeypatch):
    """Hand verify_construction a changed B^k table, with no Y(p^t) cached from either table."""

    def serve(table):
        monkeypatch.setattr(construction, "b_power_table", lambda pr: table)
        build_y.cache_clear()

    yield serve
    build_y.cache_clear()


@pytest.mark.parametrize("p,j", [(3, 2), (5, 1), (7, 1)])
def test_a_wrong_last_power_corner_fails_only_its_check(serve_table, p, j):
    # Any other residue at (0,0) of B^{p^j-1} would also move B^{p^j}, so
    # the corner gets the unreduced lift pj + 1 + top_modulus: every other
    # check reduces the entry and sees the right power.
    params = GroupParams(p, j)
    table = b_power_table(params).copy()
    table[-1, 0, 0] += params.top_modulus
    serve_table(table)
    pj = params.n
    assert _failed(params) == {
        "b_last_power_corner": f"(0,0) of B^{pj - 1} = {pj + 1 + params.top_modulus}, expected {pj + 1}"
    }


@pytest.mark.parametrize("p,j", [(3, 2), (5, 1)])
def test_a_premature_identity_in_the_table_is_named(serve_table, p, j):
    params = GroupParams(p, j)
    table = b_power_table(params).copy()
    table[[1, params.n - 1]] = np.eye(params.dim, dtype=np.int64)
    serve_table(table)
    want = f"premature identity at powers [1, {params.n - 1}], top power equal: False"
    assert _failed(params)["b_order_exact"] == want
