"""Mixed-modulus vectors, matrices, and the parameter type."""

import random

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge import mixedmod, spgroup
from fsz_forge.construction import build_b, right_product, row_product
from fsz_forge.mixedmod import (
    EndoMatrix,
    GroupParams,
    MatrixInvariantError,
    MixedVector,
    ParameterError,
    basis_vector,
    quotient_order,
    square_and_multiply,
    zero_vector,
)


def test_params_derived_quantities():
    p = GroupParams(3, 2)
    assert p.n == 9
    assert p.dim == 8
    assert p.top_modulus == 27
    assert p.b_order == 9
    assert p.group_order == 3**12
    assert p.describe() == "S(3,2)"
    assert p.row_modulus(0) == 27
    assert all(p.row_modulus(i) == 3 for i in range(1, p.dim))


@pytest.mark.parametrize("p,j", [(4, 1), (2, 1), (1, 1), (9, 1), (0, 2), (511, 1), (513, 1)])
def test_params_reject_bad_prime(p, j):
    with pytest.raises(ParameterError):
        GroupParams(p, j)


@pytest.mark.parametrize("j", [0, -1])
def test_params_reject_bad_j(j):
    with pytest.raises(ParameterError):
        GroupParams(3, j)


def test_params_reject_oversized_dimension():
    with pytest.raises(ParameterError, match="size guard"):
        GroupParams(3, 6)


def test_params_reject_int64_overflow_at_construction(monkeypatch):
    # 5407 is the smallest prime p with (p - 1) * p^4 >= 2^62.
    monkeypatch.setattr(mixedmod, "DEFAULT_MAX_DIMENSION", 10**4)
    with pytest.raises(ParameterError, match="int64"):
        GroupParams(5407, 1)
    assert GroupParams(5399, 1).dim == 5398


def test_vector_reduces_per_row_modulus():
    p = GroupParams(3, 1)
    assert MixedVector(p, (10, 5)).coords == (1, 2)
    assert MixedVector(p, (-1, -1)).coords == (8, 2)


def test_vector_rejects_wrong_length():
    p = GroupParams(3, 1)
    with pytest.raises(ParameterError):
        MixedVector(p, (1,))


def test_vector_arithmetic():
    p = GroupParams(5, 1)
    v = MixedVector(p, (7, 1, 2, 3))
    w = MixedVector(p, (20, 4, 4, 4))
    # The group operation and its multiples: the constructor reduces the int64 sums.
    assert MixedVector(p, v.array + w.array).coords == (2, 0, 1, 2)
    assert MixedVector(p, 3 * v.array).coords == (21, 3, 1, 4)
    assert MixedVector(p, v.array + zero_vector(p).array) == v
    assert basis_vector(p, 0).coords == (1, 0, 0, 0)
    assert basis_vector(p, 3).coords == (0, 0, 0, 1)


def test_matrix_divisibility_invariant():
    p = GroupParams(3, 1)
    with pytest.raises(MatrixInvariantError, match="row 0 column 1"):
        EndoMatrix(p, ((1, 1), (0, 1)))
    # multiples of p^j in row 0 beyond column 0 are fine
    EndoMatrix(p, ((1, 6), (2, 1)))


def _zero_matrix(p):
    return EndoMatrix(p, np.zeros((p.dim, p.dim), dtype=np.int64))


def _apply(M, v):
    """M v by the layered row product, as a vector."""
    return MixedVector(M.params, row_product(M)(v.array))


def test_matrix_apply_and_identity():
    # M is B of S(3,1); the zero matrix is all padding.
    p = GroupParams(3, 1)
    M = EndoMatrix(p, ((1, 6), (2, 1)))
    assert M == build_b(p)
    v = MixedVector(p, (2, 1))
    assert _apply(M, v).coords == ((2 + 6) % 9, (4 + 1) % 3)
    assert _apply(tf.identity_matrix(p), v) == v
    assert _apply(_zero_matrix(p), v) == zero_vector(p)


def test_matrix_ring_operations_agree_with_apply():
    # right_product is the ring product, the constructor reduces sums and
    # multiples, and row_product applies each to a vector.
    p = GroupParams(5, 1)
    rng = random.Random(7)

    def random_matrix():
        rows = []
        for r in range(p.dim):
            row = []
            for c in range(p.dim):
                e = rng.randrange(p.row_modulus(r))
                if r == 0 and c > 0:
                    e = (e * p.n) % p.top_modulus
                row.append(e)
            rows.append(tuple(row))
        return EndoMatrix(p, tuple(rows))

    for _ in range(25):
        M, N = random_matrix(), random_matrix()
        v = MixedVector(p, tuple(rng.randrange(p.row_modulus(r)) for r in range(p.dim)))
        MN = EndoMatrix(p, right_product(N)(M.array))
        assert _apply(MN, v) == _apply(M, _apply(N, v))
        added = _apply(EndoMatrix(p, M.array + N.array), v)
        assert added == MixedVector(p, _apply(M, v).array + _apply(N, v).array)
        assert _apply(EndoMatrix(p, 3 * M.array), v) == MixedVector(p, 3 * _apply(M, v).array)


def test_mat_pow_matches_repeated_multiplication():
    # The matrix power by square_and_multiply over the oracle's product,
    # from e = 0, where it is the identity.
    p = GroupParams(3, 2)
    M = EndoMatrix(
        p,
        tuple(
            tuple(
                (9 if (r == 0 and c > 0) else 1) if (r + c) % 3 == 0 else 0
                for c in range(p.dim)
            )
            for r in range(p.dim)
        ),
    )
    acc = tf.identity_matrix(p)
    for e in range(7):
        assert square_and_multiply(M, e, tf.mat_mul, tf.identity_matrix(p)).rows == acc.rows
        acc = tf.mat_mul(acc, M)


def _reference_mul(M, N):
    """Row-by-column product on Python integers, reduced by the constructor."""
    cols = tuple(zip(*N.rows))
    return EndoMatrix(
        M.params,
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in M.rows),
    )


def _reference_apply(M, v):
    return MixedVector(
        M.params, tuple(sum(a * b for a, b in zip(row, v.coords)) for row in M.rows)
    )


def _random_well_defined(p, rng):
    """Random residues; row-0 columns >= 1 are multiples of p^j."""
    rows = [[rng.randrange(p.row_modulus(r)) for _ in range(p.dim)] for r in range(p.dim)]
    rows[0][1:] = [rng.randrange(p.p) * p.n for _ in range(p.dim - 1)]
    return EndoMatrix(p, tuple(map(tuple, rows)))


def _random_vector(p, rng):
    return MixedVector(p, tuple(rng.randrange(p.row_modulus(r)) for r in range(p.dim)))


@pytest.mark.parametrize("pj", [(3, 1), (5, 2), (3, 3), (7, 2)])
def test_int64_products_match_the_python_reference(pj):
    # right_product and row_product on dense matrices, and a chain of
    # right products as b_power_table builds the powers of B.
    p = GroupParams(*pj)
    rng = random.Random(sum(pj))
    for _ in range(4):
        M, N = _random_well_defined(p, rng), _random_well_defined(p, rng)
        v = _random_vector(p, rng)
        assert EndoMatrix(p, right_product(N)(M.array)) == _reference_mul(M, N)
        assert _apply(M, v) == _reference_apply(M, v)
    acc, X = tf.identity_matrix(p), tf.identity_matrix(p).array
    for e in range(6):
        assert EndoMatrix(p, X) == acc
        acc, X = _reference_mul(acc, M), right_product(M)(X)


def test_int64_apply_matches_the_python_reference_at_the_largest_guarded_size():
    # dim 508 and top modulus 509^2 give the largest dim * top^2 that the
    # default dimension guard admits; entries sit at or near their moduli.
    # The dense M sums dim products per entry in the row product.  The
    # one-row B step of the scalar arithmetic sums two; its first steps
    # meet the dense reference, and p^j of them return to the start.
    p = GroupParams(509, 1)
    assert p.dim == 508
    rng = random.Random(509)
    top = p.top_modulus
    rows = [[p.p - 1 - rng.randrange(3) for _ in range(p.dim)] for _ in range(p.dim)]
    rows[0] = [top - 1 - rng.randrange(3)] + [(p.p - 1) * p.n] * (p.dim - 1)
    M = EndoMatrix(p, tuple(map(tuple, rows)))
    v = MixedVector(p, (top - 1,) + tuple(p.p - 1 - rng.randrange(3) for _ in range(p.dim - 1)))
    assert _apply(M, v) == _reference_apply(M, v)
    w = _random_vector(p, rng)
    assert _apply(M, w) == _reference_apply(M, w)
    B, step = build_b(p), spgroup._b_step(p)
    for x in (v, w):
        y = x.array
        for k in range(p.b_order):
            before, y = y, step(y)
            assert y.dtype == np.int64 and MixedVector(p, y).array.tolist() == y.tolist()
            if k < 3:
                assert MixedVector(p, y) == _reference_apply(B, MixedVector(p, before))
        assert MixedVector(p, y) == x


def test_matrix_array_is_read_only():
    p = GroupParams(3, 1)
    M = EndoMatrix(p, ((1, 6), (2, 1)))
    assert M.array.tolist() == [[1, 6], [2, 1]]
    with pytest.raises(ValueError):
        M.array[0, 0] = 0
    with pytest.raises(ValueError):
        p.row_moduli[0] = 1


def test_matrix_from_any_grid_is_one_value():
    p = GroupParams(3, 1)
    big = 2 ** 64 + 5
    M = EndoMatrix(p, ((big, 3 * big + 3), (-big, big + 1)))
    assert M.rows == ((big % 9, (3 * big + 3) % 9), (-big % 3, (big + 1) % 3))
    A = np.array(M.rows, dtype=np.int64)
    N = EndoMatrix(p, A + np.array([[9, 18], [-3, 30]], dtype=np.int64))
    assert M == N and hash(M) == hash(N)
    assert M != tf.identity_matrix(p)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_matrix_from_a_narrower_integer_array_equals_the_int64_one(dtype):
    # b_power_table stores its powers in the narrowest unsigned dtype.
    p = GroupParams(3, 2)
    rng = np.random.default_rng(32)
    A = rng.integers(0, 256, size=(p.dim, p.dim))
    A[0, 1:] = p.n * rng.integers(0, 256 // p.n, size=p.dim - 1)
    M = EndoMatrix(p, A.astype(dtype))
    assert M == EndoMatrix(p, A) and M.array.dtype == np.int64
    assert MixedVector(p, A[0].astype(dtype)) == MixedVector(p, A[0])


def test_a_uint64_entry_past_int64_reduces_exactly():
    # int64 cannot hold every uint64, so the grid takes the Python-int route.
    p = GroupParams(3, 1)
    grid = [[2 ** 63 + 5, 3 * 2 ** 62], [2 ** 64 - 1, 7]]
    M = EndoMatrix(p, np.array(grid, dtype=np.uint64))
    assert M.rows == (((2 ** 63 + 5) % 9, 3 * 2 ** 62 % 9), ((2 ** 64 - 1) % 3, 1))
    assert M == EndoMatrix(p, grid)


def test_vector_from_any_integers_is_one_value():
    p = GroupParams(5, 1)
    big = 2 ** 64 + 5
    v = MixedVector(p, (big, -big, -1, 7))
    assert v.coords == (big % 25, -big % 5, 4, 2)
    assert all(type(c) is int for c in v.coords)
    w = MixedVector(p, np.array(v.coords, dtype=np.int64) + np.array([-25, 10, 5, -15]))
    assert v == w and hash(v) == hash(w)
    assert v != zero_vector(p)


def test_vector_array_is_read_only():
    p = GroupParams(3, 1)
    v = MixedVector(p, (10, 5))
    assert v.array.dtype == np.int64 and v.array.tolist() == [1, 2]
    with pytest.raises(ValueError):
        v.array[0] = 0
    # A caller's int64 array is copied, not adopted.
    raw = np.array([1, 2], dtype=np.int64)
    u = MixedVector(p, raw)
    raw[0] = 0
    assert u.coords == (1, 2)


def _kernel_size(M):
    """|{v in P : Mv = 0}| by applying M to every vector of P."""
    p = M.params
    grids = np.meshgrid(*[np.arange(m) for m in p.row_moduli.tolist()], indexing="ij")
    V = np.stack([g.ravel() for g in grids], axis=1)
    return int(((V @ M.array.T) % p.row_moduli == 0).all(axis=1).sum())


@pytest.mark.parametrize("pj", [(3, 1), (5, 1), (3, 2)])
def test_quotient_order_is_the_kernel_size(pj):
    p = GroupParams(*pj)
    rng = random.Random(sum(pj) * 31)
    size = int(np.prod(p.row_moduli))
    zero, one = _zero_matrix(p), tf.identity_matrix(p)
    assert quotient_order(p, zero.array) == _kernel_size(zero) == size
    assert quotient_order(p, one.array) == _kernel_size(one) == 1
    for trial in range(12):
        M = _random_well_defined(p, rng)
        if trial % 3 == 1:
            grid = M.array.copy()
            grid[:, rng.randrange(p.dim)] = 0
            M = EndoMatrix(p, grid)
        elif trial % 3 == 2:
            # p times a matrix: every row >= 1 vanishes and row 0 gains a factor p.
            M = EndoMatrix(p, p.p * M.array)
        assert quotient_order(p, M.array) == _kernel_size(M), trial


@pytest.mark.parametrize("pj", [(3, 1), (5, 1), (3, 2)])
def test_quotient_order_decides_generation(pj):
    p = GroupParams(*pj)
    e0 = basis_vector(p, 0).array[:, None]
    assert quotient_order(p, tf.identity_matrix(p).array) == 1
    # e_0 alone generates only the wide factor, of index p^(dim - 1).
    assert quotient_order(p, e0) == p.p ** (p.dim - 1)
    assert quotient_order(p, np.zeros((p.dim, 0), dtype=np.int64)) == int(np.prod(p.row_moduli))
