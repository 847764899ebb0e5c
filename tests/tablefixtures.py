"""Multiplication-table builders, corrupted fixtures, scalar order and
power oracles, a lexicographic element oracle, random S(p,j) elements and
the dense matrix oracle shared by tests.

Tables are lists of rows of 0-based indices; table[a][b] is the product
a*b.  Builders return plain lists so tests can corrupt copies freely.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from fsz_forge.mixedmod import EndoMatrix, GroupParams, MixedVector
from fsz_forge.spgroup import SElement


def cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(n: int) -> list[list[int]]:
    """Dihedral group of order 2n; index f*n + r encodes s^f r^r."""
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        fi, ri = divmod(i, n)
        for k in range(size):
            fk, rk = divmod(k, n)
            # s^fi r^ri * s^fk r^rk = s^(fi+fk) r^(rk - ri if fk else ri + rk)
            f = (fi + fk) % 2
            r = (rk - ri) % n if fk else (ri + rk) % n
            table[i][k] = f * n + r
    return table


def direct_product(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    n1, n2 = len(t1), len(t2)
    size = n1 * n2
    table = [[0] * size for _ in range(size)]
    for a in range(size):
        a1, a2 = divmod(a, n2)
        for b in range(size):
            b1, b2 = divmod(b, n2)
            table[a][b] = t1[a1][b1] * n2 + t2[a2][b2]
    return table


def relabel(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Apply the bijection perm to element names; an isomorphic table."""
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def random_group_table(rng: random.Random) -> list[list[int]]:
    """A valid group table of order <= 64, relabeled by a random bijection."""
    bases = [
        cyclic(rng.randrange(2, 33)),
        dihedral(rng.randrange(3, 17)),
        direct_product(cyclic(rng.randrange(2, 9)), cyclic(rng.randrange(2, 9))),
        direct_product(dihedral(4), cyclic(rng.randrange(2, 5))),
    ]
    table = rng.choice(bases)
    perm = list(range(len(table)))
    rng.shuffle(perm)
    return relabel(table, perm)


def scalar_order(G, x) -> int:
    """The order of the element x of G, by multiplying by x until the identity."""
    order, y, one = 1, x, G.to_element(G.identity_index)
    while y != one:
        y, order = G.multiply(y, x), order + 1
    return order


def repeated_power(G, x, n: int):
    """x^n by |n| multiplications by x, or by its inverse when n < 0."""
    y, step = G.to_element(G.identity_index), x if n >= 0 else G.invert(x)
    for _ in range(abs(n)):
        y = G.multiply(y, step)
    return y


def lexicographic_elements(params: GroupParams):
    """Every element of S(p,j) once, lexicographic on (k, coords)."""
    ranges = [range(params.row_modulus(r)) for r in range(params.dim)]
    for k in range(params.b_order):
        for coords in itertools.product(*ranges):
            yield SElement(MixedVector(params, coords), k)


def random_elements(params: GroupParams, rng: random.Random, count: int) -> list[SElement]:
    """count uniform elements, one randrange call per coordinate, b-exponent last."""
    out = []
    for _ in range(count):
        coords = [rng.randrange(params.row_modulus(r)) for r in range(params.dim)]
        out.append(SElement(MixedVector(params, np.array(coords, dtype=np.int64)),
                            rng.randrange(params.b_order)))
    return out


def identity_matrix(params: GroupParams) -> EndoMatrix:
    return EndoMatrix(params, np.eye(params.dim, dtype=np.int64))


def mat_mul(M: EndoMatrix, N: EndoMatrix) -> EndoMatrix:
    """M N by row-by-column sums of Python ints, reduced by the EndoMatrix constructor."""
    cols = list(zip(*N.rows))
    return EndoMatrix(M.params, [[sum(a * b for a, b in zip(row, col)) for col in cols]
                                 for row in M.rows])


def mat_powers(M: EndoMatrix):
    """M^0, M^1, M^2, ... by repeated mat_mul: the dense oracle for powers of B and S."""
    power = identity_matrix(M.params)
    while True:
        yield power
        power = mat_mul(power, M)


def mat_pow(M: EndoMatrix, e: int) -> EndoMatrix:
    return next(itertools.islice(mat_powers(M), e, None))


# Row 1 repeats the entry 1, violating the Latin-square property.
LATIN_VIOLATION = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]

# Subtraction mod 5 is a quasigroup (Latin square) with no two-sided identity.
NO_IDENTITY = [[(a - b) % 5 for b in range(5)] for a in range(5)]

# A Latin square with identity 0 that fails associativity at (1,1,2).
NON_ASSOCIATIVE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]
