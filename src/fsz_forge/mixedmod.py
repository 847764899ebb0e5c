"""Exact arithmetic over Z_{p^{j+1}} x Z_p^(d-1): value types, powers, quotient orders.

Vectors carry one wide coordinate reduced mod p^{j+1} followed by d-1
coordinates reduced mod p, where d = p^j - 1.  Endomorphisms of that group
are d x d integer matrices reduced row-wise by the same moduli.  Such a
matrix is well defined only when every row-0 entry in columns >= 1 is
divisible by p^j: those columns receive order-p generators, so their
images must land in the p^j-torsion of the wide factor.  The same
divisibility makes every product independent of which integer lift of a
mod-p residue is used, which is what justifies multiplying canonical
residues directly.

Vectors and matrices share one stored form: a reduced, read-only int64
array of canonical residues, row r (coordinate r of a vector) reduced mod
row_modulus(r).  An array that int64 holds is reduced with numpy; other
input, such as nested lists or an integer past int64, is reduced once with
Python integers on entry.  Products run on the stored arrays elsewhere
(construction.right_product and the kernels of spgroup) and cannot wrap:
every stored entry is below top_modulus = p^{j+1}, so a dot product of
dim such pairs is below dim * top_modulus^2, which GroupParams keeps
below 2^62 (under the dimension guard DEFAULT_MAX_DIMENSION = 512 the
worst case, S(509,1), reaches about 3.4e13).  The constructor reduces
each result, and a matrix re-checks the invariant on its array.  Values
are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_MAX_DIMENSION = 512
# GroupParams keeps dim * top_modulus^2, which bounds every dot product of
# residues, below this.
_INT64_PRODUCT_BOUND = 2 ** 62


class ParameterError(ValueError):
    """Parameters outside the supported range."""


class MatrixInvariantError(ValueError):
    """An integer grid that is not a well defined endomorphism."""


class VerificationError(RuntimeError):
    """A result contradicts an identity the library is built on."""


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d:
            d += 1
            continue
        out.append(d)
        while n % d == 0:
            n //= d
    return out + [n] if n > 1 else out


@dataclass(frozen=True)
class GroupParams:
    """The defining pair (p, j) together with the sizes derived from it.

    p must be an odd prime and j a positive integer.  Derived fields:
    n = p^j (the power whose root-counting the construction targets),
    dim = p^j - 1 (number of vector coordinates), top_modulus = p^{j+1},
    b_order = p^j, group_order = p^{p^j + 2j - 1}.
    """

    p: int
    j: int
    n: int = field(init=False, compare=False, repr=False)
    dim: int = field(init=False, compare=False, repr=False)
    top_modulus: int = field(init=False, compare=False, repr=False)
    b_order: int = field(init=False, compare=False, repr=False)
    group_order: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # p^j - 1 >= max(p - 1, 2^j - 1): reject oversized input before the
        # trial division and before p ** j, which both grow without bound.
        guard = DEFAULT_MAX_DIMENSION
        if self.p - 1 > guard or self.j >= (guard + 1).bit_length():
            raise ParameterError(f"dimension p^j - 1 exceeds the size guard {guard}")
        if self.p < 3 or _prime_factors(self.p) != [self.p]:
            raise ParameterError(f"p must be an odd prime >= 3, got {self.p}")
        if self.j < 1:
            raise ParameterError(f"j must be a positive integer, got {self.j}")
        n = self.p ** self.j
        if n - 1 > guard:
            raise ParameterError(f"dimension p^j - 1 = {n - 1} exceeds the size guard {guard}")
        if (n - 1) * (n * self.p) ** 2 >= _INT64_PRODUCT_BOUND:
            raise ParameterError(
                f"S({self.p},{self.j}) is too large for int64 matrix products"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", n - 1)
        object.__setattr__(self, "top_modulus", n * self.p)
        object.__setattr__(self, "b_order", n)
        object.__setattr__(self, "group_order", self.p ** (n + 2 * self.j - 1))

    def row_modulus(self, r: int) -> int:
        return self.top_modulus if r == 0 else self.p

    @cached_property
    def row_moduli(self) -> np.ndarray:
        """Read-only int64 array of row_modulus(r) for every row r."""
        moduli = np.full(self.dim, self.p, dtype=np.int64)
        moduli[0] = self.top_modulus
        moduli.flags.writeable = False
        return moduli

    def describe(self) -> str:
        return f"S({self.p},{self.j})"


@dataclass(frozen=True, eq=False)
class _Residues:
    """The stored form of vectors (_ndim 1) and matrices (_ndim 2).

    array holds the canonical residues, reduced as the module docstring
    describes; equality and hashing are by value.
    """

    params: GroupParams
    array: np.ndarray

    def __post_init__(self) -> None:
        pr, grid = self.params, self.array
        moduli = pr.row_moduli if self._ndim == 1 else pr.row_moduli[:, None]
        if not (isinstance(grid, np.ndarray) and np.can_cast(grid.dtype, np.int64)):
            grid, moduli = np.array(grid, dtype=object), moduli.astype(object)
        if grid.shape != (pr.dim,) * self._ndim:
            raise ParameterError(f"expected shape {(pr.dim,) * self._ndim}, got {grid.shape}")
        reduced = (grid % moduli).astype(np.int64, copy=False)
        reduced.flags.writeable = False
        object.__setattr__(self, "array", reduced)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # Equal params give equal shapes, so the bytes decide.
        return self.params == other.params and self.array.tobytes() == other.array.tobytes()

    def __hash__(self) -> int:
        return hash((self.params, self.array.tobytes()))


class MixedVector(_Residues):
    """An element of the abelian group: dim coordinates as canonical residues."""

    _ndim = 1

    @property
    def coords(self) -> tuple[int, ...]:
        """The coordinates as Python ints, for output and index arithmetic."""
        return tuple(self.array.tolist())


def zero_vector(params: GroupParams) -> MixedVector:
    return MixedVector(params, np.zeros(params.dim, dtype=np.int64))


def basis_vector(params: GroupParams, i: int) -> MixedVector:
    """Standard basis vector e_{i+1}; i is a 0-based coordinate index."""
    if not 0 <= i < params.dim:
        raise ParameterError(f"basis index {i} out of range 0..{params.dim - 1}")
    coords = np.zeros(params.dim, dtype=np.int64)
    coords[i] = 1
    return MixedVector(params, coords)


class EndoMatrix(_Residues):
    """A dim x dim integer matrix with per-row moduli.

    Row 0 is reduced mod p^{j+1}, the others mod p.  Construction also
    enforces the well-definedness invariant: row-0 entries in columns >= 1
    must be divisible by p^j.
    """

    _ndim = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        pr = self.params
        bad = np.flatnonzero(self.array[0, 1:] % pr.n)
        if bad.size:
            c = int(bad[0]) + 1
            raise MatrixInvariantError(
                f"row 0 column {c} entry {int(self.array[0, c])} is not divisible "
                f"by p^j = {pr.n}; the grid is not a well defined endomorphism"
            )

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries as nested tuples of Python ints, for tests and output."""
        return tuple(map(tuple, self.array.tolist()))


def square_and_multiply(base, e: int, mul, one):
    """base^e for e >= 0 under the associative product mul, with identity one."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def quotient_order(params: GroupParams, A: np.ndarray) -> int:
    """|Z^d / L|, L spanned by the columns of A and of diag(row_moduli).

    L holds p^{j+1} Z^d, so the elimination runs mod top_modulus.  Each
    step pivots on an entry p^v * u of least valuation (zero counts as
    p^{j+1}), scales its row by u^-1, clears its column with row
    operations and drops its row and column: the row's other entries have
    valuation at least v, so column operations would clear them, and the
    pivot contributes Z / p^v.  Entries stay below top_modulus, so every
    product is under the bound GroupParams keeps.  So |ker M| is
    quotient_order(M) for an endomorphism M, since |im M| = |P| / |Z^d/L|,
    and the columns of W generate P iff quotient_order(W) == 1.
    """
    p, top = params.p, params.top_modulus
    # valuation[x] is the p-adic valuation of x, and j+1 for x = 0.
    valuation = sum((np.arange(top) % p ** t == 0).astype(np.int8) for t in range(1, params.j + 2))
    M = np.hstack([np.asarray(A, dtype=np.int64), np.diag(params.row_moduli)]) % top
    order = 1
    while len(M):
        val = valuation[M]
        r, c = np.unravel_index(np.argmin(val), val.shape)
        v = int(val[r, c])
        if v > params.j:
            return order * top ** len(M)
        pv = p ** v
        # Swap the pivot to (0, 0), then keep the block below and right of it.
        M[[0, r]] = M[[r, 0]]
        M[:, [0, c]] = M[:, [c, 0]]
        pivot = M[0, 1:] * pow(int(M[0, 0]) // pv, -1, top) % top
        M = (M[1:, 1:] - np.outer(M[1:, 0] // pv, pivot)) % top
        order *= pv
    return order
