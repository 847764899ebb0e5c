"""Builders for the defining matrices of the construction and their checks.

The outer automorphism sends the wide generator a_1 to a_1*a_2^{-1}, each
middle generator a_k to a_k*a_{k+1}, and the last generator to itself
times a_1^{-p^j}.  Its matrix B, the shift part S = B - I, and the power
sums Y(p^t) = sum of B^{m*p^t} drive everything else in the package.
Closed forms for powers of S and B act as independent oracles against
the computed powers; verify_construction cross-checks the two routes and
the block identities that the counting layer relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mixedmod import EndoMatrix, GroupParams, ParameterError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def build_b(params: GroupParams) -> EndoMatrix:
    """Matrix of the outer automorphism, columns are generator images."""
    A = np.eye(params.dim, dtype=np.int64) + np.eye(params.dim, k=-1, dtype=np.int64)
    A[1, 0] = -1
    A[0, -1] = -params.n
    return EndoMatrix(params, A)


def build_shift(params: GroupParams) -> EndoMatrix:
    """S = B - I, the nilpotent part of the automorphism matrix."""
    return EndoMatrix(params, build_b(params).array - np.eye(params.dim, dtype=np.int64))


def _shift_power_array(params: GroupParams, k: int) -> np.ndarray:
    """The residues of S^k, 1 <= k <= p^j, without any multiplication.

    Each power shifts the previous one left a column, zeroes the last
    column and negates whatever enters column 0.  The surviving pattern:
    row 0 keeps a single entry -p^j at column dim-k (+p^j once it reaches
    column 0 at k = p^j - 1), each lower row r keeps a 1 at column r-k
    (-1 when that column is 0), and S^{p^j} is the zero matrix.
    """
    d, pj = params.dim, params.n
    if not 1 <= k <= pj:
        raise ParameterError(f"k = {k} outside 1..{pj}")
    A = np.zeros((d, d), dtype=np.int64)
    if k <= d - 1:
        A[0, d - k] = -pj % params.top_modulus
        A[k, 0] = params.p - 1
    elif k == d:
        A[0, 0] = pj
    below = np.arange(k + 1, d)
    A[below, below - k] = 1
    return A


def shift_power_closed(params: GroupParams, k: int) -> EndoMatrix:
    """Closed form for S^k, 1 <= k <= p^j, as _shift_power_array builds it."""
    return EndoMatrix(params, _shift_power_array(params, k))


def _pascal_rows(params: GroupParams):
    """C(k, 0..dim-1) mod p^{j+1} for k = 0, 1, 2, ..., by Pascal's rule.

    Every entry stays below top_modulus, so no binomial leaves int64.
    """
    row = np.zeros(params.dim, dtype=np.int64)
    row[0] = 1
    while True:
        yield row
        row = np.append(row[:1], row[1:] + row[:-1]) % params.top_modulus


def _binomial_array(params: GroupParams, row: np.ndarray) -> np.ndarray:
    """The reduced residues of binomial_entry_closed, filled from row = C(k, .)."""
    r = np.arange(params.dim)
    A = np.tril(row[r[:, None] - r])
    A[:, 0] = -row
    A[0, 0] = 1
    A[0, 1:] = -params.n * row[:0:-1]
    return np.remainder(A, params.row_moduli[:, None], out=A)


def binomial_entry_closed(params: GroupParams, k: int) -> EndoMatrix:
    """Closed form for B^k, 1 <= k <= p^j - 2, from binomial coefficients.

    With 0-based indices: entry (0,0) is 1, (0,c) for c >= 1 is
    -C(k, dim-c)*p^j, (r,0) for r >= 1 is -C(k, r), (r,c) inside the band
    c <= r is C(k, r-c), and everything above the band vanishes.  Row 0
    is reduced mod p^{j+1} and the others mod p, so C(k, .) mod p^{j+1},
    one Pascal row, determines every entry.
    """
    pj = params.n
    if not 1 <= k <= pj - 2:
        raise ParameterError(f"k = {k} outside 1..{pj - 2}")
    row = next(itertools.islice(_pascal_rows(params), k, None))
    return EndoMatrix(params, _binomial_array(params, row))


def _layered_product(A: np.ndarray, moduli: np.ndarray):
    """X -> X A reduced by moduli, for int64 residue arrays X.

    Layer i holds the i-th nonzero of every column of A, its row and its
    weight, padded with weight 0 where a column has fewer, so X A is the
    sum over layers of X[..., rows_i] * weights_i: O(len(X) * dim * depth),
    the depth being the most nonzeros in a column.  Each layer is gathered
    and scaled in place, the first in the result and the others in one
    scratch array per call.
    """
    nonzero = A != 0
    depth = max(1, int(nonzero.sum(axis=0).max()))
    # A stable sort of each column's zero flags puts its nonzero rows first.
    rows = np.argsort(~nonzero, axis=0, kind="stable")[:depth]
    weights = np.take_along_axis(A, rows, axis=0)
    first, rest = (rows[0], weights[0]), list(zip(rows[1:], weights[1:]))

    def times(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Each entry sums at most dim products of residues below
        # top_modulus, under the GroupParams bound dim * top_modulus^2 < 2^62.
        # The indices are in range, so mode="clip" only spares take a buffer.
        out = X.take(first[0], axis=-1, out=out, mode="clip")
        out *= first[1]
        scratch = np.empty_like(out) if rest else None
        for r, w in rest:
            X.take(r, axis=-1, out=scratch, mode="clip")
            scratch *= w
            out += scratch
        out %= moduli
        return out

    return times


def right_product(M: EndoMatrix):
    """X -> X M reduced row-wise, for dim x dim residue arrays X: 2 layers for B, 1 for S."""
    return _layered_product(M.array, M.params.row_moduli[:, None])


def row_product(M: EndoMatrix):
    """X -> X M^T, M applied to each residue row of X (or to one vector), by M's rows."""
    return _layered_product(M.array.T, M.params.row_moduli)


@lru_cache(maxsize=None)
def b_power_table(params: GroupParams) -> np.ndarray:
    """B^k for k = 0..p^j-1, stacked as a read-only (p^j, dim, dim) array.

    One int64 chain B^k = B^{k-1} B of right_products; each canonical
    residue is stored in the narrowest unsigned dtype, which readers widen.
    The p^j * dim^2 entries are read only by verify_construction, build_y
    and the bulk kernels of SpjGroup; the scalar multiply, invert and
    parse_element apply B to their one row in sparse steps instead.
    """
    d = params.dim
    times_b = right_product(build_b(params))
    table = np.empty((params.b_order, d, d), dtype=np.min_scalar_type(params.top_modulus - 1))
    prev, cur = np.eye(d, dtype=np.int64), np.empty((d, d), dtype=np.int64)
    table[0] = prev
    for k in range(1, params.b_order):
        table[k] = times_b(prev, out=cur)
        prev, cur = cur, prev
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def build_y(params: GroupParams, t: int) -> EndoMatrix:
    """Power sum Y(p^t) = sum over m < p^{j-t} of B^{m*p^t}.

    The summands are every p^t-th row of b_power_table.  Each entry is
    below top_modulus, so the int64 sum stays below
    b_order * top_modulus <= (dim + 1) * top_modulus < 2^62 before the
    reduction.  For t = j the sum degenerates to the single summand B^0;
    taking Y(p^j) = I makes the p^j-th power formula uniform in the b-order.
    """
    if not 0 <= t <= params.j:
        raise ParameterError(f"t = {t} outside 0..{params.j}")
    return EndoMatrix(params, b_power_table(params)[:: params.p ** t].sum(axis=0, dtype=np.int64))


def _is_corner_block(params: GroupParams, A: np.ndarray, corner: int) -> bool:
    """True when (0,0) of the residue array A equals corner and every other entry is zero."""
    return bool(A[0, 0] == corner % params.top_modulus and not A.ravel()[1:].any())


def verify_construction(params: GroupParams) -> tuple[CheckResult, ...]:
    """Cross-check every identity the matrices must satisfy, sorted by name.

    Checks: (a) the automorphism matrix has multiplicative order exactly
    p^j; (b) the (0,0) entry of B^{p^j-1} is p^j + 1; (c) Y(1) is the
    corner block with 2p^j; (d) p^t * Y(p^t) is the corner block with p^j
    for 0 < t < j; (e,f) the closed forms match the computed powers of S
    and B; (g) Y(1) absorbs multiplication by B on both sides; (h) the
    row-0 divisibility invariant holds for every power of B.  B^k for
    k < p^j comes from b_power_table, B^{p^j} is one more right_product,
    and S^k from one chain of right_products S, S^2, ..., S^{p^j}.
    """
    pj = params.n
    ident = np.eye(params.dim, dtype=np.int64)
    B = build_b(params)
    S = build_shift(params)
    table = b_power_table(params)
    last = right_product(B)(table[-1].astype(np.int64))
    last_is_ident = np.array_equal(last, ident)

    results = []

    # One power at a time: a comparison of the whole table would hold p^j * dim^2 bytes.
    premature = [k for k in range(1, pj) if np.array_equal(table[k], ident)]
    order_ok = not premature and last_is_ident
    results.append(
        CheckResult(
            "b_order_exact",
            order_ok,
            f"B^{pj} = I and no smaller positive power is I"
            if order_ok
            else f"premature identity at powers {premature}, top power equal: {last_is_ident}",
        )
    )

    corner = int(table[pj - 1, 0, 0])
    results.append(
        CheckResult(
            "b_last_power_corner",
            corner == pj + 1,
            f"(0,0) of B^{pj - 1} = {corner}, expected {pj + 1}",
        )
    )

    y1 = build_y(params, 0).array
    results.append(
        CheckResult(
            "y1_block_form",
            _is_corner_block(params, y1, 2 * pj),
            f"Y(1) corner entry {int(y1[0, 0])}, expected {2 * pj} with zeros elsewhere",
        )
    )

    moduli = params.row_moduli[:, None]
    bad_t = [
        t
        for t in range(1, params.j)
        if not _is_corner_block(params, params.p ** t * build_y(params, t).array % moduli, pj)
    ]
    if params.j == 1:
        yp_detail = "vacuous, no t in range 1..j-1"
    elif bad_t:
        yp_detail = f"failing t values: {bad_t}"
    else:
        yp_detail = f"p^t * Y(p^t) is the p^j corner block for t in 1..{params.j - 1}"
    results.append(CheckResult("yp_scaled_block_forms", not bad_t, yp_detail))

    times_s = right_product(S)
    S_powers = itertools.accumulate(range(pj - 1), lambda X, _: times_s(X), initial=S.array)
    rows = itertools.islice(_pascal_rows(params), 1, pj - 1)
    closed_forms = {
        ("shift_power_closed_agrees", "S", pj): [
            k for k, S_k in enumerate(S_powers, start=1)
            if not np.array_equal(_shift_power_array(params, k), S_k)
        ],
        ("binomial_closed_agrees", "B", pj - 2): [
            k for k, row in enumerate(rows, start=1)
            if not np.array_equal(_binomial_array(params, row), table[k])
        ],
    }
    for (name, base, top_k), bad_k in closed_forms.items():
        results.append(
            CheckResult(
                name,
                not bad_k,
                f"closed form matches the computed {base}^k for k = 1..{top_k}"
                if not bad_k
                else f"disagreement at k = {bad_k}",
            )
        )

    # B Y(1) applies B to each column of Y(1), that is to each row of Y(1)^T.
    fixed = all(np.array_equal(Z, y1) for Z in (row_product(B)(y1.T).T, right_product(B)(y1)))
    results.append(
        CheckResult(
            "y1_b_fixed_point",
            fixed,
            "B*Y(1) = Y(1) = Y(1)*B" if fixed else "Y(1) is not a two-sided fixed point",
        )
    )

    # The powers are raw arrays, never passed through the EndoMatrix
    # constructor, so the invariant is checked here.
    row0 = np.vstack([table[:, 0, 1:], last[0, 1:]])
    bad_pow = np.flatnonzero((row0 % pj).any(axis=1)).tolist()
    results.append(
        CheckResult(
            "power_divisibility_invariant",
            not bad_pow,
            f"row-0 columns >= 1 divisible by {pj} in every B^k, k = 0..{pj}"
            if not bad_pow
            else f"invariant broken at powers {bad_pow}",
        )
    )

    return tuple(sorted(results, key=lambda c: c.name))
