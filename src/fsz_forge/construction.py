"""Builders for the defining matrices of the construction and their checks.

The outer automorphism sends the wide generator a_1 to a_1*a_2^{-1}, each
middle generator a_k to a_k*a_{k+1}, and the last generator to itself
times a_1^{-p^j}.  Its matrix B, the shift part S = B - I, and the power
sums Y(p^t) = sum of B^{m*p^t} drive everything else in the package.
Closed forms for powers of S and B act as independent oracles against
mat_pow; verify_construction cross-checks the two routes and the block
identities that the counting layer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .mixedmod import (
    EndoMatrix,
    GroupParams,
    ParameterError,
    identity_matrix,
    mat_add,
    mat_mul,
    mat_pow,
    mat_scale,
)

CHECK_NAMES = (
    "b_order_exact",
    "b_last_power_corner",
    "y1_block_form",
    "yp_scaled_block_forms",
    "shift_power_closed_agrees",
    "binomial_closed_agrees",
    "y1_b_fixed_point",
    "power_divisibility_invariant",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    params: GroupParams
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "params": {"p": self.params.p, "j": self.params.j},
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "all_passed": self.all_passed,
        }


def build_b(params: GroupParams) -> EndoMatrix:
    """Matrix of the outer automorphism, columns are generator images."""
    d, pj = params.dim, params.n
    rows = [[0] * d for _ in range(d)]
    for c in range(d):
        rows[c][c] = 1
    rows[1][0] = -1
    for c in range(1, d - 1):
        rows[c + 1][c] = 1
    rows[0][d - 1] = -pj
    return EndoMatrix(params, rows)


def build_shift(params: GroupParams) -> EndoMatrix:
    """S = B - I, the nilpotent part of the automorphism matrix."""
    return mat_add(build_b(params), mat_scale(-1, identity_matrix(params)))


def shift_power_closed(params: GroupParams, k: int) -> EndoMatrix:
    """Closed form for S^k, 1 <= k <= p^j, without any multiplication.

    Each power shifts the previous one left a column, zeroes the last
    column and negates whatever enters column 0.  The surviving pattern:
    row 0 keeps a single entry -p^j at column dim-k (+p^j once it reaches
    column 0 at k = p^j - 1), each lower row r keeps a 1 at column r-k
    (-1 when that column is 0), and S^{p^j} is the zero matrix.
    """
    d, pj = params.dim, params.n
    if not 1 <= k <= pj:
        raise ParameterError(f"k = {k} outside 1..{pj}")
    rows = [[0] * d for _ in range(d)]
    if k <= d - 1:
        rows[0][d - k] = -pj
    elif k == d:
        rows[0][0] = pj
    for r in range(1, d):
        c = r - k
        if c == 0:
            rows[r][0] = -1
        elif c >= 1:
            rows[r][c] = 1
    return EndoMatrix(params, rows)


def binomial_entry_closed(params: GroupParams, k: int) -> EndoMatrix:
    """Closed form for B^k, 1 <= k <= p^j - 2, from binomial coefficients.

    With 0-based indices: entry (0,0) is 1, (0,c) for c >= 1 is
    -C(k, dim-c)*p^j, (r,0) for r >= 1 is -C(k, r), (r,c) inside the band
    c <= r is C(k, r-c), and everything above the band vanishes.
    """
    d, pj = params.dim, params.n
    if not 1 <= k <= pj - 2:
        raise ParameterError(f"k = {k} outside 1..{pj - 2}")
    rows = [[0] * d for _ in range(d)]
    rows[0][0] = 1
    for c in range(1, d):
        rows[0][c] = -comb(k, d - c) * pj
    for r in range(1, d):
        rows[r][0] = -comb(k, r)
        for c in range(1, r + 1):
            rows[r][c] = comb(k, r - c)
    return EndoMatrix(params, rows)


def build_y(params: GroupParams, t: int) -> EndoMatrix:
    """Power sum Y(p^t) = sum over m < p^{j-t} of B^{m*p^t}.

    For t = j the sum degenerates to the single summand B^0; taking
    Y(p^j) = I makes the p^j-th power formula uniform in the b-order.
    """
    if not 0 <= t <= params.j:
        raise ParameterError(f"t = {t} outside 0..{params.j}")
    step = mat_pow(build_b(params), params.p ** t)
    total = identity_matrix(params)
    power = identity_matrix(params)
    for _ in range(params.p ** (params.j - t) - 1):
        power = mat_mul(power, step)
        total = mat_add(total, power)
    return total


def _is_corner_block(M: EndoMatrix, corner: int) -> bool:
    """True when (0,0) equals corner and every other entry is zero."""
    A = M.array
    return bool(A[0, 0] == corner % M.params.top_modulus and not A.ravel()[1:].any())


def verify_construction(params: GroupParams) -> VerificationReport:
    """Cross-check every identity the matrices must satisfy.

    Checks: (a) the automorphism matrix has multiplicative order exactly
    p^j; (b) the (0,0) entry of B^{p^j-1} is p^j + 1; (c) Y(1) is the
    corner block with 2p^j; (d) p^t * Y(p^t) is the corner block with p^j
    for 0 < t < j; (e,f) the closed forms match mat_pow for S and B;
    (g) Y(1) absorbs multiplication by B on both sides; (h) the row-0
    divisibility invariant holds for every power of B.
    """
    pj = params.n
    ident = identity_matrix(params)
    B = build_b(params)
    S = build_shift(params)

    # One multiplication chain B, B^2, ..., B^{p^j}, reused by most checks.
    chain = [ident]
    for _ in range(pj):
        chain.append(mat_mul(chain[-1], B))

    results = []

    premature = [k for k in range(1, pj) if chain[k] == ident]
    order_ok = not premature and chain[pj] == ident
    results.append(
        CheckResult(
            "b_order_exact",
            order_ok,
            f"B^{pj} = I and no smaller positive power is I"
            if order_ok
            else f"premature identity at powers {premature}, top power equal: {chain[pj] == ident}",
        )
    )

    corner = int(chain[pj - 1].array[0, 0])
    results.append(
        CheckResult(
            "b_last_power_corner",
            corner == pj + 1,
            f"(0,0) of B^{pj - 1} = {corner}, expected {pj + 1}",
        )
    )

    y1 = build_y(params, 0)
    results.append(
        CheckResult(
            "y1_block_form",
            _is_corner_block(y1, 2 * pj),
            f"Y(1) corner entry {int(y1.array[0, 0])}, expected {2 * pj} with zeros elsewhere",
        )
    )

    bad_t = [
        t
        for t in range(1, params.j)
        if not _is_corner_block(mat_scale(params.p ** t, build_y(params, t)), pj)
    ]
    if params.j == 1:
        yp_detail = "vacuous, no t in range 1..j-1"
    elif bad_t:
        yp_detail = f"failing t values: {bad_t}"
    else:
        yp_detail = f"p^t * Y(p^t) is the p^j corner block for t in 1..{params.j - 1}"
    results.append(CheckResult("yp_scaled_block_forms", not bad_t, yp_detail))

    bad_k = [k for k in range(1, pj + 1) if shift_power_closed(params, k) != mat_pow(S, k)]
    results.append(
        CheckResult(
            "shift_power_closed_agrees",
            not bad_k,
            f"closed form matches mat_pow(S, k) for k = 1..{pj}"
            if not bad_k
            else f"disagreement at k = {bad_k}",
        )
    )

    bad_k = [k for k in range(1, pj - 1) if binomial_entry_closed(params, k) != chain[k]]
    results.append(
        CheckResult(
            "binomial_closed_agrees",
            not bad_k,
            f"closed form matches mat_pow(B, k) for k = 1..{pj - 2}"
            if not bad_k
            else f"disagreement at k = {bad_k}",
        )
    )

    fixed = mat_mul(B, y1) == y1 and mat_mul(y1, B) == y1
    results.append(
        CheckResult(
            "y1_b_fixed_point",
            fixed,
            "B*Y(1) = Y(1) = Y(1)*B" if fixed else "Y(1) is not a two-sided fixed point",
        )
    )

    # Constructors raise MatrixInvariantError on a broken invariant, so no
    # power reaches this point without it; the check reports it explicitly.
    bad_pow = [k for k, M in enumerate(chain) if (M.array[0, 1:] % pj).any()]
    results.append(
        CheckResult(
            "power_divisibility_invariant",
            not bad_pow,
            f"row-0 columns >= 1 divisible by {pj} in every B^k, k = 0..{pj}"
            if not bad_pow
            else f"invariant broken at powers {bad_pow}",
        )
    )

    results.sort(key=lambda c: c.name)
    return VerificationReport(params, tuple(results))
