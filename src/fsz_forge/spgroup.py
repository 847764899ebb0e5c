"""Arithmetic in the semidirect product of the mixed-modulus group by b.

Elements are pairs (v, k): a vector from the abelian part and an exponent
of the outer generator b, with b acting by the automorphism matrix.  The
normal form stores q*b^k with 0 <= k < p^j, so two elements are equal iff
their fields are equal.  Besides generic square-and-multiply powering,
power_pj evaluates p^j-th powers through the power-sum matrices Y(p^t),
which is the structured route the counting layer depends on.
"""

from __future__ import annotations

import math
import os
import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .construction import CheckResult, build_b, build_y
from .mixedmod import (
    EndoMatrix,
    GroupParams,
    MatrixInvariantError,
    MixedVector,
    ParameterError,
    basis_vector,
    mat_apply,
    mat_pow,
    vec_scale,
    zero_vector,
)

DEFAULT_ENUMERATION_LIMIT = 10 ** 8
_MAX_PARSE_EXPONENT = 2 ** 63
_MAX_PARSE_DIGITS = len(str(_MAX_PARSE_EXPONENT))
_CHUNK = 1 << 16


class EnumerationLimitError(RuntimeError):
    """The requested scan exceeds the configured element limit."""


class ElementSyntaxError(ValueError):
    """Unparsable element text."""


@dataclass(frozen=True)
class SElement:
    """A group element in normal form: vector part and b-exponent."""

    vec: MixedVector
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", self.k % self.vec.params.b_order)

    @property
    def params(self) -> GroupParams:
        return self.vec.params


@lru_cache(maxsize=None)
def _b_power(params: GroupParams, k: int) -> EndoMatrix:
    return mat_pow(build_b(params), k % params.b_order)


@lru_cache(maxsize=None)
def _y_matrix(params: GroupParams, t: int) -> EndoMatrix:
    return build_y(params, t)


@lru_cache(maxsize=None)
def _spj_matrices(params: GroupParams) -> np.ndarray:
    """Stack of B^k transposed for batched row-vector application.

    GroupParams bounds dim * top_modulus^2, so the products fit in int64.
    """
    return np.stack(
        [_b_power(params, k).array for k in range(params.b_order)]
    ).transpose(0, 2, 1)


@lru_cache(maxsize=None)
def b_power_row0(params: GroupParams) -> np.ndarray:
    """Row 0 of B^k for every k in 0..p^j-1, as a read-only int64 array.

    Computed by iterated row-vector times matrix products, so the counting
    layer never needs the full matrix powers for large parameters.  The
    row stays mod p^{j+1} throughout; its entries in columns >= 1 remain
    divisible by p^j, which keeps the products lift-independent.
    """
    B = build_b(params).array
    top, pj = params.top_modulus, params.n
    out = np.zeros((params.b_order, params.dim), dtype=np.int64)
    out[0, 0] = 1
    for k in range(1, params.b_order):
        # GroupParams bounds dim * top^2, so the product fits in int64.
        out[k] = out[k - 1] @ B % top
        if (out[k, 1:] % pj).any():
            raise MatrixInvariantError(
                f"row 0 of B^{k} is not divisible by p^j = {pj} past column 0"
            )
    out.flags.writeable = False
    return out


def t_of_b_exponent(params: GroupParams, k: int) -> int:
    """The t with |b^k| = p^{j-t}; k = 0 has order 1 and yields t = j."""
    k %= params.b_order
    if k == 0:
        return params.j
    t = 0
    while k % params.p == 0:
        k //= params.p
        t += 1
    return t


def identity_element(params: GroupParams) -> SElement:
    return SElement(zero_vector(params), 0)


def generator_a(params: GroupParams, i: int) -> SElement:
    """The generator a_i, 1-based index."""
    return SElement(basis_vector(params, i - 1), 0)


def generator_b(params: GroupParams) -> SElement:
    return SElement(zero_vector(params), 1)


def generators(params: GroupParams) -> tuple[SElement, ...]:
    return tuple(
        generator_a(params, i) for i in range(1, params.dim + 1)
    ) + (generator_b(params),)


def multiply(params: GroupParams, x: SElement, y: SElement) -> SElement:
    """(v_x, k_x)(v_y, k_y) = (v_x + B^{k_x} v_y, k_x + k_y)."""
    moved = mat_apply(_b_power(params, x.k), y.vec)
    return SElement(x.vec + moved, x.k + y.k)


def invert(params: GroupParams, x: SElement) -> SElement:
    back = params.b_order - x.k
    return SElement(vec_scale(-1, mat_apply(_b_power(params, back), x.vec)), back)


def power_generic(params: GroupParams, x: SElement, e: int) -> SElement:
    """x^e by square-and-multiply over the group product."""
    if e < 0:
        x, e = invert(params, x), -e
    result = identity_element(params)
    base = x
    while e:
        if e & 1:
            result = multiply(params, result, base)
        e >>= 1
        if e:
            base = multiply(params, base, base)
    return result


def power_pj(params: GroupParams, x: SElement) -> SElement:
    """The p^j-th power evaluated as p^t * Y(p^t) applied to the vector.

    t comes from the order of the b-part, |b^k| = p^{j-t}.  The result
    always lies in the central cyclic subgroup generated by a_1^{p^j}.
    """
    t = t_of_b_exponent(params, x.k)
    moved = mat_apply(_y_matrix(params, t), x.vec)
    return SElement(vec_scale(params.p ** t, moved), 0)


_TOKEN_RE = re.compile(r"(?:a([1-9][0-9]*)|b|e)(?:\^(-?[0-9]+))?\Z")


def parse_element(params: GroupParams, text: str) -> SElement:
    """Parse whitespace-separated factors, folding them left to right.

    Grammar: each factor is a<i>, b, or e with an optional ^<integer>
    exponent; the empty string is the identity.
    """
    result = identity_element(params)
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise ElementSyntaxError(f"malformed token {token!r}")
        # Lengths are checked first: int() refuses strings of over 4300 digits.
        digits = (m.group(2) or "1").lstrip("-0")
        if len(digits) > _MAX_PARSE_DIGITS or int(digits or 0) > _MAX_PARSE_EXPONENT:
            raise ElementSyntaxError(f"exponent overflow in {token!r}")
        exponent = int(m.group(2) or 1)
        if m.group(1) is not None:
            i = int(m.group(1)) if len(m.group(1)) <= len(str(params.dim)) else 0
            if not 1 <= i <= params.dim:
                raise ElementSyntaxError(
                    f"generator index out of range in {token!r}: valid are a1..a{params.dim}"
                )
            factor = SElement(vec_scale(exponent, basis_vector(params, i - 1)), 0)
        elif token.startswith("b"):
            factor = SElement(zero_vector(params), exponent)
        else:
            factor = identity_element(params)
        result = multiply(params, result, factor)
    return result


def format_element(params: GroupParams, x: SElement) -> str:
    """Canonical text: a<i>^<e> factors then b^<k>, or e for the identity."""
    parts = [f"a{i + 1}^{c}" for i, c in enumerate(x.vec.coords) if c]
    if x.k:
        parts.append(f"b^{x.k}")
    return " ".join(parts) if parts else "e"


def element_index(params: GroupParams, x: SElement) -> int:
    """Position of x in the enumeration order, lexicographic on (k, coords)."""
    p = params.p
    idx = x.k * (params.group_order // params.b_order)
    idx += x.vec.coords[0] * p ** (params.dim - 1)
    tail = 0
    for c in x.vec.coords[1:]:
        tail = tail * p + c
    return idx + tail


def element_at(params: GroupParams, idx: int) -> SElement:
    """Inverse of element_index."""
    if not 0 <= idx < params.group_order:
        raise ParameterError(f"element index {idx} out of range")
    p, top, d = params.p, params.top_modulus, params.dim
    abelian = params.group_order // params.b_order
    k, rem = divmod(idx, abelian)
    v0, tail = divmod(rem, p ** (d - 1))
    coords = [v0] + [0] * (d - 1)
    for i in range(d - 1, 0, -1):
        tail, coords[i] = divmod(tail, p)
    return SElement(MixedVector(params, np.array(coords, dtype=np.int64)), k)


def random_element(params: GroupParams, rng) -> SElement:
    """Uniform element from a random.Random source."""
    coords = [rng.randrange(params.top_modulus)] + [
        rng.randrange(params.p) for _ in range(params.dim - 1)
    ]
    return SElement(MixedVector(params, tuple(coords)), rng.randrange(params.b_order))


@dataclass(frozen=True)
class StructureReport:
    params: GroupParams
    group_order: int
    a1_order: int
    center_order: int
    center_method: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "params": {"p": self.params.p, "j": self.params.j},
            "group_order": self.group_order,
            "a1_order": self.a1_order,
            "center_order": self.center_order,
            "center_method": self.center_method,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "all_passed": self.all_passed,
        }


def _commutes(params: GroupParams, x: SElement, y: SElement) -> bool:
    return multiply(params, x, y) == multiply(params, y, x)


def _in_central_cyclic(params: GroupParams, x: SElement) -> bool:
    """Membership in the claimed center, the cyclic group over a_1^p."""
    return (
        x.k == 0
        and x.vec.coords[0] % params.p == 0
        and not any(x.vec.coords[1:])
    )


CENTER_SCAN_CAP = 100_000
CENTER_SAMPLE_SIZE = 50


def structure_report(
    params: GroupParams,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    rng=None,
) -> StructureReport:
    """Order, a_1 order and center verification for one parameter pair.

    When the group order is at most CENTER_SCAN_CAP (and the general
    enumeration limit) the center is found exactly: the elements that every
    generator's conjugation array fixes.  Otherwise the check degrades to
    generator commutation for powers of a_1^p plus a random sample of
    outside elements that must all fail to be central.
    """
    p = params.p
    ident = identity_element(params)
    gens = generators(params)
    a1, b = gens[0], gens[-1]

    a1_order = 1
    x = a1
    while x != ident:
        x = power_generic(params, x, p)
        a1_order *= p

    checks = [
        CheckResult(
            "a1_order",
            a1_order == params.top_modulus,
            f"|a_1| = {a1_order}, expected {params.top_modulus}",
        )
    ]

    z = power_generic(params, a1, p)
    z_order = 1
    x = z
    while x != ident:
        x = power_generic(params, x, p)
        z_order *= p
    checks.append(
        CheckResult(
            "center_generator_order",
            z_order == params.n,
            f"|a_1^p| = {z_order}, expected p^j = {params.n}",
        )
    )

    z_powers = []
    y = ident
    for _ in range(z_order):
        z_powers.append(y)
        y = multiply(params, y, z)
    central_ok = all(
        _commutes(params, w, g) for w in z_powers for g in (a1, b)
    )
    checks.append(
        CheckResult(
            "center_generator_commutes",
            central_ok,
            "every power of a_1^p commutes with a_1 and b"
            if central_ok
            else "some power of a_1^p fails to commute with a generator",
        )
    )

    if params.group_order <= min(limit, CENTER_SCAN_CAP):
        G = SpjGroup(params)
        moved = np.any([conj != np.arange(G.N) for conj in G.conjugation_arrays(1)], axis=0)
        center = [G.to_element(i) for i in np.flatnonzero(~moved).tolist()]
        center_order = len(center)
        exact = center_order == params.n and all(
            _in_central_cyclic(params, x) for x in center
        )
        checks.append(
            CheckResult(
                "center_order",
                exact,
                f"center has {center_order} elements, all powers of a_1^p"
                if exact
                else f"center has {center_order} elements, expected {params.n} inside the a_1^p cyclic",
            )
        )
        method = "enumeration"
    else:
        rng = rng if rng is not None else random.Random(0)
        misses = 0
        for _ in range(CENTER_SAMPLE_SIZE):
            cand = random_element(params, rng)
            if _in_central_cyclic(params, cand):
                continue
            if all(_commutes(params, cand, g) for g in gens):
                misses += 1
        center_order = params.n
        checks.append(
            CheckResult(
                "center_order",
                misses == 0,
                f"claimed order {params.n}; no central element outside a_1^p powers "
                f"in a sample of {CENTER_SAMPLE_SIZE}"
                if misses == 0
                else f"{misses} sampled elements outside a_1^p powers are central",
            )
        )
        method = "generator-commutation"

    checks.sort(key=lambda c: c.name)
    return StructureReport(
        params=params,
        group_order=params.group_order,
        a1_order=a1_order,
        center_order=center_order,
        center_method=method,
        checks=tuple(checks),
    )


def _default_threads(threads: int | None) -> int:
    if threads is not None and threads >= 1:
        return threads
    return max(1, os.cpu_count() or 1)


class SpjGroup:
    """S(p,j) behind the group interface described in gncount.

    The scalar methods work on SElements.  The index-array methods work
    on enumeration indices (element_index) through the kernels mul, inv
    and pow on (vector, b-exponent) arrays.  The whole-group maps (powers,
    left and right multiplication) are one _sweep each: the kernels run on
    (dim + 1) * p^j probe rows, and one affine pass maps every index.
    """

    def __init__(self, params: GroupParams):
        self.params = params
        self.N = params.group_order
        self.identity_index = 0
        self._abelian = self.N // params.b_order

    def order(self) -> int:
        return self.params.group_order

    def identity(self) -> SElement:
        return identity_element(self.params)

    def multiply(self, x: SElement, y: SElement) -> SElement:
        return multiply(self.params, x, y)

    def invert(self, x: SElement) -> SElement:
        return invert(self.params, x)

    def power(self, x: SElement, e: int) -> SElement:
        return power_generic(self.params, x, e)

    def describe(self) -> str:
        return f"{self.params.describe()} (order {self.params.group_order})"

    def describe_element(self, x: SElement) -> str:
        return format_element(self.params, x)

    def to_element(self, idx: int) -> SElement:
        return element_at(self.params, idx)

    def from_element(self, x: SElement) -> int:
        return element_index(self.params, x)

    @cached_property
    def _place_values(self) -> np.ndarray:
        """p^(dim-1-i) for coordinate i: the index of (V, K) is K * A + V @ _place_values."""
        p, d = self.params.p, self.params.dim
        return np.array([p ** (d - 1 - i) for i in range(d)], dtype=np.int64)

    def _mod(self, V: np.ndarray) -> np.ndarray:
        np.remainder(V, self.params.row_moduli, out=V)
        return V

    def decode(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p, d = self.params.p, self.params.dim
        K, rem = np.divmod(idx.astype(np.int64), self._abelian)
        V = np.empty((len(idx), d), dtype=np.int64)
        V[:, 0], tail = np.divmod(rem, p ** (d - 1))
        for i in range(1, d):
            V[:, i], tail = np.divmod(tail, p ** (d - 1 - i))
        return V, K

    def encode(self, V: np.ndarray, K: np.ndarray) -> np.ndarray:
        return K * self._abelian + V @ self._place_values

    def _apply_by_k(self, K: np.ndarray, V: np.ndarray) -> np.ndarray:
        """B^{K[i]} applied to row i of V."""
        BkT = _spj_matrices(self.params)
        out = np.empty_like(V)
        for kk in range(self.params.b_order):
            mask = K == kk
            if mask.any():
                out[mask] = V[mask] @ BkT[kk]
        return self._mod(out)

    def mul(self, V1, K1, V2, K2) -> tuple[np.ndarray, np.ndarray]:
        V = self._mod(V1 + self._apply_by_k(K1, V2))
        return V, (K1 + K2) % self.params.b_order

    def inv(self, V, K) -> tuple[np.ndarray, np.ndarray]:
        Kb = (self.params.b_order - K) % self.params.b_order
        return self._mod(-self._apply_by_k(Kb, V)), Kb

    def pow(self, V, K, e: int) -> tuple[np.ndarray, np.ndarray]:
        if e < 0:
            (V, K), e = self.inv(V, K), -e
        rV = np.zeros_like(V)
        rK = np.zeros_like(K)
        bV, bK = V.copy(), K.copy()
        while e:
            if e & 1:
                rV, rK = self.mul(rV, rK, bV, bK)
            e >>= 1
            if e:
                bV, bK = self.mul(bV, bK, bV, bK)
        return rV, rK

    def _sweep(self, f, threads: int | None = None) -> np.ndarray:
        """Index of f(a) for every a; f maps (V, K) arrays through mul, inv and pow.

        The affine lemma: (v,k)(w,l) = (v + B^k w, k+l), (v,k)^-1 =
        (-B^-k v, -k) and (v,k)^e = ((sum_{i<e} B^{ik}) v, ek).  So at a fixed
        b-exponent k each of these maps, and every composition of them, is
        (v, k) -> (M_k v + c_k, s(k)) with M_k an endomorphism of the abelian
        part.  f runs once on the zero vector and the dim basis vectors at
        each k: c_k is the image of zero, row i of M_k^T the image of e_i
        minus c_k.  Being an endomorphism, M_k sends each e_i, i >= 1, of
        order p to an element whose coordinate 0 is divisible by p^j, so
        M_k applied to residues is lift-independent.

        The coordinates split into a head prefix and a tail suffix, the
        longest suffix with at most isqrt(A) vectors (L of them), so the
        index within a b-exponent is h * L + l.  M_k is additive, hence the
        image of (head h, tail l) is (h M_k^T + c_k) + l M_k^T: one head
        table and one tail table per k.  Both are built on canonical residue
        vectors, so their entries stay under the dim * top^2 bound that
        GroupParams keeps below int64, and each is reduced mod row_moduli
        once.  Coordinate i of both tables is then scaled by its place value
        w_i, so a head entry plus a tail entry is below 2 m_i w_i <= 2A, and
        one compare-and-subtract of m_i w_i gives w_i times coordinate i of
        the image.  Their sum plus s(k) A is the image's index: no element is
        reduced by division or encoded.  A chunk of _CHUNK // L head rows
        takes this pass once per coordinate, straight into its slice of the
        result.  One job per b-exponent builds its tables once and writes
        its own slice, so the result does not depend on the worker count.
        """
        d, bo, A = self.params.dim, self.params.b_order, self._abelian
        m, w = self.params.row_moduli, self._place_values
        probe = np.vstack([np.zeros((1, d), dtype=np.int64), np.eye(d, dtype=np.int64)])
        FV, FK = f(np.tile(probe, (bo, 1)), np.repeat(np.arange(bo, dtype=np.int64), d + 1))
        FV = FV.reshape(bo, d + 1, d)
        c, s = FV[:, 0], FK[:: d + 1]
        MT = (FV[:, 1:] - c[:, None]) % m
        L = 1
        for m_i in m[::-1].tolist():
            if L * m_i > math.isqrt(A):
                break
            L *= m_i
        heads, _ = self.decode(np.arange(0, A, L, dtype=np.int64))
        tails, _ = self.decode(np.arange(L, dtype=np.int64))
        rows = max(1, _CHUNK // L)
        wrap = (m * w).astype(np.uint64)
        out = np.empty(self.N, dtype=np.int64)
        flat = out.view(np.uint64)

        def table(images: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray((images % m * w).T, dtype=np.uint64)

        def job(k: int) -> None:
            head, tail = table(heads @ MT[k] + c[k]), table(tails @ MT[k])
            base = np.uint64(int(s[k]) * A)
            x = np.empty((rows, L), dtype=np.uint64)
            y = np.empty_like(x)
            for h in range(0, len(heads), rows):
                r = min(rows, len(heads) - h)
                lo = k * A + h * L
                acc, xr, yr = flat[lo : lo + r * L].reshape(r, L), x[:r], y[:r]
                acc.fill(base)
                for i in range(d):
                    np.add(head[i, h : h + r, None], tail[i], out=xr)
                    # Unsigned, xr - m_i w_i wraps above xr where xr < m_i w_i,
                    # so the minimum of the two is xr reduced mod m_i w_i.
                    np.subtract(xr, wrap[i], out=yr)
                    np.minimum(xr, yr, out=xr)
                    acc += xr

        threads = _default_threads(threads)
        if threads <= 1 or self.N <= _CHUNK:
            for k in range(bo):
                job(k)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(job, range(bo)))  # reading each result re-raises a worker's error
        return out

    def pow_index_array(self, n: int, threads: int | None = None) -> np.ndarray:
        """x^n for every x at once, as an index array."""
        return self._sweep(lambda V, K: self.pow(V, K, n), threads)

    def rightmul_array(self, x_idx: int, threads: int | None = None) -> np.ndarray:
        """Index of a*x for every a."""
        return self._sweep(
            lambda V, K: self.mul(V, K, *self.decode(np.full(len(K), x_idx))), threads
        )

    def leftmul_array(self, x_idx: int, threads: int | None = None) -> np.ndarray:
        """Index of x*a for every a."""
        return self._sweep(
            lambda V, K: self.mul(*self.decode(np.full(len(K), x_idx)), V, K), threads
        )

    def invert_index(self, x_idx: int) -> int:
        V, K = self.decode(np.array([x_idx], dtype=np.int64))
        return int(self.encode(*self.inv(V, K))[0])

    def mul_index_arrays(self, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
        V1, K1 = self.decode(np.asarray(a_idx, dtype=np.int64))
        V2, K2 = self.decode(np.asarray(b_idx, dtype=np.int64))
        return self.encode(*self.mul(V1, K1, V2, K2))

    def invert_index_array(self, idx: np.ndarray) -> np.ndarray:
        V, K = self.decode(np.asarray(idx, dtype=np.int64))
        return self.encode(*self.inv(V, K))

    def conjugation_arrays(self, threads: int | None = None) -> list[np.ndarray]:
        """Index of c^-1 a c for every a, one sweep per c in generators()."""
        perms = []
        for c in generators(self.params):
            c_idx = self.from_element(c)
            ci_idx = self.invert_index(c_idx)

            def conj(V, K, c_idx=c_idx, ci_idx=ci_idx):
                left = self.mul(*self.decode(np.full(len(K), ci_idx)), V, K)
                return self.mul(*left, *self.decode(np.full(len(K), c_idx)))

            perms.append(self._sweep(conj, threads))
        return perms
