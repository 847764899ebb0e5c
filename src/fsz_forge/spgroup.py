"""Arithmetic in the semidirect product of the mixed-modulus group by b.

Elements are pairs (v, k): a vector from the abelian part and an exponent
of the outer generator b, with b acting by the automorphism matrix.  The
normal form stores q*b^k with 0 <= k < p^j, so two elements are equal iff
their fields are equal.  The scalar product, inverse and parser apply B^k
to their one int64 row as k sparse steps of B, and never build a power of
B.  Besides generic square-and-multiply powering, power_pj evaluates
p^j-th powers through the power-sum matrices Y(p^t), the closed form
that verify checks on a sample and SpjGroup.exponent rests on; the
structured counter does not call it, but rests on structured_tables.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .construction import CheckResult, b_power_table, build_b, build_y, row_product
from .mixedmod import (
    GroupParams,
    MixedVector,
    ParameterError,
    VerificationError,
    _prime_factors,
    basis_vector,
    quotient_order,
    square_and_multiply,
    zero_vector,
)

# The one enumeration bound, read only by gncount._guard.  No S(p,j) has
# an order between 10^8 and |S(11,1)| > 3 * 10^12, and no table that large
# can be loaded, so a higher bound only invites scans that cannot fit in
# memory.
DEFAULT_ENUMERATION_LIMIT = 10 ** 8
_MAX_PARSE_EXPONENT = 2 ** 63
_MAX_PARSE_DIGITS = len(str(_MAX_PARSE_EXPONENT))
_CHUNK = 1 << 16


class EnumerationLimitError(RuntimeError):
    """The requested scan exceeds the element limit."""


class ElementSyntaxError(ValueError):
    """Unparsable element text."""


@dataclass(frozen=True)
class SElement:
    """A group element in normal form: vector part and b-exponent."""

    vec: MixedVector
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", self.k % self.vec.params.b_order)


@lru_cache(maxsize=None)
def _b_step(params: GroupParams):
    """v -> B v on int64 residue rows, from the two nonzeros of each row of B."""
    return row_product(build_b(params))


def _apply_b(params: GroupParams, k: int, v: np.ndarray) -> np.ndarray:
    """B^k v for a residue vector v and 0 <= k < p^j, as k sparse steps."""
    for _ in range(k):
        v = _b_step(params)(v)
    return v


def _power_pj_rows(params: GroupParams, V: np.ndarray, t: int) -> np.ndarray:
    """p^t Y(p^t) applied to each residue row v of V: the vector of x^{p^j}
    for x = (v, k) with |b^k| = p^{j-t}.  No entry reaches dim * top_modulus^2."""
    moved = V @ build_y(params, t).array.T
    moved %= params.row_moduli
    moved *= params.p ** t
    moved %= params.row_moduli
    return moved


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


def multiply(params: GroupParams, x: SElement, y: SElement) -> SElement:
    """(v_x, k_x)(v_y, k_y) = (v_x + B^{k_x} v_y, k_x + k_y)."""
    moved = _apply_b(params, x.k, y.vec.array)
    return SElement(MixedVector(params, x.vec.array + moved), x.k + y.k)


def invert(params: GroupParams, x: SElement) -> SElement:
    """(v, k)^-1 = (-B^{-k} v, -k)."""
    back = -x.k % params.b_order
    return SElement(MixedVector(params, -_apply_b(params, back, x.vec.array)), back)


def power_generic(params: GroupParams, x: SElement, e: int) -> SElement:
    """x^e by square-and-multiply over the group product."""
    if e < 0:
        x, e = invert(params, x), -e
    return square_and_multiply(
        x, e, lambda y, z: multiply(params, y, z), identity_element(params)
    )


def power_pj(params: GroupParams, x: SElement) -> SElement:
    """The p^j-th power evaluated as p^t * Y(p^t) applied to the vector.

    t comes from the order of the b-part, |b^k| = p^{j-t}.  The result
    always lies in the central cyclic subgroup generated by a_1^{p^j}.
    """
    t = t_of_b_exponent(params, x.k)
    return SElement(MixedVector(params, _power_pj_rows(params, x.vec.array, t)), 0)


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
            scaled = exponent % params.row_modulus(i - 1) * basis_vector(params, i - 1).array
            factor = SElement(MixedVector(params, scaled), 0)
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


@dataclass(frozen=True)
class StructureReport:
    a1_order: int
    center_order: int
    checks: tuple[CheckResult, ...]


def _commutes(params: GroupParams, x: SElement, y: SElement) -> bool:
    return multiply(params, x, y) == multiply(params, y, x)


def _p_power_order(params: GroupParams, x: SElement) -> int:
    """The order of x, a power of p, by taking p-th powers until the identity."""
    order = 1
    while x != identity_element(params):
        x, order = power_generic(params, x, params.p), order * params.p
    return order


def _column0_orbit(params: GroupParams) -> np.ndarray:
    """B^k e_0 for k = 0..p^j-1 as the columns of an int64 array.

    b^k a_1 b^-k = (B^k e_0, 0), so a_1 and b generate S(p,j) iff these
    columns generate the abelian part.
    """
    W = np.empty((params.dim, params.b_order), dtype=np.int64)
    w = np.zeros(params.dim, dtype=np.int64)
    w[0] = 1
    for k in range(params.b_order):
        W[:, k] = w
        w = _b_step(params)(w)
    return W


def structure_report(params: GroupParams) -> StructureReport:
    """Order, a_1 order and the exact center of S(p,j), at every order.

    a_1 and b generate the group when the column-0 orbit spans the
    abelian part.  Then (v, k) is central iff it commutes with b and a_1,
    that is iff Bv = v and B^k e_0 = e_0, so |Z| = |ker(B - I)| times the
    number of such k < p^j, both read off exactly.  The checks before it
    show that the powers of a_1^p, p^j of them, commute with a_1 and b, so
    the center is those powers iff |Z| = p^j.
    """
    a1, b = generator_a(params, 1), generator_b(params)
    a1_order = _p_power_order(params, a1)
    z = power_generic(params, a1, params.p)
    z_order = _p_power_order(params, z)
    # z commutes with a_1 and b, hence so does every power of z.
    central_ok = _commutes(params, z, a1) and _commutes(params, z, b)
    checks = [
        CheckResult(
            "a1_order",
            a1_order == params.top_modulus,
            f"|a_1| = {a1_order}, expected {params.top_modulus}",
        ),
        CheckResult(
            "center_generator_order",
            z_order == params.n,
            f"|a_1^p| = {z_order}, expected p^j = {params.n}",
        ),
        CheckResult(
            "center_generator_commutes",
            central_ok,
            "every power of a_1^p commutes with a_1 and b"
            if central_ok
            else "some power of a_1^p fails to commute with a generator",
        ),
    ]

    W = _column0_orbit(params)
    spans = quotient_order(params, W) == 1
    shift = build_b(params).array - np.eye(params.dim, dtype=np.int64)
    fixing = int((W == W[:, :1]).all(axis=0).sum())
    center_order = quotient_order(params, shift) * fixing
    exact = spans and center_order == params.n
    checks.append(
        CheckResult(
            "center_order",
            exact,
            f"center has {center_order} elements, all powers of a_1^p"
            if exact
            else f"center has {center_order} elements, expected {params.n}"
            if spans
            else "a_1 and b do not generate the group",
        )
    )

    checks.sort(key=lambda c: c.name)
    return StructureReport(a1_order, center_order, tuple(checks))


class IndexGroup:
    """The group interface, written once for both families.

    Every counter and scan takes a group with this interface; its
    elements are numbered 0..N-1, the enumeration indices.  A family,
    SpjGroup or gncount.TableGroup, supplies:

    - N, identity_index, exponent and describe();
    - scalar elements: multiply, invert, power, describe_element, and
      to_element / from_element between elements and indices;
    - generators, the indices of a generating set (a_1 and b for S(p,j));
    - the index kernels mul_index_arrays(a, b) and invert_index_array(a);
    - _sweep(f), the index of f(a) for every a, where f maps an index
      array entrywise by a word map, a product of a, a^-1 and fixed
      elements.  A table evaluates f on every index; S(p,j) evaluates it
      on probe rows and extends it by an affine pass, which is exact only
      for word maps.

    On these, this class writes every whole-group map once:
    power_indices, pow_index_array, conjugation_array, common_fibers
    (which SpjGroup overrides to match its slice tables with no array of
    length N) and orders, the element orders, read off pow_index_array
    alone.  Every map here is a word, and common_fibers takes only words.
    """

    # Unread in src/; perfbench/layers.py annotates gn_count_bruteforce_many spans with it.
    def order(self) -> int:
        return self.N

    def power_indices(self, a: np.ndarray, n: int) -> np.ndarray:
        """a^n for each entry of the index array a, by square-and-multiply."""
        if n < 0:
            a, n = self.invert_index_array(a), -n
        one = np.full(len(a), self.identity_index, dtype=np.int64)
        return square_and_multiply(a, n, self.mul_index_arrays, one)

    def pow_index_array(self, n: int) -> np.ndarray:
        """Index of a^n for every a."""
        return self._sweep(lambda a: self.power_indices(a, n))

    def common_fibers(self, words, targets, first: int) -> list[tuple[int, list[int]]]:
        """For each target index t, |{a : f(a) = t for every f in words}|
        and the first `first` such a, ascending.

        Each word map is swept once, and its map read per target.
        """
        maps = [self._sweep(f) for f in words]
        out = []
        for t in targets:
            hits = np.flatnonzero(maps[0] == t)
            for image in maps[1:]:
                hits = hits[image[hits] == t]
            out.append((len(hits), hits[:first].tolist()))
        return out

    def conjugation_array(self, x: int) -> np.ndarray:
        """Index of x^-1 a x for every a."""
        x_inv = self.invert_index_array(np.array([x]))[0]

        def conj(a: np.ndarray) -> np.ndarray:
            left = self.mul_index_arrays(np.full(len(a), x_inv), a)
            return self.mul_index_arrays(left, np.full(len(a), x))

        return self._sweep(conj)

    @cached_property
    def orders(self) -> np.ndarray:
        """The order of every element, as a read-only array over the indices 0..N-1.

        Every order divides N = |G| (Lagrange).  For each prime q of N, with
        q^v exactly dividing N, x^{N/q^v} has order the q-part of the order
        of x, which is the number of q-th powers it takes to reach 1.  So
        the walk x <- x^q from x^{N/q^v} multiplies the order by q at every
        step where x is not yet 1, and reaches 1 within v steps.  A walk
        that fails its check raises, and nothing is cached.  The dtype is
        the narrowest unsigned type that holds N: every order divides N,
        and the walk multiplies in each prime's part at most v times, so no
        entry ever exceeds N and nothing wraps.
        """
        N, one = self.N, self.identity_index
        orders = np.ones(N, dtype=np.min_scalar_type(N))
        for q in _prime_factors(N):
            v, rest = 0, N
            while rest % q == 0:
                v, rest = v + 1, rest // q
            x = self.pow_index_array(rest) if rest > 1 else np.arange(N)
            P = self.pow_index_array(q)
            for _ in range(v):
                live = x != one
                orders[live] *= q
                x = P[x]
            if (x != one).any():
                raise VerificationError(
                    f"the walk x -> x^{q} on {self.describe()} does not reach the "
                    f"identity in {v} steps, so some order does not divide {N}"
                )
        orders.flags.writeable = False
        return orders


class SpjGroup(IndexGroup):
    """S(p,j) behind the group interface of IndexGroup.

    The scalar methods work on SElements.  The index kernels decode
    enumeration indices to (vector, b-exponent) arrays, run mul or inv on
    those and encode the result.  _sweep runs its map on (dim + 1) * p^j
    probe rows, and one affine pass maps every index.
    """

    def __init__(self, params: GroupParams):
        self.params = params
        self.N = params.group_order
        self.identity_index = 0
        self._abelian = self.N // params.b_order
        # p^(dim-1-i) for coordinate i, as Python ints: exact past int64.
        self._places = tuple(params.p ** (params.dim - 1 - i) for i in range(params.dim))

    @property
    def exponent(self) -> int:
        """p^{j+1}, with no enumeration (Lemma 2).

        Every x^{p^j} lies in <a_1^{p^j}> (power_pj), a subgroup of order
        p, so x^{p^{j+1}} = 1.  a_1 = (e_0, 0) has b-exponent 0, so a_1^k =
        (k e_0, 0), whose first coordinate is taken mod p^{j+1}: a_1 has
        order p^{j+1}.  gncount.exponent, on the power maps, is the oracle.
        """
        return self.params.top_modulus

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
        """Inverse of from_element."""
        if not 0 <= idx < self.N:
            raise ParameterError(f"element index {idx} out of range")
        k, rem = divmod(idx, self._abelian)
        coords = [rem // w % m for w, m in zip(self._places, self.params.row_moduli.tolist())]
        return SElement(MixedVector(self.params, np.array(coords, dtype=np.int64)), k)

    def from_element(self, x: SElement) -> int:
        """The enumeration index of x, lexicographic on (k, coords)."""
        return x.k * self._abelian + sum(c * w for c, w in zip(x.vec.coords, self._places))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Indices of a_1 and b, once the column-0 orbit is seen to span the abelian part."""
        if quotient_order(self.params, _column0_orbit(self.params)) != 1:
            raise VerificationError(f"a_1 and b do not generate {self.params.describe()}")
        return self.from_element(generator_a(self.params, 1)), self.from_element(generator_b(self.params))

    @cached_property
    def _place_values(self) -> np.ndarray:
        """_places in int64: the index of (V, K) is K * A + V @ _place_values."""
        return np.array(self._places, dtype=np.int64)

    def _mod(self, V: np.ndarray) -> np.ndarray:
        np.remainder(V, self.params.row_moduli, out=V)
        return V

    def decode(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = self.params.dim
        K, tail = np.divmod(idx.astype(np.int64), self._abelian)
        V = np.empty((len(idx), d), dtype=np.int64)
        for i, w in enumerate(self._places[:-1]):
            V[:, i], tail = np.divmod(tail, w)
        V[:, d - 1] = tail
        return V, K

    def encode(self, V: np.ndarray, K: np.ndarray) -> np.ndarray:
        return K * self._abelian + V @ self._place_values

    def _apply_by_k(self, K: np.ndarray, V: np.ndarray) -> np.ndarray:
        """B^{K[i]} applied to row i of V, one product per present b-exponent.

        One stable argsort of K (b_order <= 513 under the dimension guard,
        so a uint16 sort, which numpy does by radix) lists the rows of each
        b-exponent as one contiguous slice of indices, in ascending order.
        """
        table = b_power_table(self.params)
        order = np.argsort(K.astype(np.uint16), kind="stable")
        edges = np.searchsorted(K[order], np.arange(self.params.b_order + 1)).tolist()
        out, B_k = np.empty_like(V), np.empty(table.shape[1:], dtype=np.int64)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if lo < hi:
                rows = order[lo:hi]
                # GroupParams bounds dim * top_modulus^2, so the int64 products fit.
                np.copyto(B_k, table[k])
                out[rows] = V[rows] @ B_k.T
        return self._mod(out)

    def mul(self, V1, K1, V2, K2) -> tuple[np.ndarray, np.ndarray]:
        V = self._mod(V1 + self._apply_by_k(K1, V2))
        return V, (K1 + K2) % self.params.b_order

    def inv(self, V, K) -> tuple[np.ndarray, np.ndarray]:
        Kb = (self.params.b_order - K) % self.params.b_order
        return self._mod(-self._apply_by_k(Kb, V)), Kb

    def first_power_pj_mismatch(self, V: np.ndarray, K: np.ndarray) -> SElement | None:
        """The first x = (V[i], K[i]) whose power_pj differs from x^{p^j}, or None.

        V holds canonical residues.  Both powers run on the stacked rows:
        x^{p^j} by one square-and-multiply over mul, power_pj as one
        p^t Y(p^t) product per class t of b-exponents.
        """
        pr = self.params
        one = (np.zeros_like(V), np.zeros_like(K))
        GV, GK = square_and_multiply((V, K), pr.n, lambda a, b: self.mul(*a, *b), one)
        bad = GK != 0
        t_of = np.array([t_of_b_exponent(pr, k) for k in range(pr.b_order)])[K]
        for t in range(pr.j + 1):
            rows = t_of == t
            bad[rows] |= (_power_pj_rows(pr, V[rows], t) != GV[rows]).any(axis=1)
        first = np.flatnonzero(bad)
        return SElement(MixedVector(pr, V[first[0]]), int(K[first[0]])) if first.size else None

    def mul_index_arrays(self, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
        V1, K1 = self.decode(np.asarray(a_idx, dtype=np.int64))
        V2, K2 = self.decode(np.asarray(b_idx, dtype=np.int64))
        return self.encode(*self.mul(V1, K1, V2, K2))

    def invert_index_array(self, idx: np.ndarray) -> np.ndarray:
        V, K = self.decode(np.asarray(idx, dtype=np.int64))
        return self.encode(*self.inv(V, K))

    @cached_property
    def _split(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(L, heads, tails): the index within a b-exponent as h * L + l.

        L is the product of the longest suffix of row_moduli that stays at
        most isqrt(A), so there are A / L >= L heads.  heads[h] is the
        vector of index h * L, tails[l] that of index l, and the vector of
        index h * L + l is heads[h] + tails[l] with no carry.
        """
        A = self._abelian
        L = 1
        for m_i in self.params.row_moduli[::-1].tolist():
            if L * m_i > math.isqrt(A):
                break
            L *= m_i
        heads, _ = self.decode(np.arange(0, A, L, dtype=np.int64))
        tails, _ = self.decode(np.arange(L, dtype=np.int64))
        return L, heads, tails

    def _slices(self, f):
        """(s, images) for a word map f: s[k] is the b-exponent of f(v, k),
        and images(k) the head and tail tables of b-exponent k.

        The affine lemma: (v,k)(w,l) = (v + B^k w, k+l) and (v,k)^-1 =
        (-B^-k v, -k).  So at a fixed b-exponent k every word map is
        (v, k) -> (M_k v + c_k, s(k)) with M_k an endomorphism of the
        abelian part.  f runs once on the zero vector and the dim basis
        vectors at each k; these probe rows are canonical residues, so they
        encode to indices, and f's indices decode to the images.  c_k is the
        image of zero, row i of M_k^T the image of e_i minus c_k.  Being an
        endomorphism, M_k sends each e_i, i >= 1, of order p to an element
        whose coordinate 0 is divisible by p^j, so M_k applied to residues
        is lift-independent.  M_k is additive, hence the image of (head h,
        tail l) is the head image heads[h] M_k^T + c_k plus the tail image
        tails[l] M_k^T.  Both tables are built on canonical residue vectors,
        so their entries stay under the dim * top^2 bound that GroupParams
        keeps below int64, and both come back reduced mod row_moduli.
        """
        d, bo, m = self.params.dim, self.params.b_order, self.params.row_moduli
        probe = np.vstack([np.zeros((1, d), dtype=np.int64), np.eye(d, dtype=np.int64)])
        ks = np.repeat(np.arange(bo, dtype=np.int64), d + 1)
        FV, FK = self.decode(f(self.encode(np.tile(probe, (bo, 1)), ks)))
        FV = FV.reshape(bo, d + 1, d)
        c, s = FV[:, 0], FK[:: d + 1]
        MT = (FV[:, 1:] - c[:, None]) % m
        _, heads, tails = self._split

        def images(k: int) -> tuple[np.ndarray, np.ndarray]:
            return (heads @ MT[k] + c[k]) % m, tails @ MT[k] % m

        return s, images

    def _sweep(self, f) -> np.ndarray:
        """Index of f(a) for every a; f maps index arrays by a word map.

        Exact only for word maps, by the affine lemma of _slices: the image
        of (head h, tail l) at b-exponent k is the sum of a head entry and a
        tail entry, reduced, with b-exponent s(k).  Coordinate i of both
        tables is scaled by its place value w_i, so a head entry plus a tail
        entry is below 2 m_i w_i <= 2A, and one compare-and-subtract of
        m_i w_i gives w_i times coordinate i of the image.  Their sum plus
        s(k) A is the image's index: no element is reduced by division or
        encoded.  Each b-exponent builds its tables once, and a chunk of
        _CHUNK // L head rows takes this pass once per coordinate, straight
        into its slice of the result.
        """
        d, bo, A = self.params.dim, self.params.b_order, self._abelian
        m, w = self.params.row_moduli, self._place_values
        s, images = self._slices(f)
        L, heads, _ = self._split
        rows = max(1, _CHUNK // L)
        wrap = (m * w).astype(np.uint64)
        out = np.empty(self.N, dtype=np.int64)
        flat = out.view(np.uint64)
        x = np.empty((rows, L), dtype=np.uint64)
        y = np.empty_like(x)
        for k in range(bo):
            head, tail = (np.ascontiguousarray((t * w).T, dtype=np.uint64) for t in images(k))
            base = np.uint64(int(s[k]) * A)
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
        return out

    def common_fibers(self, words, targets, first: int) -> list[tuple[int, list[int]]]:
        """IndexGroup.common_fibers matched on the tables of _slices; no
        array of length N is built.

        Element (h, l) of b-exponent k lies in the fiber of every word over
        t = (t_v, t_k) iff s(k) = t_k for every word, and for every word
        its tail image T[l] equals the needed vector (t_v - H[h]) mod
        row_moduli, H the head table.  A vector's key x @ w is below A, so
        one base-A number whose digits are the keys of all words, the joint
        key, matches every word at once; A^len(words) < 2^63 is checked
        first, so no joint key wraps.  The tails of one joint key, ascending
        in l from one stable argsort, are the hits of every head whose
        needed joint key equals it, so the count is a sum over heads and the
        first hits come in index order k A + h L + l.  Each b-exponent
        costs O((H + L) log L) per word and target.
        """
        A, w, m = self._abelian, self._place_values, self.params.row_moduli
        if A ** len(words) >= 2 ** 63:
            raise ParameterError(f"the joint key of {len(words)} words over {A} vectors passes int64")
        L, heads, _ = self._split
        TV, TK = self.decode(np.asarray(targets, dtype=np.int64))
        slices = [self._slices(f) for f in words]
        counts = [0] * len(TK)
        found: list[list[int]] = [[] for _ in TK]
        for k in range(self.params.b_order):
            live = [i for i, t_k in enumerate(TK.tolist()) if all(s[k] == t_k for s, _ in slices)]
            if not live:
                continue
            tail_key = np.zeros(L, dtype=np.int64)
            need_key = np.zeros((len(live), len(heads)), dtype=np.int64)
            for _, images in slices:
                head, tail = images(k)
                tail_key = tail_key * A + tail @ w
                need_key = need_key * A + (TV[live][:, None, :] - head) % m @ w
            order = np.argsort(tail_key, kind="stable")
            keys = tail_key[order]
            lo, hi = np.searchsorted(keys, need_key, "left"), np.searchsorted(keys, need_key, "right")
            for i, starts, stops in zip(live, lo, hi):
                counts[i] += int((stops - starts).sum())
                for h in np.flatnonzero(stops > starts).tolist():
                    if len(found[i]) >= first:
                        break
                    ls = order[starts[h] : min(stops[h], starts[h] + first - len(found[i]))]
                    found[i] += (k * A + h * L + ls).tolist()
        return list(zip(counts, found))
