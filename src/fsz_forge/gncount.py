"""Counting the sets G_n(u, g) = {a : a^n = (a u^-1)^n = g}.

Two independent routes are provided on purpose.  The brute-force scan
enumerates every group element and evaluates both n-th powers honestly
by square-and-multiply; it works for any enumerable group handle.  The
structured counter works only for the built-in family at n = p^j and
never enumerates: membership reduces to one linear congruence per
b-exponent of the candidate.  Tests hold the two routes against each
other; nothing here shares intermediate results between them.

Multiplication tables for external groups enter through validate_table,
which checks the group axioms before anything downstream trusts them.

The group interface.  Both families, spgroup.SpjGroup and TableGroup,
implement it, and the counters and scans take the group itself:

- N, identity_index, order(), identity(), describe();
- scalar elements: multiply, invert, power, element_order,
  describe_element, and to_element / from_element, which map between
  elements and their indices 0..N-1;
- index arrays: pow_index_array(n), rightmul_array(x), leftmul_array(x),
  mul_index_arrays(a, b), invert_index(x), invert_index_array(a),
  orders_exponent(), and class_marker(), which returns a function that
  marks the conjugacy class of an index and returns the class size.
  Methods that sweep the whole group take a per-call threads count.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .mixedmod import GroupParams, MixedVector
from .spgroup import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationLimitError,
    SElement,
    b_power_row0,
    invert,
    t_of_b_exponent,
)

MAX_WITNESSES = 16


class TableError(ValueError):
    """A multiplication table fails validation; indices are in the message."""


@dataclass(frozen=True)
class GnCount:
    """Result of one count: |{a : a^n = (a u^-1)^n = g}|."""

    n: int
    u: object
    g: object
    count: int
    witnesses: tuple
    method: str

    def as_dict(self, describe=str) -> dict:
        return {
            "n": self.n,
            "u": describe(self.u),
            "g": describe(self.g),
            "count": self.count,
            "witnesses": [describe(w) for w in self.witnesses],
            "method": self.method,
        }


class TableGroup:
    """Group given by a validated multiplication table over 0..order-1.

    Implements the group interface above; elements already are indices.
    """

    def __init__(self, array: np.ndarray, identity_index: int, name: str | None):
        self.array = array
        self.N = len(array)
        self.identity_index = identity_index
        self.name = name
        self.inverse = np.argmax(array == identity_index, axis=1)
        self._pow_cache: dict[int, np.ndarray] = {}

    def order(self) -> int:
        return len(self.array)

    def identity(self) -> int:
        return self.identity_index

    def multiply(self, x: int, y: int) -> int:
        return int(self.array[x, y])

    def invert(self, x: int) -> int:
        return int(self.inverse[x])

    def power(self, x: int, e: int) -> int:
        if e < 0:
            x, e = self.invert(x), -e
        result, base = self.identity_index, x
        while e:
            if e & 1:
                result = int(self.array[result, base])
            e >>= 1
            if e:
                base = int(self.array[base, base])
        return result

    def element_order(self, x: int) -> int:
        order, y = 1, x
        while y != self.identity_index:
            y = int(self.array[y, x])
            order += 1
        return order

    def describe(self) -> str:
        return self.name or f"table group of order {len(self.array)}"

    def describe_element(self, x: int) -> str:
        return str(x)

    def to_element(self, idx: int) -> int:
        return idx

    def from_element(self, x: int) -> int:
        return x

    def pow_index_array(self, n: int, threads: int | None = None) -> np.ndarray:
        """x^n for every x at once, as an index array."""
        if n not in self._pow_cache:
            N = len(self.array)
            e = n
            invert_first = e < 0
            if invert_first:
                e = -e
            result = np.full(N, self.identity_index, dtype=np.int64)
            base = self.inverse.copy() if invert_first else np.arange(N, dtype=np.int64)
            while e:
                if e & 1:
                    result = self.array[result, base]
                e >>= 1
                if e:
                    base = self.array[base, base]
            self._pow_cache[n] = np.ascontiguousarray(result)
        return self._pow_cache[n]

    def rightmul_array(self, x_idx: int, threads: int | None = None) -> np.ndarray:
        return self.array[:, x_idx].copy()

    def leftmul_array(self, x_idx: int, threads: int | None = None) -> np.ndarray:
        return self.array[x_idx].copy()

    def invert_index(self, x_idx: int) -> int:
        return self.invert(x_idx)

    def mul_index_arrays(self, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
        return self.array[a_idx, b_idx]

    def invert_index_array(self, idx: np.ndarray) -> np.ndarray:
        return self.inverse[idx]

    def orders_exponent(self, threads: int | None = None) -> int:
        return math.lcm(*(self.element_order(x) for x in range(self.N)))

    def class_marker(self, threads: int | None = None):
        """mark(a, seen) setting seen over the conjugacy class of a.

        mark returns the size of the class.  No generating set is known
        for a raw table, so a is conjugated by every element at once.
        Marks cover whole classes, so the class of an unseen a is
        disjoint from seen and its size is the growth of seen.
        """
        T, inv, everyone = self.array, self.inverse, np.arange(self.N)

        def mark(a: int, seen: np.ndarray) -> int:
            before = np.count_nonzero(seen)
            seen[T[T[inv, a], everyone]] = True
            return int(np.count_nonzero(seen) - before)

        return mark


def _check_latin(T: np.ndarray, line: str, place: str) -> None:
    """Raise on the first line of T that repeats an entry."""
    full = np.arange(len(T))
    for r, entries in enumerate(T):
        if not np.array_equal(np.sort(entries), full):
            seen: dict[int, int] = {}
            for c, val in enumerate(entries.tolist()):
                if val in seen:
                    raise TableError(
                        f"Latin-square violation: {line} {r} repeats {val} "
                        f"at {place} {seen[val]} and {c}"
                    )
                seen[val] = c


def validate_table(table: Sequence[Sequence[int]], name: str | None = None) -> TableGroup:
    """Check the group axioms on a raw grid and wrap it as a TableGroup.

    Rejections carry the offending indices.  Inverses need no separate
    check: a Latin square with a two-sided identity puts the identity
    exactly once in every row.

    Associativity is decided exactly, for every triple, by Light's test
    (Clifford-Preston, Algebraic Theory of Semigroups I, 1.2).  The set
    of s with (x*s)*y = x*(s*y) for all x, y contains the identity and
    is closed under the product, so checking every s in a generating set
    checks every triple.  Generators are picked greedily: the smallest
    index not yet reached from the identity by right multiplication by
    the generators so far.  Each check of s compares two rows per a, so
    a violation is reported as (a, s, c) with s a generator.
    """
    N = len(table)
    if N == 0:
        raise TableError("empty table")
    for r, row in enumerate(table):
        if len(row) != N:
            raise TableError(f"row {r} has {len(row)} entries, expected {N}")
        for c, val in enumerate(row):
            if not isinstance(val, int) or isinstance(val, bool) or not 0 <= val < N:
                raise TableError(f"entry at row {r} column {c} is {val!r}, expected 0..{N - 1}")
    T = np.array(table, dtype=np.int64)

    _check_latin(T, "row", "columns")
    _check_latin(T.T, "column", "rows")

    full = np.arange(N)
    identity_index = -1
    for e in range(N):
        if np.array_equal(T[e], full) and np.array_equal(T[:, e], full):
            identity_index = e
            break
    if identity_index < 0:
        raise TableError("no identity: no index e has e*x = x = x*e for all x")

    reached = np.zeros(N, dtype=bool)
    reached[identity_index] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.unique(T[np.ix_(frontier, gens)])
            frontier = step[~reached[step]]
            reached[frontier] = True
    for s in gens:
        row_s = T[s]
        for a in range(N):
            left = T[T[a, s]]
            right = T[a][row_s]
            if not np.array_equal(left, right):
                c = int(np.argmax(left != right))
                raise TableError(
                    f"associativity violation at ({a},{s},{c}): "
                    f"({a}*{s})*{c} = {int(left[c])} but {a}*({s}*{c}) = {int(right[c])}"
                )

    return TableGroup(T, identity_index, name)


def load_table_group(path: str) -> TableGroup:
    """Read a JSON table file: {"order": N, "table": [[...]], "name"?: str}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TableError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise TableError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(data, dict):
        raise TableError(f"{path}: top level must be an object")
    if "order" not in data or "table" not in data:
        raise TableError(f"{path}: required fields are \"order\" and \"table\"")
    order = data["order"]
    table = data["table"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise TableError(f"{path}: \"order\" must be a positive integer")
    if not isinstance(table, list) or len(table) != order:
        raise TableError(
            f"{path}: \"table\" must be a list of {order} rows, got "
            f"{len(table) if isinstance(table, list) else type(table).__name__}"
        )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise TableError(f"{path}: \"name\" must be a string")
    try:
        return validate_table(table, name)
    except TableError as exc:
        raise TableError(f"{path}: {exc}") from exc


def _guard(G, limit: int) -> None:
    if G.order() > limit:
        raise EnumerationLimitError(
            f"group order {G.order()} exceeds the enumeration limit {limit}"
        )


def gn_count_bruteforce_many(
    G,
    n: int,
    u,
    targets: Sequence,
    *,
    threads: int | None = None,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    max_witnesses: int = MAX_WITNESSES,
) -> list[GnCount]:
    """One full scan, counted against several targets g at once.

    Each target costs only the final comparisons; the two n-th powers per
    element are computed once.  Witnesses come back in enumeration order.
    """
    _guard(G, limit)
    uinv = G.invert_index(G.from_element(u))
    shifted = G.rightmul_array(uinv, threads)
    powers = G.pow_index_array(n, threads)
    tgt = np.array([G.from_element(g) for g in targets], dtype=np.int64)

    counts = []
    witness_idx = []
    for t in tgt:
        mask = (powers == t) & (powers[shifted] == t)
        counts.append(int(mask.sum()))
        witness_idx.append([int(i) for i in np.nonzero(mask)[0][:max_witnesses]])
    return [
        GnCount(
            n=n,
            u=u,
            g=g,
            count=counts[i],
            witnesses=tuple(G.to_element(w) for w in witness_idx[i]),
            method="bruteforce",
        )
        for i, g in enumerate(targets)
    ]


def gn_count_bruteforce(
    G,
    n: int,
    u,
    g,
    *,
    threads: int | None = None,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    max_witnesses: int = MAX_WITNESSES,
) -> GnCount:
    """|G_n(u,g)| by scanning every element of G."""
    return gn_count_bruteforce_many(
        G, n, u, [g], threads=threads, limit=limit, max_witnesses=max_witnesses
    )[0]


@lru_cache(maxsize=None)
def structured_tables(params: GroupParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """t(k) for each b-exponent k, and the mod-p inverse of the coefficient.

    The p^j-th power of an element with b-exponent k is a_1^{c * v_0} with
    c = 2 p^j when t(k) = 0 and c = p^j otherwise; only c / p^j matters
    mod p, so its inverse is all the congruence solving needs.
    """
    t_table = tuple(t_of_b_exponent(params, k) for k in range(params.b_order))
    inv2 = pow(2, -1, params.p)
    inv_coeff = tuple(inv2 if t == 0 else 1 for t in range(params.j + 1))
    return t_table, inv_coeff


def _structured_profile(params: GroupParams, u: SElement):
    """Per-exponent data for counting against any central target.

    Returns (kw, deltas, t_table, inv_coeff) where deltas[m] is the first
    coordinate mod p of B^m applied to the vector part of u^-1.
    """
    uinv = invert(params, u)
    w = uinv.vec.coords
    row0 = b_power_row0(params)
    p = params.p
    deltas = tuple(
        sum(r * c for r, c in zip(row0[m], w)) % p for m in range(params.b_order)
    )
    t_table, inv_coeff = structured_tables(params)
    return uinv.k, deltas, t_table, inv_coeff


def _structured_solutions(params: GroupParams, u: SElement, rhs: int) -> list[tuple[int, int]]:
    """(m, v_0 residue) for every consistent b-exponent m, ascending in m."""
    p = params.p
    kw, deltas, t_table, ic = _structured_profile(params, u)
    out = []
    for m in range(params.b_order):
        s1 = rhs * ic[t_table[m]] % p
        s2 = (rhs * ic[t_table[(m + kw) % params.b_order]] - deltas[m]) % p
        if s1 == s2:
            out.append((m, s1))
    return out


def gn_count_structured(
    params: GroupParams,
    u: SElement,
    g: SElement,
    *,
    max_witnesses: int = MAX_WITNESSES,
) -> GnCount:
    """|G_{p^j}(u, g)| from the congruence analysis; no enumeration.

    Any g outside the central cyclic subgroup of p^j-th powers gives 0.
    Inside it, for each b-exponent m of a candidate a the two power
    conditions pin the first coordinate of a mod p; the other coordinates
    are free.  Every consistent m therefore contributes exactly
    p^j * p^(p^j - 2) elements.
    """
    n = params.n
    supported = (
        g.k == 0 and not any(g.vec.coords[1:]) and g.vec.coords[0] % n == 0
    )
    if not supported:
        return GnCount(n=n, u=u, g=g, count=0, witnesses=(), method="structured")

    rhs = (g.vec.coords[0] // n) % params.p
    solutions = _structured_solutions(params, u, rhs)
    per_m = n * params.p ** (n - 2)
    count = len(solutions) * per_m

    witnesses = []
    p, d = params.p, params.dim
    for m, v0_res in solutions:
        if len(witnesses) >= max_witnesses:
            break
        for v0 in range(v0_res, params.top_modulus, p):
            if len(witnesses) >= max_witnesses:
                break
            for tail in itertools.product(range(p), repeat=d - 1):
                witnesses.append(SElement(MixedVector(params, (v0,) + tail), m))
                if len(witnesses) >= max_witnesses:
                    break
    return GnCount(
        n=n, u=u, g=g, count=count, witnesses=tuple(witnesses), method="structured"
    )


def exponent(G, *, limit: int = DEFAULT_ENUMERATION_LIMIT, threads: int | None = None) -> int:
    """Least common multiple of all element orders."""
    _guard(G, limit)
    return G.orders_exponent(threads)
