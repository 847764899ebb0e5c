"""Counting the sets G_n(u, g) = {a : a^n = (a u^-1)^n = g}.

Two independent routes are provided on purpose.  The brute-force count
counts every group element, evaluating both n-th powers with the group's
own product: on a table by the whole-group maps, on S(p,j) by the slice
rule of SpjGroup.common_fibers, which matches the affine images of the
heads and tails of each b-exponent; it works for any group of at most
10^8 elements, the fixed bound that _guard checks before any work.  The
structured counter works only for the built-in family at n = p^j and
never enumerates, so no bound applies to it: membership reduces to one
linear congruence per b-exponent of the candidate.  Tests hold the two
routes against each other; nothing here shares intermediate results
between them.

Multiplication tables for external groups enter through validate_table,
or through load_table_group from a file, and both check the group axioms
before anything downstream trusts them.  A file whose table is a plain
decimal grid is scanned straight into the int64 array; any other file is
read by json.load.

Both families, spgroup.SpjGroup and TableGroup, implement the group
interface defined on spgroup.IndexGroup, and the counters and scans take
the group itself.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .construction import build_b
from .mixedmod import GroupParams, MixedVector, VerificationError, _prime_factors
from .spgroup import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationLimitError,
    IndexGroup,
    SElement,
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


class TableGroup(IndexGroup):
    """Group given by a validated multiplication table over 0..order-1.

    Implements the group interface of IndexGroup; elements already are indices.
    generators is a generating set, the greedy one of validate_table.
    """

    def __init__(
        self,
        array: np.ndarray,
        identity_index: int,
        name: str | None,
        generators: Sequence[int],
    ):
        self.array = array
        self.N = len(array)
        self.identity_index = identity_index
        self.name = name
        self.generators = tuple(generators)
        self.inverse = np.argmax(array == identity_index, axis=1)

    @cached_property
    def exponent(self) -> int:
        """The exponent certified by the power maps, computed once."""
        return exponent(self)

    def multiply(self, x: int, y: int) -> int:
        return int(self.array[x, y])

    def invert(self, x: int) -> int:
        return int(self.inverse[x])

    def power(self, x: int, e: int) -> int:
        return int(self.power_indices(np.array([x]), e)[0])

    def describe(self) -> str:
        return self.name or f"table group of order {len(self.array)}"

    def describe_element(self, x: int) -> str:
        return str(x)

    def to_element(self, idx: int) -> int:
        return idx

    def from_element(self, x: int) -> int:
        return x

    def mul_index_arrays(self, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
        return self.array[a_idx, b_idx]

    def invert_index_array(self, idx: np.ndarray) -> np.ndarray:
        return self.inverse[idx]

    def _sweep(self, f) -> np.ndarray:
        """Index of f(a) for every a, by evaluating f on every index."""
        return f(np.arange(self.N))


# Entries of one block of table lines, for the Latin and associativity checks.
_BLOCK = 1 << 20


def _check_latin(T: np.ndarray, line: str, place: str) -> None:
    """Raise on the first line of T that repeats an entry.

    T holds 0..N-1 in its narrowest dtype; lines are sorted a block at a
    time, and a walk names the first repeat of the first bad line.
    """
    N = len(T)
    full = np.arange(N, dtype=T.dtype)
    step = max(1, _BLOCK // N)
    for a0 in range(0, N, step):
        block = np.array(T[a0 : a0 + step], order="C")
        block.sort(axis=1)
        bad = (block != full).any(axis=1)
        if not bad.any():
            continue
        r = a0 + int(np.argmax(bad))
        seen: dict[int, int] = {}
        for c, val in enumerate(T[r].tolist()):
            if val in seen:
                raise TableError(
                    f"Latin-square violation: {line} {r} repeats {val} "
                    f"at {place} {seen[val]} and {c}"
                )
            seen[val] = c


def validate_table(table: Sequence[Sequence[int]], name: str | None = None) -> TableGroup:
    """Check the group axioms on a raw grid and wrap it as a TableGroup.

    The list-level checks, shape and entry types, are made here; the
    group axioms are checked by _validate_grid on the int64 array.
    """
    N = len(table)
    if N == 0:
        raise TableError("empty table")
    for r, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise TableError(f"row {r} is {type(row).__name__}, expected a list")
        if len(row) != N:
            raise TableError(f"row {r} has {len(row)} entries, expected {N}")
    # Entries are checked on the whole array; the walk only names the first bad one.
    T = None
    if set(map(type, itertools.chain.from_iterable(table))) == {int}:
        try:
            T = np.array(table, dtype=np.int64)
        except OverflowError:
            pass
    if T is None:
        for r, row in enumerate(table):
            for c, val in enumerate(row):
                integer = isinstance(val, int) and not isinstance(val, bool)
                if not integer or not 0 <= val < N:
                    kind = "" if integer else "an integer in "
                    raise TableError(
                        f"entry at row {r} column {c} is {val!r}, expected {kind}0..{N - 1}"
                    )
        T = np.array(table, dtype=np.int64)
    return _validate_grid(T, name)


def _validate_grid(T: np.ndarray, name: str | None) -> TableGroup:
    """Check the group axioms on a square int64 array and wrap it as a TableGroup.

    Rejections carry the offending indices.  Inverses and columns need no
    check on a table that passes: in a finite monoid with Latin rows, row a
    is onto, so every a has a right inverse and the monoid is a group, whose
    columns are Latin.  So the columns are checked only when a later check
    fails, before its error is raised, and a column repeat is named first.

    Associativity is decided exactly, for every triple, by Light's test
    (Clifford-Preston, Algebraic Theory of Semigroups I, 1.2).  The set
    of s with (x*s)*y = x*(s*y) for all x, y contains the identity and
    is closed under the product, so checking every s in a generating set
    checks every triple.  Generators are picked greedily: the smallest
    index not yet reached from the identity by right multiplication by
    the generators so far.  Each check of s compares two rows per a, so
    a violation is reported as (a, s, c) with s a generator.
    """
    N = len(T)
    if T.min() < 0 or T.max() >= N:
        r, c = divmod(int(np.argmax((T < 0) | (T >= N))), N)
        raise TableError(f"entry at row {r} column {c} is {int(T[r, c])}, expected 0..{N - 1}")

    narrow = T.astype(np.min_scalar_type(N - 1))
    _check_latin(narrow, "row", "columns")
    try:
        # Any two-sided identity is the first row e with e*0 = 0, if column 0 is Latin.
        identity_index = int(np.argmin(T[:, 0]))
        full = np.arange(N)
        if (T[identity_index] != full).any() or (T[:, identity_index] != full).any():
            raise TableError("no identity: no index e has e*x = x = x*e for all x")
        reached = np.zeros(N, dtype=bool)
        reached[identity_index] = True
        gens: list[int] = []
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            frontier = np.flatnonzero(reached)
            while frontier.size:
                hit = np.zeros(N, dtype=bool)
                hit[T[np.ix_(frontier, gens)]] = True
                frontier = np.flatnonzero(hit & ~reached)
                reached[frontier] = True
        step = max(1, _BLOCK // N)
        for s in gens:
            for a0 in range(0, N, step):
                bad = narrow[T[a0 : a0 + step, s]] != np.take(narrow[a0 : a0 + step], T[s], axis=1)
                if bad.any():
                    a, c = divmod(a0 * N + int(np.argmax(bad)), N)  # smallest a, then c
                    raise TableError(
                        f"associativity violation at ({a},{s},{c}): "
                        f"({a}*{s})*{c} = {int(T[T[a, s], c])} but {a}*({s}*{c}) = {int(T[a, T[s, c]])}"
                    )
    except TableError:
        _check_latin(narrow.T, "column", "rows")  # a column repeat is named first
        raise

    return TableGroup(T, identity_index, name, gens)


_JSON_SPACE = b" \t\n\r"
# Byte classes of a grid once JSON whitespace is deleted: "[" 0, "]" 1, "," 2,
# "0" 3, "1"-"9" 4, and 5 for every byte that a plain decimal grid cannot hold.
# A grid of N rows is read by its separators, the bytes of classes 0-2: there
# are (N + 1)^2 of them, the first and the last byte are two of them, they
# read "[", then N rows of "[", N - 1 "," and "]" joined by ",", then "]", and
# the gap after a row's "[" or after a "," inside a row holds 1 to 18 digits,
# with no leading "0" unless it is "0"; every other gap is empty.
_CLASS = bytes(min(i, 4) if i >= 0 else 5 for i in map(b"[],0123456789".find, range(256)))
_SPACED = bytes(i if 48 <= i <= 57 else 32 for i in range(256))  # non-digits to spaces
_MAX_DIGITS = 18  # every number of at most 18 digits fits int64


def _scan_table(raw: bytes) -> tuple[dict, np.ndarray] | None:
    """(wrapper, grid) when the "table" of a JSON file is a plain decimal grid.

    The grid becomes the int64 N x N array without a Python object per
    entry; any other input gives None, and load_table_group reads it with
    json.load instead.  The file is split at its first "[" and last "]".
    The rest, with "[]" on a line of its own in between, must parse as
    strict JSON to an object whose "table" is that "[]".  Strict JSON
    has no raw newline inside a string, so the "[]" is a value; no "["
    comes before it and no "]" after it, so it is the only array, and
    the span between the brackets is the value of the last "table" key.
    The span must hold only digits, ",", "[", "]" and whitespace, follow
    the separator rule above _CLASS once the whitespace is deleted, and
    hold N * N whitespace-separated numbers, so that no whitespace splits
    a number.

    A helper thread parses the span, each non-digit byte made a space, during
    the checks; a failed check drops its values or error.  Seeing only digits
    and spaces, it never stops early or warns.
    """
    start, stop = raw.find(b"["), raw.rfind(b"]") + 1
    if start < 0 or stop <= start:
        return None
    try:
        data = json.loads((raw[:start] + b"\n[]\n" + raw[stop:]).decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(data, dict) or data.get("table") != []:
        return None
    span = raw[start:stop]
    del raw
    parsed: list = []
    def parse(spaced: bytes) -> None:
        try:
            parsed.append(np.fromstring(spaced, dtype=np.int64, sep=" "))
        except Exception as exc:  # raised again below, on the caller's thread
            parsed.append(exc)
    helper = threading.Thread(target=parse, args=(span.translate(_SPACED),))
    helper.start()
    try:
        cls = np.frombuffer(span.translate(_CLASS, _JSON_SPACE), dtype=np.uint8)
        del span
        if cls.max() > 4:
            return None
        sep = np.flatnonzero(cls < 3)  # every "[", "]" and ","
        N = math.isqrt(sep.size) - 1
        if sep.size != (N + 1) ** 2:
            return None
        # The span starts with "[" and ends with "]", so sep[0] and sep[-1] are
        # its first and last bytes, and every other byte lies in a gap.
        row = "[" + "," * (N - 1) + "]"
        if cls[sep].tobytes() != ("[" + ",".join([row] * N) + "]").encode().translate(_CLASS):
            return None
        # Row r is separators (N + 2) r + 1 to (N + 2) r + N + 1, so column c of
        # these N x (N + 2) arrays is the gap after separator (N + 2) r + c: a
        # number for c = 1..N; empty for c = 0 (before the row) and N + 1.
        width = np.diff(sep).reshape(N, N + 2)  # one more than the gap's bytes
        lead = cls[1:][sep[:-1]].reshape(N, N + 2)  # the gap's first byte
        del sep, cls
        numbers = width[:, 1:-1]
        if (width[:, [0, -1]] != 1).any() or numbers.min() < 2 or numbers.max() > _MAX_DIGITS + 1:
            return None
        if ((lead[:, 1:-1] == 3) & (numbers > 2)).any():  # a number led by "0"
            return None
    finally:
        helper.join()
    [values] = parsed
    if isinstance(values, Exception):
        raise values
    if values.size != N * N:
        return None
    return data, values.reshape(N, N)


def load_table_group(path: str) -> TableGroup:
    """Read a JSON table file: {"order": N, "table": [[...]], "name"?: str}.

    A table that is a plain decimal grid is read by _scan_table and
    checked by _validate_grid; any other file is read by json.load and
    checked by validate_table.  Both routes give the same group or error.
    """
    try:
        with open(path, "rb") as fh:
            scanned = _scan_table(fh.read())
        if scanned is None:
            with open(path, "r", encoding="utf-8") as fh:
                scanned = json.load(fh), None
    except json.JSONDecodeError as exc:
        raise TableError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # bytes that are not UTF-8, or a literal past int()'s digit limit
        raise TableError(f"{path}: unreadable JSON: {exc}") from exc
    except RecursionError as exc:  # CPython's decoder recurses once per nested value
        raise TableError(f"{path}: unreadable JSON: nested too deeply") from exc
    except OSError as exc:
        raise TableError(f"{path}: {exc.strerror or exc}") from exc
    data, grid = scanned
    if not isinstance(data, dict):
        raise TableError(f"{path}: top level must be an object")
    if "order" not in data or "table" not in data:
        raise TableError(f"{path}: required fields are \"order\" and \"table\"")
    order = data["order"]
    table = data["table"] if grid is None else grid
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise TableError(f"{path}: \"order\" must be a positive integer")
    rows = len(table) if isinstance(table, (list, np.ndarray)) else type(table).__name__
    if rows != order:
        raise TableError(f"{path}: \"table\" must be a list of {order} rows, got {rows}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise TableError(f"{path}: \"name\" must be a string")
    if name is not None and any("\ud800" <= ch <= "\udfff" for ch in name):
        raise TableError(f"{path}: \"name\" holds a lone surrogate, which UTF-8 cannot encode")
    try:
        return validate_table(table, name) if grid is None else _validate_grid(grid, name)
    except TableError as exc:
        raise TableError(f"{path}: {exc}") from exc


def _guard(G) -> None:
    if G.N > DEFAULT_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"group order {G.N} exceeds the enumeration limit "
            f"{DEFAULT_ENUMERATION_LIMIT}"
        )


def gn_count_bruteforce_many(
    G,
    n: int,
    u,
    targets: Sequence,
    *,
    threads: int | None = None,  # accepted and unused: perfbench/workloads.py:_recount passes it
) -> list[GnCount]:
    """Every element counted against several targets g at once.

    The two word maps a -> a^n and a -> (a u^-1)^n go to
    G.common_fibers, which counts their common fiber over each target:
    on S(p,j) by matching the slice tables, on a table by the maps
    themselves.  Witnesses come back in enumeration order.  A group of
    more than 10^8 elements raises EnumerationLimitError before any work.
    """
    _guard(G)
    uinv = int(G.invert_index_array(np.array([G.from_element(u)]))[0])

    def shifted_power(a: np.ndarray) -> np.ndarray:
        return G.power_indices(G.mul_index_arrays(a, np.full(len(a), uinv)), n)

    tgt = [G.from_element(g) for g in targets]
    found = G.common_fibers([lambda a: G.power_indices(a, n), shifted_power], tgt, MAX_WITNESSES)
    return [
        GnCount(
            n=n,
            u=u,
            g=g,
            count=count,
            witnesses=tuple(G.to_element(w) for w in witnesses),
            method="bruteforce",
        )
        for g, (count, witnesses) in zip(targets, found)
    ]


def gn_count_bruteforce(G, n: int, u, g) -> GnCount:
    """|G_n(u,g)|, counting every element of G: by the slice rule on
    S(p,j), by the word maps on a table.  Refused past 10^8 elements."""
    return gn_count_bruteforce_many(G, n, u, [g])[0]


@lru_cache(maxsize=None)
def structured_tables(params: GroupParams) -> tuple[int, ...]:
    """For each b-exponent k, the mod-p inverse of the power coefficient.

    The p^j-th power of an element with b-exponent k is a_1^{c * v_0} with
    c = 2 p^j when p does not divide k, that is when t_of_b_exponent is 0,
    and c = p^j otherwise; only c / p^j matters mod p, so its inverse is
    all the congruence solving needs.
    Both structured routes rest on the lemma that row 0 of every B^m is
    e_0 mod p.  Reduction mod p is a ring homomorphism on these matrices,
    whose rows are reduced mod p^{j+1} or mod p, so row 0 of B^m mod p is
    e_0 (B mod p)^m; the lemma therefore holds for every m exactly when
    row 0 of B is e_0 mod p.  The EndoMatrix invariant makes row 0 of B
    divisible by p^j past column 0, so this comes down to B[0,0] = 1
    (mod p), which is checked here.
    """
    p = params.p
    corner = int(build_b(params).array[0, 0])
    if corner % p != 1:
        raise VerificationError(
            f"row 0 of B is not e_0 mod {p} (B[0,0] = {corner}), so the consistency "
            f"count is not a function of the class (k, v_0 mod p)"
        )
    inv2 = pow(2, -1, p)
    return tuple(inv2 if k % p else 1 for k in range(params.b_order))


def gn_count_structured(
    params: GroupParams,
    u: SElement,
    g: SElement,
) -> GnCount:
    """|G_{p^j}(u, g)| from the congruence analysis; no enumeration, so
    it runs at any group order.

    Any g outside the central cyclic subgroup of p^j-th powers gives 0.
    Inside it, for each b-exponent m of a candidate a the two power
    conditions pin the first coordinate of a mod p; the other coordinates
    are free.  u^-1 has b-exponent -k, and by the lemma of
    structured_tables its correction term is -v_0 mod p for every m.
    Every consistent m therefore contributes exactly p^j * p^(p^j - 2)
    elements, and the witnesses are the first of them in (m, v_0, tail)
    order.
    """
    n, p = params.n, params.p
    supported = (
        g.k == 0 and not any(g.vec.coords[1:]) and g.vec.coords[0] % n == 0
    )
    if not supported:
        return GnCount(n=n, u=u, g=g, count=0, witnesses=(), method="structured")

    rhs = (g.vec.coords[0] // n) % p
    ic = structured_tables(params)
    delta = -u.vec.coords[0] % p
    solutions = [
        (m, rhs * ic[m] % p)
        for m in range(n)
        if (rhs * ic[m] - rhs * ic[(m - u.k) % n] + delta) % p == 0
    ]
    candidates = (
        SElement(MixedVector(params, np.array((v0,) + tail, dtype=np.int64)), m)
        for m, v0_res in solutions
        for v0 in range(v0_res, params.top_modulus, p)
        for tail in itertools.product(range(p), repeat=params.dim - 1)
    )
    return GnCount(
        n=n,
        u=u,
        g=g,
        count=len(solutions) * n * p ** (n - 2),
        witnesses=tuple(itertools.islice(candidates, MAX_WITNESSES)),
        method="structured",
    )


def _distinct_values(a: np.ndarray) -> np.ndarray:
    """The distinct values of a nonempty array, ascending, by a sort and a diff.

    np.unique would do, but it imports numpy.ma on its first call.
    """
    s = np.sort(a)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def exponent(G) -> int:
    """Least common multiple of all element orders, certified by fiber counts:
    x^e = 1 for every x, and for each prime q of e some x has x^{e/q} != 1."""
    _guard(G)
    e = math.lcm(*_distinct_values(G.orders).tolist())

    def kills(k: int) -> bool:
        [(count, _)] = G.common_fibers([lambda a: G.power_indices(a, k)], [G.identity_index], 0)
        return count == G.N

    if not kills(e) or any(kills(e // q) for q in _prime_factors(e)):
        raise VerificationError(f"power maps of {G.describe()} do not certify exponent {e}")
    return e
