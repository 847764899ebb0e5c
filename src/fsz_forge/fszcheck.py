"""FSZ_n verdicts by comparing |G_n(u,g)| against |G_n(u,g^m)|.

A group is FSZ_n when the counts agree for every commuting pair (u,g)
and every m coprime to the group order.  check_fsz_n decides each n by
one of five routes, each named by its verdict's statistics["route"]:

- lemma-coprime and lemma-exponent.  With e the exponent and d =
  gcd(n, e), FSZ_n holds when d = 1 or d = e (Lemma 1, proved at
  check_fsz_n), with no power map, class table or scan.  On S(p,j),
  e = p^{j+1} (Lemma 2, SpjGroup.exponent); a table reads e off its
  power maps.
- structured: S(p,j) at n = p^j, below.
- generic: the class scan, for every other n.  Of the reduced routes
  only this one enumerates, so the 10^8 bound is checked only when
  some n needs it.
- reference: with reduction off, the reference scan below decides
  every n, on groups of at most 4096 elements.

Lemma 3, the +-m pairing: for u in C(g), |G_n(u, g)| = |G_n(u, g^-1)|.
If a^n = (a u^-1)^n = g, then c = u a^-1 has c^n = ((a u^-1)^n)^-1 =
g^-1 and (c u^-1)^n = u (a^-1)^n u^-1 = u g^-1 u^-1 = g^-1, since u
commutes with g.  a -> u a^-1 is injective, so |G_n(u, g)| <=
|G_n(u, g^-1)|, and the same map for g^-1 gives the reverse.  For
u in C(g), which lies in C(g^m), the targets g^m and g^-m thus have
equal counts, so the scans keep one residue of each pair, the m with
2 (m mod |g|) < |g|.  That drops m = -1 (mod |g|), whose partner is g
itself, so an element of order 3, 4 or 6 has no target.  The witness
does not change: the first unequal target at the smallest u has a
partner that is unequal at the same u, and of the two the kept one
comes first.  The reference scan keeps every target and uses no lemma.

The generic scan iterates g over conjugacy-class representatives and u
over the centralizer of g, which covers all commuting pairs up to
simultaneous conjugation; one representative m per distinct power g^m
suffices because the count only sees g^m.  These reductions and the
pairing are tested against the reference scan for tiny groups, its own
loop over every element g, with targets g^m from the scalar G.power,
every histogram built at its use and every target compared on all of
C(g).

Nothing in the class table depends on n, so it is built once per group
and reused for every n.  It is five int64 columns with one row per
class: the representative g, |C(g)| = |G| / |class of g|, and the slice
of g's targets in two flat columns, the residues m and the indices of
g^m, walked on index arrays for all representatives at once.  The
residues depend only on the order of g, which the group's orders array
reads off the power maps.  For each n a class is skipped, and counted as
|C(g)| examined pairs, when no count on it can differ:

- every needed power bucket B = {a : a^n = h} has at most one element.
  A bucket {a} pairs a only with itself (a u^-1 = a forces u = e), so
  every count is |B| [u = e], and equal bucket sizes give equal counts.
  One array pass per n reads every bucket size and applies this rule
  to every row, so a row it skips costs no Python;
- otherwise, the histograms u -> |G_n(u, h)| of g and of every target
  agree on all of G, hence on C(g).

The remaining rows are walked in representative order.  Histograms are
kept in a least-recently-used cache within a fixed byte budget, so a
larger budget never builds more.  Only a row with an unequal histogram
builds C(g) and compares on it, which keeps the witness at the smallest
u.  The statistics are prefix sums over the rows, those of the full
comparison.

For the built-in family at n = p^j the scan enumerates no elements, so
no enumeration limit applies to it.  Only the p - 1 nonidentity elements
of the central subgroup of p^j-th powers can give a nonzero count, so
every other g is skipped soundly.  The per-u counts come from the
congruence analysis and depend only on the class of u given by its
b-exponent k and v_0 mod p: row 0 of every B^m is e_0 mod p, so the
correction term of the congruence is -v_0 mod p for every m.  A table of
p^{j+1} classes thus stands for all |G| elements.  Only the target
a_1^{p^j} needs comparing: an unequal pair of class (k, r) at a_1^{s p^j}
is the unequal pair of class (k, r/s) at a_1^{p^j}.  The premise is
checked at run time in gncount.structured_tables, on which this scan
and the scalar structured counter both rest; it raises
VerificationError when it fails.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gncount import (_guard, _distinct_values, exponent, gn_count_structured,
                      structured_tables)
from .mixedmod import GroupParams, MixedVector, ParameterError, VerificationError, _prime_factors
from .spgroup import (
    EnumerationLimitError,
    SElement,
    SpjGroup,
    generator_a,
    generator_b,
    multiply,
)

NO_REDUCTION_LIMIT = 4096


@dataclass(frozen=True)
class FszWitness:
    """A commuting pair and residue with unequal counts."""

    u: object
    g: object
    m: int
    count_g: int
    count_gm: int

    def as_dict(self, describe=str) -> dict:
        return {
            "u": describe(self.u),
            "g": describe(self.g),
            "m": self.m,
            "count_g": self.count_g,
            "count_gm": self.count_gm,
        }


@dataclass(frozen=True)
class FszVerdict:
    group: str
    n: int
    verdict: str
    witness: FszWitness | None
    statistics: dict

    @property
    def is_fsz(self) -> bool:
        return self.verdict.startswith("FSZ")

    def as_dict(self, describe=str) -> dict:
        return {
            "group": self.group,
            "n": self.n,
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.as_dict(describe),
            "statistics": dict(sorted(self.statistics.items())),
        }


def residue_witness_classes(og: int, N: int) -> list[int]:
    """Representatives m, coprime to N = |G|, one per distinct power g^m.

    og is the order of g.  Units mod og other than 1 enumerate the
    distinct powers; each is lifted so it is also a unit modulo every
    prime of N that misses og.  The lift changes nothing inside a p-group.
    """
    if og == 1:
        return []
    R = math.prod(q for q in _prime_factors(N) if og % q)
    out = []
    for m in range(2, og):
        if math.gcd(m, og) != 1:
            continue
        lifted = m + og * ((1 - m) * pow(og, -1, R) % R)  # m itself when R = 1
        if math.gcd(lifted, N) != 1:
            raise VerificationError(
                f"lift {lifted} of the unit {m} mod {og} is not coprime to {N}"
            )
        out.append(lifted)
    return out


def conjugacy_class_reps(G) -> tuple[list[int], list[int]]:
    """Smallest-index representatives of the conjugacy classes, and their sizes.

    G.conjugation_array gives, per generator c, the permutation
    P[a] = c^-1 a c.  Starting from label[a] = a, each round sets label
    to min(label, label[P]) for every P and then to label[label], until
    no label changes.  Labels only decrease, so an unchanged sum means
    an unchanged array.  At the fixed point label[a] is the minimum of
    the class of a:

    - label[a] stays in the class of a and at most a: both rules take a
      label of an element of that class;
    - label[a] <= label[P[a]] for every P, and a class is one forward
      orbit under the P (conjugation by a product composes the generator
      actions, and a permutation of a finite set returns to its start),
      so label is constant on each class;
    - so the class minimum m has label[m] <= m, and the constant label
      of the class, lying in it, is m.
    """
    perms = [G.conjugation_array(c) for c in G.generators]
    label = np.arange(G.N)
    total, before = int(label.sum()), None
    while total != before:
        for P in perms:
            np.minimum(label, label[P], out=label)
        label = label[label]
        before, total = total, int(label.sum())
    del perms  # free the permutations before the two N-length passes below
    reps = np.flatnonzero(label == np.arange(G.N))
    return reps.tolist(), np.bincount(label)[reps].tolist()


# One class table per live group: check_fsz builds it at its first
# generic n and every later n reuses it.  An entry dies with its group.
_CLASS_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _class_table(G) -> tuple[np.ndarray, ...]:
    """The class table as five int64 columns: reps, cent, tstart, tm, tidx.

    Row i is the class of reps[i], with cent[i] = |G| / |class| the size
    of its centralizer.  Its targets are the entries tstart[i] to
    tstart[i + 1] of tm, the residues m, and of tidx, the indices of
    reps[i]^m: those of residue_witness_classes with 2 (m mod |g|) < |g|,
    one of each +-m pair (Lemma 3 of the module docstring).
    """
    table = _CLASS_TABLES.get(G)
    if table is not None:
        return table
    reps, sizes = (np.array(x, dtype=np.int64) for x in conjugacy_class_reps(G))
    orders = G.orders[reps]
    # The residues depend only on the order: one list, and one row mask, per order.
    by_order = [
        (orders == og, [m for m in residue_witness_classes(og, G.N) if 2 * (m % og) < og])
        for og in _distinct_values(orders).tolist()
    ]
    tstart = np.zeros(len(reps) + 1, dtype=np.int64)
    for rows, ms in by_order:
        tstart[1:][rows] = len(ms)
    np.cumsum(tstart, out=tstart)
    tm = np.empty(tstart[-1], dtype=np.int64)
    for rows, ms in by_order:
        tm[tstart[:-1][rows][:, None] + np.arange(len(ms))] = ms
    owner = np.repeat(np.arange(len(reps)), np.diff(tstart))
    # Walk g^k for every rep at once and keep g^m at k = m.  The walk is
    # shorter than the exponent: a lifted m is below |g| R, a divisor of it.
    tidx = np.empty_like(tm)
    power = reps
    for k in range(1, int(tm.max(initial=0)) + 1):
        if k > 1:
            power = G.mul_index_arrays(power, reps)
        hit = tm == k
        tidx[hit] = power[owner[hit]]
    table = (reps, G.N // sizes, tstart, tm, tidx)
    _CLASS_TABLES[G] = table
    return table


def _centralizer_indices(G, g_idx: int) -> np.ndarray:
    """The a with g^-1 a g = a, ascending."""
    return np.flatnonzero(G.conjugation_array(g_idx) == np.arange(G.N))


def _power_buckets(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Preimages of the n-th power map as the stable sort order of P and the offset
    in it of each value h: the preimage of h is order[starts[h] : starts[h + 1]]."""
    order = np.argsort(P, kind="stable")
    return order, np.searchsorted(P[order], np.arange(len(P) + 1))


_PAIR_CHUNK = 1 << 22
# Bytes of the u-count histograms that one n keeps between rows; past it
# the least recently used is dropped and built again at its next use.
_HIST_BUDGET = 1 << 27


def _u_counts(G, bucket: np.ndarray) -> np.ndarray:
    """counts[u] = |{a in bucket : a*u^{-1} in bucket}| for every u.

    The condition a*u^{-1} = c pins u = c^{-1}*a, so each ordered bucket
    pair (a, c) contributes to exactly one u; a histogram over all pairs
    yields every u at once.  Pair blocks are capped to bound memory.
    """
    counts = np.zeros(G.N, dtype=np.int64)
    k = int(bucket.size)
    if not k:
        return counts
    cinv = G.invert_index_array(bucket)
    step = max(1, _PAIR_CHUNK // k)
    for i in range(0, k, step):
        block = cinv[i : i + step]
        us = G.mul_index_arrays(np.repeat(block, k), np.tile(bucket, block.size))
        counts += np.bincount(us, minlength=G.N)
    return counts


def _generic_scan(G, n: int) -> FszVerdict:
    """The class scan of the module docstring, with both skip rules."""
    order, starts = _power_buckets(G.pow_index_array(n))
    reps, cent, tstart, tm, tidx = _class_table(G)
    ntargets = np.diff(tstart)
    live = ntargets > 0  # orders 1, 2, 3, 4 and 6 keep no target
    # Rule 1 of the module docstring, for every row at once: the bucket
    # sizes of the rep and of its targets are all 0 or all 1.
    size = np.diff(starts)
    hi, lo = size[reps], size[reps]
    row_starts = tstart[:-1][live]
    hi[live] = np.maximum(hi[live], np.maximum.reduceat(size[tidx], row_starts))
    lo[live] = np.minimum(lo[live], np.minimum.reduceat(size[tidx], row_starts))
    live &= (hi > 1) | (lo != hi)

    @lru_cache(maxsize=_HIST_BUDGET // (8 * G.N))
    def histogram(h: int) -> np.ndarray:
        """u -> |G_n(u, h)|."""
        return _u_counts(G, order[starts[h] : starts[h + 1]])

    witness, stop, extra_pairs, extra_comparisons = None, len(reps), 0, 0
    for i in np.flatnonzero(live).tolist():
        g_idx, lo_t, hi_t = int(reps[i]), int(tstart[i]), int(tstart[i + 1])
        hist_g = histogram(g_idx)
        counts_g = None  # hist_g on C(g), built at the first unequal target
        first = None  # (position in C(g), target, count) of the smallest u, then m
        for t in range(lo_t, hi_t):
            hist_t = histogram(int(tidx[t]))
            if np.array_equal(hist_t, hist_g):
                continue  # rule 2: equal on G, hence on C(g)
            if counts_g is None:
                centralizer = _centralizer_indices(G, g_idx)
                if centralizer.size != cent[i]:
                    raise VerificationError(
                        f"centralizer of element {g_idx} has {centralizer.size} "
                        f"elements, but |G| / |class| = {cent[i]}"
                    )
                counts_g = hist_g[centralizer]
            counts_t = hist_t[centralizer]
            differ = np.flatnonzero(counts_t != counts_g)
            if differ.size and (first is None or differ[0] < first[0]):
                first = (int(differ[0]), t, int(counts_t[differ[0]]))
        if first is not None:
            u_pos, t, count_gm = first
            witness = FszWitness(G.to_element(int(centralizer[u_pos])), G.to_element(g_idx),
                                 int(tm[t]), int(counts_g[u_pos]), count_gm)
            stop, extra_pairs = i, u_pos + 1
            extra_comparisons = u_pos * (hi_t - lo_t) + t - lo_t + 1
            break
    # Every row before stop counts its |C(g)| pairs (u, g) and |C(g)|
    # comparisons per target; Python ints keep the sums exact.
    stats = {
        "pairs_examined": sum(cent[:stop].tolist()) + extra_pairs,
        "comparisons": sum((cent * ntargets)[:stop].tolist()) + extra_comparisons,
        "conjugacy_classes": len(reps),
        "route": "generic",
    }
    verdict = f"FSZ_{n}" if witness is None else f"non-FSZ_{n}"
    return FszVerdict(G.describe(), n, verdict, witness, stats)


def _reference_scan(G, n: int) -> FszVerdict:
    """Every element g, every target, all of C(g).  The witness is the first
    unequal count: smallest g, then u, then the order of
    residue_witness_classes; each g before it counts |C(g)| pairs and
    |C(g)| comparisons per target."""
    order, starts = _power_buckets(G.pow_index_array(n))
    witness, pairs, comparisons = None, 0, 0
    for g_idx, og in enumerate(G.orders.tolist()):
        ms = residue_witness_classes(og, G.N)
        centralizer = _centralizer_indices(G, g_idx)
        first = None  # (position in C(g), target position, count): smallest u, then target
        if ms:
            counts_g = _u_counts(G, order[starts[g_idx] : starts[g_idx + 1]])[centralizer]
        for t, m in enumerate(ms):
            h = G.from_element(G.power(G.to_element(g_idx), m))
            counts_t = _u_counts(G, order[starts[h] : starts[h + 1]])[centralizer]
            differ = np.flatnonzero(counts_t != counts_g)
            if differ.size and (first is None or differ[0] < first[0]):
                first = (int(differ[0]), t, int(counts_t[differ[0]]))
        if first is not None:
            u_pos, t, count_gm = first
            witness = FszWitness(G.to_element(int(centralizer[u_pos])), G.to_element(g_idx),
                                 ms[t], int(counts_g[u_pos]), count_gm)
            pairs += u_pos + 1
            comparisons += u_pos * len(ms) + t + 1
            break
        pairs += centralizer.size
        comparisons += centralizer.size * len(ms)
    verdict = f"FSZ_{n}" if witness is None else f"non-FSZ_{n}"
    return FszVerdict(G.describe(), n, verdict, witness,
                      {"pairs_examined": pairs, "comparisons": comparisons, "route": "reference"})


def _central_target(params: GroupParams, s: int) -> SElement:
    coords = np.zeros(params.dim, dtype=np.int64)
    coords[0] = s * params.n % params.top_modulus
    return SElement(MixedVector(params, coords), 0)


def _consistency_histogram(params: GroupParams) -> np.ndarray:
    """Histogram of the consistency congruence per b-exponent, shape (p^j, p).

    With c(m) the power coefficient of structured_tables and w the vector
    part of u^-1, b-exponent m is consistent for u (b-exponent k) against
    the central target a_1^{s p^j} when s/c(m) = s/c(m - k) - delta(m)
    (mod p), where delta(m) is the first coordinate mod p of B^m w.  When
    row 0 of every B^m is e_0 mod p, delta(m) = w_0 = -v_0 (mod p) for all
    m, so the count sees only the class (k, v_0 mod p) of u; that premise
    is checked by structured_tables, which raises VerificationError when
    it fails.  Entry [k, v] counts the m with 1/c(m) - 1/c(m - k) = v
    (mod p), and the consistency number of class (k, r) against
    a_1^{s p^j} is entry [k, r/s mod p].
    """
    p, pj = params.p, params.n
    ic = np.array(structured_tables(params), dtype=np.int64)  # [m]
    grid = np.arange(pj)
    diff = (ic[None, :] - ic[(grid[None, :] - grid[:, None]) % pj]) % p  # [k, m]
    return np.bincount((grid[:, None] * p + diff).ravel(), minlength=pj * p).reshape(pj, p)


def _structured_full_scan(G: SpjGroup) -> FszVerdict:
    """Complete FSZ_{p^j} scan of S(p,j) over p^{j+1} classes of u.

    For every u the count against the central target a_1^{s p^j} is
    (number of consistent b-exponents) times a fixed positive constant,
    and by the lemma checked in structured_tables that number depends
    only on the class (k, v_0 mod p) of u: entry [k, r/s mod p] of the
    consistency histogram for class (k, r).  g outside the central
    subgroup contributes zero against every power, hence never violates.
    By Lemma 3 of the module docstring, target s equals target p - s, so
    s and m need only run over 1..(p-1)/2.

    Only s = 1 is compared.  If class (k, r) at s and m has
    hist[k, r/s] != hist[k, r/(s m)], class (k, r/s) at s = 1 and the same
    m compares exactly those two entries.  So a scan over s stops at s = 1
    if it stops at all, and its witness (smallest s, then u, then m) is
    the first unequal entry at s = 1.  The smallest index in class (k, r)
    is k |G| / p^j + r p^{dim-1}, so class order is index order and the
    witness is that of a scan over every element.  The statistics are
    those of the scan over every s that this lemma shortens: an FSZ
    verdict counts its (p-1) |G| pairs and (p-1)/2 |G| len(ms)
    comparisons, a witness the pairs and comparisons before it at s = 1.
    The witness counts are recounted by the scalar structured counter.
    """
    params = G.params
    p, pj, N = params.p, params.n, G.N
    hist = _consistency_histogram(params)
    residues = np.arange(p)
    half = (p + 1) // 2
    ms = list(range(2, half))
    viol = np.zeros(hist.shape, dtype=bool)
    for m in ms:
        viol |= hist != hist[:, residues * pow(m, -1, p) % p]
    stats = {
        "pairs_examined": (p - 1) * N,
        "comparisons": (half - 1) * N * len(ms),
        "central_targets": p - 1,
        "skipped_by_support": N - p,
        "route": "structured",
    }
    witness = None
    if viol.any():
        k, r = divmod(int(np.flatnonzero(viol)[0]), p)
        m = next(m for m in ms if hist[k, r * pow(m, -1, p) % p] != hist[k, r])
        u = SElement(MixedVector(params, r * generator_a(params, 1).vec.array), k)
        u_idx, g = G.from_element(u), _central_target(params, 1)
        count_g = gn_count_structured(params, u, g).count
        count_gm = gn_count_structured(params, u, _central_target(params, m)).count
        per_m = pj * p ** (pj - 2)
        if (count_g, count_gm) != (int(hist[k, r]) * per_m,
                                   int(hist[k, r * pow(m, -1, p) % p]) * per_m):
            raise VerificationError("scalar recount disagrees with the class table at the witness")
        stats["pairs_examined"] = u_idx + 1
        stats["comparisons"] = u_idx * len(ms) + m - 1
        witness = FszWitness(u, g, m, count_g, count_gm)
    verdict = f"FSZ_{pj}" if witness is None else f"non-FSZ_{pj}"
    return FszVerdict(G.describe(), pj, verdict, witness, stats)


def _designated_pair(params: GroupParams) -> tuple[SElement, SElement, SElement]:
    u = multiply(params, generator_b(params), generator_a(params, 1))
    g = _central_target(params, 1)
    g2 = _central_target(params, 2)
    return u, g, g2


def _reference_guard(G) -> None:
    if G.N > NO_REDUCTION_LIMIT:
        raise EnumerationLimitError(
            f"the no-reduction scan is for cross-validation on tiny groups: "
            f"order {G.N} exceeds {NO_REDUCTION_LIMIT}"
        )


def check_fsz_n(G, n: int, *, reduction: bool = True) -> FszVerdict:
    """Decide FSZ_n for one n, with a witness when the answer is no.

    Lemma 1.  Let e be the exponent and d = gcd(n, e); FSZ_n holds
    exactly when FSZ_d does.  n = d w (mod e) for a w coprime to e,
    since the units mod e reach every unit mod e/d.  Every order divides
    e, so a^n = (a^d)^w, and x -> x^w is a bijection with inverse
    x -> x^v, v = w^-1 mod e.  Hence G_n(u, g) = G_d(u, g^v), and as g
    runs over C(u) so does h = g^v, with g^m matching h^m.  At d = 1
    the set G_1(u, h) = {a : a = h = a u^-1} has [u = 1] elements, and
    at d = e, where every a^e = 1, G_e(u, h) is G when h = 1 and empty
    otherwise; neither count changes from h to h^m, so FSZ_n holds with
    no scan.  Any other n is scanned at n itself: by the structured scan
    on S(p,j) at n = p^j, by the generic scan otherwise.

    With reduction off, the reference scan decides every n, with no
    lemma and every target.
    """
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if not reduction:
        _reference_guard(G)
        return _reference_scan(G, n)
    d = math.gcd(n, G.exponent)
    if d in (1, G.exponent):
        route = "lemma-coprime" if d == 1 else "lemma-exponent"
        return FszVerdict(G.describe(), n, f"FSZ_{n}", None, {"route": route})
    if isinstance(G, SpjGroup) and n == G.params.n:
        return _structured_full_scan(G)
    _guard(G)
    return _generic_scan(G, n)


def check_fsz(G, *, reduction: bool = True) -> list[FszVerdict]:
    """Verdicts for every n dividing the exponent e, ascending; FSZ for
    all n reduces to these n by Lemma 1 of check_fsz_n.  With reduction
    off, the tiny-group guard runs before the exponent is read off the
    power maps."""
    if not reduction:
        _reference_guard(G)
    e = G.exponent if reduction else exponent(G)
    return [check_fsz_n(G, n, reduction=reduction) for n in range(1, e + 1) if e % n == 0]


def spj_witness(params: GroupParams) -> FszVerdict:
    """Counts at the designated pair (b a_1, a_1^{p^j}) and its square.

    For p > 3 the first count must be 0 and the second positive, which
    certifies non-FSZ_{p^j} with m = 2; anything else is a hard error.
    For p = 3 both counts are reported without asserting an inequality.
    Unequal counts are a witness with m = 2; equal counts are inconclusive.
    """
    u, g, g2 = _designated_pair(params)
    c1 = gn_count_structured(params, u, g).count
    c2 = gn_count_structured(params, u, g2).count
    if params.p > 3 and (c1 != 0 or c2 <= 0):
        raise VerificationError(
            f"designated pair of {params.describe()} gave counts "
            f"({c1}, {c2}); expected (0, positive)"
        )
    differ = c1 != c2
    return FszVerdict(
        group=SpjGroup(params).describe(),
        n=params.n,
        verdict=f"non-FSZ_{params.n}" if differ else "inconclusive (designated pair counts equal)",
        witness=FszWitness(u, g, 2, c1, c2) if differ else None,
        statistics={"count_designated": c1, "count_designated_square": c2, "pairs_examined": 1},
    )
