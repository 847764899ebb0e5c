"""FSZ_n verdicts, residue classes, class reps, and the designated witness."""

import math
import random

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge.mixedmod import GroupParams
from fsz_forge.gncount import (
    EnumerationLimitError,
    exponent,
    gn_count_bruteforce,
    gn_count_structured,
    structured_tables,
    validate_table,
)
from fsz_forge.fszcheck import (
    FszVerdict,
    FszWitness,
    VerificationError,
    _central_target,
    _consistency_histogram,
    _generic_scan,
    _power_buckets,
    _u_counts,
    check_fsz,
    check_fsz_n,
    conjugacy_class_reps,
    residue_witness_classes,
    spj_witness,
)
from fsz_forge.spgroup import (
    DEFAULT_ENUMERATION_LIMIT,
    SpjGroup,
    b_power_row0,
    element_at,
    enumerate_elements,
    generator_a,
    identity_element,
    power_generic,
    random_element,
)

P31 = GroupParams(3, 1)
P51 = GroupParams(5, 1)


def test_residue_witness_classes_values():
    G = SpjGroup(P51)
    a1 = generator_a(P51, 1)
    g5 = power_generic(P51, a1, 5)
    assert residue_witness_classes(G, g5) == [2, 3, 4]
    assert residue_witness_classes(G, identity_element(P51)) == []
    r25 = residue_witness_classes(G, a1)
    assert len(r25) == 19
    assert sorted(m % 25 for m in r25) == [m for m in range(2, 25) if m % 5]
    assert all(math.gcd(m, G.order()) == 1 for m in r25)


def test_residue_witness_classes_crt_lift():
    Z6 = validate_table(tf.cyclic(6), "Z6")
    # element 2 has order 3; unit 2 mod 3 must lift to a unit mod 6
    lifts = residue_witness_classes(Z6, 2)
    assert len(lifts) == 1
    assert lifts[0] % 3 == 2 and math.gcd(lifts[0], 6) == 1
    assert residue_witness_classes(Z6, 1) == [5]


def _orbit(G, x):
    """Conjugacy class of x, conjugating by every element one at a time."""
    return {
        G.multiply(G.multiply(G.invert(t), x), t)
        for t in (G.to_element(i) for i in range(G.N))
    }


def test_conjugacy_class_reps_on_known_groups():
    Z6 = validate_table(tf.cyclic(6), "Z6")
    assert conjugacy_class_reps(Z6) == ([0, 1, 2, 3, 4, 5], [1] * 6)
    D4 = validate_table(tf.dihedral(4), "D4")
    reps, sizes = conjugacy_class_reps(D4)
    assert reps == [0, 1, 2, 4, 5]
    assert sizes == [1, 2, 1, 2, 2]
    assert sum(sizes) == D4.N
    assert sizes == [len(_orbit(D4, r)) for r in reps]


def test_conjugacy_class_reps_partition_s31():
    G = SpjGroup(P31)
    reps, sizes = conjugacy_class_reps(G)
    # independently partition all 81 elements by conjugation under everything
    els = list(enumerate_elements(G.params))
    seen: set = set()
    classes = []
    for x in els:
        if x in seen:
            continue
        orbit = _orbit(G, x)
        seen |= orbit
        classes.append(orbit)
    assert len(reps) == len(classes)
    assert sum(len(c) for c in classes) == 81
    assert sum(sizes) == 81
    rep_elements = {G.to_element(r) for r in reps}
    for orbit in classes:
        assert len(orbit & rep_elements) == 1
    assert sizes == [len(_orbit(G, G.to_element(r))) for r in reps]


def test_centralizer_size_must_match_the_class_size(monkeypatch):
    import fsz_forge.fszcheck as fz

    # Histograms that differ whenever the buckets do force the centralizer
    # comparison; a centralizer one short breaks orbit-stabilizer.
    monkeypatch.setattr(fz, "_u_counts", lambda G, b: np.bincount(b, minlength=G.N))
    real = fz._centralizer_indices
    monkeypatch.setattr(fz, "_centralizer_indices", lambda *a: real(*a)[:-1])
    Z8 = validate_table(tf.cyclic(8), "Z8")
    with pytest.raises(VerificationError, match="centralizer"):
        check_fsz_n(Z8, 2)


def test_u_counts_histogram_matches_bruteforce():
    D4 = validate_table(tf.dihedral(4), "D4")
    buckets = _power_buckets(D4.pow_index_array(2))
    for g in range(8):
        hist = _u_counts(D4, buckets.get(g, np.empty(0, dtype=np.int64)))
        for u in range(8):
            assert hist[u] == gn_count_bruteforce(D4, 2, u, g).count


def test_check_fsz_n_finds_the_5_1_witness():
    G = SpjGroup(P51)
    verdict = check_fsz_n(G, 5)
    assert verdict.verdict == "non-FSZ_5"
    assert not verdict.is_fsz
    w = verdict.witness
    assert G.describe_element(w.u) == "a1^1 b^1"
    assert G.describe_element(w.g) == "a1^5"
    assert w.m == 2
    assert (w.count_g, w.count_gm) == (0, 625)
    assert math.gcd(w.m, G.order()) == 1
    assert G.multiply(w.u, w.g) == G.multiply(w.g, w.u)
    # brute-force revalidation of both counts
    gm = G.power(w.g, w.m)
    assert gn_count_bruteforce(G, 5, w.u, w.g).count == 0
    assert gn_count_bruteforce(G, 5, w.u, gm).count == 625


def test_generic_scan_finds_the_5_1_witness():
    # check_fsz_n takes the structured route at n = p^j.  No smaller group
    # in these tests makes the generic scan compare on a centralizer.
    G = SpjGroup(P51)
    verdict = _generic_scan(G, 5, reduction=True, threads=None)
    assert verdict.as_dict(G.describe_element) == {
        "group": "S(5,1) (order 15625)",
        "n": 5,
        "verdict": "non-FSZ_5",
        "witness": {"u": "a1^1 b^1", "g": "a1^5", "m": 2, "count_g": 0, "count_gm": 625},
        "statistics": {
            "comparisons": 20747251,
            "conjugacy_classes": 649,
            "pairs_examined": 1331376,
        },
    }


def test_check_fsz_n_small_cases():
    assert check_fsz_n(SpjGroup(P31), 3).verdict == "FSZ_3"
    Z6 = validate_table(tf.cyclic(6), "Z6")
    v = check_fsz_n(Z6, 2)
    assert v.verdict == "FSZ_2" and v.is_fsz and v.witness is None


def _random_table(seed):
    return validate_table(tf.random_group_table(random.Random(seed)))


SWEEP_GROUPS = {
    "S(3,1)": lambda: SpjGroup(P31),
    "Z6": lambda: validate_table(tf.cyclic(6), "Z6"),
    "D4": lambda: validate_table(tf.dihedral(4), "D4"),
    "random3": lambda: _random_table(3),
    "random7": lambda: _random_table(7),
    "random11": lambda: _random_table(11),
    "random19": lambda: _random_table(19),
    "random23": lambda: _random_table(23),
}


@pytest.mark.parametrize("name", list(SWEEP_GROUPS))
def test_check_fsz_divisor_sweep(name):
    G = SWEEP_GROUPS[name]()
    e = exponent(G)
    verdicts = check_fsz(G)
    assert [(v.n, v.verdict) for v in verdicts] == [
        (d, f"FSZ_{d}") for d in range(1, e + 1) if e % d == 0
    ]
    plain = check_fsz(SWEEP_GROUPS[name](), reduction=False)
    assert [(v.n, v.verdict, v.witness) for v in plain] == [
        (v.n, v.verdict, v.witness) for v in verdicts
    ]


@pytest.mark.parametrize("name", ["S(3,1)", "Z6", "D4", "random3"])
def test_fsz_n_agrees_with_fsz_at_gcd_with_the_exponent(name):
    G = SWEEP_GROUPS[name]()
    e = exponent(G)
    at_divisor = {d: check_fsz_n(G, d).is_fsz for d in range(1, e + 1) if e % d == 0}
    for n in range(1, 2 * e + 1):
        assert check_fsz_n(G, n).is_fsz == at_divisor[math.gcd(n, e)]


def _fsz_entries(group, ns, stats):
    return [
        {"group": group, "n": n, "verdict": f"FSZ_{n}", "witness": None, "statistics": stats}
        for n in ns
    ]


# check_fsz output recorded before the class table and the skip rules.
# pairs_examined is the sum of |C(g)| over the class reps; the D4 and
# random3 values are that sum, computed by brute force.
PINNED_FSZ = {
    "S(5,1)": [
        *_fsz_entries(
            "S(5,1) (order 15625)",
            [1],
            {"comparisons": 31045400, "conjugacy_classes": 649, "pairs_examined": 2028625},
        ),
        {
            "group": "S(5,1) (order 15625)",
            "n": 5,
            "verdict": "non-FSZ_5",
            "witness": {"u": "a1^1 b^1", "g": "a1^5", "m": 2, "count_g": 0, "count_gm": 625},
            "statistics": {
                "central_targets": 4,
                "comparisons": 9751,
                "pairs_examined": 3251,
                "skipped_by_support": 15620,
            },
        },
        *_fsz_entries(
            "S(5,1) (order 15625)",
            [25],
            {"comparisons": 31045400, "conjugacy_classes": 649, "pairs_examined": 2028625},
        ),
    ],
    "Z6": _fsz_entries(
        "Z6", [1, 2, 3, 6], {"comparisons": 24, "conjugacy_classes": 6, "pairs_examined": 36}
    ),
    "D4": _fsz_entries(
        "D4", [1, 2, 4], {"comparisons": 4, "conjugacy_classes": 5, "pairs_examined": 28}
    ),
    "random3": _fsz_entries(
        "table group of order 24",
        [1, 2, 3, 4, 6, 12],
        {"comparisons": 228, "conjugacy_classes": 15, "pairs_examined": 252},
    ),
    "random7": _fsz_entries(
        "table group of order 12",
        [1, 2, 3, 4, 6, 12],
        {"comparisons": 216, "conjugacy_classes": 12, "pairs_examined": 144},
    ),
}


@pytest.mark.parametrize("name", list(PINNED_FSZ))
def test_check_fsz_output_is_pinned(name):
    G = SpjGroup(P51) if name == "S(5,1)" else SWEEP_GROUPS[name]()
    got = [v.as_dict(G.describe_element) for v in check_fsz(G)]
    assert got == PINNED_FSZ[name]


@pytest.mark.parametrize("name", ["Z6", "D4", "random3", "random7"])
def test_pairs_examined_counts_the_commuting_pairs(name):
    G = SWEEP_GROUPS[name]()
    els = range(G.N)
    centralizer = [
        sum(G.multiply(g, u) == G.multiply(u, g) for u in els) for g in els
    ]
    reps, seen = [], set()
    for g in els:
        if g not in seen:
            reps.append(g)
            seen |= {G.multiply(G.multiply(x, g), G.invert(x)) for x in els}
    for v in check_fsz(G):
        assert v.statistics["pairs_examined"] == sum(centralizer[g] for g in reps)
    for v in check_fsz(SWEEP_GROUPS[name](), reduction=False):
        assert v.statistics["pairs_examined"] == sum(centralizer)


def test_check_fsz_flags_s51_at_n_5():
    verdicts = check_fsz(SpjGroup(P51))
    assert [(v.n, v.verdict) for v in verdicts] == [
        (1, "FSZ_1"),
        (5, "non-FSZ_5"),
        (25, "FSZ_25"),
    ]


def test_check_fsz_n_guards():
    with pytest.raises(EnumerationLimitError, match="enumeration limit"):
        check_fsz_n(SpjGroup(P51), 2, limit=100)
    with pytest.raises(EnumerationLimitError, match="tiny groups"):
        check_fsz_n(SpjGroup(P51), 5, reduction=False)


def _per_element_consistency(G) -> np.ndarray:
    """Consistency numbers of every u against each central target, per element.

    The reference for the class table: each u is inverted on the index
    arrays and its congruence correction is read off all of row 0 of every
    B^m, assuming nothing about those rows.
    """
    params = G.params
    p, pj = params.p, params.n
    row0 = np.array(b_power_row0(params), dtype=np.int64)
    t_table_t, ic_t = structured_tables(params)
    t_table = np.array(t_table_t, dtype=np.int64)
    ic = np.array(ic_t, dtype=np.int64)
    V, K = G.decode(np.arange(G.N, dtype=np.int64))
    Wv, Kb = G.inv(V, K)
    deltas = (Wv @ row0.T) % p
    ic2 = ic[t_table[(np.arange(pj)[None, :] + Kb[:, None]) % pj]]
    ic1 = ic[t_table]
    out = np.empty((G.N, p - 1), dtype=np.int64)
    for rhs in range(1, p):
        s1 = rhs * ic1 % p
        s2 = (rhs * ic2 - deltas) % p
        out[:, rhs - 1] = (s1[None, :] == s2).sum(axis=1)
    return out


def _per_element_scan(G) -> FszVerdict:
    """The FSZ_{p^j} verdict from the per-element table, scanning every u."""
    params = G.params
    p, pj, N = params.p, params.n, G.N
    consist = _per_element_consistency(G)
    per_m = pj * p ** (pj - 2)
    ms = list(range(2, p))
    stats = {"central_targets": p - 1, "skipped_by_support": N - p}
    for s in range(1, p):
        col = consist[:, s - 1]
        viol = np.zeros(N, dtype=bool)
        for m in ms:
            viol |= col != consist[:, s * m % p - 1]
        if not viol.any():
            continue
        u_idx = int(np.nonzero(viol)[0][0])
        m = next(m for m in ms if col[u_idx] != consist[u_idx, s * m % p - 1])
        stats["pairs_examined"] = (s - 1) * N + u_idx + 1
        stats["comparisons"] = ((s - 1) * N + u_idx) * len(ms) + ms.index(m) + 1
        witness = FszWitness(
            element_at(params, u_idx), _central_target(params, s), m,
            int(col[u_idx]) * per_m, int(consist[u_idx, s * m % p - 1]) * per_m,
        )
        return FszVerdict(G.describe(), pj, f"non-FSZ_{pj}", witness, stats)
    stats["pairs_examined"] = (p - 1) * N
    stats["comparisons"] = (p - 1) * N * len(ms)
    return FszVerdict(G.describe(), pj, f"FSZ_{pj}", None, stats)


@pytest.mark.parametrize("p,j", [(3, 1), (5, 1), (3, 2)])
def test_class_table_matches_the_per_element_table(p, j):
    G = SpjGroup(GroupParams(p, j))
    V, K = G.decode(np.arange(G.N, dtype=np.int64))
    hist = _consistency_histogram(G.params)
    # class (k, r) against a_1^{s p^j} reads entry [k, r/s mod p]
    expanded = np.stack(
        [hist[K, V[:, 0] * pow(s, -1, p) % p] for s in range(1, p)], axis=1
    )
    assert np.array_equal(expanded, _per_element_consistency(G))


@pytest.mark.parametrize("p,j", [(3, 1), (5, 1), (3, 2)])
def test_structured_scan_matches_the_per_element_scan(p, j):
    G = SpjGroup(GroupParams(p, j))
    got = check_fsz_n(G, G.params.n).as_dict(G.describe_element)
    assert got == _per_element_scan(G).as_dict(G.describe_element)


def test_structured_scan_checks_the_row0_premise(monkeypatch):
    import fsz_forge.fszcheck as fz

    def broken(params):
        rows = [list(r) for r in b_power_row0(params)]
        rows[2][0] += 1
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(fz, "b_power_row0", broken)
    with pytest.raises(VerificationError, match="row 0 of B\\^2"):
        check_fsz_n(SpjGroup(P31), 3)


@pytest.mark.parametrize("p,j", [(5, 2), (7, 2), (11, 1)])
def test_complete_structured_verdict_beyond_the_limit(p, j):
    params = GroupParams(p, j)
    G = SpjGroup(params)
    assert G.order() > DEFAULT_ENUMERATION_LIMIT
    verdict = check_fsz_n(G, params.n)
    assert verdict.verdict == f"non-FSZ_{params.n}"
    w = verdict.witness
    assert G.describe_element(w.u) == "a1^1 b^1"
    assert G.describe_element(w.g) == f"a1^{params.n}"
    assert (w.m, w.count_g) == (2, 0)
    assert w.count_gm == gn_count_structured(params, w.u, G.power(w.g, 2)).count > 0


@pytest.mark.parametrize("j", [2, 3])
def test_s3j_is_fsz_at_3_to_the_j(j):
    params = GroupParams(3, j)
    assert check_fsz_n(SpjGroup(params), params.n).verdict == f"FSZ_{params.n}"


@pytest.mark.parametrize("p,j", [(5, 1), (7, 1), (5, 2), (7, 2)])
def test_spj_witness_for_p_above_3(p, j):
    verdict = spj_witness(GroupParams(p, j))
    assert verdict.verdict == f"non-FSZ_{p**j}"
    w = verdict.witness
    assert w.m == 2 and w.count_g == 0 and w.count_gm > 0


def test_spj_witness_boundary_at_p_3():
    v31 = spj_witness(P31)
    assert v31.verdict == "inconclusive (designated pair counts equal)"
    assert v31.witness is None
    assert v31.statistics["count_designated"] == 9
    assert v31.statistics["count_designated_square"] == 9
    v32 = spj_witness(GroupParams(3, 2))
    assert v32.verdict.startswith("inconclusive")
    assert v32.statistics["count_designated"] == 59049
    assert v32.statistics["count_designated_square"] == 59049


def test_spj_witness_counts_match_the_5_1_goldens():
    v = spj_witness(P51)
    assert v.statistics["count_designated"] == 0
    assert v.statistics["count_designated_square"] == 625


def _random_triples(G, rng, count, ns):
    els = list(enumerate_elements(G.params))
    for _ in range(count):
        yield rng.choice(els), rng.choice(els), rng.choice(ns)


def test_inverse_bijection_and_conjugation_invariance_sampled():
    G = SpjGroup(P31)
    rng = random.Random(41)
    for u, g, n in _random_triples(G, rng, 30, [1, 2, 3, 9]):
        base = gn_count_bruteforce(G, n, u, g).count
        assert base == gn_count_bruteforce(G, n, u, G.invert(g)).count
        x = random_element(P31, rng)
        xinv = G.invert(x)
        ux = G.multiply(G.multiply(xinv, u), x)
        gx = G.multiply(G.multiply(xinv, g), x)
        assert base == gn_count_bruteforce(G, n, ux, gx).count


def test_verdicts_invariant_under_table_relabeling():
    rng = random.Random(8)
    table = tf.random_group_table(rng)
    perm = list(range(len(table)))
    rng.shuffle(perm)
    T1 = validate_table(table)
    T2 = validate_table(tf.relabel(table, perm))
    v1 = check_fsz(T1)
    v2 = check_fsz(T2)
    assert [(v.n, v.verdict) for v in v1] == [(v.n, v.verdict) for v in v2]


def test_verification_error_is_raised_on_theorem_contradiction(monkeypatch):
    import fsz_forge.fszcheck as fz

    def fake_count(params, u, g, **kwargs):
        class Fake:
            count = 7
        return Fake()

    monkeypatch.setattr(fz, "gn_count_structured", fake_count)
    with pytest.raises(VerificationError, match="expected"):
        spj_witness(P51)
