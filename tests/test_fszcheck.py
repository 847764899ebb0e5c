"""FSZ_n verdicts, residue classes, class reps, and the designated witness."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge.construction import b_power_table, build_b
from fsz_forge.mixedmod import EndoMatrix, GroupParams
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
    _centralizer_indices,
    _class_table,
    _consistency_histogram,
    _designated_pair,
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
    element_at,
    generator_a,
    generator_b,
    identity_element,
    power_generic,
    t_of_b_exponent,
)

P31 = GroupParams(3, 1)
P51 = GroupParams(5, 1)


def test_residue_witness_classes_values():
    G = SpjGroup(P51)
    a1 = generator_a(P51, 1)
    g5 = power_generic(P51, a1, 5)
    assert residue_witness_classes(tf.scalar_order(G, g5), G.order()) == [2, 3, 4]
    assert residue_witness_classes(tf.scalar_order(G, identity_element(P51)), G.order()) == []
    r25 = residue_witness_classes(tf.scalar_order(G, a1), G.order())
    assert len(r25) == 19
    assert sorted(m % 25 for m in r25) == [m for m in range(2, 25) if m % 5]
    assert all(math.gcd(m, G.order()) == 1 for m in r25)


def test_residue_witness_classes_crt_lift():
    Z6 = validate_table(tf.cyclic(6), "Z6")
    # element 2 has order 3; unit 2 mod 3 must lift to a unit mod 6
    lifts = residue_witness_classes(tf.scalar_order(Z6, 2), 6)
    assert len(lifts) == 1
    assert lifts[0] % 3 == 2 and math.gcd(lifts[0], 6) == 1
    assert residue_witness_classes(tf.scalar_order(Z6, 1), 6) == [5]


def test_element_orders_of_every_class_rep_of_s51():
    G = SpjGroup(P51)
    orders = G.orders
    reps, _ = conjugacy_class_reps(G)
    assert [int(orders[r]) for r in reps] == [tf.scalar_order(G, G.to_element(r)) for r in reps]
    # Every order divides |G| = 3125, so the array is narrower than int64.
    assert orders.itemsize < 8


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
    els = [G.to_element(i) for i in range(G.N)]
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


def _orbit_partition(G):
    """(reps, sizes) of the classes from _orbit, smallest index first."""
    seen, reps, sizes = set(), [], []
    for a in range(G.N):
        if a not in seen:
            orbit = {G.from_element(x) for x in _orbit(G, G.to_element(a))}
            seen |= orbit
            reps.append(a)
            sizes.append(len(orbit))
    return reps, sizes


@pytest.mark.parametrize("seed", range(20))
def test_conjugacy_class_reps_match_the_orbit_partition(seed):
    G = validate_table(tf.random_group_table(random.Random(seed)))
    assert conjugacy_class_reps(G) == _orbit_partition(G)


def test_conjugacy_class_reps_of_the_trivial_group():
    G = validate_table([[0]])
    assert G.generators == ()
    assert conjugacy_class_reps(G) == ([0], [1]) == _orbit_partition(G)


def test_conjugacy_class_reps_on_s32():
    G = SpjGroup(GroupParams(3, 2))
    reps, sizes = conjugacy_class_reps(G)
    assert len(reps) == 6705
    assert sum(sizes) == G.N == 531441
    assert reps == sorted(reps) and reps[0] == 0
    # Orbit-stabilizer, with centralizers from conjugation by each rep
    # itself rather than from the generator arrays.
    for i in random.Random(32).sample(range(len(reps)), 30):
        assert sizes[i] * _centralizer_indices(G, reps[i]).size == G.N


@pytest.mark.parametrize("params", [P31, P51, GroupParams(3, 2)], ids=["S31", "S51", "S32"])
def test_conjugacy_class_reps_from_a1_b_equal_those_from_every_generator(params, monkeypatch):
    """The classes from (a_1, b) against the arrays of a_1, ..., a_dim and b."""
    G = SpjGroup(params)
    assert len(G.generators) == 2
    expected = conjugacy_class_reps(G)
    full = [generator_a(params, i) for i in range(1, params.dim + 1)] + [generator_b(params)]
    H = SpjGroup(params)
    monkeypatch.setattr(H, "generators", tuple(H.from_element(c) for c in full))
    assert conjugacy_class_reps(H) == expected


@pytest.mark.parametrize(
    "make",
    [lambda: SpjGroup(P51), lambda: validate_table(tf.direct_product(tf.dihedral(4), tf.cyclic(4)))],
    ids=["S51", "D4xC4"],
)
def test_conjugacy_class_reps_ignore_the_generator_order(make, monkeypatch):
    G = make()
    expected = conjugacy_class_reps(G)
    monkeypatch.setattr(G, "generators", G.generators[::-1])
    assert conjugacy_class_reps(G) == expected


@pytest.mark.parametrize(
    "make",
    [lambda: validate_table(tf.dihedral(4), "D4"), lambda: SpjGroup(P31),
     lambda: validate_table(tf.random_group_table(random.Random(7)))],
    ids=["D4", "S31", "random7"],
)
def test_centralizer_is_the_scalar_commutant(make):
    G = make()
    els = [G.to_element(i) for i in range(G.N)]
    for g_idx, g in enumerate(els):
        commutant = [i for i, a in enumerate(els) if G.multiply(a, g) == G.multiply(g, a)]
        assert _centralizer_indices(G, g_idx).tolist() == commutant


def test_centralizer_size_must_match_the_class_size(monkeypatch):
    import fsz_forge.fszcheck as fz

    # Histograms that differ whenever the buckets do force the centralizer
    # comparison; a centralizer one short breaks orbit-stabilizer.  In Z16
    # at n = 2 the class of 2, of order 8, keeps the target 6 = 3 * 2, and
    # both have two square roots.  (In Z8 no class with a target has any.)
    monkeypatch.setattr(fz, "_u_counts", lambda G, b: np.bincount(b, minlength=G.N))
    real = fz._centralizer_indices
    monkeypatch.setattr(fz, "_centralizer_indices", lambda *a: real(*a)[:-1])
    Z16 = validate_table(tf.cyclic(16), "Z16")
    with pytest.raises(VerificationError, match="centralizer"):
        check_fsz_n(Z16, 2)


def test_u_counts_histogram_matches_bruteforce():
    D4 = validate_table(tf.dihedral(4), "D4")
    P = D4.pow_index_array(2)
    order, starts = _power_buckets(P)
    for g in range(8):
        bucket = order[starts[g] : starts[g + 1]]
        assert bucket.tolist() == np.flatnonzero(P == g).tolist()
        hist = _u_counts(D4, bucket)
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
    verdict = _generic_scan(G, 5)
    assert verdict.as_dict(G.describe_element) == {
        "group": "S(5,1) (order 15625)",
        "n": 5,
        "verdict": "non-FSZ_5",
        "witness": {"u": "a1^1 b^1", "g": "a1^5", "m": 2, "count_g": 0, "count_gm": 625},
        "statistics": {
            "comparisons": 9715751,
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


def _d6xc4(perm=None):
    table = tf.direct_product(tf.dihedral(6), tf.cyclic(4))
    return validate_table(table if perm is None else tf.relabel(table, perm), "D6xC4")


SWEEP_GROUPS = {
    "S(3,1)": lambda: SpjGroup(P31),
    "Z6": lambda: validate_table(tf.cyclic(6), "Z6"),
    "D4": lambda: validate_table(tf.dihedral(4), "D4"),
    "random3": lambda: _random_table(3),
    "random7": lambda: _random_table(7),
    "random11": lambda: _random_table(11),
    "random19": lambda: _random_table(19),
    "random23": lambda: _random_table(23),
    "V4": lambda: validate_table(tf.dihedral(2), "V4"),
    "D6xC4": _d6xc4,
    # Classes with targets under Lemma 3, of orders 5 or more and not 6,
    # in power buckets of two or more elements.
    "D5xC4": lambda: validate_table(tf.direct_product(tf.dihedral(5), tf.cyclic(4)), "D5xC4"),
    "random0": lambda: _random_table(0),
    "random5": lambda: _random_table(5),
    "random12": lambda: _random_table(12),
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


@pytest.mark.parametrize("p,j,e", [(3, 1, 9), (5, 1, 25), (3, 2, 27), (7, 1, 49)])
def test_power_map_exponent_equals_the_closed_form(p, j, e):
    """Lemma 2: the exponent read off the power maps is p^{j+1}."""
    G = SpjGroup(GroupParams(p, j))
    assert exponent(G) == G.exponent == e


@pytest.mark.parametrize("name", list(SWEEP_GROUPS))
def test_lemma_verdicts_equal_the_reference_rows(name):
    """Lemma 1 at n = 1 and e, at a user n coprime to e and at a multiple of e."""
    G = SWEEP_GROUPS[name]()
    e = exponent(G)
    for n in (1, e, e + 1, 2 * e):
        v = check_fsz_n(G, n)
        route = "lemma-coprime" if math.gcd(n, e) == 1 else "lemma-exponent"
        assert v.statistics == {"route": route}
        r = check_fsz_n(G, n, reduction=False)
        assert (v.n, v.verdict, v.witness) == (r.n, r.verdict, r.witness)


def _paired_fake_u_counts(G, bucket):
    """A stand-in for u -> |G_n(u, h)| on the bucket B of h that keeps what
    the scans rely on: it is |B| [u = 1] when |B| <= 1, equal for h and
    h^-1 (whose buckets are inverse to each other), and carried along by
    conjugation.  Larger buckets that differ up to inversion give unequal
    histograms, so scans under it find witnesses."""
    if bucket.size <= 1:
        return _u_counts(G, bucket)
    return np.bincount(bucket, minlength=G.N) + np.bincount(
        G.invert_index_array(bucket), minlength=G.N
    )


def test_n_with_a_proper_gcd_is_scanned_at_n_itself(monkeypatch):
    import fsz_forge.fszcheck as fz

    monkeypatch.setattr(fz, "_u_counts", _paired_fake_u_counts)
    G = SWEEP_GROUPS["D5xC4"]()
    e = exponent(G)
    got = {n: check_fsz_n(G, n) for n in range(1, 2 * e + 1) if 1 < math.gcd(n, e) < e}
    for n, v in got.items():
        r = check_fsz_n(G, n, reduction=False)
        assert "route" not in v.statistics
        assert (v.verdict, v.witness) == (r.verdict, r.witness)
    # Reduced to gcd(6, 20) = 2, n = 6 would take the witness of n = 2.
    counts = lambda v: (v.witness.m, v.witness.count_g, v.witness.count_gm)
    assert counts(got[2]) == (7, 0, 1) and counts(got[6]) == (7, 1, 0)


# The n from 1 to the exponent whose scan under _paired_fake_u_counts
# finds a witness; the other fixtures have none.
PAIRED_WITNESSES = {"D5xC4": 8, "random0": 20, "random5": 6, "random12": 24}


@pytest.mark.parametrize("paired", [False, True], ids=["u_counts", "paired"])
@pytest.mark.parametrize("name", list(SWEEP_GROUPS))
def test_halved_scan_rows_equal_the_reference(name, paired, monkeypatch):
    """Lemma 3: one target per +-m pair gives the (n, verdict, witness)
    rows of the reference scan, which keeps every target."""
    import fsz_forge.fszcheck as fz

    if paired:
        monkeypatch.setattr(fz, "_u_counts", _paired_fake_u_counts)
    G = SWEEP_GROUPS[name]()
    ns = range(1, exponent(G) + 1)
    rows = lambda verdicts: [(v.n, v.verdict, v.witness) for v in verdicts]
    halved = rows(fz._generic_scan(G, n) for n in ns)
    assert halved == rows(check_fsz_n(G, n, reduction=False) for n in ns)
    witnesses = sum(w is not None for _, _, w in halved)
    assert witnesses == (PAIRED_WITNESSES.get(name, 0) if paired else 0)


@pytest.mark.parametrize("name", ["S(3,1)", "D6xC4", "random12"])
def test_class_table_keeps_one_residue_per_pair(name):
    """With its partners -m, the residues of a row cover every residue of
    residue_witness_classes but -1, and the row holds their powers."""
    G = SWEEP_GROUPS[name]()
    reps, _, tstart, tm, tidx = _class_table(G)
    orders = G.orders
    for i, g in enumerate(reps.tolist()):
        og = int(orders[g])
        kept = tm[tstart[i] : tstart[i + 1]].tolist()
        paired = {m % og for m in kept} | {-m % og for m in kept}
        assert paired == {m % og for m in residue_witness_classes(og, G.N)} - {og - 1}
        powers = [G.from_element(G.power(G.to_element(g), m)) for m in kept]
        assert tidx[tstart[i] : tstart[i + 1]].tolist() == powers


def _fsz_entries(group, ns, stats):
    return [
        {"group": group, "n": n, "verdict": f"FSZ_{n}", "witness": None, "statistics": stats}
        for n in ns
    ]


def _lemma_entries(group, e, scanned, stats):
    """n = 1 and n = e by Lemma 1, every n of scanned by the class scan."""
    return [
        *_fsz_entries(group, [1], {"route": "lemma-coprime"}),
        *_fsz_entries(group, scanned, stats),
        *_fsz_entries(group, [e], {"route": "lemma-exponent"}),
    ]


# check_fsz output recorded before the class table and the skip rules,
# then re-pinned for Lemmas 1 and 3: n = 1 and n = e carry only their
# route, and comparisons count one target per +-m pair.  pairs_examined
# is the sum of |C(g)| over the class reps; the D4 and random3 values
# are that sum, computed by brute force.
PINNED_FSZ = {
    "S(5,1)": [
        *_fsz_entries("S(5,1) (order 15625)", [1], {"route": "lemma-coprime"}),
        {
            "group": "S(5,1) (order 15625)",
            "n": 5,
            "verdict": "non-FSZ_5",
            "witness": {"u": "a1^1 b^1", "g": "a1^5", "m": 2, "count_g": 0, "count_gm": 625},
            "statistics": {
                "central_targets": 4,
                "comparisons": 3251,
                "pairs_examined": 3251,
                "skipped_by_support": 15620,
            },
        },
        *_fsz_entries("S(5,1) (order 15625)", [25], {"route": "lemma-exponent"}),
    ],
    "Z6": _lemma_entries(
        "Z6", 6, [2, 3], {"comparisons": 0, "conjugacy_classes": 6, "pairs_examined": 36}
    ),
    "D4": _lemma_entries(
        "D4", 4, [2], {"comparisons": 0, "conjugacy_classes": 5, "pairs_examined": 28}
    ),
    "random3": _lemma_entries(
        "table group of order 24", 12, [2, 3, 4, 6],
        {"comparisons": 24, "conjugacy_classes": 15, "pairs_examined": 252},
    ),
    "random7": _lemma_entries(
        "table group of order 12", 12, [2, 3, 4, 6],
        {"comparisons": 48, "conjugacy_classes": 12, "pairs_examined": 144},
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
    e = exponent(G)
    for v in check_fsz(G):
        if v.n in (1, e):  # Lemma 1: nothing is examined
            assert "pairs_examined" not in v.statistics
        else:
            assert v.statistics["pairs_examined"] == sum(centralizer[g] for g in reps)
    for v in check_fsz(SWEEP_GROUPS[name](), reduction=False):
        assert v.statistics["pairs_examined"] == sum(centralizer)


def test_v4_has_no_class_with_targets():
    # Every element of V4 has order 1 or 2, so no class has a target and
    # the bucket-size pass reduces over empty arrays.  check_fsz decides
    # both n of V4 by Lemma 1, so the scan is called directly.
    V4 = validate_table(tf.dihedral(2), "V4")
    verdicts = [_generic_scan(V4, n) for n in (1, 2)]
    assert [v.as_dict() for v in verdicts] == _fsz_entries(
        "V4", [1, 2], {"comparisons": 0, "conjugacy_classes": 4, "pairs_examined": 16}
    )
    plain = check_fsz(validate_table(tf.dihedral(2), "V4"), reduction=False)
    assert [(v.n, v.verdict, v.witness) for v in plain] == [
        (v.n, v.verdict, v.witness) for v in verdicts
    ]
    # D4 reaches the scan through check_fsz at n = 2, and Lemma 3 leaves
    # its elements of order 4 no target either.
    D4 = validate_table(tf.dihedral(4), "D4")
    assert _class_table(D4)[3].size == 0
    assert check_fsz_n(D4, 2).as_dict() == _fsz_entries(
        "D4", [2], {"comparisons": 0, "conjugacy_classes": 5, "pairs_examined": 28}
    )[0]


def test_relabelled_d6xc4_statistics_are_pinned():
    perm = list(range(48))
    random.Random(5).shuffle(perm)
    got = [v.as_dict() for v in check_fsz(_d6xc4(perm))]
    assert got == _lemma_entries(
        "D6xC4", 12, [2, 3, 4, 6],
        {"comparisons": 96, "conjugacy_classes": 24, "pairs_examined": 704},
    )


def _fake_u_counts(G, bucket):
    """A histogram that differs whenever the buckets do, so that rows are
    compared on their centralizers and witnesses turn up."""
    return np.bincount(G.mul_index_arrays(bucket, bucket), minlength=G.N) * 3 + np.bincount(
        bucket, minlength=G.N
    )


# Each group has a class with a target whose buckets hold two or more
# elements at some n.  Under Lemma 3 S(3,1), D6xC4 and random3 have none.
@pytest.mark.parametrize("fake", [False, True], ids=["u_counts", "fake"])
@pytest.mark.parametrize("name", ["D5xC4", "random0", "random12"])
def test_histogram_budget_changes_no_output(name, fake, monkeypatch):
    import fsz_forge.fszcheck as fz

    make = SWEEP_GROUPS[name]
    built = []
    u_counts = _fake_u_counts if fake else fz._u_counts

    def counted(G, bucket):
        built.append(bucket.size)
        return u_counts(G, bucket)

    monkeypatch.setattr(fz, "_u_counts", counted)
    outputs, builds = [], []
    # the default budget, one histogram, and none: every histogram rebuilt at each use
    for budget in (fz._HIST_BUDGET, 8 * make().N, 0):
        monkeypatch.setattr(fz, "_HIST_BUDGET", budget)
        G = make()
        outputs.append([
            fz._generic_scan(G, n).as_dict(G.describe_element)
            for n in range(1, exponent(G) + 1)
        ])
        builds.append(len(built))
        built.clear()
    assert outputs[0] == outputs[1] == outputs[2]
    assert builds[0] <= builds[1] <= builds[2]
    if fake:
        # A witness ends each scan early; no histogram need be used twice.
        assert any(v["witness"] for v in outputs[0])
    else:
        assert builds[0] < builds[2]  # the kept histograms spare builds


def test_default_budget_builds_each_requested_histogram_once(monkeypatch):
    import fsz_forge.fszcheck as fz

    real, built = fz._u_counts, []

    def counted(G, bucket):
        # Buckets of distinct h are disjoint, and D5xC4 asks for no empty
        # one, so a bucket's elements name it.
        built.append(tuple(bucket.tolist()))
        return real(G, bucket)

    monkeypatch.setattr(fz, "_u_counts", counted)

    def builds_per_n(budget):
        monkeypatch.setattr(fz, "_HIST_BUDGET", budget)
        G = SWEEP_GROUPS["D5xC4"]()
        out = []
        for n in range(1, exponent(G) + 1):
            check_fsz_n(G, n)
            out.append(built[:])
            built.clear()
        return out

    default = fz._HIST_BUDGET
    requested = builds_per_n(0)  # no histogram kept: one build per request
    once = builds_per_n(default)
    assert () not in {b for per_n in requested for b in per_n}
    assert [sorted(b) for b in once] == [sorted(set(b)) for b in requested]
    assert sum(map(len, once)) < sum(map(len, requested))


# check_fsz_n(G, n, reduction=False) under _fake_u_counts for every n from 1
# to the exponent, recorded while the reference still ran in the loop of the
# class scan: (n, witness as (u, g, m, count_g, count_gm) or None,
# pairs_examined, comparisons).  No group of these tests is non-FSZ, so
# these rows are what reaches the reference's witness branch.
REFERENCE_FAKE_ROWS = {
    "S(3,1)": [
        (1, ("a2^1", "a2^1", 2, 1, 3), 83, 2),
        (2, ("a2^1", "a2^1", 2, 3, 1), 83, 2),
        (3, ("a1^1", "a1^3", 2, 1, 3), 301, 868),
        (4, ("a2^1", "a2^1", 2, 1, 3), 83, 2),
        (5, ("a2^1", "a2^1", 2, 3, 1), 83, 2),
        (6, ("a1^1", "a1^3", 2, 3, 1), 301, 868),
        (7, ("a2^1", "a2^1", 2, 1, 3), 83, 2),
        (8, ("a2^1", "a2^1", 2, 3, 1), 83, 2),
        (9, None, 1377, 4536),
    ],
    "Z6": [
        (1, ("1", "1", 5, 1, 0), 8, 2),
        (2, ("1", "2", 5, 1, 0), 14, 8),
        (3, None, 36, 24),
        (4, ("1", "2", 5, 0, 1), 14, 8),
        (5, ("1", "1", 5, 0, 1), 8, 2),
        (6, None, 36, 24),
    ],
    "D6xC4": [
        (1, ("1", "1", 7, 1, 0), 50, 2),
        (2, ("4", "8", 5, 1, 0), 293, 293),
        (3, ("1", "1", 7, 0, 1), 50, 2),
        (4, ("4", "8", 5, 0, 1), 293, 293),
        (5, ("1", "1", 7, 1, 0), 50, 2),
        (6, None, 1152, 1152),
        (7, ("1", "1", 7, 0, 1), 50, 2),
        (8, ("4", "8", 5, 1, 0), 293, 293),
        (9, ("1", "1", 7, 1, 0), 50, 2),
        (10, ("4", "8", 5, 0, 1), 293, 293),
        (11, ("1", "1", 7, 0, 1), 50, 2),
        (12, None, 1152, 1152),
    ],
    "random3": [
        (1, ("0", "0", 5, 1, 0), 1, 1),
        (2, ("1", "3", 5, 1, 0), 38, 50),
        (3, ("1", "10", 7, 0, 1), 157, 133),
        (4, ("0", "14", 5, 0, 1), 205, 229),
        (5, ("0", "0", 5, 0, 1), 1, 1),
        (6, None, 360, 360),
        (7, ("0", "0", 5, 1, 0), 1, 1),
        (8, ("0", "14", 5, 1, 0), 205, 229),
        (9, ("1", "10", 7, 1, 0), 157, 133),
        (10, ("1", "3", 5, 0, 1), 38, 50),
        (11, ("0", "0", 5, 0, 1), 1, 1),
        (12, None, 360, 360),
    ],
}


@pytest.mark.parametrize("name", list(REFERENCE_FAKE_ROWS))
def test_reference_scan_under_fake_histograms_is_pinned(name, monkeypatch):
    import fsz_forge.fszcheck as fz

    monkeypatch.setattr(fz, "_u_counts", _fake_u_counts)
    G = SWEEP_GROUPS[name]()
    rows = []
    for n in range(1, exponent(G) + 1):
        v = check_fsz_n(G, n, reduction=False).as_dict(G.describe_element)
        w, stats = v["witness"], v["statistics"]
        assert v["verdict"] == (f"FSZ_{n}" if w is None else f"non-FSZ_{n}")
        assert list(stats) == ["comparisons", "pairs_examined"]
        w = w and tuple(w[k] for k in ("u", "g", "m", "count_g", "count_gm"))
        rows.append((n, w, stats["pairs_examined"], stats["comparisons"]))
    assert rows == REFERENCE_FAKE_ROWS[name]


def test_reference_scan_takes_the_first_target_at_the_smallest_u(monkeypatch):
    import fsz_forge.fszcheck as fz

    # Constant in u, so a row differs at its first u on every target whose
    # value differs.  Below order 5 the value is the bucket size, which the
    # units preserve, so the first such row is that of a1, of order 9 with
    # five targets, and several of them differ there.
    def flat(G, bucket):
        high = bucket.size and G.orders[bucket].max() > 4
        return np.full(G.N, int(bucket.sum()) if high else bucket.size)

    monkeypatch.setattr(fz, "_u_counts", flat)
    G = SpjGroup(P31)
    v = check_fsz_n(G, 1, reduction=False)
    assert (G.describe_element(v.witness.g), v.witness.m, v.statistics["comparisons"]) == (
        "a1^1", 2, 55)


@pytest.mark.parametrize("name,ns,stats", [
    ("S(3,1)", [1, 3, 9], {"comparisons": 4536, "pairs_examined": 1377}),
    ("D6xC4", [1, 2, 3, 4, 6, 12], {"comparisons": 1152, "pairs_examined": 1152}),
])
def test_reference_scan_needs_no_conjugacy_classes(name, ns, stats, monkeypatch):
    import fsz_forge.fszcheck as fz

    def never(G):
        raise AssertionError("the reference scan must not reduce to classes")

    monkeypatch.setattr(fz, "_class_table", never)
    monkeypatch.setattr(fz, "conjugacy_class_reps", never)
    G = SWEEP_GROUPS[name]()
    got = [v.as_dict(G.describe_element) for v in check_fsz(G, reduction=False)]
    assert got == _fsz_entries(G.describe(), ns, stats)


def test_check_fsz_flags_s51_at_n_5():
    verdicts = check_fsz(SpjGroup(P51))
    assert [(v.n, v.verdict) for v in verdicts] == [
        (1, "FSZ_1"),
        (5, "non-FSZ_5"),
        (25, "FSZ_25"),
    ]


def test_check_fsz_n_guards():
    with pytest.raises(EnumerationLimitError, match="enumeration limit 100000000"):
        check_fsz_n(SpjGroup(GroupParams(5, 2)), 5)
    with pytest.raises(EnumerationLimitError, match="tiny groups"):
        check_fsz_n(SpjGroup(P51), 5, reduction=False)


def test_check_fsz_refuses_before_the_exponent(monkeypatch):
    import fsz_forge.fszcheck as fz

    def never(G):
        raise AssertionError("the exponent must not be computed")

    monkeypatch.setattr(fz, "exponent", never)
    with pytest.raises(EnumerationLimitError, match="tiny groups"):
        check_fsz(SpjGroup(P51), reduction=False)


def _per_element_consistency(G) -> np.ndarray:
    """Consistency numbers of every u against each central target, per element.

    The reference for the class table: each u is inverted on the index
    arrays and its congruence correction is read off all of row 0 of every
    B^m, assuming nothing about those rows.
    """
    params = G.params
    p, pj = params.p, params.n
    row0 = b_power_table(params)[:, 0]
    ic = np.array(structured_tables(params), dtype=np.int64)
    V, K = G.decode(np.arange(G.N, dtype=np.int64))
    Wv, Kb = G.inv(V, K)
    deltas = (Wv @ row0.T) % p
    ic2 = ic[(np.arange(pj)[None, :] + Kb[:, None]) % pj]
    out = np.empty((G.N, p - 1), dtype=np.int64)
    for rhs in range(1, p):
        s1 = rhs * ic % p
        s2 = (rhs * ic2 - deltas) % p
        out[:, rhs - 1] = (s1[None, :] == s2).sum(axis=1)
    return out


def _per_element_scan(G, half: bool) -> FszVerdict:
    """The FSZ_{p^j} verdict from the per-element table, scanning every u.

    With half, s and m run over 1..(p-1)/2, as Lemma 3 lets them; without,
    over 1..p-1.
    """
    params = G.params
    p, pj, N = params.p, params.n, G.N
    consist = _per_element_consistency(G)
    per_m = pj * p ** (pj - 2)
    top = (p + 1) // 2 if half else p
    ms = list(range(2, top))
    stats = {"central_targets": p - 1, "skipped_by_support": N - p}
    for s in range(1, top):
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
    stats["comparisons"] = (top - 1) * N * len(ms)
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
    assert got == _per_element_scan(G, half=True).as_dict(G.describe_element)
    # Lemma 3 changes only the number of comparisons made.
    full = _per_element_scan(G, half=False).as_dict(G.describe_element)
    full["statistics"]["comparisons"] = got["statistics"]["comparisons"]
    assert got == full


CONSISTENCY_GRID = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 4), (5, 3)]


@pytest.mark.parametrize("p,j", CONSISTENCY_GRID)
def test_structured_tables_invert_the_coefficient_of_power_pj(p, j):
    """Entry k is the inverse of c / p^j mod p for the t that power_pj
    reads off b-exponent k: 1/2 at t = 0, 1 otherwise."""
    params = GroupParams(p, j)
    assert structured_tables(params) == tuple(
        pow(2, -1, p) if t_of_b_exponent(params, k) == 0 else 1 for k in range(params.b_order)
    )


@pytest.mark.parametrize("p,j", CONSISTENCY_GRID)
def test_consistency_columns_pair_s_with_p_minus_s(p, j):
    """Lemma 3 on the class table of the structured scan: the consistency
    numbers against a_1^{s p^j} and against its inverse a_1^{(p-s) p^j}
    agree on every class (k, r), whose column entry is [k, r/s mod p]."""
    hist = _consistency_histogram(GroupParams(p, j))
    residues = np.arange(p)
    columns = {s: hist[:, residues * pow(s, -1, p) % p] for s in range(1, p)}
    for s in range(1, p):
        assert np.array_equal(columns[s], columns[p - s])


def test_structured_scan_checks_the_row0_premise(monkeypatch, capsys):
    import fsz_forge.gncount as gc
    from fsz_forge.cli import run

    def broken(params):
        A = build_b(params).array.copy()
        A[0, 0] += 1
        return EndoMatrix(params, A)

    monkeypatch.setattr(gc, "build_b", broken)
    structured_tables.cache_clear()
    try:
        with pytest.raises(VerificationError, match="row 0 of B is not e_0 mod 3"):
            check_fsz_n(SpjGroup(P31), 3)
        u, g, _ = _designated_pair(P31)
        with pytest.raises(VerificationError, match="row 0 of B is not e_0 mod 3"):
            gn_count_structured(P31, u, g)
        assert run(["witness", "--p", "3", "--j", "1"]) == 2
        assert "row 0 of B is not e_0 mod 3" in capsys.readouterr().err
    finally:
        structured_tables.cache_clear()


@pytest.mark.parametrize("p,j", [(5, 2), (7, 2), (11, 1), (509, 1)])
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


def _structured_scan_over_every_s(G) -> FszVerdict:
    """The structured scan without the s = 1 lemma: it compares the class
    columns at every central target a_1^{s p^j}, s = 1..(p-1)/2, and stops
    at the first s with an unequal pair."""
    import fsz_forge.fszcheck as fz

    params = G.params
    p, pj, d, N = params.p, params.n, params.dim, G.N
    hist = fz._consistency_histogram(params)
    residues = np.arange(p)

    def column(s):
        return hist[:, residues * pow(s, -1, p) % p].ravel()

    per_m = pj * p ** (pj - 2)
    half = (p + 1) // 2
    ms = list(range(2, half))
    stats = {"central_targets": p - 1, "skipped_by_support": N - p}
    for s in range(1, half):
        col = column(s)
        viol = np.zeros(pj * p, dtype=bool)
        for m in ms:
            viol |= col != column(s * m % p)
        if not viol.any():
            continue
        c_idx = int(np.nonzero(viol)[0][0])
        m = next(m for m in ms if column(s * m % p)[c_idx] != col[c_idx])
        k, r = divmod(c_idx, p)
        u_idx = k * (N // pj) + r * p ** (d - 1)
        u = element_at(params, u_idx)
        count_g = fz.gn_count_structured(params, u, _central_target(params, s)).count
        count_gm = fz.gn_count_structured(params, u, _central_target(params, s * m % p)).count
        assert (count_g, count_gm) == (int(col[c_idx]) * per_m,
                                       int(column(s * m % p)[c_idx]) * per_m)
        stats["pairs_examined"] = (s - 1) * N + u_idx + 1
        stats["comparisons"] = ((s - 1) * N + u_idx) * len(ms) + ms.index(m) + 1
        witness = FszWitness(u, _central_target(params, s), m, count_g, count_gm)
        return FszVerdict(G.describe(), pj, f"non-FSZ_{pj}", witness, stats)
    stats["pairs_examined"] = (p - 1) * N
    stats["comparisons"] = (half - 1) * N * len(ms)
    return FszVerdict(G.describe(), pj, f"FSZ_{pj}", None, stats)


def _random_consistency_histogram(rng, pj, p, perturbed):
    """Rows constant on the nonzero residues, except that each row is
    perturbed at a few random residues with probability perturbed."""
    hist = np.empty((pj, p), dtype=np.int64)
    for k in range(pj):
        hist[k, 0] = rng.randrange(4)
        hist[k, 1:] = rng.randrange(4)
        if rng.random() < perturbed:
            for r in rng.sample(range(1, p), rng.randrange(1, p)):
                hist[k, r] = rng.randrange(4)
    return hist


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("perturbed", [0.0, 0.05, 0.3, 1.0])
def test_structured_scan_at_s_1_equals_the_scan_over_every_s(monkeypatch, p, perturbed):
    """The s = 1 lemma of the structured scan on any histogram: verdict,
    witness and statistics agree with the scan over every s.  The scalar
    counter is replaced by one that reads the same histogram."""
    import fsz_forge.fszcheck as fz

    params = GroupParams(p, 1)
    G = SpjGroup(params)
    per_m = params.n * p ** (params.n - 2)
    hist = None

    def count_from_histogram(params, u, g):
        s = g.vec.coords[0] // params.n % p
        r = u.vec.coords[0] % p * pow(s, -1, p) % p
        return SimpleNamespace(count=int(hist[u.k, r]) * per_m)

    monkeypatch.setattr(fz, "_consistency_histogram", lambda params: hist)
    monkeypatch.setattr(fz, "gn_count_structured", count_from_histogram)
    rng = random.Random(p * 100 + int(perturbed * 100))
    verdicts = set()
    for _ in range(25):
        hist = _random_consistency_histogram(rng, params.n, p, perturbed)
        got = fz._structured_full_scan(G)
        assert got.as_dict(G.describe_element) == \
            _structured_scan_over_every_s(G).as_dict(G.describe_element)
        verdicts.add(got.verdict)
    # Rows constant on the nonzero residues are FSZ; perturbed rows find witnesses.
    assert (verdicts == {f"FSZ_{p}"}) if perturbed == 0.0 else (f"non-FSZ_{p}" in verdicts)


@pytest.mark.parametrize("p,j", [(p, 1) for p in range(5, 102) if all(p % q for q in range(2, p))]
                         + [(5, 2), (7, 2), (11, 2), (13, 2)])
def test_structured_scan_gives_the_closed_form_witness(p, j):
    """S(p,j) is non-FSZ_{p^j} for every p > 3, at the pair (b a_1, a_1^{p^j})
    with m = 2 and counts 0 and |G| / p^2."""
    params = GroupParams(p, j)
    G = SpjGroup(params)
    verdict = check_fsz_n(G, params.n)
    assert verdict.verdict == f"non-FSZ_{params.n}"
    w = verdict.witness
    assert G.describe_element(w.u) == "a1^1 b^1"
    assert G.describe_element(w.g) == f"a1^{params.n}"
    assert (w.m, w.count_g, w.count_gm) == (2, 0, G.N // p**2)


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
    els = [G.to_element(i) for i in range(G.N)]
    for _ in range(count):
        yield rng.choice(els), rng.choice(els), rng.choice(ns)


def test_inverse_bijection_and_conjugation_invariance_sampled():
    G = SpjGroup(P31)
    rng = random.Random(41)
    for u, g, n in _random_triples(G, rng, 30, [1, 2, 3, 9]):
        base = gn_count_bruteforce(G, n, u, g).count
        assert base == gn_count_bruteforce(G, n, u, G.invert(g)).count
        x = tf.random_elements(P31, rng, 1)[0]
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
