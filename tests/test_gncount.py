"""Counting G_n(u,g) by brute force and by the structured route."""

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge import gncount, spgroup
from fsz_forge.mixedmod import GroupParams, MixedVector, ParameterError, VerificationError
from fsz_forge.gncount import (
    EnumerationLimitError,
    TableError,
    exponent,
    gn_count_bruteforce,
    gn_count_bruteforce_many,
    gn_count_structured,
    load_table_group,
    validate_table,
)
from fsz_forge.spgroup import (
    IndexGroup,
    SElement,
    SpjGroup,
    generator_a,
    generator_b,
    identity_element,
    multiply,
    power_generic,
)

SRC = Path(__file__).resolve().parents[1] / "src"
P31 = GroupParams(3, 1)
P51 = GroupParams(5, 1)


def _designated(params):
    u = multiply(params, generator_b(params), generator_a(params, 1))
    g = power_generic(params, generator_a(params, 1), params.n)
    g2 = power_generic(params, generator_a(params, 1), 2 * params.n)
    return u, g, g2


def rightmul(G, x):
    """Index of a*x for every a, swept as a word map."""
    return G._sweep(lambda a: G.mul_index_arrays(a, np.full(len(a), x)))


def count_words(G, n, u_idx):
    """The two word maps of G_n(u, g): a -> a^n and a -> (a u^-1)^n."""
    uinv = int(G.invert_index_array(np.array([u_idx]))[0])
    return [
        lambda a: G.power_indices(a, n),
        lambda a: G.power_indices(G.mul_index_arrays(a, np.full(len(a), uinv)), n),
    ]


def test_designated_counts_at_5_1():
    u, g, g2 = _designated(P51)
    G = SpjGroup(P51)
    s1 = gn_count_structured(P51, u, g)
    s2 = gn_count_structured(P51, u, g2)
    b1 = gn_count_bruteforce(G, 5, u, g)
    b2 = gn_count_bruteforce(G, 5, u, g2)
    assert (s1.count, s2.count) == (0, 625)
    assert (b1.count, b2.count) == (0, 625)
    assert s1.witnesses == b1.witnesses == ()
    assert s2.witnesses == b2.witnesses
    assert [G.describe_element(w) for w in s2.witnesses[:3]] == [
        "a1^2",
        "a1^2 a4^1",
        "a1^2 a4^2",
    ]
    assert len(s2.witnesses) == 16


def test_designated_counts_at_3_1():
    u, g, g2 = _designated(P31)
    G = SpjGroup(P31)
    s1 = gn_count_structured(P31, u, g)
    s2 = gn_count_structured(P31, u, g2)
    assert s1.count == s2.count == 9
    assert gn_count_bruteforce(G, 3, u, g).count == 9
    assert gn_count_bruteforce(G, 3, u, g2).count == 9
    assert s1.witnesses == gn_count_bruteforce(G, 3, u, g).witnesses


@pytest.mark.parametrize("params", [P31, P51])
def test_oracle_equivalence_on_sampled_pairs(params):
    G = SpjGroup(params)
    rng = random.Random(17)
    u_des = multiply(params, generator_b(params), generator_a(params, 1))
    pairs = []
    # every central g = a_1^{s p^j} against the designated u and random u
    for s in range(params.p):
        coords = (s * params.n % params.top_modulus,) + (0,) * (params.dim - 1)
        g = SElement(MixedVector(params, coords), 0)
        pairs.append((u_des, g))
        pairs.extend((u, g) for u in tf.random_elements(params, rng, 4))
    while len(pairs) < 60:
        pairs.append(tuple(tf.random_elements(params, rng, 2)))
    for u, g in pairs:
        s = gn_count_structured(params, u, g)
        b = gn_count_bruteforce(G, params.n, u, g)
        assert s.count == b.count
        assert s.witnesses == b.witnesses


def test_witnesses_satisfy_the_defining_equations():
    u, _, g2 = _designated(P51)
    G = SpjGroup(P51)
    uinv = G.invert(u)
    for a in gn_count_structured(P51, u, g2).witnesses:
        assert G.power(a, 5) == g2
        assert G.power(G.multiply(a, uinv), 5) == g2


def test_count_1_is_nonzero_only_for_identity_u():
    Z6 = validate_table(tf.cyclic(6), "Z6")
    for g in range(6):
        assert gn_count_bruteforce(Z6, 1, 0, g).count == 1
        assert gn_count_bruteforce(Z6, 1, 2, g).count == 0
    e = identity_element(P31)
    g = generator_a(P31, 2)
    assert gn_count_bruteforce(SpjGroup(P31), 1, e, g).count == 1
    assert gn_count_bruteforce(SpjGroup(P31), 1, g, g).count == 0


def test_nonempty_count_forces_commuting_pair():
    D4 = validate_table(tf.dihedral(4), "D4")
    for u in range(8):
        for g in range(8):
            if gn_count_bruteforce(D4, 2, u, g).count > 0:
                assert D4.multiply(u, g) == D4.multiply(g, u)


def test_bruteforce_many_matches_singles():
    u, g, g2 = _designated(P51)
    G = SpjGroup(P51)
    many = gn_count_bruteforce_many(G, 5, u, [g, g2])
    assert [c.count for c in many] == [0, 625]
    assert many[1].witnesses == gn_count_bruteforce(G, 5, u, g2).witnesses


@pytest.mark.parametrize(
    "params, draws, sets",
    [(P31, 3, 3), (P51, 3, 3), (GroupParams(3, 2), 2, 3), (GroupParams(7, 1), 1, 1)],
    ids=["S31", "S51", "S32", "S71"],
)
def test_common_fibers_match_the_base_route(params, draws, sets, monkeypatch):
    """The slice-table matching of SpjGroup against IndexGroup's sweeps.

    n runs over every divisor p^i of the exponent p^{j+1} and one n coprime
    to it.  The targets are the identity, a2 (no n-th power when p^j
    divides n), b (whose b-exponent 1 is no s(k) when p divides n), and
    the images a^n and (a u^-1)^n of a random a.  The two words of
    G_n(u, g) are matched, and on the smaller groups also the first alone
    and the two with (u a)^n.  On S(7,1) the three words at n = 7 give the
    widest joint key an enumerable S(p,j) reaches, A^3 = 7^21.
    """
    G = SpjGroup(params)
    rng = random.Random(params.p * 10 + params.j)
    a2, b = (G.from_element(x) for x in (generator_a(params, 2), generator_b(params)))
    cases = []
    for n in [params.p ** i for i in range(params.j + 2)] + [params.p + 1]:
        for u_idx in [0] + [rng.randrange(G.N) for _ in range(draws)]:
            words = count_words(G, n, u_idx)
            a = np.array([rng.randrange(G.N)])
            images = [int(f(a)[0]) for f in words]
            targets = [G.identity_index, a2, b] + images
            left = lambda x, n=n, u_idx=u_idx: G.power_indices(
                G.mul_index_arrays(np.full(len(x), u_idx), x), n)
            chosen_sets = (words, words[:1], words + [left])[:sets]
            if sets == 1 and n == params.n:
                chosen_sets += (words + [left],)
            for chosen in chosen_sets:
                expected = IndexGroup.common_fibers(G, chosen, targets, 16)
                cases.append((n, u_idx, chosen, targets, expected))
    monkeypatch.setattr(G, "_sweep", mock.Mock(side_effect=AssertionError("swept")))
    nonzero = 0
    for n, u_idx, words, targets, expected in cases:
        assert G.common_fibers(words, targets, 16) == expected, n
        counts = [count for count, _ in expected]
        nonzero += sum(c > 0 for c in counts)
        if len(words) == 1 or u_idx == G.identity_index:
            assert counts[3] > 0  # the fiber of a^n over a^n holds a
        if n % params.n == 0:
            assert counts[1] == counts[2] == 0  # a2 is no p^j-th power; b is in no slice
    assert nonzero > len(cases)


def test_common_fibers_refuse_a_joint_key_past_int64(monkeypatch):
    """Four words on S(7,1) need joint keys up to A^4 = 7^28 > 2^63: refused
    before any slice table is built."""
    G = SpjGroup(GroupParams(7, 1))
    monkeypatch.setattr(G, "_slices", mock.Mock(side_effect=AssertionError("sliced")))
    with pytest.raises(ParameterError, match="int64"):
        G.common_fibers(count_words(G, 7, 0) * 2, [G.identity_index], 16)
    G._slices.assert_not_called()


@pytest.mark.parametrize("params", [P31, P51, GroupParams(3, 2)], ids=["S31", "S51", "S32"])
def test_common_fibers_witnesses_in_index_order(params):
    """Witness lists, cut at MAX_WITNESSES and whole, equal the base route's.

    At S(3,1), n = 3 and u = b, the 27 elements of G_3(b, e) give their 16
    first witnesses from two b-exponents and six heads of three tails.
    """
    G = SpjGroup(params)
    u_idx = G.from_element(generator_b(params))
    words = count_words(G, params.p, u_idx)
    targets = [G.identity_index, int(G.power_indices(np.array([G.N // 2 + 7]), params.p)[0])]
    for first in (gncount.MAX_WITNESSES, G.N):
        got = G.common_fibers(words, targets, first)
        assert got == IndexGroup.common_fibers(G, words, targets, first)
        for count, witnesses in got:
            assert len(witnesses) == min(count, first)
            assert witnesses == sorted(witnesses)
    if params == P31:
        count, witnesses = G.common_fibers(words, [G.identity_index], gncount.MAX_WITNESSES)[0]
        L, A = G._split[0], G._abelian
        assert count == 27 and len(witnesses) == 16
        assert len({w // A for w in witnesses}) == 2
        assert len({w // L for w in witnesses}) == 6


def test_brute_count_at_7_1_builds_no_whole_group_array():
    """G_7(b a1, a1^14) on S(7,1), |G| = 5764801, within 1/10 of one int64 map."""
    import tracemalloc

    params = GroupParams(7, 1)
    G = SpjGroup(params)
    u = spgroup.parse_element(params, "b a1")
    g = spgroup.parse_element(params, "a1^14")
    tracemalloc.start()
    try:
        result = gn_count_bruteforce(G, 7, u, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.count == gn_count_structured(params, u, g).count == 117649
    assert peak < G.N * 8 // 10


def test_bruteforce_respects_enumeration_limit():
    params = GroupParams(5, 2)
    u, g, _ = _designated(params)
    with pytest.raises(EnumerationLimitError, match="enumeration limit 100000000"):
        gn_count_bruteforce(SpjGroup(params), 5, u, g)


def test_count_as_dict_shape():
    u, _, g2 = _designated(P31)
    G = SpjGroup(P31)
    d = gn_count_structured(P31, u, g2).as_dict(G.describe_element)
    assert sorted(d) == ["count", "g", "method", "n", "u", "witnesses"]
    assert d["n"] == 3
    assert d["method"] == "structured"
    assert d["u"] == "a1^1 a2^2 b^1"
    assert all(isinstance(w, str) for w in d["witnesses"])


def test_validate_table_accepts_group_tables():
    rng = random.Random(4)
    for table in (
        tf.cyclic(6),
        tf.dihedral(4),
        tf.direct_product(tf.cyclic(3), tf.cyclic(4)),
        tf.random_group_table(rng),
    ):
        T = validate_table(table)
        e = T.to_element(T.identity_index)
        assert all(T.multiply(e, x) == x == T.multiply(x, e) for x in range(T.order()))
        assert all(
            T.multiply(x, T.invert(x)) == e for x in range(T.order())
        )


def test_validate_table_finds_relabeled_identity():
    perm = [3, 0, 5, 1, 4, 2]
    T = validate_table(tf.relabel(tf.cyclic(6), perm))
    assert T.to_element(T.identity_index) == perm[0]


def test_validate_table_rejects_latin_violation():
    with pytest.raises(TableError, match=r"row 1 repeats 1 at columns 0 and 1"):
        validate_table(tf.LATIN_VIOLATION)


@pytest.mark.parametrize("block", [None, 16])
def test_validate_table_rejects_a_column_only_latin_violation(block, monkeypatch):
    # Z8 with entries 6 and 7 of row 0 swapped: every row is a permutation,
    # column 6 holds 7 at rows 0 and 1.  Blocks of 16 entries hold two
    # lines, so column 6 is first sorted in the fourth block.
    if block is not None:
        monkeypatch.setattr(gncount, "_BLOCK", block)
    table = tf.cyclic(8)
    table[0][6], table[0][7] = table[0][7], table[0][6]
    with pytest.raises(TableError) as exc:
        validate_table(table)
    assert exc.value.args[0] == "Latin-square violation: column 6 repeats 7 at rows 0 and 1"


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("table, column_repeat, later", [
    # Z4 with row 0 made 1 0 2 3: no row is 0..3, so there is no identity.
    ([[1, 0, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
     "column 0 repeats 1 at rows 0 and 1", "no identity"),
    # Z5 with entries 2 and 3 of row 1 swapped: 0 is still a two-sided
    # identity, and Light's test fails at (1,1,1).
    ([[0, 1, 2, 3, 4], [1, 2, 4, 3, 0], [2, 3, 4, 0, 1], [3, 4, 0, 1, 2], [4, 0, 1, 2, 3]],
     "column 2 repeats 4 at rows 1 and 2", r"associativity violation at \(1,1,1\)"),
], ids=["no identity", "not associative"])
def test_a_column_repeat_is_named_before_a_later_rejection(
    block, table, column_repeat, later, monkeypatch
):
    # Latin rows, and a column repeat that is checked only once the
    # identity check or Light's test has failed.
    if block is not None:
        monkeypatch.setattr(gncount, "_BLOCK", block)
    with pytest.raises(TableError) as exc:
        validate_table(table)
    assert exc.value.args[0] == f"Latin-square violation: {column_repeat}"
    real = gncount._check_latin
    monkeypatch.setattr(
        gncount, "_check_latin", lambda T, line, place: line == "column" or real(T, line, place)
    )
    with pytest.raises(TableError, match=later):
        validate_table(table)


def _outcome(table):
    """validate_table's identity and generators, or its TableError text."""
    try:
        G = validate_table(table)
    except TableError as exc:
        return str(exc)
    return G.identity_index, G.generators


def _columns_first(table):
    """_outcome with the columns checked right after the rows, whatever follows."""
    T = np.array(table)
    try:
        gncount._check_latin(T, "row", "columns")
        gncount._check_latin(T.T, "column", "rows")
    except TableError as exc:
        return str(exc)
    return _outcome(table)


def test_columns_checked_only_on_the_way_to_a_rejection_give_the_same_outcomes(monkeypatch):
    """Random groups, loops and Latin-row tables against the columns-first reference."""
    rng = random.Random(32)
    kinds = Counter()
    for trial in range(900):
        monkeypatch.setattr(gncount, "_BLOCK", rng.choice([1 << 20, 16, 64]))
        edit = trial % 6
        base = next(_loops(rng.randrange(4, 8), rng)) if edit >= 4 else tf.random_group_table(rng)
        T = np.array(base)
        N = len(T)
        if edit in (0, 5):  # two entries of one row swapped: Latin rows, not columns
            r, (c1, c2) = rng.randrange(N), rng.sample(range(N), 2)
            T[r, [c1, c2]] = T[r, [c2, c1]]
        elif edit == 1:  # one to three rows made random permutations
            for r in rng.sample(range(N), min(N, rng.randint(1, 3))):
                T[r] = rng.sample(range(N), N)
        elif edit == 2:  # rows permuted: a Latin square, mostly with no identity
            T = T[rng.sample(range(N), N)]
        table = T.tolist()
        got = _outcome(table)
        assert got == _columns_first(table)
        kinds[got.split(" at ")[0].split(":")[0] if isinstance(got, str) else "group"] += 1
    assert min(kinds[k] for k in (
        "Latin-square violation", "no identity", "associativity violation", "group")) >= 20, kinds


@pytest.mark.parametrize("block", [None, 32])
def test_validate_table_rejects_an_associativity_violation_in_a_later_block(block, monkeypatch):
    # Z16 with the intercalate at rows 7 and 15, columns 2 and 10 swapped:
    # still a Latin square with identity 0, and the generating set is {1}.
    # Light's test first fails at a = 6, whose product with 1 is row 7;
    # blocks of 32 entries hold two rows, so a = 6 is in the fourth block.
    if block is not None:
        monkeypatch.setattr(gncount, "_BLOCK", block)
    a = np.arange(16)
    T = (a[:, None] + a[None, :]) % 16
    T[np.ix_([7, 15], [2, 10])] = T[np.ix_([7, 15], [10, 2])]
    with pytest.raises(TableError) as exc:
        validate_table(T.tolist())
    assert exc.value.args[0] == (
        "associativity violation at (6,1,2): (6*1)*2 = 1 but 6*(1*2) = 9"
    )


def test_validate_table_rejects_missing_identity():
    with pytest.raises(TableError, match="no identity"):
        validate_table(tf.NO_IDENTITY)


def test_validate_table_rejects_a_left_identity_that_is_not_a_right_identity():
    # x*y = y - x mod 5 is a Latin square whose row 0 is 0..4, so 0 is a
    # left identity, but x*0 = -x.  NO_IDENTITY is the mirror case.
    table = [[(y - x) % 5 for y in range(5)] for x in range(5)]
    with pytest.raises(TableError, match="no identity: no index e has e\\*x = x = x\\*e"):
        validate_table(table)


def test_validate_table_finds_the_identity_of_a_relabelled_d6xc4():
    table = tf.direct_product(tf.dihedral(6), tf.cyclic(4))
    perm = list(range(len(table)))
    random.Random(48).shuffle(perm)
    T = validate_table(tf.relabel(table, perm))
    assert T.to_element(T.identity_index) == perm[0]
    assert all(T.multiply(perm[0], x) == x == T.multiply(x, perm[0]) for x in range(T.order()))


def test_validate_table_rejects_non_associative_loop():
    with pytest.raises(TableError, match=r"associativity violation at \(1,1,2\)"):
        validate_table(tf.NON_ASSOCIATIVE)


def test_validate_table_rejects_shape_errors():
    with pytest.raises(TableError, match="row 1 has 1 entries"):
        validate_table([[0, 1], [1]])
    with pytest.raises(TableError, match="expected 0..1"):
        validate_table([[0, 5], [5, 0]])
    with pytest.raises(TableError, match="row 0 is int"):
        validate_table([1, 2])
    with pytest.raises(TableError, match="row 1 is NoneType"):
        validate_table([[0, 1], None])


@pytest.mark.parametrize("val,shown", [
    (1.0, "1.0"), (True, "True"), ("1", "'1'"), (np.int64(0), repr(np.int64(0))),
], ids=["float", "bool", "str", "np.int64"])
def test_validate_table_names_a_wrong_typed_entry(tmp_path, val, shown):
    want = f"entry at row 0 column 1 is {shown}, expected an integer in 0..1"
    with pytest.raises(TableError) as exc:
        validate_table([[0, val], [1, 0]])
    assert str(exc.value) == want
    if isinstance(val, np.integer):
        return  # JSON has no such value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, val], [1, 0]]}))
    _same_on_both_routes(path)
    assert _load(path, True) == f"{path}: {want}"


def test_validate_table_accepts_cyclic_520():
    T = validate_table(tf.cyclic(520))
    assert T.order() == 520


def test_validate_table_rejects_a_rare_associativity_violation():
    # Z_4000 with the entries at rows 1 and 2001, columns 1 and 2001
    # swapped: still a Latin square with identity 0.  Only the triples
    # through those four cells fail, so 10^6 random triples miss them.
    n = 4000
    a = np.arange(n)
    T = (a[:, None] + a[None, :]) % n
    T[np.ix_([1, 2001], [1, 2001])] = T[np.ix_([1, 2001], [2001, 1])]
    with pytest.raises(
        TableError,
        match=r"associativity violation at \(1,1,2\): \(1\*1\)\*2 = 2004 but 1\*\(1\*2\) = 4",
    ):
        validate_table(T.tolist())


def _associative(table) -> bool:
    """Every triple checked: the reference for Light's test."""
    T = np.array(table)
    return bool(np.array_equal(T[T], T[:, T]))


def _loops(n: int, rng: random.Random | None = None):
    """Latin squares over 0..n-1 with identity row and column 0.

    Filled cell by cell with backtracking; with rng, each cell tries its
    values in a random order.
    """
    T = [[(r if c == 0 else c if r == 0 else -1) for c in range(n)] for r in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in T]
            return
        r, c = cells[k]
        values = [v for v in range(n) if v not in T[r] and all(T[x][c] != v for x in range(n))]
        if rng is not None:
            rng.shuffle(values)
        for v in values:
            T[r][c] = v
            yield from fill(k + 1)
        T[r][c] = -1

    return fill(0)


def test_light_test_accepts_exactly_the_associative_tables():
    # Every reduced Latin square of orders 5 and 6, then random loops.  A
    # group G has (|G|-1)!/|Aut G| reduced tables: Z5 6, Z6 60, S3 20.
    squares = list(_loops(5)) + list(_loops(6))
    rng = random.Random(6)
    randoms = [next(_loops(n, rng)) for n in (7, 8) for _ in range(200)]
    assert len(squares) == 56 + 9408
    assert sum(map(_associative, squares)) == 6 + 60 + 20
    for table in squares + randoms:
        if _associative(table):
            validate_table(table)
            continue
        with pytest.raises(TableError, match="associativity violation") as exc:
            validate_table(table)
        a, s, c = map(int, exc.value.args[0].split("(")[1].split(")")[0].split(","))
        T = np.array(table)
        assert T[T[a, s], c] != T[a, T[s, c]]


def test_load_table_group_round_trip(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]], "name": "Z2"}))
    T = load_table_group(str(path))
    assert T.order() == 2
    assert T.name == "Z2"
    assert T.to_element(T.identity_index) == 0


def test_load_table_group_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 2,\n "table": [[0,1],[1,0]\n}')
    with pytest.raises(TableError, match="line 3 column 1"):
        load_table_group(str(path))


def test_load_table_group_requires_fields(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"order": 2}))
    with pytest.raises(TableError, match='required fields are "order" and "table"'):
        load_table_group(str(path))
    path2 = tmp_path / "mismatch.json"
    path2.write_text(json.dumps({"order": 3, "table": [[0, 1], [1, 0]]}))
    with pytest.raises(TableError, match="3 rows, got 2"):
        load_table_group(str(path2))


def _load(path, scan: bool):
    """load_table_group's result, or its TableError text, with or without the scanner."""
    route = nullcontext() if scan else mock.patch.object(gncount, "_scan_table", lambda raw: None)
    with route:
        try:
            G = load_table_group(str(path))
        except TableError as exc:
            return str(exc)
    return G.array.tolist(), G.identity_index, G.generators, G.name


def _same_on_both_routes(path) -> bool:
    """Whether the scanner took the file; fails unless both routes agree."""
    assert _load(path, True) == _load(path, False)
    return gncount._scan_table(path.read_bytes()) is not None


def test_load_table_group_range_error_on_a_scanned_file(tmp_path):
    path = tmp_path / "range.json"
    path.write_text(json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 3]]}))
    assert gncount._scan_table(path.read_bytes()) is not None
    with pytest.raises(TableError, match=r"range.json: entry at row 2 column 2 is 3, expected 0..2$"):
        load_table_group(str(path))


def test_scanner_reads_every_json_layout_of_a_table(tmp_path):
    wrapper = {"name": "D6xC4", "order": 48, "table": tf.relabel(
        tf.direct_product(tf.dihedral(6), tf.cyclic(4)), random.Random(3).sample(range(48), 48))}
    layouts = {
        "default": json.dumps(wrapper),
        "compact": json.dumps(wrapper, separators=(",", ":")),
        "indent": json.dumps(wrapper, indent=2),
        "crlf": json.dumps(wrapper, indent=2).replace("\n", "\r\n"),
    }
    results = set()
    for name, text in layouts.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.encode())
        assert _same_on_both_routes(path), name
        array, identity, gens, label = _load(path, True)
        results.add((str(array), identity, gens, label))
    assert len(results) == 1


GRID = "[[0, 1], [1, 0]]"


@pytest.mark.parametrize("text", [
    '{"order": 1, "table": null, "name": "a[[0]]"}',
    '{"order": 1, "table": [[0]], "name": "a[[0]]"}',
    f'{{"order": 2, "table": {GRID}, "table": 5}}',
    f'{{"order": 2, "table": 5, "table": {GRID}}}',
    f'{{"order": 2, "table": [[0]], "table": {GRID}}}',
    f'{{"order": 2, "table": {GRID}, "extra": [1]}}',
    f'{{"order": 2, "table": {GRID}, "name": "]"}}',
    f'{{"name": "]", "order": 2, "table": {GRID}}}',
    f'{{"order": 2, "table": {GRID}, "name": "["}}',
    f'{{"order": 2, "table": {GRID}, "name": 7}}',
    f'{{"order": 2, "table": {GRID}, "name": "\\ud800"}}',
    f'{{"order": 2, "table": {GRID}, "name": "\\ud83d\\ude00"}}',
    f'{{"order": 3, "table": {GRID}}}',
    f'{{"order": true, "table": {GRID}}}',
    f'[{GRID}]',
    f'{{"order": 2, "grid": {GRID}}}',
    f'{{"order": 2, "table": {GRID}',
    '{"order": 2, "table": [[0, true], [1, 0]]}',
    '{"order": 2, "table": [[0, 1.0], [1, 0]]}',
    '{"order": 2, "table": [[0, -1], [1, 0]]}',
    '{"order": 2, "table": [[0, 01], [1, 0]]}',
    '{"order": 2, "table": [[0, 1e2], [1, 0]]}',
    '{"order": 2, "table": [[0, 1 0], [1, 0]]}',
    '{"order": 2, "table": [[0, 1000000000000000000], [1, 0]]}',
    '{"order": 2, "table": [[0, 9999999999999999999], [1, 0]]}',
    '{"order": 2, "table": [[0, 18446744073709551617], [1, 0]]}',
    '{"order": 2, "table": [[0, 999999999999999999], [1, 0]]}',
    '{"order": 2, "table": [[0, 1' + "0" * 4999 + '], [1, 0]]}',
    '{"order": 0, "table": []}',
    '{"order": 1, "table": [[]]}',
    '{"order": 2, "table": [[0, 1], [1]]}',
    '{"order": 2, "table": [[0, 1], [1, 0, 1]]}',
    '{"order": 2, "table": [[0, 1], [1, 0], ]}',
    '{"order": 2, "table": [[0, 1], [[1], 0]]}',
    '{"order": 2, "table": [[0, 1],, [1, 0]]}',
    '{"order": 2, "table": [[0], [1, 0, 1]]}',
    '{"order": 2, "table": [[0, 1], 5, [1, 0]]}',
    '{"order": 2, "table": [[0, 1], ,1, 0]]}',
    '{"order": 2, "table": [5, [0, 1], [1, 0]]}',
    '{"order": 2, "table": [[0, 1], [1, 0]]]}',
    '{"order": 1, "table": [[0]]}',
    '{"order": 1, "table": [[1]]}',
    '{"order": 2, "table": [[0, 1], [1, 9999999999999999999]]}',
    '{"order": 2, "table": [[0, 1], [1, 00]]}',
    '{"order": 2, "table": [[0, 1], [1, 01]]}',
    '{"order": 2, "table": [[0, 1], [1, 0]]}\n',
    '\ufeff{"order": 2, "table": [[0, 1], [1, 0]]}',
    '{"order": 3, "table": ' + json.dumps(tf.LATIN_VIOLATION) + '}',
    '{"order": 5, "table": ' + json.dumps(tf.NO_IDENTITY) + '}',
    '{"order": 5, "table": ' + json.dumps(tf.NON_ASSOCIATIVE) + '}',
])
def test_scanner_and_json_load_agree(tmp_path, text):
    path = tmp_path / "t.json"
    path.write_bytes(text.encode("utf-8"))
    _same_on_both_routes(path)


def test_a_lone_surrogate_name_is_rejected_on_both_routes(tmp_path):
    # "\ud800" is valid JSON, but no UTF-8 text holds it; an "extra" array
    # after the table sends the second file to json.load.
    path = tmp_path / "surrogate.json"
    for extra, scanned in (("", True), (', "extra": [1]', False)):
        path.write_text(f'{{"order": 2, "table": {GRID}, "name": "\\ud800"{extra}}}')
        assert _same_on_both_routes(path) is scanned
        assert _load(path, True) == (
            f'{path}: "name" holds a lone surrogate, which UTF-8 cannot encode'
        )


@pytest.mark.parametrize("text, scanned", [
    (f'{{"order": 2, "table": {GRID}}}', True),
    ('{"order": 2, "table": [[0, 1.0], [1, 0]]}', False),
    ('{"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 3]]}', True),
], ids=["taken", "declined", "rejected"])
def test_the_parse_thread_is_joined_on_every_path(tmp_path, monkeypatch, text, scanned):
    path = tmp_path / "t.json"
    path.write_text(text)
    before = set(threading.enumerate())
    started = []

    class Helper(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    real = np.fromstring

    def slow(*args, **kwargs):  # still parsing when the checks end, unless joined
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(gncount.threading, "Thread", Helper)
    monkeypatch.setattr(np, "fromstring", slow)
    assert _same_on_both_routes(path) is scanned
    assert len(started) == 2  # the load that may scan, and the scan after it
    assert not any(t.is_alive() for t in started)
    assert set(threading.enumerate()) == before


def test_the_parse_thread_is_joined_when_a_check_raises(tmp_path, monkeypatch):
    path = tmp_path / "t.json"
    path.write_text(f'{{"order": 2, "table": {GRID}}}')
    before = set(threading.enumerate())

    def fail(*args, **kwargs):
        raise RuntimeError("check failed")

    monkeypatch.setattr(np, "diff", fail)  # the separator check of the grammar
    with pytest.raises(RuntimeError, match="check failed"):
        load_table_group(str(path))
    assert set(threading.enumerate()) == before


def _no_room(*args, **kwargs):
    raise MemoryError("no room for the grid")


def test_a_parse_error_on_the_helper_thread_is_raised_not_declined(tmp_path, monkeypatch):
    path = tmp_path / "t.json"
    path.write_text(f'{{"order": 2, "table": {GRID}}}')
    monkeypatch.setattr(np, "fromstring", _no_room)
    with pytest.raises(MemoryError, match="no room for the grid"):
        load_table_group(str(path))


def test_a_declined_file_drops_the_parse_error(tmp_path, monkeypatch):
    # A declined file is read by json.load alone; the parse error goes with its values.
    path = tmp_path / "t.json"
    path.write_text('{"order": 2, "table": [[0, 1.0], [1, 0]]}')
    monkeypatch.setattr(np, "fromstring", _no_room)
    with pytest.raises(TableError, match="is 1.0, expected an integer in 0..1"):
        load_table_group(str(path))


@pytest.mark.parametrize("table", ["[5[0, 1], [1, 0]]", "[[0, 1]5, [1, 0]]", "[[0, 1],5[1, 0]]",
                                   "[[0, 1], [1, 0]5]"])
def test_a_digit_in_an_empty_gap_is_declined_before_the_parse_is_read(tmp_path, monkeypatch, table):
    # The separators read as a 2 x 2 grid, and every number gap holds a number;
    # only the empty-gap check declines the file before the parse error is raised.
    path = tmp_path / "t.json"
    path.write_text(f'{{"order": 2, "table": {table}}}')
    monkeypatch.setattr(np, "fromstring", _no_room)
    with pytest.raises(TableError, match="malformed JSON"):
        load_table_group(str(path))


def test_declined_files_warn_nothing_under_W_error(tmp_path):
    # The helper thread parses each span before the checks decline it.
    entries = ["1.0", "-1", "1e2", "01", "true", "1 0", "9" * 19, "18446744073709551617",
               "1" + "0" * 4999]
    paths = []
    for k, entry in enumerate(entries):
        paths.append(tmp_path / f"declined-{k}.json")
        paths[-1].write_text(f'{{"order": 2, "table": [[0, {entry}], [1, 0]]}}')
    script = (
        "import pathlib, sys\n"
        "from fsz_forge import gncount\n"
        "for path in sys.argv[1:]:\n"
        "    if gncount._scan_table(pathlib.Path(path).read_bytes()) is not None:\n"
        "        sys.exit(f'{path} was taken')\n"
        "    try:\n"
        "        gncount.load_table_group(path)\n"
        "    except gncount.TableError:\n"
        "        pass\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script, *map(str, paths)],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_scanner_declines_utf16(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps({"order": 1, "table": [[0]]}).encode("utf-16"))
    assert not _same_on_both_routes(path)
    assert "unreadable JSON" in _load(path, True)


def test_scanner_agrees_with_json_load_on_mutated_tables(tmp_path):
    """Random byte edits of small tables: each one the scanner takes gives the
    same group or error as json.load; the rest are read by json.load alone."""
    rng = random.Random(2024)
    tables = [tf.cyclic(3), tf.dihedral(2), tf.relabel(tf.dihedral(3), [3, 0, 5, 1, 4, 2])]
    sources = [
        json.dumps({"order": len(t), "table": t, "name": "g"}, **layout).encode()
        for t in tables
        for layout in ({}, {"separators": (",", ":")}, {"indent": 1})
    ]
    alphabet = b'0123456789,[] \n\t\r"-.e{}:'
    path = tmp_path / "m.json"
    scanned = 0
    for _ in range(4000):
        raw = bytearray(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(raw))
            byte = rng.choice(alphabet) if rng.random() < 0.9 else rng.randrange(256)
            edit = rng.randrange(3)
            if edit == 0:
                raw[at] = byte
            elif edit == 1:
                raw.insert(at, byte)
            else:
                del raw[at]
        if gncount._scan_table(bytes(raw)) is None:
            continue  # load_table_group reads it with json.load alone
        path.write_bytes(bytes(raw))
        assert _same_on_both_routes(path)
        scanned += 1
    assert scanned > 300


def test_exponent_values():
    assert exponent(validate_table(tf.cyclic(6))) == 6
    assert exponent(validate_table(tf.dihedral(6))) == 6
    assert exponent(SpjGroup(P31)) == 9
    assert exponent(SpjGroup(P51)) == 25


@pytest.mark.parametrize(
    "G, orders",
    [
        # S(3,1) index = 27 k + 3 v_0 + v_1, so 3 is a1, 1 is a2 and 27 is b
        (SpjGroup(P31), {0: 1, 3: 9, 1: 3, 27: 3}),
        (validate_table(tf.dihedral(4), "D4"), {1: 4, 4: 2, 0: 1}),
        (validate_table(tf.cyclic(6), "Z6"), {1: 6, 2: 3, 3: 2}),
        (validate_table(tf.random_group_table(random.Random(7))), {}),
    ],
    ids=["S31", "D4", "Z6", "random"],
)
def test_table_group_power_and_orders(G, orders):
    """Every index-array method against the scalar methods, element by element."""
    els = [G.to_element(i) for i in range(G.N)]
    idx = G.from_element
    assert [idx(x) for x in els] == list(range(G.N))
    assert tf.scalar_order(G, els[G.identity_index]) == 1
    for i, order in orders.items():
        assert tf.scalar_order(G, els[i]) == order
    everyone = np.arange(G.N)

    products = G.mul_index_arrays(np.repeat(everyone, G.N), np.tile(everyone, G.N))
    table = [[idx(G.multiply(x, y)) for y in els] for x in els]
    assert products.tolist() == [v for row in table for v in row]
    for x, el in enumerate(els):
        assert rightmul(G, x).tolist() == [row[x] for row in table]
        conj = [idx(G.multiply(G.multiply(G.invert(el), a), el)) for a in els]
        assert G.conjugation_array(x).tolist() == conj
    assert G.invert_index_array(everyone).tolist() == [idx(G.invert(x)) for x in els]
    for n in (-1, 2, 3):
        repeated = [idx(tf.repeated_power(G, x, n)) for x in els]
        assert G.pow_index_array(n).tolist() == repeated
        assert [idx(G.power(x, n)) for x in els] == repeated

    scalar = [tf.scalar_order(G, x) for x in els]
    assert G.orders.tolist() == scalar
    assert exponent(G) == math.lcm(*scalar)


@pytest.mark.parametrize(
    "params, chunk, tail",
    [(P51, 1 << 16, 25), (GroupParams(3, 2), 1 << 16, 243), (P51, 100, 25)],
    ids=["S51", "S32", "S51-chunk100"],
)
def test_sweep_maps_match_scalar_methods(params, chunk, tail, monkeypatch):
    """The affine sweep against G.power and G.multiply on seeded positions.

    S(3,2) has dim 8, b-order 9 and one chunk per b-exponent.  With _CHUNK
    at 100, S(5,1) has a tail of 25 vectors, 125 head rows and 4 head rows
    per chunk, so each b-exponent ends in a ragged chunk of one row.  The
    positions include both sides of every chunk start, b-exponent
    boundaries among them.
    """
    monkeypatch.setattr(spgroup, "_CHUNK", chunk)
    G = SpjGroup(params)
    rng = random.Random(8)
    abelian = G.N // params.b_order
    rows = chunk // tail
    starts = [k * abelian + h * tail for k in range(params.b_order)
              for h in range(0, abelian // tail, rows)]
    edges = [start + d for start in starts[1:] for d in (-1, 0)]
    positions = sorted(set(rng.sample(range(G.N), 30) + edges + [G.N - 1]))
    els = [G.to_element(i) for i in positions]

    def agrees(arr, scalar):
        return [int(arr[i]) for i in positions] == [G.from_element(scalar(a)) for a in els]

    for n in (-1, 2, params.p, params.n, params.top_modulus + 1):
        assert agrees(G.pow_index_array(n), lambda a: G.power(a, n))
    for x_idx in rng.sample(range(G.N), 2):
        x = G.to_element(x_idx)
        x_inv = G.invert(x)
        assert agrees(rightmul(G, x_idx), lambda a: G.multiply(a, x))
        assert agrees(G.conjugation_array(x_idx),
                      lambda a: G.multiply(G.multiply(x_inv, a), x))
    orders = G.orders
    assert [int(orders[i]) for i in positions] == [tf.scalar_order(G, a) for a in els]
    assert np.unique(orders).tolist() == [params.p ** i for i in range(params.j + 2)]
    assert exponent(G) == params.top_modulus


@pytest.mark.parametrize(
    "params, chunk",
    [(P31, 1 << 16), (P51, 1 << 16), (GroupParams(3, 2), 1 << 16), (P51, 100)],
    ids=["S31", "S51", "S32", "S51-chunk100"],
)
def test_sweep_equals_the_per_element_kernels(params, chunk, monkeypatch):
    """Every entry of every whole-group map against direct evaluation.

    The sweep evaluates its word map on probe rows only and builds every
    index from reduced, scaled head and tail tables, with one
    compare-and-subtract per coordinate.  The reference evaluates the same
    word on every index, f(arange(N)), through the kernels, which reduce
    each element by remainder and encode it.
    """
    monkeypatch.setattr(spgroup, "_CHUNK", chunk)
    G = SpjGroup(params)
    everyone = np.arange(G.N)

    def fixed(x, a):
        return np.full(len(a), x)

    def conj(x):
        x_inv = int(G.invert_index_array(np.array([x]))[0])
        return lambda a: G.mul_index_arrays(G.mul_index_arrays(fixed(x_inv, a), a), fixed(x, a))

    ns = (-1, 2, params.p, params.n, params.top_modulus + 1)
    powers = {n: G.power_indices(everyone, n) for n in ns}
    x_idx = random.Random(12).randrange(G.N)
    right = G.mul_index_arrays(everyone, fixed(x_idx, everyone))
    conjugates = {c: conj(c)(everyone) for c in (*G.generators, x_idx)}
    for n, expected in powers.items():
        assert np.array_equal(G.pow_index_array(n), expected), n
    assert np.array_equal(rightmul(G, x_idx), right)
    assert np.array_equal(G.conjugation_array(x_idx), conjugates[x_idx])
    assert len(G.generators) == 2
    for c in G.generators:
        assert np.array_equal(G.conjugation_array(c), conjugates[c]), c


def test_element_orders_rejects_a_walk_that_misses_the_identity(monkeypatch):
    G = SpjGroup(P31)
    # i -> i + 1 mod N: every index but 0 needs more than v = 4 steps to reach 0
    monkeypatch.setattr(G, "pow_index_array", lambda n: np.roll(np.arange(G.N), -1))
    with pytest.raises(VerificationError, match=r"x -> x\^3 on S\(3,1\).* in 4 steps"):
        G.orders
    with pytest.raises(VerificationError, match="in 4 steps"):
        exponent(G)
    # A walk that fails its check caches nothing: with the true power maps
    # back, the orders are those of S(3,1), computed once and read-only.
    monkeypatch.undo()
    assert G.orders.tolist() == [tf.scalar_order(G, G.to_element(i)) for i in range(G.N)]
    assert G.orders is G.orders
    with pytest.raises(ValueError, match="read-only"):
        G.orders[0] = 2


@pytest.mark.parametrize("wrong", [3, 27], ids=["x^e-not-1", "x^(e/q)-all-1"])
def test_exponent_rejects_a_value_the_power_maps_do_not_certify(wrong, monkeypatch):
    # The exponent of S(3,1) is 9: a_1 has a_1^3 != 1, and x^27 = x^9 = 1 for all x.
    G = SpjGroup(P31)
    monkeypatch.setattr(G, "orders", np.full(G.N, wrong))
    with pytest.raises(VerificationError, match=f"do not certify exponent {wrong}"):
        exponent(G)
