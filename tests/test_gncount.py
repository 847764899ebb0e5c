"""Counting G_n(u,g) by brute force and by the structured route."""

import json
import math
import random

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge.mixedmod import GroupParams, MixedVector
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
    SElement,
    SpjGroup,
    generator_a,
    generator_b,
    identity_element,
    multiply,
    power_generic,
    random_element,
)

P31 = GroupParams(3, 1)
P51 = GroupParams(5, 1)


def _designated(params):
    u = multiply(params, generator_b(params), generator_a(params, 1))
    g = power_generic(params, generator_a(params, 1), params.n)
    g2 = power_generic(params, generator_a(params, 1), 2 * params.n)
    return u, g, g2


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
    # every central g = a_1^{s p^j} against the designated u
    for s in range(params.p):
        coords = (s * params.n % params.top_modulus,) + (0,) * (params.dim - 1)
        pairs.append((u_des, SElement(MixedVector(params, coords), 0)))
    while len(pairs) < 60:
        pairs.append((random_element(params, rng), random_element(params, rng)))
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


def test_bruteforce_is_thread_count_independent():
    u, _, g2 = _designated(P51)
    G = SpjGroup(P51)
    one = gn_count_bruteforce(G, 5, u, g2, threads=1)
    eight = gn_count_bruteforce(G, 5, u, g2, threads=8)
    assert one.count == eight.count
    assert one.witnesses == eight.witnesses


def test_bruteforce_respects_enumeration_limit():
    u, g, _ = _designated(P51)
    with pytest.raises(EnumerationLimitError):
        gn_count_bruteforce(SpjGroup(P51), 5, u, g, limit=100)


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
        e = T.identity()
        assert all(T.multiply(e, x) == x == T.multiply(x, e) for x in range(T.order()))
        assert all(
            T.multiply(x, T.invert(x)) == e for x in range(T.order())
        )


def test_validate_table_finds_relabeled_identity():
    perm = [3, 0, 5, 1, 4, 2]
    T = validate_table(tf.relabel(tf.cyclic(6), perm))
    assert T.identity() == perm[0]


def test_validate_table_rejects_latin_violation():
    with pytest.raises(TableError, match=r"row 1 repeats 1 at columns 0 and 1"):
        validate_table(tf.LATIN_VIOLATION)


def test_validate_table_rejects_missing_identity():
    with pytest.raises(TableError, match="no identity"):
        validate_table(tf.NO_IDENTITY)


def test_validate_table_rejects_non_associative_loop():
    with pytest.raises(TableError, match=r"associativity violation at \(1,1,2\)"):
        validate_table(tf.NON_ASSOCIATIVE)


def test_validate_table_rejects_shape_errors():
    with pytest.raises(TableError, match="row 1 has 1 entries"):
        validate_table([[0, 1], [1]])
    with pytest.raises(TableError, match="expected 0..1"):
        validate_table([[0, 5], [5, 0]])


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
    assert T.identity() == 0


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
        (validate_table(tf.random_group_table(random.Random(7))), {}),
    ],
    ids=["S31", "D4", "random"],
)
def test_table_group_power_and_orders(G, orders):
    """Every index-array method against the scalar methods, element by element."""
    els = [G.to_element(i) for i in range(G.N)]
    idx = G.from_element
    assert [idx(x) for x in els] == list(range(G.N))
    assert els[G.identity_index] == G.identity()
    assert G.element_order(G.identity()) == 1
    for i, order in orders.items():
        assert G.element_order(els[i]) == order
    everyone = np.arange(G.N)

    products = G.mul_index_arrays(np.repeat(everyone, G.N), np.tile(everyone, G.N))
    table = [[idx(G.multiply(x, y)) for y in els] for x in els]
    assert products.tolist() == [v for row in table for v in row]
    for x in range(G.N):
        assert G.rightmul_array(x).tolist() == [row[x] for row in table]
        assert G.leftmul_array(x, threads=1).tolist() == table[x]
        assert G.invert_index(x) == idx(G.invert(els[x]))
    assert G.invert_index_array(everyone).tolist() == [idx(G.invert(x)) for x in els]
    for n in (-1, 2, 3):
        assert G.pow_index_array(n).tolist() == [idx(G.power(x, n)) for x in els]

    lcm = math.lcm(*[G.element_order(x) for x in els])
    assert G.orders_exponent() == lcm == exponent(G)
