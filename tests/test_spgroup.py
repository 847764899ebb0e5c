"""Group arithmetic, element syntax, enumeration, and structure checks."""

import random

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge import cli, spgroup
from fsz_forge.construction import b_power_table
from fsz_forge.mixedmod import GroupParams, MixedVector, ParameterError, VerificationError
from fsz_forge.spgroup import (
    ElementSyntaxError,
    SElement,
    SpjGroup,
    format_element,
    generator_a,
    generator_b,
    identity_element,
    invert,
    multiply,
    parse_element,
    power_generic,
    power_pj,
    structure_report,
    t_of_b_exponent,
)

P31 = GroupParams(3, 1)
P51 = GroupParams(5, 1)
P32 = GroupParams(3, 2)


@pytest.mark.parametrize("params", [P31, P51])
def test_group_axioms_on_random_samples(params):
    rng = random.Random(11)
    e = identity_element(params)
    xs = tf.random_elements(params, rng, 30)
    for i in range(0, 30, 3):
        x, y, z = xs[i], xs[i + 1], xs[i + 2]
        assert multiply(params, multiply(params, x, y), z) == multiply(
            params, x, multiply(params, y, z)
        )
    for x in xs[:10]:
        assert multiply(params, x, e) == x
        assert multiply(params, e, x) == x
        assert multiply(params, x, invert(params, x)) == e
        assert multiply(params, invert(params, x), x) == e


def test_power_generic_matches_repeated_multiplication():
    rng = random.Random(5)
    for params in (P31, P51):
        for x in tf.random_elements(params, rng, 5):
            acc = identity_element(params)
            for e in range(9):
                assert power_generic(params, x, e) == acc
                acc = multiply(params, acc, x)
            assert power_generic(params, x, -3) == invert(
                params, power_generic(params, x, 3)
            )


@pytest.mark.parametrize("params", [P31, P51, P32])
def test_power_pj_agrees_with_generic_for_every_b_order(params):
    rng = random.Random(3)
    forced_ks = [0] + [params.p**t for t in range(params.j)]
    for k in forced_ks:
        for _ in range(20):
            vec = MixedVector(
                params,
                tuple(
                    rng.randrange(params.row_modulus(r)) for r in range(params.dim)
                ),
            )
            x = SElement(vec, k)
            assert power_pj(params, x) == power_generic(params, x, params.n)
    for x in tf.random_elements(params, rng, 50):
        assert power_pj(params, x) == power_generic(params, x, params.n)


def test_generators_and_formatting():
    a1 = generator_a(P31, 1)
    a2 = generator_a(P31, 2)
    b = generator_b(P31)
    assert format_element(P31, a1) == "a1^1"
    assert format_element(P31, a2) == "a2^1"
    assert format_element(P31, b) == "b^1"
    assert format_element(P31, identity_element(P31)) == "e"
    G = SpjGroup(P31)
    assert G.generators == (G.from_element(a1), G.from_element(b))


def test_parse_folds_factors_left_to_right():
    x = parse_element(P31, "b a1")
    assert x == multiply(P31, generator_b(P31), generator_a(P31, 1))
    assert parse_element(P31, "b^-1 a1^2") == multiply(
        P31,
        invert(P31, generator_b(P31)),
        power_generic(P31, generator_a(P31, 1), 2),
    )
    assert parse_element(P31, "") == identity_element(P31)
    assert parse_element(P31, "e") == identity_element(P31)


def test_parse_format_roundtrip():
    rng = random.Random(23)
    for params in (P31, P32):
        for x in tf.random_elements(params, rng, 40):
            assert parse_element(params, format_element(params, x)) == x


@pytest.mark.parametrize(
    "text",
    ["a0", "a3^2", "a1^^2", "xyz", "a", "b b^%d" % (2**64), "a1^2b",
     # int() refuses strings over 4300 digits, so these are rejected as text.
     pytest.param("a1^" + "9" * 5000, id="a1^<5000 nines>"),
     pytest.param("a" + "9" * 5000, id="a<5000 nines>")],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ElementSyntaxError):
        parse_element(P31, text)


def test_parse_extreme_exponents_match_python_int_residues():
    big = 2 ** 63
    for e in (big, -big):
        for i in (1, 2):
            vec = MixedVector(P51, tuple(e if r == i - 1 else 0 for r in range(P51.dim)))
            assert parse_element(P51, f"a{i}^{e}") == SElement(vec, 0)
        assert parse_element(P51, f"b^{e}") == SElement(MixedVector(P51, (0,) * P51.dim), e)
    with pytest.raises(ElementSyntaxError):
        parse_element(P51, f"a1^{big + 1}")
    assert parse_element(P51, "a1^-000" + str(big)) == parse_element(P51, f"a1^{-big}")


def test_commands_that_never_enumerate_never_build_the_b_power_table(capsys):
    # At S(509,1) the table would hold 509 * 508^2 int64 entries, about
    # 1 GB.  The scalar product walks B^k e_0 one sparse step at a time,
    # against _column0_orbit, an independent dense chain.
    P = GroupParams(509, 1)
    b_power_table.cache_clear()
    assert cli.run(["witness", "--p", "7", "--j", "3"]) == 0
    capsys.readouterr()
    assert b_power_table.cache_info().currsize == 0
    structure_report(P)
    assert b_power_table.cache_info().currsize == 0
    x = parse_element(P, "b^300 a1")
    assert b_power_table.cache_info().currsize == 0
    W = spgroup._column0_orbit(P)
    assert x == SElement(MixedVector(P, W[:, 300]), 300)
    for k in (1, 300, 508):
        assert parse_element(P, f"b^{k} a1 b^-{k}") == SElement(MixedVector(P, W[:, k]), 0)
    assert b_power_table.cache_info().currsize == 0


@pytest.mark.parametrize("params", [P31, GroupParams(7, 2)])
def test_scalar_arithmetic_matches_the_index_kernels(params):
    # S(7,2) has dimension 48 and is never enumerated; the kernels take
    # (V, K) arrays, not indices.
    G = SpjGroup(params)
    rng = random.Random(40)
    xs, ys = tf.random_elements(params, rng, 40), tf.random_elements(params, rng, 40)

    def arrays(elements):
        return (np.array([x.vec.array for x in elements]),
                np.array([x.k for x in elements], dtype=np.int64))

    def rows(elements):
        return [(x.vec.array.tolist(), x.k) for x in elements]

    def kernel_rows(V, K):
        return list(zip(V.tolist(), K.tolist()))

    def kernel_power(V, K, e):
        """Square-and-multiply over G.mul, starting at the identity rows."""
        if e < 0:
            (V, K), e = G.inv(V, K), -e
        rV, rK = np.zeros_like(V), np.zeros_like(K)
        while e:
            if e & 1:
                rV, rK = G.mul(rV, rK, V, K)
            e >>= 1
            if e:
                V, K = G.mul(V, K, V, K)
        return rV, rK

    (VX, KX), (VY, KY) = arrays(xs), arrays(ys)
    products = [multiply(params, x, y) for x, y in zip(xs, ys)]
    assert rows(products) == kernel_rows(*G.mul(VX, KX, VY, KY))
    assert rows(invert(params, x) for x in xs) == kernel_rows(*G.inv(VX, KX))
    for e in (0, 5, params.n, -7):
        assert rows(power_generic(params, x, e) for x in xs) == kernel_rows(*kernel_power(VX, KX, e))


def test_element_k_reduces_mod_b_order():
    x = SElement(identity_element(P31).vec, P31.b_order + 1)
    assert x.k == 1
    assert SElement(x.vec, -1).k == P31.b_order - 1


def test_t_of_b_exponent():
    assert t_of_b_exponent(P32, 0) == 2
    assert t_of_b_exponent(P32, 3) == 1
    assert t_of_b_exponent(P32, 6) == 1
    assert t_of_b_exponent(P32, 1) == 0
    assert t_of_b_exponent(P32, 8) == 0


@pytest.mark.parametrize(
    "p,j", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]
)
def test_b_power_row0_is_e0_mod_p(p, j):
    # The premise of the class table in the structured FSZ_{p^j} scan, which
    # structured_tables checks on row 0 of B alone: here on every power.
    params = GroupParams(p, j)
    e0 = (1,) + (0,) * (params.dim - 1)
    table = b_power_table(params)
    assert len(table) == params.b_order
    for power in table:
        assert tuple(int(c) % p for c in power[0]) == e0


def test_enumeration_is_a_bijection():
    elements = list(tf.lexicographic_elements(P31))
    assert len(elements) == P31.group_order == 81
    assert len(set(elements)) == 81
    assert elements[0] == identity_element(P31)
    G = SpjGroup(P31)
    for idx, x in enumerate(elements):
        assert G.from_element(x) == idx
        assert G.to_element(idx) == x


def test_enumeration_is_exact_past_int64():
    """At S(509,1), of order 509^510, the place values stay Python ints."""
    P = GroupParams(509, 1)
    G = SpjGroup(P)
    last = G.to_element(P.group_order - 1)
    assert last.k == P.b_order - 1
    assert last.vec.coords == (P.top_modulus - 1,) + (P.p - 1,) * (P.dim - 1)
    idx = random.Random(509).randrange(P.group_order)
    assert G.from_element(G.to_element(idx)) == idx
    with pytest.raises(ParameterError, match="out of range"):
        G.to_element(P.group_order)


@pytest.mark.parametrize("p,j,rows", [(3, 1, 200), (7, 2, 200), (509, 1, 129)])
def test_apply_by_k_equals_the_per_row_product(monkeypatch, p, j, rows):
    params = GroupParams(p, j)
    G, rng = SpjGroup(params), np.random.default_rng(p + j)
    bo, d = params.b_order, params.dim
    if p == 509:
        # The grouping does not depend on what the table holds, and the
        # b_power_table of S(509,1) is 0.5 GB: each b-exponent gets its own
        # window of one buffer of residues, in the table's uint32, instead.
        buffer = rng.integers(0, params.p, size=bo + d * d, dtype=np.uint32)
        stand_in = np.lib.stride_tricks.sliding_window_view(buffer, d * d)[:bo].reshape(bo, d, d)
        monkeypatch.setattr(spgroup, "b_power_table", lambda pr: stand_in)
    table = spgroup.b_power_table(params)
    for K in (np.empty(0, dtype=np.int64), np.full(rows, bo // 2), rng.permutation(bo),
              rng.integers(0, bo, size=rows)):
        V = rng.integers(0, params.p, size=(len(K), d))
        V[:, 0] = rng.integers(0, params.top_modulus, size=len(K))
        want = np.empty_like(V)
        for i, k in enumerate(K.tolist()):
            want[i] = V[i] @ table[k].T % params.row_moduli
        assert np.array_equal(G._apply_by_k(K, V), want)


def test_structure_report_exact_mode():
    report = structure_report(P31)
    assert all(c.passed for c in report.checks)
    assert report.center_order == 3
    assert report.a1_order == 9


def _scalar_center_order(params):
    """Elements commuting with the full generating set a_1..a_dim, b."""
    gens = [generator_a(params, i) for i in range(1, params.dim + 1)] + [generator_b(params)]
    return sum(
        all(multiply(params, x, g) == multiply(params, g, x) for g in gens)
        for x in tf.lexicographic_elements(params)
    )


@pytest.mark.parametrize("params", [P31, P51])
def test_structure_report_center_matches_scalar_commutation(params):
    report = structure_report(params)
    assert report.center_order == _scalar_center_order(params) == params.n


@pytest.fixture
def b_is_identity(monkeypatch):
    """S(p,j) with B replaced by I: an abelian group, a_1 and b no longer generate it."""
    monkeypatch.setattr(spgroup, "build_b", tf.identity_matrix)
    spgroup._b_step.cache_clear()
    spgroup.b_power_table.cache_clear()
    yield
    monkeypatch.undo()
    spgroup._b_step.cache_clear()
    spgroup.b_power_table.cache_clear()


def test_structure_report_center_fails_when_b_is_the_identity(b_is_identity):
    checks = {c.name: c for c in structure_report(P31).checks}
    assert not checks["center_order"].passed
    assert checks["center_order"].detail == "a_1 and b do not generate the group"


def test_generators_refuse_an_orbit_that_does_not_span(b_is_identity):
    with pytest.raises(VerificationError, match=r"a_1 and b do not generate S\(3,1\)"):
        SpjGroup(P31).generators


@pytest.mark.parametrize(
    "pj, center", [((5, 2), 25), ((7, 2), 49), ((3, 3), 27)], ids=["S52", "S72", "S33"]
)
def test_structure_report_is_exact_beyond_enumeration(pj, center):
    report = structure_report(GroupParams(*pj))
    assert all(c.passed for c in report.checks)
    assert report.center_order == center
    assert report.a1_order == center * pj[0]
    checks = {c.name: c for c in report.checks}
    assert checks["center_order"].detail == f"center has {center} elements, all powers of a_1^p"


def test_group_handle():
    G = SpjGroup(P31)
    assert G.order() == 81
    assert G.describe() == "S(3,1) (order 81)"
    a1 = generator_a(P31, 1)
    assert tf.scalar_order(G, a1) == 9
    assert tf.scalar_order(G, generator_b(P31)) == 3
    assert tf.scalar_order(G, G.to_element(G.identity_index)) == 1
    assert G.describe_element(a1) == "a1^1"
    assert G.power(a1, 10) == G.multiply(a1, G.power(a1, 9))
