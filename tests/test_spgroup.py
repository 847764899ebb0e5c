"""Group arithmetic, element syntax, enumeration, and structure checks."""

import random

import pytest

from fsz_forge.mixedmod import GroupParams, MixedVector
from fsz_forge.spgroup import (
    ElementSyntaxError,
    EnumerationLimitError,
    SElement,
    SpjGroup,
    b_power_row0,
    element_at,
    element_index,
    enumerate_elements,
    format_element,
    generator_a,
    generator_b,
    generators,
    identity_element,
    invert,
    multiply,
    parse_element,
    power_generic,
    power_pj,
    random_element,
    structure_report,
    t_of_b_exponent,
)

P31 = GroupParams(3, 1)
P51 = GroupParams(5, 1)
P32 = GroupParams(3, 2)


def _samples(params, rng, count):
    return [random_element(params, rng) for _ in range(count)]


@pytest.mark.parametrize("params", [P31, P51])
def test_group_axioms_on_random_samples(params):
    rng = random.Random(11)
    e = identity_element(params)
    xs = _samples(params, rng, 30)
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
        for x in _samples(params, rng, 5):
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
    for x in _samples(params, rng, 50):
        assert power_pj(params, x) == power_generic(params, x, params.n)


def test_generators_and_formatting():
    a1 = generator_a(P31, 1)
    a2 = generator_a(P31, 2)
    b = generator_b(P31)
    assert format_element(P31, a1) == "a1^1"
    assert format_element(P31, a2) == "a2^1"
    assert format_element(P31, b) == "b^1"
    assert format_element(P31, identity_element(P31)) == "e"
    assert generators(P31) == (a1, a2, b)


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
        for x in _samples(params, rng, 40):
            assert parse_element(params, format_element(params, x)) == x


@pytest.mark.parametrize(
    "text",
    ["a0", "a3^2", "a1^^2", "xyz", "a", "b b^%d" % (2**64), "a1^2b"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ElementSyntaxError):
        parse_element(P31, text)


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
    # The premise of the class table in the structured FSZ_{p^j} scan.
    params = GroupParams(p, j)
    e0 = (1,) + (0,) * (params.dim - 1)
    rows = b_power_row0(params)
    assert len(rows) == params.b_order
    for row in rows:
        assert tuple(c % p for c in row) == e0


def test_enumeration_is_a_bijection():
    elements = list(enumerate_elements(P31))
    assert len(elements) == P31.group_order == 81
    assert len(set(elements)) == 81
    assert elements[0] == identity_element(P31)
    for idx, x in enumerate(elements):
        assert element_index(P31, x) == idx
        assert element_at(P31, idx) == x


def test_enumeration_respects_limit():
    with pytest.raises(EnumerationLimitError):
        list(enumerate_elements(P31, limit=80))


def test_random_element_is_seed_deterministic():
    xs = _samples(P51, random.Random(99), 10)
    ys = _samples(P51, random.Random(99), 10)
    assert xs == ys


def test_structure_report_exact_mode():
    report = structure_report(P31)
    assert report.all_passed
    assert report.center_method == "enumeration"
    assert report.center_order == 3
    assert report.a1_order == 9
    assert report.group_order == 81


def test_structure_report_sampled_mode():
    report = structure_report(GroupParams(5, 2), rng=random.Random(0))
    assert report.all_passed
    assert report.center_method == "generator-commutation"
    assert report.center_order == 25
    assert report.a1_order == 125


def test_group_handle():
    G = SpjGroup(P31)
    assert G.order() == 81
    assert G.describe() == "S(3,1) (order 81)"
    a1 = generator_a(P31, 1)
    assert G.element_order(a1) == 9
    assert G.element_order(generator_b(P31)) == 3
    assert G.element_order(G.identity()) == 1
    assert G.describe_element(a1) == "a1^1"
    assert G.power(a1, 10) == G.multiply(a1, G.power(a1, 9))
