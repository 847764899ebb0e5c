"""Acceptance gate: twelve mandated checks, each with a runtime budget.

Every test prints one [PASS]/[FAIL] line (pytest is configured with -s)
and fails hard on either a wrong result or a blown budget.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

import tablefixtures as tf
from fsz_forge.mixedmod import (
    GroupParams,
    MixedVector,
    identity_matrix,
    mat_mul,
    mat_pow,
    mat_scale,
)
from fsz_forge.construction import (
    binomial_entry_closed,
    build_b,
    build_shift,
    build_y,
    shift_power_closed,
)
from fsz_forge.spgroup import (
    SElement,
    SpjGroup,
    enumerate_elements,
    generator_a,
    generator_b,
    multiply,
    power_generic,
    power_pj,
    random_element,
)
from fsz_forge.gncount import (
    TableError,
    gn_count_bruteforce,
    gn_count_bruteforce_many,
    gn_count_structured,
    validate_table,
)
from fsz_forge.fszcheck import check_fsz, check_fsz_n

GRID = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


def _verdict(cid: str, ok: bool, elapsed: float, budget: float, detail: str):
    passed = ok and elapsed < budget
    print(f"[{'PASS' if passed else 'FAIL'}] {cid}: {detail} "
          f"[{elapsed:.2f}s, budget {budget:g}s]")
    assert ok, f"{cid}: {detail}"
    assert elapsed < budget, f"{cid}: {elapsed:.2f}s exceeded the {budget:g}s budget"


def _designated(params: GroupParams):
    u = multiply(params, generator_b(params), generator_a(params, 1))
    g = power_generic(params, generator_a(params, 1), params.n)
    g2 = power_generic(params, generator_a(params, 1), 2 * params.n)
    return u, g, g2


def test_c01_b_has_exact_order_p_to_j():
    t0 = time.perf_counter()
    ok = True
    for p, j in GRID:
        params = GroupParams(p, j)
        B = build_b(params)
        ident = identity_matrix(params).rows
        acc = identity_matrix(params)
        for k in range(1, params.b_order):
            acc = mat_mul(acc, B)
            ok = ok and acc.rows != ident
        penultimate = acc
        ok = ok and penultimate.rows[0][0] == params.n + 1
        ok = ok and mat_mul(acc, B).rows == ident
    _verdict("criterion 01", ok, time.perf_counter() - t0, 1.0,
             "B^(p^j) = I, no smaller power, corner of B^(p^j-1) = p^j+1 on the grid")


def test_c02_y_matrices_have_the_block_forms():
    t0 = time.perf_counter()
    ok = True
    for p, j in GRID:
        params = GroupParams(p, j)
        d = params.dim
        y1 = build_y(params, 0)
        ok = ok and y1.rows[0][0] == 2 * params.n
        ok = ok and all(
            y1.rows[r][c] == 0 for r in range(d) for c in range(d) if (r, c) != (0, 0)
        )
        for t in range(1, j):
            scaled = mat_scale(p**t, build_y(params, t))
            ok = ok and scaled.rows[0][0] == params.n
            ok = ok and all(
                scaled.rows[r][c] == 0
                for r in range(d) for c in range(d) if (r, c) != (0, 0)
            )
    _verdict("criterion 02", ok, time.perf_counter() - t0, 1.0,
             "Y(1) corner 2p^j and p^t*Y(p^t) corner p^j, zeros elsewhere, on the grid")


def test_c03_closed_forms_match_matrix_powers():
    t0 = time.perf_counter()
    ok = True
    for p, j in GRID:
        params = GroupParams(p, j)
        S = build_shift(params)
        B = build_b(params)
        for k in range(1, params.b_order + 1):
            ok = ok and shift_power_closed(params, k).rows == mat_pow(S, k).rows
        for k in range(1, params.b_order - 1):
            ok = ok and binomial_entry_closed(params, k).rows == mat_pow(B, k).rows
    _verdict("criterion 03", ok, time.perf_counter() - t0, 5.0,
             "shift and binomial closed forms equal mat_pow on the grid")


def test_c04_structured_power_matches_generic_power():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for p, j in GRID:
        params = GroupParams(p, j)
        rng = random.Random(0)
        done = 0
        for k in [0] + [p**i for i in range(j)]:  # one k per attainable b-order
            for _ in range(40):
                vec = MixedVector(
                    params,
                    tuple(rng.randrange(params.row_modulus(r)) for r in range(params.dim)),
                )
                x = SElement(vec, k)
                ok = ok and power_pj(params, x) == power_generic(params, x, params.n)
                done += 1
        while done < 1000:
            x = random_element(params, rng)
            ok = ok and power_pj(params, x) == power_generic(params, x, params.n)
            done += 1
        checked += done
    _verdict("criterion 04", ok, time.perf_counter() - t0, 5.0,
             f"power_pj = power_generic on {checked} elements incl. every b-order")


def test_c05_designated_counts_at_5_1():
    t0 = time.perf_counter()
    params = GroupParams(5, 1)
    u, g, g2 = _designated(params)
    brute = gn_count_bruteforce_many(SpjGroup(params), 5, u, [g, g2])
    s1 = gn_count_structured(params, u, g)
    s2 = gn_count_structured(params, u, g2)
    ok = (
        [c.count for c in brute] == [0, 625]
        and (s1.count, s2.count) == (0, 625)
        and brute[1].witnesses == s2.witnesses
    )
    _verdict("criterion 05", ok, time.perf_counter() - t0, 1.0,
             "S(5,1) brute force gives (0, 625); structured counter matches")


def test_c06_designated_counts_at_7_1():
    t0 = time.perf_counter()
    params = GroupParams(7, 1)
    u, g, g2 = _designated(params)
    brute = gn_count_bruteforce_many(SpjGroup(params), 7, u, [g, g2])
    s2 = gn_count_structured(params, u, g2)
    ok = (
        brute[0].count == 0
        and brute[1].count == 117649
        and brute[1].count == s2.count
    )
    _verdict("criterion 06", ok, time.perf_counter() - t0, 60.0,
             "S(7,1) brute force over 5764801 elements gives (0, 117649) = structured")


def test_c07_structured_counts_beyond_enumeration():
    t0 = time.perf_counter()
    ok = True
    for p, j in ((5, 2), (7, 2)):
        params = GroupParams(p, j)
        u, g, g2 = _designated(params)
        ok = ok and gn_count_structured(params, u, g).count == 0
        ok = ok and gn_count_structured(params, u, g2).count > 0
    _verdict("criterion 07", ok, time.perf_counter() - t0, 1.0,
             "S(5,2) and S(7,2) structured counts are (0, positive)")


def test_c08_p_equals_3_boundary():
    t0 = time.perf_counter()
    params = GroupParams(3, 1)
    u, g, g2 = _designated(params)
    brute = gn_count_bruteforce_many(SpjGroup(params), 3, u, [g, g2])
    s1 = gn_count_structured(params, u, g)
    s2 = gn_count_structured(params, u, g2)
    ok = [c.count for c in brute] == [9, 9] and (s1.count, s2.count) == (9, 9)
    _verdict("criterion 08", ok, time.perf_counter() - t0, 1.0,
             "S(3,1) designated counts are (9, 9): no witness at p = 3")


def test_c09_full_fsz_scan_of_s31():
    G = SpjGroup(GroupParams(3, 1))
    t0 = time.perf_counter()
    reduced = check_fsz(G)
    t_red = time.perf_counter() - t0
    t0 = time.perf_counter()
    plain = check_fsz(G, reduction=False)
    t_plain = time.perf_counter() - t0
    ok = (
        [(v.n, v.verdict) for v in reduced]
        == [(v.n, v.verdict) for v in plain]
        == [(1, "FSZ_1"), (3, "FSZ_3"), (9, "FSZ_9")]
    )
    passed = ok and t_red < 5.0 and t_plain < 30.0
    print(f"[{'PASS' if passed else 'FAIL'}] criterion 09: S(3,1) is FSZ_n for n | 9; "
          f"modes agree [reduction {t_red:.2f}s/5s, no-reduction {t_plain:.2f}s/30s]")
    assert ok
    assert t_red < 5.0 and t_plain < 30.0


def test_c10_non_fsz_witness_with_brute_revalidation():
    t0 = time.perf_counter()
    G = SpjGroup(GroupParams(5, 1))
    verdict = check_fsz_n(G, 5)
    w = verdict.witness
    ok = (
        verdict.verdict == "non-FSZ_5"
        and w is not None
        and math.gcd(w.m, G.order()) == 1
        and w.count_g != w.count_gm
    )
    if ok:
        gm = G.power(w.g, w.m)
        ok = (
            gn_count_bruteforce(G, 5, w.u, w.g).count == w.count_g
            and gn_count_bruteforce(G, 5, w.u, gm).count == w.count_gm
        )
    _verdict("criterion 10", ok, time.perf_counter() - t0, 120.0,
             "check_fsz_n(S(5,1), 5) witness is coprime, unequal, brute-revalidated")


def test_c11_property_suite_and_corrupted_tables():
    t0 = time.perf_counter()
    ok = True
    triples = 0

    def check_properties(G, els, n_choices, rng, rounds):
        nonlocal ok, triples
        for _ in range(rounds):
            u = rng.choice(els)
            g = rng.choice(els)
            n = rng.choice(n_choices)
            base = gn_count_bruteforce(G, n, u, g).count
            ok_inv = base == gn_count_bruteforce(G, n, u, G.invert(g)).count
            x = rng.choice(els)
            xinv = G.invert(x)
            ux = G.multiply(G.multiply(xinv, u), x)
            gx = G.multiply(G.multiply(xinv, g), x)
            ok_conj = base == gn_count_bruteforce(G, n, ux, gx).count
            ok = ok and ok_inv and ok_conj
            triples += 1

    rng = random.Random(2024)
    G31 = SpjGroup(GroupParams(3, 1))
    check_properties(G31, list(enumerate_elements(G31.params)), [1, 2, 3, 6, 9], rng, 60)
    for _ in range(3):
        T = validate_table(tf.random_group_table(rng))
        check_properties(T, list(range(T.order())), [1, 2, 3, 4], rng, 20)
    ok = ok and triples >= 100

    for table, label in (
        (tf.LATIN_VIOLATION, "Latin-square violation"),
        (tf.NO_IDENTITY, "no identity"),
        (tf.NON_ASSOCIATIVE, "associativity violation"),
    ):
        try:
            validate_table(table)
            ok = False
        except TableError as exc:
            ok = ok and label in str(exc)

    _verdict("criterion 11", ok, time.perf_counter() - t0, 10.0,
             f"inverse/conjugation count invariance on {triples} triples; "
             "corrupted tables rejected")


def test_c12_byte_determinism_across_runs_and_threads():
    t0 = time.perf_counter()
    base = [sys.executable, "-m", "fsz_forge",
            "witness", "--p", "5", "--j", "1", "--format", "json"]
    outs = []
    for extra in ([], [], ["--threads", "1"], ["--threads", "8"]):
        proc = subprocess.run(base + extra, capture_output=True, check=True)
        outs.append(proc.stdout)
    ok = outs[0] == outs[1] == outs[2] == outs[3]
    ok = ok and json.loads(outs[0])["witness"]["count_gm"] == 625
    _verdict("criterion 12", ok, time.perf_counter() - t0, 60.0,
             "witness JSON byte-identical across runs and --threads 1 vs 8")
