"""The workloads: seeded CLI argv lists and the gate on their output.

Each workload is a closed loop of sequential CLI calls from one fresh
process (one round); the harness repeats rounds for the run's duration.
Every call runs with --format json and --threads pinned to THREADS.
fsz-scan is the parts spj51-fsz and table-fsz; pj-exact is spj71-pj and
verify-exact.

Seed dependence of each part, and why its work does not depend on it:
- spj51-fsz: no input depends on the seed; the full S(5,1) decision is
  one fixed computation.
- spj71-pj: the seed picks the count element u and the central target
  a1^{7s}.  The brute count costs the same for every u (one power map and
  one right translation of all 7^8 elements) and the structured count is
  a p^j-step congruence loop for any central target.
- table-fsz: the seed picks the relabelling of each table.  Relabelling
  keeps class sizes, centralizers and power-map fibres, so the scan
  examines the same number of classes, pairs and buckets.
- verify-exact: the seed is passed as `verify --seed`, which picks the
  200 power-law samples and the center sample; every sample costs one
  generic and one structured power at the same exponent.

The gate (check functions below) runs outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tables
from fsz_forge import gncount, spgroup
from fsz_forge.mixedmod import GroupParams

THREADS = min(2, os.cpu_count() or 1)
ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]  # parsed stdout -> problems found


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, Path, dict], list[Op]]  # seed, work dir, expected


def _cli(*argv) -> tuple[str, ...]:
    return tuple(str(a) for a in argv) + ("--threads", str(THREADS), "--format", "json")


def verdict_rows(payload: dict) -> list:
    return [[v["n"], v["verdict"], v["witness"]] for v in payload["verdicts"]]


def _recount(params: GroupParams, n: int, witness: dict, counter: str) -> list[str]:
    """Recount a reported witness (u, g, m) with the named counter."""
    u = spgroup.parse_element(params, witness["u"])
    g = spgroup.parse_element(params, witness["g"])
    gm = spgroup.power_generic(params, g, witness["m"])
    if counter == "bruteforce":
        got = [c.count for c in gncount.gn_count_bruteforce_many(
            spgroup.SpjGroup(params), n, u, [g, gm], threads=THREADS)]
    else:
        got = [gncount.gn_count_structured(params, u, x).count for x in (g, gm)]
    want = [witness["count_g"], witness["count_gm"]]
    problems = []
    if got != want:
        problems.append(f"{counter} recount of the n={n} witness gives {got}, reported {want}")
    if got[0] == got[1]:
        problems.append(f"n={n} witness counts are equal: {got}")
    return problems


def _check_fsz(expected: dict, params: GroupParams | None = None, counter: str = ""):
    def check(payload: dict) -> list[str]:
        problems = []
        if payload.get("kind") != "fsz" or payload.get("group") != expected["group"]:
            return [f"unexpected report header {payload.get('kind')!r} {payload.get('group')!r}"]
        if verdict_rows(payload) != expected["verdicts"]:
            problems.append(f"verdicts {verdict_rows(payload)} != {expected['verdicts']}")
        if payload.get("overall") != expected["overall"]:
            problems.append(f"overall {payload.get('overall')} != {expected['overall']}")
        if params is not None:
            for v in payload["verdicts"]:
                if v["witness"] is not None:
                    problems += _recount(params, v["n"], v["witness"], counter)
        return problems
    return check


def _make_spj51(seed: int, workdir: Path, expected: dict) -> list[Op]:
    params = GroupParams(5, 1)
    return [Op(_cli("fsz", "--p", 5, "--j", 1),
               _check_fsz(expected["spj51-fsz"], params, "bruteforce"))]


def _check_witness(payload: dict) -> list[str]:
    w = payload.get("witness")
    if payload.get("verdict") != "non-FSZ_7" or w is None:
        return [f"witness verdict {payload.get('verdict')!r}, witness {w!r}"]
    if not (w["count_g"] == 0 and w["count_gm"] > 0 and w["m"] == 2):
        return [f"designated counts ({w['count_g']}, {w['count_gm']}) at m={w['m']}, "
                f"expected (0, positive) at m=2"]
    return []


def _check_count(u_text: str, g_text: str, want: int):
    def check(payload: dict) -> list[str]:
        s, b = payload.get("structured"), payload.get("bruteforce")
        if s is None or b is None:
            return ["count did not run both counters"]
        problems = []
        if payload.get("agree") is not True:
            problems.append(f"counters disagree: agree={payload.get('agree')!r}")
        if (s["count"], b["count"]) != (want, want):
            problems.append(f"counts ({s['count']}, {b['count']}), expected {want}")
        if (payload["u"], payload["g"]) != (u_text, g_text):
            problems.append(f"query echoed as u={payload['u']!r} g={payload['g']!r}")
        return problems
    return check


def _make_spj71(seed: int, workdir: Path, expected: dict) -> list[Op]:
    params = GroupParams(7, 1)
    rng = random.Random(seed)
    coords = [rng.randrange(49)] + [rng.randrange(7) for _ in range(params.dim - 1)]
    k = rng.randrange(7)
    s = rng.randrange(1, 7)
    u_arg = " ".join([f"a{i + 1}^{c}" for i, c in enumerate(coords)] + [f"b^{k}"])
    g_arg = f"a1^{7 * s}"
    u = spgroup.parse_element(params, u_arg)
    g = spgroup.parse_element(params, g_arg)
    want = gncount.gn_count_structured(params, u, g).count
    describe = spgroup.SpjGroup(params).describe_element
    return [
        Op(_cli("witness", "--p", 7, "--j", 1), _check_witness),
        Op(_cli("count", "--p", 7, "--j", 1, "--n", 7, "--u", u_arg, "--g", g_arg),
           _check_count(describe(u), describe(g), want)),
        Op(_cli("fsz", "--p", 7, "--j", 1, "--n", 7),
           _check_fsz(expected["spj71-pj"], params, "structured")),
    ]


def _make_tables(seed: int, workdir: Path, expected: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for name, build in tables.GROUPS.items():
        table = build()
        path = workdir / f"{name}.json"
        tables.write_table(str(path), name, tables.relabel(table, rng.permutation(len(table))))
        ops.append(Op(_cli("fsz", "--table", os.path.relpath(path, ROOT)),
                      _check_fsz(expected["tables"][name])))
    return ops


VERIFY_POINTS = ((7, 2), (3, 3), (5, 2))


def _check_verify(params: GroupParams):
    def check(payload: dict) -> list[str]:
        failed = [c["name"] for c in payload.get("checks", ()) if not c["passed"]]
        if payload.get("kind") != "verify" or payload.get("group_order") != params.group_order:
            return [f"unexpected verify report for {params.describe()}"]
        if payload.get("all_passed") is not True or failed or not payload.get("checks"):
            return [f"verify {params.describe()} failed checks {failed}"]
        return []
    return check


def _make_verify(seed: int, workdir: Path, expected: dict) -> list[Op]:
    return [
        Op(_cli("verify", "--p", p, "--j", j, "--seed", seed),
           _check_verify(GroupParams(p, j)))
        for p, j in VERIFY_POINTS
    ]


def _compose(*parts):
    def make(seed: int, workdir: Path, expected: dict) -> list[Op]:
        return [op for part in parts for op in part(seed, workdir, expected)]
    return make


# Two workloads of two parts each, not four of one: on a shared 2-core host
# the machine's speed drifts by up to +-15% over tens of seconds, so a run
# has to average over most of a minute, and the time budget allows
# that for two workloads only.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fsz-scan",
                 "fsz on S(5,1) and two relabelled tables: the generic class scan via "
                 "SpjIndexed and TableIndexed, plus table parsing and validation",
                 _compose(_make_spj51, _make_tables)),
        Workload("pj-exact",
                 "witness, count, fsz at n=p^j on S(7,1), then verify at (7,2), (3,3), "
                 "(5,2): numpy kernels, both counters, exact matrix arithmetic",
                 _compose(_make_spj71, _make_verify)),
    )
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
