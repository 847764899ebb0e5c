"""Command-line front end: verify, witness, count, fsz, selftest.

Every report is built as one plain dict and rendered to text, JSON or
CSV.  Output is byte-deterministic for fixed arguments and seed: keys
are sorted, CSV uses a fixed line terminator, and nothing derived from
wall time is printed.

Exit codes: 0 for a completed run (a non-FSZ finding is a result, not a
failure), 1 for usage or input errors, 2 when an internal verification
fails, such as a named identity check or a disagreement between the two
counters.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import random
import sys
from functools import lru_cache

import numpy as np

from . import construction, fszcheck, gncount, spgroup
from .construction import CheckResult
from .mixedmod import (
    GroupParams,
    MatrixInvariantError,
    ParameterError,
    VerificationError,
)
from .spgroup import ElementSyntaxError, EnumerationLimitError, SpjGroup
from .gncount import TableError

SELFTEST_GRID = ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1))
# Coordinates per block of stacked power-sample rows.
_SAMPLE_BLOCK = 1 << 16


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this CLI reserves
    # 2 for verification failures, so usage errors exit 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    # Inert; perfbench/workloads.py:_cli appends it to every call.
    common.add_argument(
        "--threads", type=_positive_int, default=None,
        help="accepted for compatibility; it changes nothing",
    )
    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    parser = _Parser(prog="fsz-forge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    sp = sub.add_parser("verify", parents=[seeded], help="run the construction checks")
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--j", type=_positive_int, required=True)
    sp.add_argument("--samples", type=_positive_int, default=200,
                    help="random power-law samples (default 200)")

    sp = sub.add_parser("witness", parents=[common],
                        help="evaluate the designated non-FSZ pair")
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--j", type=_positive_int, required=True)

    sp = sub.add_parser("count", parents=[common], help="count one set G_n(u,g)")
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--j", type=_positive_int, required=True)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--u", required=True, metavar="ELT")
    sp.add_argument("--g", required=True, metavar="ELT")

    sp = sub.add_parser("fsz", parents=[common], help="decide FSZ_n for a group")
    sp.add_argument("--p", type=_positive_int)
    sp.add_argument("--j", type=_positive_int)
    sp.add_argument("--table", metavar="FILE", help="multiplication table JSON file")
    sp.add_argument("--n", type=_positive_int,
                    help="single n; default checks every divisor of the exponent")
    sp.add_argument("--no-reduction", action="store_true",
                    help="scan all commuting pairs (tiny groups only)")

    sub.add_parser("selftest", parents=[seeded],
                   help="run the invariant suite on the default grid")
    return parser


def serialize_report(report: dict, fmt: str) -> str:
    """Render a report dict; identical input gives identical bytes."""
    if fmt == "json":
        payload = {
            k: v for k, v in report.items() if k not in ("rows", "head", "tail")
        }
        return json.dumps(payload, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_or_query", "parameters", "value"])
        for name, parameters, value in report.get("rows", ()):
            writer.writerow([str(name), str(parameters), str(value)])
        return buf.getvalue()
    if fmt != "text":
        raise ParameterError(f"unknown format {fmt!r}")
    lines = list(report.get("head", ()))
    for name, parameters, value in report.get("rows", ()):
        if parameters:
            lines.append(f"{name} [{parameters}]: {value}")
        else:
            lines.append(f"{name}: {value}")
    lines.extend(report.get("tail", ()))
    return "\n".join(lines) + "\n"


def _pass(ok: bool, detail: str = "") -> str:
    if ok:
        return "PASS" if not detail else f"PASS ({detail})"
    return "FAIL" if not detail else f"FAIL ({detail})"


def _power_sample(params: GroupParams, samples: int, seed: int) -> tuple[bool, str]:
    """power_pj against generic square-and-multiply, all b-orders forced.

    Each element is dim + 1 little-endian 64-bit words of
    random.Random(seed), the coordinates then the b-exponent, each reduced
    mod its modulus m (a residue is off uniform by under m / 2^64).  Words
    are taken row by row, so the sample does not depend on _SAMPLE_BLOCK.
    Element i < j then gets b-exponent p^i and element j gets 0.  Blocks of
    at most _SAMPLE_BLOCK coordinates are checked in order, so the first
    mismatch is reported.
    """
    rng = random.Random(seed)
    G = SpjGroup(params)
    total = max(samples, params.j + 1)
    rows = max(1, _SAMPLE_BLOCK // params.dim)
    moduli = np.append(params.row_moduli, params.b_order).astype(np.uint64)
    for start in range(0, total, rows):
        n = min(rows, total - start)
        words = np.frombuffer(rng.randbytes(8 * n * len(moduli)), "<u8").reshape(n, -1)
        sample = (words % moduli).astype(np.int64)
        V, K = sample[:, :-1], sample[:, -1]
        for i in range(start, min(start + n, params.j + 1)):
            K[i - start] = 0 if i == params.j else params.p ** i
        bad = G.first_power_pj_mismatch(V, K)
        if bad is not None:
            return False, f"mismatch at {spgroup.format_element(params, bad)}"
    return True, f"{total} elements, every b-order included"


def _do_verify(args: argparse.Namespace) -> tuple[dict, int]:
    params = GroupParams(args.p, args.j)
    where = params.describe()
    checks = [
        *construction.verify_construction(params),
        CheckResult("power_sample", *_power_sample(params, args.samples, args.seed)),
        *(dataclasses.replace(c, name=f"structure_{c.name}")
          for c in spgroup.structure_report(params).checks),
    ]
    ok = all(c.passed for c in checks)
    out = {
        "kind": "verify",
        "group": where,
        "group_order": params.group_order,
        "checks": [dataclasses.asdict(c) for c in checks],
        "all_passed": ok,
        "head": [f"construction checks for {where}"],
        "tail": [f"all checks passed: {'yes' if ok else 'NO'}"],
        "rows": [(c.name, where, _pass(c.passed, c.detail)) for c in checks],
    }
    return out, 0 if ok else 2


def _do_witness(args: argparse.Namespace) -> tuple[dict, int]:
    params = GroupParams(args.p, args.j)
    G = SpjGroup(params)
    verdict = fszcheck.spj_witness(params)
    describe = G.describe_element
    rows = [
        ("count_designated", params.describe(),
         str(verdict.statistics["count_designated"])),
        ("count_designated_square", params.describe(),
         str(verdict.statistics["count_designated_square"])),
        ("verdict", f"n={verdict.n}", verdict.verdict),
    ]
    if verdict.witness is not None:
        w = verdict.witness.as_dict(describe)
        rows.append(
            ("witness", f"m={w['m']}",
             f"u={w['u']} g={w['g']} counts {w['count_g']} vs {w['count_gm']}")
        )
    out = {
        "kind": "witness",
        **verdict.as_dict(describe),
        "head": [f"designated pair of {verdict.group}, n = {verdict.n}"],
        "tail": [f"verdict: {verdict.verdict}"],
        "rows": rows,
    }
    return out, 0


def _do_count(args: argparse.Namespace) -> tuple[dict, int]:
    params = GroupParams(args.p, args.j)
    G = SpjGroup(params)
    u = spgroup.parse_element(params, args.u)
    g = spgroup.parse_element(params, args.g)
    describe = G.describe_element

    structured = None
    if args.n == params.n:
        structured = gncount.gn_count_structured(params, u, g)
    try:
        brute = gncount.gn_count_bruteforce(G, args.n, u, g)
    except EnumerationLimitError as exc:
        if structured is None:
            raise EnumerationLimitError(
                f"no counter applies: n = {args.n} differs from p^j = {params.n} and {exc}"
            ) from None
        brute = None

    agree = None
    if structured is not None and brute is not None:
        agree = structured.count == brute.count

    rows = []
    query = f"n={args.n} u={describe(u)} g={describe(g)}"
    for label, result in (("structured", structured), ("bruteforce", brute)):
        if result is None:
            continue
        rows.append((f"count_{label}", query, str(result.count)))
        rows.append(
            (f"witnesses_{label}", query,
             "; ".join(describe(w) for w in result.witnesses) or "none")
        )
    if agree is not None:
        rows.append(("counters_agree", query, "yes" if agree else "NO"))

    out = {
        "kind": "count",
        "group": G.describe(),
        "n": args.n,
        "u": describe(u),
        "g": describe(g),
        "structured": None if structured is None else structured.as_dict(describe),
        "bruteforce": None if brute is None else brute.as_dict(describe),
        "agree": agree,
        "head": [f"G_n(u, g) on {G.describe()}"],
        "tail": [],
        "rows": rows,
    }
    return out, 2 if agree is False else 0


def _do_fsz(args: argparse.Namespace) -> tuple[dict, int]:
    if args.table is not None:
        if args.p is not None or args.j is not None:
            raise ParameterError("fsz takes either --p and --j, or --table FILE, not both")
        G = gncount.load_table_group(args.table)
    elif args.p is None or args.j is None:
        raise ParameterError("fsz needs either --p and --j, or --table FILE")
    else:
        G = SpjGroup(GroupParams(args.p, args.j))
    describe = G.describe_element
    reduction = not args.no_reduction

    if args.n is not None:
        verdicts = [fszcheck.check_fsz_n(G, args.n, reduction=reduction)]
        overall = None
    else:
        verdicts = fszcheck.check_fsz(G, reduction=reduction)
        overall = all(v.is_fsz for v in verdicts)

    rows = []
    for v in verdicts:
        rows.append(("fsz_n", f"n={v.n}", v.verdict))
        if v.witness is not None:
            w = v.witness.as_dict(describe)
            rows.append(
                ("witness", f"n={v.n} m={w['m']}",
                 f"u={w['u']} g={w['g']} counts {w['count_g']} vs {w['count_gm']}")
            )
    tail = []
    if overall is not None:
        rows.append(("fsz_overall", "", "FSZ" if overall else "non-FSZ"))
        tail.append(f"overall: {'FSZ' if overall else 'non-FSZ'}")

    out = {
        "kind": "fsz",
        "group": G.describe(),
        "verdicts": [v.as_dict(describe) for v in verdicts],
        "overall": overall,
        "head": [f"FSZ scan of {G.describe()}"],
        "tail": tail,
        "rows": rows,
    }
    return out, 0


def _do_selftest(args: argparse.Namespace) -> tuple[dict, int]:
    rows = []
    checks = []
    ok_all = True

    def add(name: str, parameters: str, ok: bool, detail: str = "") -> None:
        nonlocal ok_all
        ok_all = ok_all and ok
        rows.append((name, parameters, _pass(ok, detail)))
        checks.append(
            {"name": name, "parameters": parameters, "passed": ok, "detail": detail}
        )

    for p, j in SELFTEST_GRID:
        params = GroupParams(p, j)
        where = params.describe()
        passed = all(c.passed for c in construction.verify_construction(params))
        add("construction", where, passed, "" if passed else "see verify")
        add("power_sample", where, *_power_sample(params, 50, args.seed))
        structure = spgroup.structure_report(params)
        add("structure", where, all(c.passed for c in structure.checks),
            f"center order {structure.center_order}")

        verdict = fszcheck.spj_witness(params)
        expected_witness = p > 3
        has_witness = verdict.witness is not None
        add("designated_pair", where, has_witness == expected_witness, verdict.verdict)

    params = GroupParams(5, 1)
    G = SpjGroup(params)
    u, g, g2 = fszcheck._designated_pair(params)
    brute = gncount.gn_count_bruteforce_many(G, params.n, u, [g, g2])
    s1 = gncount.gn_count_structured(params, u, g)
    s2 = gncount.gn_count_structured(params, u, g2)
    agree = brute[0].count == s1.count and brute[1].count == s2.count
    add("counter_agreement", params.describe(), agree,
        f"counts ({s1.count}, {s2.count})")

    # n = 1 and n = 9 go by Lemma 1 and n = 3 by the structured scan, so the
    # lemma-free reference scan must give the same rows.
    params31 = GroupParams(3, 1)
    G31 = SpjGroup(params31)
    verdicts = fszcheck.check_fsz(G31)
    plain = fszcheck.check_fsz(G31, reduction=False)
    same = [(v.n, v.verdict, v.witness) for v in verdicts] == [
        (v.n, v.verdict, v.witness) for v in plain]
    add("fsz_overall", params31.describe(), same and all(v.is_fsz for v in verdicts),
        ", ".join(v.verdict for v in verdicts))

    out = {
        "kind": "selftest",
        "grid": [list(point) for point in SELFTEST_GRID],
        "checks": checks,
        "all_passed": ok_all,
        "head": ["invariant suite on the default grid"],
        "tail": [f"all checks passed: {'yes' if ok_all else 'NO'}"],
        "rows": rows,
    }
    return out, 0 if ok_all else 2


_DISPATCH = {
    "verify": _do_verify,
    "witness": _do_witness,
    "count": _do_count,
    "fsz": _do_fsz,
    "selftest": _do_selftest,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, status = _DISPATCH[args.subcommand](args)
    except (ParameterError, ElementSyntaxError, TableError, EnumerationLimitError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, MatrixInvariantError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(serialize_report(report, args.format))
    return status


def main() -> None:
    sys.exit(run())
