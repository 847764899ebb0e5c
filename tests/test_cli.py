"""Command-line behavior: formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tablefixtures as tf
from fsz_forge import cli, spgroup
from fsz_forge.cli import build_parser, run, serialize_report
from fsz_forge.mixedmod import EndoMatrix, GroupParams, MixedVector
from fsz_forge.spgroup import SpjGroup

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_serialize_csv_header_and_rows():
    report = {"rows": [("check", "p=3", "ok")], "head": ["title"]}
    out = serialize_report(report, "csv")
    assert out.splitlines() == ["check_or_query,parameters,value", "check,p=3,ok"]


def test_serialize_empty_csv_is_header_only():
    assert serialize_report({"rows": []}, "csv") == "check_or_query,parameters,value\n"


def test_serialize_json_is_sorted_and_newline_terminated():
    report = {"rows": [("a", "b", "c")], "zeta": 1, "alpha": 2}
    out = serialize_report(report, "json")
    assert out.endswith("\n")
    parsed = json.loads(out)
    assert "rows" not in parsed
    assert list(parsed) == sorted(parsed)
    assert serialize_report(report, "json") == out


def test_verify_passes_on_the_default_grid(capsys):
    for p, j in ((3, 1), (3, 2), (7, 1)):
        code, out, err = _run(capsys, "verify", "--p", str(p), "--j", str(j))
        assert code == 0, err
        assert "all checks passed: yes" in out


# sha256 of the full --format json stdout; a change to these bytes is a
# change to the output format or to a check, never a side effect.
VERIFY_JSON_SHA256 = {
    ("verify", "--p", "3", "--j", "1"):
        "98e09f743e8f93c7b232b46268de16247d1506b38903a4e4ef5a05041b450138",
    ("verify", "--p", "5", "--j", "1"):
        "68c4b2eb21586aec8fe7d26d748decd6ea5f004d2c3a684e70bd9a1a6c2d88c4",
    ("verify", "--p", "5", "--j", "2"):
        "246ecdc40b649ba32f4f6e55183f5bb41b13150affcc16d58892c1107e941fe6",
    ("verify", "--p", "7", "--j", "2", "--seed", "3"):
        "034e3934270430f9b713096c5cb883c44e6e5e7a1da0af20bcd0ba50edbf933f",
    ("verify", "--p", "5", "--j", "3", "--seed", "3"):
        "ffd526d479abb6f1b2e20166434eb91f712d5aea25fd06107b3d15b0610fc0ca",
    ("selftest",):
        "95191ea25f37ebcc14810108bc3db3e10e034fcad7a5a9236bcd591c8e4eb040",
}


@pytest.mark.parametrize("argv", list(VERIFY_JSON_SHA256), ids=" ".join)
def test_verify_and_selftest_json_bytes_are_pinned(capsys, argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[argv]


# sha256 of each call's stdout, each run alone in a fresh process.
ONE_PROCESS_CALLS = [
    (("verify", "--p", "5", "--j", "1", "--seed", "7", "--format", "json"),
     "68c4b2eb21586aec8fe7d26d748decd6ea5f004d2c3a684e70bd9a1a6c2d88c4"),
    (("count", "--p", "3", "--j", "1", "--n", "3", "--u", "b a1", "--g", "a1^3", "--format", "json"),
     "8d1eedeaf5eea5f078f2c89d1890cf2413975eb8d8e2ca35e2bc7ada1a17c5e8"),
    (("fsz", "--p", "3", "--j", "1", "--format", "csv"),
     "cff1be719090561868059adb2bc946b610f98c0792c158ee771ce718ee3ff780"),
    (("verify", "--p", "3", "--j", "1"),
     "e49c559f1d08812c989ce2683816d67dc103231907ae45a553d217a176d997d8"),
]


def test_calls_in_one_process_share_the_parser_but_not_its_options(capsys):
    # The parser is built once per process; the last verify must still
    # take the default seed and format, not the first call's.
    for argv, want in ONE_PROCESS_CALLS:
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
    assert build_parser() is build_parser()


def _first_power_mismatch(params, samples, seed):
    """The sample and the index of its first element where power_pj and
    power_generic differ (None if none), one element at a time: each
    coordinate, b-exponent last, is getrandbits(64) mod its modulus."""
    rng = random.Random(seed)
    moduli = [params.row_modulus(r) for r in range(params.dim)] + [params.b_order]
    elements = []
    for i in range(max(samples, params.j + 1)):
        *coords, k = (rng.getrandbits(64) % m for m in moduli)
        if i <= params.j:
            k = 0 if i == params.j else params.p ** i
        elements.append(spgroup.SElement(MixedVector(params, coords), k))
    bad = [
        i for i, x in enumerate(elements)
        if spgroup.power_pj(params, x) != spgroup.power_generic(params, x, params.n)
    ]
    return elements, bad[0] if bad else None


def test_power_sample_names_the_first_mismatch_of_the_per_element_loop(monkeypatch):
    # A Y(p^t) with its corner entry off by one: a sampled element of
    # class t mismatches unless p^t v_0 = 0 mod p^{j+1}.  Blocks of three
    # rows put some first mismatches past the first block.
    params = GroupParams(3, 2)
    real, default_block = spgroup.build_y, cli._SAMPLE_BLOCK
    deep = 0
    for bad_t in range(params.j + 1):

        def corrupted(pr, t, bad_t=bad_t):
            Y = real(pr, t)
            if t != bad_t:
                return Y
            A = Y.array.copy()
            A[0, 0] += 1
            return EndoMatrix(pr, A)

        monkeypatch.setattr(spgroup, "build_y", corrupted)
        for seed in range(12):
            elements, first = _first_power_mismatch(params, 40, seed)
            assert first is not None
            deep += first >= 3
            want = (False, f"mismatch at {spgroup.format_element(params, elements[first])}")
            for block in (default_block, 3 * params.dim):
                monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
                assert cli._power_sample(params, 40, seed) == want
    assert deep


def _checked_sample(monkeypatch, params, samples, seed, block):
    """The (V, K) rows that _power_sample checks with _SAMPLE_BLOCK = block, stacked."""
    blocks = []

    def capture(G, V, K):
        blocks.append(np.column_stack([V, K]))

    monkeypatch.setattr(SpjGroup, "first_power_pj_mismatch", capture)
    monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
    assert cli._power_sample(params, samples, seed)[0]
    return np.concatenate(blocks)


@pytest.mark.parametrize("p,j,samples", [(3, 1, 2000), (3, 2, 20000), (509, 1, 300)])
def test_power_sample_draws_forced_residues_whatever_the_block(monkeypatch, p, j, samples):
    params = GroupParams(p, j)
    default_block = cli._SAMPLE_BLOCK
    sample = _checked_sample(monkeypatch, params, samples, 5, default_block)
    for block in (params.dim, 3 * params.dim):
        assert np.array_equal(_checked_sample(monkeypatch, params, samples, 5, block), sample)
    assert sample.shape == (samples, params.dim + 1)
    moduli = np.append(params.row_moduli, params.b_order)
    assert ((0 <= sample) & (sample < moduli)).all()
    assert sample[: j + 1, -1].tolist() == [p ** t for t in range(j)] + [0]
    again = _checked_sample(monkeypatch, params, samples, 5, default_block)
    assert np.array_equal(again, sample)
    other = _checked_sample(monkeypatch, params, samples, 6, default_block)
    assert not np.array_equal(other, sample)
    if (p, j) == (3, 1):
        for column, m in zip(sample.T, moduli.tolist()):
            assert set(column.tolist()) == set(range(m))


def test_witness_json_fields(capsys):
    code, out, err = _run(
        capsys, "witness", "--p", "5", "--j", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    w = payload["witness"]
    assert set(w) == {"u", "g", "m", "count_g", "count_gm"}
    assert (w["count_g"], w["count_gm"], w["m"]) == (0, 625, 2)
    assert payload["verdict"] == "non-FSZ_5"


def test_witness_is_byte_deterministic_in_process(capsys):
    args = ("witness", "--p", "5", "--j", "1", "--format", "json")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    _, out3, _ = _run(capsys, *args, "--threads", "8")
    assert out1 == out2 == out3


def test_count_reports_both_counters(capsys):
    code, out, _ = _run(
        capsys,
        "count", "--p", "5", "--j", "1", "--n", "5",
        "--u", "b a1", "--g", "a1^5",
    )
    assert code == 0
    assert "count_structured [n=5 u=a1^1 a2^4 b^1 g=a1^5]: 0" in out
    assert "count_bruteforce [n=5 u=a1^1 a2^4 b^1 g=a1^5]: 0" in out
    assert "counters_agree [n=5 u=a1^1 a2^4 b^1 g=a1^5]: yes" in out


def test_count_structured_only_when_brute_is_infeasible(capsys):
    # |S(5,2)| = 5^28 is past the enumeration limit
    code, out, _ = _run(
        capsys,
        "count", "--p", "5", "--j", "2", "--n", "25",
        "--u", "b a1", "--g", "a1^50",
    )
    assert code == 0
    assert [line.split(" [")[0] for line in out.splitlines()[1:]] == [
        "count_structured", "witnesses_structured",
    ]


def test_count_without_any_feasible_counter_errors(capsys):
    # n != p^j rules out the structured counter; the limit rules out brute force
    code, out, err = _run(
        capsys,
        "count", "--p", "5", "--j", "2", "--n", "5", "--u", "e", "--g", "e",
    )
    assert code == 1
    assert out == ""
    assert "error: no counter applies" in err


def test_fsz_scans_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (13-18 ms under numpy
    # 2.4), so the fsz paths find distinct values by a sort instead.  Older
    # numpy imports numpy.ma with numpy itself, so the module set is
    # compared before and after the calls.  The S(3,1) scan reads no
    # element order, so the no-reduction run, which reads the exponent off
    # the power maps, covers S(p,j).
    path = tmp_path / "d6xc4.json"
    table = tf.direct_product(tf.dihedral(6), tf.cyclic(4))
    path.write_text(json.dumps({"order": len(table), "table": table}))
    script = (
        "import contextlib, io, sys\n"
        "from fsz_forge.cli import run\n"
        "before = 'numpy.ma' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['fsz', '--table', sys.argv[1]]), run(['fsz', '--p', '3', '--j', '1']),\n"
        "             run(['fsz', '--p', '3', '--j', '1', '--no-reduction'])]\n"
        "print(*codes, before, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
    )
    *codes, before, after = done.stdout.split()
    assert codes == ["0", "0", "0"], done.stderr
    assert after == before


def test_cli_runs_start_no_worker_pool():
    # The sweeps are serial: neither a count nor the class table of S(3,2),
    # whose N = 531441 spans many sweep chunks, imports concurrent.futures,
    # and --threads is accepted without effect.  fsz decides n = 1 by
    # Lemma 1, so the class table is built directly.
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "before = 'concurrent.futures' in sys.modules\n"
        "from fsz_forge.cli import run\n"
        "from fsz_forge.fszcheck import _class_table\n"
        "from fsz_forge.mixedmod import GroupParams\n"
        "from fsz_forge.spgroup import SpjGroup\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['fsz', '--p', '3', '--j', '2', '--n', '1', '--threads', '2']),\n"
        "             run(['count', '--p', '7', '--j', '1', '--n', '7', '--u', 'b a1',\n"
        "                  '--g', 'a1^14', '--threads', '2'])]\n"
        "codes.append(len(_class_table(SpjGroup(GroupParams(3, 2)))[0]))\n"
        "print(*codes, before, 'concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    *codes, before, after = done.stdout.split()
    assert codes == ["0", "0", "6705"], done.stderr
    assert after == before


def test_fsz_table_input(tmp_path, capsys):
    path = tmp_path / "z6.json"
    path.write_text(json.dumps({"order": 6, "table": tf.cyclic(6), "name": "Z6"}))
    code, out, _ = _run(capsys, "fsz", "--table", str(path), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check_or_query,parameters,value"
    assert "fsz_overall,,FSZ" in lines
    code, out, _ = _run(capsys, "fsz", "--table", str(path), "--n", "2")
    assert code == 0
    assert "FSZ_2" in out


def test_fsz_spj_single_n(capsys):
    code, out, _ = _run(capsys, "fsz", "--p", "5", "--j", "1", "--n", "5")
    assert code == 0
    assert "non-FSZ_5" in out


S71_FSZ_7_JSON = (
    '{"group": "S(7,1) (order 5764801)", "kind": "fsz", "overall": null, '
    '"verdicts": [{"group": "S(7,1) (order 5764801)", "n": 7, "statistics": '
    '{"central_targets": 6, "comparisons": 1680701, "pairs_examined": 840351, '
    '"route": "structured", "skipped_by_support": 5764794}, "verdict": "non-FSZ_7", '
    '"witness": {"count_g": 0, "count_gm": 117649, "g": "a1^7", "m": 2, "u": "a1^1 b^1"}}]}\n'
)
S71_FSZ_7_TEXT = (
    "FSZ scan of S(7,1) (order 5764801)\n"
    "fsz_n [n=7]: non-FSZ_7\n"
    "witness [n=7 m=2]: u=a1^1 b^1 g=a1^7 counts 0 vs 117649\n"
)


@pytest.mark.parametrize("fmt,want", [("json", S71_FSZ_7_JSON), ("text", S71_FSZ_7_TEXT)])
def test_fsz_s71_at_n_7_is_pinned(capsys, fmt, want):
    code, out, _ = _run(capsys, "fsz", "--p", "7", "--j", "1", "--n", "7", "--format", fmt)
    assert code == 0
    assert out == want


S31_FSZ_TEXT = (
    "FSZ scan of S(3,1) (order 81)\n"
    "fsz_n [n=1]: FSZ_1\n"
    "fsz_n [n=3]: FSZ_3\n"
    "fsz_n [n=9]: FSZ_9\n"
    "fsz_overall: FSZ\n"
    "overall: FSZ\n"
)
S31_FSZ_CSV = (
    "check_or_query,parameters,value\n"
    "fsz_n,n=1,FSZ_1\n"
    "fsz_n,n=3,FSZ_3\n"
    "fsz_n,n=9,FSZ_9\n"
    "fsz_overall,,FSZ\n"
)


@pytest.mark.parametrize("fmt,want", [("text", S31_FSZ_TEXT), ("csv", S31_FSZ_CSV)])
def test_full_fsz_scan_rows_are_pinned(capsys, fmt, want):
    # The full scan ends on the fsz_overall row, whose parameters are empty.
    code, out, err = _run(capsys, "fsz", "--p", "3", "--j", "1", "--format", fmt)
    assert code == 0, err
    assert out == want


def test_fsz_at_p_to_the_j_is_complete_beyond_the_limit(capsys):
    code, out, err = _run(capsys, "fsz", "--p", "5", "--j", "2", "--n", "25")
    assert code == 0, err
    assert "partial scan" not in out
    assert out.splitlines()[1:] == [
        "fsz_n [n=25]: non-FSZ_25",
        "witness [n=25 m=2]: u=a1^1 b^1 g=a1^25 counts 0 vs 1490116119384765625",
    ]


def test_fsz_requires_exactly_one_source(capsys, tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]]}))
    code, _, err = _run(capsys, "fsz", "--p", "3", "--j", "1", "--table", str(path))
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "fsz")
    assert code == 1 and "error:" in err


_BOTH = "fsz takes either --p and --j, or --table FILE, not both"
_NEITHER = "fsz needs either --p and --j, or --table FILE"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--p", "5"), _NEITHER),
        (("--j", "1"), _NEITHER),
        ((), _NEITHER),
        (("--p", "5", "--j", "1", "--table", "x.json"), _BOTH),
        (("--table", "x.json", "--j", "1"), _BOTH),
    ],
)
def test_fsz_source_errors_are_one_stderr_line(capsys, argv, message):
    # The source is checked before any file is read, so x.json need not exist.
    code, out, err = _run(capsys, "fsz", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("bogus",),
        ("verify", "--p", "4", "--j", "1"),
        ("verify", "--p", "3"),
        ("count", "--p", "3", "--j", "1", "--n", "3", "--u", "a9", "--g", "e"),
        ("count", "--p", "3", "--j", "1", "--n", "0", "--u", "e", "--g", "e"),
        ("witness", "--p", "5", "--j", "1", "--format", "yaml"),
        ("fsz", "--table", "/nonexistent/nowhere.json"),
        ("verify", "--p", "3", "--j", "1000000"),
        ("verify", "--p", "3", "--j", "100000000"),
        ("verify", "--p", "2305843009213693951", "--j", "1"),
        ("fsz", "--p", "3", "--j", "1", "--limit", "100"),
        ("count", "--p", "3", "--j", "1", "--n", "3", "--u", "e", "--g", "e", "--brute"),
    ],
)
def test_usage_and_input_errors_exit_1(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize(
    "content",
    [b'{"order": 1, "table": [[' + b"9" * 5000 + b"]]}", b'{"name": "\xff"}'],
    ids=["integer past the digit limit", "not UTF-8"],
)
def test_table_json_with_a_plain_value_error_exits_1(capsys, tmp_path, content):
    # json.load raises ValueError, not JSONDecodeError, for both files.
    path = tmp_path / "table.json"
    path.write_bytes(content)
    code, out, err = _run(capsys, "fsz", "--table", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "content",
    ['{"order": 1, "table": ' + "[" * 10000 + "]" * 10000 + "}",
     '{"order": 1, "x": ' + '{"x": ' * 10000 + "0" + "}" * 10000 + ', "table": [[0]]}'],
    ids=["nested table, read by json.load", "nested wrapper, parsed by _scan_table first"],
)
def test_deeply_nested_table_json_exits_1_without_a_traceback(capsys, tmp_path, content):
    # CPython's JSON decoder raises RecursionError past the recursion limit.
    path = tmp_path / "table.json"
    path.write_text(content)
    code, out, err = _run(capsys, "fsz", "--table", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: unreadable JSON: nested too deeply\n"


def test_a_lone_surrogate_table_name_exits_1_in_every_format(tmp_path):
    # Real stdout, which cannot encode "\ud800": the name is refused before
    # any output.  The "extra" array sends the second file to json.load.
    paths = []
    for extra in ("", ', "extra": [1]'):
        paths.append(tmp_path / f"surrogate{len(paths)}.json")
        paths[-1].write_text(f'{{"order": 2, "table": [[0, 1], [1, 0]], "name": "\\ud800"{extra}}}')
    script = (
        "import sys\n"
        "from fsz_forge.cli import run\n"
        "codes = [run(['fsz', '--table', path, '--format', fmt])\n"
        "         for path in sys.argv[1:] for fmt in ('text', 'json', 'csv')]\n"
        "print(*codes)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, paths)], env=env, capture_output=True, text=True
    )
    assert done.stdout == "1 1 1 1 1 1\n", done.stderr
    assert done.stderr.splitlines() == [
        f'error: {path}: "name" holds a lone surrogate, which UTF-8 cannot encode'
        for path in paths
        for _ in range(3)
    ]


def test_verification_failure_exits_2(capsys, monkeypatch):
    import fsz_forge.cli as cli
    from fsz_forge.fszcheck import VerificationError

    def boom(params):
        raise VerificationError("designated pair gave counts (7, 7)")

    monkeypatch.setattr(cli.fszcheck, "spj_witness", boom)
    code, _, err = _run(capsys, "witness", "--p", "5", "--j", "1")
    assert code == 2
    assert "verification failure:" in err


def test_selftest_grid_passes(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    for tag in ("S(3,1)", "S(3,2)", "S(5,1)", "S(5,2)", "S(7,1)"):
        assert tag in out


@pytest.mark.parametrize("argv", [
    ("fsz", "--p", "3", "--j", "1"),
    ("witness", "--p", "5", "--j", "1"),
    ("count", "--p", "3", "--j", "1", "--n", "3", "--u", "b", "--g", "a1^3"),
])
def test_seed_is_refused_where_nothing_is_drawn(capsys, argv):
    code, out, err = _run(capsys, *argv, "--seed", "1")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_seed_is_taken_where_it_draws():
    for argv in (["verify", "--p", "3", "--j", "1"], ["selftest"]):
        assert build_parser().parse_args([*argv, "--seed", "4"]).seed == 4


def test_parser_defaults():
    cfg = build_parser().parse_args(["verify", "--p", "3", "--j", "1"])
    assert cfg.format == "text"
    assert cfg.seed == 0


def test_fsz_past_the_enumeration_limit_exits_1(capsys):
    # |S(5,2)| = 5^28, and n = 5 needs the class scan, which would enumerate it
    code, out, err = _run(capsys, "fsz", "--p", "5", "--j", "2")
    assert code == 1
    assert out == ""
    assert err == (
        "error: group order 37252902984619140625 exceeds the enumeration limit 100000000\n"
    )


def test_fsz_of_s11_1_is_complete(capsys):
    # Past the limit: n = 1 and n = 121 by Lemma 1, n = 11 by the structured scan.
    code, out, err = _run(capsys, "fsz", "--p", "11", "--j", "1")
    assert code == 0, err
    assert out.splitlines()[1:] == [
        "fsz_n [n=1]: FSZ_1",
        "fsz_n [n=11]: non-FSZ_11",
        "witness [n=11 m=2]: u=a1^1 b^1 g=a1^11 counts 0 vs 25937424601",
        "fsz_n [n=121]: FSZ_121",
        "fsz_overall: non-FSZ",
        "overall: non-FSZ",
    ]
