"""Tests of the benchmark itself: span arithmetic, tracing, gate, manifest.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert tracing.union_length([(1, 4), (2, 3)], 0, 10) == 3
    assert tracing.union_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert tracing.union_length([], 0, 10) == 0


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] has children a [1,4], b [3,6] (overlapping, as worker
    # threads give) and c [8,9]; a has child d [2,3]; d recurses into a
    # span with d's own name, e [2.25,2.75].
    spans = [
        Span(0, "root", 0.0, 10.0, None, True),
        Span(1, "a", 1.0, 4.0, 0, True),
        Span(2, "b", 3.0, 6.0, 0, True),
        Span(3, "c", 8.0, 9.0, 0, True),
        Span(4, "d", 2.0, 3.0, 1, True),
        Span(5, "d", 2.25, 2.75, 4, False),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 0.5, 5: 0.5}

    agg = tracing.aggregate(spans)
    assert agg["d"].calls == 2
    assert agg["d"].s == 1.0  # the recursive call is not counted twice
    assert agg["d"].self_s == 1.0
    assert tracing.top_level_seconds(spans) == 10.0


def test_aggregate_splits_calls_by_a_string_attribute():
    spans = [
        Span(0, "f", 0.0, 2.0, None, True, {"route": "generic", "pairs": 5}),
        Span(1, "f", 2.0, 3.0, None, True, {"route": "structured", "pairs": 7}),
        Span(2, "g", 0.5, 1.0, 0, True),
    ]
    attrs = tracing.aggregate(spans)["f"].attrs
    assert attrs["pairs"] == 12
    assert attrs["route=generic"] == 1 and attrs["route=generic.s"] == 2.0
    assert attrs["route=generic.self_s"] == 1.5
    assert attrs["route=structured.s"] == 1.0


def test_install_reaches_names_imported_by_value_and_uninstall_restores():
    from fsz_forge import construction, mixedmod, spgroup

    original = mixedmod.mat_apply
    tracer = tracing.Tracer("test")
    tracer.install(layers.ANNOTATIONS)
    try:
        assert spgroup.mat_apply is mixedmod.mat_apply is not original
        params = mixedmod.GroupParams(3, 1)
        x = spgroup.generator_a(params, 1)
        spgroup.power_generic(params, x, 5)
        construction.build_b(params)
    finally:
        tracer.uninstall()
    assert spgroup.mat_apply is mixedmod.mat_apply is original
    agg = tracing.aggregate(tracer.spans())
    assert agg["spgroup.power_generic"].calls == 1
    assert agg["spgroup.multiply"].calls > 0
    assert agg["mixedmod.mat_apply"].calls == agg["spgroup.multiply"].calls
    assert "spgroup.SpjGroup.power" in tracer.originals


def test_traced_round_prints_the_same_stdout_bytes(tmp_path):
    import tables

    runner = run.Runner(tmp_path, "test")
    table = tmp_path / "d4.json"
    tables.write_table(str(table), "D4", tables.dihedral(4))
    calls = [
        ["fsz", "--p", "3", "--j", "1", "--format", "json"],
        ["witness", "--p", "5", "--j", "1"],
        ["verify", "--p", "3", "--j", "1", "--format", "csv"],
        ["fsz", "--table", str(table), "--threads", "2"],
        ["count", "--p", "3", "--j", "1", "--n", "3", "--u", "b a1", "--g", "a1^3"],
    ]
    plain = runner.round(calls)
    traced = runner.round(calls, trace=True, speedup_threads=2)
    assert [c["code"] for c in plain["calls"]] == [0] * len(calls)
    assert [c["stdout"] for c in traced["calls"]] == [c["stdout"] for c in plain["calls"]]
    assert traced["layers"]["fszcheck.check_fsz_n.calls.structured"] == 1
    assert traced["layers"]["fszcheck.check_fsz_n.calls.generic"] > 0
    assert traced["thread_speedup"] > 0
    assert abs(traced["top_level_s"] - traced["wall_s"]) < 0.05 * traced["wall_s"]


def test_spans_are_written_as_json_lines(tmp_path):
    import contextlib
    import gzip
    import io

    from fsz_forge import cli

    tracer = tracing.Tracer("r1")
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["witness", "--p", "3", "--j", "1"])
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.jsonl.gz"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in gzip.open(path, "rt")]
    assert rows and {"run", "id", "name", "start", "end", "parent"} <= set(rows[0])
    assert {r["run"] for r in rows} == {"r1"}
    top = [r for r in rows if r["parent"] is None]
    assert [r["name"] for r in top] == ["cli.run"]
    ids = {r["id"] for r in rows}
    assert all(r["parent"] in ids for r in rows if r["parent"] is not None)


def test_gate_passes_recorded_output_and_catches_a_changed_verdict():
    expected = workloads.load_expected()
    op = workloads._make_spj51(0, Path("."), expected)[0]
    payload = {"kind": "fsz", "group": expected["spj51-fsz"]["group"],
               "overall": False,
               "verdicts": [{"n": n, "verdict": v, "witness": w}
                            for n, v, w in expected["spj51-fsz"]["verdicts"]]}
    assert op.check(payload) == []

    wrong = json.loads(json.dumps(payload))
    wrong["verdicts"][2]["verdict"] = "non-FSZ_25"
    assert op.check(wrong)

    wrong = json.loads(json.dumps(payload))
    wrong["verdicts"][1]["witness"]["count_gm"] = 624
    problems = op.check(wrong)
    assert any("bruteforce recount" in p for p in problems)

    gate = run.Gate([op])
    gate.check_round([{"code": 0, "stdout": json.dumps(payload), "stderr": ""}])
    gate.check_round([{"code": 0, "stdout": json.dumps(wrong), "stderr": ""}])
    gate.check_round([{"code": 1, "stdout": "", "stderr": "error: boom"}])
    assert (gate.attempted, gate.failed) == (3, 2)


def test_gate_checks_witness_and_count_fields():
    assert workloads._check_witness(
        {"verdict": "non-FSZ_7", "witness": {"count_g": 0, "count_gm": 5, "m": 2}}) == []
    assert workloads._check_witness(
        {"verdict": "non-FSZ_7", "witness": {"count_g": 1, "count_gm": 5, "m": 2}})
    check = workloads._check_count("u", "g", 10)
    good = {"structured": {"count": 10}, "bruteforce": {"count": 10},
            "agree": True, "u": "u", "g": "g"}
    assert check(good) == []
    assert check({**good, "bruteforce": {"count": 9}, "agree": False})


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile([1.0] * 10) is None
    got = run.tail_percentile([float(i) for i in range(1, 21)])
    assert got == {"percentile": 50.0, "value": 10.0}


def test_manifest_lists_every_workload_and_metric():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    assert [m["name"] for m in manifest["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "success_rate"
    ]
