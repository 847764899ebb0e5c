"""One benchmark round in a fresh interpreter.

Usage: python3 worker.py SRC_DIR SPEC.json

fsz_forge is imported from SRC_DIR.  The spec names the CLI argv lists
to run in order and whether to trace.  fsz_forge is imported
before anything else so that the parent can time interpreter start plus
import (setup_s) against the same monotonic clock.  Results go to the
spec's result path as JSON; the CLI's stdout and stderr are captured
per call.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import fsz_forge  # noqa: E402

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import tracing  # noqa: E402


def run_calls(calls: list[list[str]]) -> list[dict]:
    from fsz_forge import cli

    out = []
    for argv in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.run(list(argv))
            except Exception:
                code = -1
                traceback.print_exc(file=stderr)
        end = time.perf_counter()
        out.append({"code": code, "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue()[-2000:], "start": start, "end": end})
    return out


def thread_speedup(tracer: tracing.Tracer, target, threads: int) -> float:
    """pow_index_array time at one thread over its time at `threads`."""
    if target is None:
        return 0.0
    from fsz_forge.gncount import SpjIndexed
    from fsz_forge.mixedmod import GroupParams
    from fsz_forge.spgroup import SpjGroup

    p, j, n = target
    pow_index_array = tracer.originals["gncount.SpjIndexed.pow_index_array"]
    G = SpjGroup(GroupParams(p, j))
    views = {1: SpjIndexed(G, 1), threads: SpjIndexed(G, threads)}
    times = {k: [] for k in views}
    reps = 1
    while len(times[1]) < reps:
        for k, view in views.items():
            start = time.perf_counter()
            pow_index_array(view, n)
            times[k].append(time.perf_counter() - start)
        if reps == 1 and times[1][0] < 0.2:
            reps = 5  # small groups: take a median over a few calls
    return statistics.median(times[1]) / statistics.median(times[threads])


def main(spec: dict) -> dict:
    result = {"t_imported": T_IMPORTED, "fsz_forge": os.path.abspath(fsz_forge.__file__)}
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer(spec["run_id"])
        tracer.install(layers.ANNOTATIONS)
    result["calls"] = run_calls(spec["calls"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        agg = tracing.aggregate(spans)
        result["layers"] = layers.round_metrics(agg)
        result["top_level_s"] = tracing.top_level_seconds(spans)
        if spec.get("speedup_threads"):
            result["thread_speedup"] = thread_speedup(
                tracer, layers.probe_target(agg), spec["speedup_threads"]
            )
        if spec.get("spans_path"):
            tracer.write_jsonl(spec["spans_path"])
    return result


if __name__ == "__main__":
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = main(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
