"""fsz-forge benchmark: CLI workloads in fresh interpreters, gated and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run writes the workload's inputs from the seed, then repeats rounds
while the next one is expected to end within S seconds (at least one).
A round is one fresh interpreter that imports fsz_forge from ./src and
makes the workload's CLI calls in sequence through fsz_forge.cli.run, so
every lru_cache starts cold as it does for a CLI user.  Each call's exit
code and JSON output are gated outside the timed region, and its stdout
must be byte-identical in every round of the run.

--trace 0 reports the end-to-end metrics (times and memory are medians
over rounds):
  wall_s        first CLI call of a round to its last verdict
  setup_s       interpreter start until `import fsz_forge` returns,
                over five import-only interpreters plus every round
  peak_rss_mb   ru_maxrss of the round's process
  success_rate  gated calls that passed / calls attempted; the error
                rate is 1 - success_rate and is also in failed/attempted
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of layers.PER_LAYER, plus trace.overhead_s (traced
minus untraced wall_s).

The last stdout line is the result JSON; the line before it is the run
record (environment, every sample, tail percentile, first problems),
also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return {"percentile": round(100 * rank / n, 1), "value": sorted(samples)[rank - 1]}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(threads: int) -> dict:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "git_commit": git_commit(),
    }


class Runner:
    """Starts worker interpreters and collects their results."""

    def __init__(self, workdir: Path, run_id: str):
        self.workdir = workdir
        self.run_id = run_id
        self.count = 0

    def round(self, calls: list[list[str]], *, trace: bool = False,
              speedup_threads: int = 0) -> dict:
        self.count += 1
        tag = f"{self.run_id}-r{self.count}"
        spec = {
            "calls": calls,
            "trace": trace,
            "run_id": tag,
            "result_path": str(self.workdir / f"{tag}.result.json"),
            "spans_path": str(self.workdir / "spans.jsonl.gz") if trace else None,
            "speedup_threads": speedup_threads,
        }
        spec_path = self.workdir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(SRC), str(spec_path)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(Path(spec["result_path"]).read_text())
        if not Path(result["fsz_forge"]).is_relative_to(SRC):
            fail(f"worker imported fsz_forge from {result['fsz_forge']}, not {SRC}")
        result["setup_s"] = result["t_imported"] - start
        result["round_s"] = time.perf_counter() - start
        calls_out = result["calls"]
        if calls_out:
            result["wall_s"] = calls_out[-1]["end"] - calls_out[0]["start"]
        return result


class Gate:
    """Checks every call and the byte-identity of stdout across rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.first_stdout: list[str | None] = [None] * len(ops)
        self.memo: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_round(self, calls_out: list[dict]) -> None:
        for i, (op, out) in enumerate(zip(self.ops, calls_out)):
            self.attempted += 1
            problems = self._check(i, out["code"], out["stdout"])
            if out["code"] != 0:
                problems = problems + [out["stderr"][-300:]]
            if self.first_stdout[i] is None:
                self.first_stdout[i] = out["stdout"]
            elif out["stdout"] != self.first_stdout[i]:
                problems = problems + ["stdout differs from the first round"]
            if problems:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")

    def _check(self, i: int, code: int, stdout: str) -> list[str]:
        key = (i, code, stdout)
        if key not in self.memo:
            if code != 0:
                self.memo[key] = [f"exit code {code}"]
            else:
                try:
                    payload = json.loads(stdout)
                except ValueError:
                    self.memo[key] = ["stdout is not one JSON report"]
                else:
                    self.memo[key] = self.ops[i].check(payload)
        return self.memo[key]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fsz_forge" / "__init__.py").is_file():
        fail(f"no fsz_forge package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    threads = workloads.THREADS
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / run_id
    workdir.mkdir(parents=True, exist_ok=True)

    ops = workload.make(args.seed, workdir, workloads.load_expected())
    calls = [list(op.argv) for op in ops]
    runner = Runner(workdir, run_id)
    gate = Gate(ops)

    setups = [runner.round([])["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        # Stop before a round that would end past --seconds, judged by the
        # median round so far, so that a run lasts about --seconds.
        if plain and (traced or not args.trace):
            typical = statistics.median(r["round_s"] for r in plain + traced)
            if time.perf_counter() - begin + typical > args.seconds:
                break
        trace_now = bool(args.trace) and len(traced) < len(plain)
        result = runner.round(calls, trace=trace_now,
                              speedup_threads=threads if trace_now and not traced else 0)
        gate.check_round(result["calls"])
        setups.append(result["setup_s"])
        (traced if trace_now else plain).append(result)

    walls = [r["wall_s"] for r in plain]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(threads),
        "argv": calls,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "wall_s": {"samples": walls, "median": statistics.median(walls),
                   "tail": tail_percentile(walls)},
        "setup_s": {"samples": setups, "median": statistics.median(setups)},
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in plain],
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
    }
    if args.trace:
        layer = {name: statistics.median(r["layers"][name] for r in traced)
                 for name in traced[0]["layers"]}
        untraced_wall = statistics.median(walls)
        overhead = statistics.median(r["wall_s"] for r in traced) - untraced_wall
        layer["gncount.SpjIndexed.thread_speedup"] = traced[0]["thread_speedup"]
        layer["trace.overhead_s"] = overhead
        layer["trace.top_level_s"] = statistics.median(r["top_level_s"] for r in traced)
        layer["trace.coverage"] = statistics.median(
            r["top_level_s"] / r["wall_s"] for r in traced)
        metrics = {name: metric(layer[name], unit) for name, unit, _, _ in layers.PER_LAYER}
        record["traced_wall_s"] = [r["wall_s"] for r in traced]
    else:
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(record["peak_rss_mb"]), "MB"),
            "success_rate": metric(1 - gate.failed / gate.attempted, "fraction"),
        }
    record["metrics"] = metrics
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
