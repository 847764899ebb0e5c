"""Record the verdicts the benchmark gate expects, into expected.json.

Usage (from the repository root): python3 perfbench/record_expected.py

- spj51-fsz and spj71-pj: the verdicts and witnesses of the current
  program, kept as golden output.  The gate also recounts every witness
  with the counter the scan did not use.
- tables: the verdicts of the --no-reduction scan over all commuting
  pairs of the unrelabelled table.  Verdicts do not depend on labels, so
  they hold for every seeded relabelling.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tables  # noqa: E402
from fsz_forge import cli  # noqa: E402
from workloads import EXPECTED_PATH, verdict_rows  # noqa: E402


def fsz(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run([*map(str, argv), "--format", "json"])
    if code != 0:
        raise SystemExit(f"fsz {argv} exited {code}")
    payload = json.loads(buf.getvalue())
    return {"group": payload["group"], "verdicts": verdict_rows(payload),
            "overall": payload["overall"]}


def main() -> None:
    expected = {
        "spj51-fsz": fsz("fsz", "--p", 5, "--j", 1),
        "spj71-pj": fsz("fsz", "--p", 7, "--j", 1, "--n", 7),
        "tables": {},
    }
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, build in tables.GROUPS.items():
            path = Path(tmp) / f"{name}.json"
            tables.write_table(str(path), name, build())
            expected["tables"][name] = fsz("fsz", "--table", path, "--no-reduction")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
