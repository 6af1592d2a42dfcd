"""Short-run validity check of bench/record.py.

    python bench/check_record.py

Runs the recorder with 2 repeats of 0.2 s per workload into a temporary
directory and checks the file it writes: every workload passed, every
end-to-end metric that BENCHMARK.json names has a median within its
quartiles, and every command row, the Tier-1 row and every version is
there.  It takes about a minute and a half, 50 s of it two runs of the test
suite, so it runs apart from the test suite (pytest does not collect it).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import record  # noqa: E402


def problems(result: dict) -> list[str]:
    found = []
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    rows = [(f"{name}.{metric}", w["metrics"].get(metric)) for name, w in result["workloads"].items()
            for metric in declared]
    rows += list(result["end_to_end"].items())
    for name, row in rows:
        if row is None:
            found.append(f"{name}: missing")
        elif len(row["runs"]) != 2 or not row["q1"] <= row["median"] <= row["q3"]:
            found.append(f"{name}: bad summary {row}")
    if sorted(result["workloads"]) != sorted(record.WORKLOADS):
        found.append(f"workloads {sorted(result['workloads'])}")
    for name, w in result["workloads"].items():
        if not w["correct"] or w["failed"] or not w["attempted"]:
            found.append(f"{name}: correct={w['correct']} failed={w['failed']} attempted={w['attempted']}")
    expected_rows = {"import bellpoly", record.TIER1_ROW, *record.cli_rows(),
                     *(r + " peak RSS" for r in record.cli_rows())}
    if set(result["end_to_end"]) != expected_rows:
        found.append(f"end-to-end rows {sorted(result['end_to_end'])}")
    if not all(result["end_to_end"][row]["median"] > 0 for row in expected_rows & set(result["end_to_end"])):
        found.append("an end-to-end row has a median of 0")
    if set(result["versions"]) != {"python", "numpy", "blas", "scipy"} or len(result["commit"]) != 40:
        found.append(f"versions {result['versions']} commit {result['commit']!r}")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([sys.executable, str(ROOT / "bench" / "record.py"), "--label", "check",
                        "--repeats", "2", "--seconds", "0.2", "--out", out], check=True)
        result = json.loads((Path(out) / "BENCH_check.json").read_text())
    found = problems(result)
    for line in found:
        print(line, file=sys.stderr)
    print("bench/record.py: ok" if not found else f"bench/record.py: {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
