"""Short-run validity check of bench/record.py's pair mode.

    python bench/check_record.py

Runs the recorder on HEAD against the work tree (`--base HEAD`), with 2
repeats of 0.2 s per workload, into a temporary directory, and checks both
files it writes: every workload passed, every end-to-end metric that
BENCHMARK.json names has a median within its quartiles, every command row,
the Tier-1 row and every version is there, and each file names the other.
The recorder's printed comparison ends with how many rows fall outside the
base's interquartile range; on a clean checkout both sides are one tree, so
that count is the noise floor of a pair.  It takes about three minutes, two
of them four runs of the test suite, so it runs apart from the test suite
(pytest does not collect it).
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


def pair_problems(base: dict, work: dict) -> list[str]:
    found = []
    if base.get("pair", {}).get("file") != f"BENCH_{work['label']}.json":
        found.append(f"the base file names {base.get('pair')}")
    if work.get("pair", {}).get("file") != f"BENCH_{base['label']}.json":
        found.append(f"the work-tree file names {work.get('pair')}")
    if base["commit"] != work["commit"] or base["settings"] != work["settings"]:
        found.append(f"HEAD against HEAD recorded commits {base['commit']} and {work['commit']}")
    rows = record.comparison(base, work)
    if {r["row"] for r in rows} != set(record.flat_rows(work)) or any(r["repeats"] != 2 for r in rows):
        found.append("the comparison does not cover every row once per repeat")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([sys.executable, str(ROOT / "bench" / "record.py"), "--label", "check", "--base", "HEAD",
                        "--repeats", "2", "--seconds", "0.2", "--out", out], check=True)
        work = json.loads((Path(out) / "BENCH_check.json").read_text())
        base = json.loads((Path(out) / work["pair"]["file"]).read_text())
    found = [f"{res['label']}: {line}" for res in (base, work) for line in problems(res)]
    found += pair_problems(base, work)
    for line in found:
        print(line, file=sys.stderr)
    print("bench/record.py: ok" if not found else f"bench/record.py: {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
