"""Record this checkout's benchmark and end-to-end rows into BENCH_<label>.json.

    python bench/record.py --label NAME [--repeats 5] [--seconds 5] [--out DIR]

Each perfbench workload runs in its own process,
`perfbench/run.py --workload W --seed 9201 --seconds T --trace 0`, `--repeats`
times, round-robin over the workloads; one process per workload keeps each
`peak_rss_mb` its own.  The end-to-end rows time fresh processes of this
checkout's `src/`: `import bellpoly` (its cumulative -X importtime), and the
CLI commands `id --mermin -n 3`, `classify -n 4`, `violation -n 8` on the
table random.Random(1).getrandbits(256) and `violation -n 9` on the Mermin
table, each with its wall time and the child's peak RSS (from wait4), and the
Tier-1 tests, `python -m pytest -q` of this checkout, by wall time.  Every
row gets the median and quartiles of its repeats, and the file records the
commit, the paths that differ from it, the Python, numpy, BLAS and (where
installed) scipy versions, and the thread settings.  Standard library only;
it reads the last line each perfbench/run.py run prints.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("census", "orbits", "exact", "membership")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = 9201  # the benchmark baseline's seed
TIER1_ROW = "tier-1 tests (python -m pytest -q)"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)

VERSIONS = """
import importlib.util, json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
scipy = importlib.util.find_spec("scipy") and __import__("scipy").__version__
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas, "scipy": scipy or "not installed"}))
"""


def mermin_id(n: int) -> int:
    """inequality.mermin_sign_table(n) as an id: bit r is set where weight(r) mod 4 is 0 or 3."""
    return sum(1 << r for r in range(1 << n) if r.bit_count() % 4 in (0, 3))


def cli_rows() -> dict[str, list[str]]:
    seeded_8 = random.Random(1).getrandbits(256)
    return {
        "cli id --mermin -n 3": ["id", "--mermin", "-n", "3"],
        "cli classify -n 4": ["classify", "-n", "4"],
        "cli violation -n 8 (random.Random(1) table)": ["violation", "-n", "8", "--id", str(seeded_8)],
        "cli violation -n 9 (Mermin table)": ["violation", "-n", "9", "--id", str(mermin_id(9))],
    }


def timed_child(argv: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and stderr of one child process, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {err.strip()[-500:]}")
    return wall, usage.ru_maxrss / 1024, err  # ru_maxrss is in KiB on Linux


def import_seconds() -> float:
    """Cumulative -X importtime of `import bellpoly` in a fresh process."""
    _, _, err = timed_child([sys.executable, "-X", "importtime", "-c", "import bellpoly"])
    for line in err.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "bellpoly":
            return int(fields[1]) / 1e6
    raise RuntimeError("-X importtime printed no line for bellpoly")


def workload_run(name: str, seconds: float) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "runs": values}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True).stdout.rstrip()


def record(label: str, repeats: int, seconds: float) -> dict:
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for _ in range(repeats):
        for name in WORKLOADS:
            runs[name].append(workload_run(name, seconds))
    rows = {"import bellpoly": summary([import_seconds() for _ in range(repeats)], "s")}
    for row, args in cli_rows().items():
        walls, rss = [], []
        for _ in range(repeats):
            wall, peak, _ = timed_child([sys.executable, "-m", "bellpoly.cli", *args])
            walls.append(wall)
            rss.append(peak)
        rows[row] = summary(walls, "s")
        rows[row + " peak RSS"] = summary(rss, "MB")
    tier1 = [sys.executable, "-m", "pytest", "-q"]
    rows[TIER1_ROW] = summary([timed_child(tier1)[0] for _ in range(repeats)], "s")
    workloads = {}
    for name, results in runs.items():
        metrics = results[0]["metrics"]
        workloads[name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                metric: summary([r["metrics"][metric]["value"] for r in results], spec["unit"])
                for metric, spec in metrics.items()
            },
        }
    return {
        "label": label,
        "commit": git("rev-parse", "HEAD"),
        "changed_paths": git("status", "--porcelain").splitlines(),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": {"repeats": repeats, "seconds": seconds, "seed": SEED, "threads": THREADS},
        "versions": json.loads(subprocess.run([sys.executable, "-c", VERSIONS], env=CHILD_ENV,
                                              capture_output=True, text=True, check=True).stdout),
        "host": {"platform": platform.platform(), "cpus_usable": len(os.sched_getaffinity(0))},
        "workloads": workloads,
        "end_to_end": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=5.0, help="run length of each workload run")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for quartiles")
    result = record(args.label, args.repeats, args.seconds)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
