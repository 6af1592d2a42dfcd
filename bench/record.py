"""Record the benchmark and end-to-end rows of a checkout, or of a pair, into BENCH_<label>.json.

    python bench/record.py --label NAME [--base REV] [--repeats 5] [--seconds 5] [--out DIR]

Each perfbench workload runs in its own process,
`perfbench/run.py --workload W --seed 9201 --seconds T --trace 0`, `--repeats`
times; one process per workload keeps each `peak_rss_mb` its own.  The
end-to-end rows time fresh processes of the checkout's `src/`: `import
bellpoly` (its cumulative -X importtime), and the CLI commands `id --mermin
-n 3`, `classify -n 4`, `violation -n 8` on the table
random.Random(1).getrandbits(256) and `violation -n 9` on the Mermin table,
each with its wall time and the child's peak RSS (from wait4), and the Tier-1
tests, `python -m pytest -q` of the checkout, by wall time.  Every row gets
the median and quartiles of its repeats, and the file records the commit, the
paths that differ from it, the Python, numpy, BLAS and (where installed) scipy
versions, and the thread settings.

Without --base it records this checkout in place.  With --base it records a
pair: REV (`git archive`) and the work tree (its tracked and untracked,
not ignored files) are exported into two temporary directories, and each
repeat runs every row for both, back to back, the two taking turns to go
first, so that drift of the host falls on both sides alike.  It writes
BENCH_<label>.json for the work tree and BENCH_<short REV>.json for the base,
each naming the other under "pair", and prints per row both medians, the
change in percent, the repeats the work tree won and whether the gap between
the medians exceeds the base's interquartile range.  Standard library only;
it reads the last line each perfbench/run.py run prints.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("census", "orbits", "exact", "membership")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = 9201  # the benchmark baseline's seed
TIER1_ROW = "tier-1 tests (python -m pytest -q)"
# rows where a larger value is better; every other row is a time or a size
HIGHER_IS_BETTER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
                    if m["better"] == "higher"}

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


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), **THREADS)


def timed_child(root: Path, argv: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and stderr of one child process in root, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {err.strip()[-500:]}")
    return wall, usage.ru_maxrss / 1024, err  # ru_maxrss is in KiB on Linux


def import_seconds(root: Path) -> float:
    """Cumulative -X importtime of `import bellpoly` in a fresh process."""
    _, _, err = timed_child(root, [sys.executable, "-X", "importtime", "-c", "import bellpoly"])
    for line in err.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "bellpoly":
            return int(fields[1]) / 1e6
    raise RuntimeError("-X importtime printed no line for bellpoly")


def workload_run(root: Path, name: str, seconds: float) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tasks(seconds: float) -> dict:
    """Each row's measurement of one checkout: a workload's run, a number, or (wall, peak RSS)."""
    out = {name: lambda root, name=name: workload_run(root, name, seconds) for name in WORKLOADS}
    out["import bellpoly"] = import_seconds
    for row, args in cli_rows().items():
        out[row] = lambda root, args=args: timed_child(root, [sys.executable, "-m", "bellpoly.cli", *args])[:2]
    out[TIER1_ROW] = lambda root: timed_child(root, [sys.executable, "-m", "pytest", "-q"])[0]
    return out


def measure(roots: list[Path], repeats: int, seconds: float) -> list[dict[str, list]]:
    """Every row's results per checkout.  In each repeat each row runs for every checkout
    back to back; the order reverses from one repeat to the next."""
    rows = tasks(seconds)
    runs = [{row: [] for row in rows} for _ in roots]
    for i in range(repeats):
        order = list(range(len(roots)))[:: 1 if i % 2 == 0 else -1]
        for row, task in rows.items():
            for j in order:
                runs[j][row].append(task(roots[j]))
    return runs


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "runs": values}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.rstrip()


def result(label: str, runs: dict[str, list], repeats: int, seconds: float, commit: str,
           changed_paths: list[str]) -> dict:
    """One checkout's BENCH file from its runs."""
    workloads, rows = {}, {}
    for name in WORKLOADS:
        results = runs[name]
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
    rows["import bellpoly"] = summary(runs["import bellpoly"], "s")
    for row in cli_rows():
        rows[row] = summary([wall for wall, _ in runs[row]], "s")
        rows[row + " peak RSS"] = summary([peak for _, peak in runs[row]], "MB")
    rows[TIER1_ROW] = summary(runs[TIER1_ROW], "s")
    return {
        "label": label,
        "commit": commit,
        "changed_paths": changed_paths,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": {"repeats": repeats, "seconds": seconds, "seed": SEED, "threads": THREADS},
        "versions": json.loads(subprocess.run([sys.executable, "-c", VERSIONS], env=child_env(ROOT),
                                              capture_output=True, text=True, check=True).stdout),
        "host": {"platform": platform.platform(), "cpus_usable": len(os.sched_getaffinity(0))},
        "workloads": workloads,
        "end_to_end": rows,
    }


def flat_rows(result: dict) -> dict[str, dict]:
    """Every summarized row of a BENCH file by one name: workload metrics as workload.metric."""
    rows = {f"{name}.{metric}": row for name, w in result["workloads"].items() for metric, row in w["metrics"].items()}
    return rows | result["end_to_end"]


def comparison(base: dict, work: dict) -> list[dict]:
    """Per row of a pair: both medians, the change in percent, the repeats the work tree won
    (the same repeat's runs compared) and whether the gap exceeds the base's IQR."""
    work_rows, out = flat_rows(work), []
    for name, b in flat_rows(base).items():
        w = work_rows[name]
        sign = -1 if name.rsplit(".", 1)[-1] in HIGHER_IS_BETTER else 1
        out.append({
            "row": name,
            "base": b["median"],
            "work": w["median"],
            "change_pct": 100 * (w["median"] - b["median"]) / b["median"] if b["median"] else 0.0,
            "wins": sum(sign * (y - x) < 0 for x, y in zip(b["runs"], w["runs"])),
            "repeats": len(b["runs"]),
            "outside_iqr": abs(w["median"] - b["median"]) > b["q3"] - b["q1"],
        })
    return out


def print_comparison(rows: list[dict], base_label: str, label: str) -> None:
    width = max(len(r["row"]) for r in rows)
    print(f"{'row':<{width}}  {base_label:>12}  {label:>12}  {'change':>8}  wins  >IQR")
    for r in rows:
        print(f"{r['row']:<{width}}  {r['base']:>12.6g}  {r['work']:>12.6g}  {r['change_pct']:>+7.1f}%"
              f"  {r['wins']}/{r['repeats']:<2}  {'yes' if r['outside_iqr'] else 'no'}")
    print(f"{sum(r['outside_iqr'] for r in rows)} of {len(rows)} rows outside the base's IQR")


def export(rev: str | None, dest: Path) -> Path:
    """A copy of REV's tree, or of the work tree (tracked and untracked, not ignored files)."""
    dest.mkdir()
    if rev is not None:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    else:
        for path in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
            if path and (ROOT / path).is_file():
                (dest / path).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / path, dest / path)
    # a fresh export has no bytecode cache: compile once, so that no repeat pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest / "src")], check=True)
    return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", metavar="REV", help="record REV and the work tree as a pair")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=5.0, help="run length of each workload run")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for the BENCH_<label>.json files")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for quartiles")
    head, changed = git("rev-parse", "HEAD"), git("status", "--porcelain").splitlines()
    if args.base is None:
        runs = measure([ROOT], args.repeats, args.seconds)[0]
        results = [result(args.label, runs, args.repeats, args.seconds, head, changed)]
    else:
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        base_label = git("rev-parse", "--short", base_commit)
        if base_label == args.label:
            parser.error(f"--label {args.label} is the base's label")
        with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
            roots = [export(base_commit, Path(tmp) / "base"), export(None, Path(tmp) / "work")]
            base_runs, work_runs = measure(roots, args.repeats, args.seconds)
        base = result(base_label, base_runs, args.repeats, args.seconds, base_commit, [])
        work = result(args.label, work_runs, args.repeats, args.seconds, head, changed)
        base["pair"] = {"label": work["label"], "file": f"BENCH_{work['label']}.json", "side": "base"}
        work["pair"] = {"label": base["label"], "file": f"BENCH_{base['label']}.json", "side": "work tree"}
        print_comparison(comparison(base, work), base_label, args.label)
        results = [base, work]
    for res in results:
        path = args.out / f"BENCH_{res['label']}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
