"""Benchmark for bellpoly: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload census --seed 0 --seconds 5 --trace 0

The program is imported from the src/ directory next to this one, never from
an installed copy; without src/bellpoly the benchmark exits with code 2.

One process drives a closed loop: each item starts after the previous one
returns.  A run generates the workload's items from --seed, warms the
program's caches, then repeats passes over the fixed item set until
--seconds have passed (always at least one whole pass; the last may stop
part-way).  Every output is checked against reference.py.  See README.md
for the metrics and why they are measured as they are.

--trace 0 prints the end-to-end metrics.  --trace 1 makes an untraced and a
traced run of the same item runs and prints the per-layer metrics.  --workload
all runs every workload in turn.  --size tiny shrinks the item sets, for the
self-test.  The last stdout line is one JSON object {correct, attempted,
failed, metrics}; the lines before it are a readable report.  The full record
(environment, input mix, tail percentile, problems) and, when tracing, the
spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# bellpoly's matrices are tiny; threaded OpenBLAS only spins a second core,
# which doubled census CPU time and its run-to-run spread on a shared 2-core host.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PROBES = 3  # fresh set-up probes per run, for setup_s and cli.import_s
CLI_RUNS = 3  # fresh `bellpoly` processes per run, each between two canary processes, for cli_s
CHILD_TIMEOUT_S = 60  # a child takes 1-3 s; a hung one must not hold the run for minutes

# ref_s / ref_ms: times scaled to the reference host speed (see speed.py).
# setup_s is the benchmark's set-up time in seconds, also at the reference
# speed: the host's speed moved the median of ten runs by up to 45% in an hour.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "ref_s",
    "item_p50_ms": "ref_ms",
    "item_tail_ms": "ref_ms",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
    "cli_s": "ref_s",
}
SCALED = ("setup_s", "wall_s", "item_p50_ms", "item_tail_ms", "cli_s")

PER_LAYER = {
    "transform.walsh_hadamard.calls": "count",
    "transform.walsh_hadamard.busy_s": "s",
    "inequality.bell_table_from_id.busy_s": "s",
    "inequality.polynomial_string.busy_s": "s",
    "inequality.parse_polynomial.busy_s": "s",
    "inequality.signs_from_coefficients.busy_s": "s",
    "compose.full_nesting.busy_s": "s",
    "compose.evaluate_nesting.busy_s": "s",
    "symmetry.orbit_of_id.calls": "count",
    "symmetry.orbit_of_id.busy_s": "s",
    "symmetry.orbit_members": "count",
    "symmetry.elements_swept": "count",
    "symmetry.apply.busy_s": "s",
    "symmetry.classify_all.busy_s": "s",
    "quantum.max_violation.calls": "count",
    "quantum.max_violation.busy_s": "s",
    "quantum.max_violation.starts": "count",
    "quantum.max_violation.converged_ratio": "ratio",
    "quantum.DensityMatrix.calls": "count",
    "quantum.DensityMatrix.busy_s": "s",
    "quantum.simulate_correlations.calls": "count",
    "quantum.simulate_correlations.busy_s": "s",
    "quantum.ghz.calls": "count",
    "quantum.ghz.busy_s": "s",
    "classical.l1_margin.calls": "count",
    "classical.l1_margin.busy_s": "s",
    "classical.witness.calls": "count",
    "classical.witness.busy_s": "s",
    "classical.lp_membership.calls": "count",
    "classical.lp_membership.busy_s": "s",
    "classical.lp_agree_ratio": "ratio",
    "cli.import_s": "s",
    "cli.main.busy_s": "s",
    "trace.overhead_s": "s",
}

# per-layer names that sum the spans of several functions
SPAN_GROUPS = {"quantum.ghz": ("quantum.ghz_state", "quantum.ghz_observables")}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one fresh interpreter to completion; return its wall time and result."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


@dataclass
class Ops:
    """Operations attempted and failed outside the item loop (probes, CLI runs)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, what: str, code, stdout: str, check) -> None:
        """Count one operation; it fails on a nonzero exit code (or a traceback) or a failed output check."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}" if isinstance(code, int) else code]
        else:
            try:
                problems = check(stdout)
            except Exception:  # malformed output is a failed check, not a crash
                problems = [traceback.format_exc(limit=-2).strip()]
        self.failed += bool(problems)
        self.problems += [f"{what}: {p}" for p in problems]


def probe(name: str, seed: int, size: str, count: int, ops: Ops) -> list[dict]:
    results = []

    def check(stdout: str) -> list[str]:
        results.append(json.loads(stdout.strip().splitlines()[-1]))
        return results[-1]["problems"]

    for _ in range(count):
        _, proc = run_child([str(BENCH / "probe.py"), name, str(seed), size])
        ops.check("set-up probe", proc.returncode, proc.stdout, check)
    return results


def cli_runs(wl, seed: int, count: int, ops: Ops) -> tuple[list[float], list[float]]:
    """Time `count` CLI processes and the `count + 1` fresh-process canaries around them."""
    from speed import PROCESS_CANARY_ARGS

    def canary() -> None:
        seconds, proc = run_child(PROCESS_CANARY_ARGS)
        ops.check("fresh-process canary", proc.returncode, proc.stdout, lambda out: [])
        canaries.append(seconds)

    args = wl.cli_args(seed)
    times, canaries = [], []
    canary()
    for _ in range(count):
        seconds, proc = run_child(["-m", "bellpoly.cli", *args])
        ops.check(f"bellpoly {' '.join(args)}", proc.returncode, proc.stdout,
                  lambda out: wl.check_cli(seed, out))
        times.append(seconds)
        canary()
    return times, canaries


@dataclass
class Measurement:
    passes: int = 0
    latencies: dict = field(default_factory=dict)  # item key -> seconds per pass
    scaled: dict = field(default_factory=dict)  # item key -> reference-speed seconds per pass
    marks: dict = field(default_factory=dict)  # item key -> index of the last canary sample before each run
    outcomes: dict = field(default_factory=dict)  # item key -> first-pass verdict
    attempted: int = 0
    failed: int = 0
    flagged: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)


def measure(wl, items, api, *, seconds: float | None = None, attempts: int | None = None,
            tracer=None, speed=None) -> Measurement:
    """Closed loop over passes of the item set.

    Stops after exactly `attempts` items, or once `seconds` have elapsed and
    at least one whole pass is done; the last pass may end part-way.  The
    speed canary, if given, runs between items, outside their timing, and
    each item's time is scaled by the canary samples just before and after
    it (see speed.py).
    """
    m = Measurement(latencies={item.key: [] for item in items}, marks={item.key: [] for item in items})
    start = time.perf_counter()

    def more() -> bool:
        if attempts is not None:
            return m.attempted < attempts
        return m.passes == 0 or time.perf_counter() - start < seconds

    while more():
        for item in items:
            if m.passes and not more():
                break
            m.attempted += 1
            first = item.key not in m.outcomes  # an item may appear twice in a pass
            flagged = False
            if speed is not None:
                speed.sample_now_and_then()
            try:
                span = tracer.item(item.key) if tracer else contextlib.nullcontext()
                began = time.perf_counter()
                with span:
                    out = wl.run(api, item)
                m.latencies[item.key].append(time.perf_counter() - began)
                if speed is not None:
                    m.marks[item.key].append(len(speed.samples) - 1)
                problems, flagged = wl.check(item, out)
                if first:
                    extra, counts = wl.offpath(api, item, out)
                    problems += extra
                    m.tally.update(counts)
                m.tally.update(wl.tally(item, out))
                del out
            except Exception:  # a raising item is a failed operation, not a crash
                problems = [traceback.format_exc(limit=-3).strip()]
            if problems:
                m.failed += 1
                m.problems += [f"{item.key}: {p}" for p in problems]
            elif flagged:
                m.flagged.append(item.key)
            if first:
                m.outcomes[item.key] = "failed" if problems else "flagged" if flagged else "ok"
        m.passes += 1
    if speed is not None:
        speed.sample()  # closes the last item's bracket
        m.scaled = {key: [speed.scale(t, mark) for t, mark in zip(m.latencies[key], m.marks[key])]
                    for key in m.marks}
    return m


def item_stats(latencies: dict) -> dict:
    """Warm wall time, median and tail item latency, over per-item medians.

    Each item's latency is its median over the run's passes, so one item
    counts once however many passes ran.  wall_s is the sum of the per-item
    medians: the time to finish the fixed item set once.  The tail is the
    highest percentile with at least 10 items beyond it.
    """
    per_item = sorted(statistics.median(v) for v in latencies.values() if v)
    if not per_item:
        return {}
    count = len(per_item)
    rank = max(count - 11, 0)
    return {
        "wall_s": sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": per_item[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / count,
        "tail_items_beyond": count - rank - 1,
        "items": count,
    }


def layer_metrics(busy: dict, tally: Counter, import_s: float, overhead_s: float) -> dict:
    values = {}
    for metric in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat in ("calls", "busy_s"):
            names = SPAN_GROUPS.get(base, (base,))
            values[metric] = sum(busy.get(n, (0, 0.0))[stat == "busy_s"] for n in names)

    def ratio(part: str, whole: int) -> float:
        return tally[part] / whole if whole else 0.0

    values.update({
        "symmetry.orbit_members": tally["symmetry.orbit_members"],
        "symmetry.elements_swept": tally["symmetry.elements_swept"],
        "quantum.max_violation.starts": tally["quantum.max_violation.starts"],
        "quantum.max_violation.converged_ratio": ratio(
            "quantum.max_violation.converged", values["quantum.max_violation.calls"]),
        "classical.lp_agree_ratio": ratio("classical.lp_agreed", tally["classical.lp_checked"]),
        "cli.import_s": import_s,
        "trace.overhead_s": overhead_s,
    })
    return values


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREADS},
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    # imported here, after main() has set the BLAS threads, because they load numpy
    import bellpoly
    import tracing
    from speed import REFERENCE_S, Speed
    from workloads import WORKLOADS, input_mix

    if not Path(bellpoly.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"bellpoly imported from {bellpoly.__file__}, not from {SRC}")
    wl = WORKLOADS[name]
    ops = Ops()
    speed = Speed(wl.canary)
    probes = probe(name, seed, size, 1 if size == "tiny" else PROBES, ops)

    items = wl.generate(seed, size == "tiny")
    api = tracing.bind()
    for item in wl.setup_items(items):
        # warm the caches the probes measured filling; an item that raises
        # here raises again, and is counted, in the measured pass
        with contextlib.suppress(Exception):
            wl.run(api, item)
    plain = measure(wl, items, api, seconds=seconds, speed=speed)
    stats = item_stats(plain.latencies)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "closed_loop": "one process, one item in flight",
        "input_mix": input_mix(items), "environment": environment(),
        "passes": plain.passes, "item_runs_per_pass": len(items), "item_runs": plain.attempted,
        "tail_percentile": stats.get("tail_percentile"), "tail_items_beyond": stats.get("tail_items_beyond"),
        "flagged_unreliable": sorted(set(plain.flagged)),
        "probes": probes,
    }
    sizes = {k: v for k, v in plain.tally.items() if k.startswith("orbit size ")}
    if sizes:
        record["input_mix"]["orbit sizes seen"] = sizes
    measured = [plain]
    if trace:
        tracer = tracing.Tracer()
        traced_api = tracing.bind(tracer)
        traced = measure(wl, items, traced_api, attempts=plain.attempted, tracer=tracer)
        measured.append(traced)
        stdout = io.StringIO()
        try:
            with tracer.item("cli"), contextlib.redirect_stdout(stdout):
                code = traced_api.cli.main(wl.cli_args(seed))
        except Exception:  # counted as a failed operation below
            code = traceback.format_exc(limit=-2).strip()
        ops.check("in-process cli.main", code, stdout.getvalue(), lambda out: wl.check_cli(seed, out))
        record["same_checks_traced"] = traced.outcomes == plain.outcomes
        ops.check("traced vs untraced check results", 0, "",
                  lambda _: [] if record["same_checks_traced"] else ["they differ"])
        metrics = layer_metrics(
            tracer.busy(), traced.tally,
            statistics.median(p["import_s"] for p in probes) if probes else 0.0,
            item_stats(traced.latencies).get("wall_s", 0.0) - stats.get("wall_s", 0.0),
        )
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{name}-seed{seed}-spans.json")
    else:
        cli_times, cli_canaries = cli_runs(wl, seed, 1 if size == "tiny" else CLI_RUNS, ops)
        record["cli_times_s"] = cli_times
        record["cli_canary_times_s"] = cli_canaries
        raw = {
            "setup_s": statistics.median(p["import_s"] + p["first_s"] for p in probes) if probes else 0.0,
            "wall_s": stats.get("wall_s", 0.0),
            "item_p50_ms": stats.get("item_p50_ms", 0.0),
            "item_tail_ms": stats.get("item_tail_ms", 0.0),
            "pass_frac": (plain.attempted - plain.failed - len(plain.flagged)) / plain.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cli_s": statistics.median(cli_times),
        }
        record["measured"] = raw
        record["speed"] = {"canary": wl.canary, "factor": speed.factor(),
                           "canary_median_s": statistics.median(speed.samples),
                           "canary_samples": len(speed.samples), "reference_s": REFERENCE_S[wl.canary],
                           "process_canary_median_s": statistics.median(cli_canaries),
                           "samples_s": speed.samples,
                           "item_runs_s": plain.latencies, "item_marks": plain.marks}
        scaled = item_stats(plain.scaled)
        metrics = dict(raw, **{k: scaled.get(k, 0.0) for k in ("wall_s", "item_p50_ms", "item_tail_ms")})
        metrics["cli_s"] = REFERENCE_S["process"] * statistics.median(
            t / statistics.fmean(cli_canaries[k:k + 2]) for k, t in enumerate(cli_times))
        metrics["setup_s"] = raw["setup_s"] * REFERENCE_S["process"] / statistics.median(cli_canaries)
        units = END_TO_END

    attempted = ops.attempted + sum(m.attempted for m in measured)
    failed = ops.failed + sum(m.failed for m in measured)
    record["problems"] = ops.problems + [p for m in measured for p in m.problems]
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def report(record: dict) -> None:
    res = record["result"]
    env = record["environment"]
    print(f"# bellpoly benchmark  workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} size={record['size']}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"blas {env['blas']} threads {env['blas_threads']}  commit {env['commit']}")
    print(f"# input mix {json.dumps(record['input_mix'])}")
    tail = f"p{record['tail_percentile']:.1f}" if record["tail_percentile"] else "n/a"
    print(f"# {record['item_runs']} item runs in {record['passes']} passes of {record['item_runs_per_pass']} item runs "
          f"(the last may stop part-way); tail = {tail} ({record['tail_items_beyond']} items beyond); "
          f"attempted {res['attempted']}, failed {res['failed']}, "
          f"flagged unreliable {len(record['flagged_unreliable'])} {record['flagged_unreliable']}")
    for problem in record["problems"][:20]:
        print(f"# FAILED {problem}")
    if "speed" in record:
        sp = record["speed"]
        measured = ", ".join(f"{k} {record['measured'][k]:.6g}" for k in SCALED)
        print(f"# host speed: {sp['canary']} canary median {sp['canary_median_s']:.5f} s over {sp['canary_samples']} samples, "
              f"reference {sp['reference_s']} s, run factor {sp['factor']:.4f}; process canary median "
              f"{sp['process_canary_median_s']:.4f} s; as measured: {measured}")
    for name, metric in res["metrics"].items():
        print(f"{name:45s} {metric['value']:16.6f} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["census", "orbits", "exact", "membership", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "bellpoly" / "__init__.py").is_file():
        print(f"error: no bellpoly sources at {SRC / 'bellpoly'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)  # before numpy loads, here and in every child

    names = ["census", "orbits", "exact", "membership"] if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        report(record)
        records.append(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
