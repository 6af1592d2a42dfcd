"""The benchmark's own tests.

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: the tiny runs
start fresh interpreters and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3", "--seconds", "0.5",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_measure(name: str, tracer=None) -> run.Measurement:
    wl = workloads.WORKLOADS[name]
    items = wl.generate(3, True)
    return run.measure(wl, items, tracing.bind(tracer), attempts=len(items), tracer=tracer)


class OneCommandPrintsEveryMetric(unittest.TestCase):
    def check(self, trace: str, declared: dict) -> None:
        proc = tiny_run("--workload", "all", "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc)
        self.assertTrue(result["correct"], proc.stdout)
        expected = {f"{w}.{m}": u for w in workloads.WORKLOADS for m, u in declared.items()}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name in expected:  # the readable report names each metric with its unit
            metric = name.split(".", 1)[1]
            self.assertRegex(proc.stdout, rf"(?m)^{metric}\s+\S+ {declared[metric]}$")

    def test_end_to_end(self):
        self.check("0", run.END_TO_END)

    def test_per_layer(self):
        self.check("1", run.PER_LAYER)


class PlantedWrongReference(unittest.TestCase):
    """Each workload's checks catch a reference value planted wrong."""

    PLANTS = {
        "census": mock.patch.dict(reference.TABLE_N3, {23: (16, 1.9)}),
        "orbits": mock.patch.object(reference, "MERMIN_N6_ORBIT_SIZE", 64),
        "exact": mock.patch.object(reference, "polynomial_text", lambda *a: "a1"),
        "membership": mock.patch.object(reference, "PPT_THRESHOLD", 0.5),
    }

    def test_each_workload(self):
        for name, plant in self.PLANTS.items():
            with self.subTest(name), plant:
                m = tiny_measure(name)
                self.assertGreater(m.failed, 0)
            self.assertEqual(tiny_measure(name).failed, 0, name)


class TracedMatchesUntraced(unittest.TestCase):
    def test_same_check_results(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name), mock.patch.dict(reference.TABLE_N3, {0: (16, 0.5)}):
                tracer = tracing.Tracer()
                plain, traced = tiny_measure(name), tiny_measure(name, tracer)
                self.assertEqual(plain.outcomes, traced.outcomes)
                self.assertEqual("failed" in plain.outcomes.values(), name == "census")
                self.assertTrue(tracer.busy())


class Contract(unittest.TestCase):
    def test_benchmark_json_declares_the_metrics_printed(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_fails_without_the_program(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = tiny_run("--workload", "exact", "--trace", "0", cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


class ReferenceSelfConsistency(unittest.TestCase):
    def test_mermin_orbits_by_search(self):
        self.assertEqual(reference.id_of(reference.mermin_signs(6)), reference.MERMIN_N6_ID)
        orbit6 = reference.orbit_by_search(6, reference.MERMIN_N6_ID)
        self.assertEqual((len(orbit6), min(orbit6)), (reference.MERMIN_N6_ORBIT_SIZE, reference.MERMIN_N6_ID))
        self.assertEqual(len(reference.orbit_by_search(3, 23)), reference.TABLE_N3[23][0])
        self.assertEqual(len(reference.orbit_by_search(4, 6014)), reference.TABLE_N4[6014][0])

    def test_seeded_inputs_repeat(self):
        for wl in workloads.WORKLOADS.values():
            a, b = wl.generate(5, True), wl.generate(5, True)
            self.assertEqual([i.key for i in a], [i.key for i in b])
            self.assertEqual(repr([i.inputs for i in a]), repr([i.inputs for i in b]))


if __name__ == "__main__":
    unittest.main()
