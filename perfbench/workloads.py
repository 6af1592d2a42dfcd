"""The four seeded workloads: inputs, timed program calls, and output checks.

Each workload turns a seed into a fixed list of items built from plain ints,
floats, tuples and numpy arrays; the program only receives those.  `run`
makes the item's calls into bellpoly through `api` (see tracing.bind) and
returns the raw results; `check` compares them with expectations computed
beforehand by reference.py and returns (problems, flagged), where flagged
means the program itself marked a result unreliable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref


@dataclass
class Item:
    key: str  # unique within the workload
    kind: str  # input class, used for the input mix and the set-up calls
    inputs: dict
    expect: dict = field(default_factory=dict)


def _close(a, b, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= tol)


class Workload:
    name = ""
    canary = "python"  # the speed.py canary that does the same kind of work
    # kinds whose first item is not part of set-up (too costly to count as a first call)
    setup_skip: tuple[str, ...] = ()

    def generate(self, seed: int, tiny: bool) -> list[Item]:
        raise NotImplementedError

    def run(self, api, item: Item) -> dict:
        raise NotImplementedError

    def check(self, item: Item, out: dict) -> tuple[list[str], bool]:
        raise NotImplementedError

    def offpath(self, api, item: Item, out: dict) -> tuple[list[str], dict]:
        """Checks and counts kept outside the timed item path (first pass only)."""
        return [], {}

    def tally(self, item: Item, out: dict) -> dict:
        """Counts taken from the item's inputs and outputs."""
        return {}

    def cli_args(self, seed: int) -> list[str]:
        raise NotImplementedError

    def check_cli(self, seed: int, stdout: str) -> list[str]:
        raise NotImplementedError

    def setup_items(self, items: list[Item]) -> list[Item]:
        """The item with the least key of each kind: together they make each first call.

        Not the first in the seeded order: census ids are the same for every
        seed, and its first n=4 call took from 0.3 to 1.2 s by which id came first.
        """
        firsts: dict[str, Item] = {}
        for item in sorted(items, key=lambda item: item.key):
            if item.kind not in self.setup_skip:
                firsts.setdefault(item.kind, item)
        return list(firsts.values())


def _interleaved(items: list[Item], rng: np.random.Generator) -> list[Item]:
    """The items in a seeded random order.

    Input classes run at different moments of each pass.  When the host's
    speed steps during a run, one class would otherwise take most of the
    change and shift the median item against the total.
    """
    return [items[i] for i in rng.permutation(len(items))]


def _json_rows(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class Census(Workload):
    """classify_all(3), classify_all(4), then every canonical id's maximal violation."""

    name = "census"
    canary = "scipy"
    RANDOM_STARTS = 32  # max_violation's default, used only to count starts
    # The optimizer's seed stays fixed, so each item is the same computation
    # in every run.  With the run's seed, the random starts moved the median
    # item by about 10% between seeds, on top of the host's noise.  The
    # run's seed orders the ids, and the CLI command gets it.
    OPTIMIZER_SEED = 0

    def generate(self, seed, tiny):
        items = [Item(f"classify/n{n}", f"classify n={n}", {"n": n}) for n in (3, 4)]
        ids = [(3, i, v, ref.EXACT_TOL) for i, (_, v) in ref.TABLE_N3.items()]
        ids += [(4, i, row[1], row[2]) for i, row in ref.TABLE_N4.items()]
        if tiny:
            ids = ids[:7]
        for k in np.random.default_rng(seed).permutation(len(ids)):
            n, i, value, tol = ids[k]
            items.append(
                Item(
                    f"n{n}/id{i}",
                    f"n={n}",
                    {"n": n, "id": i, "seed": self.OPTIMIZER_SEED},
                    {"value": value, "tol": tol, "coefficients": ref.coefficients(n, i)},
                )
            )
        return items

    def run(self, api, item):
        x = item.inputs
        if "id" not in x:
            return {"records": api.symmetry.classify_all(x["n"])}
        beta = api.inequality.bell_table_from_id(x["n"], x["id"])
        return {"beta": beta, "result": api.quantum.max_violation(beta, seed=x["seed"])}

    def check(self, item, out):
        n = item.inputs["n"]
        if "records" in out:
            return _check_census_rows(
                n,
                [(r.canonical_id, r.size, r.permutation_invariant, r.factorizing) for r in out["records"]],
            ), False
        problems = []
        c = out["beta"].coefficients
        if (c.numerators, c.log_denominator) != item.expect["coefficients"]:
            problems.append("coefficient table differs from the reference transform")
        value = out["result"].value
        if not abs(value - item.expect["value"]) <= item.expect["tol"]:
            problems.append(f"violation {value!r}, published {item.expect['value']!r}")
        return problems, not out["result"].converged

    def tally(self, item, out):
        if "result" not in out:
            return {}
        return {
            "quantum.max_violation.starts": 4 ** item.inputs["n"] + self.RANDOM_STARTS,
            "quantum.max_violation.converged": int(out["result"].converged),
        }

    def cli_args(self, seed):
        return ["classify", "-n", "3", "--seed", str(seed)]

    def check_cli(self, seed, stdout):
        rows = _json_rows(stdout)
        problems = _check_census_rows(3, [(r["canonical_id"], r["size"], None, None) for r in rows])
        for r in rows:
            expected = ref.TABLE_N3.get(r["canonical_id"], (0, math.nan))[1]
            if not abs(r["max_violation"] - expected) <= ref.EXACT_TOL or r["seed"] != seed:
                problems.append(f"classify row {r} disagrees with the published table")
        return problems


def _check_census_rows(n: int, rows: list[tuple]) -> list[str]:
    """rows of (canonical id, size, permutation-invariant, factorizing); None skips a flag."""
    if n == 3:
        expected = {i: (size, None, None) for i, (size, _) in ref.TABLE_N3.items()}
    else:
        expected = {i: (row[0], row[3], row[4]) for i, row in ref.TABLE_N4.items()}
    problems = []
    if sum(r[1] for r in rows) != 1 << (1 << n):
        problems.append(f"orbit sizes do not add up to 2^(2^{n})")
    got = {r[0]: r for r in rows}
    if sorted(got) != sorted(expected):
        problems.append(f"n={n} canonical ids {sorted(got)} differ from the published table")
    for i, (size, perm_inv, factor) in expected.items():
        row = got.get(i)
        if row is None:
            continue
        flags_known = perm_inv is not None and row[2] is not None
        if row[1] != size or (flags_known and (row[2], row[3]) != (perm_inv, factor)):
            problems.append(f"n={n} orbit {i}: got {row[1:]}, published {(size, perm_inv, factor)}")
    return problems


class Orbits(Workload):
    """orbit_of_id on generic n=5 tables, Mermin images at n=6, one generic n=6 table."""

    name = "orbits"
    canary = "memory"
    setup_skip = ("n=6 generic",)
    # n=5 items are most of the set so that the median item stays a generic
    # n=5 sweep even when a seed draws several faster small-orbit tables
    N5, N6_SMALL = 40, 8

    def generate(self, seed, tiny):
        rng = np.random.default_rng(seed)
        items = []
        for k in range(2 if tiny else self.N5):
            tid = int.from_bytes(rng.bytes(4), "little")
            items.append(self._item(f"n5/{k}", "n=5", 5, tid, rng, {}))
        mermin_expect = {"size": ref.MERMIN_N6_ORBIT_SIZE, "canonical": ref.MERMIN_N6_ID}
        for k in range(2 if tiny else self.N6_SMALL):
            tid = ref.id_of(ref.act(*ref.random_element(6, rng), ref.mermin_signs(6)))
            items.append(self._item(f"n6-mermin/{k}", "n=6 Mermin image", 6, tid, rng, mermin_expect))
        if not tiny:
            tid = int.from_bytes(rng.bytes(8), "little")
            items.append(self._item("n6-generic", "n=6 generic", 6, tid, rng, {"size": ref.group_order(6)}))
        items = _interleaved(items, rng)
        if not tiny:
            # The generic n=6 sweep is most of wall_s, and one timing of it
            # spread the most.  It runs twice per pass, half a pass apart,
            # and its latency is the median (the mean) of the two.
            at = next(k for k, item in enumerate(items) if item.kind == "n=6 generic")
            items.insert((at + len(items) // 2) % len(items), items[at])
        return items

    @staticmethod
    def _item(key, kind, n, tid, rng, expect):
        g = ref.random_element(n, rng)
        expect = dict(expect, image=ref.id_of(ref.act(*g, ref.signs_of(n, tid))))
        return Item(key, kind, {"n": n, "id": tid, "g": g}, expect)

    def run(self, api, item):
        x = item.inputs
        orb = api.symmetry.orbit_of_id(x["n"], x["id"])
        g = api.symmetry.GroupElement(*x["g"])
        image = api.inequality.signs_to_id(api.symmetry.apply(g, api.inequality.id_to_signs(x["n"], x["id"])))
        return {"orbit": orb, "image": image, "has_id": x["id"] in orb, "has_image": image in orb}

    def check(self, item, out):
        n, tid = item.inputs["n"], item.inputs["id"]
        orb, e = out["orbit"], item.expect
        problems = []
        if not (out["has_id"] and out["has_image"]):
            problems.append("the table or its group image is missing from its own orbit")
        if out["image"] != e["image"]:
            problems.append(f"apply gave id {out['image']}, reference action gives {e['image']}")
        if ref.group_order(n) % orb.size:
            problems.append(f"orbit size {orb.size} does not divide the group order")
        if not orb.canonical_id <= tid or orb.canonical_id != int(orb.member_ids[0]):
            problems.append(f"canonical id {orb.canonical_id} is not the least member")
        if "size" in e and orb.size != e["size"]:
            problems.append(f"orbit size {orb.size}, expected {e['size']}")
        if "canonical" in e and (orb.canonical_id != e["canonical"] or ref.MERMIN_N6_ID not in orb):
            problems.append("a Mermin image does not share the Mermin orbit")
        return problems, False

    def tally(self, item, out):
        return {
            "symmetry.orbit_members": out["orbit"].size,
            "symmetry.elements_swept": ref.group_order(item.inputs["n"]),
        }

    def offpath(self, api, item, out):
        return [], {f"orbit size {out['orbit'].size}": 1}

    def cli_args(self, seed):
        return ["classify", "-n", "4", "--no-violations"]

    def check_cli(self, seed, stdout):
        rows = _json_rows(stdout)
        return _check_census_rows(
            4, [(r["canonical_id"], r["size"], r["permutation_invariant"], r["factorizing"]) for r in rows]
        )


class Exact(Workload):
    """The exact-integer path: transform, codecs, polynomial text, nesting, JSON."""

    name = "exact"
    PER_N = 24
    CLI_SPAN = 64

    def generate(self, seed, tiny):
        rng = np.random.default_rng(seed)
        items = []
        for n in (4, 6, 8):
            for k in range(2 if tiny else self.PER_N):
                tid = int.from_bytes(rng.bytes((1 << n) // 8), "little")
                signs = ref.signs_of(n, tid)
                nums, log_den = ref.coefficients(n, tid)
                expect = {
                    "signs": signs,
                    "transform": ref.transform(signs),
                    "coefficients": (nums, log_den),
                    "text": ref.polynomial_text(n, nums, log_den),
                }
                items.append(Item(f"n{n}/{k}", f"n={n}", {"n": n, "id": tid}, expect))
        return _interleaved(items, rng)

    def run(self, api, item):
        n, tid = item.inputs["n"], item.inputs["id"]
        t, q, c = api.transform, api.inequality, api.compose
        f = q.id_to_signs(n, tid)
        w = t.walsh_hadamard(f.signs)
        beta = q.bell_table_from_id(n, tid)
        text = q.polynomial_string(beta)
        parsed = q.parse_polynomial(text, n)
        tree = c.full_nesting(beta)
        return {
            "signs": f,
            "transform": w,
            "twice": t.walsh_hadamard(w),
            "id": q.signs_to_id(f),
            "beta": beta,
            "text": text,
            "parsed": parsed,
            "parsed_signs": q.signs_from_coefficients(parsed),
            "tree": tree,
            "rebuilt": c.evaluate_nesting(tree),
            "beta_json": q.bell_table_from_json(json.loads(json.dumps(q.bell_table_to_json(beta)))),
            "tree_json": c.nesting_from_json(json.loads(json.dumps(c.nesting_to_json(tree)))),
        }

    def check(self, item, out):
        n, tid, e = item.inputs["n"], item.inputs["id"], item.expect
        beta = out["beta"]
        failed = [
            name
            for name, ok in (
                ("id_to_signs", out["signs"].signs == e["signs"]),
                ("walsh_hadamard", tuple(out["transform"]) == e["transform"]),
                ("walsh_hadamard twice", tuple(out["twice"]) == tuple(v << n for v in e["signs"])),
                ("signs_to_id", out["id"] == tid),
                ("bell_table_from_id", (beta.coefficients.numerators, beta.coefficients.log_denominator) == e["coefficients"]),
                ("polynomial_string", out["text"] == e["text"]),
                ("parse_polynomial", out["parsed"] == beta),
                ("signs_from_coefficients", out["parsed_signs"] == out["signs"]),
                ("evaluate_nesting", out["rebuilt"] == beta),
                ("bell table JSON", out["beta_json"] == beta),
                ("nesting JSON", out["tree_json"] == out["tree"]),
            )
            if not ok
        ]
        return [f"{name} disagrees with the reference" for name in failed], False

    def cli_range(self, seed: int) -> tuple[int, int]:
        lo = int(np.random.default_rng([seed, 1]).integers(0, (1 << 16) - self.CLI_SPAN))
        return lo, lo + self.CLI_SPAN

    def cli_args(self, seed):
        lo, hi = self.cli_range(seed)
        return ["enumerate", "-n", "4", "--range", str(lo), str(hi)]

    def check_cli(self, seed, stdout):
        rows = _json_rows(stdout)
        ids = list(range(*self.cli_range(seed)))
        if [r["id"] for r in rows] != ids:
            return ["enumerate returned the wrong ids"]
        problems = []
        for r in rows:
            signs = ref.signs_of(4, r["id"])
            text = ref.polynomial_text(4, *ref.coefficients(4, r["id"]))
            if r["n"] != 4 or r["signs"] != "".join("+" if v > 0 else "-" for v in signs) or r["polynomial"] != text:
                problems.append(f"enumerate row for id {r['id']} disagrees with the reference")
        return problems


class Membership(Workload):
    """Dense simulation of separable states, the l1 criterion, and GHZ attainment."""

    name = "membership"
    PER_N = 16
    LP_MAX_SITES = 4

    def generate(self, seed, tiny):
        rng = np.random.default_rng(seed)
        items = []
        for n in (3, 4, 5):
            for k in range(2 if tiny else self.PER_N):
                terms = int(rng.integers(1, 7))
                rho = ref.separable_state(n, terms, rng)
                angles = tuple(map(tuple, rng.uniform(0.0, 2.0 * math.pi, size=(n, 2)).tolist()))
                phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
                phi = tuple(rng.uniform(0.0, 2.0 * math.pi, size=n).tolist())
                xi = ref.correlations(rho, angles)
                spec = ref.spectrum(xi)
                expect = {
                    "xi": xi,
                    "margin": float(np.abs(spec).sum()),
                    "spectrum": spec,
                    "extreme": ref.quantum_extreme_point(phi0, phi),
                }
                inputs = {"n": n, "terms": terms, "rho": rho, "angles": angles, "phi0": phi0, "phi": phi}
                items.append(Item(f"n{n}/{k}", f"n={n}", inputs, expect))
        return _interleaved(items, rng)

    def run(self, api, item):
        x = item.inputs
        qm, cl = api.quantum, api.classical
        xi = qm.simulate_correlations(qm.DensityMatrix(x["n"], x["rho"]), qm.ObservableSpec(x["angles"]))
        phases = qm.PhaseVector(x["phi0"], x["phi"])
        return {
            "xi": xi,
            "margin": cl.l1_margin(xi),
            "witness_id": api.inequality.signs_to_id(cl.witness(xi)),
            "ghz": qm.simulate_correlations(qm.ghz_state(x["n"]), qm.ghz_observables(phases)),
            "extreme": qm.extreme_point_q(phases),
        }

    def check(self, item, out):
        e = item.expect
        problems = []
        if not _close(out["xi"].xi, e["xi"], ref.FLOAT_TOL):
            problems.append("simulated correlations differ from the dense reference")
        if not abs(out["margin"] - e["margin"]) <= ref.FLOAT_TOL:
            problems.append(f"l1 margin {out['margin']!r}, reference {e['margin']!r}")
        if not out["margin"] <= ref.PPT_THRESHOLD:
            problems.append(f"separable state violates an inequality: margin {out['margin']!r}")
        decided = np.abs(e["spectrum"]) > ref.FLOAT_TOL
        bits = np.array([(out["witness_id"] >> r) & 1 for r in range(len(decided))], dtype=bool)
        if np.any(bits[decided] != (e["spectrum"] < 0)[decided]):
            problems.append("witness signs differ from the reference spectrum")
        if not _close(out["ghz"].xi, out["extreme"].xi, ref.GHZ_TOL):
            problems.append("GHZ correlations miss the quantum extreme point")
        if not _close(out["extreme"].xi, e["extreme"], ref.FLOAT_TOL):
            problems.append("extreme_point_q differs from the cosine formula")
        return problems, False

    def offpath(self, api, item, out):
        margin = out["margin"]
        if item.inputs["n"] > self.LP_MAX_SITES or abs(margin - 1.0) < ref.FLOAT_TOL:
            return [], {}
        agree = api.classical.lp_membership(out["xi"]) == (margin <= 1.0 + 1e-10)
        problems = [] if agree else [f"LP oracle disagrees with the l1 criterion at margin {margin!r}"]
        return problems, {"classical.lp_checked": 1, "classical.lp_agreed": int(agree)}

    def cli_args(self, seed):
        return ["ppt-check", "-n", "3", "--seed", str(seed)]

    def check_cli(self, seed, stdout):
        rows = _json_rows(stdout)
        r = rows[0] if len(rows) == 1 else {}
        ok = (
            r.get("passed") is True
            and r.get("n") == 3
            and r.get("seed") == seed
            and 0.0 < r.get("max_value", 0.0) <= ref.PPT_THRESHOLD
        )
        return [] if ok else [f"ppt-check output {stdout.strip()!r} fails the PPT bound check"]


WORKLOADS = {w.name: w for w in (Census(), Orbits(), Exact(), Membership())}


def input_mix(items: list[Item]) -> dict:
    """Counts of each input class, plus state terms where the workload has them."""
    mix: dict = {}
    for item in {item.key: item for item in items}.values():
        mix[item.kind] = mix.get(item.kind, 0) + 1
        if "terms" in item.inputs:
            key = f"{item.kind} terms"
            mix.setdefault(key, []).append(item.inputs["terms"])
    return mix
