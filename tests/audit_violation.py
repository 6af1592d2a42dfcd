"""Audit of max_violation on a fixed call list against recorded reference values.

    PYTHONPATH=src python tests/audit_violation.py            # check
    PYTHONPATH=src python tests/audit_violation.py --record   # rewrite the reference

The calls are the census representatives at n = 2..4 (seeds 0 and 1), seeded
random tables at n = 2..8, the Mermin tables at n = 3..10, the tables the CI
workflow pins, and the permutation-invariant tables at n = 7.  The reference,
tests/audit_violation.json, holds each call's value and `converged` flag as
recorded at the commit it names.  A check prints one JSON line per call and a
summary line, and exits 1 when a value falls below its reference by more than
1e-12 relative or a `converged` flag differs.  The summary's `repr_sha256` is
the sha256 of every call's `repr(max_violation(...))`, one line each in call
order: two trees that print the same digest return every field bit for bit
alike.  The digest is stable only with BLAS on one thread, which this script
sets (below).  --record runs the bellpoly on the path and writes its values,
with the commit of the checkout it comes from.

pytest does not collect this file (its name does not start with test_); a
check takes about a minute.  BLAS runs on one thread unless the environment
sets its thread count, so two runs of one tree print the same values, flags
and gradient norms: a threaded matmul can round by how it splits the work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")  # before numpy loads, as tests/conftest.py does

import bellpoly  # noqa: E402
from bellpoly.inequality import bell_table_from_id, mermin_sign_table, signs_to_id  # noqa: E402
from bellpoly.quantum import max_violation  # noqa: E402
from bellpoly.symmetry import classify_all  # noqa: E402
from bellpoly.transform import bits_word  # noqa: E402

REFERENCE = Path(__file__).with_name("audit_violation.json")
RELATIVE_TOL = 1e-12

# the tables the CI workflow's violation steps pin, with their seeds
PINNED = [
    ("seeded-6", 6, 7106521602475165645, 0),
    ("seeded-8", 8, 13654052880323412379663692421328806547061611885489941438207873342831887495669, 0),
    ("product-8", 8, 565650822594069889609449692321011630105713195700111045455418030752, 0),
    ("seed-46-5", 5, 2586769423, 46),
]


def calls() -> list[tuple[str, int, int, int]]:
    """(label, n, id, seed) of every audited call, in a fixed order."""
    out = [
        (f"census-{n}", n, rec.canonical_id, seed)
        for n in (2, 3, 4) for seed in (0, 1) for rec in classify_all(n)
    ]
    for n, count in ((2, 40), (3, 40), (4, 40), (5, 40), (6, 40), (7, 8), (8, 8)):
        ids = random.Random(2026 + n)
        out += [(f"random-{n}", n, ids.getrandbits(1 << n), 0) for _ in range(count)]
    out += [(f"mermin-{n}", n, signs_to_id(mermin_sign_table(n)), 0) for n in range(3, 11)]
    out += PINNED
    # f(r) from bit weight(r) of c; c and its complement give -beta, so f = +1 at weight 0
    weight = [r.bit_count() for r in range(1 << 7)]
    out += [("symmetric-7", 7, bits_word(c >> w & 1 for w in weight), 0) for c in range(0, 256, 2)]
    return out


def run_call(n: int, table_id: int, seed: int) -> dict:
    start = time.perf_counter()
    result = max_violation(bell_table_from_id(n, table_id), seed=seed)
    return {
        "repr": repr(result),
        "value": result.value,
        "converged": result.converged,
        "gradient_norm": result.gradient_norm,
        "starts": result.starts,
        "iterations": result.iterations,
        "seconds": round(time.perf_counter() - start, 4),
    }


def record() -> int:
    checkout = Path(bellpoly.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    rows = []
    for label, n, table_id, seed in calls():
        got = run_call(n, table_id, seed)
        rows.append({"label": label, "n": n, "id": table_id, "seed": seed,
                     "value": got["value"], "converged": got["converged"]})
    REFERENCE.write_text(json.dumps({"commit": commit, "calls": rows}, indent=1) + "\n")
    print(f"recorded {len(rows)} calls at {commit} into {REFERENCE}")
    return 0


def check() -> int:
    reference = json.loads(REFERENCE.read_text())
    expected = [(r["label"], r["n"], r["id"], r["seed"]) for r in reference["calls"]]
    if expected != calls():
        print(f"the call list differs from the one recorded in {REFERENCE}", file=sys.stderr)
        return 2
    below = flipped = 0
    worst = best = 0.0  # the largest relative fall below, and rise above, the reference
    digest = hashlib.sha256()
    start = time.perf_counter()
    for ref in reference["calls"]:
        got = run_call(ref["n"], ref["id"], ref["seed"])
        digest.update(got.pop("repr").encode() + b"\n")
        change = (got["value"] - ref["value"]) / ref["value"]
        fell, flip = change < -RELATIVE_TOL, got["converged"] != ref["converged"]
        below, flipped = below + fell, flipped + flip
        worst, best = min(worst, change), max(best, change)
        print(json.dumps({"label": ref["label"], "n": ref["n"], "id": ref["id"], "seed": ref["seed"],
                          **got, "reference": ref["value"], "relative_change": change,
                          "ok": not (fell or flip)}))
    summary = {
        "summary": True, "calls": len(reference["calls"]), "reference_commit": reference["commit"],
        "below_reference": below, "converged_flips": flipped,
        "largest_fall": -worst, "largest_rise": best, "repr_sha256": digest.hexdigest(),
        "seconds": round(time.perf_counter() - start, 1),
    }
    print(json.dumps(summary))
    return 1 if below or flipped else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite the reference from this bellpoly")
    return record() if parser.parse_args().record else check()


if __name__ == "__main__":
    sys.exit(main())
