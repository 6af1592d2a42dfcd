"""Command-line interface.

Subcommands: enumerate, classify, membership, violation, ghz, id, ppt-check.
Each command yields its rows, and each row is written as soon as it is made,
as one JSON line (or a CSV row via --format csv).  Randomized commands take
--seed and echo it.  Exit codes: 0 success (also when the reader closes
stdout early), 2 invalid input, 3 a printed row has "converged" false.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import inequality
from .transform import site_count

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3

_ENUM_ALL_MAX_SITES = 4
_ID_MAX_SITES = 13  # a 2^14-bit id has up to 4,933 digits, past Python's 4,300-digit int/str limit
_CENSUS_FIELDS = ("n", "canonical_id", "size", "permutation_invariant", "factorizing")


def _signs_string(f: inequality.SignTable) -> str:
    return "".join("+" if v > 0 else "-" for v in f.signs)


def _signs_from_string(text: str) -> inequality.SignTable:
    cleaned = text.strip()
    if set(cleaned) - {"+", "-"}:
        raise ValueError("signs must be a string over '+' and '-'")
    m = len(cleaned)
    if m == 0 or m & (m - 1):
        raise ValueError(f"got {m} signs, expected a power of two")
    values = tuple(1 if ch == "+" else -1 for ch in cleaned)
    return inequality.SignTable(m.bit_length() - 1, values)


def _id_site_count(n: int) -> int:
    if site_count(n) > _ID_MAX_SITES:
        raise ValueError(f"ids are limited to n <= {_ID_MAX_SITES} (4,300 decimal digits), got {n}")
    return n


def _emit_rows(rows: Iterable[dict], fmt: str, stream) -> int:
    """Write and flush each row as it is made: a JSON line, or CSV under the first row's keys.

    Returns EXIT_NONCONVERGED if any row written has "converged" false, else EXIT_OK.
    """
    writer, code = None, EXIT_OK
    for row in rows:
        if fmt == "json":
            stream.write(json.dumps(row) + "\n")
        else:
            if writer is None:
                writer = csv.DictWriter(stream, fieldnames=list(row))
                writer.writeheader()
            writer.writerow(row)
        stream.flush()  # a reader of a pipe gets each row now, not when 8 KB have gathered
        if not row.get("converged", True):
            code = EXIT_NONCONVERGED
    return code


def cmd_enumerate(args: argparse.Namespace) -> Iterator[dict]:
    n = _id_site_count(args.n)
    if args.id is not None:
        ids = [args.id]
    elif args.range is not None:
        lo, hi = args.range
        if not 0 <= lo <= hi or (hi - 1).bit_length() > 1 << n:  # hi <= 2^(2^n)
            raise ValueError(f"range [{lo}, {hi}) out of bounds for n={n}")
        ids = range(lo, hi)
    else:
        if n > _ENUM_ALL_MAX_SITES:
            raise ValueError(
                f"--all would stream 2^(2^{n}) lines; use --range for n > {_ENUM_ALL_MAX_SITES}"
            )
        ids = range(1 << (1 << n))

    for value in ids:
        f = inequality.id_to_signs(n, value)
        beta = inequality.coefficients_from_signs(f)
        yield {
            "n": n,
            "id": value,
            "polynomial": inequality.polynomial_string(beta),
            "signs": _signs_string(f),
        }


def cmd_classify(args: argparse.Namespace) -> Iterator[dict]:
    from . import symmetry
    for orb in symmetry.classify_all(args.n):
        row = {name: getattr(orb, name) for name in _CENSUS_FIELDS}
        if not args.no_violations:
            from . import quantum
            beta = inequality.bell_table_from_id(orb.n, orb.canonical_id)
            result = quantum.max_violation(beta, seed=args.seed)
            row["max_violation"] = round(result.value, 9)
            row["seed"] = args.seed
            row["converged"] = result.converged
            row["gradient_norm"] = round(result.gradient_norm, 9)
        yield row


def cmd_membership(args: argparse.Namespace) -> Iterator[dict]:
    from . import classical
    path = Path(args.file)
    text = path.read_text()
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        vectors = [classical.correlation_vector_from_json(json.loads(text))]
    else:
        vectors = classical.correlation_vectors_from_csv(text.splitlines())
    for xi in vectors:
        margin = classical.l1_margin(xi)
        wit = classical.witness(xi)
        yield {
            "n": xi.n,
            "margin": round(margin, 12),
            "member": bool(margin <= 1.0 + classical.BOUNDARY_TOL),
            "witness_id": inequality.signs_to_id(wit),
            "witness_signs": _signs_string(wit),
        }


def cmd_violation(args: argparse.Namespace) -> Iterator[dict]:
    from . import quantum
    # the value is realized on the n-qubit GHZ state; check n before any table or grid exists
    beta = inequality.bell_table_from_id(quantum._qubit_count(args.n), args.id)
    result = quantum.max_violation(beta, seed=args.seed)
    bound = quantum.mermin_bound(args.n)
    yield {
        "n": args.n,
        "id": args.id,
        "value": round(result.value, 9),
        "phi0": round(result.phases.phi0, 9),
        "phases": [round(v, 9) for v in result.phases.phi],
        "bound": round(bound, 9),
        "attained_fraction": round(result.value / bound, 9),
        "seed": args.seed,
        "converged": result.converged,
    }


def cmd_ghz(args: argparse.Namespace) -> Iterator[dict]:
    from . import quantum
    phi = tuple(float(v) for v in args.phi.split(","))
    if args.n is not None and args.n != len(phi):
        raise ValueError(f"-n {args.n} but {len(phi)} site angles given")
    phases = quantum.PhaseVector(args.phi0, phi)
    obs = quantum.ghz_observables(phases)
    xi = quantum.simulate_correlations(quantum.ghz_state(phases.n), obs)
    yield {
        "n": phases.n,
        "phi0": phases.phi0,
        "phi": list(phases.phi),
        "alpha": phases.phi0 / phases.n,
        "observable_angles": [list(pair) for pair in obs.angles],
        "correlations": [round(v, 12) for v in xi.xi],
    }


def cmd_id(args: argparse.Namespace) -> Iterator[dict]:
    n = None if args.n is None else _id_site_count(args.n)
    if args.mermin:
        if n is None:
            raise ValueError("--mermin requires -n")
        f = inequality.mermin_sign_table(n)
    elif args.signs is not None:
        f = _signs_from_string(args.signs)
        if n is not None and n != f.n:
            raise ValueError(f"-n {n} but {len(f.signs)} signs given (n={f.n})")
    else:
        # n is the last site letter named; check it before a 2^n table exists
        if n is None and (letters := re.findall(r"[a-z](?=\d)", args.polynomial)):
            _id_site_count(inequality._SITE_LETTERS.index(max(letters)) + 1)
        beta = inequality.parse_polynomial(args.polynomial, n)
        f = inequality.signs_from_coefficients(beta)
    yield {"n": _id_site_count(f.n), "id": inequality.signs_to_id(f)}


def cmd_ppt_check(args: argparse.Namespace) -> Iterator[dict]:
    import numpy as np

    from . import classical, quantum
    for flag, count in (("--states", args.states), ("--specs", args.specs)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    rng = np.random.default_rng(args.seed)
    threshold = 1.0 + classical.BOUNDARY_TOL  # the `membership` threshold
    worst, worst_state, worst_spec = 0.0, None, None
    for state_index in range(args.states):
        rho = quantum.sample_separable(args.n, args.terms, rng)
        for spec_index in range(args.specs):
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(args.n, 2))
            spec = quantum.ObservableSpec(tuple(map(tuple, angles)))
            margin = classical.l1_margin(quantum.simulate_correlations(rho, spec))
            if margin > worst:
                worst, worst_state, worst_spec = margin, state_index, spec_index
    yield {
        "n": args.n,
        "states": args.states,
        "specs": args.specs,
        "terms": args.terms,
        "seed": args.seed,
        "max_value": round(worst, 12),
        "threshold": threshold,
        "passed": bool(worst <= threshold),
        "worst_state": worst_state,
        "worst_spec": worst_spec,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellpoly",
        description="Multipartite Bell correlation inequalities toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="emit inequalities by number")
    p.add_argument("-n", type=int, required=True, help="site count")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--id", type=int, help="a single inequality number")
    source.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"), help="half-open id range")
    source.add_argument("--all", action="store_true", help="every id (n <= 4)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="orbit census with quantum violations")
    p.add_argument("-n", type=int, required=True, help="site count (<= 4)")
    p.add_argument("--no-violations", action="store_true", help="census only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("membership", help="classical membership of correlation vectors")
    p.add_argument("file", help="correlation vector file (.json object or CSV rows)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("violation", help="maximal quantum violation of one inequality")
    p.add_argument("-n", type=int, required=True, help="site count (1..12; n >= 11 runs for minutes)")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_violation)

    p = sub.add_parser("ghz", help="GHZ correlations for given phases")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--phi0", type=float, required=True)
    p.add_argument("--phi", type=str, required=True, help="comma-separated site angles")
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser("id", help="number an inequality given signs or polynomial")
    p.add_argument("-n", type=int, default=None)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--mermin", action="store_true")
    source.add_argument("--signs", type=str, help="e.g. '+++-'; give '--signs=-+++' when the first sign is '-'")
    source.add_argument("--polynomial", type=str, help="e.g. '1/2 a1 b1 + ... - 1/2 a2 b2'")
    p.set_defaults(func=cmd_id)

    p = sub.add_parser("ppt-check", help="l1 margins of sampled separable mixtures (no entangled PPT states yet)")
    p.add_argument("-n", type=int, default=3)
    p.add_argument("--states", type=int, default=20)
    p.add_argument("--specs", type=int, default=10)
    p.add_argument("--terms", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ppt_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _emit_rows(args.func(args), getattr(args, "format", "json"), sys.stdout)
    except BrokenPipeError:
        # the reader stopped early; the interpreter's final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
