"""CLI surface: subcommands, formats, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bellpoly
from bellpoly import classical, inequality, quantum
from bellpoly.cli import EXIT_INVALID, EXIT_NONCONVERGED, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_enumerate_single_id(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3", "--id", "0")
    assert code == EXIT_OK
    (row,) = json_lines(out)
    assert row == {"n": 3, "id": 0, "polynomial": "a1 b1 c1", "signs": "++++++++"}


def test_enumerate_all_n2(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--all")
    assert code == EXIT_OK
    rows = json_lines(out)
    assert len(rows) == 16
    assert [row["id"] for row in rows] == list(range(16))


def test_enumerate_range_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--range", "0", "3", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,id,polynomial,signs"
    assert len(lines) == 4


def test_enumerate_rejects_bad_input(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "enumerate", "-n", "2")
    assert exc.value.code == EXIT_INVALID and "required" in capsys.readouterr().err
    code, _, _ = run(capsys, "enumerate", "-n", "5", "--all")
    assert code == EXIT_INVALID
    code, _, _ = run(capsys, "enumerate", "-n", "2", "--id", "16")
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-n", "2", "--id", "5", "--range", "0", "2"),
        ("enumerate", "-n", "2", "--range", "0", "2", "--all"),
        ("enumerate", "-n", "2", "--all", "--id", "5"),
        ("id", "--mermin", "-n", "3", "--signs=++++"),
        ("id", "--signs", "+++-", "--polynomial", "a1 b1"),
        ("id", "-n", "2", "--polynomial", "a1 b1", "--mermin"),
    ],
)
def test_conflicting_sources_are_invalid(capsys, argv):
    """Two input sources exit 2 with argparse's message; neither silently wins."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INVALID and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_id_requires_a_source(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "id", "-n", "3")
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INVALID and captured.out == ""
    assert "one of the arguments --mermin --signs --polynomial is required" in captured.err


def _fresh_env() -> dict:
    """The environment of a fresh python process that imports this bellpoly."""
    src = str(Path(bellpoly.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run python in a fresh process that imports this bellpoly."""
    return subprocess.run([sys.executable, *args], env=_fresh_env(), capture_output=True, text=True, check=True)


def test_census_only_classify_loads_no_quantum():
    probe = (
        "import sys\n"
        "from bellpoly.cli import main\n"
        "assert main(['classify', '-n', '3', '--no-violations']) == 0\n"
        "print('bellpoly.quantum' in sys.modules, file=sys.stderr)"
    )
    assert _fresh_python("-c", probe).stderr.strip() == "False"


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_a_fresh_import_and_enumerate_load_no_heavy_modules(flags):
    """numpy, dataclasses and inspect stay unloaded by `import bellpoly` and by enumerate;
    typing too, where no site .pth file preloads it (-S)."""
    unwanted = ["numpy", "dataclasses", "inspect", *(["typing"] if flags else [])]
    probe = (
        "import sys\n"
        f"unwanted = {unwanted!r}\n"
        "import bellpoly\n"
        "print([m for m in unwanted if m in sys.modules], file=sys.stderr)\n"
        "from bellpoly.cli import main\n"
        "assert main(['enumerate', '-n', '2', '--range', '0', '3']) == 0\n"
        "print([m for m in unwanted if m in sys.modules], file=sys.stderr)"
    )
    proc = _fresh_python(*flags, "-c", probe)
    assert proc.stderr.splitlines() == ["[]", "[]"] and len(proc.stdout.splitlines()) == 3


def test_every_command_runs_without_scipy(tmp_path, capsys):
    """With scipy unimportable, each command exits and prints as it does with it."""
    path = tmp_path / "vectors.csv"
    path.write_text("1,1,1,1\n0.9,0.9,0.9,-0.9\n")
    commands = [
        ["enumerate", "-n", "2", "--range", "0", "3"],
        ["classify", "-n", "2", "--seed", "1"],
        ["membership", str(path)],
        ["violation", "-n", "3", "--id", "129"],
        ["ghz", "--phi0", "0.5", "--phi", "0,1.5,3"],
        ["id", "--mermin", "-n", "3"],
        ["ppt-check", "-n", "2", "--states", "2", "--specs", "2"],
    ]
    probe = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from bellpoly.cli import main\n"
        "results = []\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    results.append([code, out.getvalue()])\n"
        "print(json.dumps(results))"
    )
    blocked = json.loads(_fresh_python("-c", probe).stdout)
    assert blocked == [list(run(capsys, *argv)[:2]) for argv in commands]


def test_a_reader_that_stops_early_is_not_an_error():
    """`enumerate -n 4 --all | head -n 1` once exited 2 with "error: [Errno 32] Broken pipe"."""
    argv = [sys.executable, "-m", "bellpoly.cli", "enumerate", "-n", "4", "--all"]
    with subprocess.Popen(argv, env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    row = '{"n": 4, "id": 0, "polynomial": "a1 b1 c1 d1", "signs": "++++++++++++++++"}\n'
    assert (first, code, err) == (row, EXIT_OK, "")


class _FlushLog(io.StringIO):
    """A stdout that records how many lines it holds at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue().count("\n"))
        super().flush()


@pytest.mark.parametrize("fmt, header", [("json", 0), ("csv", 1)])
def test_each_row_is_flushed_as_it_is_written(monkeypatch, fmt, header):
    """One flush per row, right after it, so a reader of a pipe gets each row
    as it is made rather than when 8 KB have gathered."""
    stdout = _FlushLog()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["enumerate", "-n", "2", "--range", "0", "4", "--format", fmt]) == EXIT_OK
    assert stdout.flushed == [header + k for k in range(1, 5)]


@pytest.mark.parametrize("fmt, header", [("json", 0), ("csv", 1)])
@pytest.mark.parametrize(
    "argv, module, name, count",
    [
        (("enumerate", "-n", "2", "--range", "0", "4"), inequality, "polynomial_string", 4),
        (("classify", "-n", "2"), quantum, "max_violation", 2),
    ],
)
def test_rows_are_written_as_they_are_made(monkeypatch, argv, module, name, count, fmt, header):
    """Row k >= 1 is made after rows 0..k-1 are written; a CSV header takes its keys from row 0."""
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    real, written = getattr(module, name), []

    def counting(*args, **kwargs):
        written.append(stdout.getvalue().count("\n"))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    assert main([*argv, "--format", fmt]) == EXIT_OK
    assert written == [0] + [header + k for k in range(1, count)]


def test_classify_n2_with_violations(capsys):
    code, out, _ = run(capsys, "classify", "-n", "2", "--seed", "1")
    assert code == EXIT_OK
    rows = json_lines(out)
    assert [row["canonical_id"] for row in rows] == [0, 1]
    assert rows[0]["max_violation"] == pytest.approx(1.0, abs=1e-6)
    assert rows[1]["max_violation"] == pytest.approx(math.sqrt(2), abs=1e-6)
    assert all(row["seed"] == 1 for row in rows)


def test_classify_n3_rows_report_convergence(capsys):
    code, out, _ = run(capsys, "classify", "-n", "3")
    assert code == EXIT_OK
    rows = json_lines(out)
    assert len(rows) == 5 and all(row["converged"] is True for row in rows)
    for row in rows:
        keys = list(row)
        assert keys[keys.index("converged") + 1] == "gradient_norm"
        assert 0.0 <= row["gradient_norm"] <= 1e-8


def test_classify_exits_3_on_a_nonconverged_row(capsys, monkeypatch):
    real = quantum.max_violation

    def flag_chsh(beta, **kwargs):
        result = real(beta, **kwargs)
        if beta.coefficients.log_denominator:
            return quantum.ViolationResult(result.value, result.phases, False, 1.0)
        return result

    monkeypatch.setattr(quantum, "max_violation", flag_chsh)
    code, out, _ = run(capsys, "classify", "-n", "2")
    assert code == EXIT_NONCONVERGED
    assert [row["converged"] for row in json_lines(out)] == [True, False]


def test_classify_census_only_csv(capsys):
    code, out, _ = run(capsys, "classify", "-n", "3", "--no-violations", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,canonical_id,size,permutation_invariant,factorizing"
    assert len(lines) == 6


def test_membership_json_file(tmp_path, capsys):
    path = tmp_path / "vector.json"
    path.write_text(json.dumps({"n": 3, "xi": [0, 1, 1, 0, 1, 0, 0, -1]}))
    code, out, _ = run(capsys, "membership", str(path))
    assert code == EXIT_OK
    (row,) = json_lines(out)
    assert row["margin"] == pytest.approx(2.0, abs=1e-9)
    assert row["member"] is False
    assert row["witness_id"] == 232
    assert row["witness_signs"] == "+++-+---"


def test_membership_csv_rows(tmp_path, capsys):
    path = tmp_path / "vectors.csv"
    path.write_text("1,1,1,1\n0,0,0,0\n")
    code, out, _ = run(capsys, "membership", str(path))
    rows = json_lines(out)
    assert code == EXIT_OK
    assert rows[0]["member"] is True and rows[0]["margin"] == pytest.approx(1.0)
    assert rows[1]["margin"] == 0.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_empty_output_prints_nothing(tmp_path, capsys, fmt):
    code, out, err = run(capsys, "enumerate", "-n", "1", "--range", "0", "0", "--format", fmt)
    assert (code, out, err) == (EXIT_OK, "", "")
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, out, err = run(capsys, "membership", str(path), "--format", fmt)
    assert (code, out, err) == (EXIT_OK, "", "")


# sha256 of stdout recorded before the bit layout moved behind bellpoly.transform;
# a refactor that keeps these digests keeps the output byte for byte
RECORDED_DIGESTS = {
    ("enumerate", "-n", "3", "--all"): "f55fe55c064e9cb8166730ed73bb5bb4895a8abf94d558bf693a989244f22d8f",
    ("classify", "-n", "3"): "a2cb013afd1e3d065462d65b36f52170c753f51dd78d8150d2cfd64314bfce84",
    # recorded before the orbit sweep moved from gather tables to bit moves and cosets
    ("classify", "-n", "4", "--no-violations"): "fd85e6178481ddd2025e1755d15e2a899267d4b5b5e78473a821e98514f9b033",
    # recorded before the starts carried phi_n = 0 into the sweeps' first site step
    ("classify", "-n", "4"): "af9b1190a38dcada10e2e16dd1108ab316add7e1f64bc7950beb1951cc04c285",
    # recorded at commit 1bcc0de: every representative converges from seed 1's random starts too
    ("classify", "-n", "4", "--seed", "1"): "e18427cf92b3c438c3804b5aa45eec2e04a3b717cb7e545fa3696f4e0d551a1a",
}


@pytest.mark.parametrize("argv", list(RECORDED_DIGESTS))
def test_output_matches_the_recorded_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED_DIGESTS[argv]


@pytest.mark.parametrize(
    "name, content",
    [("nan.csv", "nan,0,0,0\n"), ("huge.json", '{"n": 1, "xi": [1%s, 0]}' % ("0" * 399))],
    ids=["nan", "huge_int"],
)
def test_membership_rejects_a_nan_entry(tmp_path, capsys, name, content):
    """abs(nan) > 1 is False; a NaN row once printed '"margin": NaN', which is not JSON.
    A 400-digit integer overflows float() and once ended in a traceback (exit 1)."""
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run(capsys, "membership", str(path))
    assert code == EXIT_INVALID and out == ""
    assert err == "error: correlation entries must lie in [-1, 1]\n"


@pytest.mark.parametrize(
    "content", ['[1, 0]', '{"n": 1, "xi": 5}', '{"n": "1", "xi": [1, 0]}', '{"n": 1, "xi": [null, 0]}']
)
def test_membership_rejects_a_json_file_of_the_wrong_shape(tmp_path, capsys, content):
    """Each of these once ended in a TypeError traceback (exit 1)."""
    path = tmp_path / "vector.json"
    path.write_text(content)
    code, out, err = run(capsys, "membership", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == 'error: expected a correlation vector object {"n": int, "xi": [numbers]}\n'


def test_membership_missing_file(capsys):
    code, _, err = run(capsys, "membership", "/nonexistent/vector.json")
    assert code == EXIT_INVALID and "error:" in err


def test_violation_mermin_n4(capsys):
    code, out, _ = run(capsys, "violation", "-n", "4", "--id", "6014")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert report["bound"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert report["attained_fraction"] == pytest.approx(1.0, abs=1e-6)
    assert report["converged"] is True
    assert report["seed"] == 0
    # phi0 and the site angles realize the value as a quantum extreme point
    phases = quantum.PhaseVector(report["phi0"], report["phases"])
    beta = inequality.bell_table_from_id(4, 6014)
    realized = inequality.evaluate(beta, quantum.extreme_point_q(phases))
    assert realized == pytest.approx(report["value"], abs=1e-6)


def test_violation_mermin_n3_converges(capsys):
    # id 129 is mermin_sign_table(3); its value is exactly 2
    code, out, _ = run(capsys, "violation", "-n", "3", "--id", "129")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["value"] == pytest.approx(2.0, abs=1e-9)
    assert report["converged"] is True


def test_ghz_command_reproduces_extreme_point(capsys):
    code, out, _ = run(
        capsys,
        "ghz",
        "--phi0",
        str(-math.pi / 2),
        "--phi",
        ",".join([str(math.pi / 2)] * 3),
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["n"] == 3
    expected = (0, 1, 1, 0, 1, 0, 0, -1)
    for got, want in zip(report["correlations"], expected):
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("phi0, phi, bad", [("nan", "0,0", "nan"), ("0", "inf,0", "inf")])
def test_ghz_rejects_non_finite_angles(capsys, phi0, phi, bad):
    code, out, err = run(capsys, "ghz", "--phi0", phi0, "--phi", phi)
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: angles must be finite, got {bad}\n"


def test_ghz_site_count_mismatch(capsys):
    code, _, _ = run(capsys, "ghz", "-n", "2", "--phi0", "0", "--phi", "1,2,3")
    assert code == EXIT_INVALID


def test_id_mermin(capsys):
    code, out, _ = run(capsys, "id", "--mermin", "-n", "3")
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 3, "id": 129}
    code, out, _ = run(capsys, "id", "--mermin", "-n", "6")
    assert json.loads(out) == {"n": 6, "id": 1692930046964590721}


def test_id_from_signs_and_polynomial(capsys):
    code, out, _ = run(capsys, "id", "--signs", "+++-")
    assert code == EXIT_OK and json.loads(out) == {"n": 2, "id": 8}
    code, out, _ = run(
        capsys, "id", "--polynomial", "1/2 a1 b1 + 1/2 a1 b2 + 1/2 a2 b1 - 1/2 a2 b2"
    )
    assert code == EXIT_OK and json.loads(out) == {"n": 2, "id": 8}
    # the term scan reads glued tokens, shuffled terms and factors, and tabs
    text = (
        "1/8b2d2a1c1\t+-1/8b1d1a2c1\t+1/8d1a2b2c1\t+1/8a2c1d2b2\t+-1/8d1b1a2c2\t+1/8b2a1c1d1\t"
        "+-1/8c2d2a1b1\t+-1/8d1b1a1c1\t+-3/8d2c2b2a2\t+-3/8a2c2d1b2\t+-1/8a1d1b1c2\t+-3/8c2d2a1b2\t"
        "+5/8b2d1a1c2\t+-1/8d2c2b1a2\t+-1/8a1b1c1d2\t+-1/8d2a2c1b1"
    )
    code, out, _ = run(capsys, "id", "-n", "4", "--polynomial", text)
    assert (code, out) == (EXIT_OK, '{"n": 4, "id": 15469}\n')


def test_id_takes_signs_that_start_with_minus(capsys):
    """Every odd id has f(0) = -1; argparse reads a separate '-+++' as an option,
    so such tables are given as --signs=-+++."""
    code, out, _ = run(capsys, "id", "--signs=-+++")
    assert code == EXIT_OK and out == '{"n": 2, "id": 1}\n'


def test_id_rejects_non_extremal_polynomial(capsys):
    code, _, _ = run(capsys, "id", "--polynomial", "1/4 a1 b1 + 1/4 a2 b2")
    assert code == EXIT_INVALID
    code, _, _ = run(capsys, "id", "--signs", "++0-")
    assert code == EXIT_INVALID
    code, out, err = run(capsys, "id", "--signs=+++")
    assert (code, out, err) == (EXIT_INVALID, "", "error: got 3 signs, expected a power of two\n")
    code, _, _ = run(capsys, "id", "--mermin")
    assert code == EXIT_INVALID
    # the error names the first r whose transform value is not +-1, or where the term scan stopped
    for text, message in (
        ("1/2 a1 b1 + 1/2 a2 b2", "transform value 0 at r=1 is not +-1"),
        ("a1 b1 + 1/2 # a2 b2", "cannot parse polynomial near ' # a2 b2'"),
    ):
        code, out, err = run(capsys, "id", "--polynomial", text)
        assert (code, out, err) == (EXIT_INVALID, "", f"error: {message}\n")


def test_id_rejects_a_zero_denominator(capsys):
    code, out, err = run(capsys, "id", "--polynomial", "1/0 a1 b1")
    assert code == EXIT_INVALID and out == ""
    assert err == "error: coefficient '1/0' has a zero denominator\n"


def test_id_checks_the_site_count_against_n(capsys):
    chsh = "1/2 a1 b1 + 1/2 a1 b2 + 1/2 a2 b1 - 1/2 a2 b2"
    code, out, err = run(capsys, "id", "-n", "3", "--signs", "++++")
    assert code == EXIT_INVALID and out == "" and "-n 3" in err
    code, out, err = run(capsys, "id", "-n", "3", "--polynomial", chsh)
    assert code == EXIT_INVALID and out == "" and "expected n=3" in err
    for flag, value in (("--signs", "+++-"), ("--polynomial", chsh)):
        code, out, _ = run(capsys, "id", "-n", "2", flag, value)
        assert code == EXIT_OK and json.loads(out) == {"n": 2, "id": 8}


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-n", "-1", "--range", "0", "1"),
        ("enumerate", "-n", "32", "--range", "0", "1"),
        ("enumerate", "-n", "0", "--all"),
        ("id", "--polynomial", "0", "-n", "40"),
        ("id", "--polynomial", "0", "-n", "-1"),
    ],
)
def test_site_count_is_checked_before_anything_is_sized_by_it(capsys, argv):
    # 2^(2^32) ids or a 2^40-entry table would be built before the check
    n = argv[argv.index("-n") + 1]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: site count must be in 1..31, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-n", "14", "--id", "1"),
        ("enumerate", "-n", "24", "--id", "1"),
        ("enumerate", "-n", "31", "--id", "1"),
        ("enumerate", "-n", "14", "--range", "0", "1"),
        ("id", "--mermin", "-n", "14"),
        ("id", "--mermin", "-n", "31"),
        ("id", "-n", "31", "--polynomial", "0"),
    ],
)
def test_id_site_count_is_checked_before_any_table_is_sized(capsys, argv):
    """A 2^14-bit id has up to 4,933 digits, past Python's 4,300-digit int/str limit;
    n is checked before a 2^n-entry table exists (2^31 entries die with a MemoryError)."""
    n = argv[argv.index("-n") + 1]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_INVALID, "") and peak < 1 << 20
    assert err == f"error: ids are limited to n <= 13 (4,300 decimal digits), got {n}\n"


@pytest.mark.parametrize("sites", [14, 26])
def test_id_checks_the_site_count_of_a_polynomial_before_parsing(capsys, monkeypatch, sites):
    """Without -n the last site letter bounds n; 26 sites once built a 2^26-entry
    table before the cap was checked and died with a MemoryError."""
    def parse(*args):
        pytest.fail("the polynomial was parsed before the id cap was checked")

    monkeypatch.setattr(inequality, "parse_polynomial", parse)
    text = " ".join(f"{c}1" for c in "abcdefghijklmnopqrstuvwxyz"[:sites])
    code, out, err = run(capsys, "id", "--polynomial", text)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: ids are limited to n <= 13 (4,300 decimal digits), got {sites}\n"


def test_id_checks_the_site_count_of_a_long_sign_string(capsys):
    code, out, err = run(capsys, "id", "--signs=" + "-" * (1 << 14))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: ids are limited to n <= 13 (4,300 decimal digits), got 14\n"


def test_id_and_enumerate_reach_13_sites(capsys):
    f = inequality.mermin_sign_table(13)
    code, out, _ = run(capsys, "id", "--mermin", "-n", "13")
    assert code == EXIT_OK and json.loads(out) == {"n": 13, "id": inequality.signs_to_id(f)}
    code, out, _ = run(capsys, "enumerate", "-n", "13", "--id", str(json.loads(out)["id"]))
    assert code == EXIT_OK and json.loads(out)["signs"] == "".join("+-"[v < 0] for v in f.signs)


def test_enumerate_range_bound_is_exact(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--range", "15", "16")
    assert code == EXIT_OK and [row["id"] for row in json_lines(out)] == [15]
    for lo, hi in ((0, 17), (2, 1), (-1, 0)):
        code, out, err = run(capsys, "enumerate", "-n", "2", "--range", str(lo), str(hi))
        assert code == EXIT_INVALID and err == f"error: range [{lo}, {hi}) out of bounds for n=2\n"
    code, out, _ = run(capsys, "enumerate", "-n", "1", "--range", "0", "0")
    assert code == EXIT_OK and out == ""


def test_ppt_check_small_run(capsys):
    code, out, _ = run(
        capsys, "ppt-check", "-n", "2", "--states", "3", "--specs", "3", "--seed", "7"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_value"] <= 1.0 + 1e-9
    assert report["seed"] == 7


def test_ppt_check_uses_the_membership_threshold(capsys):
    """ppt-check's passed and membership's member answer one question: is the margin classical."""
    code, out, _ = run(capsys, "ppt-check", "-n", "2", "--states", "1", "--specs", "1")
    assert code == EXIT_OK and json.loads(out)["threshold"] == 1.0 + classical.BOUNDARY_TOL


def test_ppt_check_names_a_replayable_worst_case(capsys):
    args = ("-n", "3", "--states", "4", "--specs", "5", "--terms", "2", "--seed", "11")
    code, out, _ = run(capsys, "ppt-check", *args)
    assert code == EXIT_OK
    report = json.loads(out)
    assert 0 <= report["worst_state"] < 4 and 0 <= report["worst_spec"] < 5
    # replay the seeded loops up to the named pair
    rng = np.random.default_rng(11)
    for _ in range(report["worst_state"] + 1):
        rho = quantum.sample_separable(3, 2, rng)
        pairs = [rng.uniform(0.0, 2.0 * np.pi, size=(3, 2)) for _ in range(5)]
    spec = quantum.ObservableSpec(tuple(map(tuple, pairs[report["worst_spec"]])))
    margin = classical.l1_margin(quantum.simulate_correlations(rho, spec))
    assert round(margin, 12) == report["max_value"]


@pytest.mark.parametrize(
    "flag, count",
    [("--states", "0"), ("--states", "-5"), ("--specs", "0"), ("--specs", "-3"), ("--terms", "0"), ("--terms", "-2")],
)
def test_ppt_check_rejects_counts_below_one(capsys, flag, count):
    """A run that would check nothing, or mix no state, is invalid input, not a pass."""
    code, out, err = run(capsys, "ppt-check", flag, count)
    assert code == EXIT_INVALID and out == ""
    reason = "need at least one term" if flag == "--terms" else f"{flag} must be at least 1"
    assert err == f"error: {reason}, got {count}\n"
