"""Classical region: extreme points, spectrum, margin, witness, membership oracle."""

import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellpoly.classical import (
    BOUNDARY_TOL,
    CorrelationVector,
    correlation_vector_from_json,
    correlation_vectors_from_csv,
    extreme_point,
    l1_margin,
    lp_membership,
    spectrum,
    witness,
)
import bellpoly
from bellpoly import classical
from bellpoly.inequality import bell_table_from_id, coefficients_from_signs, evaluate, id_to_signs, signs_to_id
from bellpoly.transform import DimensionMismatchError, bit_matrix

GHZ_MERMIN = CorrelationVector(3, (0, 1, 1, 0, 1, 0, 0, -1))


def test_extreme_point_examples():
    assert extreme_point(2, 0b00).xi == (1, 1, 1, 1)
    assert extreme_point(2, 0b11).xi == (1, -1, -1, 1)
    assert extreme_point(2, 0b01, sign=-1).xi == (-1, 1, -1, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_extreme_point_matches_its_definition(n):
    for r, sign in itertools.product(range(1 << n), (1, -1)):
        xi = extreme_point(n, r, sign).xi
        assert xi == tuple(float(sign * (-1) ** (r & s).bit_count()) for s in range(1 << n))
        assert all(type(v) is float for v in xi)


def test_extreme_point_validation():
    with pytest.raises(ValueError):
        extreme_point(2, 4)
    with pytest.raises(ValueError):
        extreme_point(2, -1)
    with pytest.raises(ValueError):
        extreme_point(2, 0, sign=2)


def test_mix_point_mass_and_cancellation():
    n = 2
    ones = np.clip(1.0 * np.asarray(extreme_point(n, 0).xi), -1.0, 1.0)
    assert CorrelationVector(n, tuple(ones)).xi == (1, 1, 1, 1)
    zero = np.clip(
        0.5 * np.asarray(extreme_point(n, 0).xi) + 0.5 * np.asarray(extreme_point(n, 0, -1).xi), -1.0, 1.0
    )
    assert CorrelationVector(n, tuple(zero)).xi == (0, 0, 0, 0)
    uniform = np.clip(sum(0.25 * np.asarray(extreme_point(n, r).xi) for r in range(4)), -1.0, 1.0)
    assert CorrelationVector(n, tuple(uniform)).xi == (1, 0, 0, 0)


def test_spectrum_of_extreme_point_is_a_spike():
    for r in range(8):
        sp = spectrum(extreme_point(3, r))
        expected = np.zeros(8)
        expected[r] = 1.0
        assert np.allclose(sp, expected, atol=1e-15)


def test_spectrum_frozen_example():
    sp = spectrum(GHZ_MERMIN)
    assert np.allclose(
        sp, (0.25, 0.25, 0.25, -0.25, 0.25, -0.25, -0.25, -0.25), atol=1e-15
    )


def test_spectrum_linearity():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 8)
    y = rng.uniform(-1, 1, 8)
    a, b = 0.3, -0.6
    lhs = spectrum(CorrelationVector(3, tuple(a * x + b * y)))
    rhs = a * spectrum(CorrelationVector(3, tuple(x))) + b * spectrum(
        CorrelationVector(3, tuple(y))
    )
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_margin_examples():
    assert l1_margin(extreme_point(3, 5, -1)) == pytest.approx(1.0, abs=1e-14)
    assert l1_margin(GHZ_MERMIN) == pytest.approx(2.0, abs=1e-14)
    assert l1_margin(CorrelationVector(2, (0, 0, 0, 0))) == 0.0
    assert l1_margin(GHZ_MERMIN) > 1.0 + BOUNDARY_TOL


def test_margin_homogeneity():
    rng = np.random.default_rng(8)
    xi = CorrelationVector(3, tuple(rng.uniform(-1, 1, 8)))
    for lam in (0.0, 0.25, -0.8):
        assert l1_margin(CorrelationVector(3, tuple(lam * v for v in xi.xi))) == pytest.approx(
            abs(lam) * l1_margin(xi), abs=1e-12
        )


def test_witness_attains_the_margin():
    rng = np.random.default_rng(21)
    for _ in range(50):
        xi = CorrelationVector(3, tuple(rng.uniform(-1, 1, 8)))
        beta = coefficients_from_signs(witness(xi))
        assert evaluate(beta, xi) == pytest.approx(l1_margin(xi), abs=1e-12)


def test_witness_frozen_example_lands_in_mermin_orbit():
    from bellpoly.symmetry import orbit_of_id

    w = witness(GHZ_MERMIN)
    assert w.signs == (1, 1, 1, -1, 1, -1, -1, -1)
    assert signs_to_id(w) in orbit_of_id(3, 23)


def test_witness_odd_symmetry():
    rng = np.random.default_rng(2)
    xi = CorrelationVector(3, tuple(rng.uniform(-1, 1, 8)))
    flipped = witness(CorrelationVector(3, tuple(-v for v in xi.xi)))
    sp = spectrum(xi)
    for r, value in enumerate(sp):
        if abs(value) > 1e-12:
            assert flipped.signs[r] == -witness(xi).signs[r]


def test_witness_beats_random_inequalities():
    rng = np.random.default_rng(33)
    for _ in range(20):
        xi = CorrelationVector(2, tuple(rng.uniform(-1, 1, 4)))
        best = evaluate(coefficients_from_signs(witness(xi)), xi)
        for _ in range(100):
            f = id_to_signs(2, int(rng.integers(0, 16)))
            assert evaluate(coefficients_from_signs(f), xi) <= best + 1e-12


def test_mixtures_never_violate_extremal_inequalities():
    rng = np.random.default_rng(44)
    for _ in range(30):
        weights = rng.dirichlet(np.ones(8))
        keys = [(int(rng.integers(0, 4)), 1 if rng.integers(0, 2) else -1) for _ in range(8)]
        merged = {}
        for k, w in zip(keys, weights):
            merged[k] = merged.get(k, 0.0) + float(w)
        acc = sum(w * np.asarray(extreme_point(2, r, sign).xi) for (r, sign), w in merged.items())
        xi = CorrelationVector(2, tuple(np.clip(acc, -1.0, 1.0)))
        for value in range(16):
            beta = bell_table_from_id(2, value)
            assert abs(evaluate(beta, xi)) <= 1.0 + 1e-12


def test_lp_membership_examples():
    assert lp_membership(extreme_point(2, 0))
    assert not lp_membership(GHZ_MERMIN)
    assert lp_membership(CorrelationVector(3, tuple(0.49 * v for v in GHZ_MERMIN.xi)))
    with pytest.raises(ValueError):
        lp_membership(CorrelationVector(5, (0.0,) * 32))


def test_lp_agrees_with_margin_on_samples():
    rng = np.random.default_rng(99)
    for n in (2, 3):
        for _ in range(150):
            xi = CorrelationVector(n, tuple(rng.uniform(-1, 1, 1 << n)))
            margin = l1_margin(xi)
            if abs(margin - 1.0) < 1e-9:
                continue
            assert lp_membership(xi) == (margin <= 1.0)


def linprog_membership(xi):
    """Reference oracle: LP feasibility of xi as a convex combination of extreme points."""
    from scipy.optimize import linprog

    bits = bit_matrix(xi.n)
    signs = 1.0 - 2.0 * ((bits @ bits.T) % 2)  # column r is the extreme point (+r)
    a_eq = np.vstack([np.hstack([signs, -signs]), np.ones((1, 2 << xi.n))])
    b_eq = np.append(np.asarray(xi.xi), 1.0)
    res = linprog(c=np.zeros(2 << xi.n), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    assert res.status in (0, 2), res.message  # feasible or infeasible, nothing else
    return res.status == 0


def scaled_to_margin(rng, n, target):
    """A seeded vector with l1 margin `target` and every entry in [-1, 1]."""
    while True:
        v = rng.uniform(-1, 1, 1 << n)
        v *= target / l1_margin(CorrelationVector(n, tuple(v)))
        if np.abs(v).max() <= 1.0:
            return CorrelationVector(n, tuple(v))


def test_lp_membership_matches_the_linprog_reference():
    """Away from the boundary, where the LP's own tolerance decides nothing."""
    rng = np.random.default_rng(15)
    for n in (2, 3, 4):
        verdicts = set()
        for _ in range(60):
            xi = scaled_to_margin(rng, n, rng.uniform(0.5, 1.5))
            if abs(l1_margin(xi) - 1.0) < 1e-6:
                continue
            verdicts.add(lp_membership(xi))
            assert lp_membership(xi) == linprog_membership(xi)
        assert verdicts == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lp_membership_resolves_the_boundary(n):
    """Margins 1 +- 1e-9, 1e-7, 1e-5 land on the side the l1 criterion puts them."""
    rng = np.random.default_rng(100 + n)
    for gap in (1e-9, 1e-7, 1e-5):
        for target in (1.0 - gap, 1.0 + gap):
            for _ in range(10):
                xi = scaled_to_margin(rng, n, target)
                assert lp_membership(xi) == (l1_margin(xi) <= 1.0), (gap, l1_margin(xi))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nnls_residual_matches_the_scipy_reference(n):
    """The numpy solver and scipy's nnls agree on the residual, inside, outside and within
    1e-6 of the boundary."""
    from scipy.optimize import nnls

    rng = np.random.default_rng(300 + n)
    a = classical._oracle_matrix(n)
    targets = [
        *rng.uniform(0.5, 1.0 - 1e-6, 40),  # inside
        *rng.uniform(1.0 + 1e-6, 1.3, 40),  # outside
        *(1.0 + rng.uniform(-1e-6, 1e-6, 40)),  # within 1e-6 of the boundary
    ]
    for target in targets:
        b = np.append(np.asarray(scaled_to_margin(rng, n, target).xi), 1.0)
        assert abs(classical._nnls_residual(a, b) - nnls(a, b)[1]) <= 1e-12, target


def test_nnls_iteration_cap_raises(monkeypatch):
    """A solver that runs out of iterations raises; it never reports infeasibility."""
    monkeypatch.setattr(classical, "_NNLS_MAX_ITER", 0)
    for xi in (extreme_point(2, 0), GHZ_MERMIN):
        with pytest.raises(RuntimeError):
            lp_membership(xi)


def _fresh_run(*args: str) -> subprocess.CompletedProcess:
    """Run python with these arguments in a fresh process that imports this bellpoly."""
    src = str(Path(bellpoly.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )


def test_import_loads_no_scipy():
    """scipy loads neither at `import bellpoly` nor when the membership oracle runs, and
    with scipy unimportable the oracle gives the verdicts it gives here."""
    probe = "import sys, bellpoly; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_run("-c", probe).stdout.strip() == "[]"
    inside, outside = CorrelationVector(3, tuple(0.49 * v for v in GHZ_MERMIN.xi)), GHZ_MERMIN
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from bellpoly.classical import CorrelationVector, lp_membership\n"
        f"print([lp_membership(CorrelationVector(3, xi)) for xi in {[inside.xi, outside.xi]!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m] is not None))"
    )
    verdicts, loaded = _fresh_run("-c", probe).stdout.splitlines()
    assert verdicts == str([lp_membership(inside), lp_membership(outside)]) == "[True, False]"
    assert loaded == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["enumerate", "-n", "4", "--range", "0", "4"],
        ["id", "--mermin", "-n", "3"],
    ],
    ids=["import", "enumerate", "id"],
)
def test_exact_paths_load_no_numpy(argv):
    """`import bellpoly`, and `python -m bellpoly.cli` on an exact command, load neither
    numpy nor scipy (the command writes to stdout, the probe to stderr)."""
    probe = "import runpy, sys, bellpoly\n"
    if argv:
        probe += (
            f"sys.argv = ['bellpoly', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('bellpoly.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
        )
    probe += "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')), file=sys.stderr)"
    assert _fresh_run("-c", probe).stderr.strip() == "[]"


# every public name of the package before its float modules were deferred
_PACKAGE_NAMES = """
    BOUNDARY_TOL CorrelationVector extreme_point l1_margin lp_membership spectrum witness
    NestingLeaf NestingNode chsh_decompose evaluate_nesting full_nesting substitute
    BellTable NotExtremalError SignTable bell_table_from_id coefficients_from_signs evaluate
    id_to_signs mermin_sign_table parse_polynomial polynomial_string signs_from_coefficients
    signs_to_id DensityMatrix ObservableSpec PhaseVector bell_operator_norm_exact
    extreme_point_q ghz_observables ghz_state max_violation mermin_bound partial_transpose
    sample_separable simulate_correlations GroupElement Orbit apply classify_all group_order
    orbit_of_id DimensionMismatchError DyadicVector walsh_hadamard
    classical compose inequality quantum symmetry transform
""".split()


def test_package_names_resolve_lazily():
    """Each old name is in __all__ and dir(bellpoly) before anything loads numpy, resolves
    by `from bellpoly import` and as bellpoly.<name> to the object its module defines,
    and `import *` binds them all; an unknown name still raises AttributeError."""
    probe = f"""
import sys, types
import bellpoly
names = {_PACKAGE_NAMES!r}
assert sorted(bellpoly.__all__) == sorted(names), set(bellpoly.__all__) ^ set(names)
assert set(names) <= set(dir(bellpoly))
assert 'numpy' not in sys.modules
assert bellpoly.symmetry.orbit_of_id is bellpoly.orbit_of_id  # a deferred module by attribute
for name in names:
    exec(f'from bellpoly import {{name}} as imported', globals())
    assert getattr(bellpoly, name) is imported, name
    if not isinstance(imported, types.ModuleType):
        homes = [getattr(bellpoly, m) for m in ('classical', 'compose', 'inequality', 'quantum', 'symmetry', 'transform')]
        assert any(getattr(m, name, None) is imported for m in homes), name
star = {{}}
exec('from bellpoly import *', star)
assert set(names) <= set(star), set(names) - set(star)
try:
    bellpoly.no_such_name
except AttributeError as exc:
    assert "no attribute 'no_such_name'" in str(exc)
else:
    raise AssertionError('an unknown name resolved')
print('ok')
"""
    assert _fresh_run("-c", probe).stdout.strip() == "ok"


def test_correlation_vector_validation():
    with pytest.raises(ValueError):
        CorrelationVector(2, (1.5, 0, 0, 0))
    with pytest.raises(Exception):
        CorrelationVector(2, (1, 1, 1))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="must lie in"):
            CorrelationVector(2, (0, bad, 0, 0))
    # entries within 1e-9 of [-1, 1] pass; past it, non-finite at either end
    # of the vector, or an int past the float range, they fail
    for edge in (1.0 + 1e-9, -(1.0 + 1e-9)):
        assert CorrelationVector(2, (edge, 0.0, 0.0, edge)).xi == (edge, 0.0, 0.0, edge)
    outside = (1.0 + 2e-9, -(1.0 + 2e-9), math.nan, math.inf, -math.inf, 10**400)
    for bad, pos in itertools.product(outside, (0, 3)):
        xi = [0.5, 0.0, -0.5, 0.25]
        xi[pos] = bad
        with pytest.raises(ValueError, match=r"^correlation entries must lie in \[-1, 1\]$"):
            CorrelationVector(2, tuple(xi))
    v = CorrelationVector(2, (np.float32(0.5), np.int64(-1), np.float32(-0.25), np.int64(1)))
    assert v.xi == (0.5, -1.0, -0.25, 1.0) and all(type(x) is float for x in v.xi)
    v = CorrelationVector.from_values([0.5, -0.5])
    assert v.n == 1
    for values in ([], [0.5, 0.5, 0.5]):
        with pytest.raises(DimensionMismatchError, match=f"^length {len(values)} is not a power of two$"):
            CorrelationVector.from_values(values)


def test_io_roundtrips():
    xi = GHZ_MERMIN
    assert correlation_vector_from_json({"n": 3, "xi": [0, 1, 1, 0, 1, 0, 0, -1]}) == xi
    with pytest.raises(ValueError):
        correlation_vector_from_json({"n": 3})
    rows = io.StringIO("0,1,1,0,1,0,0,-1\n\n0.5,0.5,0.5,-0.5\n")
    vectors = correlation_vectors_from_csv(rows)
    assert vectors[0] == xi
    assert vectors[1].n == 2
