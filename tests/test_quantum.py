"""Quantum layer: variational maxima, GHZ realizations, simulator, PPT."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from bellpoly import cli
from bellpoly.classical import l1_margin
from bellpoly.inequality import (
    BellTable,
    bell_table_from_id,
    coefficients_from_signs,
    evaluate,
    mermin_sign_table,
)
from bellpoly.quantum import (
    DensityMatrix,
    ObservableSpec,
    PhaseVector,
    bell_operator_norm_exact,
    extreme_point_q,
    ghz_observables,
    ghz_state,
    max_violation,
    mermin_bound,
    partial_transpose,
    sample_separable,
    simulate_correlations,
    xy_observable,
)
from bellpoly import quantum
from bellpoly.quantum import (
    ViolationResult,
    _ascent_terms,
    _coefficient_array,
    _coordinate_sweeps,
    _newton_ascent,
    _one_block_starts,
    _phasors,
    _start_points,
    _turn_site,
)
from bellpoly.symmetry import classify_all
from bellpoly.transform import DimensionMismatchError, bit_matrix

CHSH = BellTable.from_numerators(2, (1, 1, 1, -1), 1)
MERMIN3 = BellTable.from_numerators(3, (0, 1, 1, 0, 1, 0, 0, -1), 1)
HALF_PI = math.pi / 2


def violation_value(beta: BellTable, phases: PhaseVector) -> float:
    """|sum_s beta(s) prod_k e^(i phi_k s_k)|; the global phase drops out."""
    if phases.n != beta.n:
        raise DimensionMismatchError(f"site counts differ: {phases.n} vs {beta.n}")
    total = _coefficient_array(beta) @ np.exp(1j * (bit_matrix(beta.n) @ np.asarray(phases.phi)))
    return float(abs(total))


def squared_modulus_and_gradient(beta: BellTable, phi) -> tuple[float, np.ndarray]:
    """Value and analytic gradient of |T(phi)|^2, T = sum_s beta(s) e^(i phi.s)."""
    bits = bit_matrix(beta.n)
    weighted = _coefficient_array(beta) * np.exp(1j * (bits @ np.asarray(phi, float)))
    total = weighted.sum()
    partials = bits.T @ weighted  # dT/dphi_k = i * partials[k]
    value = float((total * total.conjugate()).real)
    grad = -2.0 * (total.conjugate() * partials).imag
    return value, grad


def dense_bell_operator(coeffs: np.ndarray, pairs) -> np.ndarray:
    """sum_s beta(s) A_1(s_1) x ... x A_n(s_n), built by halving recursion."""
    if len(pairs) == 1:
        return coeffs[0] * pairs[0][0] + coeffs[1] * pairs[0][1]
    half = len(coeffs) // 2
    low = dense_bell_operator(coeffs[:half], pairs[:-1])
    high = dense_bell_operator(coeffs[half:], pairs[:-1])
    # site 1 is the leftmost tensor factor (most significant basis bit), as in
    # simulate_correlations and partial_transpose, so the last site goes last
    return np.kron(low, pairs[-1][0]) + np.kron(high, pairs[-1][1])


def dense_norm(beta: BellTable, pairs) -> float:
    """Largest singular value of the dense Bell operator."""
    dense = dense_bell_operator(_coefficient_array(beta), pairs)
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def ascent_gradient_and_differences(beta: BellTable, phi, step: float):
    """_ascent_terms' gradient at phi, and central differences of its |T|^2."""
    coeffs = _coefficient_array(beta)

    def modulus_squared(point):
        return _ascent_terms(coeffs, point)[0]

    grad = _ascent_terms(coeffs, phi)[1]
    fd = np.empty(len(phi))
    for k in range(len(phi)):
        up, down = phi.copy(), phi.copy()
        up[k] += step
        down[k] -= step
        fd[k] = (modulus_squared(up) - modulus_squared(down)) / (2 * step)
    return grad, fd


def random_extremal(rng, n):
    return bell_table_from_id(n, int(rng.integers(0, 1 << (1 << n))))


def random_bloch_observable(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    sigma = np.array(
        [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
    )
    return np.tensordot(v, sigma, axes=1)


def random_pure_state(rng, n):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def random_mixed_state(rng, n):
    g = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = g @ g.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


def random_spec(rng, n):
    return ObservableSpec(tuple(map(tuple, rng.uniform(0, 2 * math.pi, size=(n, 2)))))


def apply_site_gate(tensor, gate, axis):
    moved = np.tensordot(gate, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def dense_correlations(state, obs):
    """Unclipped <prod_k A_k(s_k)> by 2^n passes of n dense site contractions.

    The oracle for simulate_correlations: site k is tensor factor k (site 1
    leftmost, the most significant bit of the basis index).
    """
    n = obs.n
    pairs = obs.matrix_pairs()
    dim = 1 << n
    values = []
    if isinstance(state, DensityMatrix):
        for s in range(dim):
            acted = state.entries.reshape((2,) * n + (dim,))
            for k in range(n):
                acted = apply_site_gate(acted, pairs[k][(s >> k) & 1], k)
            values.append(np.trace(acted.reshape(dim, dim)))
    else:
        psi = np.asarray(state, dtype=complex)
        for s in range(dim):
            acted = psi.reshape((2,) * n)
            for k in range(n):
                acted = apply_site_gate(acted, pairs[k][(s >> k) & 1], k)
            values.append(np.vdot(psi, acted.reshape(dim)))
    return np.asarray(values)


def haar_local_unitary(rng, n):
    """(x)_k U_k with each U_k Haar-random in SU(2), site 1 leftmost."""
    total = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        a, b = random_pure_state(rng, 1)
        total = np.kron(total, np.array([[a, -b.conjugate()], [b, a.conjugate()]]))
    return total


def test_phase_vector_reduction():
    p = PhaseVector(-HALF_PI, (5 * math.pi, -0.5))
    assert p.phi0 == pytest.approx(1.5 * math.pi)
    assert p.phi[0] == pytest.approx(math.pi)
    assert p.phi[1] == pytest.approx(2 * math.pi - 0.5)
    assert p.n == 2


def test_phase_vector_tiny_negative_angle_reduces_to_zero():
    # -1e-17 % 2pi rounds to 2pi itself, outside [0, 2pi)
    p = PhaseVector(-1e-17, (-1e-17, 1.0))
    assert p.phi0 == 0.0
    assert p.phi == (0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_vector_rejects_non_finite_angles(bad):
    # nan % 2pi is nan, which would pass as an angle in [0, 2pi)
    with pytest.raises(ValueError, match="angles must be finite"):
        PhaseVector(bad, (0.0, 0.0))
    with pytest.raises(ValueError, match="angles must be finite"):
        PhaseVector(0.0, (0.0, bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observable_spec_rejects_non_finite_angles(bad):
    """A NaN angle was once accepted, to fail later in the simulator as an
    out-of-range correlation or in eigvals as an array of NaNs."""
    for angles in (((bad, 0.0), (0.0, 1.0)), ((0.0, 0.0), (0.0, bad))):
        with pytest.raises(ValueError, match=f"^angles must be finite, got {bad}$"):
            ObservableSpec(angles)
    # with two bad angles the message names the first, in site order
    with pytest.raises(ValueError, match="^angles must be finite, got nan$"):
        ObservableSpec(((0.0, math.nan), (math.inf, 1.0)))
    # finite angles are kept as given, unreduced
    assert ObservableSpec(((7.0, -1), (0, 1))).angles == ((7.0, -1.0), (0.0, 1.0))


def test_xy_observables_square_to_identity():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(0, 2 * math.pi, 20):
        m = xy_observable(theta)
        assert np.allclose(m @ m, np.eye(2), atol=1e-14)
        assert np.allclose(m, m.conj().T, atol=1e-15)


def test_violation_value_chsh():
    assert violation_value(CHSH, PhaseVector(0.0, (HALF_PI, HALF_PI))) == pytest.approx(
        math.sqrt(2), abs=1e-12
    )


def test_violation_value_mermin():
    phases = PhaseVector(0.0, (HALF_PI, HALF_PI, HALF_PI))
    assert violation_value(MERMIN3, phases) == pytest.approx(2.0, abs=1e-12)


def test_violation_value_at_zero_phases_is_classical():
    rng = np.random.default_rng(4)
    zero = PhaseVector(0.0, (0.0, 0.0, 0.0))
    for _ in range(30):
        beta = random_extremal(rng, 3)
        assert violation_value(beta, zero) <= 1.0 + 1e-12


def test_mermin_bound_values():
    assert mermin_bound(2) == pytest.approx(math.sqrt(2))
    assert mermin_bound(3) == pytest.approx(2.0)
    assert mermin_bound(6) == pytest.approx(2.0**2.5)
    for n in (0, 32):
        with pytest.raises(ValueError, match="site count must be in 1..31"):
            mermin_bound(n)
    with pytest.raises(TypeError):
        mermin_bound(2.5)


@pytest.mark.parametrize(
    "value, expected",
    [(0, 1.0), (1, 5.0 / 3.0), (3, math.sqrt(2)), (6, math.sqrt(2)), (23, 2.0)],
)
def test_max_violation_n3_representatives(value, expected):
    result = max_violation(bell_table_from_id(3, value))
    assert result.value == pytest.approx(expected, abs=1e-6)
    assert result.converged
    # the reported argmax reproduces the reported value
    assert violation_value(bell_table_from_id(3, value), result.phases) == pytest.approx(
        result.value, abs=1e-9
    )


@pytest.mark.parametrize(
    "n, table_id, expected",
    [
        (6, 7106521602475165645, 2.401842716),  # random.Random(0).getrandbits(64)
        (8, 13654052880323412379663692421328806547061611885489941438207873342831887495669, 2.910882984),
        *((n, None, mermin_bound(n)) for n in (5, 6, 7)),  # the Mermin tables
    ],
    ids=["seeded-6", "seeded-8", "mermin-5", "mermin-6", "mermin-7"],
)
def test_max_violation_reaches_the_recorded_values(n, table_id, expected):
    """The values `bellpoly violation` prints for these tables, to their 9 decimals."""
    if table_id is None:
        beta = coefficients_from_signs(mermin_sign_table(n))
    else:
        beta = bell_table_from_id(n, table_id)
    result = max_violation(beta)
    assert result.converged
    assert round(result.value, 9) == round(expected, 9)


def test_max_violation_deterministic_and_bounded():
    a = max_violation(CHSH, seed=5)
    b = max_violation(CHSH, seed=5)
    assert a.value == b.value and a.phases == b.phases
    assert a.value <= mermin_bound(2) + 1e-9


def test_max_violation_rejects_zero_table():
    with pytest.raises(ValueError):
        max_violation(BellTable.from_numerators(2, (0, 0, 0, 0), 0))


@pytest.fixture(scope="module")
def exhaustive_n3_results():
    """max_violation for every one of the 256 tripartite inequalities."""
    return {
        table_id: max_violation(bell_table_from_id(3, table_id))
        for table_id in range(256)
    }


@pytest.fixture(scope="module")
def exhaustive_n3_values(exhaustive_n3_results):
    return {table_id: result.value for table_id, result in exhaustive_n3_results.items()}


def test_exhaustive_n3_converged_at_reproducible_phases(exhaustive_n3_results):
    for table_id, result in exhaustive_n3_results.items():
        beta = bell_table_from_id(3, table_id)
        assert result.converged, (table_id, result.gradient_norm)
        assert violation_value(beta, result.phases) == pytest.approx(result.value, abs=1e-9)


def test_max_violation_phases_realize_the_value(exhaustive_n3_results):
    """The extreme point of the returned phases, and its GHZ realization, reach the value."""
    cases = [(bell_table_from_id(3, t), r) for t, r in exhaustive_n3_results.items()]
    for rec in classify_all(4):
        beta = bell_table_from_id(4, rec.canonical_id)
        cases.append((beta, max_violation(beta)))
    for beta, result in cases:
        assert evaluate(beta, extreme_point_q(result.phases)) == pytest.approx(
            result.value, abs=1e-9
        )
        xi = simulate_correlations(ghz_state(beta.n), ghz_observables(result.phases))
        assert evaluate(beta, xi) == pytest.approx(result.value, abs=1e-9)


def grid_maximum_n3(coeffs, steps):
    """max |T| over the steps^3 grid of site angles, T = sum_s c_s e^(i phi.s).

    Sites 1 and 2 are evaluated on the grid.  Along site 3, T = A + B e^(i phi_3)
    and |T|^2 = |A|^2 + |B|^2 + 2 |conj(A) B| cos(psi + phi_3), psi = arg(conj(A) B),
    so the grid maximum is at the grid angle nearest to -psi.
    """
    h = 2 * math.pi / steps
    z = np.exp(1j * h * np.arange(steps))
    table = np.asarray(coeffs, dtype=complex).reshape(2, 2, 2)  # [s3, s2, s1]
    site1 = table[..., 0, None] + table[..., 1, None] * z  # [s3, s2, phi_1]
    a, b = site1[:, 0, :, None] + site1[:, 1, :, None] * z  # [phi_1, phi_2] each
    cross = a.conj() * b
    offset = np.mod(-np.angle(cross), h)
    squared = abs(a) ** 2 + abs(b) ** 2 + 2 * abs(cross) * np.cos(np.minimum(offset, h - offset))
    return math.sqrt(squared.max())


def test_grid_maximum_n3_matches_direct_evaluation():
    steps = 16
    phi = 2 * math.pi / steps * np.arange(steps)
    grid = np.stack(np.meshgrid(phi, phi, phi, indexing="ij"), axis=-1).reshape(-1, 3)
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.normal(size=8)
        direct = np.abs(np.exp(1j * grid @ bits.T) @ coeffs).max()
        assert grid_maximum_n3(coeffs, steps) == pytest.approx(direct, abs=1e-12)


def test_exhaustive_n3_global_maximum_on_a_grid(exhaustive_n3_values):
    """The value lies between a 128^3 grid maximum and its Lipschitz bound."""
    steps = 128
    h = 2 * math.pi / steps
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    for table_id, value in exhaustive_n3_values.items():
        c = bell_table_from_id(3, table_id).coefficients
        coeffs = np.asarray(c.numerators) / 2**c.log_denominator
        lower = grid_maximum_n3(coeffs, steps)
        upper = lower + h / 2 * float((np.abs(coeffs)[:, None] * bits).sum())
        assert lower - 1e-12 <= value <= upper, (table_id, lower, value, upper)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ascent_hessian_matches_finite_differences(n):
    rng = np.random.default_rng(90 + n)
    step = 1e-6
    for _ in range(10):
        beta = random_extremal(rng, n)
        phi = rng.uniform(0, 2 * math.pi, size=(3, n))
        coeffs = _coefficient_array(beta)
        for row in range(3):
            value, grad, hess, total = _ascent_terms(coeffs, phi[row])
            ref_value, ref_grad = squared_modulus_and_gradient(beta, phi[row])
            assert value == pytest.approx(ref_value, abs=1e-12)
            assert np.allclose(grad, ref_grad, atol=1e-12)
            ref_total = coeffs @ np.exp(1j * (bit_matrix(n) @ phi[row]))
            assert abs(total - ref_total) <= 1e-12
            fd = np.empty((n, n))
            for k in range(n):
                up, down = phi[row].copy(), phi[row].copy()
                up[k] += step
                down[k] -= step
                fd[:, k] = (
                    squared_modulus_and_gradient(beta, up)[1]
                    - squared_modulus_and_gradient(beta, down)[1]
                ) / (2 * step)
            assert np.allclose(hess, hess.T, atol=1e-12)
            assert np.linalg.norm(hess - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_max_violation_reports_its_search():
    result = max_violation(MERMIN3, seed=3)
    assert result.starts == 10 + 32  # the 10 kept grid points of 16, and the random ones
    # every start is swept; the first start of largest swept |T| is polished
    # alone, and iterations counts the Newton steps it took
    for beta, seed in ((MERMIN3, 3), (bell_table_from_id(4, 279), 0)):
        result = max_violation(beta, seed=seed)
        coeffs = _coefficient_array(beta)
        points = _start_points(beta.n, seed)
        swept = _coordinate_sweeps(coeffs, points)
        value, _, norm, steps = _newton_ascent(coeffs, points[int(swept.argmax())])
        assert result.gradient_norm == norm
        assert result.starts == len(points)
        # the polished start reaches the best value of a polish of every start
        assert math.sqrt(value) == result.value >= full_polish(beta, seed)[0] - 1e-9
        assert result.iterations == steps
    # the sweeps bring every Mermin start to the maximum; on 279 Newton still steps
    assert result.iterations > 0
    # the search counters default, so older constructions still work
    bare = ViolationResult(2.0, PhaseVector(0.0, (HALF_PI,) * 3), True, 0.0)
    assert (bare.starts, bare.iterations) == (0, 0)


def test_max_violation_n1_tables():
    """No grid sites at n = 1: one empty grid point plus the 32 random starts.

    The four extremal tables have A or B zero; (1/2, -1/2) has both nonzero.
    """
    tables = [bell_table_from_id(1, i) for i in range(4)]
    for beta in tables + [BellTable.from_numerators(1, (1, -1), 1)]:
        result = max_violation(beta, seed=4)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.converged
        assert result.starts == 1 + 32


def moduli(coeffs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|T| at every row of phi, by one direct sum over s per row."""
    return np.abs(np.exp(1j * (phi @ bit_matrix(phi.shape[1]).T)) @ coeffs)


def site_halves(coeffs, phi, k: int) -> tuple[complex, complex]:
    """A_k and B_k, the sums over s_k = 0 and s_k = 1 of T at phi, by a per-entry loop."""
    halves = [0j, 0j]
    for s, c in enumerate(coeffs):
        angle = sum(phi[j] for j in range(len(phi)) if s >> j & 1)
        halves[s >> (k - 1) & 1] += c * complex(math.cos(angle), math.sin(angle))
    return halves[0], halves[1]


def site_n_step(coeffs: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The rows (head, 0) with phi_n turned by one closed-form site-n step, mod 2pi."""
    phi = np.column_stack([head, np.zeros(len(head))])
    weighted = coeffs[:, None] * np.exp(1j * (bit_matrix(phi.shape[1]) @ phi.T))
    phi[:, -1] += _turn_site(weighted, phi.shape[1])
    return np.mod(phi, 2 * math.pi)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_seed_last_angle_attains_the_site_maximum(n, monkeypatch):
    """From phi_n = 0, the sweeps' first step sets phi_n = arg A - arg B, which
    gives |T| = |A| + |B|, the maximum over phi_n."""
    monkeypatch.setattr(quantum, "_SWEEPS", 0)  # the phi_n step alone
    rng = np.random.default_rng(50 + n)
    grid = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    for _ in range(5):
        beta = random_extremal(rng, n)
        coeffs = _coefficient_array(beta)
        head = rng.uniform(0, 2 * math.pi, size=(4, n - 1))
        seeded = np.column_stack([head, np.zeros(len(head))])
        _coordinate_sweeps(coeffs, seeded)
        assert np.array_equal(seeded[:, : n - 1], head)
        for row in range(len(head)):
            a, b = site_halves(coeffs, (*head[row], 0.0), n)
            value = violation_value(beta, PhaseVector(0.0, tuple(seeded[row])))
            assert value == pytest.approx(abs(a) + abs(b), abs=1e-12)
            on_grid = max(
                violation_value(beta, PhaseVector(0.0, (*head[row], last))) for last in grid
            )
            assert on_grid <= value + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_site_step_reaches_the_site_maximum(n):
    """Turning phi_k by arg A_k - arg B_k gives |T| = |A_k| + |B_k|, and the
    rotated table is beta(s) e^(i phi.s) at the turned angles."""
    rng = np.random.default_rng(90 + n)
    bits = bit_matrix(n)
    for _ in range(3):
        coeffs = _coefficient_array(random_extremal(rng, n))
        phi = rng.uniform(0, 2 * math.pi, size=(4, n))
        weighted = coeffs[:, None] * np.exp(1j * (bits @ phi.T))
        for k in rng.permutation(np.arange(1, n + 1)):
            halves = [site_halves(coeffs, row, k) for row in phi]
            phi[:, k - 1] += _turn_site(weighted, k)
            reached = moduli(coeffs, phi)
            for row, (a, b) in enumerate(halves):
                assert reached[row] == pytest.approx(abs(a) + abs(b), abs=1e-12)
            fresh = coeffs[:, None] * np.exp(1j * (bits @ phi.T))
            assert np.abs(weighted - fresh).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_coordinate_sweeps_never_lower_the_modulus(n):
    """No site step lowers any row's |T|, the site-n step first, from phi_n = 0;
    `_coordinate_sweeps` is exactly that sequence of steps, written into the
    rows it is given, and returns |T|^2 at them."""
    rng, ids = np.random.default_rng(110 + n), random.Random(110 + n)
    order = [n] + [*range(1, n + 1)] * quantum._SWEEPS
    for _ in range(3):
        coeffs = _coefficient_array(bell_table_from_id(n, ids.getrandbits(1 << n)))
        start = np.column_stack([rng.uniform(0, 2 * math.pi, size=(16, n - 1)), np.zeros(16)])
        swept = start.copy()  # turned in place, checked against the steps below
        swept_value = _coordinate_sweeps(coeffs, swept)
        assert np.abs(np.sqrt(swept_value) - moduli(coeffs, swept)).max() <= 1e-12
        assert ((0.0 <= swept) & (swept <= 2 * math.pi)).all()  # np.mod(-1e-17) is 2pi
        phi = start.copy()
        weighted = coeffs[:, None] * np.exp(1j * (bit_matrix(n) @ phi.T))
        before = moduli(coeffs, phi)
        for k in order:
            phi[:, k - 1] += _turn_site(weighted, k)
            after = moduli(coeffs, phi)
            assert (after >= before - 1e-12).all()
            before = after
        assert np.array_equal(swept, np.mod(phi, 2 * math.pi))


# max_violation(seed=0) values recorded before the coordinate sweeps, when
# the Newton ascent climbed straight from the grid and its closed-form phi_n;
# the ids are random.Random(24).getrandbits(32) six times, then (64) three times
VALUES_BEFORE_THE_SWEEPS = [
    (5, 3059489832, 2.1439138810992056),
    (5, 1644374017, 2.2162526387117185),
    (5, 3606912411, 2.7032739713216447),
    (5, 2503015641, 2.0782557089908424),
    (5, 784226196, 2.243287717234837),
    (5, 937454715, 2.1423283604935546),
    (6, 3086686845511103324, 2.446736807333943),
    (6, 3124393730043297237, 2.6908029881758724),
    (6, 12574244200532360068, 2.640559647589772),
]


def test_max_violation_matches_values_recorded_before_the_sweeps():
    rng = random.Random(24)
    ids = [rng.getrandbits(32) for _ in range(6)] + [rng.getrandbits(64) for _ in range(3)]
    assert [table_id for _, table_id, _ in VALUES_BEFORE_THE_SWEEPS] == ids
    for n, table_id, value in VALUES_BEFORE_THE_SWEEPS:
        result = max_violation(bell_table_from_id(n, table_id), seed=0)
        assert result.converged
        assert abs(result.value - value) <= 1e-12, (n, table_id)


def test_max_violation_blocks_do_not_change_the_result(monkeypatch):
    """Splitting the starts into small blocks gives the same value: the start
    polished is the best swept over all blocks, not block by block, and on
    both tables it lies past the first block."""
    tables = [bell_table_from_id(4, 279), bell_table_from_id(5, 3059489832)]
    wholes = [max_violation(beta, seed=2) for beta in tables]
    monkeypatch.setattr(quantum, "_START_BLOCK", 7)
    for beta, whole in zip(tables, wholes):
        split = max_violation(beta, seed=2)
        assert split.value == pytest.approx(whole.value, abs=1e-12)
        assert split.starts == whole.starts
        coeffs, points = _coefficient_array(beta), _start_points(beta.n, 2)
        swept = np.concatenate([_coordinate_sweeps(coeffs, b) for b in quantum._blocks(points)])
        assert swept.argmax() >= 7


@pytest.mark.parametrize("seed", [0, 1])
def test_max_violation_polishes_the_first_best_swept_start(seed):
    """The result is, bit for bit, the one-start ascent from the first start in
    grid order of largest swept |T|^2 over all blocks: on the n=4 census, on
    seeded n=5..8 tables and on the Mermin n=7 table, whose maxima tie."""
    ids = random.Random(41)
    tables = [bell_table_from_id(4, rec.canonical_id) for rec in classify_all(4)]
    tables += [bell_table_from_id(n, ids.getrandbits(1 << n)) for n in (5, 6, 7, 8)]
    tables.append(coefficients_from_signs(mermin_sign_table(7)))
    for beta in tables:
        coeffs, points = _coefficient_array(beta), _start_points(beta.n, seed)
        swept = np.concatenate([_coordinate_sweeps(coeffs, b) for b in quantum._blocks(points)])
        start = points[int(np.argmax(swept))]
        value, total, norm, steps = _newton_ascent(coeffs, start)
        phases = PhaseVector(-float(np.angle(total)), tuple(start))
        expected = ViolationResult(math.sqrt(value), phases, norm <= 1e-8, norm, len(points), steps)
        assert repr(max_violation(beta, seed=seed)) == repr(expected), beta


def test_max_violation_polishes_one_start_of_a_continuum():
    """The Mermin table's maxima form a continuum, so the sweeps leave more than
    one block of the 8,288 starts at n=8 within 1e-6 of the best |T|; the one
    start polished reaches the bound and converges."""
    beta = coefficients_from_signs(mermin_sign_table(8))
    result = max_violation(beta)
    assert result.starts == 8288
    coeffs, points = _coefficient_array(beta), _start_points(8, 0)
    swept = np.concatenate([_coordinate_sweeps(coeffs, b) for b in quantum._blocks(points)])
    assert (swept >= (1.0 - 1e-6) ** 2 * swept.max()).sum() > quantum._START_BLOCK
    assert abs(result.value - mermin_bound(8)) <= 1e-12 * mermin_bound(8)
    assert result.converged



def stall_first_ascents(monkeypatch, stalls):
    """Patch _newton_ascent so that its first `stalls` calls take no step and
    end at the swept start, short of convergence; record every call's result."""
    ascent, results = quantum._newton_ascent, []

    def stalling(coeffs, phi):
        if len(results) < stalls:
            value, grad, _, total = quantum._ascent_terms(coeffs, phi)
            results.append((value, total, math.sqrt(grad @ grad), 0))
        else:
            results.append(ascent(coeffs, phi))
        return results[-1]

    monkeypatch.setattr(quantum, "_newton_ascent", stalling)
    return results


def test_max_violation_polishes_the_next_start_when_the_first_stalls(monkeypatch):
    """When the best swept start's ascent stalls above a gradient norm of 1e-8,
    the next starts by swept |T| climb until one converges, and the search
    still returns the value and convergence of the unpatched search."""
    ids = random.Random(43)
    tables = [bell_table_from_id(4, rec.canonical_id) for rec in classify_all(4)]
    tables += [bell_table_from_id(5, ids.getrandbits(32)) for _ in range(2)]
    stalled = 0
    for beta in tables:
        expected = max_violation(beta, seed=0)
        with monkeypatch.context() as patch:
            results = stall_first_ascents(patch, 1)
            result = max_violation(beta, seed=0)
        if results[0][2] <= 1e-8:  # swept onto a maximum: the first start stands
            assert len(results) == 1 and result.converged, beta
            continue
        stalled += 1
        assert 2 <= len(results) <= quantum._POLISH_TRIES
        assert result.converged, beta
        assert result.value >= expected.value - 1e-12, beta
        assert result.iterations == sum(r[3] for r in results)
    assert stalled >= 20


def test_max_violation_polishes_at_most_polish_tries_starts(monkeypatch):
    """When every ascent stalls, _POLISH_TRIES starts are tried and the result,
    flagged as not converged, is the best value they reached."""
    beta = bell_table_from_id(4, classify_all(4)[3].canonical_id)
    results = stall_first_ascents(monkeypatch, quantum._POLISH_TRIES)
    result = max_violation(beta, seed=0)
    assert len(results) == quantum._POLISH_TRIES
    assert not result.converged and result.iterations == 0
    assert result.value**2 >= max(r[0] for r in results) * (1 - 1e-15)
    assert result.gradient_norm in [r[2] for r in results]

def batched_ascent_terms(coeffs: np.ndarray, phi: np.ndarray):
    """_ascent_terms at every row of phi at once, by one product of the rows'
    W_s = beta(s) e^(i phi.s) with the moment matrix: |T|^2, the gradient, the
    exact Hessian and T, one row (or matrix) per row of phi."""
    starts, n = phi.shape
    weighted = coeffs * np.exp(1j * (phi @ bit_matrix(n).T))
    moments = weighted @ quantum._moment_matrix(n)
    total, partials = moments[:, 0], moments[:, 1 : n + 1]
    second = moments[:, n + 1 :].reshape(starts, n, n)
    value = total.real**2 + total.imag**2
    grad = -2.0 * (total.conj()[:, None] * partials).imag
    hess = 2.0 * (partials.conj()[:, :, None] * partials[:, None, :]).real
    hess -= 2.0 * (total.conj()[:, None, None] * second).real
    return value, grad, hess, total


def batched_newton_ascent(coeffs: np.ndarray, phi: np.ndarray):
    """The batched saddle-free Newton ascent max_violation once ran, every row
    of phi climbing in place at once, kept as a reference: each round, every
    live start takes its direction from one stacked eigh, and their trials are
    evaluated in one batch, accepted or halved by _newton_ascent's rule.
    Returns, per start, |T|^2, T, the gradient norm and the steps taken."""
    value, grad, hess, total = batched_ascent_terms(coeffs, phi)
    grad_norm = np.sqrt(np.add.reduce(grad * grad, axis=1))
    length, steps = np.ones(len(phi)), np.zeros(len(phi), int)
    while (live := np.flatnonzero(
        (grad_norm > quantum._GRADIENT_TOL)
        & (steps < quantum._MAX_ITERATIONS)
        & (length > 0.5**quantum._MAX_HALVINGS)
    )).size:
        eigvals, eigvecs = np.linalg.eigh(hess[live])
        scale = np.abs(eigvals)
        floor = np.maximum(1e-8 * scale.max(axis=1, keepdims=True), quantum._TINY)
        scale = np.maximum(scale, floor)
        along = np.einsum("mji,mj->mi", eigvecs, grad[live]) / scale
        delta = np.einsum("mij,mj->mi", eigvecs, along)
        trial = np.mod(phi[live] + length[live, None] * delta, quantum.TWO_PI)
        t_value, t_grad, t_hess, t_total = batched_ascent_terms(coeffs, trial)
        t_norm = np.sqrt(np.add.reduce(t_grad * t_grad, axis=1))
        before = value[live]
        held = np.abs(t_value - before) <= quantum._HOLD_EPS * np.maximum(before, 1.0)
        ok = (t_value > before) | (held & (t_norm < grad_norm[live]))
        up = live[ok]
        phi[up], value[up], total[up] = trial[ok], t_value[ok], t_total[ok]
        grad[up], hess[up], grad_norm[up] = t_grad[ok], t_hess[ok], t_norm[ok]
        steps[up], length[up] = steps[up] + 1, 1.0
        length[live[~ok]] *= 0.5
    return value, total, grad_norm, steps


def full_polish(beta: BellTable, seed: int) -> tuple[float, bool]:
    """The search with every swept start polished by the batched ascent: the
    best |T|, and whether the gradient norm at the best start is at most 1e-8."""
    coeffs = _coefficient_array(beta)
    points = _start_points(beta.n, seed)
    runs = []
    for block in quantum._blocks(points):  # both climb each block in place
        _coordinate_sweeps(coeffs, block)
        runs.append(batched_newton_ascent(coeffs, block)[0])
    value = np.concatenate(runs)
    best = int(np.argmax(value))
    grad = batched_ascent_terms(coeffs, points[best : best + 1])[1]
    return math.sqrt(value[best]), bool(np.linalg.norm(grad) <= 1e-8)


@pytest.mark.parametrize("seed", [0, 1])
def test_filtered_search_matches_a_full_polish(seed):
    """Polishing only the first start of largest swept |T| loses no value and
    no convergence against polishing every swept start."""
    ids = random.Random(26)
    tables = [bell_table_from_id(n, rec.canonical_id) for n in (3, 4) for rec in classify_all(n)]
    tables += [
        bell_table_from_id(n, ids.getrandbits(1 << n)) for n, count in ((5, 4), (6, 2), (7, 1))
        for _ in range(count)
    ]
    # the sweeps leave more than one block of Mermin starts tied near the best
    tables.append(coefficients_from_signs(mermin_sign_table(7)))
    for beta in tables:
        result = max_violation(beta, seed=seed)
        value, converged = full_polish(beta, seed)
        assert result.value >= value - 1e-12, beta
        assert result.converged or not converged, beta


def test_filtered_search_keeps_the_start_two_sweeps_would_drop():
    """With 2 sweeps, every start that a full polish takes to the best is swept
    at least 2.4e-5 below the best swept |T|, and the search returned
    2.003143253; with the 3 sweeps kept the best swept start reaches the best."""
    beta = bell_table_from_id(5, 2586769423)
    result = max_violation(beta, seed=46)
    value, _ = full_polish(beta, 46)
    assert result.value >= value - 1e-12
    assert result.value == pytest.approx(2.003229056, abs=1e-9)
    assert result.converged


def row_by_row_terms(coeffs, phi):
    """_ascent_terms at each row of phi in turn, stacked, so that each row's
    rounding is its own: a BLAS matmul may round a row differently with other
    rows beside it, and a start near a saddle can then leave it another way."""
    rows = [quantum._ascent_terms(coeffs, row) for row in phi]
    return tuple(np.array(part) for part in zip(*rows))


def halving_loop_ascent(coeffs, phi):
    """The batched ascent before rounds: per Newton iteration, a nested loop
    halves the step of the starts still pending and re-evaluates just those,
    each row's terms evaluated on their own.  Returns the final |T|^2, the
    final angles, gradient norms and steps taken, one per start."""
    phi = phi.copy()
    value, grad, hess, _ = row_by_row_terms(coeffs, phi)
    grad_norm = np.linalg.norm(grad, axis=1)
    active = np.flatnonzero(grad_norm > quantum._GRADIENT_TOL)
    steps = np.zeros(len(phi), int)
    for _ in range(quantum._MAX_ITERATIONS):
        if not active.size:
            break
        eigvals, eigvecs = np.linalg.eigh(hess[active])
        scale = np.abs(eigvals)
        floor = np.maximum(1e-8 * scale.max(axis=1, keepdims=True), np.finfo(float).tiny)
        scale = np.maximum(scale, floor)
        along = np.einsum("mji,mj->mi", eigvecs, grad[active]) / scale
        delta = np.einsum("mij,mj->mi", eigvecs, along)
        pending, accepted, length = active, [], 1.0
        for _ in range(quantum._MAX_HALVINGS):
            trial = np.mod(phi[pending] + length * delta, quantum.TWO_PI)
            t_value, t_grad, t_hess, _ = row_by_row_terms(coeffs, trial)
            t_norm = np.linalg.norm(t_grad, axis=1)
            before = value[pending]
            held = np.abs(t_value - before) <= quantum._HOLD_EPS * np.maximum(before, 1.0)
            ok = (t_value > before) | (held & (t_norm < grad_norm[pending]))
            took = pending[ok]
            phi[took], value[took], grad[took] = trial[ok], t_value[ok], t_grad[ok]
            hess[took], grad_norm[took] = t_hess[ok], t_norm[ok]
            accepted.append(took)
            pending, delta, length = pending[~ok], delta[~ok], 0.5 * length
            if not pending.size:
                break
        moved = np.concatenate(accepted)
        steps[moved] += 1
        active = moved[grad_norm[moved] > quantum._GRADIENT_TOL]
    return value, phi, grad_norm, steps


def test_one_start_ascent_matches_the_halving_loop():
    """Per start, the one-start ascent reaches the |T|^2 of the nested halving
    loop, in as many steps except in the endgame: the two form the step with
    differently ordered products, and where both end far below the gradient
    tolerance, that rounding may decide one held step more or less."""
    rng = np.random.default_rng(131)
    tables = [bell_table_from_id(n, rec.canonical_id) for n in (3, 4) for rec in classify_all(n)]
    tables += [random_extremal(rng, n) for n in (2, 3, 4, 5) for _ in range(3)]
    starts, endgame = 0, 0
    for beta in tables:
        coeffs = _coefficient_array(beta)
        block = _start_points(beta.n, 0)
        _coordinate_sweeps(coeffs, block)
        ref_value, _, ref_norm, ref_steps = halving_loop_ascent(coeffs, block)  # climbs a copy
        for row, *ref in zip(block, ref_value, ref_norm, ref_steps):
            value, _, norm, steps = _newton_ascent(coeffs, row)  # climbs its row in place
            assert abs(value - ref[0]) <= 1e-12, beta
            starts += 1
            if steps != ref[2]:
                endgame += 1
                assert abs(steps - ref[2]) == 1 and max(norm, ref[1]) <= 1e-13, beta
    assert endgame <= starts // 100


def test_rejected_trials_end_after_max_halvings(monkeypatch):
    """When every trial scores lower, a start tries _MAX_HALVINGS steps, each
    half the last, and ends where it began with no step taken."""
    terms, calls = quantum._ascent_terms, []

    def every_trial_lower(coeffs, phi):
        value, grad, hess, total = terms(coeffs, phi)
        calls.append(phi.copy())
        return (value if len(calls) == 1 else -1.0), grad, hess, total

    monkeypatch.setattr(quantum, "_ascent_terms", every_trial_lower)
    coeffs = _coefficient_array(MERMIN3)
    for start in np.random.default_rng(9).uniform(0.0, 2 * math.pi, size=(2, 3)):
        calls.clear()
        phi = start.copy()
        value, total, norm, steps = _newton_ascent(coeffs, phi)
        assert len(calls) == 1 + quantum._MAX_HALVINGS
        assert steps == 0 and np.array_equal(phi, start)
        start_value, _, _, start_total = terms(coeffs, start)
        assert value == start_value and total == start_total
        assert norm > quantum._GRADIENT_TOL  # the start was free to move
        offsets = [np.mod(trial - start + math.pi, 2 * math.pi) - math.pi for trial in calls[1:21]]
        for longer, shorter in zip(offsets, offsets[1:]):
            assert np.allclose(shorter, 0.5 * longer, rtol=1e-6, atol=0.0)


def test_start_points_pair_grid_mirrors():
    for n in range(1, 9):
        points = _start_points(n, 5)
        assert len(points) == (4 ** (n - 1) + 2 ** (n - 1)) // 2 + 32
        assert points.shape[1] == n and not points[:, -1].any()  # every start has phi_n = 0
        grid = set(itertools.product(range(4), repeat=n - 1))
        kept = np.rint(points[: len(points) - 32, : n - 1] / HALF_PI).astype(int)
        assert np.array_equal(points[: len(kept), : n - 1], HALF_PI * kept)
        kept_set = {tuple(c) for c in kept}
        assert len(kept_set) == len(kept) and [tuple(c) for c in kept] == sorted(kept_set)
        covered = set()
        for c in kept:
            mirror = tuple(-c % 4)
            if mirror != tuple(c):
                assert mirror in grid and mirror not in kept_set and tuple(c) < mirror
            covered |= {tuple(c), mirror}
        assert covered == grid
        extra = np.random.default_rng(5).uniform(0.0, 2 * math.pi, size=(32, n))[:, : n - 1]
        assert np.array_equal(points[len(kept) :, : n - 1], extra)
    assert [len(_start_points(n, 0)) - 32 for n in (4, 5)] == [36, 136]


def test_start_points_copy_a_cached_one_block_grid():
    """The start points of a one-block set (n <= 6) are cached read-only per
    (n, seed), bit for bit a fresh `_start_points`; max_violation sweeps a
    copy, so the cached points stay as they were.  From n = 7 the grid
    exceeds one block and max_violation builds it fresh, never kept."""
    _one_block_starts.cache_clear()
    for n in range(1, 7):
        for seed in (0, 7):
            fresh = _start_points(n, seed)
            points = _one_block_starts(n, seed)[0]
            assert not points.flags.writeable
            assert points.dtype == fresh.dtype and points.tobytes() == fresh.tobytes()
    points = _one_block_starts(3, 7)[0]
    before = points.tobytes()
    max_violation(MERMIN3, seed=7)
    assert _one_block_starts(3, 7)[0] is points and points.tobytes() == before
    assert _one_block_starts.cache_info().currsize == 8  # the 8 latest of n = 1..6
    assert len(_start_points(7, 0)) > quantum._START_BLOCK
    _one_block_starts.cache_clear()
    for n in (7, 8):
        max_violation(coefficients_from_signs(mermin_sign_table(n)))
    assert _one_block_starts.cache_info().currsize == 0


def test_phasors_cached_read_only_for_one_block_grids():
    """The phasors of a one-block set (n <= 6) are cached read-only per
    (n, seed), bit for bit the e^(i phi.s) of a fresh grid, and `_phasors`
    builds the same array; from n = 7 the sweeps build theirs block by
    block, and max_violation adds no entry."""
    _one_block_starts.cache_clear()
    for n in range(1, 7):
        for seed in (0, 7):
            fresh = _start_points(n, seed)
            phasors = _one_block_starts(n, seed)[1]
            expected = np.exp(1j * (bit_matrix(n) @ fresh.T))
            assert not phasors.flags.writeable
            assert phasors.dtype == expected.dtype and phasors.shape == expected.shape
            assert phasors.tobytes() == expected.tobytes()
            assert _phasors(fresh).tobytes() == expected.tobytes()
    assert _one_block_starts(6, 0)[1].nbytes == 64 * 560 * 16  # the largest phasors, 560 KiB
    _one_block_starts.cache_clear()
    for n in (7, 8):
        max_violation(coefficients_from_signs(mermin_sign_table(n)))
    assert _one_block_starts.cache_info().currsize == 0


def test_max_violation_repeats_bitwise():
    """A call on a cold cache and a second, on the cached points and phasors,
    return every field bit for bit."""
    tables = [MERMIN3, bell_table_from_id(4, 279), bell_table_from_id(5, 3059489832)]
    for beta in tables:
        _one_block_starts.cache_clear()
        cold = max_violation(beta, seed=3)
        assert _one_block_starts.cache_info().currsize == 1
        warm = max_violation(beta, seed=3)
        assert _one_block_starts.cache_info().hits == 1
        assert repr(warm) == repr(cold)  # repr prints every float exactly


def test_max_violation_takes_integer_seeds_only():
    """A float seed raises whether or not its integer's start set is cached (1.0
    and 1 would share a cache key), at n = 3 (one cached block) and at n = 7
    (no cache); a numpy integer seed is its int."""
    beta = bell_table_from_id(3, 105)
    _one_block_starts.cache_clear()
    with pytest.raises(TypeError):
        max_violation(beta, seed=1.0)  # cold
    result = max_violation(beta, seed=1)
    with pytest.raises(TypeError):
        max_violation(beta, seed=1.0)  # warm: the seed-1 entry is cached
    assert _one_block_starts.cache_info().currsize == 1
    assert repr(max_violation(beta, seed=np.int64(1))) == repr(result)
    with pytest.raises(TypeError):
        max_violation(coefficients_from_signs(mermin_sign_table(7)), seed=1.0)


def test_coordinate_sweeps_build_a_fresh_block_in_place():
    """A block swept without cached phasors builds W = beta(s) e^(i phi.s) in
    one complex matrix: the peak is W and the float phase matrix it is made
    from (1.5x W), not an exp result with the product beside it (2x W)."""
    coeffs = _coefficient_array(coefficients_from_signs(mermin_sign_table(8)))
    block = _start_points(8, 0)[: quantum._START_BLOCK].copy()
    bit_matrix(8)  # cached on first use; not traced
    tracemalloc.start()
    try:
        _coordinate_sweeps(coeffs, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * (1 << 8) * len(block) * 16


@pytest.mark.parametrize("n", [7, 8])
def test_start_points_peak_memory(n):
    """The grid is one uint32 code per grid point, decoded a column at a time
    into the returned array, so the peak stays within 1.5x the points kept."""
    _start_points(2, 0)  # numpy.random loads its modules on first use; not traced
    tracemalloc.start()
    try:
        points = _start_points(n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * points.nbytes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mirrored_starts_reach_the_same_modulus(n):
    """T(-phi) = conj T(phi) for real beta, so a start and its mirror climb to the same |T|."""
    rng = np.random.default_rng(70 + n)
    for _ in range(4):
        coeffs = _coefficient_array(random_extremal(rng, n))
        head = rng.uniform(0, 2 * math.pi, size=(8, n - 1))
        start = site_n_step(coeffs, head)
        mirror = site_n_step(coeffs, np.mod(-head, 2 * math.pi))
        turn = np.mod(start[:, -1] + mirror[:, -1] + math.pi, 2 * math.pi) - math.pi
        assert np.abs(turn).max() <= 1e-12  # the closed-form last angle mirrors too
        for row, mirror_row in zip(start, mirror):
            value = _newton_ascent(coeffs, row)[0]
            mirror_value = _newton_ascent(coeffs, mirror_row)[0]
            assert abs(math.sqrt(value) - math.sqrt(mirror_value)) <= 1e-12


def test_exhaustive_n3_upper_bound(exhaustive_n3_values):
    bound = mermin_bound(3)
    assert max(exhaustive_n3_values.values()) <= bound + 1e-9


def test_exhaustive_n3_constant_on_orbits(exhaustive_n3_values):
    from bellpoly.symmetry import classify_all, orbit_of_id

    published = {0: 1.0, 1: 5.0 / 3.0, 3: math.sqrt(2), 6: math.sqrt(2), 23: 2.0}
    for rec in classify_all(3):
        members = orbit_of_id(3, rec.canonical_id).member_ids
        orbit_values = [exhaustive_n3_values[int(v)] for v in members]
        assert max(orbit_values) - min(orbit_values) < 1e-7
        assert orbit_values[0] == pytest.approx(published[rec.canonical_id], abs=1e-6)


def test_extreme_point_q_examples():
    flat = extreme_point_q(PhaseVector(0.0, (0.0, 0.0)))
    assert flat.xi == pytest.approx((1.0, 1.0, 1.0, 1.0))
    ghz_vec = extreme_point_q(PhaseVector(-HALF_PI, (HALF_PI,) * 3))
    assert np.allclose(ghz_vec.xi, (0, 1, 1, 0, 1, 0, 0, -1), atol=1e-12)
    shifted = extreme_point_q(PhaseVector(-HALF_PI + math.pi, (HALF_PI,) * 3))
    assert np.allclose(shifted.xi, -np.asarray(ghz_vec.xi), atol=1e-12)


def test_ghz_observable_angles():
    phases = PhaseVector(-HALF_PI, (HALF_PI,) * 3)
    spec = ghz_observables(phases)
    # alpha = phi0 / n with phi0 reduced to [0, 2pi)
    alpha = phases.phi0 / 3
    for a0, a1 in spec.angles:
        assert a0 == pytest.approx(alpha)
        assert a1 == pytest.approx(HALF_PI + alpha)
    for site in (1, 2, 3):
        for choice in (0, 1):
            m = xy_observable(spec.angles[site - 1][choice])
            assert np.allclose(m @ m, np.eye(2), atol=1e-14)


def test_ghz_state_amplitudes():
    psi = ghz_state(2)
    assert np.allclose(psi, (1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)))
    assert np.linalg.norm(ghz_state(5)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ghz_state(0)
    with pytest.raises(ValueError):
        ghz_state(13)


def test_ghz_realizes_quantum_extreme_points():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        for _ in range(10):
            phases = PhaseVector(
                float(rng.uniform(0, 2 * math.pi)),
                tuple(rng.uniform(0, 2 * math.pi, n)),
            )
            xi = simulate_correlations(ghz_state(n), ghz_observables(phases))
            target = extreme_point_q(phases)
            assert np.allclose(xi.xi, target.xi, atol=1e-10)


def test_simulator_product_state_has_no_xy_correlations():
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    spec = ObservableSpec(((0.1, 1.2), (0.7, 2.2), (2.9, 0.4)))
    xi = simulate_correlations(psi, spec)
    assert np.allclose(xi.xi, 0.0, atol=1e-14)


def test_simulator_chsh_value():
    phases = PhaseVector(-math.pi / 4, (HALF_PI, HALF_PI))
    xi = simulate_correlations(ghz_state(2), ghz_observables(phases))
    assert evaluate(CHSH, xi) == pytest.approx(math.sqrt(2), abs=1e-10)


def test_simulator_density_matrix_path_agrees():
    rng = np.random.default_rng(77)
    phases = PhaseVector(0.3, (0.9, 4.0, 2.5))
    spec = ghz_observables(phases)
    psi = ghz_state(3)
    rho = DensityMatrix(3, np.outer(psi, psi.conj()))
    a = simulate_correlations(psi, spec)
    b = simulate_correlations(rho, spec)
    assert np.allclose(a.xi, b.xi, atol=1e-12)


def test_simulator_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        simulate_correlations(ghz_state(3), ObservableSpec(((0.0, 1.0),)))
    with pytest.raises(DimensionMismatchError, match="^state has 2 qubits, spec 3 sites$"):
        simulate_correlations(DensityMatrix(2, np.eye(4) / 4), ObservableSpec(((0.0, 1.0),) * 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_simulator_matches_dense_oracle(n):
    """Both branches agree with the dense contraction on entangled states."""
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        spec = random_spec(rng, n)
        psi = random_pure_state(rng, n)
        states = [
            psi,
            DensityMatrix(n, np.outer(psi, psi.conj())),
            random_mixed_state(rng, n),
            sample_separable(n, 3, rng),
        ]
        for state in states:
            expected = dense_correlations(state, spec)
            assert np.abs(expected.imag).max() <= 1e-12
            got = simulate_correlations(state, spec).xi
            assert np.abs(np.asarray(got) - expected.real).max() <= 1e-12


def per_site_correlations(state, obs):
    """simulate_correlations' earlier route, kept as a reference: one np.outer
    and one exp per site, inside the contraction loop, then np.clip."""
    n = obs.n
    if isinstance(state, DensityMatrix):
        values = state.entries[:, ::-1].diagonal()
    else:
        psi = np.asarray(state, dtype=complex)
        values = psi * psi[::-1].conj()
    for theta in obs.angles:
        values = (np.exp(1j * np.outer(theta, (1.0, -1.0))) @ values.reshape(2, -1)).T
    values = values.reshape((2,) * n).transpose().reshape(1 << n)
    return np.clip(values.real, -1.0, 1.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_simulator_matches_the_per_site_route(n):
    """One exp over all sites' phases gives the per-site route's xi bit for bit,
    on negative angles and angles past 2pi too."""
    rng = np.random.default_rng(300 + n)
    for scale in (1.0, -1.0, 3.5, -7.0):
        spec = random_spec(rng, n)
        spec = ObservableSpec(tuple((scale * a, scale * b) for a, b in spec.angles))
        psi = random_pure_state(rng, n)
        for state in (psi, DensityMatrix(n, np.outer(psi, psi.conj())), random_mixed_state(rng, n)):
            got = np.array(simulate_correlations(state, spec).xi)
            assert got.tobytes() == per_site_correlations(state, spec).tobytes()


def test_simulator_rejects_unnormalized_vector():
    # xi(0) = cos(0) = 1 on the normalized state, so 2 psi would read 4 and
    # 0.5 psi a plausible 0.25; the norm of the input is checked, not the output
    spec = ghz_observables(PhaseVector(0.0, (0.0, 0.0, 0.0)))
    for scale in (2.0, 0.5):
        with pytest.raises(ValueError, match="state vector is not normalized"):
            simulate_correlations(scale * ghz_state(3), spec)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(DimensionMismatchError, match="^expected a 4x4 matrix for n=2$"):
        DensityMatrix(2, np.eye(2) / 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    """NaN compares False, so a NaN entry once passed the Hermitian and trace
    checks and died in eigvalsh with "Eigenvalues did not converge"."""
    for i, j in ((0, 0), (0, 1)):
        rho = np.eye(2, dtype=complex) / 2
        rho[i, j] = bad
        with pytest.raises(ValueError, match="^density matrix has a non-finite entry$"):
            DensityMatrix(1, rho)


def test_density_matrix_positivity_matches_the_eigenvalue_route():
    """The Cholesky factorization of rho + tol * I accepts exactly the states whose least
    eigenvalue, by eigvalsh (the reference), is at least -tol: 3,000 unit-trace states with
    n = 1..5, their least eigenvalue placed 0.1% to 100% of tol on either side of -tol."""
    tol = quantum._EIGENVALUE_TOL
    rng = np.random.default_rng(2001)
    decided = []
    for trial in range(3000):
        n = 1 + trial % 5
        dim = 1 << n
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        least = -tol + tol * 10 ** rng.uniform(-3, 0) * rng.choice((-1, 1))
        rho = (q * np.append(least, rng.dirichlet(np.ones(dim - 1)) * (1 - least))) @ q.conj().T
        expected = np.linalg.eigvalsh(rho).min() >= -tol
        try:
            DensityMatrix(n, rho)
            accepted = True
        except ValueError as exc:
            assert str(exc) == "density matrix has a negative eigenvalue"
            accepted = False
        assert accepted == expected == (least >= -tol), (trial, least)
        decided.append(accepted)
    assert 1000 < sum(decided) < 2000


def test_bell_norm_chsh_orthogonal_observables():
    spec = ObservableSpec(((0.0, HALF_PI), (math.pi / 4, -math.pi / 4)))
    assert bell_operator_norm_exact(CHSH, spec) == pytest.approx(
        math.sqrt(2), abs=1e-10
    )


def test_bell_norm_degenerate_observables():
    spec = ObservableSpec(((0.3, 0.3), (1.1, 1.1)))
    rng = np.random.default_rng(8)
    for _ in range(10):
        beta = random_extremal(rng, 2)
        c = beta.coefficients
        total = sum(np.asarray(c.numerators) / 2**c.log_denominator)
        assert bell_operator_norm_exact(beta, spec) == pytest.approx(
            abs(total), abs=1e-10
        )


def test_bell_norm_routes_agree_on_random_inputs():
    rng = np.random.default_rng(15)
    for n in (2, 3):
        for _ in range(25):
            beta = random_extremal(rng, n)
            if not any(beta.coefficients.numerators):
                continue
            pairs = [
                (random_bloch_observable(rng), random_bloch_observable(rng))
                for _ in range(n)
            ]
            value = bell_operator_norm_exact(beta, pairs)
            assert abs(value - dense_norm(beta, pairs)) <= 1e-8
            assert value <= mermin_bound(n) + 1e-8


def test_bell_norm_needs_one_observable_pair_per_site():
    pairs = [(quantum.SIGMA_X, quantum.SIGMA_Y)] * 3
    with pytest.raises(DimensionMismatchError, match="^3 observable pairs for 2 sites$"):
        bell_operator_norm_exact(CHSH, pairs)
    with pytest.raises(DimensionMismatchError, match="^1 observable pairs for 2 sites$"):
        bell_operator_norm_exact(CHSH, ObservableSpec(((0.0, HALF_PI),)))


@pytest.mark.parametrize("n", [11, 12])
def test_bell_norm_beyond_the_dense_operator(n):
    """The Mermin observables (phi_k = 3pi/2 on the GHZ state) reach 2^((n-1)/2)."""
    beta = coefficients_from_signs(mermin_sign_table(n))
    spec = ghz_observables(PhaseVector(0.0, (1.5 * math.pi,) * n))
    assert bell_operator_norm_exact(beta, spec) == pytest.approx(mermin_bound(n), abs=1e-9)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(23)
    rho = sample_separable(3, 4, rng).entries
    for sites in ({1}, {2}, {3}, {1, 3}):
        pt = partial_transpose(rho, sites)
        assert np.allclose(partial_transpose(pt, sites), rho, atol=1e-14)
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)


def test_partial_transpose_ghz_negative_eigenvalue():
    psi = ghz_state(2)
    rho = np.outer(psi, psi.conj())
    eigs = np.linalg.eigvalsh(partial_transpose(rho, {2}))
    assert eigs.min() == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_site_range():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4) / 4, {3})


@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (4,)])
def test_partial_transpose_needs_a_2n_square_matrix(shape):
    with pytest.raises(DimensionMismatchError, match=r"^expected a 2\^n x 2\^n matrix"):
        partial_transpose(np.zeros(shape), {1})


def test_partial_transpose_matches_the_entrywise_definition():
    """Transposing site k swaps bit n-k (site 1 is the most significant) between
    the row and the column index of every entry."""
    n, rng = 3, np.random.default_rng(29)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for sites in (set(), {1}, {2}, {3}, {1, 3}, {1, 2, 3}):
        mask = sum(1 << (n - k) for k in sites)
        pt = partial_transpose(mat, sites)
        for i, j in itertools.product(range(8), repeat=2):
            swap = (i ^ j) & mask
            assert pt[i ^ swap, j ^ swap] == mat[i, j], (sites, i, j)


def test_partial_transpose_reads_sites_as_integers():
    """int(k) once truncated the sites: {1.5} transposed site 1, and {"2"} site 2."""
    rho = sample_separable(2, 3, np.random.default_rng(31)).entries
    for sites in ({1.5}, {"2"}):
        with pytest.raises(TypeError):
            partial_transpose(rho, sites)
    assert np.array_equal(partial_transpose(rho, {np.int64(2)}), partial_transpose(rho, {2}))


def test_sample_separable_is_ppt():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = sample_separable(3, int(rng.integers(1, 6)), rng)
        for sites in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            eigs = np.linalg.eigvalsh(partial_transpose(rho, sites))
            assert eigs.min() >= -1e-10


def test_too_many_qubits_are_rejected_before_allocating(capsys):
    """The qubit count is checked before the 4^n density matrix exists."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"qubit count must be 1\.\.12, got 13"):
            sample_separable(13, 1)
        assert cli.main(["ppt-check", "-n", "13"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err == "error: qubit count must be 1..12, got 13\n"


def test_violation_qubit_count_is_checked_before_allocating(capsys):
    """n is checked before the 4^(n-1)-point start grid (6.5 GiB at n=14) or any table exists."""
    beta = bell_table_from_id(13, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"qubit count must be 1\.\.12, got 13"):
            max_violation(beta)
        for n in ("13", "14", "31"):
            assert cli.main(["violation", "-n", n, "--id", "1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err == "".join(
        f"error: qubit count must be 1..12, got {n}\n" for n in (13, 14, 31)
    )


def test_sample_separable_single_term_is_pure():
    rho = sample_separable(2, 1, seed=9).entries
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="^need at least one term, got 0$"):
        sample_separable(2, 0)


def kron_separable(n, terms, rng):
    """sample_separable's draws in its order, each product state built by np.kron."""
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        psi = np.ones(1, dtype=complex)
        for _ in range(n):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp /= np.linalg.norm(amp)
            psi = np.kron(psi, amp)
        rho += w * np.outer(psi, psi.conj())
    return rho


@pytest.mark.parametrize("n", range(1, 7))
def test_sample_separable_matches_a_kron_build(n):
    """Outer products give np.kron's states bit for bit, and the generator is
    left where np.kron's build leaves it, so a seeded ppt-check run replays."""
    for terms in range(1, 5):
        rng, ref = np.random.default_rng(60 + terms), np.random.default_rng(60 + terms)
        rho = sample_separable(n, terms, rng).entries
        assert rho.tobytes() == kron_separable(n, terms, ref).tobytes()
        assert rng.random() == ref.random()


def test_separable_states_stay_classical():
    rng = np.random.default_rng(52)
    for _ in range(10):
        rho = sample_separable(3, 3, rng)
        angles = rng.uniform(0, 2 * math.pi, size=(3, 2))
        spec = ObservableSpec(tuple(map(tuple, angles)))
        xi = simulate_correlations(rho, spec)
        assert l1_margin(xi) <= 1.0 + 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(66)
    step = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 5))
        beta = random_extremal(rng, n)
        phi = rng.uniform(0, 2 * math.pi, n)
        grad, fd = ascent_gradient_and_differences(beta, phi, step)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dense_bell_operator_shares_the_simulator_qubit_order(n):
    """tr(rho B) equals beta . xi on non-symmetric product mixtures."""
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        beta = random_extremal(rng, n)
        obs = ObservableSpec(tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(n)))
        rho = sample_separable(n, 3, rng)
        dense = dense_bell_operator(_coefficient_array(beta), obs.matrix_pairs())
        expected = evaluate(beta, simulate_correlations(rho, obs))
        assert np.trace(rho.entries @ dense).real == pytest.approx(expected, abs=1e-12)


def shifts_upb_state():
    """(1 - sum_i |psi_i><psi_i|)/4 over the Shifts unextendible product basis."""
    zero, one = np.eye(2, dtype=complex)
    plus, minus = (zero + one) / math.sqrt(2), (zero - one) / math.sqrt(2)
    rho = np.eye(8, dtype=complex)
    for a, b, c in ((zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus)):
        psi = np.kron(np.kron(a, b), c)
        rho -= np.outer(psi, psi.conj())
    return rho / 4


def test_bound_entangled_ppt_state_stays_classical():
    """Shifts-UPB state: PPT on every cut, so every inequality holds for it.

    Local unitaries turn any pair of +-1 observables per site into x-y-plane
    ones and keep PPT, so rotating the state and sampling x-y angles samples
    every non-degenerate measurement.
    """
    rho = shifts_upb_state()
    for site in (1, 2, 3):
        assert np.linalg.eigvalsh(partial_transpose(rho, {site})).min() >= -1e-12
    rng = np.random.default_rng(61)
    for _ in range(100):
        u = haar_local_unitary(rng, 3)
        rotated = DensityMatrix(3, u @ rho @ u.conj().T)
        for _ in range(20):
            xi = simulate_correlations(rotated, random_spec(rng, 3))
            assert l1_margin(xi) <= 1.0 + 1e-9


def test_dur_state_shows_the_ppt_hypothesis_is_sharp():
    """Dur's N=8 state: PPT on the one-site cuts only, and it violates Mermin."""
    n = 8
    dim = 1 << n
    ghz = ghz_state(n)
    rho = np.outer(ghz, ghz.conj())
    for k in range(n):
        u_k = 1 << (n - 1 - k)  # |0..1_k..0>; its complement is dim - 1 - u_k
        rho[u_k, u_k] += 0.5
        rho[dim - 1 - u_k, dim - 1 - u_k] += 0.5
    state = DensityMatrix(n, rho / (n + 1))
    for mask in range(1, 1 << (n - 1)):  # one side of each of the 127 cuts
        sites = {k + 1 for k in range(n - 1) if mask >> k & 1}
        ppt = np.linalg.eigvalsh(partial_transpose(state, sites)).min() >= -1e-12
        assert ppt == (len(sites) in (1, n - 1)), sites
    beta = coefficients_from_signs(mermin_sign_table(n))
    phi = (1.5 * math.pi,) * n
    total = _coefficient_array(beta) @ (-1j) ** np.bitwise_count(np.arange(dim))
    phases = PhaseVector(-float(np.angle(total)), phi)
    assert evaluate(beta, extreme_point_q(phases)) == pytest.approx(mermin_bound(n), abs=1e-12)
    xi = simulate_correlations(state, ghz_observables(phases))
    assert evaluate(beta, xi) == pytest.approx(2**3.5 / 9, abs=1e-12)
