"""Quantum violations, GHZ realizations, and a qubit simulator.

The maximal quantum value of an inequality reduces to maximizing
|sum_s beta(s) prod_k e^(i phi_k s_k)| over one angle per site, which
`max_violation` does from grid and random starts at phi_n = 0: closed-form
per-site coordinate sweeps (site n first) bring every start near a maximum,
and a saddle-free Newton ascent with the exact gradient and Hessian
finishes the one swept to the best value (the next best too, should it
stall short of convergence).  Every extreme point of the quantum body has
the cosine form xi(s) = cos(phi0 + sum_k phi_k s_k) and is realized by the
generalized GHZ state with observables in the x-y plane of the Bloch sphere.
A simulator of x-y-plane correlations (read off the state's anti-diagonal),
the Bell operator's norm from the eigenvalues of C_k = A_k(1) A_k(0), and
partial-transpose utilities keep the variational formula honest.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from .classical import CorrelationVector
from .inequality import BellTable
from .transform import DimensionMismatchError, _Value, bit_matrix, site_count

__all__ = [
    "DensityMatrix",
    "ObservableSpec",
    "PhaseVector",
    "ViolationResult",
    "bell_operator_norm_exact",
    "extreme_point_q",
    "ghz_observables",
    "ghz_state",
    "max_violation",
    "mermin_bound",
    "partial_transpose",
    "sample_separable",
    "simulate_correlations",
    "xy_observable",
]

TWO_PI = 2.0 * math.pi
MAX_SIMULATOR_QUBITS = 12
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_TOL = 1e-10
# starts per sweep block: memory O(block * 2^n) at every n
_START_BLOCK = 1024
_RANDOM_STARTS = 32
# cycles of closed-form site steps over sites 1..n before the Newton ascent
_SWEEPS = 3
_MAX_ITERATIONS = 500
_GRADIENT_TOL = 1e-12
# the gradient norm at or below which a polished start has converged
_CONVERGED_NORM = 1e-8
_MAX_HALVINGS = 40
# starts polished at most, best swept first, while none converges at the best value
_POLISH_TRIES = 4
_HOLD_EPS = 4.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _qubit_count(n: int) -> int:
    """n as an int, checked to lie in 1..MAX_SIMULATOR_QUBITS before any 2^n array exists."""
    n = operator.index(n)
    if not 1 <= n <= MAX_SIMULATOR_QUBITS:
        raise ValueError(f"qubit count must be 1..{MAX_SIMULATOR_QUBITS}, got {n}")
    return n


def _reduce_angle(v: float) -> float:
    """v mod 2pi in [0, 2pi); a tiny negative v rounds to 2pi itself, which is 0."""
    if not math.isfinite(v := float(v)):
        raise ValueError(f"angles must be finite, got {v}")
    v %= TWO_PI
    return 0.0 if v == TWO_PI else v


class PhaseVector(_Value):
    """A global phase and one angle per site, reduced to [0, 2pi)."""

    __slots__ = ("phi0", "phi")

    def __init__(self, phi0: float, phi: Sequence[float]) -> None:
        phi = tuple(_reduce_angle(v) for v in phi)
        site_count(len(phi))
        object.__setattr__(self, "phi0", _reduce_angle(phi0))
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return len(self.phi)


def xy_observable(theta: float) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y; Hermitian and squares to 1."""
    return math.cos(theta) * SIGMA_X + math.sin(theta) * SIGMA_Y


class ObservableSpec(_Value):
    """Two x-y-plane observables per site, given by their finite azimuth angles, unreduced."""

    __slots__ = ("angles",)

    def __init__(self, angles: Sequence[tuple[float, float]]) -> None:
        angles = tuple((float(a), float(b)) for a, b in angles)
        if bad := [v for pair in angles for v in pair if not math.isfinite(v)]:
            raise ValueError(f"angles must be finite, got {bad[0]}")
        site_count(len(angles))
        object.__setattr__(self, "angles", angles)

    @property
    def n(self) -> int:
        return len(self.angles)

    def matrix_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [
            (xy_observable(a), xy_observable(b)) for a, b in self.angles
        ]


class DensityMatrix(_Value):
    """A validated n-qubit state: Hermitian, unit trace, positive; compared by identity."""

    __slots__ = ("n", "entries")
    __eq__, __hash__ = object.__eq__, object.__hash__
    _hidden = ("entries",)

    def __init__(self, n: int, entries: np.ndarray) -> None:
        n = _qubit_count(n)
        rho = np.array(entries, dtype=complex)
        dim = 1 << n
        if rho.shape != (dim, dim):
            raise DimensionMismatchError(f"expected a {dim}x{dim} matrix for n={n}")
        if not np.isfinite(rho).all():  # NaN passes every comparison below
            raise ValueError("density matrix has a non-finite entry")
        if np.abs(rho - rho.conj().T).max() > _HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs((trace := np.trace(rho)).real - 1.0) > _TRACE_TOL or abs(trace.imag) > _TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        try:  # factors iff every eigenvalue of rho exceeds -_EIGENVALUE_TOL, at a fraction of eigvalsh's cost
            np.linalg.cholesky(rho + _EIGENVALUE_TOL * np.eye(dim))
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has a negative eigenvalue") from None
        rho.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rho)


@lru_cache(maxsize=16)
def _moment_matrix(n: int) -> np.ndarray:
    """(2^n, 1 + n + n*n) complex matrix: row s is [1 | s_k | s_j s_k at n + 1 + j*n + k]."""
    bits = bit_matrix(n)
    pairs = (bits[:, :, None] * bits[:, None, :]).reshape(1 << n, n * n)
    moments = np.hstack([np.ones((1 << n, 1)), bits, pairs]).astype(complex)
    moments.flags.writeable = False
    return moments


def _coefficient_array(beta: BellTable) -> np.ndarray:
    c = beta.coefficients
    return np.asarray(c.numerators, dtype=float) / (1 << c.log_denominator)


class ViolationResult(_Value):
    """The polished start's value, phases and gradient norm, as its ascent left them.

    `starts` counts every swept start, (4^(n-1) + 2^(n-1))/2 + 32, and
    `iterations` the Newton steps of the starts polished: one start, unless
    its ascent stalls (see `max_violation`).  That count is one run on one
    BLAS build: the sweeps round a start with its block and the BLAS, which
    can move which start sweeps highest and so its path; tests pin only
    `value`, `converged` and attaining phases.
    """

    __slots__ = ("value", "phases", "converged", "gradient_norm", "starts", "iterations")

    def __init__(
        self, value: float, phases: PhaseVector, converged: bool, gradient_norm: float,
        starts: int = 0, iterations: int = 0,
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "converged", converged)
        object.__setattr__(self, "gradient_norm", gradient_norm)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "iterations", iterations)


def mermin_bound(n: int) -> float:
    """2^((n-1)/2), the overall maximum over all inequalities."""
    n = site_count(n)
    return 2.0 ** ((n - 1) / 2)


def _fits_one_block(n: int) -> bool:
    """Whether the (4^(n-1) + 2^(n-1))/2 + `_RANDOM_STARTS` starts fit one `_START_BLOCK` (n <= 6)."""
    return (4 ** (n - 1) + 2 ** (n - 1)) // 2 + _RANDOM_STARTS <= _START_BLOCK


def _start_points(n: int, seed: int) -> np.ndarray:
    """Start points over sites 1..n, all with phi_n = 0 (the sweeps set it).

    beta is real, so T(-phi) = conj T(phi), and grid points c and -c start
    mirrored paths: the grid {0, pi/2, pi, 3pi/2}^(n-1) x {0} keeps the first
    of each pair, then `_RANDOM_STARTS` seeded random points follow.  A dropped
    mirror is neither climbed nor counted.  Grid point c is one uint32 code,
    site 1 its top base-4 digit, so grid order is integer order."""
    codes = np.arange(4 ** (n - 1), dtype=np.uint32)
    # -d mod 4 swaps digits 1 and 3 and fixes 0 and 2: it flips a digit's high
    # bit where its low bit is set; c is kept iff c <= -c (a self-mirror once)
    codes = codes[codes <= codes ^ (codes & 0x55555555) << 1]
    points = np.empty((len(codes) + _RANDOM_STARTS, n))
    for k in range(n - 1):
        np.multiply(codes >> 2 * (n - 2 - k) & 3, 0.5 * math.pi, out=points[: len(codes), k])
    points[len(codes) :] = np.random.default_rng(seed).uniform(0.0, TWO_PI, (_RANDOM_STARTS, n))
    points[:, n - 1] = 0.0
    return points


def _phasors(phi: np.ndarray) -> np.ndarray:
    """e^(i phi.s), one row per s and one column per row of phi (a vector for
    one start), made in the one complex array that first holds i phi.s."""
    phasors = 1j * (bit_matrix(phi.shape[-1]) @ phi.T)
    return np.exp(phasors, out=phasors)


@lru_cache(maxsize=8)
def _one_block_starts(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The start points of a one-block (n, seed) and their `_phasors`, both
    read-only: 8 entries of at most 560 x 6 floats and 64 x 560 complex
    values (586 KiB at n = 6), 4.6 MiB in all."""
    points = _start_points(n, seed)
    phasors = _phasors(points)
    points.flags.writeable = phasors.flags.writeable = False
    return points, phasors


def _turn_site(weighted: np.ndarray, k: int) -> np.ndarray:
    """Turn site k of every start to its best angle; weighted[s] holds
    W_s = beta(s) e^(i phi.s) with one column per start.

    Split on s_k (bit k-1 of s), T = A + B with B the s_k = 1 half; turning
    phi_k by arg A - arg B rotates B onto A, so |T| becomes |A| + |B|, the
    maximum over phi_k.  The s_k = 1 half of W is rotated in place, and the
    turns are returned.  Where A or B vanishes the turn is the angle of a
    rounding residue, which leaves |T| as it is.
    """
    split = weighted.reshape(-1, 2, 1 << (k - 1), weighted.shape[1])
    halves = np.add.reduce(split, axis=(0, 2))
    args = np.arctan2(halves.imag, halves.real)
    turn = args[0] - args[1]  # arg A - arg B
    split[:, 1] *= np.exp(1j * turn)
    return turn


def _coordinate_sweeps(
    coeffs: np.ndarray, phi: np.ndarray, phasors: np.ndarray | None = None
) -> np.ndarray:
    """Closed-form site steps (`_turn_site`) from every row of phi: site n,
    then `_SWEEPS` cycles over sites 1..n.

    W is built once and each step rotates half of it in place.  Its starts
    run along the last axis, so every sum and rotation walks contiguous rows
    of starts whatever the site.  W is `_phasors(phi)`, or a copy of
    `phasors` (e^(i phi.s) at phi as given, cached by `_one_block_starts`),
    times coeffs in place: one complex matrix, no second beside it.  No step
    lowers |T|, and a start on a saddle steps straight off it, which leaves
    the Newton ascent only its quadratic endgame.  The swept angles are
    written back into phi, reduced mod 2pi, and |T|^2 = |sum_s W_s|^2 at them
    is returned.
    """
    n = phi.shape[1]
    weighted = _phasors(phi) if phasors is None else phasors.copy()
    weighted *= coeffs[:, None]
    for k in [n] + [*range(1, n + 1)] * _SWEEPS:
        phi[:, k - 1] += _turn_site(weighted, k)
    np.mod(phi, TWO_PI, out=phi)
    total = weighted.sum(axis=0)
    return total.real**2 + total.imag**2


def _ascent_terms(
    coeffs: np.ndarray, phi: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, complex]:
    """|T|^2, its gradient, its exact Hessian and T itself at the n angles phi.

    With W_s = beta(s) e^(i phi.s), T = sum_s W_s and P_k = sum_s W_s s_k:
    the gradient is -2 Im(conj(T) P) and the Hessian is
    2 Re(conj(P_j) P_k) - 2 Re(conj(T) sum_s W_s s_j s_k).
    """
    n = len(phi)
    moments = (coeffs * _phasors(phi)) @ _moment_matrix(n)
    total, partials = moments[0], moments[1 : n + 1]
    grad = -2.0 * (total.conj() * partials).imag
    hess = 2.0 * (partials.conj()[:, None] * partials).real
    hess -= 2.0 * (total.conj() * moments[n + 1 :].reshape(n, n)).real
    return total.real**2 + total.imag**2, grad, hess, total


def _newton_ascent(coeffs: np.ndarray, phi: np.ndarray) -> tuple[float, complex, float, int]:
    """Saddle-free Newton ascent of |T|^2 from the n angles phi, in place.

    The step is |H|^-1 g, with the Hessian's eigenvalues taken by absolute
    value (floored at 1e-8 of the largest), so it climbs out of saddles.  It
    is halved until |T|^2 rises, or holds within rounding as the gradient
    shrinks.  The ascent stops at its gradient tolerance, after
    _MAX_ITERATIONS steps, or after _MAX_HALVINGS rejected trials in a row.
    The angles it accepts are written into phi; returned are |T|^2, T and the
    gradient norm there, and the number of steps taken.
    """
    value, grad, hess, total = _ascent_terms(coeffs, phi)
    grad_norm, length, steps = math.sqrt(grad @ grad), 1.0, 0
    while grad_norm > _GRADIENT_TOL and steps < _MAX_ITERATIONS and length > 0.5**_MAX_HALVINGS:
        if length == 1.0:  # a new point: its direction, kept while the step halves
            eigvals, eigvecs = np.linalg.eigh(hess)
            scale = np.abs(eigvals)
            scale = np.maximum(scale, max(1e-8 * scale.max(), _TINY))
            delta = eigvecs @ ((grad @ eigvecs) / scale)
        trial = np.mod(phi + length * delta, TWO_PI)
        t_value, t_grad, t_hess, t_total = _ascent_terms(coeffs, trial)
        t_norm = math.sqrt(t_grad @ t_grad)
        held = abs(t_value - value) <= _HOLD_EPS * max(value, 1.0)
        if t_value > value or (held and t_norm < grad_norm):
            phi[:] = trial
            value, grad, hess, total, grad_norm = t_value, t_grad, t_hess, t_total, t_norm
            steps, length = steps + 1, 1.0
        else:
            length *= 0.5  # exact: 2^-k after k rejected trials
    return value, total, grad_norm, steps


def _blocks(rows: np.ndarray) -> Iterable[np.ndarray]:
    """Views of `_START_BLOCK` consecutive rows each."""
    return (rows[lo : lo + _START_BLOCK] for lo in range(0, len(rows), _START_BLOCK))


def max_violation(beta: BellTable, *, seed: int = 0) -> ViolationResult:
    """Global maximum of |T(phi)| = |sum_s beta(s) e^(i phi.s)| over the torus of site angles.

    Multi-start ascent on the squared modulus |T|^2: the starts are the grid
    {0, pi/2, pi, 3pi/2}^(n-1) plus `_RANDOM_STARTS` seeded random points, each
    with phi_n = 0; of each mirror pair of grid points only one is kept
    (`_start_points`).  Closed-form site steps, site n first and then `_SWEEPS`
    cycles over sites 1..n, turn one angle at a time to its best value
    (`_coordinate_sweeps`); no step lowers |T|.  Every block of `_START_BLOCK`
    starts is swept first.  A start set of one block (n <= 6) is cached
    read-only per (n, seed) with its phasors e^(i phi.s)
    (`_one_block_starts`: 8 entries of at most 586 KiB, 4.6 MiB in all), and
    the sweeps climb a copy; a larger set builds each block's phasors
    afresh.  The first start in grid order with the largest swept |T| then
    climbs on alone by saddle-free Newton steps over all n angles
    (`_newton_ascent`).  Should it stall with a gradient norm above
    `_CONVERGED_NORM` (1e-8), the next starts by swept |T| (grid order breaks
    ties), up to `_POLISH_TRIES` in all, climb in turn until one converges;
    of those whose |T|^2 holds the best within `_HOLD_EPS`, the one of least
    gradient norm wins.  The winner's |T|, T and norm are the ones its ascent
    returned, not evaluated again; phi0 = -arg T, so
    extreme_point_q(result.phases) attains the value, and `converged` says
    the norm is at most `_CONVERGED_NORM`.  Deterministic for a given seed;
    nonconvergence is reported via the flag, never raised.  n must be 1..12,
    as for the GHZ state that realizes it, checked before any grid.
    """
    if not any(beta.coefficients.numerators):
        raise ValueError("the zero table has no violation to maximize")
    seed = operator.index(seed)  # before the cache, where 1.0 would find seed 1's entry
    coeffs = _coefficient_array(beta)
    if _fits_one_block(n := _qubit_count(beta.n)):
        points, phasors = _one_block_starts(n, seed)
        starts = points.copy()
        swept = _coordinate_sweeps(coeffs, starts, phasors)
    else:
        starts = _start_points(n, seed)
        swept = np.concatenate([_coordinate_sweeps(coeffs, b) for b in _blocks(starts)])
    best = starts[int(swept.argmax())]  # a view: the ascent climbs it in place
    value, total, norm, steps = _newton_ascent(coeffs, best)
    if norm > _CONVERGED_NORM:  # stalled: the next starts by swept |T|^2 climb while none converges
        for i in np.argsort(-swept, kind="stable")[1:_POLISH_TRIES]:
            t_value, t_total, t_norm, t_steps = _newton_ascent(coeffs, starts[i])
            steps += t_steps
            held = abs(t_value - value) <= _HOLD_EPS * max(value, 1.0)
            if (t_value > value and not held) or (held and t_norm < norm):
                best, value, total, norm = starts[i], t_value, t_total, t_norm
            if norm <= _CONVERGED_NORM:
                break
    return ViolationResult(
        value=math.sqrt(value),
        phases=PhaseVector(-float(np.angle(total)), tuple(best)),
        converged=norm <= _CONVERGED_NORM,
        gradient_norm=norm,
        starts=len(starts),
        iterations=steps,
    )


def extreme_point_q(phases: PhaseVector) -> CorrelationVector:
    """The quantum-body extreme point xi(s) = cos(phi0 + sum_k phi_k s_k)."""
    angles = phases.phi0 + bit_matrix(phases.n) @ np.asarray(phases.phi)
    return CorrelationVector(phases.n, np.cos(angles).tolist())


def ghz_observables(phases: PhaseVector) -> ObservableSpec:
    """Observable angles realizing extreme_point_q(phases) on the GHZ state.

    With alpha = phi0/n, site k measures azimuth alpha for choice 0 and
    phi_k + alpha for choice 1.
    """
    alpha = phases.phi0 / phases.n
    return ObservableSpec(tuple((alpha, phi_k + alpha) for phi_k in phases.phi))


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) in the computational basis."""
    psi = np.zeros(1 << _qubit_count(n), dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return psi


def simulate_correlations(
    state: np.ndarray | DensityMatrix, obs: ObservableSpec
) -> CorrelationVector:
    """xi(s) = <prod_k A_k(s_k)> from the state's anti-diagonal, in O(n 2^n).

    A(theta) = cos(theta) X + sin(theta) Y maps |j> to e^(i theta (1-2j)) |1-j>,
    so only d_j = rho[j, ~j] (psi_j conj(psi_~j) for a vector) enters, and
    xi = (M_1 x ... x M_n) d with M_k[s, j] = e^(i (1-2j) theta_k(s)).  Site 1
    is the most significant bit of the basis index j; s_k is bit k-1 of s.  The
    j and ~j terms are conjugates, so xi is real, and in [-1, 1] for a unit
    state, up to rounding.  Accepts a unit state vector or a density matrix.
    """
    n = _qubit_count(obs.n)
    dim = 1 << n

    if isinstance(state, DensityMatrix):
        if state.n != n:
            raise DimensionMismatchError(f"state has {state.n} qubits, spec {n} sites")
        values = state.entries[:, ::-1].diagonal()
    else:
        psi = np.asarray(state, dtype=complex)
        if psi.shape != (dim,):
            raise DimensionMismatchError(
                f"state vector has shape {psi.shape}, expected ({dim},)"
            )
        if not abs(np.vdot(psi, psi).real - 1.0) <= _TRACE_TOL:  # NaN fails too
            raise ValueError("state vector is not normalized")
        values = psi * psi[::-1].conj()
    # one exp makes all M_k (axes k, s, j); each contracts the leading axis, site k's j; s_k goes last
    for site in np.exp(1j * (np.array(obs.angles)[:, :, None] * (1.0, -1.0))):
        values = (site @ values.reshape(2, -1)).T
    # the axes are now (s_1, ..., s_n); reverse them so s_1 is the low bit
    values = values.reshape((2,) * n).transpose().reshape(dim)
    xi = np.minimum(np.maximum(values.real, -1.0), 1.0)  # np.clip, without its Python wrapper
    return CorrelationVector(n, xi.tolist())


def bell_operator_norm_exact(
    beta: BellTable,
    observables: ObservableSpec | Sequence[tuple[np.ndarray, np.ndarray]],
) -> float:
    """Operator norm of sum_s beta(s) A_1(s_1) x ... x A_n(s_n), in O(n 2^n).

    For +-1-valued qubit observables it is the maximum, over the eigenvalue
    tuples of C_k = A_k(1) A_k(0), of |sum_s beta(s) prod_k gamma_k^(s_k)|.
    """
    if isinstance(observables, ObservableSpec):
        pairs = observables.matrix_pairs()
    else:
        pairs = [(np.asarray(a, complex), np.asarray(b, complex)) for a, b in observables]
    if len(pairs) != beta.n:
        raise DimensionMismatchError(f"{len(pairs)} observable pairs for {beta.n} sites")
    # values[p] = sum_s beta(s) prod_k gamma_k(p_k)^(s_k), one site at a time:
    # contract the low bit (s_k) with [1, gamma_k], then put p_k on top
    values = _coefficient_array(beta).astype(complex)
    for a, b in pairs:
        powers = np.stack([np.ones(2), np.linalg.eigvals(b @ a)])
        values = (values.reshape(-1, 2) @ powers).T.ravel()
    return float(np.abs(values).max())


def partial_transpose(
    rho: np.ndarray | DensityMatrix, sites: Iterable[int]
) -> np.ndarray:
    """Transpose the tensor factors in `sites` (1-based) in place of the basis.

    Involutive and trace-preserving; accepts any square 2^n x 2^n matrix.
    """
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, complex)
    dim = mat.shape[0]
    if mat.shape != (dim, dim) or dim & (dim - 1):
        raise DimensionMismatchError(f"expected a 2^n x 2^n matrix, got {mat.shape}")
    n = dim.bit_length() - 1
    subset = sorted(set(operator.index(k) for k in sites))
    if subset and not (1 <= subset[0] and subset[-1] <= n):
        raise ValueError(f"sites {subset} out of range 1..{n}")
    tensor = mat.reshape((2,) * (2 * n))
    # axis a belongs to site a % n + 1, as a row (a < n) or a column index
    axes = [(a + n) % (2 * n) if a % n + 1 in subset else a for a in range(2 * n)]
    return tensor.transpose(axes).reshape(dim, dim).copy()


def sample_separable(
    n: int, terms: int, seed: int | np.random.Generator = 0
) -> DensityMatrix:
    """A random convex mixture of random pure product states (PPT for all tau)."""
    dim = 1 << _qubit_count(n)
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = np.ones(1, dtype=complex)
        for _ in range(n):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp /= np.linalg.norm(amp)
            psi = np.multiply.outer(psi, amp).ravel()
        rho += w * np.outer(psi, psi.conj())
    return DensityMatrix(n, rho)
