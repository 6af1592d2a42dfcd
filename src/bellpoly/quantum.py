"""Quantum violations, GHZ realizations, and a qubit simulator.

The maximal quantum value of an inequality reduces to maximizing
|sum_s beta(s) prod_k e^(i phi_k s_k)| over one angle per site, which
`max_violation` does from grid and random starts at phi_n = 0: closed-form
per-site coordinate sweeps (site n first) bring every start near a maximum,
and a batched saddle-free Newton ascent with the exact gradient and
Hessian finishes those swept nearest the best.  Every extreme point of the
quantum body has the cosine form xi(s) = cos(phi0 + sum_k phi_k s_k) and is
realized by the generalized GHZ state with observables in the x-y plane of
the Bloch sphere.  A simulator of x-y-plane correlations (read off the state's
anti-diagonal), the Bell operator's norm from the eigenvalues of
C_k = A_k(1) A_k(0), and partial-transpose utilities keep the variational
formula honest.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .classical import CorrelationVector
from .inequality import BellTable
from .transform import DimensionMismatchError, bit_matrix, site_count

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
# starts per sweep block and most starts polished: memory O(block * 2^n * n) at every n
_START_BLOCK = 1024
_RANDOM_STARTS = 32
# cycles of closed-form site steps over sites 1..n before the Newton ascent
_SWEEPS = 3
# only starts swept to |T| >= (1 - _POLISH_GAP) * the best swept |T| take the Newton ascent
_POLISH_GAP = 1e-6
_MAX_ITERATIONS = 500
_GRADIENT_TOL = 1e-12
_MAX_HALVINGS = 40
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


@dataclass(frozen=True)
class PhaseVector:
    """A global phase and one angle per site, reduced to [0, 2pi)."""

    phi0: float
    phi: tuple[float, ...]

    def __post_init__(self) -> None:
        phi = tuple(_reduce_angle(v) for v in self.phi)
        site_count(len(phi))
        object.__setattr__(self, "phi0", _reduce_angle(self.phi0))
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return len(self.phi)


def xy_observable(theta: float) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y; Hermitian and squares to 1."""
    return math.cos(theta) * SIGMA_X + math.sin(theta) * SIGMA_Y


@dataclass(frozen=True)
class ObservableSpec:
    """Two x-y-plane observables per site, given by their finite azimuth angles, unreduced."""

    angles: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        angles = tuple((float(a), float(b)) for a, b in self.angles)
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated n-qubit state: Hermitian, unit trace, positive."""

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = _qubit_count(self.n)
        rho = np.array(self.entries, dtype=complex)
        dim = 1 << n
        if rho.shape != (dim, dim):
            raise DimensionMismatchError(f"expected a {dim}x{dim} matrix for n={n}")
        if not np.isfinite(rho).all():  # NaN passes every comparison below
            raise ValueError("density matrix has a non-finite entry")
        if np.abs(rho - rho.conj().T).max() > _HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs((trace := np.trace(rho)).real - 1.0) > _TRACE_TOL or abs(trace.imag) > _TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.linalg.eigvalsh(rho).min() < -_EIGENVALUE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
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


@dataclass(frozen=True)
class ViolationResult:
    """The winning start's value, phases and gradient norm, as its ascent left them.

    `starts` counts every swept start, (4^(n-1) + 2^(n-1))/2 + 32, `polished`
    those that took the Newton ascent (at most `_START_BLOCK`), and `iterations`
    their Newton steps.  The last two count one run on one BLAS build, since a
    start's rounding, and so its path, moves with its batch and the BLAS; tests
    pin only `value`, `converged` and attaining phases.
    """

    value: float
    phases: PhaseVector
    converged: bool
    gradient_norm: float
    starts: int = 0
    iterations: int = 0
    polished: int = 0


def mermin_bound(n: int) -> float:
    """2^((n-1)/2), the overall maximum over all inequalities."""
    n = site_count(n)
    return 2.0 ** ((n - 1) / 2)


def _start_points(n: int, seed: int) -> np.ndarray:
    """`_build_start_points`, copied from a read-only cache when they fit one `_START_BLOCK` (n <= 6)."""
    fits = (4 ** (n - 1) + 2 ** (n - 1)) // 2 + _RANDOM_STARTS <= _START_BLOCK
    return _cached_start_points(n, seed).copy() if fits else _build_start_points(n, seed)


def _build_start_points(n: int, seed: int) -> np.ndarray:
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


@lru_cache(maxsize=32)  # grids of at most 27 KB each
def _cached_start_points(n: int, seed: int) -> np.ndarray:
    points = _build_start_points(n, seed)
    points.flags.writeable = False
    return points


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
    turn = np.subtract(*np.arctan2(halves.imag, halves.real))  # arg A - arg B
    split[:, 1] *= np.exp(1j * turn)
    return turn


def _coordinate_sweeps(coeffs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Closed-form site steps (`_turn_site`) from every row of phi: site n,
    then `_SWEEPS` cycles over sites 1..n.

    W is built once and each step rotates half of it in place.  Its starts
    run along the last axis, so every sum and rotation walks contiguous rows
    of starts whatever the site.  No step lowers |T|, and a start on a saddle
    steps straight off it, which leaves the Newton ascent only its quadratic
    endgame.  The swept angles are written back into phi, reduced mod 2pi,
    and |T|^2 = |sum_s W_s|^2 at them is returned.
    """
    n = phi.shape[1]
    weighted = coeffs[:, None] * np.exp(1j * (bit_matrix(n) @ phi.T))
    for k in [n] + [*range(1, n + 1)] * _SWEEPS:
        phi[:, k - 1] += _turn_site(weighted, k)
    np.mod(phi, TWO_PI, out=phi)
    total = weighted.sum(axis=0)
    return total.real**2 + total.imag**2


def _ascent_terms(
    coeffs: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """|T|^2, its gradient, its exact Hessian and T itself at every row of phi.

    With W_s = beta(s) e^(i phi.s), T = sum_s W_s and P_k = sum_s W_s s_k:
    the gradient is -2 Im(conj(T) P) and the Hessian is
    2 Re(conj(P_j) P_k) - 2 Re(conj(T) sum_s W_s s_j s_k).
    """
    starts, n = phi.shape
    weighted = coeffs * np.exp(1j * (phi @ bit_matrix(n).T))
    moments = weighted @ _moment_matrix(n)
    total, partials = moments[:, 0], moments[:, 1 : n + 1]
    second = moments[:, n + 1 :].reshape(starts, n, n)
    value = total.real**2 + total.imag**2
    grad = -2.0 * (total.conj()[:, None] * partials).imag
    hess = 2.0 * (partials.conj()[:, :, None] * partials[:, None, :]).real
    hess -= 2.0 * (total.conj()[:, None, None] * second).real
    return value, grad, hess, total


def _newton_ascent(coeffs: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Saddle-free Newton ascent of |T|^2 from every row of phi at once, in place.

    The step is |H|^-1 g, with the Hessian's eigenvalues taken by absolute
    value (floored at 1e-8 of the largest), so it climbs out of saddles.  It
    is halved until |T|^2 rises, or holds within rounding as the gradient
    shrinks.  A start stops at its gradient tolerance, after _MAX_ITERATIONS
    steps, or after _MAX_HALVINGS rejected trials in a row.  Each round, every
    live start takes its direction at its current point from one stacked eigh,
    and their trials are evaluated in one batch.
    The angles each start accepts are written into phi; returned, per start,
    are |T|^2, T and the gradient norm there, and the number of steps taken.
    """
    value, grad, hess, total = _ascent_terms(coeffs, phi)
    grad_norm = np.sqrt(np.add.reduce(grad * grad, axis=1))
    length, steps = np.ones(len(phi)), np.zeros(len(phi), int)
    while (live := np.flatnonzero(
        (grad_norm > _GRADIENT_TOL) & (steps < _MAX_ITERATIONS) & (length > 0.5**_MAX_HALVINGS)
    )).size:
        eigvals, eigvecs = np.linalg.eigh(hess[live])
        scale = np.abs(eigvals)
        scale = np.maximum(scale, np.maximum(1e-8 * scale.max(axis=1, keepdims=True), _TINY))
        along = np.einsum("mji,mj->mi", eigvecs, grad[live]) / scale
        delta = np.einsum("mij,mj->mi", eigvecs, along)
        trial = np.mod(phi[live] + length[live, None] * delta, TWO_PI)
        t_value, t_grad, t_hess, t_total = _ascent_terms(coeffs, trial)
        t_norm = np.sqrt(np.add.reduce(t_grad * t_grad, axis=1))
        before = value[live]
        held = np.abs(t_value - before) <= _HOLD_EPS * np.maximum(before, 1.0)
        ok = (t_value > before) | (held & (t_norm < grad_norm[live]))
        up = live[ok]
        phi[up], value[up], total[up] = trial[ok], t_value[ok], t_total[ok]
        grad[up], hess[up], grad_norm[up] = t_grad[ok], t_hess[ok], t_norm[ok]
        steps[up], length[up] = steps[up] + 1, 1.0
        length[live[~ok]] *= 0.5  # exact: 2^-k after k rejected trials
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
    starts is swept first.  Of the starts swept to within `_POLISH_GAP` of the
    best swept |T|, at most `_START_BLOCK`, the highest swept first (grid order
    breaks ties), climb on in one batch in grid order by saddle-free Newton
    steps over all n angles (`_newton_ascent`).  Of the polished starts whose
    |T|^2 holds the best within `_HOLD_EPS`, the one of least gradient norm wins.
    Its |T|, T and norm are the ones the ascent returned, not evaluated again;
    phi0 = -arg T, so extreme_point_q(result.phases) attains the value, and
    `converged` says the norm is at most 1e-8.  Deterministic for a given
    seed; nonconvergence is reported via the flag, never raised.  n must be
    1..12, as for the GHZ state that realizes it, checked before any grid.
    """
    if not any(beta.coefficients.numerators):
        raise ValueError("the zero table has no violation to maximize")
    coeffs = _coefficient_array(beta)
    starts = _start_points(_qubit_count(beta.n), seed)
    swept = np.concatenate([_coordinate_sweeps(coeffs, b) for b in _blocks(starts)])
    near = np.flatnonzero(swept >= (1.0 - _POLISH_GAP) ** 2 * swept.max())  # swept holds |T|^2
    kept = starts[np.sort(near[np.argsort(-swept[near], kind="stable")[:_START_BLOCK]])]
    values, totals, norms, steps = _newton_ascent(coeffs, kept)  # climbs kept in place
    tied = np.flatnonzero(values >= values.max() - _HOLD_EPS * max(values.max(), 1.0))
    best = tied[np.argmin(norms[tied])]
    return ViolationResult(
        value=math.sqrt(values[best]),
        phases=PhaseVector(-float(np.angle(totals[best])), tuple(kept[best])),
        converged=bool(norms[best] <= 1e-8),
        gradient_norm=float(norms[best]),
        starts=len(starts),
        iterations=int(steps.sum()),
        polished=len(kept),
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
    state: Union[np.ndarray, DensityMatrix], obs: ObservableSpec
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
    observables: Union[ObservableSpec, Sequence[tuple[np.ndarray, np.ndarray]]],
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
    rho: Union[np.ndarray, DensityMatrix], sites: Iterable[int]
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
