"""The classically accessible correlation region.

The region is the convex hull of 2^(n+1) deterministic extreme points and
equals the l1 unit ball in transform coordinates: a vector lies inside iff
sum_r |spectrum(xi)[r]| <= 1.  The sign pattern of the spectrum is the
inequality most strongly violated by xi; it is computed with the same
butterfly as the exact transform, over floats.  An independent feasibility
oracle over the extreme points, one non-negative least-squares solve, backs
the l1 criterion in tests.
"""

from __future__ import annotations

import csv
import operator
from collections.abc import Iterable, Sequence

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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.xi, dtype=float)


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

    Independent of the l1 criterion: one non-negative least-squares solve
    (Lawson-Hanson), min ||A w - (xi, 1)|| over w >= 0, with the extreme
    points as the columns of A over a row of ones.  Measured at n = 2, 3, 4,
    the residual is exactly 0.0 inside the region and at least
    (margin - 1)/sqrt(2) outside, so the threshold 1e-12 resolves margins
    1 +- 1e-9.  nnls raises RuntimeError at its iteration cap, so a solver
    failure never passes as infeasibility.  scipy is imported here, not at
    module load, so that `import bellpoly` does not pay for `scipy.optimize`.
    """
    from scipy.optimize import nnls

    n = xi.n
    if n > _LP_MAX_SITES:
        raise ValueError(f"the membership oracle is limited to n <= {_LP_MAX_SITES}")
    bits = bit_matrix(n)
    signs = 1.0 - 2.0 * ((bits @ bits.T) % 2)  # column r is the extreme point (+r)
    a = np.vstack([np.hstack([signs, -signs]), np.ones((1, 2 << n))])
    return nnls(a, np.append(xi.as_array(), 1.0))[1] <= 1e-12


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
