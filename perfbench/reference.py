"""Reference data and independent reference implementations for the checks.

Nothing here imports bellpoly: the published tables are the benchmark's own
copy, and every derived expectation (transforms, codecs, the group action,
dense correlations, the polynomial text format) is recomputed by small,
obviously-correct code so that a wrong program output cannot also be the
expected value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
FIVE_THIRDS = 5.0 / 3.0

# Werner & Wolf, quant-ph/0102024: closed-form values to 1e-6, printed
# three-decimal values to 5e-4.
EXACT_TOL = 1e-6
PRINTED_TOL = 5e-4
GHZ_TOL = 1e-10
PPT_THRESHOLD = 1.0 + 1e-9
FLOAT_TOL = 1e-9

# n=3: canonical id -> (orbit size, maximal violation)
TABLE_N3 = {
    0: (16, 1.0),
    1: (128, FIVE_THIRDS),
    3: (48, SQRT2),
    6: (48, SQRT2),
    23: (16, 2.0),
}

# n=4: canonical id -> (size, violation, tolerance, permutation-invariant, factorizing)
TABLE_N4 = {
    0: (32, 1.0, EXACT_TOL, True, True),
    1: (512, 1.843, PRINTED_TOL, True, False),
    3: (1024, FIVE_THIRDS, EXACT_TOL, False, True),
    6: (1536, FIVE_THIRDS, EXACT_TOL, False, False),
    7: (3072, 1.932, PRINTED_TOL, False, False),
    15: (192, SQRT2, EXACT_TOL, False, True),
    22: (2048, 1.932, PRINTED_TOL, False, False),
    23: (1024, SQRT5, EXACT_TOL, False, False),
    24: (1024, 2.0, EXACT_TOL, False, False),
    25: (6144, SQRT3, EXACT_TOL, False, False),
    27: (3072, SQRT3, EXACT_TOL, False, False),
    30: (3072, SQRT3, EXACT_TOL, False, False),
    60: (384, SQRT2, EXACT_TOL, False, True),
    105: (128, SQRT2, EXACT_TOL, False, False),
    278: (256, SQRT5, EXACT_TOL, True, False),
    279: (512, 2.556, PRINTED_TOL, True, False),
    280: (3072, 2.139, PRINTED_TOL, False, False),
    281: (1536, 1.819, PRINTED_TOL, False, False),
    282: (3072, 1.819, PRINTED_TOL, False, False),
    283: (6144, 2.078, PRINTED_TOL, False, False),
    286: (1536, 2.078, PRINTED_TOL, False, False),
    287: (1536, 2.326, PRINTED_TOL, False, False),
    300: (3072, 2.0, EXACT_TOL, False, False),
    301: (6144, FIVE_THIRDS, EXACT_TOL, False, False),
    303: (3072, 1.819, PRINTED_TOL, False, False),
    317: (3072, 2.0, EXACT_TOL, False, False),
    318: (1536, 2.0, EXACT_TOL, False, False),
    319: (2048, 2.139, PRINTED_TOL, False, False),
    360: (1024, 2.326, PRINTED_TOL, False, False),
    363: (1536, SQRT3, EXACT_TOL, False, False),
    367: (1536, SQRT3, EXACT_TOL, False, False),
    383: (256, 2.0, EXACT_TOL, True, False),
    831: (128, 2.0, EXACT_TOL, False, True),
    854: (96, 2.0, EXACT_TOL, False, True),
    857: (384, SQRT2, EXACT_TOL, False, False),
    874: (384, 2.0, EXACT_TOL, False, False),
    1632: (96, SQRT2, EXACT_TOL, False, False),
    1647: (192, 2.0, EXACT_TOL, False, False),
    6014: (32, 2.0 * SQRT2, EXACT_TOL, True, False),
}

MERMIN_N6_ID = 1_692_930_046_964_590_721
# The Mermin n=6 orbit: 128 tables, least id MERMIN_N6_ID itself.  Derived
# by orbit_by_search below; the self-test re-derives both.
MERMIN_N6_ORBIT_SIZE = 128


def group_order(n: int) -> int:
    """n! * 2^(2n+1): site permutations, observable swaps, outcome flips, sign."""
    return math.factorial(n) << (2 * n + 1)


def signs_of(n: int, table_id: int) -> tuple[int, ...]:
    """Bit r of the id set means f(r) = -1."""
    return tuple(-1 if (table_id >> r) & 1 else 1 for r in range(1 << n))


def id_of(signs) -> int:
    return sum(1 << r for r, v in enumerate(signs) if v < 0)


def mermin_signs(n: int) -> tuple[int, ...]:
    """f(r) = -1 exactly where weight(r) mod 4 is 0 or 3."""
    return tuple(-1 if bin(r).count("1") % 4 in (0, 3) else 1 for r in range(1 << n))


def hadamard(n: int) -> np.ndarray:
    """The 2^n x 2^n matrix (-1)^<r,s>, as int64."""
    idx = np.arange(1 << n)
    parity = np.zeros((1 << n, 1 << n), dtype=np.int64)
    both = idx[:, None] & idx[None, :]
    for k in range(n):
        parity ^= (both >> k) & 1
    return 1 - 2 * parity


def transform(values) -> tuple[int, ...]:
    """Exact unnormalized Walsh-Hadamard transform by matrix product (n <= 8)."""
    m = len(values)
    return tuple(int(v) for v in hadamard(m.bit_length() - 1) @ np.asarray(values, dtype=np.int64))


def lowest_terms(numerators, log_den: int) -> tuple[tuple[int, ...], int]:
    nums = tuple(numerators)
    while log_den > 0 and not any(v & 1 for v in nums):
        nums = tuple(v >> 1 for v in nums)
        log_den -= 1
    return nums, log_den


def coefficients(n: int, table_id: int) -> tuple[tuple[int, ...], int]:
    """beta = 2^-n * transform(f), in lowest terms (numerators, log2 denominator)."""
    return lowest_terms(transform(signs_of(n, table_id)), n)


def polynomial_text(n: int, numerators, log_den: int) -> str:
    """The documented flat polynomial format: '1/2 a1 b1 + ... - 1/2 a2 b2'."""
    den = 1 << log_den
    order = sorted(range(1 << n), key=lambda s: tuple((s >> k) & 1 for k in range(n)))
    parts = []
    for s in order:
        num = numerators[s]
        if num == 0:
            continue
        coef = Fraction(abs(num), den)
        factors = " ".join(f"{'abcdefghijklmnopqrstuvwxyz'[k]}{((s >> k) & 1) + 1}" for k in range(n))
        body = factors if coef == 1 else f"{coef} {factors}"
        if parts:
            parts.append(("+ " if num > 0 else "- ") + body)
        else:
            parts.append(body if num > 0 else "-" + body)
    return " ".join(parts) if parts else "0"


def permute_bits(x: int, perm) -> int:
    """Route bit j of x to bit perm[j]."""
    return sum(1 << t for j, t in enumerate(perm) if (x >> j) & 1)


def act(perm, r0: int, s0: int, sign: int, signs) -> tuple[int, ...]:
    """f'(r) = sign * (-1)^<s0, pi(r)> * f(pi(r) ^ r0)."""
    out = []
    for r in range(len(signs)):
        pr = permute_bits(r, perm)
        flip = -1 if bin(s0 & pr).count("1") & 1 else 1
        out.append(sign * flip * signs[pr ^ r0])
    return tuple(out)


def random_element(n: int, rng: np.random.Generator) -> tuple[tuple[int, ...], int, int, int]:
    perm = tuple(int(p) for p in rng.permutation(n))
    return perm, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.choice((-1, 1)))


def orbit_by_search(n: int, table_id: int) -> set[int]:
    """All ids reachable from one table under the group generators.

    Breadth-first search over adjacent transpositions, single observable
    swaps, single outcome flips and the global sign.  Only practical for
    small orbits such as Mermin's.
    """
    ident = tuple(range(n))
    gens = [(ident, 1 << k, 0, 1) for k in range(n)]
    gens += [(ident, 0, 1 << k, 1) for k in range(n)]
    gens.append((ident, 0, 0, -1))
    for k in range(n - 1):
        perm = list(ident)
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        gens.append((tuple(perm), 0, 0, 1))
    seen = {table_id}
    frontier = [table_id]
    while frontier:
        nxt = []
        for tid in frontier:
            signs = signs_of(n, tid)
            for g in gens:
                image = id_of(act(*g, signs))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def xy(theta: float) -> np.ndarray:
    return math.cos(theta) * _SIGMA_X + math.sin(theta) * _SIGMA_Y


def separable_state(n: int, terms: int, rng: np.random.Generator) -> np.ndarray:
    """A random convex mixture of random pure product states (site 1 leftmost)."""
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for w in weights:
        psi = np.ones(1, dtype=complex)
        for _ in range(n):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.kron(psi, amp / np.linalg.norm(amp))
        rho += w * np.outer(psi, psi.conj())
    return rho


def correlations(rho: np.ndarray, angles) -> np.ndarray:
    """xi(s) = tr(rho A_1(s_1) x ... x A_n(s_n)), site 1 the leftmost factor."""
    n = len(angles)
    xi = np.empty(1 << n)
    for s in range(1 << n):
        op = np.ones((1, 1), dtype=complex)
        for k in range(n):
            op = np.kron(op, xy(angles[k][(s >> k) & 1]))
        xi[s] = np.trace(rho @ op).real
    return xi


def spectrum(xi: np.ndarray) -> np.ndarray:
    n = len(xi).bit_length() - 1
    return hadamard(n) @ xi / (1 << n)


def quantum_extreme_point(phi0: float, phi) -> np.ndarray:
    """xi(s) = cos(phi0 + sum_k phi_k s_k)."""
    n = len(phi)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return np.cos(phi0 + bits @ np.asarray(phi))
