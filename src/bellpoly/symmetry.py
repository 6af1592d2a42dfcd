"""The symmetry group acting on sign tables, orbits and the orbit census.

The group combines observable swaps (XOR shifts of the argument), outcome
sign flips (linear sign characters), site permutations and a global sign;
its order is n! * 2^(2n+1).  On packed table words the action is a bit
permutation followed by an XOR mask, which lets a full group sweep over one
table run as a handful of numpy gathers even at n=6 (5.9 million elements).
The image words are deduplicated by sorting them and comparing neighbours:
the orbit of a generic n=6 table (all 5.9 million images distinct) takes
about 0.25 s and 90 MB on one core of a shared 2-core x86 host.  The census
flags come from orbit invariants, not from a scan of every member: the
permutation-invariant tables are looked up among the sorted member ids, and
factorizing is tested on one member, since the group preserves product form.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .inequality import SignTable, signs_to_id
from .transform import DimensionMismatchError, bit_matrix, site_count, word_bits

__all__ = [
    "GroupElement",
    "Orbit",
    "OrbitRecord",
    "apply",
    "classify_all",
    "group_order",
    "orbit",
    "orbit_of_id",
    "permute_word",
]

MAX_ORBIT_SITES = 6
MAX_CENSUS_SITES = 4


def group_order(n: int) -> int:
    """|G| = n! * 2^(2n+1)."""
    n = site_count(n)
    return math.factorial(n) << (2 * n + 1)


def permute_word(x: int, perm: tuple[int, ...]) -> int:
    """Route bit j of x to bit perm[j] of the result."""
    out = 0
    for j, target in enumerate(perm):
        if (x >> j) & 1:
            out |= 1 << target
    return out


@dataclass(frozen=True)
class GroupElement:
    """One symmetry: f'(r) = sign * (-1)^<s0, pi(r)> * f(pi(r) ^ r0).

    pi permutes bit positions according to perm (bit j of the argument moves
    to bit perm[j]), r0 encodes observable swaps, s0 outcome sign flips.
    """

    perm: tuple[int, ...]
    r0: int
    s0: int
    sign: int

    def __post_init__(self) -> None:
        perm = tuple(operator.index(p) for p in self.perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
        if not 0 <= self.r0 < 1 << n:
            raise ValueError(f"r0={self.r0} out of range for n={n}")
        if not 0 <= self.s0 < 1 << n:
            raise ValueError(f"s0={self.s0} out of range for n={n}")
        if self.sign not in (-1, 1):
            raise ValueError("global sign must be -1 or +1")
        object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return len(self.perm)


def apply(g: GroupElement, f: SignTable) -> SignTable:
    """Transform a sign table; the group law and inverses hold exactly."""
    if g.n != f.n:
        raise DimensionMismatchError(f"site counts differ: {g.n} vs {f.n}")
    size = 1 << f.n
    out = []
    for r in range(size):
        pr = permute_word(r, g.perm)
        v = f.signs[pr ^ g.r0]
        if (g.s0 & pr).bit_count() & 1:
            v = -v
        out.append(g.sign * v)
    return SignTable(f.n, tuple(out))


@lru_cache(maxsize=8)
def _perm_maps(n: int) -> np.ndarray:
    """(n!, 2^n) gather maps: row p holds pi_p(r) for each r."""
    targets = np.left_shift(1, list(itertools.permutations(range(n))))  # 2^perm[j]
    return (targets @ bit_matrix(n).T).astype(np.uint16)


@lru_cache(maxsize=8)
def _action_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather maps (one per (perm, r0)) and XOR masks (one per (s0, sign)).

    Together they realize the full group action on packed table words: the
    image ids of table b are {pack(b o idx) ^ mask}.
    """
    size = 1 << n
    pmaps = _perm_maps(n)
    shifts = np.arange(size, dtype=np.uint16)
    gather = (pmaps[:, None, :] ^ shifts[None, :, None]).reshape(-1, size)
    weights = np.left_shift(np.uint64(1), np.arange(size, dtype=np.uint64))
    bits = bit_matrix(n)
    linear = ((bits @ bits.T) % 2).astype(np.uint64) @ weights
    full = np.uint64((1 << size) - 1)
    masks = np.concatenate([linear, linear ^ full])
    return gather, weights, masks


def _sorted_unique(words: np.ndarray) -> np.ndarray:
    """Sort words in place and keep each one that differs from its predecessor."""
    # Not np.unique: numpy 2.4 dedupes uint64 through a hash table, ~40x slower here.
    words.sort()
    keep = np.empty(len(words), dtype=bool)
    keep[0] = True
    np.not_equal(words[1:], words[:-1], out=keep[1:])
    return words[keep]


def _orbit_ids(n: int, table_id: int) -> np.ndarray:
    """Sorted unique ids of the full G-orbit of one packed table."""
    gather, weights, masks = _action_tables(n)
    # uint64 before the gather, or the matmul casts all n! 2^n gathered rows
    bits = np.frombuffer(word_bits(1 << n, table_id), np.uint8).astype(np.uint64)
    packed = _sorted_unique(bits[gather] @ weights)
    return _sorted_unique(np.bitwise_xor.outer(packed, masks).ravel())


@dataclass(frozen=True, eq=False)
class Orbit:
    """One symmetry class: all member ids, their count, and the least id."""

    n: int
    canonical_id: int
    size: int
    member_ids: np.ndarray = field(repr=False)

    def __contains__(self, table_id: int) -> bool:
        idx = int(np.searchsorted(self.member_ids, np.uint64(table_id)))
        return idx < self.size and int(self.member_ids[idx]) == int(table_id)


@dataclass(frozen=True)
class OrbitRecord:
    """Census row: canonical representative, size and structural flags."""

    n: int
    canonical_id: int
    size: int
    permutation_invariant: bool
    factorizing: bool
    max_violation: float | None = None


def orbit(f: SignTable) -> Orbit:
    """Sweep the whole group over one table (feasible up to n = 6)."""
    return orbit_of_id(f.n, signs_to_id(f))


def orbit_of_id(n: int, table_id: int) -> Orbit:
    if site_count(n) > MAX_ORBIT_SITES:
        raise ValueError(f"orbit sweeps are limited to n <= {MAX_ORBIT_SITES}")
    ids = _orbit_ids(n, table_id)
    ids.flags.writeable = False
    return Orbit(n=n, canonical_id=int(ids[0]), size=len(ids), member_ids=ids)


def _orbit_flags(n: int, member_ids: np.ndarray) -> tuple[bool, bool]:
    """(has permutation-invariant member, has factorizing member).

    A table is permutation invariant iff f(r) depends only on weight(r), so
    the first flag looks those 2^(n+1) ids up in the sorted members.  Every
    group element maps product tables to product tables (permutations move
    cuts to cuts; XOR shifts and sign characters factor over any cut), so
    the second flag is decided by one member.
    """
    _, weights, _ = _action_tables(n)
    weight = bit_matrix(n).sum(axis=1).astype(int)
    symmetric = bit_matrix(n + 1)[:, weight].astype(np.uint64) @ weights
    idx = np.minimum(np.searchsorted(member_ids, symmetric), len(member_ids) - 1)
    perm_invariant = bool((member_ids[idx] == symmetric).any())

    bits = np.frombuffer(word_bits(1 << n, int(member_ids[0])), np.uint8)
    size = 1 << n
    words = np.arange(size)
    for t in range(1, size - 1, 2):  # cuts with site 1 on the left (complements match)
        left = words & t
        right = words & ~t & (size - 1)
        if ((bits ^ bits[0]) == (bits[left] ^ bits[right])).all():
            return perm_invariant, True
    return perm_invariant, False


def classify_all(n: int) -> list[OrbitRecord]:
    """Partition all 2^(2^n) sign tables into orbits (exhaustive, n <= 4).

    Returns records sorted by canonical id; sizes add up to 2^(2^n).
    """
    if site_count(n) > MAX_CENSUS_SITES:
        raise ValueError(f"the exhaustive census is limited to n <= {MAX_CENSUS_SITES}")
    total = 1 << (1 << n)
    seen = np.zeros(total, dtype=bool)
    records: list[OrbitRecord] = []
    seed = 0
    while seed < total:
        ids = _orbit_ids(n, seed)
        seen[ids] = True
        perm_inv, factor = _orbit_flags(n, ids)
        records.append(
            OrbitRecord(
                n=n,
                canonical_id=seed,
                size=len(ids),
                permutation_invariant=perm_inv,
                factorizing=factor,
            )
        )
        while seed < total and seen[seed]:
            seed += 1
    return records
