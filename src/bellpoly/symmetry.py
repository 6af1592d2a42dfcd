"""The symmetry group acting on sign tables, orbits and the orbit census.

The group combines observable swaps (XOR shifts of the argument), outcome
sign flips (linear sign characters), site permutations and a global sign;
its order is n! * 2^(2n+1).  The sign flips XOR in a codeword of the
Reed-Muller code RM(1, n), which every element maps onto itself: an orbit is
a disjoint union of its cosets, and an Orbit holds only their least
elements, sorted.  A sweep works coset-first: one gather makes the 2^n XOR
shifts of a packed table word, which are reduced to coset minima and deduped;
on packed words a transposition is a delta swap, and one swap makes all
moves of a generator stage, so the n! images of each distinct coset take
n - 1 swaps.  The least id is the first minimum and the size 2^(n+1) per
coset; an id is a member iff its coset minimum is one, and the sorted member
ids are expanded on first read.  The census flags are orbit invariants: the
permutation-invariant tables are looked up by their coset minima, and
factorizing is tested on one member, as the group keeps product form.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import cached_property, lru_cache

import numpy as np

from .inequality import SignTable
from .transform import DimensionMismatchError, _Value, bits_word, site_count, word_bits

__all__ = [
    "GroupElement",
    "Orbit",
    "apply",
    "classify_all",
    "group_order",
    "orbit_of_id",
]

MAX_ORBIT_SITES = 6
MAX_CENSUS_SITES = 4


def group_order(n: int) -> int:
    """|G| = n! * 2^(2n+1)."""
    n = site_count(n)
    return math.factorial(n) << (2 * n + 1)


class GroupElement(_Value):
    """One symmetry: f'(r) = sign * (-1)^<s0, pi(r)> * f(pi(r) ^ r0).

    pi permutes bit positions according to perm (bit j of the argument moves
    to bit perm[j]), r0 encodes observable swaps, s0 outcome sign flips.
    """

    __slots__ = ("perm", "r0", "s0", "sign")

    def __init__(self, perm: Sequence[int], r0: int, s0: int, sign: int) -> None:
        perm = tuple(operator.index(p) for p in perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
        # ints, so that 1.5 fails here and not in apply
        r0, s0, sign = operator.index(r0), operator.index(s0), operator.index(sign)
        for name, word in (("r0", r0), ("s0", s0)):
            if not 0 <= word < 1 << n:
                raise ValueError(f"{name}={word} out of range for n={n}")
        if sign not in (-1, 1):
            raise ValueError("global sign must be -1 or +1")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "sign", sign)

    @property
    def n(self) -> int:
        return len(self.perm)


def apply(g: GroupElement, f: SignTable) -> SignTable:
    """Transform a sign table; the group law and inverses hold exactly."""
    if g.n != f.n:
        raise DimensionMismatchError(f"site counts differ: {g.n} vs {f.n}")
    s0, r0, sign, signs = g.s0, g.r0, g.sign, f.signs
    pr = [0]
    for target in g.perm:  # pr[r] is r with bit j moved to bit perm[j]
        pr += [p | 1 << target for p in pr]
    out = ((-sign if (s0 & p).bit_count() & 1 else sign) * signs[p ^ r0] for p in pr)
    return SignTable(f.n, tuple(out))


@lru_cache(maxsize=8)
def _sign_code(n: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """The site characters (word k has bit r set iff bit k of r is) and the code they
    span with the all-ones word, RM(1, n): the XOR masks of the outcome flips and the
    global sign.  Returns the characters, a reduced echelon basis (each leading bit
    clear in the other words) and all codewords, in the least unsigned dtype that
    holds a 2^n-bit word."""
    x = tuple(bits_word(r >> k & 1 for r in range(1 << n)) for k in range(n))
    basis: list[int] = []
    for v in ((1 << (1 << n)) - 1, *x):
        for b in basis:
            v = min(v, v ^ b)
        basis = [min(b, b ^ v) for b in basis] + [v]
    codewords = np.zeros(1, dtype=f"u{max(1, (1 << n) >> 3)}")
    for b in basis:
        codewords = np.concatenate([codewords, codewords ^ b])
    codewords.flags.writeable = False
    return x, tuple(basis), codewords


@lru_cache(maxsize=8)
def _lead_table(n: int) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """(shift, table, rest): the basis words with their leading bit in a word's top nine bits
    are XORed in by one lookup, table[word >> shift] (read-only); those of rest one by one."""
    _, basis, codewords = _sign_code(n)
    shift = max(0, (1 << n) - 9)
    index = np.arange(1 << ((1 << n) - shift), dtype=codewords.dtype)
    table = np.bitwise_xor.reduce([(index >> (b.bit_length() - 1 - shift) & 1) * b for b in basis if b >> shift])
    table.flags.writeable = False
    return shift, table, tuple(b for b in basis if not b >> shift)


def _coset_minima(n: int, words: int | np.ndarray) -> int | np.ndarray:
    """The least element of each word's coset: every basis leading bit cleared (each is set in
    its own basis word only).  An array is reduced in place, with one scratch array."""
    shift, table, rest = _lead_table(n)
    if not isinstance(words, np.ndarray):
        words ^= int(table[words >> shift])
        for b in rest:
            words ^= (words >> (b.bit_length() - 1) & 1) * b
        return words
    t = words >> shift
    words ^= table.take(t, out=t, mode="clip")  # every index is in range; "raise" would copy out
    for b in rest:
        np.right_shift(words, b.bit_length() - 1, out=t)
        t &= 1
        t *= b
        words ^= t
    return words


@lru_cache(maxsize=8)
def _sweep_stages(n: int) -> tuple[np.ndarray, ...]:
    """Each transposition stage's moves as read-only word-dtype columns (delta, mask, 2^delta + 1),
    shaped (3, moves, 1).  Stage m, S_(m+1) = union of the cosets S_m (k m), k <= m, moves bits r
    with r_k = 1, r_m = 0 by 2^m - 2^k."""
    x, _, codewords = _sign_code(n)
    stages = []
    for m in range(1, n):
        moves = [((1 << m) - (1 << k), x[k] & ~x[m]) for k in range(m)]
        stage = np.array([(d, mask, (1 << d) + 1) for d, mask in moves], codewords.dtype).T[..., None]
        stage.flags.writeable = False
        stages.append(stage)
    return tuple(stages)


@lru_cache(maxsize=8)
def _shift_index(n: int) -> np.ndarray:
    """The (2^n, 2^n) gather index of the XOR shifts, read-only: row r0 holds r ^ r0."""
    r = np.arange(1 << n, dtype=np.uint8)
    index = r ^ r[:, None]
    index.flags.writeable = False
    return index


def _shift_words(n: int, table_id: int) -> np.ndarray:
    """The table's 2^n XOR-shift images w(r ^ r0), in r0 order, as words of the sweep dtype."""
    bits = np.frombuffer(word_bits(1 << n, table_id), np.uint8)
    packed = np.packbits(bits[_shift_index(n)], axis=1, bitorder="little")
    dtype = _sign_code(n)[2].dtype  # the packed bytes are little-endian words on any host
    return packed.view(dtype.newbyteorder("<")).ravel().astype(dtype, copy=False)


def _sorted_unique(words: np.ndarray) -> np.ndarray:
    """Sort words in place and return its distinct values: words itself when all differ, as
    in a generic orbit, and else a new array.  Not np.unique: numpy 2.4 dedupes uint64
    through a hash table, ~40x slower here."""
    words.sort()
    keep = np.ones(len(words), bool)
    np.not_equal(words[1:], words[:-1], out=keep[1:])
    return words if keep.all() else words[keep]


def _delta_swap(words: np.ndarray, stage: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row i of out, shaped (moves, len(words)): each word with bits r and r + delta_i swapped
    for every bit r set in mask_i, given a stage's (delta, mask, 2^delta + 1) columns.  The
    moved bits, mask << delta, must lie in the word and clear of mask."""
    delta, mask, mult = stage
    t = np.right_shift(words, delta, out=out)
    t ^= words
    t &= mask
    t *= mult  # t | t << delta in one pass: the two bit sets are disjoint
    t ^= words
    return t


class Orbit(_Value):
    """One symmetry class, held as its sorted coset minima; members and flags come on first read.

    Orbits compare by identity; the flags are cached_property values, kept in __dict__.
    """

    __slots__ = ("n", "canonical_id", "size", "coset_minima", "__dict__")
    __eq__, __hash__ = object.__eq__, object.__hash__
    _hidden = ("coset_minima",)

    def __init__(self, n: int, canonical_id: int, size: int, coset_minima: np.ndarray) -> None:
        if coset_minima.flags.writeable:  # pickle and deepcopy hand back writable arrays
            coset_minima = coset_minima.copy()
            coset_minima.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "canonical_id", canonical_id)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "coset_minima", coset_minima)

    def __contains__(self, table_id: int) -> bool:
        if not 0 <= table_id < 1 << (1 << self.n) or table_id != int(table_id):
            return False  # out of range, or not integral (np.uint64(2.5) is 2)
        return bool(self._holds(int(table_id)))  # a Python int reduces faster than an array

    def _holds(self, words: int | np.ndarray) -> np.bool_ | np.ndarray:
        """Whether each word's coset, so the word itself, lies in the orbit."""
        words = np.asarray(_coset_minima(self.n, words), self.coset_minima.dtype)
        idx = np.minimum(np.searchsorted(self.coset_minima, words), len(self.coset_minima) - 1)
        return self.coset_minima[idx] == words

    @cached_property
    def member_ids(self) -> np.ndarray:
        """All member ids (coset minima XOR codewords): sorted, unique, uint64, read-only."""
        ids = np.bitwise_xor.outer(self.coset_minima, _sign_code(self.n)[2]).ravel()
        ids.sort()
        ids = ids.astype(np.uint64, copy=False)
        ids.flags.writeable = False
        return ids

    @cached_property
    def permutation_invariant(self) -> bool:
        """Some member's f(r) depends only on weight(r): look those 2^(n+1) tables up."""
        return bool(self._holds(_symmetric_ids(self.n).astype(self.coset_minima.dtype)).any())

    @cached_property
    def factorizing(self) -> bool:
        """Some member is a product over a cut.  Every group element keeps product form
        (permutations move cuts to cuts; XOR shifts and sign characters factor over any
        cut), so the least member decides."""
        size = 1 << self.n
        bits = np.frombuffer(word_bits(size, self.canonical_id), np.uint8)
        words = np.arange(size)
        for t in range(1, size - 1, 2):  # cuts with site 1 on the left (complements match)
            left = words & t
            right = words & ~t & (size - 1)
            if ((bits ^ bits[0]) == (bits[left] ^ bits[right])).all():
                return True
        return False


def orbit_of_id(n: int, table_id: int) -> Orbit:
    """Sweep the group over one table coset by coset (feasible up to n = 6).

    Every element is a permutation after an XOR shift, times a sign mask, and permutations
    map the sign code onto itself, so they carry cosets to cosets: the XOR-shift images are
    reduced to coset minima and deduped, and only those distinct cosets are permuted.
    """
    if site_count(n) > MAX_ORBIT_SITES:
        raise ValueError(f"orbit sweeps are limited to n <= {MAX_ORBIT_SITES}")
    if not 0 <= (table_id := operator.index(table_id)) < 1 << (1 << n):
        raise ValueError(f"id {table_id} out of range for n={n}")
    cosets = _sorted_unique(_coset_minima(n, _shift_words(n, table_id)))
    # the n! images of each coset fill one array block by block, one swap per stage
    words = np.empty(math.factorial(n) * len(cosets), cosets.dtype)
    size = len(cosets)
    words[:size] = cosets
    for stage in _sweep_stages(n):
        moves = stage.shape[1]
        _delta_swap(words[:size], stage, words[size : (moves + 1) * size].reshape(moves, size))
        size *= moves + 1
    minima = _sorted_unique(_coset_minima(n, words))
    minima.flags.writeable = False
    return Orbit(n=n, canonical_id=int(minima[0]), size=len(minima) << (n + 1), coset_minima=minima)


@lru_cache(maxsize=8)
def _symmetric_ids(n: int) -> np.ndarray:
    """The 2^(n+1) ids of the tables whose f(r) depends only on weight(r), read-only."""
    weight = [r.bit_count() for r in range(1 << n)]  # table c: f(r) from bit weight(r) of c
    ids = np.array([bits_word(c >> w & 1 for w in weight) for c in range(2 << n)], dtype=np.uint64)
    ids.flags.writeable = False
    return ids


def classify_all(n: int) -> list[Orbit]:
    """Partition all 2^(2^n) sign tables into orbits (exhaustive, n <= 4).

    Returns the orbits sorted by canonical id; sizes add up to 2^(2^n).  An orbit's
    least id is a coset minimum, so the other ids start out seen.
    """
    if site_count(n) > MAX_CENSUS_SITES:
        raise ValueError(f"the exhaustive census is limited to n <= {MAX_CENSUS_SITES}")
    pivots = sum(1 << (b.bit_length() - 1) for b in _sign_code(n)[1])
    seen = np.arange(1 << (1 << n), dtype=_sign_code(n)[2].dtype) & pivots != 0
    orbits: list[Orbit] = []
    seed = 0
    while not seen[seed]:  # seed is the least unseen id, or 0 once all are seen
        orbits.append(orbit_of_id(n, seed))
        seen[orbits[-1].coset_minima] = True
        seed = int(seen.argmin())
    return orbits
