"""The bit layout, the exact Walsh-Hadamard transform over Z_2^n, and dyadic vectors.

This module alone fixes the bit layout: every table is indexed by n-bit
words r or s with site k in bit k-1 (site 1 least significant), and bit r of
an inequality id is set exactly when f(r) = -1; bit_matrix and word_bits are
its two views, and bits_word, the inverse of word_bits, is the only encoder.  The one deliberate exception is the basis index of a qubit
state, which puts site 1 in the most significant bit, as np.kron does
(simulate_correlations, partial_transpose).  The transform kernel is
(-1)^<r,s> with <r,s> = sum_k r_k s_k mod 2.  walsh_hadamard is exact integer
arithmetic; its constant-geometry butterfly is the package's only transform
and also computes the float spectrum of a correlation vector.

Only bit_matrix computes with floats, and it feeds only float code; it imports
numpy on its first call, so the codecs, the transform and DyadicVector load and run without numpy.
The package's value classes share this module's _Value base, which needs no
import at all.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from functools import lru_cache, reduce

TYPE_CHECKING = False  # type checkers take this name as true; numpy stays unloaded at run time
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DimensionMismatchError",
    "DyadicVector",
    "bit_matrix",
    "bits_word",
    "walsh_hadamard",
    "word_bits",
]

MAX_SITES = 31


class DimensionMismatchError(ValueError):
    """Operands are defined for different site counts or table lengths."""


def site_count(n: int) -> int:
    """n as an int, checked to lie in 1..MAX_SITES before anything is sized by it."""
    n = operator.index(n)
    if not 1 <= n <= MAX_SITES:
        raise ValueError(f"site count must be in 1..{MAX_SITES}, got {n}")
    return n


@lru_cache(maxsize=16)
def bit_matrix(n: int) -> np.ndarray:
    """Read-only (2^n, n) float table whose row s holds (s_1, ..., s_n); n may be 0."""
    import numpy as np

    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    bits.flags.writeable = False
    return bits


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def word_bits(m: int, word: int) -> bytes:
    """Bits 0..m-1 of a word >= 0, low bit first, as bytes of 0s and 1s (ints when iterated)."""
    return f"{word:0{m}b}"[: -m - 1 : -1].encode().translate(_DIGIT_VALUES)


def bits_word(bits: Iterable[int]) -> int:
    """The word whose bit k is bits[k]: 0s and 1s, low bit first; inverts word_bits."""
    return int(b"0" + bytes(bits)[::-1].translate(_DIGIT_CHARS), 2)


def walsh_hadamard(values: Sequence[int]) -> list[int]:
    """Unnormalized transform w[r] = sum_s (-1)^<r,s> v[s], exact over int.

    Constant-geometry butterfly, O(m log m) for a table of length m = 2^n.
    The transform is an involution up to scale: applying it twice multiplies
    the input by 2^n.
    """
    out = list(map(operator.index, values))
    m = len(out)
    if m == 0 or m & (m - 1):
        raise DimensionMismatchError(f"table length {m} is not a power of two")
    return _butterfly(out)


def _butterfly(v: list) -> list:
    """Constant-geometry butterfly (M. C. Pease, J. ACM 15, 252 (1968)) over ints or floats.

    Each stage writes v[2j] + v[2j+1] to j and v[2j] - v[2j+1] to j + m/2, so
    stage k pairs the original indices that differ in bit k, lower one first,
    as the in-place butterfly does: float results equal its bit for bit.
    """
    for _ in range(len(v).bit_length() - 1):
        a, b = v[0::2], v[1::2]
        v = [*map(operator.add, a, b), *map(operator.sub, a, b)]
    return v


class _Value:
    """Base of the package's immutable value classes, whose __slots__ name their fields.

    Instances are equal, and hash alike, when their classes are the same and
    their fields are equal; __init__ sets the fields with object.__setattr__,
    and after it no attribute can be assigned or deleted.  pickle and copy
    rebuild an instance through its constructor, so every copy is checked as
    the original was.  The repr is Name(field=value, ...), without the
    fields named in _hidden; a class compared by identity sets __eq__ and
    __hash__ back to object's.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._key = staticmethod(operator.attrgetter(*cls.__match_args__))  # a field, or a tuple of them

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__ if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class DyadicVector(_Value):
    """2^n exact dyadic rationals: entry s is numerators[s] / 2**log_denominator.

    The representation is kept in lowest terms: either log_denominator is 0
    or at least one numerator is odd.
    """

    __slots__ = ("n", "numerators", "log_denominator")

    def __init__(self, n: int, numerators: Sequence[int], log_denominator: int) -> None:
        n = site_count(n)
        nums = tuple(map(operator.index, numerators))
        if len(nums) != 1 << n:
            raise DimensionMismatchError(
                f"expected {1 << n} numerators for n={n}, got {len(nums)}"
            )
        d = operator.index(log_denominator)
        if d < 0:
            raise ValueError("log_denominator must be non-negative")
        low = reduce(operator.or_, nums, 0)  # its trailing zeros: those all entries share
        shift = min(d, (low & -low).bit_length() - 1) if low else d
        if shift:
            nums, d = tuple([v >> shift for v in nums]), d - shift
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "log_denominator", d)
