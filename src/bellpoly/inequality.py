"""Bell correlation inequalities for two dichotomic observables per site.

An extremal inequality is parameterized by 2^n signs f(r); its coefficient
table beta(s) is the normalized Walsh-Hadamard transform of f and is an
exact dyadic vector with denominator 2^n.  Reading the signs as binary
digits (the layout of bellpoly.transform) numbers all 2^(2^n) inequalities
0 .. 2^(2^n)-1.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Sequence
from functools import lru_cache

from .transform import (
    DimensionMismatchError,
    DyadicVector,
    _Value,
    bits_word,
    site_count,
    walsh_hadamard,
    word_bits,
)

__all__ = [
    "BellTable",
    "NotExtremalError",
    "SignTable",
    "bell_table_from_id",
    "bell_table_from_json",
    "bell_table_to_json",
    "coefficients_from_signs",
    "evaluate",
    "id_to_signs",
    "mermin_sign_table",
    "parse_polynomial",
    "polynomial_string",
    "signs_from_coefficients",
    "signs_to_id",
]


class NotExtremalError(ValueError):
    """The coefficient table is not a facet: its transform leaves {-1,+1}."""


class SignTable(_Value):
    """2^n signs f(r) in {-1,+1}, indexed by the configuration word r."""

    __slots__ = ("n", "signs")

    def __init__(self, n: int, signs: Sequence[int]) -> None:
        n = site_count(n)
        signs = tuple(map(operator.index, signs))
        if len(signs) != 1 << n:
            raise DimensionMismatchError(
                f"expected {1 << n} signs for n={n}, got {len(signs)}"
            )
        if not {-1, 1}.issuperset(signs):
            raise ValueError("sign table entries must be exactly -1 or +1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "signs", signs)


class BellTable(_Value):
    """Coefficients beta(s) of a Bell polynomial, stored exactly."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: DyadicVector) -> None:
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def n(self) -> int:
        return self.coefficients.n

    @classmethod
    def from_numerators(
        cls, n: int, numerators: Sequence[int], log_denominator: int
    ) -> "BellTable":
        return cls(DyadicVector(n, tuple(numerators), log_denominator))


def coefficients_from_signs(f: SignTable) -> BellTable:
    """beta(s) = 2^-n sum_r f(r) (-1)^<r,s>; always an extremal table."""
    return BellTable(DyadicVector(f.n, tuple(walsh_hadamard(f.signs)), f.n))


def signs_from_coefficients(beta: BellTable) -> SignTable:
    """Recover f(r) = sum_s beta(s)(-1)^<r,s>, rejecting non-extremal tables."""
    d = beta.coefficients.log_denominator
    w = walsh_hadamard(beta.coefficients.numerators)
    try:
        signs = tuple(map({1 << d: 1, -1 << d: -1}.__getitem__, w))
    except KeyError as exc:  # the first offending value; its first index is the first r
        (value,) = exc.args
        raise NotExtremalError(f"transform value {_ratio(value, d)} at r={w.index(value)} is not +-1") from None
    return SignTable(beta.n, signs)


def id_to_signs(n: int, value: int) -> SignTable:
    """Decode an inequality number: bit r set means f(r) = -1."""
    value, n = operator.index(value), site_count(n)
    if not 0 <= value < 1 << (1 << n):
        raise ValueError(f"id {value} out of range for n={n}")
    return SignTable(n, tuple(map((1, -1).__getitem__, word_bits(1 << n, value))))


def signs_to_id(f: SignTable) -> int:
    """Encode a sign table as its inequality number (unbounded int)."""
    return bits_word(bytes(v < 0 for v in f.signs))


def bell_table_from_id(n: int, value: int) -> BellTable:
    return coefficients_from_signs(id_to_signs(n, value))


def mermin_sign_table(n: int) -> SignTable:
    """The inequality attaining the overall maximal quantum violation 2^((n-1)/2).

    f(r) = -1 exactly where weight(r) mod 4 is 0 or 3.  For n=3 this sits in
    the orbit numbered 23, for n=4 in the orbit numbered 6014.
    """
    n = site_count(n)
    return SignTable(
        n,
        tuple(-1 if r.bit_count() % 4 in (0, 3) else 1 for r in range(1 << n)),
    )


def evaluate(beta: BellTable, xi) -> float:
    """sum_s beta(s) xi(s) for a correlation vector (any length-2^n sequence)."""
    values = getattr(xi, "xi", xi)
    if len(values) != 1 << beta.n:
        raise DimensionMismatchError(
            f"correlation vector has {len(values)} entries, expected {1 << beta.n}"
        )
    num = beta.coefficients.numerators
    acc = math.fsum(a * float(b) for a, b in zip(num, values))
    return acc / (1 << beta.coefficients.log_denominator)


_SITE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@lru_cache(maxsize=16)
def _monomials(n: int) -> tuple[tuple[int, str], ...]:
    """(s, factor text) for every term, in the order polynomial_string writes them."""
    if n > len(_SITE_LETTERS):
        raise ValueError(f"polynomial text names sites a..z, so n <= {len(_SITE_LETTERS)}, got {n}")
    names = [(f"{c}1", f"{c}2") for c in _SITE_LETTERS[:n]]
    order = sorted((word_bits(n, s), s) for s in range(1 << n))  # by (s_1, s_2, ...)
    return tuple((s, " ".join(pair[b] for pair, b in zip(names, bits))) for bits, s in order)


@lru_cache(maxsize=1024)
def _ratio(num: int, d: int) -> str:
    """num / 2^d in lowest terms, written 'p/q', or 'p' when it is an integer."""
    shift = min(d, (num & -num).bit_length() - 1) if num else d
    return f"{num >> shift}/{1 << (d - shift)}" if shift < d else str(num >> shift)


def polynomial_string(beta: BellTable) -> str:
    """Render e.g. '1/2 a1 b1 + 1/2 a1 b2 + 1/2 a2 b1 - 1/2 a2 b2'.

    Terms are ordered by the choice tuple (s_1, s_2, ...) lexicographically;
    zero terms are dropped and unit coefficients left implicit; n <= 26 (sites a..z).
    """
    nums, d = beta.coefficients.numerators, beta.coefficients.log_denominator
    parts: list[str] = []
    for s, factors in _monomials(beta.n):
        if num := nums[s]:
            coef = _ratio(abs(num), d)
            body = factors if coef == "1" else f"{coef} {factors}"
            parts.append(("+ " if num > 0 else "- ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# A term: a prefix (non-letters) then a word (a letter, then [a-z\d\s/]), else the
# tail; the classes are disjoint, so no scan backtracks.  _TOKEN_RE reads a piece
# token by token, and (\S) is a character that starts no token: a stray.
_TOKEN = r"[+-]|\d+(?:/\d+)?|[a-z]\d+"
_TOKEN_RE, _TOKENS_RE = re.compile(rf"({_TOKEN})|(\S)"), re.compile(rf"(?:\s*(?:{_TOKEN}))*")
_TERM_RE = re.compile(r"([^a-z]*)([a-z][a-z\d\s/]*)|(.+)", re.DOTALL)


@lru_cache(maxsize=1024)
def _coefficient(prefix: str, first: bool) -> tuple[int, int]:
    """(signed numerator, denominator) of a prefix; only the first may lack a sign."""
    sign, num, den, signed = 1, None, 1, first
    for tok, stray in _TOKEN_RE.findall(prefix):
        if stray:
            raise ValueError(f"stray {stray!r}")  # parse_polynomial reports where the scan stops
        if tok in ("+", "-"):
            sign, signed = (1 if tok == "+" else -1), True
        elif num is not None or not signed:
            raise ValueError(f"misplaced coefficient {tok!r}")
        else:
            p, _, q = tok.partition("/")
            num, den = int(p), int(q or 1)
            if den == 0:
                raise ValueError(f"coefficient {tok!r} has a zero denominator")
    return sign * (1 if num is None else num), den


@lru_cache(maxsize=1024)
def _monomial(word: str) -> tuple[int, int]:
    """(s, site mask) of a term's site factors, e.g. 'a1 b2 ' -> (2, 3)."""
    s = mask = 0
    for tok, stray in _TOKEN_RE.findall(word):
        if stray:
            raise ValueError(f"stray {stray!r}")
        if (site := _SITE_LETTERS.find(tok[0])) < 0:
            raise ValueError(f"misplaced coefficient {tok!r}")
        bit, choice = 1 << site, int(tok[1:]) - 1
        if choice not in (0, 1):
            raise ValueError(f"choice subscript must be 1 or 2 in {tok!r}")
        if mask & bit:
            raise ValueError(f"site {tok[0]!r} repeated within one term")
        mask, s = mask | bit, s | bit * choice
    return s, mask


def parse_polynomial(text: str, n: int | None = None) -> BellTable:
    """Parse a flat polynomial like '1/2 a1 b1 - 1/2 a2 b2' back to a table.

    Every term must name each site exactly once (letters a..z, choice
    subscript 1 or 2); terms on one monomial are summed, and each sum must
    be a dyadic rational.  One flat regex scan splits the text into terms,
    each a prefix ('- 3/8 ') then a word ('a1 b2 '), which lru_caches of 1,024
    entries (~0.15 MB of n=12 words, never a whole text) check and convert.
    A text that is not a run of tokens fails as such, before any term error.
    """
    stripped = text.strip()
    if stripped == "0":
        if n is None:
            raise ValueError("cannot infer the site count of the zero polynomial")
        n = site_count(n)
        return BellTable(DyadicVector(n, (0,) * (1 << n), 0))
    found = _TERM_RE.findall(stripped)
    tail = found.pop()[2] if found and found[-1][2] else ""
    terms: list[tuple[int, int, int, int]] = []  # (numerator, denominator, s, mask)
    try:
        for prefix, word, _ in found:
            terms.append((*_coefficient(prefix, not terms), *_monomial(word)))
        if tail or not terms:
            _coefficient.__wrapped__(tail, not terms)  # the tail's own errors first, uncached
            raise ValueError("term without site factors")
    except ValueError:
        if (end := _TOKENS_RE.match(stripped).end()) != len(stripped):
            raise ValueError(f"cannot parse polynomial near {stripped[end:end + 12]!r}") from None
        raise

    sites = max(t[3] for t in terms).bit_length()
    if n is not None and n != sites:
        raise ValueError(f"polynomial names sites up to {sites}, expected n={n}")
    if any(t[3] != (1 << sites) - 1 for t in terms):
        raise ValueError("every term must name each site exactly once")
    lcm, table = math.lcm(*(t[1] for t in terms)), [0] * (1 << sites)
    for num, den, s, _ in terms:
        table[s] += num * (lcm // den)
    g = math.gcd(lcm, *table)
    den = lcm // g
    if den & (den - 1):
        raise ValueError(f"coefficients are not dyadic (denominator {den})")
    return BellTable(DyadicVector(sites, tuple(v // g for v in table), den.bit_length() - 1))


def bell_table_to_json(beta: BellTable) -> dict:
    return {
        "n": beta.n,
        "log_denominator": beta.coefficients.log_denominator,
        "numerators": list(beta.coefficients.numerators),
    }


def bell_table_from_json(obj: dict) -> BellTable:
    try:
        return BellTable.from_numerators(
            obj["n"], obj["numerators"], obj["log_denominator"]
        )
    except KeyError as exc:
        raise ValueError(f"Bell table object is missing key {exc}") from exc
