"""Inequality data model: codec, extremality, evaluation, rendering."""

import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import inequality
from bellpoly.inequality import (
    BellTable,
    NotExtremalError,
    SignTable,
    bell_table_from_id,
    bell_table_from_json,
    bell_table_to_json,
    coefficients_from_signs,
    evaluate,
    id_to_signs,
    mermin_sign_table,
    parse_polynomial,
    polynomial_string,
    signs_from_coefficients,
    signs_to_id,
)
from bellpoly.transform import DimensionMismatchError, DyadicVector
from test_transform import naive_transform

MERMIN3 = BellTable.from_numerators(3, (0, 1, 1, 0, 1, 0, 0, -1), 1)
GHZ_MERMIN_VECTOR = (0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def test_sign_table_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignTable(2, (1, 1, 0, -1))
    with pytest.raises(DimensionMismatchError):
        SignTable(2, (1, 1, 1))
    for bad in (0, 2, -2):
        for r in range(4):
            signs = [1, -1, -1, 1]
            signs[r] = bad
            with pytest.raises(ValueError, match="^sign table entries must be exactly -1 or \\+1$"):
                SignTable(2, tuple(signs))


def test_all_plus_signs_give_product_polynomial():
    beta = coefficients_from_signs(id_to_signs(3, 0))
    assert beta.coefficients.numerators == (1, 0, 0, 0, 0, 0, 0, 0)
    assert beta.coefficients.log_denominator == 0
    assert polynomial_string(beta) == "a1 b1 c1"


def test_chsh_prototype_coefficients():
    f = SignTable(2, (1, 1, 1, -1))
    beta = coefficients_from_signs(f)
    assert beta.coefficients.numerators == (1, 1, 1, -1)
    assert beta.coefficients.log_denominator == 1
    assert signs_from_coefficients(beta) == f


def test_signs_coefficients_roundtrip_exhaustive_n3():
    for value in range(256):
        f = id_to_signs(3, value)
        assert signs_from_coefficients(coefficients_from_signs(f)) == f


def test_uniform_quarter_table_is_not_extremal():
    beta = BellTable.from_numerators(2, (1, 1, 1, 1), 2)
    with pytest.raises(NotExtremalError):
        signs_from_coefficients(beta)


def test_zero_table_is_not_extremal():
    with pytest.raises(NotExtremalError):
        signs_from_coefficients(BellTable.from_numerators(2, (0, 0, 0, 0), 0))


def first_offender_message(beta: BellTable) -> str:
    """The per-entry loop: the first r whose transform value is not +-1, as text."""
    unit = 1 << beta.coefficients.log_denominator
    for r, w in enumerate(naive_transform(beta.coefficients.numerators)):
        if w not in (unit, -unit):
            return f"transform value {Fraction(w, unit)} at r={r} is not +-1"
    raise AssertionError("the table is extremal")


@pytest.mark.parametrize("n", range(1, 7))
def test_signs_from_coefficients_names_the_first_offending_r(n):
    """Several transform values are off; the error names the first, as a per-entry loop does."""
    rnd = random.Random(600 + n)
    m = 1 << n
    for _ in range(40):
        e = rnd.randrange(4)
        w = [rnd.choice((1, -1)) << e for _ in range(m)]
        for r in rnd.sample(range(m), rnd.randint(1, min(m, 4))):
            w[r] = rnd.choice((0, 0, 3 << e, -(1 << e) // 2 if e else 5, rnd.randint(-9, 9) << e))
        if all(abs(v) == 1 << e for v in w):
            continue
        beta = BellTable(DyadicVector(n, tuple(naive_transform(w)), n + e))
        with pytest.raises(NotExtremalError, match=f"^{re.escape(first_offender_message(beta))}$"):
            signs_from_coefficients(beta)


def test_id_codec_bijective_small_n():
    for n in (2, 3):
        for value in range(1 << (1 << n)):
            assert signs_to_id(id_to_signs(n, value)) == value


def test_id_codec_random_large_n():
    rnd = random.Random(42)
    for n in (4, 5, 6):
        for _ in range(300):
            value = rnd.getrandbits(1 << n)
            assert signs_to_id(id_to_signs(n, value)) == value


def test_id_range_errors():
    with pytest.raises(ValueError):
        id_to_signs(2, 1 << 4)
    with pytest.raises(ValueError):
        id_to_signs(3, -1)


def test_evaluate_on_classical_extreme_points_is_tight():
    from bellpoly.classical import extreme_point

    rng = np.random.default_rng(3)
    for _ in range(50):
        beta = bell_table_from_id(3, int(rng.integers(0, 256)))
        r = int(rng.integers(0, 8))
        sign = 1 if rng.integers(0, 2) else -1
        value = evaluate(beta, extreme_point(3, r, sign))
        assert abs(abs(value) - 1.0) < 1e-12


def test_classical_maximum_is_exactly_one_exhaustive():
    from bellpoly.classical import extreme_point

    for n in (2, 3):
        points = [
            extreme_point(n, r, sign)
            for r in range(1 << n)
            for sign in (1, -1)
        ]
        for value in range(1 << (1 << n)):
            beta = bell_table_from_id(n, value)
            best = max(evaluate(beta, p) for p in points)
            # dyadic coefficients against +-1 entries: float arithmetic is exact
            assert best == 1.0


def test_evaluate_chsh_cosine_family():
    phi = (math.pi / 2, math.pi / 2)
    xi = [
        math.cos(phi[0] * (s & 1) + phi[1] * ((s >> 1) & 1) - math.pi / 4)
        for s in range(4)
    ]
    chsh = BellTable.from_numerators(2, (1, 1, 1, -1), 1)
    assert evaluate(chsh, xi) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_evaluate_mermin_on_ghz_vector():
    assert evaluate(MERMIN3, GHZ_MERMIN_VECTOR) == pytest.approx(2.0, abs=1e-12)


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(MERMIN3, (1.0, 0.0))


def test_polynomial_string_chsh_exact():
    chsh = BellTable.from_numerators(2, (1, 1, 1, -1), 1)
    assert polynomial_string(chsh) == "1/2 a1 b1 + 1/2 a1 b2 + 1/2 a2 b1 - 1/2 a2 b2"


def test_polynomial_string_zero():
    assert polynomial_string(BellTable.from_numerators(2, (0, 0, 0, 0), 0)) == "0"


def test_polynomial_text_names_at_most_26_sites():
    """Sites are written a..z, the only names parse_polynomial reads; past z the
    text raises before any of the 2^n terms is made."""
    with pytest.raises(ValueError, match="n <= 26, got 27"):
        inequality._monomials(27)


def test_polynomial_string_leading_negative_and_fractions():
    beta = bell_table_from_id(3, 1)
    # f = -1 only at r=0: coefficients 3/4 at a1b1c1 and -1/4 elsewhere
    text = polynomial_string(beta)
    assert text.startswith("3/4 a1 b1 c1 - 1/4 a1 b1 c2")
    assert parse_polynomial(text) == beta


def test_parse_polynomial_roundtrip_random():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for _ in range(40):
            beta = bell_table_from_id(n, int(rng.integers(0, 1 << (1 << n))))
            assert parse_polynomial(polynomial_string(beta)) == beta


def test_parse_polynomial_errors():
    with pytest.raises(ValueError):
        parse_polynomial("a1 + b1")  # terms must cover every site
    with pytest.raises(ValueError):
        parse_polynomial("1/3 a1 b1 + 2/3 a2 b2")  # not dyadic
    with pytest.raises(ValueError):
        parse_polynomial("a3 b1")  # has to mention site 2 as well
    with pytest.raises(ValueError):
        parse_polynomial("0")  # zero needs an explicit site count
    assert parse_polynomial("0", n=2).coefficients.numerators == (0, 0, 0, 0)


def test_parse_polynomial_rejects_a_zero_denominator():
    for text in ("1/0 a1 b1", "a1 b1 - 0/0 a2 b2"):
        with pytest.raises(ValueError, match="has a zero denominator"):
            parse_polynomial(text)


# Independent oracle: the polynomial text codec written over fractions.Fraction,
# one Fraction per term, summed per monomial and put over the lcm of the
# reduced entries.  The package renders and parses over plain integers.

_ORACLE_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_ORACLE_TOKEN_RE = re.compile(r"\s*([+-]|\d+/\d+|\d+|[a-z]\d+)")


def _oracle_factor(site, choice, n):
    if n <= len(_ORACLE_LETTERS):
        return f"{_ORACLE_LETTERS[site]}{choice + 1}"
    return f"A{site + 1}({choice})"


def oracle_polynomial_string(beta):
    n = beta.n
    den = 1 << beta.coefficients.log_denominator
    order = sorted(range(1 << n), key=lambda s: tuple((s >> k) & 1 for k in range(n)))
    parts = []
    for s in order:
        num = beta.coefficients.numerators[s]
        if num == 0:
            continue
        coef = Fraction(abs(num), den)
        factors = " ".join(_oracle_factor(k, (s >> k) & 1, n) for k in range(n))
        body = factors if coef == 1 else f"{coef} {factors}"
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(("+ " if num > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def oracle_parse_polynomial(text, n=None):
    pos = 0
    tokens = []
    stripped = text.strip()
    if stripped == "0":
        if n is None:
            raise ValueError("cannot infer the site count of the zero polynomial")
        return BellTable(DyadicVector(n, (0,) * (1 << n), 0))
    while pos < len(stripped):
        m = _ORACLE_TOKEN_RE.match(stripped, pos)
        if not m:
            raise ValueError(f"cannot parse polynomial near {stripped[pos:pos + 12]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    terms = []
    sign, coef, factors = 1, None, {}

    def flush():
        nonlocal sign, coef, factors
        if not factors:
            raise ValueError("term without site factors")
        terms.append((sign * (coef if coef is not None else Fraction(1)), factors))
        sign, coef, factors = 1, None, {}

    for tok in tokens:
        if tok in "+-":
            if factors:
                flush()
            sign = 1 if tok == "+" else -1
        elif tok[0].isdigit():
            if coef is not None or factors:
                raise ValueError(f"misplaced coefficient {tok!r}")
            if "/" in tok:
                a, b = tok.split("/")
                if int(b) == 0:
                    raise ValueError(f"coefficient {tok!r} has a zero denominator")
                coef = Fraction(int(a), int(b))
            else:
                coef = Fraction(int(tok))
        else:
            site = _ORACLE_LETTERS.index(tok[0]) + 1
            choice = int(tok[1:])
            if choice not in (1, 2):
                raise ValueError(f"choice subscript must be 1 or 2 in {tok!r}")
            if site in factors:
                raise ValueError(f"site {tok[0]!r} repeated within one term")
            factors[site] = choice - 1
    flush()

    sites = max(max(f) for _, f in terms)
    if n is not None and n != sites:
        raise ValueError(f"polynomial names sites up to {sites}, expected n={n}")
    n = sites
    table = [Fraction(0)] * (1 << n)
    for coef, f in terms:
        if sorted(f) != list(range(1, n + 1)):
            raise ValueError("every term must name each site exactly once")
        s = sum(choice << (site - 1) for site, choice in f.items())
        table[s] += coef
    den = math.lcm(*(c.denominator for c in table))
    if den & (den - 1):
        raise ValueError(f"coefficients are not dyadic (denominator {den})")
    d = den.bit_length() - 1
    return BellTable(DyadicVector(n, tuple(int(c * den) for c in table), d))


def _outcome(parse, text, n):
    """The parsed table, or the error type and message."""
    try:
        return parse(text, n)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_codec_matches_oracle(beta):
    text = polynomial_string(beta)
    assert text == oracle_polynomial_string(beta)
    for n in (None, beta.n):
        assert _outcome(parse_polynomial, text, n) == _outcome(oracle_parse_polynomial, text, n)
    assert parse_polynomial(text, beta.n) == beta


def test_polynomial_text_matches_oracle_on_every_small_table():
    for n in (1, 2, 3):
        for value in range(1 << (1 << n)):
            _assert_codec_matches_oracle(bell_table_from_id(n, value))


def test_polynomial_text_matches_oracle_on_seeded_tables():
    rnd = random.Random(9)
    for n in range(4, 10):
        for _ in range(6):
            _assert_codec_matches_oracle(bell_table_from_id(n, rnd.getrandbits(1 << n)))


@st.composite
def dyadic_tables(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    numerators = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=-(2**20), max_value=2**20)),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    return BellTable.from_numerators(n, numerators, draw(st.integers(0, 12)))


@given(dyadic_tables(), st.randoms(use_true_random=False), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_polynomial_text_matches_oracle_on_dyadic_tables(beta, rnd, scale):
    _assert_codec_matches_oracle(beta)
    # the same table written unreduced (numerator and denominator times
    # scale), with terms shuffled and a monomial split in two
    c = beta.coefficients
    terms = [(num * scale, s) for s, num in enumerate(c.numerators) if num] or [(0, 0)]
    num, s = terms[0]
    terms[0:1] = [(num - scale, s), (scale, s)]
    rnd.shuffle(terms)
    den = scale << c.log_denominator
    text = " ".join(
        ("- " if num < 0 else "+ ")
        + f"{abs(num)}/{den} "
        + " ".join(f"{'abcdef'[k]}{(s >> k & 1) + 1}" for k in range(beta.n))
        for num, s in terms
    )
    assert _outcome(parse_polynomial, text, None) == _outcome(
        oracle_parse_polynomial, text, None
    )
    assert parse_polynomial(text, beta.n) == beta


@pytest.mark.parametrize(
    "text",
    [
        "- - a1",
        "a1b2",
        "a01 b02",
        "3/6 a1 b1",
        "1/3 a1 + 2/3 a1",
        "a1 a1",
        "2 a1 3 b1",
        "a1 -",
        "a3 b1",
        "1/ 2 a1",
        "a1 # b1",
        "0",
        "",
        "1/2 - a1",
        "a1 + 0 b1",
        "1/6 a1 + 1/3 a2",
        "7/12 a1 + 5/12 a1",
        "a1 1/2",
        "- + a1",
        "1/0 a1 a1",
        "a1 a3 - 1/0 b1",
        "a1 b1 - 1/0",
        # a word runs from a letter over letters, digits, spaces and '/', so
        # coefficients, stray characters and long digit runs can land inside it
        "+ a1 b11/1 ",
        "a1 1/2 b1",
        "a1 12 b1",
        "a1 2/0 b1",
        "x1 a1",
        "a1 x b1",
        "A1 b1",
        "1/2 3 a1",
        "a1\tb1\n- 1/2 a2 b2",
    ],
)
@pytest.mark.parametrize("n", [None, 1, 2])
def test_accepted_language_matches_oracle(text, n):
    assert _outcome(parse_polynomial, text, n) == _outcome(oracle_parse_polynomial, text, n)


@st.composite
def token_texts(draw):
    """Signs, 'p' and 'p/q' coefficients (with '/0'), site factors with
    choices 0..3 and repeated sites, glued or spaced, and the odd junk
    character; whole terms over the first k sites, so that some texts parse."""
    k = draw(st.integers(1, 3))
    sign = st.sampled_from("+-")
    coef = st.builds(
        lambda p, q: str(p) if q is None else f"{p}/{q}",
        st.integers(0, 12),
        st.sampled_from([None, 1, 2, 4, 8, 3, 0]),
    )
    site = st.builds("{}{}".format, st.sampled_from("abcd"[: k + 1]), st.sampled_from("1212203"))
    word = st.permutations("abc"[:k]).flatmap(
        lambda letters: st.tuples(*(st.sampled_from([f"{c}1", f"{c}2"]) for c in letters))
    )
    term = st.builds(
        lambda *parts: " ".join(filter(None, (*parts[:2], *parts[2]))),
        st.sampled_from(["+", "-", "+", "-", None]),
        st.none() | coef,
        word,
    )
    token = st.one_of(term, term, term, sign, coef, site)
    separator = st.sampled_from(["", " ", " ", " ", " ", "  ", "\t", "\n"])
    pairs = draw(st.lists(st.tuples(token, separator), max_size=8))
    text = "".join(tok + sep for tok, sep in pairs)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("#/*.x")) + text[at:]
    return text


@given(token_texts(), st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=400, deadline=None)
def test_random_token_sequences_match_oracle(text, n):
    # the table, or the first error met reading the tokens left to right
    assert _outcome(parse_polynomial, text, n) == _outcome(oracle_parse_polynomial, text, n)


def test_a_digit_run_is_not_split_by_backtracking():
    # a term scan free to split '111...1' into several coefficients retries
    # all 2^25 splits before giving up (about 15 s); the token grammar has one
    start = time.perf_counter()
    # nor may a long run of one of the term scan's classes cost more than linear time
    texts = ("1" * 26 + "#", "1/" + "1" * 26 + " #", "a1 + " + "1" * 26 + "/")
    for text in texts + ("a1 " * 20000 + "#", "1/2" + " " * 100000 + "#", "a" * 50000):
        assert _outcome(parse_polynomial, text, None) == _outcome(
            oracle_parse_polynomial, text, None
        )
    assert time.perf_counter() - start < 1.0


def test_glued_and_tabbed_text_parses_to_the_same_table():
    beta = bell_table_from_id(8, random.Random(8).getrandbits(1 << 8))
    text = polynomial_string(beta)
    glued = text.replace(" ", "")
    tabbed = text.replace(" + ", "\t+\n").replace(" - ", "\n-\t").replace(" ", "\t")
    assert "/" in glued and "\t" in tabbed and "\n" in tabbed
    for variant in (text, glued, tabbed):
        assert parse_polynomial(variant, 8) == beta
        assert _outcome(parse_polynomial, variant, None) == _outcome(
            oracle_parse_polynomial, variant, None
        )


def test_polynomial_text_round_trip_past_the_cache_bounds():
    # 8,192 monomials at n=13, more site words than the parser caches
    beta = bell_table_from_id(13, random.Random(13).getrandbits(1 << 13))
    text = polynomial_string(beta)
    assert parse_polynomial(text, 13) == beta
    assert parse_polynomial(text) == beta
    cache = inequality._monomial.cache_info()
    assert cache.currsize == cache.maxsize < 1 << 13
    _assert_codec_matches_oracle(beta)


def test_mermin_sign_table_ids():
    assert signs_to_id(mermin_sign_table(3)) == 129
    assert signs_to_id(mermin_sign_table(6)) == 1692930046964590721
    f = mermin_sign_table(4)
    for r in range(16):
        expected = -1 if r.bit_count() % 4 in (0, 3) else 1
        assert f.signs[r] == expected


def test_bell_table_json_roundtrip():
    beta = bell_table_from_id(3, 23)
    assert bell_table_from_json(bell_table_to_json(beta)) == beta
    with pytest.raises(ValueError):
        bell_table_from_json({"n": 2})
