"""Transform layer: the bit layout, the exact butterfly and dyadic vectors."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly.classical import CorrelationVector, l1_margin, spectrum, witness
from bellpoly.compose import NestingLeaf, NestingNode, full_nesting
from bellpoly.inequality import BellTable, SignTable, bell_table_from_id, id_to_signs, signs_to_id
from bellpoly.quantum import (
    DensityMatrix, ObservableSpec, PhaseVector, ViolationResult, ghz_observables, max_violation, sample_separable,
)
from bellpoly.symmetry import GroupElement, Orbit, orbit_of_id
from bellpoly.transform import (
    DimensionMismatchError,
    DyadicVector,
    _butterfly,
    bit_matrix,
    bits_word,
    walsh_hadamard,
    word_bits,
)


def naive_transform(values):
    """O(4^n) double sum, the independent oracle for the butterfly."""
    m = len(values)
    return [
        sum(v * (-1) ** ((r & s).bit_count() & 1) for s, v in enumerate(values))
        for r in range(m)
    ]


def test_walsh_delta_to_constant():
    assert walsh_hadamard([1, 0, 0, 0]) == [1, 1, 1, 1]


def test_walsh_chsh_prototype_table():
    assert walsh_hadamard([1, 1, 1, -1]) == [2, 2, 2, -2]


def test_walsh_rejects_bad_length():
    with pytest.raises(DimensionMismatchError):
        walsh_hadamard([1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        walsh_hadamard([])


def test_walsh_matches_naive_double_sum():
    import numpy as np

    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for _ in range(25):
            values = [int(v) for v in rng.integers(-50, 50, size=1 << n)]
            assert walsh_hadamard(values) == naive_transform(values)


@st.composite
def integer_tables(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(
        st.lists(
            st.integers(min_value=-10**6, max_value=10**6),
            min_size=1 << n,
            max_size=1 << n,
        )
    )


@given(integer_tables())
@settings(max_examples=60, deadline=None)
def test_walsh_involution(values):
    twice = walsh_hadamard(walsh_hadamard(values))
    assert twice == [len(values) * v for v in values]


@given(integer_tables())
@settings(max_examples=60, deadline=None)
def test_walsh_parseval(values):
    transformed = walsh_hadamard(values)
    assert sum(w * w for w in transformed) == len(values) * sum(v * v for v in values)


def test_dyadic_reduction_to_lowest_terms():
    v = DyadicVector(2, (2, 2, 2, 2), 2)
    assert v.numerators == (1, 1, 1, 1)
    assert v.log_denominator == 1
    assert DyadicVector(1, (3, -1), 2) == DyadicVector(1, (6, -2), 3)


def test_dyadic_zero_vector_reduces_denominator():
    v = DyadicVector(2, (0, 0, 0, 0), 5)
    assert v.log_denominator == 0


def test_dyadic_validation():
    with pytest.raises(DimensionMismatchError):
        DyadicVector(2, (1, 2, 3), 0)
    with pytest.raises(ValueError):
        DyadicVector(2, (1, 2, 3, 4), -1)
    with pytest.raises(TypeError):
        DyadicVector(1, (0.5, 1), 1)


@pytest.mark.parametrize("n", range(9))
def test_bit_matrix_matches_a_per_bit_loop(n):
    bits = bit_matrix(n)
    expected = [[float((s >> k) & 1) for k in range(n)] for s in range(1 << n)]
    assert bits.shape == (1 << n, n) and bits.dtype == float
    assert bits.tolist() == expected
    assert not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[...] = 0.0


@pytest.mark.parametrize("n", range(9))
def test_word_bits_match_a_per_bit_loop(n):
    rng = np.random.default_rng(n)
    words = [0, (1 << n) - 1, *(int(w) for w in rng.integers(0, 1 << n, size=20))]
    for word in words:
        assert list(word_bits(n, word)) == [(word >> k) & 1 for k in range(n)]
    # wider words keep only their low bits, and row s of bit_matrix is word_bits(n, s)
    assert word_bits(n, (5 << n) | 1) == word_bits(n, 1)
    assert bit_matrix(n).tolist() == [list(map(float, word_bits(n, s))) for s in range(1 << n)]


def loop_signs_to_id(f: SignTable) -> int:
    """The per-bit encoder signs_to_id used before bits_word, the reference here."""
    value = 0
    for r, v in enumerate(f.signs):
        if v < 0:
            value |= 1 << r
    return value


@pytest.mark.parametrize("n", range(1, 9))
def test_word_bits_agree_with_signs_to_id(n):
    """Bit r of an id is set exactly where f(r) = -1, in both directions."""
    rng = np.random.default_rng(100 + n)
    m = 1 << n
    for _ in range(25):
        value = int.from_bytes(rng.bytes((m + 7) // 8), "little") & ((1 << m) - 1)
        bits = word_bits(m, value)
        assert bits_word(bits) == value
        assert signs_to_id(SignTable(n, tuple(1 - 2 * b for b in bits))) == value
        assert id_to_signs(n, value).signs == tuple(1 - 2 * b for b in bits)
        signs = tuple(int(v) for v in rng.choice((-1, 1), size=m))
        assert signs_to_id(SignTable(n, signs)) == loop_signs_to_id(SignTable(n, signs))
        assert list(word_bits(m, signs_to_id(SignTable(n, signs)))) == [int(v < 0) for v in signs]
    # every width in between, and the all-zero and all-one words at each end
    for width in range(m // 2, m + 1):
        for value in (0, (1 << width) - 1, int.from_bytes(rng.bytes(width // 8 + 1), "little") % (1 << width)):
            assert bits_word(word_bits(width, value)) == value
    assert bits_word(b"") == 0 and bits_word([1, 0, 1]) == 5


def in_place_butterfly(out):
    """The in-place butterfly loop the constant-geometry stages replaced, the reference here."""
    m = len(out)
    step = 1
    while step < m:
        for lo in range(0, m, 2 * step):
            for j in range(lo, lo + step):
                a = out[j]
                b = out[j + step]
                out[j] = a + b
                out[j + step] = a - b
        step <<= 1
    return out


def random_floats(rng, m):
    """m floats of either sign with magnitudes spread over 1e-20..1e20."""
    return [float(v) for v in rng.choice((-1.0, 1.0), size=m) * 10.0 ** rng.uniform(-20, 20, size=m)]


@pytest.mark.parametrize("n", range(11))
def test_butterfly_is_bit_identical_to_the_in_place_loop(n):
    rng = np.random.default_rng(300 + n)
    m = 1 << n
    for _ in range(30 if n < 8 else 5):
        values = random_floats(rng, m)
        assert [v.hex() for v in _butterfly(list(values))] == [
            v.hex() for v in in_place_butterfly(list(values))
        ]
        ints = [int(v) for v in rng.integers(-(1 << 62), 1 << 62, size=m)]
        ints = [v * (1 << 70) + w for v, w in zip(ints, reversed(ints))]  # past 2^64
        expected = in_place_butterfly(list(ints))
        assert walsh_hadamard(ints) == expected and _butterfly(list(ints)) == expected
    assert walsh_hadamard([5]) == [5] and _butterfly([0.5]) == [0.5]


@pytest.mark.parametrize("n", range(1, 11))
def test_float_spectrum_matches_the_in_place_loop(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(10 if n < 8 else 3):
        values = random_floats(rng, 1 << n)
        peak = max(map(abs, values))
        xi = CorrelationVector(n, tuple(v / peak for v in values))
        expected = np.array(in_place_butterfly(list(xi.xi))) / (1 << n)
        assert spectrum(xi).tobytes() == expected.tobytes()
        assert l1_margin(xi) == float(np.abs(expected).sum())
        assert witness(xi).signs == tuple(1 if v >= 0.0 else -1 for v in expected)


def halving_lowest_terms(nums, d):
    """Lowest terms by one halving at a time, the reduction DyadicVector used before."""
    while d > 0 and not any(v & 1 for v in nums):
        nums = tuple(v >> 1 for v in nums)
        d -= 1
    return nums, d


@pytest.mark.parametrize("d", range(13))
def test_dyadic_lowest_terms_match_one_halving_at_a_time(d):
    rng = np.random.default_rng(500 + d)
    for n in (1, 2, 3, 5):
        m = 1 << n
        cases = [(0,) * m, (-(1 << 80),) + (0,) * (m - 1)]
        for _ in range(20):
            shared = int(rng.integers(0, 15))
            cases.append(tuple(
                int(v) << shared
                for v in rng.integers(-3, 4, size=m) * rng.choice((1, 1 << 66), size=m)
            ))
        for nums in cases:
            v = DyadicVector(n, nums, d)
            assert (v.numerators, v.log_denominator) == halving_lowest_terms(nums, d)


# class -> (a call that builds a fresh instance, the repr the frozen dataclasses printed)
VALUE_CLASSES = {
    DyadicVector: (
        lambda: bell_table_from_id(2, 1).coefficients,
        "DyadicVector(n=2, numerators=(1, -1, -1, -1), log_denominator=1)",
    ),
    SignTable: (lambda: id_to_signs(2, 1), "SignTable(n=2, signs=(-1, 1, 1, 1))"),
    BellTable: (
        lambda: bell_table_from_id(2, 1),
        "BellTable(coefficients=DyadicVector(n=2, numerators=(1, -1, -1, -1), log_denominator=1))",
    ),
    NestingLeaf: (lambda: NestingLeaf(choice=1, sign=-1), "NestingLeaf(choice=1, sign=-1)"),
    NestingNode: (
        lambda: full_nesting(bell_table_from_id(2, 1)),
        "NestingNode(a0=NestingLeaf(choice=1, sign=-1), a1=NestingLeaf(choice=0, sign=1))",
    ),
    CorrelationVector: (lambda: CorrelationVector.from_values([1, 0.5]), "CorrelationVector(n=1, xi=(1.0, 0.5))"),
    GroupElement: (lambda: GroupElement((1, 0), 1, 2, -1), "GroupElement(perm=(1, 0), r0=1, s0=2, sign=-1)"),
    Orbit: (lambda: orbit_of_id(2, 1), "Orbit(n=2, canonical_id=1, size=8)"),
    PhaseVector: (lambda: PhaseVector(0.5, (1.0, 7.0)), "PhaseVector(phi0=0.5, phi=(1.0, 0.7168146928204138))"),
    ObservableSpec: (
        lambda: ghz_observables(PhaseVector(0.5, (1.0, 7.0))),
        "ObservableSpec(angles=((0.25, 1.25), (0.25, 0.9668146928204138)))",
    ),
    DensityMatrix: (lambda: sample_separable(1, 2, 0), "DensityMatrix(n=1)"),
    ViolationResult: (  # the constant table: every start is a maximum with a zero gradient
        lambda: max_violation(bell_table_from_id(2, 0)),
        "ViolationResult(value=1.0, phases=PhaseVector(phi0=0.0, phi=(0.0, 0.0)), converged=True,"
        " gradient_norm=0.0, starts=35, iterations=0, polished=35)",
    ),
}
IDENTITY_CLASSES = (Orbit, DensityMatrix)


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def _same_fields(a, b) -> bool:
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(_fields(a), _fields(b), strict=True)
    )


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_equality_hash_repr(cls):
    """Equal fields give equal values with equal hashes (identity for Orbit and DensityMatrix);
    no value equals one of another class or the tuple of its fields."""
    build, text = VALUE_CLASSES[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b and repr(a) == text
    if cls in IDENTITY_CLASSES:
        assert a == a and a != b and hash(a) == object.__hash__(a) and _same_fields(a, b)
    else:
        assert a == b and hash(a) == hash(b) and not a != b
    assert a != _fields(a) and _fields(a) != a
    others = [build() for other, (build, _) in VALUE_CLASSES.items() if other is not cls]
    assert not any(a == other or other == a for other in others)
    assert SignTable(1, (1, 1)) != CorrelationVector(1, (1.0, 1.0))  # equal fields, other classes


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_is_immutable(cls):
    value = VALUE_CLASSES[cls][0]()
    for name, field in zip(cls.__match_args__, _fields(value)):
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert _same_fields(value, VALUE_CLASSES[cls][0]())


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_pickle_and_copy_round_trip(cls):
    """Copies come back through the constructor: equal, or for the identity classes the same
    fields and a working instance."""
    value = VALUE_CLASSES[cls][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls and _same_fields(twin, value) and repr(twin) == repr(value)
        if cls is Orbit:
            assert 1 in twin and 0 not in twin and twin.member_ids.tolist() == value.member_ids.tolist()
        elif cls is DensityMatrix:
            assert not twin.entries.flags.writeable
        else:
            assert twin == value and hash(twin) == hash(value)
