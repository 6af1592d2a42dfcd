"""Transform layer: the exact butterfly and dyadic vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly.transform import DimensionMismatchError, DyadicVector, walsh_hadamard


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
