from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tracetwist.scalars import (
    EXACT,
    FLOAT,
    MixedModeError,
    Surd,
    as_fraction,
    sqrt_exact,
    unify,
)


def test_unify_promotes_ints():
    mode, (a, b) = unify(1, Fraction(1, 2))
    assert mode == EXACT and a == 1 and isinstance(a, Fraction)
    mode, (a, b) = unify(1, 0.5)
    assert mode == FLOAT and isinstance(a, float)
    mode, values = unify(1, 2)
    assert mode == EXACT and all(isinstance(v, Fraction) for v in values)


def test_unify_rejects_mixed():
    with pytest.raises(MixedModeError):
        unify(Fraction(1, 3), 0.5)


def test_as_fraction_parsing():
    assert as_fraction("7/4") == Fraction(7, 4)
    assert as_fraction("-3") == -3
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)
    with pytest.raises(MixedModeError):
        as_fraction(0.5)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(Fraction(0)) == 0
    assert sqrt_exact(Fraction(2)) is None
    with pytest.raises(ValueError):
        sqrt_exact(Fraction(-1))


def test_surd_collapse_and_equality():
    assert Surd(1, 1, 9) == 4
    assert Surd(1, 1, 9) == Fraction(4)
    assert Surd(0, 2, 2) == Surd(0, 1, 8)  # 2*sqrt(2) == sqrt(8)
    assert len({Surd(0, 2, 2), Surd(0, 1, 8)}) == 1
    assert len({Surd(1, -2, 2), Surd(1, -1, 8), Surd(1, 1, 8)}) == 2
    assert Surd(0, 1, 2) != Surd(0, 1, 3)
    assert hash(Surd(1, 1, 9)) == hash(Fraction(4))


def test_surd_ordering():
    assert Surd(0, 1, 2) < Fraction(3, 2)
    assert Surd(0, 1, 2) > 1
    assert Surd(1, 1, 2) < Surd(0, 1, 8)  # 1+sqrt(2) < 2*sqrt(2)
    assert Surd(0, -1, 2) < 0
    assert max(Surd(0, 1, 3), Surd(0, 1, 2)) == Surd(0, 1, 3)


def test_surd_float_and_rational():
    assert float(Surd(0, 1, 2)) == pytest.approx(2**0.5)
    assert Surd(Fraction(1, 2)).as_fraction() == Fraction(1, 2)
    with pytest.raises(ValueError):
        Surd(0, 1, 2).as_fraction()
    with pytest.raises(ValueError):
        Surd(0, 1, -1)


small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)
radicands = st.fractions(min_value=Fraction(0), max_value=Fraction(9), max_denominator=12)


@given(small_fractions, small_fractions, radicands, small_fractions, small_fractions, radicands)
def test_surd_comparison_agrees_with_floats(a1, b1, r1, a2, b2, r2):
    s1, s2 = Surd(a1, b1, r1), Surd(a2, b2, r2)
    f1, f2 = float(s1), float(s2)
    if abs(f1 - f2) > 1e-9:
        assert (s1 < s2) == (f1 < f2)
        assert (s1 == s2) is False
