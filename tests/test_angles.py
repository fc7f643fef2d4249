from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tracetwist import AngleFraction

_numerators = st.one_of(st.just(0), st.integers(), st.integers(-(10**60), 10**60))
_denominators = st.one_of(st.integers(), st.integers(-(10**40), 10**40)).filter(bool)


@given(_numerators, _denominators)
def test_angle_reduces_like_fraction_mod_two(p, q):
    angle = AngleFraction(p, q)
    expected = Fraction(p, q) % 2
    assert (angle.p, angle.q) == (expected.numerator, expected.denominator)
    assert type(angle.p) is int and type(angle.q) is int


def test_angle_reduction_examples():
    assert AngleFraction(0, -5) == AngleFraction(0) == AngleFraction(0, 1)
    assert AngleFraction(-1, 3) == AngleFraction(5, 3)
    assert AngleFraction(1, -3) == AngleFraction(5, 3)
    assert AngleFraction(-4, -6) == AngleFraction(2, 3)
    assert AngleFraction(6, 2) == AngleFraction(1)
    assert AngleFraction.from_fraction(Fraction(7, 3)) == AngleFraction(1, 3)


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        AngleFraction(1, 0)
    with pytest.raises(ZeroDivisionError):
        AngleFraction(0, 0)


@pytest.mark.parametrize(
    "args", [(Fraction(1, 2),), (Fraction(1, 2), 3), (1, Fraction(3)), (0.5,), (1, 3.0)]
)
def test_angle_takes_integers_only(args):
    # Fraction arguments used to be reduced as p/q; they now raise, and a
    # Fraction angle goes through from_fraction
    with pytest.raises(TypeError):
        AngleFraction(*args)
