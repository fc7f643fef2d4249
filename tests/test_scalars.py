from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, strategies as st

from tracetwist.scalars import (
    EXACT,
    FLOAT,
    MixedModeError,
    Surd,
    _sign_sum,
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


@pytest.mark.parametrize("args", [(0.1, 1, 2), (0, 0.5, 2), (0, 1, 2.0)])
def test_surd_refuses_floats(args):
    with pytest.raises(MixedModeError):
        Surd(*args)


def test_surd_takes_ints_fractions_and_strings():
    assert Surd("1/2", Fraction(1, 3), "2") == Surd(Fraction(1, 2), Fraction(1, 3), 2)
    assert Surd("3", 1, "4/9").as_fraction() == Fraction(11, 3)


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


# The comparisons below tie exactly or lie closer than a double resolves, so
# each one checks that Surd decides signs exactly rather than through float().


def test_sqrt2_convergents_alternate_around_sqrt2():
    root2 = Surd(0, 1, 2)
    p, q = 1, 1
    for n in range(42):
        below = n % 2 == 0
        assert (Fraction(p, q) < root2) is below
        assert (root2 > Fraction(p, q)) is below
        assert (root2 < Surd(Fraction(p, q))) is not below
        assert root2 != Fraction(p, q)
        p, q = p + 2 * q, p + q


def test_surd_near_ties_beyond_double_precision():
    assert Surd(0, 1, 10**30 + 1) > 10**15
    assert Surd(1, 1, 10**30 + 1) > Surd(0, 1, (10**15 + 1) ** 2 - 1)
    assert Surd(0, 1, (10**15 + 1) ** 2 - 1) < Surd(1, 1, 10**30 + 1)


def test_surd_exact_tie_both_ways_round():
    for s1, s2 in ((Surd(0, 1, 8), Surd(0, 2, 2)), (Surd(0, 2, 2), Surd(0, 1, 8))):
        assert s1 == s2
        assert not s1 < s2 and not s1 > s2
        assert s1 <= s2 and s1 >= s2


coefficients = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
positives = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(200), max_denominator=20
)


def _mp_sum(t, u, r1, v, r2):
    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    return mp(t) + mp(u) * mpmath.sqrt(mp(r1)) + mp(v) * mpmath.sqrt(mp(r2))


@given(
    coefficients, coefficients, radicands, coefficients, radicands,
    st.one_of(st.none(), st.integers(min_value=1, max_value=10**15)),
)
def test_sign_sum_agrees_with_sixty_digits(t, u, r1, v, r2, near_tie_den):
    with mpmath.workdps(60):
        if near_tie_den is not None:
            # t within about 1/den^2 of -(u*sqrt(r1) + v*sqrt(r2))
            w = _mp_sum(Fraction(0), u, r1, v, r2)
            t = -Fraction(mpmath.nstr(w, 55, min_fixed=-100, max_fixed=100))
            t = t.limit_denominator(near_tie_den)
        value = _mp_sum(t, u, r1, v, r2)
        assume(abs(value) > mpmath.mpf(10) ** -40)
        assert _sign_sum(t, u, r1, v, r2) == (1 if value > 0 else -1)


@given(coefficients, positives, positives)
def test_sign_sum_exact_zeros(u, r, k):
    # u*sqrt(r) - (u/k)*sqrt(k^2*r) == 0 for every rational k > 0
    assert _sign_sum(0, u, r, -u / k, k * k * r) == 0
    assert _sign_sum(0, -u / k, k * k * r, u, r) == 0
