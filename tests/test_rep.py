import random
from fractions import Fraction

import pytest

from tracetwist import (
    BoundaryTraces,
    Mat2,
    MixedModeError,
    TracePoint,
    enumerate_orbit,
    exceptional_family,
    exceptional_representation,
    from_triple,
    is_in_F,
    kappa,
    trace_coordinates,
)
from tracetwist.rep import RepFour
from conftest import rand_elliptic_mat


def test_mat2_basics():
    I = Mat2.identity()
    assert I.trace() == 2
    assert I.inverse() == I
    m = Mat2(2, 1, 1, 1)
    assert m @ m.inverse() == I
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    # a float entry used to be taken as its binary fraction
    with pytest.raises(MixedModeError):
        Mat2(0.5, 0, 0, 2)


def test_repfour_relation_enforced():
    I = Mat2.identity()
    with pytest.raises(ValueError):
        RepFour(Mat2(2, 1, 1, 1), I, I, I)
    assert from_triple(I, I, I).D == I


def test_explicit_matrices():
    rep = exceptional_representation()
    assert rep.A.trace() == 1 and rep.B.trace() == 1
    assert rep.C.trace() == Fraction(7, 4)
    assert rep.D.trace() == Fraction(-7, 4)
    assert (rep.A @ rep.B).trace() == -1
    assert (rep.B @ rep.C).trace() == 0
    assert (rep.C @ rep.A).trace() == 0


def test_trace_coordinates_explicit():
    rep = exceptional_representation()
    boundary, point = trace_coordinates(rep)
    assert boundary == BoundaryTraces(1, 1, Fraction(7, 4), Fraction(-7, 4))
    assert point == TracePoint(-1, 0, 0)
    assert kappa(boundary, point) == 0


def test_trace_coordinates_rejects_parabolic():
    I = Mat2.identity()
    with pytest.raises(ValueError):
        trace_coordinates(RepFour(I, I, I, I))


def test_trace_coordinates_random_soundness():
    # random elliptic rational triples always land exactly on the surface
    rng = random.Random(17)
    produced = 0
    while produced < 60:
        A, B, C = (rand_elliptic_mat(rng) for _ in range(3))
        if not (-2 < (A @ B @ C).trace() < 2):
            continue
        boundary, point = trace_coordinates(from_triple(A, B, C))
        assert kappa(boundary, point) == 0  # also re-checked internally
        produced += 1


def test_is_in_F_examples():
    assert is_in_F(Fraction(1), Fraction(7, 4))
    assert not is_in_F(Fraction(1), Fraction(1))
    # (2 - 1e-6)^2 < 4, so the norm condition fails despite being close
    assert not is_in_F(Fraction(0), 2 - Fraction(1, 10**6))
    with pytest.raises(ValueError):
        is_in_F(Fraction(5, 2), Fraction(0))


def test_explicit_point_sits_in_special_orbit():
    rep = exceptional_representation()
    boundary, point = trace_coordinates(rep)
    family_B, orbit = exceptional_family(Fraction(1), Fraction(7, 4))
    assert family_B == boundary
    assert point in orbit
    result = enumerate_orbit(boundary, point, 10_000)
    assert result.is_finite and result.points == orbit
