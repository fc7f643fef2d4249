"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tracetwist import BoundaryTraces, TracePoint
from tracetwist.rep import Mat2


def rand_fraction(rng: random.Random, bound: int, max_den: int = 30) -> Fraction:
    """A random fraction strictly inside (-bound, bound)."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den + 1, bound * den - 1), den)


def rand_boundary(rng: random.Random, max_den: int = 20) -> BoundaryTraces:
    return BoundaryTraces(*(rand_fraction(rng, 2, max_den) for _ in range(4)))


def rand_point(rng: random.Random, max_den: int = 30) -> TracePoint:
    return TracePoint(*(rand_fraction(rng, 3, max_den) for _ in range(3)))


def rand_elliptic_mat(rng: random.Random) -> Mat2:
    """Random rational det-1 matrix with trace strictly inside (-2, 2)."""
    t = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
    den = 1 + t * t
    rot = Mat2((1 - t * t) / den, -2 * t / den, 2 * t / den, (1 - t * t) / den)
    r = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    conj = Mat2(1, r, 0, 1) if rng.random() < 0.5 else Mat2(1, 0, r, 1)
    return conj @ rot @ conj.inverse()


@pytest.fixture
def exceptional_B() -> BoundaryTraces:
    """Boundary data carrying the finite two-point orbit."""
    return BoundaryTraces(1, 1, Fraction(7, 4), Fraction(-7, 4))


@pytest.fixture
def markov_B() -> BoundaryTraces:
    """All-zero boundary: the unitary surface x^2+y^2+z^2+xyz = 4."""
    return BoundaryTraces(0, 0, 0, 0)


@pytest.fixture
def minimal_B() -> BoundaryTraces:
    """Boundary data meeting the two-nonintegral-sigma `minimality_criterion`."""
    return BoundaryTraces(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))


# An exact rational point on the minimal_B surface (kappa = 0), found by
# solving the z-quadratic over small-denominator (x, y).
MINIMAL_SURFACE_POINT = TracePoint(Fraction(5, 3), Fraction(5, 3), Fraction(-11, 18))
