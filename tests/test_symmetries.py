"""The boundary symmetries of the surface, as an exact oracle for the twist kernel.

Each map permutes and negates the boundary traces (a, b, c, d) and moves
the point p with them so that kappa is unchanged.  It conjugates the twist
group onto itself: the generator g at (B, p) corresponds to the generator
g' at (B', s(p)), so ``apply_generator(B', s(p), g') == s(apply_generator(B,
p, g))`` holds exactly.  The invariants that do not depend on coordinates
agree as well, and the intervals S of :func:`classify` move with the
coordinates.  The kernel never sees these maps, so the checks are
independent of its step table.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracetwist import (
    Axis,
    BoundaryTraces,
    N_of_epsilon,
    Surd,
    TracePoint,
    TwistGenerator,
    apply_generator,
    classify,
    enumerate_orbit,
    kappa,
    minimality_criterion,
)
from conftest import rand_boundary, rand_point

LETTERS = "XxYyZz"

# name -> (B -> B', p -> s(p), the images of LETTERS in order)
SYMMETRIES = {
    "flip-ab": (lambda a, b, c, d: (-a, -b, c, d), lambda x, y, z: (x, -y, -z), LETTERS),
    "flip-ad": (lambda a, b, c, d: (-a, b, c, -d), lambda x, y, z: (-x, y, -z), LETTERS),
    "flip-all": (lambda a, b, c, d: (-a, -b, -c, -d), lambda x, y, z: (x, y, z), LETTERS),
    "swap-pairs": (lambda a, b, c, d: (b, a, d, c), lambda x, y, z: (x, y, z), LETTERS),
    "cycle": (lambda a, b, c, d: (a, c, d, b), lambda x, y, z: (z, x, y), "YyZzXx"),
    "swap": (lambda a, b, c, d: (a, d, c, b), lambda x, y, z: (y, x, z), "yYxXzZ"),
}


def _image(name, B, p=None):
    on_boundary, on_point, _ = SYMMETRIES[name]
    image = BoundaryTraces(*on_boundary(B.a, B.b, B.c, B.d))
    return image if p is None else (image, TracePoint(*on_point(p.x, p.y, p.z)))


def _samples(count=40, seed=29):
    rng = random.Random(seed)
    return [(rand_boundary(rng), rand_point(rng)) for _ in range(count)]


def _assert_conjugates(name, B, p):
    B2, p2 = _image(name, B, p)
    assert kappa(B2, p2) == kappa(B, p)
    for letter, target in zip(LETTERS, SYMMETRIES[name][2]):
        g, g2 = TwistGenerator.from_letter(letter), TwistGenerator.from_letter(target)
        _, moved = _image(name, B, apply_generator(B, p, g))
        assert apply_generator(B2, p2, g2) == moved, (B, p, letter)


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_symmetry_conjugates_every_generator(name):
    for B, p in _samples():
        _assert_conjugates(name, B, p)


_traces = st.fractions(min_value=-2, max_value=2, max_denominator=12).filter(lambda f: abs(f) < 2)
_coords = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(list(SYMMETRIES)),
    st.tuples(_traces, _traces, _traces, _traces),
    st.tuples(_coords, _coords, _coords),
)
def test_symmetry_conjugates_every_generator_on_drawn_points(name, traces, coords):
    _assert_conjugates(name, BoundaryTraces(*traces), TracePoint(*coords))


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_symmetry_maps_the_classify_intervals(name):
    # Coordinate i of s(p) is coordinate pi(i) of p, negated or not, so S on
    # axis i of B' is S on axis pi(i) of B, reversed and negated when s
    # negates.  s(1, 2, 3) reads off pi and the signs.
    def negate(v):
        return Surd(-v.a, -v.b, v.r)

    axes = list(Axis)
    for B, _ in _samples():
        B2 = _image(name, B)
        for axis, v in zip(axes, SYMMETRIES[name][1](1, 2, 3)):
            component, S = classify(B, axes[abs(v) - 1])
            if S is not None and v < 0:
                S = (negate(S[1]), negate(S[0]))
            assert classify(B2, axis) == (component, S), (B, axis)


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_symmetry_keeps_the_boundary_invariants(name):
    for B, _ in _samples():
        B2 = _image(name, B)
        assert classify(B2)[0] == classify(B)[0]
        assert minimality_criterion(B2) == minimality_criterion(B)
        assert N_of_epsilon(B2, 0.1) == N_of_epsilon(B, 0.1)


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_symmetry_keeps_the_finite_orbit(name):
    B = BoundaryTraces(1, 1, Fraction(7, 4), Fraction(-7, 4))
    p = TracePoint(-1, 0, 0)
    B2, p2 = _image(name, B, p)
    assert kappa(B2, p2) == kappa(B, p) == 0
    result, image = enumerate_orbit(B, p, 100), enumerate_orbit(B2, p2, 100)
    assert (image.status, image.cardinality) == (result.status, result.cardinality) == ("finite", 2)
    assert image.points == {_image(name, B, q)[1] for q in result.points}
