import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracetwist import (
    Axis,
    BoundaryTraces,
    TracePoint,
    TwistGenerator,
    TwistWord,
    apply_generator,
    apply_word,
    enumerate_orbit,
    kappa,
    level_set,
    rotation_angle,
    surface_sample,
    to_rotation_frame,
    vieta_involution,
)
from tracetwist.surface import _CYCLE, _from_integers, _to_integers
from tracetwist.twists import _STEPS, GENERATORS, _twist_exact
from conftest import MINIMAL_SURFACE_POINT, rand_boundary, rand_point

boundary_fractions = st.fractions(
    min_value=Fraction(-2), max_value=Fraction(2), max_denominator=10
).filter(lambda f: abs(f) < 2)
point_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=16
)
boundary_tuples = st.tuples(
    boundary_fractions, boundary_fractions, boundary_fractions, boundary_fractions
)
point_tuples = st.tuples(point_fractions, point_fractions, point_fractions)


def test_generator_examples(exceptional_B):
    p = TracePoint(-1, 0, 0)
    assert apply_generator(exceptional_B, p, TwistGenerator(Axis.X)) == p
    image = apply_generator(exceptional_B, p, TwistGenerator(Axis.Y))
    assert image == TracePoint(Fraction(-17, 16), 0, 0)


def test_word_examples(exceptional_B):
    p = TracePoint(-1, 0, 0)
    assert apply_word(exceptional_B, p, TwistWord()) == p
    assert apply_word(exceptional_B, p, TwistWord.parse("Y")) == TracePoint(
        Fraction(-17, 16), 0, 0
    )
    assert apply_word(exceptional_B, p, TwistWord.parse("YY")) == p


@given(boundary_tuples, point_tuples, st.sampled_from(list(Axis)), st.sampled_from([1, -1]))
def test_generator_inverse_cancels(traces, coords, axis, power):
    B = BoundaryTraces(*traces)
    p = TracePoint(*coords)
    g = TwistGenerator(axis, power)
    assert apply_generator(B, apply_generator(B, p, g), g.inverse()) == p


@given(boundary_tuples, point_tuples)
def test_kappa_invariance_all_generators(traces, coords):
    B = BoundaryTraces(*traces)
    p = TracePoint(*coords)
    value = kappa(B, p)
    for g in GENERATORS:
        assert kappa(B, apply_generator(B, p, g)) == value


@given(boundary_tuples, point_tuples, st.sampled_from(list(Axis)))
def test_level_preservation(traces, coords, axis):
    B = BoundaryTraces(*traces)
    p = TracePoint(*coords)
    for power in (1, -1):
        image = apply_generator(B, p, TwistGenerator(axis, power))
        assert image.coord(axis) == p.coord(axis)


@given(boundary_tuples, point_tuples, st.sampled_from(list(Axis)))
def test_vieta_is_involution(traces, coords, axis):
    B = BoundaryTraces(*traces)
    p = TracePoint(*coords)
    assert vieta_involution(B, vieta_involution(B, p, axis), axis) == p
    assert kappa(B, vieta_involution(B, p, axis)) == kappa(B, p)


def test_vieta_examples(exceptional_B, markov_B):
    assert vieta_involution(exceptional_B, TracePoint(-1, 0, 0), Axis.X) == TracePoint(
        Fraction(-17, 16), 0, 0
    )
    assert vieta_involution(markov_B, TracePoint(0, 0, 2), Axis.Z) == TracePoint(0, 0, -2)


def _vieta_by_hand(B, p, axis):
    x, y, z = p.as_tuple()
    if axis is Axis.X:
        return TracePoint(B.sigma_x - y * z - x, y, z)
    if axis is Axis.Y:
        return TracePoint(x, B.sigma_y - x * z - y, z)
    return TracePoint(x, y, B.sigma_z - x * y - z)


# The coordinates a forward twist replaces, in order; the inverse reverses them.
TWIST_FACTORS = {Axis.X: (Axis.Z, Axis.Y), Axis.Y: (Axis.X, Axis.Z), Axis.Z: (Axis.Y, Axis.X)}


def test_twist_factors_into_vietas():
    rng = random.Random(3)
    for _ in range(100):
        B, p = rand_boundary(rng), rand_point(rng)
        for B_mode, p_mode in ((B, p), (B.to_float(), p.to_float())):
            for g in GENERATORS:
                first, second = TWIST_FACTORS[g.axis][:: g.power]
                by_hand = _vieta_by_hand(B_mode, _vieta_by_hand(B_mode, p_mode, first), second)
                step = vieta_involution(B_mode, vieta_involution(B_mode, p_mode, first), second)
                assert apply_generator(B_mode, p_mode, g) == step == by_hand


def _kappa_by_hand(B, p):
    x, y, z = p.as_tuple()
    return (
        x * x + y * y + z * z + x * y * z
        - B.sigma_x * x - B.sigma_y * y - B.sigma_z * z
        + B.s_const
    )


def _assert_canonical(c):
    X, Y, Z, D = c
    assert all(type(v) is int for v in c)
    assert D > 0 and math.gcd(X, Y, Z, D) == 1


def test_integer_kernel_matches_fractions(markov_B, minimal_B):
    """The integer twist kernel and kappa against the Fraction formulas."""
    rng = random.Random(6)
    cases = [(markov_B, TracePoint(0, 0, 2)), (markov_B, TracePoint(1, -1, 0))]
    cases += [(minimal_B, MINIMAL_SURFACE_POINT), (minimal_B, TracePoint(0, 0, 0))]
    for _ in range(150):
        B, p = rand_boundary(rng), rand_point(rng)
        # Taller points, off the surface: a random word raises the heights.
        word = TwistWord.parse("".join(rng.choice("XYZxyz") for _ in range(rng.randrange(6))))
        cases.append((B, apply_word(B, p, word)))
    for B, p in cases:
        b, c = B._integer_form, _to_integers(p)
        _assert_canonical(c)
        assert _from_integers(c) == p
        assert kappa(B, p) == _kappa_by_hand(B, p)
        for axis in Axis:
            image = _twist_exact(b, c, (_CYCLE[axis],))
            _assert_canonical(image)
            assert _from_integers(image) == vieta_involution(B, p, axis) == _vieta_by_hand(B, p, axis)
        for g in GENERATORS:
            image = _twist_exact(b, c, _STEPS[g])
            _assert_canonical(image)
            first, second = TWIST_FACTORS[g.axis][:: g.power]
            by_hand = _vieta_by_hand(B, _vieta_by_hand(B, p, first), second)
            assert _from_integers(image) == apply_generator(B, p, g) == by_hand
            assert kappa(B, by_hand) == _kappa_by_hand(B, by_hand) == _kappa_by_hand(B, p)


def test_exact_orbit_matches_fraction_bfs(minimal_B, exceptional_B):
    """enumerate_orbit against a breadth-first search on Fraction points."""
    for B, p0, budget in ((minimal_B, MINIMAL_SURFACE_POINT, 300), (exceptional_B, TracePoint(-1, 0, 0), 10)):
        words, queue = {p0: ""}, [p0]
        for p in queue:
            for g in GENERATORS:
                first, second = TWIST_FACTORS[g.axis][:: g.power]
                image = _vieta_by_hand(B, _vieta_by_hand(B, p, first), second)
                if image not in words and len(words) < budget:
                    words[image] = words[p] + g.letter
                    queue.append(image)
        result = enumerate_orbit(B, p0, budget, log_words=True)
        assert result.points == set(words)
        assert list(result.words.items()) == list(words.items())


# No deadline: exact heights grow exponentially with word length, so one
# 16-letter example can take 0.3 s (187k-bit denominators) and another 1 ms.
@settings(max_examples=50, deadline=None)
@given(boundary_tuples, point_tuples, st.text(alphabet="XYZxyz", max_size=8), st.text(alphabet="XYZxyz", max_size=8))
def test_word_group_law(traces, coords, w1, w2):
    B = BoundaryTraces(*traces)
    p = TracePoint(*coords)
    word1, word2 = TwistWord.parse(w1), TwistWord.parse(w2)
    assert apply_word(B, p, word1 * word2) == apply_word(B, apply_word(B, p, word1), word2)


def test_word_utilities():
    w = TwistWord.parse("XxYzZy")
    assert str(w) == "XxYzZy"
    assert str(w.free_reduce()) == ""
    assert str(TwistWord.parse("XY").inverse()) == "yx"
    with pytest.raises(ValueError):
        TwistWord.parse("Q")


def test_rotation_angle_examples():
    assert rotation_angle(0) == pytest.approx(math.pi)
    assert rotation_angle(1) == pytest.approx(2 * math.pi / 3)
    assert rotation_angle(-1) == pytest.approx(4 * math.pi / 3)
    with pytest.raises(ValueError):
        rotation_angle(2)
    with pytest.raises(ValueError):
        rotation_angle(-2.5)


def test_rotation_frame_markov(markov_B):
    B = markov_B.to_float()
    p = TracePoint(0.0, 0.0, 2.0)
    f0 = to_rotation_frame(B, p, Axis.X)
    assert f0.radius == pytest.approx(2.0)
    p1 = apply_generator(B, p, TwistGenerator(Axis.X))
    f1 = to_rotation_frame(B, p1, Axis.X)
    assert f1.radius == pytest.approx(f0.radius)
    step = (f1.angle - f0.angle) % (2 * math.pi)
    assert step == pytest.approx(math.pi)  # rotation_angle(0)


def test_rotation_frame_radius_squared_is_rhs(minimal_B):
    B = minimal_B.to_float()
    for p in surface_sample(B, 6, 6):
        geom = level_set(B, Axis.X, p.x)
        frame = to_rotation_frame(B, p, Axis.X)
        assert frame.radius**2 == pytest.approx(geom.rhs, abs=1e-10)


def test_rotation_frame_conjugacy_all_axes(minimal_B, exceptional_B):
    for B in (minimal_B.to_float(), exceptional_B.to_float()):
        for p in surface_sample(B, 8, 8):
            for axis in Axis:
                level = p.coord(axis)
                if abs(level) >= 2 or level_set(B, axis, level).rhs <= 1e-10:
                    continue
                f0 = to_rotation_frame(B, p, axis)
                if f0.radius < 1e-6:
                    continue
                f1 = to_rotation_frame(
                    B, apply_generator(B, p, TwistGenerator(axis)), axis
                )
                assert abs(f1.radius - f0.radius) <= 1e-8
                step = (f1.angle - f0.angle) % (2 * math.pi)
                theta = rotation_angle(level)
                assert min(abs(step - theta), abs(step - (2 * math.pi - theta))) <= 1e-8


def test_rotation_frame_fixed_point(exceptional_B):
    B = exceptional_B.to_float()
    frame = to_rotation_frame(B, TracePoint(-1.0, 0.0, 0.0), Axis.X)
    assert frame.radius == pytest.approx(0.0, abs=1e-12)


def test_rotation_frame_errors(exceptional_B):
    # exact input is converted at the edge, not refused
    exact = to_rotation_frame(exceptional_B, TracePoint(-1, 0, 0), Axis.X)
    assert exact == to_rotation_frame(exceptional_B.to_float(), TracePoint(-1.0, 0.0, 0.0), Axis.X)
    with pytest.raises(ValueError):
        to_rotation_frame(exceptional_B.to_float(), TracePoint(-0.5, 0.0, 0.0), Axis.X)


def test_generator_validation():
    with pytest.raises(ValueError):
        TwistGenerator(Axis.X, 2)
    with pytest.raises(ValueError):
        TwistGenerator.from_letter("w")
    g = TwistGenerator.from_letter("y")
    assert g.axis is Axis.Y and g.power == -1 and g.letter == "y"
