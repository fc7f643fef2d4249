import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import tracetwist.surface
from tracetwist import (
    EXACT,
    FLOAT,
    GENERATORS,
    Axis,
    BoundaryTraces,
    ComponentClass,
    MixedModeError,
    NeedsFloatModeError,
    TracePoint,
    apply_generator,
    classify,
    enumerate_orbit,
    kappa,
    level_range,
    level_set,
    lift_to_surface,
    surface_sample,
)
from tracetwist.scalars import unify
from conftest import MINIMAL_SURFACE_POINT, rand_boundary, rand_fraction

boundary_fractions = st.fractions(
    min_value=Fraction(-2), max_value=Fraction(2), max_denominator=12
).filter(lambda f: abs(f) < 2)
point_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=20
)


# Everything TracePoint may be handed: ints and bools promote, the rest pass or fail.
point_inputs = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    point_fractions,
    st.floats(allow_nan=False),
    st.just("1/2"),
)
dyadics = st.builds(
    lambda n, k: Fraction(n, 2**k), st.integers(-(2**20), 2**20), st.integers(0, 30)
)


@given(point_inputs, point_inputs, point_inputs)
def test_trace_point_construction_matches_unify(x, y, z):
    try:
        mode, expected = unify(x, y, z)
    except TypeError as exc:  # MixedModeError included
        with pytest.raises(TypeError) as info:
            TracePoint(x, y, z)
        assert type(info.value) is type(exc)
        return
    p = TracePoint(x, y, z)
    assert p.as_tuple() == expected
    assert [type(v) for v in p.as_tuple()] == [type(v) for v in expected]
    assert p.mode == mode


@given(dyadics, dyadics, dyadics)
def test_exact_and_float_points_with_equal_values_are_equal(x, y, z):
    exact, approx = TracePoint(x, y, z), TracePoint(float(x), float(y), float(z))
    assert (exact.mode, approx.mode) == (EXACT, FLOAT)
    assert exact == approx
    assert hash(exact) == hash(approx)


def test_kernel_points_are_not_revalidated(monkeypatch, minimal_B):
    """Kernel points and boundary traces are uniform already; only the API edge validates."""
    Bf, pf = minimal_B.to_float(), MINIMAL_SURFACE_POINT.to_float()
    calls = []

    def counting_unify(*values):
        calls.append(values)
        return unify(*values)

    monkeypatch.setattr(tracetwist.surface, "unify", counting_unify)
    exact = enumerate_orbit(minimal_B, MINIMAL_SURFACE_POINT, 200)
    approx = enumerate_orbit(Bf, pf, 200)
    for g in GENERATORS:
        apply_generator(minimal_B, MINIMAL_SURFACE_POINT, g)
        apply_generator(Bf, pf, g)
    assert kappa(minimal_B, MINIMAL_SURFACE_POINT) == 0
    assert abs(kappa(Bf, pf)) <= 1e-9
    for axis in Axis:
        assert classify(minimal_B, axis)[0] is classify(Bf, axis)[0]
    assert calls == []
    assert exact.cardinality == approx.cardinality == 200


def test_kappa_examples(exceptional_B, markov_B):
    assert kappa(markov_B, TracePoint(0, 0, 2)) == 0
    assert kappa(markov_B, TracePoint(0, 0, 0)) == -4
    assert kappa(exceptional_B, TracePoint(-1, 0, 0)) == 0


def test_kappa_rejects_mixed_modes(markov_B):
    with pytest.raises(MixedModeError):
        kappa(markov_B, TracePoint(0.0, 0.0, 2.0))


def test_boundary_traces_validation():
    with pytest.raises(ValueError, match=r"^a = 2 must lie strictly in \(-2, 2\)$"):
        BoundaryTraces(2, 0, 0, 0)
    with pytest.raises(ValueError):
        BoundaryTraces(0.0, 0.0, -2.0, 0.0)
    with pytest.raises(MixedModeError):
        BoundaryTraces(Fraction(1, 2), 0.5, 0, 0)


@pytest.mark.parametrize(
    "build, name, side",
    [
        (lambda: BoundaryTraces(2 + Fraction(1, 10**5000), 0, 0, 0), "a", "above 2"),
        (lambda: BoundaryTraces(0, 0, 0, -Fraction(10**400)), "d", "below -2"),
        (lambda: level_set(BoundaryTraces(0, 0, 0, 0), Axis.X, Fraction(10**5000)), "level",
         "above 2"),
    ],
    ids=["digits-beyond-the-str-limit", "401-digits", "level"],
)
def test_range_error_names_the_side_of_a_huge_value(build, name, side):
    # str() of the value raised past Python's int-to-str digit limit, or
    # printed every digit
    with pytest.raises(ValueError) as exc:
        build()
    message = str(exc.value)
    assert message == f"{name} is {side} and must lie strictly in (-2, 2)"
    assert len(message) < 200


# Denominators up to about 10**12, pairwise coprime when drawn from the
# sampled prime powers, and numerators that reach within 3/d of +-2.
_WIDE_DENOMINATORS = st.one_of(
    st.integers(1, 10**12),
    st.sampled_from([999_999_999_989, 2**40, 3**25, 5**17, 7**14, 11**11]),
)
wide_boundary_fractions = _WIDE_DENOMINATORS.flatmap(
    lambda d: st.one_of(
        st.integers(-2 * d + 1, 2 * d - 1),
        st.integers(1, 3).map(lambda k: 2 * d - k),
        st.integers(1, 3).map(lambda k: k - 2 * d),
    ).map(lambda n: Fraction(n, d))
)
any_boundary_fractions = st.one_of(boundary_fractions, wide_boundary_fractions)


@given(any_boundary_fractions, any_boundary_fractions, any_boundary_fractions,
       any_boundary_fractions)
def test_sigma_recompute_invariance(a, b, c, d):
    B = BoundaryTraces(a, b, c, d)
    invariants = (a * b + c * d, a * d + b * c, a * c + b * d,
                  a * a + b * b + c * c + d * d + a * b * c * d - 4)
    assert (B.sigma_x, B.sigma_y, B.sigma_z, B.s_const) == invariants
    assert all(type(v) is Fraction for v in (B.sigma_x, B.sigma_y, B.sigma_z, B.s_const))
    assert all(-8 < s < 8 for s in (B.sigma_x, B.sigma_y, B.sigma_z))
    # An instance carrying the plain Fraction formula: eq, hash and repr agree.
    reference = object.__new__(BoundaryTraces)
    names = ("a", "b", "c", "d", "sigma_x", "sigma_y", "sigma_z", "s_const")
    for name, v in zip(names, (a, b, c, d, *invariants)):
        object.__setattr__(reference, name, v)
    assert B == reference and hash(B) == hash(reference) and repr(B) == repr(reference)
    # The integer form is the least common denominator of the reduced invariants.
    E = math.lcm(*(v.denominator for v in invariants))
    assert B._integer_form == (E, *(v.numerator * (E // v.denominator) for v in invariants))
    # Float mode keeps its expressions, so its doubles are bit-identical.
    af, bf, cf, df = map(float, (a, b, c, d))
    Bf = B.to_float()
    expected = (af * bf + cf * df, af * df + bf * cf, af * cf + bf * df,
                af * af + bf * bf + cf * cf + df * df + af * bf * cf * df - 4)
    got = (Bf.sigma_x, Bf.sigma_y, Bf.sigma_z, Bf.s_const)
    assert [v.hex() for v in got] == [v.hex() for v in expected]


_NEAR_TWO = 2 - Fraction(1, 10**40)


@pytest.mark.parametrize(
    "value, message",
    [
        (Fraction(2), "a = 2 must lie strictly in (-2, 2)"),
        (Fraction(-4, 2), "a = -2 must lie strictly in (-2, 2)"),
        (2, "a = 2 must lie strictly in (-2, 2)"),
        (-2, "a = -2 must lie strictly in (-2, 2)"),
        (3, "a = 3 must lie strictly in (-2, 2)"),
        (4 - _NEAR_TWO, "a is above 2 and must lie strictly in (-2, 2)"),
        (_NEAR_TWO, None),
        (-_NEAR_TWO, None),
        (1, None),
        (True, None),
        (False, None),
        (2.0, "a = 2.0 must lie strictly in (-2, 2)"),
        (-2.0, "a = -2.0 must lie strictly in (-2, 2)"),
        (math.nan, "a = nan must lie strictly in (-2, 2)"),
        (math.inf, "a = inf must lie strictly in (-2, 2)"),
        (-math.inf, "a = -inf must lie strictly in (-2, 2)"),
        (math.nextafter(2.0, 0.0), None),
    ],
)
def test_open_range_rule(value, message):
    # Exact values are decided on integers, |n| < 2d; floats by -2 < v < 2.
    zero = 0.0 if isinstance(value, float) else 0
    B0 = BoundaryTraces(zero, zero, zero, zero)
    if message is None:
        B = BoundaryTraces(value, zero, zero, zero)
        assert B.a == value and type(B.a) is type(B0.a)
        assert level_set(B0, Axis.X, value).level == value
        return
    with pytest.raises(ValueError) as exc:
        BoundaryTraces(value, zero, zero, zero)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        level_set(B0, Axis.X, value)
    assert str(exc.value) == "level" + message[1:]


def test_classify_exceptional(exceptional_B):
    component, S = classify(exceptional_B)
    assert component is ComponentClass.SL2R_COMPACT
    assert S[0] == Fraction(-17, 16)
    assert S[1] == Fraction(-1)


def test_classify_markov(markov_B):
    component, S = classify(markov_B)
    assert component is ComponentClass.SU2
    assert S[0] == -2 and S[1] == 2


def test_classify_degenerate():
    # Intervals [a^2-2, 2] and [-2, 2-c^2] touch exactly when a^2+c^2 = 4.
    B = BoundaryTraces(Fraction(6, 5), Fraction(6, 5), Fraction(8, 5), Fraction(-8, 5))
    component, S = classify(B)
    assert component is ComponentClass.DEGENERATE
    assert S is None


def test_classify_float_mode(exceptional_B):
    component, S = classify(exceptional_B.to_float())
    assert component is ComponentClass.SL2R_COMPACT
    assert S[0] == pytest.approx(-17 / 16)


def test_level_set_markov_origin(markov_B):
    geom = level_set(markov_B, Axis.X, Fraction(0))
    assert geom.weight_sum == Fraction(1, 2)
    assert geom.weight_diff == Fraction(1, 2)
    assert geom.center_sum == 0 and geom.center_diff == 0
    assert geom.rhs == 4


def test_level_set_single_point_slice(exceptional_B):
    # x = -1 is an endpoint of S: the slice degenerates to the fixed point
    # (y, z) = (0, 0), i.e. rhs = 0 (direct evaluation of the quadratics).
    geom = level_set(exceptional_B, Axis.X, Fraction(-1))
    assert geom.rhs == 0
    assert geom.is_point and not geom.is_ellipse
    assert geom.center_sum == 0 and geom.center_diff == 0


def test_level_set_empty_slice(exceptional_B):
    geom = level_set(exceptional_B, Axis.X, Fraction(-1, 2))
    assert geom.is_empty


def test_level_set_rejects_boundary_levels(markov_B):
    with pytest.raises(ValueError):
        level_set(markov_B, Axis.X, Fraction(2))
    with pytest.raises(ValueError):
        level_set(markov_B, Axis.Y, Fraction(-5, 2))


@given(
    st.tuples(boundary_fractions, boundary_fractions, boundary_fractions, boundary_fractions),
    st.tuples(point_fractions, point_fractions, point_fractions),
    st.sampled_from(list(Axis)),
)
def test_slice_form_equals_kappa_exactly(traces, coords, axis):
    """The conic slice residual agrees with kappa identically, on all axes.

    This pins down the cyclic center formulas for the y- and z-slices,
    which are only determined up to the boundary-trace permutation.
    """
    B = BoundaryTraces(*traces)
    p = TracePoint(*coords)
    level = p.coord(axis)
    if abs(level) >= 2:
        return
    geom = level_set(B, axis, level)
    assert geom.residual(p) == kappa(B, p)


def test_slice_consistency_on_float_samples(minimal_B):
    rng = random.Random(5)
    checked = 0
    for _ in range(1000):
        B = rand_boundary(rng).to_float()
        component, S = classify(B)
        if S is None:
            continue
        lo, hi = float(S[0]), float(S[1])
        level = lo + (hi - lo) * rng.random()
        geom = level_set(B, Axis.X, level)
        if not geom.is_ellipse:
            continue
        p = geom.point_at_angle(rng.random() * 2 * math.pi)
        assert abs(kappa(B, p)) <= 1e-9
        assert abs(geom.residual(p)) <= 1e-8
        checked += 1
    assert checked >= 800


def test_trace_pairs_per_axis():
    a, b, c, d = Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5), Fraction(3, 7)
    B = BoundaryTraces(a, b, c, d)
    assert B.trace_pairs(Axis.X) == ((a, b), (c, d))
    assert B.trace_pairs(Axis.Y) == ((a, d), (b, c))
    assert B.trace_pairs(Axis.Z) == ((a, c), (d, b))


@pytest.mark.parametrize("axis", list(Axis))
def test_point_at_angle_places_level_and_moving_coords(minimal_B, axis):
    B = minimal_B.to_float()
    lo, hi = level_range(B, axis)
    geom = level_set(B, axis, (lo + 2 * hi) / 3)
    a_sum, a_diff = geom.semi_axes()
    for phi in (0.0, 0.4, 2.0, 4.5):
        p = geom.point_at_angle(phi)
        s = geom.center_sum + a_sum * math.cos(phi)
        d = geom.center_diff + a_diff * math.sin(phi)
        assert p.coord(axis) == geom.level
        assert p.moving_coords(axis) == ((s + d) / 2, (s - d) / 2)
        assert abs(kappa(B, p)) <= 1e-9


def test_interval_realism(exceptional_B, minimal_B):
    for B in (exceptional_B, minimal_B):
        component, S = classify(B)
        lo, hi = float(S[0]), float(S[1])
        Bf = B.to_float()
        for i in range(50):
            inside = lo + (hi - lo) * (i + 0.5) / 50
            assert level_set(Bf, Axis.X, inside).rhs > 0
        for outside in [lo - 0.05, hi + 0.05]:
            if abs(outside) < 2:
                assert level_set(Bf, Axis.X, outside).rhs < 0


def test_lift_to_surface_examples(exceptional_B, markov_B):
    pts = lift_to_surface(exceptional_B, Fraction(-1), Fraction(0))
    assert [p.z for p in pts] == [0]  # double root
    pts = lift_to_surface(markov_B, Fraction(0), Fraction(0))
    assert sorted(p.z for p in pts) == [-2, 2]
    # discriminant sign by direct evaluation: 0 - 4*(9 - 4) < 0
    assert lift_to_surface(markov_B, Fraction(0), Fraction(3)) == []
    # while (3, 3) has discriminant 81 - 56 = 25 and two real lifts
    pts = lift_to_surface(markov_B, Fraction(3), Fraction(3))
    assert sorted(p.z for p in pts) == [-7, -2]
    assert all(kappa(markov_B, p) == 0 for p in pts)


def test_lift_root_sum_identity():
    rng = random.Random(11)
    for _ in range(200):
        B = rand_boundary(rng).to_float()
        x, y = float(rand_fraction(rng, 2)), float(rand_fraction(rng, 2))
        pts = lift_to_surface(B, x, y)
        for p in pts:
            assert abs(kappa(B, p)) <= 1e-9
        if len(pts) == 2:
            assert pts[0].z + pts[1].z == pytest.approx(B.sigma_z - x * y)


def test_lift_exact_irrational_needs_float(minimal_B):
    with pytest.raises(NeedsFloatModeError):
        lift_to_surface(minimal_B, Fraction(0), Fraction(0))


def test_surface_sample(exceptional_B, markov_B):
    pts = surface_sample(exceptional_B, 3, 4)
    assert len(pts) == 12
    Bf = exceptional_B.to_float()
    assert all(abs(kappa(Bf, p)) <= 1e-9 for p in pts)
    assert surface_sample(markov_B, 0, 5) == []
    # single slice of the all-zero surface: points on y^2 + z^2 = 4
    (p,) = surface_sample(markov_B, 1, 1)
    assert p.y**2 + p.z**2 + p.x * p.y * p.z == pytest.approx(4 - p.x**2)
    with pytest.raises(ValueError, match="sample counts must be nonnegative"):
        surface_sample(markov_B, -1, 3)


def test_empty_slice_has_no_semi_axes():
    # x = -9/5 lies outside the attainable interval of this su2 surface
    B = BoundaryTraces(Fraction(-7, 20), Fraction(7, 4), Fraction(-30, 17), Fraction(4, 3))
    geom = level_set(B, Axis.X, Fraction(-9, 5))
    assert geom.rhs < 0
    with pytest.raises(ValueError, match="empty level set has no axes"):
        geom.semi_axes()


def test_surface_sample_degenerate_errors():
    B = BoundaryTraces(Fraction(6, 5), Fraction(6, 5), Fraction(8, 5), Fraction(-8, 5))
    with pytest.raises(ValueError):
        surface_sample(B, 3, 3)
