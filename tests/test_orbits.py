import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tracetwist import (
    AngleFraction,
    Axis,
    BoundaryTraces,
    ComponentClass,
    DensityReport,
    MixedModeError,
    N_of_epsilon,
    Surd,
    TracePoint,
    TwistGenerator,
    TwistWord,
    apply_generator,
    apply_word,
    box_distance,
    classify,
    density_scan,
    enumerate_orbit,
    epsilon_density_on_level,
    exceptional_family,
    filtration,
    is_in_F,
    kappa,
    level_range,
    level_set,
    lift_to_surface,
    minimality_criterion,
    rational_angle_of,
    to_rotation_frame,
    twist_period,
)
from tracetwist.orbits import _box_neighbours
from tracetwist.twists import GENERATORS
from conftest import MINIMAL_SURFACE_POINT, rand_boundary


def test_box_distance_examples():
    assert box_distance(TracePoint(0, 0, 0), TracePoint(0, 0, 0)) == 0
    assert box_distance(
        TracePoint(-1, 0, 0), TracePoint(Fraction(-17, 16), 0, 0)
    ) == Fraction(1, 16)
    assert box_distance(TracePoint(1, 2, 3), TracePoint(0, 0, 0)) == 3
    with pytest.raises(MixedModeError):
        box_distance(TracePoint(0, 0, 0), TracePoint(0.0, 0.0, 0.0))


def test_enumerate_orbit_special(exceptional_B):
    result = enumerate_orbit(exceptional_B, TracePoint(-1, 0, 0), 10_000)
    assert result.is_finite and result.cardinality == 2
    assert result.points == {
        TracePoint(-1, 0, 0),
        TracePoint(Fraction(-17, 16), 0, 0),
    }


def test_enumerate_orbit_closure_reverified(exceptional_B):
    result = enumerate_orbit(exceptional_B, TracePoint(-1, 0, 0), 10_000)
    for p in result.points:
        for g in GENERATORS:
            assert apply_generator(exceptional_B, p, g) in result.points


def test_enumerate_orbit_global_fixed_point(markov_B):
    # (0,0,0) is fixed by every generator when all sigmas vanish.
    result = enumerate_orbit(markov_B, TracePoint(0, 0, 0), 100)
    assert result.is_finite and result.cardinality == 1


def test_enumerate_orbit_truncates_on_dense_instance(minimal_B):
    result = enumerate_orbit(minimal_B, MINIMAL_SURFACE_POINT, 1000)
    assert result.status == "truncated"
    assert result.cardinality == 1000


def test_enumerate_orbit_word_log(exceptional_B):
    result = enumerate_orbit(exceptional_B, TracePoint(-1, 0, 0), 100, log_words=True)
    for point, word in result.words.items():
        assert apply_word(exceptional_B, TracePoint(-1, 0, 0), TwistWord.parse(word)) == point


def test_enumerate_orbit_budget_validation(exceptional_B):
    with pytest.raises(ValueError):
        enumerate_orbit(exceptional_B, TracePoint(-1, 0, 0), 0)


def test_enumerate_orbit_float_never_certifies(exceptional_B):
    result = enumerate_orbit(
        exceptional_B.to_float(), TracePoint(-1.0, 0.0, 0.0), 1000
    )
    assert result.status == "truncated"
    assert result.cardinality == 2


def test_filtration_paper_sets():
    assert filtration(2).elements == {AngleFraction(1, 2)}
    assert filtration(3).elements == {
        AngleFraction(1, 2), AngleFraction(1, 3), AngleFraction(2, 3)
    }
    assert filtration(4).elements == filtration(3).elements | {
        AngleFraction(1, 4), AngleFraction(3, 4)
    }
    golden = (1 + math.sqrt(5)) / 2
    expected5 = sorted([0, 1, -1, math.sqrt(2), -math.sqrt(2), golden, -golden,
                        golden - 1, 1 - golden])
    assert filtration(5).values() == pytest.approx(expected5, abs=1e-12)
    expected6 = sorted(expected5 + [math.sqrt(3), -math.sqrt(3)])
    assert filtration(6).values() == pytest.approx(expected6, abs=1e-12)


def test_filtration_nesting_and_errors():
    for n in range(2, 9):
        assert filtration(n).elements <= filtration(n + 1).elements
    with pytest.raises(ValueError):
        filtration(1)


def test_filtration_matches_brute_force():
    for n in range(2, 13):
        pairs = [(p, q) for q in range(2, n + 1) for p in range(1, q)]
        expected = {AngleFraction(p, q) for p, q in pairs if math.gcd(p, q) == 1}
        assert filtration(n).elements == expected


def test_rational_angle_of_float_picks_smallest_q_then_p():
    # brute force over every p/q, reduced or not: a non-reduced pair is
    # reached after its reduced form, which has the smaller q
    table = [(p, q, 2 * math.cos(math.pi * p / q)) for q in range(2, 65) for p in range(1, q)]

    def brute(level):
        return next((AngleFraction(p, q) for p, q, v in table if abs(level - v) <= 1e-9), None)

    for p, q, v in table:
        if math.gcd(p, q) != 1:
            continue
        for level in (v - 1e-10, v + 1e-10):
            assert rational_angle_of(level, 64) == brute(level) == AngleFraction(p, q)


def test_rational_angle_of_exact():
    assert rational_angle_of(Fraction(1)) == AngleFraction(1, 3)
    assert rational_angle_of(Fraction(0)) == AngleFraction(1, 2)
    assert rational_angle_of(Fraction(-1)) == AngleFraction(2, 3)
    assert rational_angle_of(Fraction(7, 4)) is None
    with pytest.raises(ValueError):
        rational_angle_of(Fraction(2))


def test_rational_angle_of_angle_provenance():
    assert rational_angle_of(AngleFraction(1, 4)) == AngleFraction(1, 4)
    # angles in (pi, 2pi) fold to their mirror with the same trace
    assert rational_angle_of(AngleFraction(7, 4)) == AngleFraction(1, 4)
    with pytest.raises(ValueError):
        rational_angle_of(AngleFraction(0, 1))


def test_rational_angle_of_float():
    assert rational_angle_of(math.sqrt(2), 8) == AngleFraction(1, 4)
    assert rational_angle_of(2 * math.cos(math.pi * 5 / 7), 16) == AngleFraction(5, 7)
    assert rational_angle_of(0.7734, 64) is None


def test_twist_period_exact(markov_B):
    # level 1 on the all-zero surface: period 3, verified exactly
    assert twist_period(markov_B, TracePoint(1, 1, 1), Axis.X) == 3
    # level 0: period 2
    assert twist_period(markov_B, TracePoint(0, 0, 2), Axis.Y) == 2


def test_twist_period_irrational_level(minimal_B):
    assert twist_period(minimal_B, MINIMAL_SURFACE_POINT, Axis.X) is None


def test_twist_period_float_sqrt2(markov_B):
    B = markov_B.to_float()
    level = math.sqrt(2)
    p = level_set(B, Axis.Y, level).point_at_angle(0.4)
    assert twist_period(B, p, Axis.Y, max_q=8) == 4


def test_twist_period_float_none_is_only_no_match_up_to_max_q():
    # float None certifies nothing: the period 65 lies beyond the default max_q
    B = BoundaryTraces(0.0, 0.0, 0.0, 0.0)
    p = lift_to_surface(B, 2 * math.cos(math.pi / 65), 0.1)[0]
    assert twist_period(B, p, Axis.X) is None
    assert twist_period(B, p, Axis.X, max_q=70) == 65


def test_twist_period_fixed_point_rejected(exceptional_B):
    with pytest.raises(ValueError):
        twist_period(exceptional_B, TracePoint(-1, 0, 0), Axis.X)
    with pytest.raises(ValueError):
        twist_period(exceptional_B.to_float(), TracePoint(-1.0, 0.0, 0.0), Axis.X)


def test_twist_period_mixed_modes_rejected(markov_B):
    with pytest.raises(MixedModeError, match="exact-mode but point is float-mode"):
        twist_period(markov_B, TracePoint(1.0, 1.0, 1.0), Axis.X)


def test_filtration_consistency(markov_B):
    # every filtration level q <= 6 gives twist period exactly q on a
    # generic slice point of the all-zero surface
    B = markov_B.to_float()
    for angle in filtration(6).elements:
        level = angle.two_cos()
        p = level_set(B, Axis.Y, level).point_at_angle(0.35)
        assert twist_period(B, p, Axis.Y, max_q=6) == angle.q


def _slice_orbit(B, axis, level, count):
    p = level_set(B, axis, level).point_at_angle(0.3)
    out = [p]
    g = TwistGenerator(axis, 1)
    for _ in range(count - 1):
        p = apply_generator(B, p, g)
        out.append(p)
    return out


def test_epsilon_density_irrational_rotation(markov_B):
    B = markov_B.to_float()
    level = 2 * math.cos(1.0)  # irrational rotation number
    orbit = _slice_orbit(B, Axis.Y, level, 10_000)
    assert epsilon_density_on_level(markov_B, orbit, Axis.Y, level, 0.1)


def test_epsilon_density_period_two_fails(markov_B):
    B = markov_B.to_float()
    orbit = _slice_orbit(B, Axis.Y, 0.0, 2)
    assert not epsilon_density_on_level(markov_B, orbit, Axis.Y, 0.0, 0.01)


def test_epsilon_density_huge_eps(markov_B):
    B = markov_B.to_float()
    orbit = _slice_orbit(B, Axis.Y, 0.0, 2)
    assert epsilon_density_on_level(markov_B, orbit, Axis.Y, 0.0, 100.0)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            epsilon_density_on_level(markov_B, orbit, Axis.Y, 0.0, eps)


def test_epsilon_density_orbit_point_on_a_grid_point(markov_B):
    # the reference grid starts at angle 0; an orbit point exactly there
    # used to be skipped as if it were the grid point itself
    point = level_set(markov_B.to_float(), Axis.Y, 0.0).point_at_angle(0.0)
    assert epsilon_density_on_level(markov_B, [point], Axis.Y, 0.0, 100.0)


def test_epsilon_density_degenerate_errors(exceptional_B):
    with pytest.raises(ValueError):
        epsilon_density_on_level(
            exceptional_B, [TracePoint(0.0, 0.0, 0.0)], Axis.X, -0.5, 0.1
        )


def test_N_of_epsilon_bounds(markov_B):
    big = N_of_epsilon(markov_B, 1000.0)
    assert big == 2  # eps beyond any circumference: tiny constant
    n1 = N_of_epsilon(markov_B, 0.2)
    n2 = N_of_epsilon(markov_B, 0.1)
    assert n2 <= 2 * n1 + 1
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            N_of_epsilon(markov_B, eps)


def test_N_of_epsilon_is_the_proved_threshold(markov_B, minimal_B):
    # pi * (|S_y| + |S_z|) / eps with S = (-2, 2) on every axis
    assert N_of_epsilon(markov_B, 0.1) == math.ceil(math.pi * 8 / 0.1) + 1 == 253
    for B in (minimal_B, BoundaryTraces(1, 1, Fraction(7, 4), Fraction(-7, 4))):
        widths = [hi - lo for lo, hi in (level_range(B, axis) for axis in Axis)]
        for eps in (0.5, 0.1, 0.013):
            expected = math.ceil(math.pi * (sum(widths) - min(widths)) / eps) + 1
            assert N_of_epsilon(B, eps) == expected


def _seeded_non_degenerate(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        B = rand_boundary(rng)
        if all(classify(B, axis)[1] is not None for axis in Axis):
            out.append(B)
    return out


def test_slice_semi_axes_within_moving_ranges():
    # step 3 of the N_of_epsilon proof: A + D <= |S_1| + |S_2|
    checked = 0
    for B in _seeded_non_degenerate(31, 25):
        Bf = B.to_float()
        widths = {axis: hi - lo for axis, (lo, hi) in ((a, level_range(B, a)) for a in Axis)}
        for axis in Axis:
            bound = sum(w for other, w in widths.items() if other is not axis)
            lo, hi = level_range(B, axis)
            for i in range(40):
                geom = level_set(Bf, axis, lo + (hi - lo) * (i + 0.5) / 40)
                if geom.is_ellipse:
                    assert sum(geom.semi_axes()) <= bound
                    checked += 1
    assert checked > 2000


def _first_levels_above(B, axis, N: int, count: int):
    """(q, 2cos(pi p/q)) for the first `count` periods q > N with a level inside S."""
    lo, hi = level_range(B, axis)
    margin = 0.02 * (hi - lo)
    out = []
    q = N
    while len(out) < count:
        q += 1
        p = next((p for p in range(1, q) if math.gcd(p, q) == 1
                  and lo + margin < 2 * math.cos(math.pi * p / q) < hi - margin), None)
        if p is not None:
            out.append((q, 2 * math.cos(math.pi * p / q)))
    return out


@pytest.mark.parametrize("eps", [0.5, 0.2])
def test_N_of_epsilon_neighbour_gaps_below_eps(markov_B, minimal_B, eps):
    # every gap between neighbours in angle of a period-q slice orbit, q > N
    instances = [markov_B, minimal_B, *_seeded_non_degenerate(8, 3)]
    for B in instances:
        Bf = B.to_float()
        N = N_of_epsilon(B, eps)
        for axis in Axis:
            for q, level in _first_levels_above(Bf, axis, N, 2):
                orbit = _slice_orbit(Bf, axis, level, q)
                orbit.sort(key=lambda pt: to_rotation_frame(Bf, pt, axis).angle)
                gaps = [box_distance(u, v) for u, v in zip(orbit, orbit[1:] + orbit[:1])]
                assert max(gaps) < eps


def test_N_of_epsilon_guarantee(markov_B):
    eps = 0.25
    N = N_of_epsilon(markov_B, eps)
    B = markov_B.to_float()
    for q in (N + 1, N + 7):
        p = max(k for k in range(1, q) if math.gcd(k, q) == 1)
        level = 2 * math.cos(math.pi * p / q)
        orbit = _slice_orbit(B, Axis.X, level, q)
        assert epsilon_density_on_level(markov_B, orbit, Axis.X, level, eps)


def test_minimality_criterion(minimal_B, markov_B):
    assert minimality_criterion(minimal_B)
    assert not minimality_criterion(BoundaryTraces(1, 1, 1, 1))
    assert not minimality_criterion(markov_B)


def test_minimality_criterion_admits_a_finite_orbit():
    # the criterion is no density theorem: it holds here, yet (1, 1, 1) lies
    # on the surface, inside S_x, and its orbit is a certified 4-point set
    B = BoundaryTraces(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0)
    p = TracePoint(1, 1, 1)
    assert minimality_criterion(B)
    assert kappa(B, p) == 0
    component, (lo, hi) = classify(B)
    assert component == ComponentClass.SU2
    assert lo == Surd(Fraction(-7, 4)) and hi == Surd(0, Fraction(1, 2), 15)
    assert lo < p.x < hi
    result = enumerate_orbit(B, p, 100)
    assert result.is_finite
    m = Fraction(-7, 4)
    assert result.points == {p, TracePoint(m, 1, 1), TracePoint(1, m, 1), TracePoint(1, 1, m)}


def test_exceptional_family_example(exceptional_B):
    B, orbit = exceptional_family(Fraction(1), Fraction(7, 4))
    assert B == exceptional_B
    assert orbit == {TracePoint(-1, 0, 0), TracePoint(Fraction(-17, 16), 0, 0)}


def test_exceptional_family_conditions():
    with pytest.raises(ValueError):
        exceptional_family(Fraction(1), Fraction(1))  # a^2 + c^2 <= 4
    with pytest.raises(ValueError):
        exceptional_family(Fraction(5, 2), Fraction(1))  # out of range


def test_exceptional_family_closure_random():
    # is_in_F is the one rule: exceptional_family returns exactly on F and
    # refuses every other pair with ValueError
    rng = random.Random(9)
    for _ in range(20):
        a = Fraction(rng.randint(-19, 19), 10)
        c = Fraction(rng.randint(-19, 19), 10)
        in_F = is_in_F(a, c)
        assert in_F == (a * a + c * c > 4 and not (a in (0, 1, -1) and c in (0, 1, -1)))
        if in_F:
            B, orbit = exceptional_family(a, c)  # closure is verified internally
            assert len(orbit) == 2
        else:
            with pytest.raises(ValueError):
                exceptional_family(a, c)


@pytest.mark.parametrize("eps", [5e-324, 1e-310, 2.2250738585072014e-308 / 2])
def test_subnormal_eps_is_refused(markov_B, exceptional_B, eps):
    # eps/10 would underflow the dedup grid to 0.0, and 1/eps overflow to inf.
    orbit = _slice_orbit(markov_B.to_float(), Axis.Y, 0.0, 2)
    calls = (
        lambda: density_scan(exceptional_B, TracePoint(-1.0, 0.0, 0.0), eps=eps, budget=100),
        lambda: epsilon_density_on_level(markov_B, orbit, Axis.Y, 0.0, eps),
        lambda: N_of_epsilon(markov_B, eps),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^eps must be at least .* \(a normal double\)"):
            call()


def test_density_scan_exceptional_stays_put(exceptional_B):
    report = density_scan(
        exceptional_B, TracePoint(-1.0, 0.0, 0.0), eps=0.01, budget=20_000
    )
    assert report.orbit_size == 2
    assert not report.truncated
    assert report.covered_fraction < 0.2


def test_density_scan_minimal_covers(minimal_B):
    p0 = TracePoint(float(MINIMAL_SURFACE_POINT.x), float(MINIMAL_SURFACE_POINT.y),
                    float(MINIMAL_SURFACE_POINT.z))
    report = density_scan(minimal_B, p0, eps=0.2, budget=20_000, seed=1)
    assert report.covered_fraction == 1.0


def test_density_scan_deterministic(minimal_B):
    p0 = TracePoint(0.0, 0.5, -1.552052514523134)
    r1 = density_scan(minimal_B, p0, eps=0.15, budget=5000, seed=7)
    r2 = density_scan(minimal_B, p0, eps=0.15, budget=5000, seed=7)
    assert r1 == r2


@pytest.mark.parametrize(
    "eps, budget, grid, seed, expected",
    [
        (0.01, 100_000, (24, 24), 0, DensityReport(0.5434027777777778, True, 87_070, 576)),
        (0.003, 30_000, (40, 40), 9, DensityReport(0.01, True, 26_259, 1600)),
    ],
)
def test_density_scan_pins_a_partial_coverage(minimal_B, eps, budget, grid, seed, expected):
    # the README start, at radii the walk does not yet fill
    report = density_scan(
        minimal_B, TracePoint(0.0, 0.5, -1.55), eps=eps, budget=budget, grid=grid, seed=seed
    )
    assert report == expected


def test_density_scan_validation(minimal_B):
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            density_scan(minimal_B, TracePoint(0.0, 0.0, 0.0), eps=eps, budget=10)
    with pytest.raises(ValueError):
        density_scan(minimal_B, TracePoint(0.0, 0.0, 0.0), eps=0.1, budget=0)
    # an empty sample grid would be vacuously covered
    for grid in ((0, 12), (3, 0)):
        with pytest.raises(ValueError, match="sample grid"):
            density_scan(minimal_B, TracePoint(0.0, 0.5, -1.55), eps=0.1, budget=100, grid=grid)


def test_N_of_epsilon_markov_near_zero_slice(markov_B):
    # the classic instance: the near-zero slice is a round circle of radius 2
    eps = 0.1
    N = N_of_epsilon(markov_B, eps)
    q = N + 1
    p = next(k for k in range(q // 2, q) if math.gcd(k, q) == 1)
    level = 2 * math.cos(math.pi * p / q)  # just off the x = 0 circle
    assert abs(level) < 0.1
    orbit = _slice_orbit(markov_B.to_float(), Axis.X, level, q)
    assert epsilon_density_on_level(markov_B, orbit, Axis.X, level, eps)


def test_word_log_on_truncated_orbit(minimal_B):
    result = enumerate_orbit(minimal_B, MINIMAL_SURFACE_POINT, 40, log_words=True)
    assert result.status == "truncated"
    assert set(result.words) == result.points
    for point, word in result.words.items():
        regenerated = apply_word(minimal_B, MINIMAL_SURFACE_POINT, TwistWord.parse(word))
        assert regenerated == point


def test_float_word_log_regenerates_each_point(minimal_B):
    # the BFS and apply_word run the same float operations in the same order
    Bf = minimal_B.to_float()
    p0 = lift_to_surface(Bf, 0.0, 0.5)[0]
    result = enumerate_orbit(Bf, p0, 2000, log_words=True)
    assert set(result.words) == result.points
    for point, word in result.words.items():
        regenerated = apply_word(Bf, p0, TwistWord.parse(word))
        assert regenerated.as_tuple() == point.as_tuple()


_ANGLES = st.tuples(st.integers(-60, 60), st.integers(1, 30))


@given(_ANGLES, _ANGLES)
def test_angle_fraction_arithmetic_matches_fractions_mod_2(u, v):
    a, b = AngleFraction(*u), AngleFraction(*v)
    fa, fb = Fraction(*u) % 2, Fraction(*v) % 2
    assert (a.p, a.q) == (fa.numerator, fa.denominator)
    assert (a + b).fraction == (fa + fb) % 2
    assert (a - b).fraction == (fa - fb) % 2
    assert (-a).fraction == -fa % 2
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)


def test_angle_fraction_validation():
    with pytest.raises(ZeroDivisionError):
        AngleFraction(1, 0)
    assert AngleFraction(-1, 3) == AngleFraction(5, 3)
    assert AngleFraction(5, 3).trace_canonical() == AngleFraction(1, 3)
    assert hash(AngleFraction(7, 3)) == hash(AngleFraction(1, 3))
    assert AngleFraction(1, 2) != Fraction(1, 2)


def test_density_scan_eps_beyond_surface_diameter(exceptional_B):
    # the whole exceptional surface fits inside one 0.5-ball
    report = density_scan(exceptional_B, TracePoint(-1.0, 0.0, 0.0), eps=0.5, budget=2000)
    assert report.covered_fraction == 1.0


def test_box_index_finds_a_neighbour_across_two_cell_edges():
    # p is 0.10000000000006 from q in the box metric, two 0.1-wide cells
    # away, so a radius a hair above 0.1 must find it; cells exactly radius
    # wide used to miss it
    q = (0.1 * (1 - 0.25e-12), 0.05, 0.05)
    p = (q[0] + 0.1 * (1 + 0.6e-12), 0.05, 0.05)
    assert max(abs(a - b) for a, b in zip(p, q)) < 0.1 * (1 + 1e-12)
    assert _box_neighbours([p], 0.1 * (1 + 1e-12))(q)


@pytest.mark.parametrize("radius", [0.1, 1 / 3, 0.03, 2.5e-4])
def test_box_index_matches_brute_force_at_cell_edges(radius):
    # points and queries within a few ulps of cell edges, at distances within
    # a few ulps of the radius: the index must answer like a linear scan
    rng = random.Random(7)

    def near_edge():
        x = rng.randrange(-40, 40) * radius
        for _ in range(rng.randrange(8)):
            x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
        return x

    points = []
    for _ in range(300):
        base = (near_edge(), rng.uniform(-1, 1), rng.uniform(-1, 1))
        points.append(base)
        step = radius * (1 + rng.choice((-1, 1)) * rng.randrange(4) * 1e-15)
        points.append((base[0] + rng.choice((-1, 1)) * step, base[1], base[2]))
    near = _box_neighbours(points[1::2], radius)
    for q in points[::2]:
        brute = any(max(abs(a - b) for a, b in zip(q, pt)) < radius for pt in points[1::2])
        assert near(q) == brute
