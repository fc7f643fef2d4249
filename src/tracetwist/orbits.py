"""Orbit enumeration, period filtrations, and density testing.

The six twist generators act on trace space; an orbit is the closure of a
start point under all of them.  Exact mode certifies finite orbits (set
closure of exact rationals); float mode explores but never certifies.

A twist rotates its own level slice by ``2*acos(level/2)``, so the levels
with period <= n form the filtration {2*cos(pi*p/q) : q <= n}.  Rational
levels are periodic only for the three values 0, +-1 (the only rational
traces with rational rotation number); everything else rational rotates
irrationally and equidistributes, which is what the epsilon-density
machinery measures.

The module also carries the membership test for the exceptional boundary
family (a, a, c, -c): the checkable conditions are a^2 + c^2 > 4 and an
irrational boundary rotation number, the latter decided by Niven's
theorem.  Membership is an exact statement, so the test takes exact
traces only.
"""

from __future__ import annotations

import math
import random
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction

from .angles import AngleFraction, _reduced
from .scalars import (
    EXACT,
    MixedModeError,
    Scalar,
    TOL_GEOM,
    TOL_SURFACE,
    as_fraction,
    unify,
)
from .surface import (
    Axis,
    BoundaryTraces,
    TracePoint,
    _check_open_range,
    _from_integers,
    level_range,
    level_set,
    surface_sample,
)
from .twists import (
    GENERATORS, _STEPS, TwistGenerator, TwistWord, _carrier, apply_generator, apply_word,
)


def box_distance(p1: TracePoint, p2: TracePoint) -> Scalar:
    """Sup metric max(|dx|, |dy|, |dz|) on trace space."""
    if p1.mode != p2.mode:
        raise MixedModeError("box distance requires points in one numeric mode")
    return max(abs(p1.x - p2.x), abs(p1.y - p2.y), abs(p1.z - p2.z))


def _check_eps(eps: float) -> None:
    # NaN and infinity pass a plain eps <= 0 test.
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, not {eps}")
    if eps < sys.float_info.min:
        raise ValueError(
            f"eps must be at least {sys.float_info.min} (a normal double), not {eps}: "
            "below it eps/10 and 1/eps leave the double range"
        )


# Float dedup grid of enumerate_orbit; keep it far below any epsilon under test.
_SNAP = 1e-9


def _snap_key(c, snap: float) -> tuple[int, int, int]:
    """Float dedup key: the coordinate tuple c rounded to a grid of size snap."""
    return (round(c[0] / snap), round(c[1] / snap), round(c[2] / snap))


def _box_neighbours(points, radius: float):
    """Bucket float (x, y, z) tuples once; return the box-metric query ``near``.

    ``near(p)`` is true when some point lies strictly within ``radius`` of p,
    and it looks at the 27 cells around p.  The cells are slightly wider
    than ``radius``, so that a point closer than ``radius`` is at most one
    cell away even after the rounding in ``floor(x / cell)``; with cells
    exactly ``radius`` wide it can land two cells away and be missed.
    """
    cell = radius * (1 + 1e-6)

    def key(p) -> tuple[int, int, int]:
        return (math.floor(p[0] / cell), math.floor(p[1] / cell), math.floor(p[2] / cell))

    buckets = defaultdict(list)
    for p in points:
        buckets[key(p)].append(p)

    def near(p) -> bool:
        x, y, z = p
        kx, ky, kz = key(p)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for q in buckets.get((kx + dx, ky + dy, kz + dz), ()):
                        if max(abs(x - q[0]), abs(y - q[1]), abs(z - q[2])) < radius:
                            return True
        return False

    return near


@dataclass(frozen=True)
class OrbitResult:
    """Points reached by a traversal plus how it ended.

    ``finite`` status is only ever produced by exact-mode traversals whose
    queue drained: the point set is then exactly closed under all six
    generators.  Float traversals report ``truncated`` even when they stop
    growing, since snapped float equality certifies nothing.
    """

    points: frozenset[TracePoint]
    status: str
    words: dict | None = None

    @property
    def cardinality(self) -> int:
        return len(self.points)

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"


def enumerate_orbit(
    B: BoundaryTraces,
    p0: TracePoint,
    budget: int,
    log_words: bool = False,
) -> OrbitResult:
    """Breadth-first closure of p0 under all six twist generators.

    `budget` bounds the number of points retained.  Exact mode
    deduplicates by exact coordinates; float mode snaps coordinates to a
    grid of size 1e-9.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    exact, kernel, sigma, start = _carrier(B, p0)
    moves = [(g.letter, _STEPS[g]) for g in GENERATORS]

    # Dedup key -> kept coordinates; exact keys are the canonical integer forms.
    visited = {start if exact else _snap_key(start, _SNAP): start}
    words = {start: ""} if log_words else None
    queue = deque([start])
    truncated = False
    while queue and not truncated:
        c = queue.popleft()
        for letter, steps in moves:
            img = kernel(sigma, c, steps)
            k = img if exact else _snap_key(img, _SNAP)
            if k in visited:
                continue
            if len(visited) >= budget:
                truncated = True
                break
            visited[k] = img
            if words is not None:
                words[img] = words[c] + letter
            queue.append(img)

    # Build the points only now, dropping each carrier as its point is
    # built; `shared` gives equal exact coordinates one Fraction object.
    queue.clear()
    kept = list(visited.values())
    visited.clear()
    shared = {}
    for n, c in enumerate(kept):
        kept[n] = _from_integers(c, shared) if exact else TracePoint(*c)
    return OrbitResult(
        points=frozenset(kept),
        status="finite" if (not truncated and exact) else "truncated",
        words=dict(zip(kept, words.values())) if words is not None else None,
    )


@dataclass(frozen=True)
class FiltrationLevel:
    """Trace levels whose twist has period <= n: {2cos(pi p/q) : q <= n}."""

    n: int
    elements: frozenset[AngleFraction]

    def values(self) -> list[float]:
        return sorted(a.two_cos() for a in self.elements)


def filtration(n: int) -> FiltrationLevel:
    """Level sets of the twist-period function, as exact angle fractions.

    Desk-scale only: ``n <= 1000``.  The level grows like 3*n**2/pi**2
    (304,191 angles at n = 1000), and the CLI prints every one of them.

    >>> sorted(filtration(2).elements)
    [AngleFraction(1, 2)]
    >>> len(filtration(4).elements)
    5
    """
    if n < 2:
        raise ValueError("filtration starts at n = 2")
    if n > 1000:
        raise ValueError("filtration is desk-scale only: n <= 1000")
    return FiltrationLevel(n, frozenset(AngleFraction(p, q) for p, q in _reduced(n)))


def rational_angle_of(
    level: Scalar | AngleFraction, max_q: int = 64
) -> AngleFraction | None:
    """The angle fraction with 2cos(pi p/q) == level, if there is one.

    Exact rational levels are decided by Niven's theorem: inside (-2, 2)
    only 0 and +-1 are traces of rational angles.  A level that is already
    an AngleFraction is returned canonically.  Float levels are matched
    against all q <= max_q within 1e-9, smallest denominator first.
    """
    if isinstance(level, AngleFraction):
        folded = level.trace_canonical()
        if folded.p == 0 or folded.p == folded.q:
            raise ValueError("angle corresponds to a trace of +-2, outside the domain")
        return folded
    mode, (level,) = unify(level)
    _check_open_range("level", level)
    if mode == EXACT:
        return {
            Fraction(0): AngleFraction(1, 2),
            Fraction(1): AngleFraction(1, 3),
            Fraction(-1): AngleFraction(2, 3),
        }.get(level)
    for p, q in _reduced(max_q):
        if abs(level - 2.0 * math.cos(math.pi * p / q)) <= TOL_SURFACE:
            return AngleFraction(p, q)
    return None


def is_in_F(a: Fraction, c: Fraction) -> bool:
    """Membership in the exceptional boundary family (a, a, c, -c).

    Exact traces only; floats raise :class:`MixedModeError`.  Both traces
    lie in (-2, 2) (else ValueError).  Condition one is a^2 + c^2 > 4.
    Condition two asks for an irrational rotation number acos(./2)/pi on a
    boundary trace; by Niven's theorem (:func:`rational_angle_of`) a
    rational trace in (-2, 2) rotates rationally only at 0 and +-1.
    """
    a, c = as_fraction(a), as_fraction(c)
    _check_open_range("a", a)
    _check_open_range("c", c)
    return a * a + c * c > 4 and (rational_angle_of(a) is None or rational_angle_of(c) is None)


def twist_period(
    B: BoundaryTraces, p: TracePoint, axis: Axis, max_q: int = 64
) -> int | None:
    """Period of the axis twist on a non-fixed point, or None.

    A level 2cos(pi p/q) rotates its slice by 2*pi*p/q, so the order is q.
    One box tolerance, 0 exact or `TOL_GEOM` float, decides both "does the
    twist move p?" (else ValueError) and "does g^q bring p back?" (else
    RuntimeError).  In exact mode None means the period is infinite
    (Niven's theorem); in float mode only that no q <= max_q matched the
    level within `TOL_SURFACE`, so a larger max_q may still find a period.
    """
    g = TwistGenerator(axis, 1)
    tol = 0 if p.mode == EXACT else TOL_GEOM
    if box_distance(apply_generator(B, p, g), p) <= tol:
        raise ValueError("point is fixed by the axis twist; period is undefined")
    angle = rational_angle_of(p.coord(axis), max_q)
    if angle is None:
        return None
    period = angle.q
    drift = box_distance(apply_word(B, p, TwistWord((g,) * period)), p)
    if drift > tol:
        raise RuntimeError(f"period {period} failed to verify: box drift {drift}")
    return period


def epsilon_density_on_level(
    B: BoundaryTraces,
    orbit,
    axis: Axis,
    level: float,
    eps: float,
) -> bool:
    """Is the orbit eps-dense on the ellipse slice at `level`?

    Tested against a deterministic angular reference grid with arc step at
    most eps/4; every grid point must have an orbit point strictly within
    eps in the box metric.
    """
    _check_eps(eps)
    geom = level_set(B.to_float(), axis, float(level))
    if not geom.is_ellipse:
        raise ValueError("level set is degenerate; density is undefined")
    a_sum, a_diff = geom.semi_axes()
    speed = (a_sum + a_diff) / 2.0  # bounds the box-metric speed of the parameterization
    n_grid = max(8, math.ceil(8 * math.pi * speed / eps))
    near = _box_neighbours((pt.to_float().as_tuple() for pt in orbit), eps)
    return all(
        near(geom.point_at_angle(2 * math.pi * j / n_grid).as_tuple()) for j in range(n_grid)
    )


def N_of_epsilon(B: BoundaryTraces, eps: float) -> int:
    """Period threshold beyond which every periodic slice orbit is eps-dense.

    This covers slices at levels inside the range S of their axis on the
    compact component :func:`classify` reports; ellipse slices at other
    levels lie on other components and may be far larger.

    N = ceil(pi * max over axes of (|S_1| + |S_2|) / eps) + 1, where S_1 and
    S_2 are the compact component's ranges (:func:`level_range`) of the two
    coordinates the axis twist moves.  Proof, for a slice orbit of period
    q > N on an ellipse with semi-axes A, D (:meth:`semi_axes`):

    1. its q points are equally spaced, 2*pi/q apart, in the rotation-frame
       angle, which is the ellipse parameter of :meth:`point_at_angle`;
    2. in the box metric a point moves at most (A + D)/2 per unit of that
       angle;
    3. the slice lies in S_1 x S_2, so the sum and the difference of its
       moving coordinates each range over at most |S_1| + |S_2|, that is
       2A and 2D are at most |S_1| + |S_2|, and so A + D <= |S_1| + |S_2|;
    4. hence neighbouring points are at most pi * (|S_1| + |S_2|) / q < eps
       apart.
    """
    _check_eps(eps)
    widths = [hi - lo for lo, hi in (level_range(B, axis) for axis in Axis)]
    return math.ceil(math.pi * (sum(widths) - min(widths)) / eps) + 1


def minimality_criterion(B: BoundaryTraces) -> bool:
    """Do at least two sigma invariants lie in Q minus the integers?

    The sigma invariants are trapped in (-8, 8), so excluding the integer
    band -8..8 amounts to excluding all integers.  This is a condition on B
    alone, not a density theorem: on B = (1/2, 1/2, 1/2, 0) it holds, yet
    the surface point (1, 1, 1), inside S_x, has a finite orbit of four
    points.  Exact traces only: float rationality is undecidable, so float
    traces raise :class:`MixedModeError`.
    """
    if B.mode != EXACT:
        raise MixedModeError("rationality of sigma invariants needs exact boundary traces")
    return sum(s.denominator != 1 for s in (B.sigma_x, B.sigma_y, B.sigma_z)) >= 2


def exceptional_family(
    a: Fraction, c: Fraction
) -> tuple[BoundaryTraces, frozenset[TracePoint]]:
    """Boundary data (a, a, c, -c) carrying an invariant two-point orbit.

    Exact traces only; floats raise :class:`MixedModeError`.  Requires
    (a, a, c, -c) in F (:func:`is_in_F`): a^2 + c^2 > 4 and a or c outside
    {0, +-1}, so that a boundary rotation number is irrational.  The
    returned special orbit {(a^2-2, 0, 0), (2-c^2, 0, 0)} is verified
    closed under all six generators, exactly, before returning.
    """
    a, c = as_fraction(a), as_fraction(c)
    if not is_in_F(a, c):
        raise ValueError(
            "need a^2 + c^2 > 4 and an irrational rotation number on the boundary"
        )
    B = BoundaryTraces(a, a, c, -c)
    orbit = frozenset({TracePoint(a * a - 2, 0, 0), TracePoint(2 - c * c, 0, 0)})
    closed = all(apply_generator(B, pt, g) in orbit for pt in orbit for g in GENERATORS)
    if not closed:
        raise RuntimeError("special orbit failed closure under the twists")
    return B, orbit


@dataclass(frozen=True)
class DensityReport:
    """Coverage of a surface grid by an explored orbit."""

    covered_fraction: float
    truncated: bool
    orbit_size: int
    grid_size: int


def density_scan(
    B: BoundaryTraces,
    p0: TracePoint,
    eps: float,
    budget: int,
    grid: tuple[int, int] = (24, 24),
    seed: int = 0,
) -> DensityReport:
    """Fraction of a surface sample grid strictly within eps of an explored orbit.

    Exploration is float-mode: a deterministic walk alternating blocks of
    the systematic two-twist pattern with seeded pseudo-random generator
    choices, deduplicated on an eps/10 grid.  `budget` counts twist
    applications.  `truncated` reports whether new points were still being
    found in the final tenth of the walk.  An empty sample grid is refused
    rather than reported as fully covered.
    """
    _check_eps(eps)
    if budget <= 0:
        raise ValueError("budget must be positive")
    Bf = B.to_float()
    grid_points = surface_sample(Bf, *grid)
    if not grid_points:
        raise ValueError(f"sample grid {grid[0]},{grid[1]} has no points")
    _, kernel, sigma, current = _carrier(Bf, p0.to_float())
    rng = random.Random(seed)
    snap = eps / 10.0
    # Dedup key -> first point seen there, as in enumerate_orbit.
    seen = {_snap_key(current, snap): current}
    moves = [_STEPS[g] for g in GENERATORS]
    alternation = (_STEPS[TwistGenerator(Axis.X, 1)], _STEPS[TwistGenerator(Axis.Y, 1)])
    last_new = 0
    for step in range(budget):
        if (step // 64) % 2 == 0:
            steps = alternation[step % 2]
        else:
            steps = moves[rng.randrange(len(moves))]
        current = kernel(sigma, current, steps)
        k = _snap_key(current, snap)
        if k not in seen:
            seen[k] = current
            last_new = step

    near = _box_neighbours(seen.values(), eps)
    covered = sum(1 for gp in grid_points if near(gp.as_tuple()))
    return DensityReport(
        covered_fraction=covered / len(grid_points),
        truncated=last_new >= 0.9 * budget,
        orbit_size=len(seen),
        grid_size=len(grid_points),
    )
