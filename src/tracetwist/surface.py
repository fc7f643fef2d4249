"""Boundary data and the relative character variety in trace coordinates.

A four-holed-sphere representation is recorded by the boundary traces
(a, b, c, d) and the interior traces (x, y, z) of the products of adjacent
boundary generators.  For fixed boundary data the interior traces satisfy a
single cubic equation; :func:`kappa` is its defining polynomial, so the
surface is ``kappa == 0``.

Coordinate slices of the surface are conics.  In shifted sum/difference
coordinates the x-slice at level ``x`` reads::

    (2+x)/4 * (y+z - cs)^2  +  (2-x)/4 * (y-z - cd)^2  =  rhs(x)

with centers cs = (a+b)(d+c)/(2+x), cd = (a-b)(d-c)/(2-x) and

    rhs(x) = (x^2 - ab*x + a^2+b^2-4)(x^2 - cd*x + c^2+d^2-4) / (4-x^2).

The left side minus the right side equals kappa identically, which the test
suite checks on all three axes; the y- and z-slices use the boundary
permutations (a,d,b,c) and (a,c,d,b) respectively.

The quadratic factors in rhs have roots I^-/I^+ computed from one pair of
boundary traces each; whether the two root intervals overlap or leave a gap
decides which compact component (unitary or real) the surface carries, and
the overlap/gap is the open interval S of x-values actually attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction

from .scalars import (
    EXACT,
    FLOAT,
    MixedModeError,
    NeedsFloatModeError,
    Scalar,
    Surd,
    mode_of,
    sqrt_exact,
    unify,
)


class Axis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


class ComponentClass(Enum):
    SU2 = "su2"
    SL2R_COMPACT = "sl2r_compact"
    DEGENERATE = "degenerate"


def _check_open_range(name: str, value: Scalar, bound: int = 2) -> None:
    if not (-bound < value < bound):
        raise ValueError(f"{name} = {value} must lie strictly in ({-bound}, {bound})")


@dataclass(frozen=True)
class BoundaryTraces:
    """Boundary traces (a, b, c, d), each strictly inside (-2, 2).

    The derived symmetric invariants are fixed at construction:
    sigma_x = ab+cd, sigma_y = ad+bc, sigma_z = ac+bd and the constant
    s_const = a^2+b^2+c^2+d^2+abcd-4 appearing in the surface equation.
    Exact arithmetic on points uses them over one common denominator, see
    :attr:`_integer_form`.
    """

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar
    sigma_x: Scalar = field(init=False, repr=False)
    sigma_y: Scalar = field(init=False, repr=False)
    sigma_z: Scalar = field(init=False, repr=False)
    s_const: Scalar = field(init=False, repr=False)

    def __post_init__(self):
        _, (a, b, c, d) = unify(self.a, self.b, self.c, self.d)
        for name, v in zip("abcd", (a, b, c, d)):
            _check_open_range(name, v)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma_x", a * b + c * d)
        object.__setattr__(self, "sigma_y", a * d + b * c)
        object.__setattr__(self, "sigma_z", a * c + b * d)
        object.__setattr__(self, "s_const", a * a + b * b + c * c + d * d + a * b * c * d - 4)

    @property
    def mode(self) -> str:
        return mode_of(self.a)

    @cached_property
    def _integer_form(self) -> tuple[int, int, int, int, int]:
        """``(E, S_x, S_y, S_z, S_0)`` with sigma_i = S_i/E and s_const = S_0/E, E > 0.

        Exact mode only; computed on first use and kept on the instance
        outside the dataclass fields, so eq, hash and repr do not see it.
        """
        invariants = (self.sigma_x, self.sigma_y, self.sigma_z, self.s_const)
        E = math.lcm(*(v.denominator for v in invariants))
        return (E, *(v.numerator * (E // v.denominator) for v in invariants))

    def to_float(self) -> "BoundaryTraces":
        if self.mode == FLOAT:
            return self
        return BoundaryTraces(float(self.a), float(self.b), float(self.c), float(self.d))

    def trace_pairs(self, axis: Axis):
        """The two boundary-trace pairs whose product quadratics cut the axis range."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if axis is Axis.X:
            return (a, b), (c, d)
        if axis is Axis.Y:
            return (a, d), (b, c)
        return (a, c), (d, b)


@dataclass(frozen=True, slots=True)
class TracePoint:
    """A point (x, y, z) in trace coordinates, on or off the surface."""

    x: Scalar
    y: Scalar
    z: Scalar

    def __post_init__(self):
        _, (x, y, z) = unify(self.x, self.y, self.z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def mode(self) -> str:
        return mode_of(self.x)

    def to_float(self) -> "TracePoint":
        if self.mode == FLOAT:
            return self
        return TracePoint(float(self.x), float(self.y), float(self.z))

    def coord(self, axis: Axis) -> Scalar:
        return {Axis.X: self.x, Axis.Y: self.y, Axis.Z: self.z}[axis]

    def moving_coords(self, axis: Axis) -> tuple[Scalar, Scalar]:
        """The two coordinates a twist about `axis` acts on, in cyclic order."""
        if axis is Axis.X:
            return self.y, self.z
        if axis is Axis.Y:
            return self.z, self.x
        return self.x, self.y

    def as_tuple(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.x, self.y, self.z)


def _to_integers(p: TracePoint) -> tuple[int, int, int, int]:
    """The canonical integer form ``(X, Y, Z, D)`` of an exact point.

    p equals ``(X/D, Y/D, Z/D)`` with ``D > 0`` the least common denominator,
    so ``gcd(X, Y, Z, D) == 1``; equal points have equal forms.
    """
    x, dx = p.x.as_integer_ratio()
    y, dy = p.y.as_integer_ratio()
    z, dz = p.z.as_integer_ratio()
    D = math.lcm(dx, dy, dz)
    return (x * (D // dx), y * (D // dy), z * (D // dz), D)


def _from_integers(c: tuple[int, int, int, int], shared: dict | None = None) -> TracePoint:
    """The point ``(X/D, Y/D, Z/D)`` of an integer form.

    With a dict `shared`, equal coordinates of successive calls come back
    as one Fraction object, keyed by (numerator, denominator).
    """
    X, Y, Z, D = c
    coords = (Fraction(X, D), Fraction(Y, D), Fraction(Z, D))
    if shared is not None:
        coords = [shared.setdefault((f.numerator, f.denominator), f) for f in coords]
    return TracePoint(*coords)


def _require_same_mode(B: BoundaryTraces, p: TracePoint) -> str:
    if B.mode != p.mode:
        raise MixedModeError(
            f"boundary traces are {B.mode}-mode but point is {p.mode}-mode"
        )
    return B.mode


@dataclass(frozen=True)
class PairInterval:
    """Root interval [I^-, I^+] of s^2 - (uv)s + u^2+v^2-4 for a trace pair (u, v).

    Exact mode carries the endpoints as quadratic surds
    (uv -+ sqrt((u^2-4)(v^2-4)))/2; these collapse to plain rationals
    whenever the radicand is a perfect square (e.g. for pairs (t, t) or
    (t, -t)), which covers the fully rational classifications.
    """

    lo: Scalar | Surd
    hi: Scalar | Surd

    @classmethod
    def from_traces(cls, u: Scalar, v: Scalar) -> "PairInterval":
        mode, (u, v) = unify(u, v)
        radicand = (u * u - 4) * (v * v - 4)
        if mode == EXACT:
            half = Fraction(1, 2)
            return cls(Surd(u * v * half, -half, radicand), Surd(u * v * half, half, radicand))
        root = math.sqrt(radicand)
        return cls((u * v - root) / 2, (u * v + root) / 2)


@dataclass(frozen=True)
class LevelSetGeometry:
    """Conic data of one coordinate slice of the surface.

    The slice is an ellipse when ``rhs > 0``, a single point when
    ``rhs == 0`` and empty when ``rhs < 0``.  All fields are scalars in the
    input mode; the square roots needed for actual ellipse points appear
    only in the float-mode helpers.
    """

    axis: Axis
    level: Scalar
    center_sum: Scalar
    center_diff: Scalar
    weight_sum: Scalar
    weight_diff: Scalar
    rhs: Scalar

    @property
    def is_ellipse(self) -> bool:
        return self.rhs > 0

    @property
    def is_point(self) -> bool:
        return self.rhs == 0

    @property
    def is_empty(self) -> bool:
        return self.rhs < 0

    def residual(self, p: TracePoint) -> Scalar:
        """Ellipse-form residual at p; identically equal to kappa on the slice."""
        m1, m2 = p.moving_coords(self.axis)
        ds = (m1 + m2) - self.center_sum
        dd = (m1 - m2) - self.center_diff
        return self.weight_sum * ds * ds + self.weight_diff * dd * dd - self.rhs

    def semi_axes(self) -> tuple[float, float]:
        """Float semi-axes in the (sum, diff) plane; requires rhs >= 0."""
        rhs = float(self.rhs)
        if rhs < 0:
            raise ValueError("empty level set has no axes")
        return (
            math.sqrt(rhs / float(self.weight_sum)),
            math.sqrt(rhs / float(self.weight_diff)),
        )

    def point_at_angle(self, phi: float) -> TracePoint:
        """Float-mode surface point at ellipse parameter phi."""
        a_sum, a_diff = self.semi_axes()
        s = float(self.center_sum) + a_sum * math.cos(phi)
        d = float(self.center_diff) + a_diff * math.sin(phi)
        m1, m2 = (s + d) / 2, (s - d) / 2
        level = float(self.level)
        if self.axis is Axis.X:
            return TracePoint(level, m1, m2)
        if self.axis is Axis.Y:
            return TracePoint(m2, level, m1)
        return TracePoint(m1, m2, level)


def kappa(B: BoundaryTraces, p: TracePoint) -> Scalar:
    """Defining polynomial of the surface; zero exactly on it.

    Exact mode evaluates it on integers: with ``p = (X/D, Y/D, Z/D)`` and
    the invariants over their common denominator E, ``E*D^3*kappa`` is one
    integer polynomial, divided out once into a Fraction.

    >>> B = BoundaryTraces(0, 0, 0, 0)
    >>> kappa(B, TracePoint(0, 0, 2))
    Fraction(0, 1)
    >>> kappa(B, TracePoint(0, 0, 0))
    Fraction(-4, 1)
    """
    if _require_same_mode(B, p) == EXACT:
        E, Sx, Sy, Sz, S0 = B._integer_form
        X, Y, Z, D = _to_integers(p)
        DD = D * D
        value = (
            E * (D * (X * X + Y * Y + Z * Z) + X * Y * Z)
            - DD * (Sx * X + Sy * Y + Sz * Z)
            + S0 * DD * D
        )
        return Fraction(value, E * DD * D)
    x, y, z = p.x, p.y, p.z
    return (
        x * x + y * y + z * z + x * y * z
        - B.sigma_x * x - B.sigma_y * y - B.sigma_z * z
        + B.s_const
    )


def classify(
    B: BoundaryTraces, axis: Axis = Axis.X
) -> tuple[ComponentClass, tuple[Scalar | Surd, Scalar | Surd] | None]:
    """Component type and the open interval S of attainable axis values.

    Overlapping root intervals give the unitary component with S their
    overlap; disjoint intervals give the compact real component with S the
    gap.  Intervals touching in a single point are reported as degenerate
    with no interval (decided exactly in exact mode).
    """
    (u1, v1), (u2, v2) = B.trace_pairs(axis)
    i1 = PairInterval.from_traces(u1, v1)
    i2 = PairInterval.from_traces(u2, v2)
    lo = max(i1.lo, i2.lo)
    hi = min(i1.hi, i2.hi)
    if lo < hi:
        return ComponentClass.SU2, (lo, hi)
    if lo == hi:
        return ComponentClass.DEGENERATE, None
    return ComponentClass.SL2R_COMPACT, (hi, lo)


def level_set(B: BoundaryTraces, axis: Axis, level: Scalar) -> LevelSetGeometry:
    """Conic normal form of the slice {axis coordinate == level}, |level| < 2."""
    _, (level, _) = unify(level, B.a)
    _check_open_range("level", level)
    (u1, v1), (u2, v2) = B.trace_pairs(axis)
    f1 = level * level - u1 * v1 * level + u1 * u1 + v1 * v1 - 4
    f2 = level * level - u2 * v2 * level + u2 * u2 + v2 * v2 - 4
    return LevelSetGeometry(
        axis=axis,
        level=level,
        center_sum=(u1 + v1) * (v2 + u2) / (2 + level),
        center_diff=(u1 - v1) * (v2 - u2) / (2 - level),
        weight_sum=(2 + level) / 4,
        weight_diff=(2 - level) / 4,
        rhs=f1 * f2 / (4 - level * level),
    )


def lift_to_surface(B: BoundaryTraces, x: Scalar, y: Scalar) -> list[TracePoint]:
    """Solve kappa = 0 for z at fixed (x, y).

    Returns zero, one or two points (negative discriminant, double root,
    two roots).  In exact mode a positive non-square discriminant raises
    :class:`NeedsFloatModeError` rather than rounding.
    """
    mode, (x, y, _) = unify(x, y, B.a)
    # kappa as a monic quadratic in z.
    lin = x * y - B.sigma_z
    const = x * x + y * y - B.sigma_x * x - B.sigma_y * y + B.s_const
    disc = lin * lin - 4 * const
    if disc < 0:
        return []
    if mode == EXACT:
        root = sqrt_exact(disc)
        if root is None:
            raise NeedsFloatModeError(
                "discriminant is not a rational square; needs float mode"
            )
    else:
        root = math.sqrt(disc)
    z_lo, z_hi = (-lin - root) / 2, (-lin + root) / 2
    if z_lo == z_hi:
        return [TracePoint(x, y, z_lo)]
    return [TracePoint(x, y, z_lo), TracePoint(x, y, z_hi)]


def level_range(B: BoundaryTraces, axis: Axis) -> tuple[float, float]:
    """Float endpoints of the open interval of attainable `axis` values."""
    _, interval = classify(B, axis)
    if interval is None:
        raise ValueError("degenerate surface has an empty level range")
    return float(interval[0]), float(interval[1])


def surface_sample(B: BoundaryTraces, m: int, k: int) -> list[TracePoint]:
    """Float-mode grid of m slice levels x k ellipse angles covering the surface.

    Levels are midpoints of an m-fold split of S (so slice conics stay
    nondegenerate) and angles are uniform on each ellipse.
    """
    if m < 0 or k < 0:
        raise ValueError("sample counts must be nonnegative")
    _, interval = classify(B)
    if interval is None:
        raise ValueError("cannot sample a degenerate surface")
    if m == 0 or k == 0:
        return []
    lo, hi = float(interval[0]), float(interval[1])
    Bf = B.to_float()
    points = []
    for i in range(m):
        level = lo + (hi - lo) * (i + 0.5) / m
        geom = level_set(Bf, Axis.X, level)
        if not geom.is_ellipse:
            continue
        for j in range(k):
            points.append(geom.point_at_angle(2 * math.pi * j / k))
    return points
