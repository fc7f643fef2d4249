"""Dehn-twist generators acting on trace coordinates.

Each twist fixes one coordinate and rewrites the other two by a pair of
Vieta substitutions.  The surface polynomial is a monic quadratic in every
single coordinate, so replacing that coordinate by (sum of roots) - itself
preserves kappa identically, on and off the surface; a twist is two such
replacements in a fixed order.  In local coordinates the forward twist
about the x-axis is::

    z -> sigma_z - x*y - z        (first step)
    y -> sigma_y - x*z_new - y    (second step)

and its inverse performs the same two substitutions in the opposite order.
The y-twist replaces x then z, the z-twist y then x.  A table lists these
steps per generator (rows of the axis table ``surface._CYCLE``), and a
private kernel runs them on one of two carriers:

* exact mode: the canonical integer form ``(X, Y, Z, D)`` of the point
  ``(X/D, Y/D, Z/D)``, with ``D > 0`` and ``gcd(X, Y, Z, D) == 1``, against
  the boundary invariants over one common denominator; each step ends with
  one reduction, so the form stays canonical and serves as a dedup key;
* float mode: raw ``(x, y, z)`` tuples of doubles.

One private dispatch, ``_carrier``, picks the kernel, its invariants and the
carrier for the orbit loops and for :func:`apply_generator`,
:func:`vieta_involution` and :func:`apply_word`, which return a
:class:`TracePoint`; :func:`rotation_angle` checks its level lies in (-2, 2).

On a slice of its own axis a twist is conjugate to a rotation by
``2*acos(level/2)``; :func:`to_rotation_frame` realizes the conjugating
coordinates explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .scalars import EXACT, Scalar, unify
from .surface import (
    Axis,
    BoundaryTraces,
    TracePoint,
    _CYCLE,
    _check_open_range,
    _from_integers,
    _require_same_mode,
    _to_integers,
    level_set,
)


@dataclass(frozen=True)
class TwistGenerator:
    """One twist generator: an axis and a power of +1 or -1."""

    axis: Axis
    power: int = 1

    def __post_init__(self):
        if self.power not in (1, -1):
            raise ValueError("power must be +1 or -1")

    def inverse(self) -> "TwistGenerator":
        return TwistGenerator(self.axis, -self.power)

    @property
    def letter(self) -> str:
        """Single-letter form: uppercase for the twist, lowercase for its inverse."""
        ch = self.axis.value
        return ch.upper() if self.power == 1 else ch

    @classmethod
    def from_letter(cls, ch: str) -> "TwistGenerator":
        if ch.lower() not in ("x", "y", "z"):
            raise ValueError(f"unknown generator letter {ch!r}")
        return cls(Axis(ch.lower()), 1 if ch.isupper() else -1)


GENERATORS = tuple(
    TwistGenerator(axis, power) for axis in (Axis.X, Axis.Y, Axis.Z) for power in (1, -1)
)


@dataclass(frozen=True)
class TwistWord:
    """A finite word in the six generators, applied left to right."""

    letters: tuple[TwistGenerator, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "TwistWord":
        """Parse words like ``"XYz"`` (lowercase letters are inverses)."""
        return cls(tuple(TwistGenerator.from_letter(ch) for ch in text.strip()))

    def __str__(self) -> str:
        return "".join(g.letter for g in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        return TwistWord(self.letters + other.letters)

    def inverse(self) -> "TwistWord":
        return TwistWord(tuple(g.inverse() for g in reversed(self.letters)))

    def free_reduce(self) -> "TwistWord":
        """Cancel adjacent inverse pairs (offered, never forced)."""
        out: list[TwistGenerator] = []
        for g in self.letters:
            if out and out[-1].axis is g.axis and out[-1].power == -g.power:
                out.pop()
            else:
                out.append(g)
        return TwistWord(tuple(out))


# A Vieta step on coordinate i is (i, j, k) with j, k the other two indices,
# the row _CYCLE[axis] of the coordinate's axis.  The coordinates a forward
# twist replaces, in order; its inverse runs the same pair in reverse.
_FORWARD = {Axis.X: (Axis.Z, Axis.Y), Axis.Y: (Axis.X, Axis.Z), Axis.Z: (Axis.Y, Axis.X)}
_STEPS = {
    g: tuple(_CYCLE[axis] for axis in _FORWARD[g.axis][:: g.power]) for g in GENERATORS
}


def _twist(sigma, c, steps):
    """Run Vieta steps (i, j, k) on the float coordinate tuple c, unchecked.

    Float results depend on the evaluation order ``(sigma - product) - c``.
    """
    c = list(c)
    for i, j, k in steps:
        c[i] = sigma[i] - c[j] * c[k] - c[i]
    return tuple(c)


def _twist_exact(b, c, steps):
    """Run Vieta steps (i, j, k) on the canonical integer form c, unchecked.

    ``b = (E, S_x, S_y, S_z, S_0)`` is ``B._integer_form`` and
    ``c = (X, Y, Z, D)`` stands for ``(X/D, Y/D, Z/D)``.  A step puts
    ``n = S_i*D^2 - E*X_j*X_k - E*D*X_i`` over ``E*D^2``, scales the other two
    numerators by ``E*D`` and divides all four by their gcd, so the result is
    canonical again.  That gcd equals ``gcd(n, E*D*gcd(X_j, X_k, D))``, which
    runs on the smaller, unscaled numbers.
    """
    E = b[0]
    v = list(c)
    D = v.pop()
    for i, j, k in steps:
        ED = E * D
        xj, xk = v[j], v[k]
        n = b[1 + i] * D * D - E * xj * xk - ED * v[i]
        g = gcd(n, ED * gcd(xj, xk, D))
        v[i], v[j], v[k], D = n // g, xj * ED // g, xk * ED // g, D * ED // g
    return (v[0], v[1], v[2], D)


def _carrier(B: BoundaryTraces, p: TracePoint):
    """``(exact, kernel, sigma, c)``: the mode's twist kernel, its invariants and p's carrier."""
    if _require_same_mode(B, p) == EXACT:
        return True, _twist_exact, B._integer_form, _to_integers(p)
    return False, _twist, (B.sigma_x, B.sigma_y, B.sigma_z), p.as_tuple()


def _act(B: BoundaryTraces, p: TracePoint, steps) -> TracePoint:
    exact, kernel, sigma, c = _carrier(B, p)
    c = kernel(sigma, c, steps)
    return _from_integers(c) if exact else TracePoint(*c)


def vieta_involution(B: BoundaryTraces, p: TracePoint, variable: Axis) -> TracePoint:
    """Replace one coordinate by the other root of kappa as a quadratic in it."""
    return _act(B, p, (_CYCLE[variable],))


def apply_generator(B: BoundaryTraces, p: TracePoint, g: TwistGenerator) -> TracePoint:
    """Act by one twist generator; the generator's own coordinate is fixed."""
    return _act(B, p, _STEPS[g])


def apply_word(B: BoundaryTraces, p: TracePoint, w: TwistWord) -> TracePoint:
    """Apply the generators of a word left to right; the empty word is the identity."""
    return _act(B, p, [step for g in w.letters for step in _STEPS[g]])


def rotation_angle(level: Scalar) -> float:
    """Rotation angle 2*acos(level/2) of a twist on its own level slice."""
    _, (level,) = unify(level)
    _check_open_range("level", level)
    return 2.0 * math.acos(float(level) / 2.0)


@dataclass(frozen=True)
class RotationFrame:
    """Rectified slice coordinates in which the axis twist is a rotation.

    ``u, v`` are the weighted, recentered sum/difference coordinates;
    ``radius**2`` equals the slice's rhs for points on the surface, and the
    angle advances by a fixed +-rotation_angle(level) under the twist.
    """

    axis: Axis
    level: float
    u: float
    v: float
    radius: float
    angle: float


def to_rotation_frame(B: BoundaryTraces, p: TracePoint, axis: Axis) -> RotationFrame:
    """Polar coordinates of p within its own axis slice (float mode).

    Exact input is converted to floats first.  A point on a single-point
    slice (rhs == 0) is a fixed point of the twist and comes back with
    radius zero; an empty slice is an error.
    """
    B, p = B.to_float(), p.to_float()
    level = p.coord(axis)
    geom = level_set(B, axis, level)
    if geom.is_empty:
        raise ValueError(f"empty level set at {axis.value} = {level}")
    m1, m2 = p.moving_coords(axis)
    u = math.sqrt(geom.weight_sum) * ((m1 + m2) - geom.center_sum)
    v = math.sqrt(geom.weight_diff) * ((m1 - m2) - geom.center_diff)
    radius = math.hypot(u, v)
    angle = math.atan2(v, u) % (2 * math.pi) if radius > 0 else 0.0
    return RotationFrame(axis=axis, level=level, u=u, v=v, radius=radius, angle=angle)
