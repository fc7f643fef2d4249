"""Dual-mode scalars: exact rationals or doubles, never silently mixed.

Every real quantity in this package lives in one of two numeric modes.
Exact mode carries :class:`fractions.Fraction` values; arithmetic is closed
under +, -, *, / with no rounding, which is what makes orbit closure and
kappa-invariance checkable as identities rather than approximations.  Float
mode carries ordinary doubles for the geometry that genuinely needs
radicals (ellipse axes, rotation frames).

Python ints are accepted anywhere and promoted to the mode of their
companions (an int is exactly representable in either carrier).  Each mode
condition has one rule and one exception class:

* an exact-only computation given a float raises :class:`MixedModeError`
  instead of decaying to floating point;
* float-only geometry converts exact input to floats at the edge rather
  than refusing it;
* :class:`NeedsFloatModeError` means only that an exact computation met an
  irrational value.

Interval endpoints of the component classification are quadratic surds
``a + b*sqrt(r)`` rather than plain rationals; :class:`Surd` carries just
enough exact arithmetic (comparison, rational collapse, float conversion)
to keep the classification decidable without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

# The two float-mode tolerances.  TOL_SURFACE matches a float level to a
# rational angle (orbits.rational_angle_of); TOL_GEOM is the box distance that
# orbits.twist_period counts as "not moved", for a fixed point and a period.
TOL_SURFACE = 1e-9
TOL_GEOM = 1e-8


class MixedModeError(TypeError):
    """A float reached exact arithmetic: an exact-only input, or a mix of modes."""


class NeedsFloatModeError(ValueError):
    """An exact computation met an irrational value it cannot represent."""


def unify(*values: Scalar) -> tuple[str, tuple[Scalar, ...]]:
    """Promote ints and return ``(mode, values)``, rejecting mixed modes."""
    mode = None
    for v in values:
        if isinstance(v, float):
            m = FLOAT
        elif isinstance(v, Fraction):
            m = EXACT
        elif isinstance(v, int):
            continue
        else:
            raise TypeError(f"not a scalar: {v!r}")
        if mode is None:
            mode = m
        elif mode != m:
            raise MixedModeError(
                "exact rationals and floats cannot be mixed; convert explicitly"
            )
    if mode is None:
        mode = EXACT
    cast = Fraction if mode == EXACT else float
    return mode, tuple(cast(v) if isinstance(v, int) else v for v in values)


def as_fraction(value: str | int | Fraction) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``, or pass exact numbers through; floats are refused."""
    if isinstance(value, float):
        raise MixedModeError(f"{value!r} is a float; exact arithmetic takes ints and Fractions")
    return Fraction(value)


def sqrt_exact(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise ValueError("negative radicand")
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _sign_sum(t, u=0, r1=0, v=0, r2=0) -> int:
    """Exact sign of ``t + u*sqrt(r1) + v*sqrt(r2)``, all rational, ``r1, r2 >= 0``.

    Write the sum as ``A + w``, ``w = v*sqrt(r2)``, a lone radical moved into
    the ``w`` slot.  If ``A`` is 0 or has the sign of ``w``, so has the sum.
    Otherwise the sum has ``sign(A)`` times the sign of ``|A| - |w|``, which
    is that of ``A^2 - w^2 = (t^2 + u^2*r1 - v^2*r2) + 2tu*sqrt(r1)`` since
    ``|A| + |w| > 0``.  ``A`` and ``A^2 - w^2`` each have one radical fewer
    than the sum, so the recursion ends at ``sign(t)``.
    """
    if not (v and r2):
        if not (u and r1):
            return _sign(t)
        u, r1, v, r2 = 0, 0, u, r1
    sw, sa = _sign(v), _sign_sum(t, u, r1)
    if sa == 0 or sa == sw:
        return sw
    return sa * _sign_sum(t * t + u * u * r1 - v * v * r2, 2 * t * u, r1)


@total_ordering
@dataclass(frozen=True, eq=False)
class Surd:
    """An exact quadratic surd ``a + b*sqrt(r)`` over the rationals.

    Perfect-square radicands collapse into the rational part, so surds
    compare transparently against plain rationals:

    >>> Surd(1, 1, 9) == 4
    True
    >>> Surd(0, 1, 2) < Fraction(3, 2)
    True
    >>> Surd(0, 2, 2) == Surd(0, 1, 8)
    True
    """

    a: Fraction
    b: Fraction
    r: Fraction

    def __init__(self, a, b=0, r=0):
        a, b, r = as_fraction(a), as_fraction(b), as_fraction(r)  # refuses floats
        if r < 0:
            raise ValueError("negative radicand")
        if b == 0 or r == 0:
            b, r = Fraction(0), Fraction(0)
        else:
            root = sqrt_exact(r)
            if root is not None:
                a, b, r = a + b * root, Fraction(0), Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise NeedsFloatModeError(f"{self} is irrational")
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.r))

    def _cmp(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            other = Surd(other)
        elif not isinstance(other, Surd):
            return NotImplemented
        return _sign_sum(self.a - other.a, self.b, self.r, -other.b, other.r)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __hash__(self):
        # Rational surds must hash like the rational they equal.  Equal
        # irrational surds share a, the sign of b and b^2*r, not b and r.
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, _sign(self.b), self.b * self.b * self.r))

    def __repr__(self):
        if self.is_rational:
            return f"Surd({self.a})"
        return f"Surd({self.a} + {self.b}*sqrt({self.r}))"
