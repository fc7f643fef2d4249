"""Angles that are exact rational multiples of pi.

An :class:`AngleFraction` (p, q) denotes the angle pi*p/q, kept reduced
with 0 <= p < 2q.  These are the exact carriers for twist rotation numbers
and for the arguments of the cosine relations: a trace value t in (-2, 2)
corresponds to the angle with t = 2*cos(pi*p/q) whenever that angle is a
rational multiple of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
class AngleFraction:
    """The angle pi*p/q with gcd(p, q) = 1 and 0 <= p < 2q.

    >>> AngleFraction(7, 3)
    AngleFraction(1, 3)
    >>> AngleFraction(1, 3) + AngleFraction(1, 3)
    AngleFraction(2, 3)
    >>> AngleFraction(1, 4).two_cos()  # doctest: +ELLIPSIS
    1.41421356...
    """

    p: int
    q: int

    def __init__(self, p: int, q: int = 1):
        """Reduce p/q on the integers: one gcd, then p mod 2q.

        ``p`` and ``q`` must be ints: a ``Fraction`` or ``float`` raises
        TypeError (from ``math.gcd``).  Build an angle from a Fraction with
        `from_fraction`.
        """
        if q == 0:
            raise ZeroDivisionError("angle denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        q //= g
        object.__setattr__(self, "p", p // g % (2 * q))
        object.__setattr__(self, "q", q)

    @classmethod
    def from_fraction(cls, t: Fraction) -> "AngleFraction":
        return cls(t.numerator, t.denominator)

    @property
    def fraction(self) -> Fraction:
        """The multiple of pi, in [0, 2)."""
        return Fraction(self.p, self.q)

    def radians(self) -> float:
        return math.pi * self.p / self.q

    def cos(self) -> float:
        return math.cos(self.radians())

    def two_cos(self) -> float:
        return 2.0 * math.cos(self.radians())

    def trace_canonical(self) -> "AngleFraction":
        """Fold into [0, pi]; the angle with the same cosine."""
        if self.p > self.q:
            return AngleFraction(2 * self.q - self.p, self.q)
        return self

    def __add__(self, other: "AngleFraction") -> "AngleFraction":
        return AngleFraction(self.p * other.q + other.p * self.q, self.q * other.q)

    def __sub__(self, other: "AngleFraction") -> "AngleFraction":
        return AngleFraction(self.p * other.q - other.p * self.q, self.q * other.q)

    def __neg__(self) -> "AngleFraction":
        return AngleFraction(-self.p, self.q)

    def __lt__(self, other):
        if not isinstance(other, AngleFraction):
            return NotImplemented
        return self.p * other.q < other.p * self.q

    def __repr__(self):
        return f"AngleFraction({self.p}, {self.q})"


def _reduced(max_q: int):
    """Yield int pairs (p, q), 0 < p < q <= max_q, gcd(p, q) = 1, by q and then p."""
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q
