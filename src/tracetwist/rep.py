"""Exact 2x2 representations and their trace coordinates.

A representation of the four-holed-sphere group is a quadruple of
determinant-one matrices with A*B*C*D = I.  Its class on the character
variety is read off through traces: boundary data (tr A, ..., tr D) and
the interior point (tr AB, tr BC, tr CA), which lands exactly on the
surface cut out by `kappa` (a trace identity, re-checked at runtime).

The module also carries the membership test for the exceptional boundary
family (a, a, c, -c): the checkable conditions are a^2 + c^2 > 4 and an
irrational boundary rotation number, the latter decided by Niven's
theorem for exact inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .orbits import _in_family_F
from .scalars import as_fraction
from .surface import BoundaryTraces, TracePoint, kappa


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix over exact rationals with determinant one; floats are refused."""

    e11: Fraction
    e12: Fraction
    e21: Fraction
    e22: Fraction

    def __post_init__(self):
        for name in ("e11", "e12", "e21", "e22"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        det = self.e11 * self.e22 - self.e12 * self.e21
        if det != 1:
            raise ValueError(f"determinant must be exactly 1, got {det}")

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def inverse(self) -> "Mat2":
        # Determinant one: the inverse is the adjugate.
        return Mat2(self.e22, -self.e12, -self.e21, self.e11)

    def trace(self) -> Fraction:
        return self.e11 + self.e22


@dataclass(frozen=True)
class RepFour:
    """Matrices (A, B, C, D) with A@B@C@D equal to the identity, exactly."""

    A: Mat2
    B: Mat2
    C: Mat2
    D: Mat2

    def __post_init__(self):
        if self.A @ self.B @ self.C @ self.D != Mat2.identity():
            raise ValueError("A*B*C*D must be the identity")


def from_triple(A: Mat2, B: Mat2, C: Mat2) -> RepFour:
    """Complete a triple to a relation-satisfying quadruple: D = (ABC)^-1."""
    return RepFour(A, B, C, (A @ B @ C).inverse())


def trace_coordinates(rep: RepFour) -> tuple[BoundaryTraces, TracePoint]:
    """Boundary traces and the interior trace point of a representation.

    Boundary traces outside the open interval (-2, 2) are refused by
    :class:`BoundaryTraces` (the package only models elliptic boundary
    holonomy).  The returned point satisfies kappa = 0 exactly; this is
    re-verified and a failure would be a bug, not bad input.
    """
    boundary = BoundaryTraces(*(m.trace() for m in (rep.A, rep.B, rep.C, rep.D)))
    point = TracePoint(
        (rep.A @ rep.B).trace(),
        (rep.B @ rep.C).trace(),
        (rep.C @ rep.A).trace(),
    )
    if kappa(boundary, point) != 0:
        raise RuntimeError("trace identity violated; this is a bug")
    return boundary, point


def is_in_F(a: Fraction, c: Fraction) -> bool:
    """Membership in the exceptional boundary family (a, a, c, -c).

    Condition one is a^2 + c^2 > 4, checked exactly.  Condition two asks
    for an irrational rotation number acos(./2)/pi on a boundary trace;
    by Niven's theorem a rational trace in (-2, 2) rotates rationally only
    at 0 and +-1.
    """
    return _in_family_F(as_fraction(a), as_fraction(c))


def exceptional_representation() -> RepFour:
    """The explicit finite-orbit representation with boundary (1, 1, 7/4, -7/4).

    Its class sits at (-1, 0, 0); the twists move it only to
    (-17/16, 0, 0) and back, even though the matrix group it generates is
    dense in SL(2, R).
    """
    A = Mat2(Fraction(4, 5), Fraction(-3, 5), Fraction(7, 5), Fraction(1, 5))
    C = Mat2(1, Fraction(-1, 4), 1, Fraction(3, 4))
    return from_triple(A, A, C)
