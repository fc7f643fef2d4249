"""Exact rational relations among cosines of rational multiples of pi.

The substrate is arithmetic in cyclotomic fields: cos(pi*p/q) equals
(z^k + z^-k)/2 for a root of unity z, so a rational linear combination of
such cosines is an element of Q(z_L) with L the least common conductor,
and it is rational precisely when its non-constant power-basis
coordinates vanish.  No tolerances are involved anywhere.

On top of that sit the classical facts this package consumes: the finite
list of minimal rational cosine relations with at most four angles in
(0, pi/2) (a one-term identity, a one-parameter three-term family, and
eight sporadic relations, all with right side 1/2 up to scaling), plus a
bounded exhaustive search that rediscovers and classifies them, and the
four-cosine equation that a finite twist orbit must satisfy with
(ab+cd)/2 on the right side.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .angles import AngleFraction, _reduced
from .scalars import EXACT, MixedModeError, as_fraction

CONDUCTOR_LIMIT = 10_000


class ConductorLimitError(ValueError):
    """The least common conductor exceeds the desk-scale guard."""


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    Phi_n(z) = prod (z^(n/d) - 1)^mu(d) over squarefree d | n: the mu = +1
    factors are multiplied in, then the mu = -1 factors divided out exactly.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    mu, m = {1: 1}, n  # squarefree divisor d of n -> Moebius mu(d)
    for p in range(2, n + 1):
        if m % p == 0:
            mu.update({d * p: -s for d, s in mu.items()})
            while m % p == 0:
                m //= p
    poly = [1]
    for e in (n // d for d, s in mu.items() if s > 0):
        poly = [a - b for a, b in zip([0] * e + poly, poly + [0] * e)]
    for e in (n // d for d, s in mu.items() if s < 0):
        for i in range(len(poly) - 1, e - 1, -1):
            poly[i - e] += poly[i]
        assert not any(poly[:e]), "division left a remainder"
        poly = poly[e:]
    return tuple(poly)


def _phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    if n > CONDUCTOR_LIMIT:
        raise ConductorLimitError(f"conductor {n} exceeds guard {CONDUCTOR_LIMIT}")
    return len(cyclotomic_poly(n)) - 1


def _reduce(conductor: int, dense: list[int]) -> list[int]:
    """Integer coordinates of sum_k dense[k] * z^k for integer dense[k].

    Exponents fold mod the conductor (z^L = 1) and one synthetic division by
    Phi_L runs on the integers.
    """
    phi = cyclotomic_poly(conductor)
    m = len(phi) - 1
    vec = dense[:conductor] + [0] * (conductor - len(dense))
    for k in range(conductor, len(dense)):
        vec[k % conductor] += dense[k]
    taps = [(j, t) for j, t in enumerate(phi[:m]) if t]
    for e in range(conductor - 1, m - 1, -1):
        c = vec[e]
        if c:
            for j, t in taps:
                vec[e - m + j] -= c * t
    return vec[:m]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CycloElement:
    """An element of the cyclotomic field of the given conductor.

    Coordinates are exact rationals over the power basis 1, z, ...,
    z^(phi-1) with z = exp(2*pi*i/conductor); the element is rational iff
    every non-constant coordinate is zero.  ``==`` and ``hash`` compare the
    conductor and the coordinates, not the value; compare values with
    ``(a - b).is_zero()``:

    >>> a = cos_pi(AngleFraction(1, 3))
    >>> a == a.promote(12), (a - a.promote(12)).is_zero()
    (False, True)

    The coordinates are carried as integer numerators ``nums`` over one
    denominator ``den > 0`` with ``gcd(den, *nums) == 1``, a canonical form,
    so all arithmetic runs on integers; ``coords`` builds the Fractions when
    it is read.
    """

    conductor: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, conductor: int, coords) -> None:
        coords = tuple(coords)
        if len(coords) != _phi(conductor):
            raise ValueError(
                f"conductor {conductor} takes {_phi(conductor)} coordinates, "
                f"got {len(coords)}"
            )
        coords = [as_fraction(c) for c in coords]  # refuses floats
        den = math.lcm(*(c.denominator for c in coords))
        self._canonical(conductor, [c.numerator * (den // c.denominator) for c in coords], den)

    def _canonical(self, conductor: int, nums: list[int], den: int) -> "CycloElement":
        # The one constructor: sum_j nums[j] * z^j / den (den > 0), reduced by one gcd.
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __repr__(self) -> str:
        return f"CycloElement(conductor={self.conductor!r}, coords={self.coords!r})"

    @classmethod
    def zero(cls, conductor: int) -> "CycloElement":
        return cls.from_rational(conductor, 0)

    @classmethod
    def from_rational(cls, conductor: int, value) -> "CycloElement":
        return cls(conductor, [value] + [0] * (_phi(conductor) - 1))

    @classmethod
    def root_power(cls, conductor: int, k: int) -> "CycloElement":
        """The root of unity z^k."""
        _phi(conductor)  # guards the conductor
        return _element(conductor, _reduce(conductor, [0] * (k % conductor) + [1]), 1)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction | None:
        return Fraction(self.nums[0], self.den) if self.is_rational() else None

    def __add__(self, other: "CycloElement") -> "CycloElement":
        return _linear(self, other, 1)

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        return _linear(self, other, -1)

    def __neg__(self) -> "CycloElement":
        return _element(self.conductor, [-x for x in self.nums], self.den)

    def scale(self, factor) -> "CycloElement":
        factor = as_fraction(factor)
        n = factor.numerator
        return _element(self.conductor, [n * x for x in self.nums], self.den * factor.denominator)

    def __mul__(self, other: "CycloElement") -> "CycloElement":
        a, b = _common(self, other)
        ys = [(j, y) for j, y in enumerate(b.nums) if y]
        dense = [0] * (2 * len(a.nums) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in ys:
                    dense[i + j] += x * y
        return _element(a.conductor, _reduce(a.conductor, dense), a.den * b.den)

    def promote(self, conductor: int) -> "CycloElement":
        """Embed into the field of a larger conductor (a multiple of ours)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only promote to a multiple of the conductor")
        _phi(conductor)  # guards the conductor
        dense = [0] * conductor
        dense[:: conductor // self.conductor] = self.nums + (0,) * (self.conductor - len(self.nums))
        return _element(conductor, _reduce(conductor, dense), self.den)

    def numeric(self, dps: int = 50):
        """High-precision value sum_j nums[j] * cos(2*pi*j/conductor) / den (an mpf)."""
        import mpmath

        with mpmath.workdps(dps):
            w = 2 * mpmath.pi / self.conductor
            terms = (x * mpmath.cos(j * w) for j, x in enumerate(self.nums) if x)
            return mpmath.fsum(terms) / self.den


def _element(conductor: int, nums: list[int], den: int) -> CycloElement:
    """The element sum_j nums[j] * z^j / den (den > 0), in canonical form."""
    return object.__new__(CycloElement)._canonical(conductor, nums, den)


def _linear(a: CycloElement, b: CycloElement, sign: int) -> CycloElement:
    """a + sign*b over the lcm of the two denominators."""
    a, b = _common(a, b)
    den = math.lcm(a.den, b.den)
    ma, mb = den // a.den, sign * (den // b.den)
    return _element(a.conductor, [x * ma + y * mb for x, y in zip(a.nums, b.nums)], den)


def _common(a: CycloElement, b: CycloElement) -> tuple[CycloElement, CycloElement]:
    L = math.lcm(a.conductor, b.conductor)
    return a.promote(L), b.promote(L)


def cos_pi(angle: AngleFraction, conductor: int | None = None) -> CycloElement:
    """cos(pi*p/q) as an exact cyclotomic element.

    >>> cos_pi(AngleFraction(1, 3)).rational_value()
    Fraction(1, 2)
    """
    L = 2 * angle.q if conductor is None else conductor
    if L % (2 * angle.q):
        raise ValueError("conductor must be a multiple of twice the denominator")
    return _cosine_sum(L, ((1, angle),), 0)


@lru_cache(maxsize=512)
def _cos_row(L: int, k: int) -> tuple[tuple[int, int], ...]:
    """The nonzero power-basis coordinates (j, x) of z^k + z^-k at conductor L.

    For 0 <= k <= L/2.  Each row is reduced once, by `_reduce`, and kept: a
    cosine sum then adds a few rows instead of dividing a length-L vector
    by Phi_L.  The cache holds at most 512 rows.  Cosine conductors are even
    and at most `CONDUCTOR_LIMIT`, so a row has at most phi(L) <= 5,000
    entries; at about 92 bytes per entry (the pair, its slot and an index
    int above 256) a row takes at most 0.46 MB and a full cache at most
    about 235 MB.  Real rows are far sparser: at most 57 entries at any
    conductor up to 120 (7 at 120 itself), and 345 on average (879 at
    most) at 9,240.
    """
    dense = [0] * L
    dense[k] += 1
    dense[-k] += 1
    return tuple((j, x) for j, x in enumerate(_reduce(L, dense)) if x)


def _cosine_sum(L: int, pairs, rhs) -> CycloElement:
    """sum(c*cos(angle) for c, angle in pairs) - rhs at conductor L.

    Over D = lcm(denominators), c*cos(pi*p/q) = c*(z^k + z^-k)/2 adds the
    integer c*D times the row of z^k + z^-k (`_cos_row`, k folded into
    [0, L/2]) over the common denominator 2*D; L is guarded first.
    """
    out = [0] * _phi(L)  # guards L
    D = math.lcm(rhs.denominator, *(c.denominator for c, _ in pairs))
    out[0] = -2 * rhs.numerator * (D // rhs.denominator)
    for c, angle in pairs:
        n = c.numerator * (D // c.denominator)
        k = angle.p * (L // (2 * angle.q)) % L
        for j, x in _cos_row(L, min(k, L - k)):
            out[j] += n * x
    return _element(L, out, 2 * D)


@dataclass(frozen=True)
class CJTerm:
    """One term coeff * cos(angle) of a cosine relation."""

    coeff: Fraction
    angle: AngleFraction

    def __post_init__(self):
        object.__setattr__(self, "coeff", as_fraction(self.coeff))
        if self.coeff == 0:
            raise ValueError("zero coefficients are not terms")


@dataclass(frozen=True)
class CJRelation:
    """A formal relation sum_i coeff_i * cos(angle_i) = rhs."""

    terms: tuple[CJTerm, ...]
    rhs: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "rhs", as_fraction(self.rhs))

    @classmethod
    def make(cls, triples, rhs=0) -> "CJRelation":
        """Build from (coeff, p, q) triples."""
        return cls(tuple(CJTerm(c, AngleFraction(p, q)) for c, p, q in triples), rhs)

    def conductor(self) -> int:
        return math.lcm(*(2 * t.angle.q for t in self.terms))

    def describe(self) -> str:
        if not self.terms:
            return f"0 = {self.rhs}"
        parts = []
        for t in self.terms:
            sign = "+" if t.coeff > 0 else "-"
            mag = abs(t.coeff)
            coeff = "" if mag == 1 else f"{mag}*"
            num = "" if t.angle.p == 1 else str(t.angle.p)
            den = "" if t.angle.q == 1 else f"/{t.angle.q}"
            angle = "0" if t.angle.p == 0 else f"{num}pi{den}"
            parts.append(f"{sign} {coeff}cos({angle})")
        lhs = " ".join(parts).lstrip("+ ")
        return f"{lhs} = {self.rhs}"


def normalize(rel: CJRelation) -> CJRelation:
    """Fold all angles into [0, pi/2], merging terms and absorbing constants.

    Uses cos(pi - t) = cos(pi + t) to reach [0, pi] and
    cos(pi/2 + t) = -cos(pi/2 - t) to reach [0, pi/2], on the integers of
    each angle pi*p/q; angles 0 and pi/2 then leave the relation as
    constants or vanish, so the result has all angles strictly inside
    (0, pi/2) and the same exact value.
    """
    rhs = rel.rhs
    merged: dict[AngleFraction, Fraction] = {}
    for term in rel.terms:
        angle = term.angle.trace_canonical()
        p, q, coeff = angle.p, angle.q, term.coeff
        if 2 * p > q:
            p, coeff = q - p, -coeff
        if p == 0:
            rhs -= coeff
        elif 2 * p != q:
            key = AngleFraction(p, q)
            merged[key] = merged.get(key, 0) + coeff
    terms = tuple(CJTerm(c, a) for a, c in sorted(merged.items()) if c)
    return CJRelation(terms, rhs)


def eval_exact(rel: CJRelation) -> CycloElement:
    """Exact value of (sum of terms) - rhs in the least common cyclotomic field."""
    return _cosine_sum(rel.conductor(), [(t.coeff, t.angle) for t in rel.terms], rel.rhs)


def is_rational_relation(rel: CJRelation) -> Fraction | None:
    """The exact rational value of the term sum, or None if irrational."""
    return eval_exact(CJRelation(rel.terms)).rational_value()


# The minimal rational relations with at most four distinct angles strictly
# between 0 and pi/2.  Family 2 is the one-parameter family
# cos(t + pi/3) + cos(pi/3 - t) - cos(t) = 0 for 0 < t < pi/6, matched at
# t = the first angle; the rest are fixed, stored with angles ascending.
_FIXED_FAMILIES: dict[int, CJRelation] = {
    1: CJRelation.make([(1, 1, 3)], Fraction(1, 2)),
    3: CJRelation.make([(1, 1, 5), (-1, 2, 5)], Fraction(1, 2)),
    4: CJRelation.make([(1, 1, 7), (-1, 2, 7), (1, 3, 7)], Fraction(1, 2)),
    5: CJRelation.make([(-1, 1, 15), (1, 1, 5), (1, 4, 15)], Fraction(1, 2)),
    6: CJRelation.make([(1, 2, 15), (-1, 2, 5), (-1, 7, 15)], Fraction(1, 2)),
    7: CJRelation.make([(-1, 1, 21), (1, 1, 7), (1, 8, 21), (1, 3, 7)], Fraction(1, 2)),
    8: CJRelation.make([(1, 2, 21), (1, 1, 7), (-1, 5, 21), (-1, 2, 7)], Fraction(1, 2)),
    9: CJRelation.make([(1, 4, 21), (-1, 2, 7), (1, 3, 7), (1, 10, 21)], Fraction(1, 2)),
    10: CJRelation.make([(-1, 1, 15), (1, 2, 15), (1, 4, 15), (-1, 7, 15)], Fraction(1, 2)),
}


def t_family_instance(t: Fraction) -> CJRelation:
    """The three-term family member at parameter angle pi*t, 0 < t < 1/6."""
    t = as_fraction(t)
    if not (0 < t < Fraction(1, 6)):
        raise ValueError("parameter must satisfy 0 < t < 1/6")
    p, q = t.numerator, t.denominator  # pi/3 -+ pi*t = pi*(q -+ 3p)/(3q)
    return CJRelation.make([(-1, p, q), (1, q - 3 * p, 3 * q), (1, q + 3 * p, 3 * q)])


@dataclass(frozen=True)
class Classification:
    """Outcome of matching a relation against the known minimal families."""

    kind: str  # "family" | "reducible" | "empty" | "unclassified"
    family: int | None = None
    scale: Fraction | None = None
    t: Fraction | None = None


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q of integer row vectors, by fraction-free Gaussian elimination."""
    rows = list(rows)
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if c:
                rows[i] = [p[col] * x - c * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def _has_rational_proper_subset(terms: tuple[CJTerm, ...]) -> bool:
    """Whether a proper subset of the angles carries a rational relation.

    For the terms of a rationally valued relation with k distinct angles,
    1, cos(theta_1), ..., cos(theta_k) have rank at most k over Q.  A rank
    below k means a second, independent relation; eliminating an angle
    between the two leaves a rational relation on fewer angles, with any
    coefficients, not only the relation's own.  The rank comes from one
    exact elimination on the power-basis coordinates at the conductor.
    """
    L = CJRelation(terms).conductor()
    one = [1] + [0] * (_phi(L) - 1)
    rows = [one] + [cos_pi(t.angle, L).nums for t in terms]
    return _rank(rows) < len(terms)


def match_family(rel: CJRelation) -> Classification:
    """Identify which minimal family a relation that holds exactly scales to.

    The relation is normalized first; a relation whose angles carry another,
    independent rational relation (so some proper subset of its angles
    carries one) is reported as reducible rather than matched.  Raises
    ValueError if the term sum is irrational or differs from the right side.
    """
    nrel = normalize(rel)
    decided = _decide(nrel.terms)
    if decided is None or decided[0] != nrel.rhs:
        raise ValueError(f"relation does not hold exactly: {rel.describe()}")
    return decided[1]


def _decide(terms: tuple[CJTerm, ...]) -> tuple[Fraction, Classification] | None:
    """(term sum, classification) of terms in `normalize` form; None if irrational."""
    value = is_rational_relation(CJRelation(terms))
    if value is None:
        return None
    if not terms:
        return value, Classification("empty")
    if len(terms) > 1 and _has_rational_proper_subset(terms):
        return value, Classification("reducible")
    angles = tuple(t.angle for t in terms)
    candidates = [(index, fam, None) for index, fam in _FIXED_FAMILIES.items()]
    t1 = terms[0].angle.fraction
    if len(terms) == 3 and t1 < Fraction(1, 6):
        candidates.append((2, t_family_instance(t1), t1))
    for index, fam, t in candidates:
        if angles != tuple(f.angle for f in fam.terms):
            continue
        scale = terms[0].coeff / fam.terms[0].coeff
        if all(c.coeff == scale * f.coeff for c, f in zip(terms, fam.terms)):
            if value == scale * fam.rhs:
                return value, Classification("family", family=index, scale=scale, t=t)
    return value, Classification("unclassified")


def conway_jones_list(t: Fraction = Fraction(1, 12)) -> list[CJRelation]:
    """All ten minimal relations, with the parameterized family sampled at t."""
    return [t_family_instance(t) if i == 2 else _FIXED_FAMILIES[i] for i in range(1, 11)]


def _search_angles(max_q: int) -> list[AngleFraction]:
    """The angles pi*p/q in (0, pi/2) with q <= max_q, ascending."""
    return sorted(AngleFraction(p, q) for p, q in _reduced(max_q) if 2 * p < q)


def _half_sums(r: int, products: list[list[float]], firsts: list[int]):
    """Every r-term half as (angle indices, coefficient indices, float sum).

    ``products[i][j]`` is scaled coefficient j times the cosine of angle i;
    the first term takes only the coefficient indices in ``firsts``.  Angle
    indices ascend and the order is the brute-force one: combinations of
    angles, then coefficient assignments.
    """
    if r == 0:
        yield (), (), 0.0
        return
    heads = [[row[j] for j in firsts] for row in products]
    assignments = list(itertools.product(firsts, *[range(len(products[0]))] * (r - 1)))
    for idx in itertools.combinations(range(len(products)), r):
        rows = (heads[idx[0]], *(products[i] for i in idx[1:]))
        for asg, terms in zip(assignments, itertools.product(*rows)):
            yield idx, asg, sum(terms)


def _screen(
    n: int, max_terms: int, scaled: list[float], cos_values: list[float], tol: float, firsts
):
    """Every (k, combo, assignment) whose float sum lies within tol of an integer.

    Meet in the middle: a k-term combination splits into a left half of its
    first ceil(k/2) angles and a right half of the other floor(k/2), so each
    combination comes from exactly one pair of halves.  For each right-half
    size the halves are indexed by the fractional part of their sum; each
    left half, streamed and not stored, looks up the right halves whose
    fractional part lies within ``tol + slack`` of 1 - (its own fractional
    part), shifted by -1, 0 and +1.  The rounding that separates the two
    half sums and their fractional parts from the full sum is a few units in
    the last place of 1 + (the sum of the term magnitudes); ``slack`` is
    thousands of times that, so the windows hold every combination the full
    screen passes.  Overlapping windows visit a position once.  Each pair
    found is re-tested with the full screen expression, in combination
    order, and the passes come back sorted in the brute-force enumeration
    order, except those whose first coefficient index is not in ``firsts``:
    their left halves are never summed.  Under the sign rule of
    `bounded_search` that drops each R whose negation -R comes earlier in
    that order, and -R passes exactly when R does (floats negate exactly,
    and ``round`` is symmetric).
    """
    max_terms = min(max_terms, n)  # no index for halves of combinations that cannot exist
    slack = 2.0**-40 * (1 + max_terms * max(map(abs, scaled)))
    width = tol + slack
    products = [[s * v for s in scaled] for v in cos_values]
    # Right halves, sorted stably by fractional part, so ties keep enumeration
    # order.  Plain lists are enough: under the search guards (max_q <= 30, at
    # most 20,000,000 combinations) a table holds at most 25,350 halves (65
    # coefficients over the 4 angles of max_q=5: C(4, 2) * 65**2), and 11,100
    # with two coefficients (over 75 angles).  The benchmark's searches build
    # 2,380 (max_q=15, coefficients (1, -1)) and 1,620 (max_q=8, the default six).
    every = list(range(len(scaled)))
    index = {}
    for r in range(max_terms // 2 + 1):
        halves = [(idx, asg, h % 1.0) for idx, asg, h in _half_sums(r, products, every)]
        halves.sort(key=itemgetter(2))
        index[r] = [half[2] for half in halves], halves
    passes = []
    for k in range(1, max_terms + 1):
        keys, halves = index[k // 2]
        for left, left_asg, h in _half_sums((k + 1) // 2, products, firsts):
            t = 1.0 - h % 1.0
            seen = 0
            for centre in (t - 1.0, t, t + 1.0):
                if centre + width < 0.0 or centre - width > 1.0:
                    continue  # the keys lie in [0, 1]
                lo = bisect_left(keys, centre - width, seen)
                seen = bisect_right(keys, centre + width, lo)
                for pos in range(lo, seen):
                    right, right_asg, _ = halves[pos]
                    if right and right[0] <= left[-1]:
                        continue
                    combo, assignment = left + right, left_asg + right_asg
                    base = [cos_values[i] for i in combo]
                    x = sum(scaled[j] * v for j, v in zip(assignment, base))
                    if abs(x - round(x)) <= tol:
                        passes.append((k, combo, assignment))
    passes.sort()
    return passes


def bounded_search(
    max_q: int,
    max_terms: int = 4,
    coeff_set: tuple = (1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2),
) -> list[tuple[CJRelation, Classification]]:
    """All minimal rational relations with distinct angles pi*p/q in (0, pi/2).

    Two stages: a double-precision screen, then one exact decision per
    proportional class (`_decide`: value, minimality and family together,
    in cyclotomic arithmetic, on candidates already in normal form).  A
    ``reducible`` candidate (one whose angles carry another, independent
    rational relation) is dropped.  Proportional duplicates keep their
    first-enumerated representative, in the order combinations of angles,
    then coefficient assignments, by increasing term count: only the first
    screen pass of a class, keyed by (angle, coefficient / first
    coefficient), reaches the exact stage, as rationality and reducibility
    are the same for every multiple.  Sign
    rule: scaling by -1 is the only scaling that can map a finite set of
    nonzero rationals onto itself (``max|l*s| = |l|*max|s|``), so when
    ``coeff_set`` is closed under negation the screen leaves out each
    combination whose first coefficient has its negation listed earlier;
    -R, met first, stands for R.

    The screen is a lattice test.  2*cos(pi*p/q) is an algebraic integer,
    so if every coefficient denominator divides D, a rationally valued
    combination is a rational algebraic integer, hence an integer, over
    2*D: its value s lies in Z/(2*D).  With ``lattice = 2*lcm(coefficient
    denominators)`` a candidate passes when ``abs(lattice*s -
    round(lattice*s)) <= lattice*1e-9``, an absolute tolerance of 1e-9 on s.
    A float coincidence that passes can only be rejected by the exact
    stage, or make it raise `ConductorLimitError`; it never yields a wrong
    result.  On the largest searches the guards admit with coefficients
    (1, -1) or the default set, no irrational candidate comes closer to
    its lattice than 1.9e-8.

    The screen does not visit the combinations one by one.  It meets in the
    middle (`_screen`): halves of at most two signed terms, the right ones
    sorted by the fractional part of ``lattice`` times their sum, and one
    window lookup per left half.  It passes exactly the combinations the
    one-by-one screen passes, and hands them on in the same order.

    Guards: ``max_q <= 30`` and at most 20,000,000 combinations, the sum
    over k <= max_terms of C(n, k) * len(coeff_set)**k for n angles; the
    latter rejects ``max_q=30`` with coefficients (1, -1) (234,875,816).
    The combination guard is kept for correctness, not time: beyond it,
    float coincidences pass the screen whose exact conductor exceeds
    `CONDUCTOR_LIMIT`, so the exact stage raises `ConductorLimitError`:
    with coefficients (1, -1) from ``max_q=25`` (cos(2pi/17) + cos(4pi/23)
    + cos(5pi/19) + cos(8pi/25) is 1.1e-9 from Z/2, at conductor 371,450),
    and with the default set from ``max_q=19``.
    A third guard, checked exactly before any float is formed, refuses
    ``lattice * max(1, min(max_terms, n) * max|c|) > sys.float_info.max``,
    where the lattice or the screen sums would leave the double range.

    Coefficients are bounded, ``max|c| <= 10**5``, so that rounding cannot
    push a true relation out of the screen.  With u = 2**-53, each of the k
    <= 4 terms ``lattice*float(c) * cos(pi*p/q)`` is off by at most about
    9*u*T, T = lattice*max|c| (u each for float(c), the product with
    lattice and the product with the cosine; about 6*u for the cosine,
    whose argument pi*p/q is three roundings from exact), and summing k
    terms adds at most (k - 1)*k*u*T.  That is at most (10 + k)*k*u*T,
    56*u*T = 6.2e-15*T for k = 4, which stays below ``tol = lattice*1e-9``
    while max|c| < 1.6e5.  Far beyond it the screen drops true relations:
    (10**8, -10**8) at ``max_q=10`` would lose family 1.
    """
    if max_q > 30:
        raise ValueError("search is desk-scale only: max_q <= 30")
    if not (1 <= max_terms <= 4):
        raise ValueError("max_terms must be between 1 and 4")
    coeffs = tuple(as_fraction(c) for c in coeff_set)
    if not coeffs or any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero, and at least one is needed")
    if max(map(abs, coeffs)) > 10**5:
        raise ValueError("coefficients must be at most 10**5 in absolute value")
    angles = _search_angles(max_q)
    n = len(angles)
    total = sum(
        math.comb(n, k) * len(coeffs) ** k for k in range(1, max_terms + 1)
    )
    if total > 20_000_000:
        raise ValueError(f"search space of {total} combinations exceeds desk scale")
    lattice = 2 * math.lcm(*(c.denominator for c in coeffs))
    if lattice * max(1, min(max_terms, n) * max(map(abs, coeffs))) > sys.float_info.max:
        raise ValueError("coefficients too wide for the screen: its sums leave the double range")
    cos_values = [a.cos() for a in angles]
    scaled = [lattice * float(c) for c in coeffs]
    tol = lattice * 1e-9

    negation_closed = set(coeffs) == {-c for c in coeffs}
    firsts = [j for j, c in enumerate(coeffs) if not (negation_closed and -c in coeffs[:j])]

    results: list[tuple[CJRelation, Classification]] = []
    decided: set = set()
    for _, combo, assignment in _screen(n, max_terms, scaled, cos_values, tol, firsts):
        terms = tuple(CJTerm(coeffs[j], angles[i]) for j, i in zip(assignment, combo))
        lead = terms[0].coeff
        key = tuple((t.angle, t.coeff / lead) for t in terms)
        if key in decided:
            continue
        decided.add(key)
        outcome = _decide(terms)
        if outcome is None or outcome[1].kind == "reducible":
            continue
        value, cls = outcome
        results.append((CJRelation(terms, value), cls))
    return results


def eqcos_residual(
    B,
    thetas: tuple[AngleFraction, AngleFraction, AngleFraction, AngleFraction],
) -> Fraction | CycloElement:
    """Exact residual of the finite-orbit cosine equation.

    ``B`` is an exact-mode `surface.BoundaryTraces`.  For angle data
    (theta_x, theta_y, theta_z, theta_xy) the equation reads

        cos(theta_xy) + cos(theta_z + theta_y) + cos(theta_z - theta_y)
            + cos(theta_x)  =  sigma_x / 2,

    and this returns the left side minus the right side: a Fraction when
    the value is rational (so zero means the equation holds), otherwise
    the cyclotomic element itself.  When the residual vanishes the
    underlying trace identity 2cos(theta_xy) = sigma_x
    - 2cos(theta_y)*2cos(theta_z) - 2cos(theta_x) is re-checked exactly.
    """
    if B.mode != EXACT:
        raise MixedModeError("sigma_x must be exactly rational; use exact-mode boundary traces")
    theta_x, theta_y, theta_z, theta_xy = thetas
    angles = (theta_xy, theta_z + theta_y, theta_z - theta_y, theta_x)
    L = math.lcm(*(2 * a.q for a in angles))
    value = _cosine_sum(L, [(1, a) for a in angles], B.sigma_x / 2)
    if value.is_zero():
        L = math.lcm(L, 2 * theta_y.q, 2 * theta_z.q)
        product = cos_pi(theta_y, L) * cos_pi(theta_z, L)  # guards L
        # 2cos(theta_xy) + 2cos(theta_x) - sigma_x + 2cos(theta_y)*2cos(theta_z)
        linear = _cosine_sum(L, ((2, theta_xy), (2, theta_x)), B.sigma_x)
        if not (linear + product.scale(4)).is_zero():
            raise RuntimeError("trace identity cross-check failed")
    rational = value.rational_value()
    return rational if rational is not None else value
