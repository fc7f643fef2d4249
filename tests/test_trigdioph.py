import dataclasses
import functools
import itertools
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import tracetwist
from tracetwist.trigdioph import (
    CONDUCTOR_LIMIT,
    _cos_row,
    _cosine_sum,
    _has_rational_proper_subset,
    _screen,
    _search_angles,
)
from tracetwist import (
    AngleFraction,
    BoundaryTraces,
    CJRelation,
    CJTerm,
    Classification,
    ConductorLimitError,
    CycloElement,
    MixedModeError,
    bounded_search,
    conway_jones_list,
    cos_pi,
    cyclotomic_poly,
    eqcos_residual,
    eval_exact,
    exceptional_family,
    is_in_F,
    is_rational_relation,
    match_family,
    minimality_criterion,
    normalize,
    t_family_instance,
)


def test_cyclotomic_poly_known():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # degrees are Euler phi
    assert len(cyclotomic_poly(30)) - 1 == 8
    assert len(cyclotomic_poly(105)) - 1 == 48
    for n in range(1, 601):
        assert cyclotomic_poly(n) == _ref_cyclotomic(n), n
    # highly composite conductors inside the guard, and the guard itself
    for n in (5040, 7560, 9240, 9999, CONDUCTOR_LIMIT):
        totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(cyclotomic_poly(n)) - 1 == totient, n


# Reference: the former construction, z^n - 1 divided exactly by Phi_d for
# every proper divisor d of n, each Phi_d built the same way.
@functools.lru_cache(maxsize=None)
def _ref_cyclotomic(n):
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = _ref_cyclotomic(d)
        dn = len(den) - 1
        out = [0] * (len(num) - dn)
        for i in range(len(num) - 1, dn - 1, -1):
            c = num[i]
            if c:
                out[i - dn] = c
                for j in range(dn + 1):
                    num[i - dn + j] -= c * den[j]
        assert not any(num)
        num = out
    return tuple(num)


def test_cold_cyclotomic_poly_builds_one_polynomial():
    # the divisor recursion cached Phi_d for all 64 divisors d of 9240 and
    # took seconds; the Moebius product builds Phi_9240 alone
    cyclotomic_poly.cache_clear()
    phi = cyclotomic_poly(9240)
    assert cyclotomic_poly.cache_info().currsize == 1
    assert len(phi) - 1 == 1920


def test_root_power_and_numeric():
    z = CycloElement.root_power(12, 1)
    value = complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    assert float(z.numeric()) == pytest.approx(value.real)
    # the real cosine sum, not the real part of a complex one
    assert isinstance(z.numeric(), mpmath.mpf)
    # z^12 = 1 exactly after reduction
    total = CycloElement.from_rational(12, 1)
    for _ in range(12):
        total = total * z
    assert total.rational_value() == 1


def test_cos_pi_values():
    assert cos_pi(AngleFraction(1, 3)).rational_value() == Fraction(1, 2)
    assert cos_pi(AngleFraction(1, 2)).rational_value() == 0
    assert cos_pi(AngleFraction(1, 1)).rational_value() == -1
    assert cos_pi(AngleFraction(0, 1)).rational_value() == 1
    assert cos_pi(AngleFraction(1, 5)).rational_value() is None


def test_promote_consistency():
    a = cos_pi(AngleFraction(1, 3))
    b = a.promote(30)
    assert b.conductor == 30
    assert b.rational_value() == Fraction(1, 2)


def test_normalize_supplement():
    rel = CJRelation.make([(1, 2, 3)], 0)  # cos(2pi/3)
    out = normalize(rel)
    assert out.terms == (CJTerm(Fraction(-1), AngleFraction(1, 3)),)
    assert out.rhs == 0


def test_normalize_absorbs_constants():
    rel = CJRelation.make([(1, 0, 1), (1, 1, 4)], Fraction(3, 2))
    out = normalize(rel)
    assert out.terms == (CJTerm(Fraction(1), AngleFraction(1, 4)),)
    assert out.rhs == Fraction(1, 2)
    # an angle of pi/2 simply vanishes
    out = normalize(CJRelation.make([(5, 1, 2)], 0))
    assert out.terms == ()


def test_normalize_cancellation():
    rel = CJRelation.make([(1, 3, 5), (1, 2, 5)], 0)
    out = normalize(rel)
    assert out.terms == () and out.rhs == 0
    assert eval_exact(rel).is_zero()


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=1, max_value=6),
        ),
        max_size=4,
    ),
    st.sampled_from([0, Fraction(1, 2), -2]),
)
def test_normalize_preserves_exact_value(triples, rhs):
    rel = CJRelation(
        tuple(CJTerm(Fraction(c), AngleFraction(p, q)) for c, p, q in triples),
        Fraction(rhs),
    )
    assert (eval_exact(rel) - eval_exact(normalize(rel))).is_zero()


def test_eval_exact_examples():
    assert eval_exact(CJRelation.make([(1, 1, 3)], Fraction(1, 2))).is_zero()
    assert eval_exact(
        CJRelation.make([(1, 1, 5), (-1, 2, 5)], Fraction(1, 2))
    ).is_zero()
    residual = eval_exact(CJRelation.make([(1, 1, 7)], Fraction(1, 2)))
    assert not residual.is_zero()
    assert float(residual.numeric()) == pytest.approx(math.cos(math.pi / 7) - 0.5)


def test_is_rational_relation():
    triple = CJRelation.make([(1, 1, 7), (-1, 2, 7), (1, 3, 7)], 0)
    assert is_rational_relation(triple) == Fraction(1, 2)
    assert is_rational_relation(CJRelation.make([(1, 1, 5)], 0)) is None
    assert is_rational_relation(CJRelation((), Fraction(0))) == 0


def test_whole_list_is_exactly_zero():
    for rel in conway_jones_list():
        assert eval_exact(rel).is_zero()


def test_whole_list_crosschecks_at_fifty_digits():
    for rel in conway_jones_list():
        assert abs(_numeric_direct(rel)) < mpmath.mpf(10) ** -40


def test_t_family_instances_vanish():
    for t in (Fraction(1, 12), Fraction(1, 15), Fraction(1, 9), Fraction(2, 15), Fraction(1, 7)):
        assert eval_exact(t_family_instance(t)).is_zero()
    with pytest.raises(ValueError):
        t_family_instance(Fraction(1, 6))


def _fraction_fold(rel):
    """Reference `normalize`: the fold on Fraction multiples of pi that it replaced."""
    rhs = rel.rhs
    merged = {}
    for term in rel.terms:
        t = term.angle.trace_canonical().fraction
        coeff = term.coeff
        if t > Fraction(1, 2):
            t = 1 - t
            coeff = -coeff
        if t == 0:
            rhs -= coeff
            continue
        if t == Fraction(1, 2):
            continue
        key = AngleFraction.from_fraction(t)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    terms = tuple(CJTerm(c, a) for a, c in sorted(merged.items()) if c)
    return CJRelation(terms, rhs)


def _fraction_t_family(t):
    """Reference `t_family_instance`: family 2 built from Fraction(1, 3) -+ t."""
    third = Fraction(1, 3)
    return CJRelation(
        (
            CJTerm(Fraction(-1), AngleFraction.from_fraction(t)),
            CJTerm(Fraction(1), AngleFraction.from_fraction(third - t)),
            CJTerm(Fraction(1), AngleFraction.from_fraction(third + t)),
        ),
        Fraction(0),
    )


# Angles pi*p/q with q <= 60: 0, pi/2, pi and 3pi/2 explicitly, then any p in
# [0, 4q), so past pi and past 2pi (which AngleFraction reduces) too.
_fold_angles = st.one_of(
    st.sampled_from([(0, 1), (1, 2), (1, 1), (3, 2)]),
    st.integers(1, 60).flatmap(lambda q: st.tuples(st.integers(0, 4 * q - 1), st.just(q))),
)
_fold_coeffs = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 7)])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_fold_coeffs, _fold_angles), max_size=6),
    st.sampled_from([0, Fraction(1, 2), -2]),
)
def test_normalize_matches_the_fraction_fold(terms, rhs):
    # Repeating each term's reflection cos(pi - t) = -cos(t) exercises merging and cancellation.
    terms = terms + [(-c, (q - p, q)) for c, (p, q) in terms[:2]]
    rel = CJRelation.make([(c, p, q) for c, (p, q) in terms], rhs)
    out, ref = normalize(rel), _fraction_fold(rel)
    assert out == ref and repr(out) == repr(ref)


def test_t_family_instance_matches_the_fraction_construction():
    # every reduced p/q in (0, 1/6) with q <= 120
    for q in range(7, 121):
        for p in range(1, q):
            if math.gcd(p, q) == 1 and 6 * p < q:
                rel, ref = t_family_instance(Fraction(p, q)), _fraction_t_family(Fraction(p, q))
                assert rel == ref and repr(rel) == repr(ref)
                assert eval_exact(rel).is_zero()


def _hand_built(t, second, third):
    """The ten relations written out term by term; family 2 at angles t, second, third."""
    half = Fraction(1, 2)

    def rel(terms, rhs=half):
        terms = tuple(CJTerm(Fraction(c), AngleFraction(p, q)) for c, p, q in terms)
        return CJRelation(terms, rhs)

    return [
        rel([(1, 1, 3)]),
        rel([(-1, t.numerator, t.denominator), (1, *second), (1, *third)], Fraction(0)),
        rel([(1, 1, 5), (-1, 2, 5)]),
        rel([(1, 1, 7), (-1, 2, 7), (1, 3, 7)]),
        rel([(-1, 1, 15), (1, 1, 5), (1, 4, 15)]),
        rel([(1, 2, 15), (-1, 2, 5), (-1, 7, 15)]),
        rel([(-1, 1, 21), (1, 1, 7), (1, 8, 21), (1, 3, 7)]),
        rel([(1, 2, 21), (1, 1, 7), (-1, 5, 21), (-1, 2, 7)]),
        rel([(1, 4, 21), (-1, 2, 7), (1, 3, 7), (1, 10, 21)]),
        rel([(-1, 1, 15), (1, 2, 15), (1, 4, 15), (-1, 7, 15)]),
    ]


@pytest.mark.parametrize(
    "t, second, third",
    [
        (Fraction(1, 12), (1, 4), (5, 12)),
        (Fraction(2, 15), (1, 5), (7, 15)),
        (Fraction(1, 4620), (513, 1540), (1541, 4620)),
    ],
)
def test_conway_jones_list_is_the_ten_relations_by_hand(t, second, third):
    assert conway_jones_list(t) == _hand_built(t, second, third)
    assert repr(conway_jones_list(t)) == repr(_hand_built(t, second, third))


def test_match_family_examples():
    cls = match_family(CJRelation.make([(1, 1, 5), (-1, 2, 5)], Fraction(1, 2)))
    assert cls.kind == "family" and cls.family == 3

    cls = match_family(CJRelation.make([(2, 1, 3)], 1))
    assert cls.kind == "family" and cls.family == 1 and cls.scale == 2

    # the true neighbour of a false relation in the refusal test below
    cls = match_family(CJRelation.make([(1, 0, 1), (1, 1, 3)], Fraction(3, 2)))
    assert cls.kind == "family" and cls.family == 1 and cls.scale == 1

    cls = match_family(
        CJRelation.make([(1, 5, 12), (1, 1, 4), (-1, 1, 12)], 0)
    )
    assert cls.kind == "family" and cls.family == 2 and cls.t == Fraction(1, 12)


def test_match_family_reducible_and_errors():
    rel = CJRelation.make([(1, 1, 3), (1, 1, 5), (-1, 2, 5)], 1)
    assert match_family(rel).kind == "reducible"
    assert match_family(CJRelation((), 0)).kind == "empty"
    with pytest.raises(ValueError):
        match_family(CJRelation.make([(1, 1, 5)], 0))


@pytest.mark.parametrize(
    "triples, rhs",
    [
        ([(1, 1, 3)], 7),
        ([(1, 0, 1), (1, 1, 3)], Fraction(1, 2)),
        ([], 3),
        ([(1, 1, 5), (-1, 2, 5)], 0),
        ([(1, 5, 12), (1, 1, 4), (-1, 1, 12)], 1),
    ],
)
def test_match_family_refuses_relations_that_do_not_hold(triples, rhs):
    # each term sum is rational, but not the right side
    rel = CJRelation.make(triples, rhs)
    assert not eval_exact(rel).is_zero()
    with pytest.raises(ValueError, match="does not hold exactly"):
        match_family(rel)


def test_describe_prints_angles_zero_and_pi_plainly():
    rel = CJRelation.make([(1, 0, 1), (1, 1, 3)], Fraction(1, 2))
    assert rel.describe() == "cos(0) + cos(pi/3) = 1/2"
    assert CJRelation.make([(2, 1, 1), (-1, 5, 3)], 1).describe() == "2*cos(pi) - cos(5pi/3) = 1"
    with pytest.raises(ValueError, match=re.escape("exactly: cos(0) + cos(pi/3) = 1/2")):
        match_family(rel)


def test_match_family_negated_instance():
    cls = match_family(CJRelation.make([(-1, 1, 5), (1, 2, 5)], Fraction(-1, 2)))
    assert cls.kind == "family" and cls.family == 3 and cls.scale == -1


def test_bounded_search_small():
    found = bounded_search(7, 4, (1, -1))
    described = {rel.describe() for rel, _ in found}
    assert "cos(pi/7) - cos(2pi/7) + cos(3pi/7) = 1/2" in described
    assert "cos(pi/5) - cos(2pi/5) = 1/2" in described
    assert "cos(pi/3) = 1/2" in described
    assert all(cls.kind == "family" for _, cls in found)
    # post-hoc: outputs are rationally valued and minimal
    for rel, _ in found:
        assert is_rational_relation(rel) == rel.rhs
        assert not _has_rational_proper_subset(rel.terms)


def test_bounded_search_one_term():
    found = bounded_search(4, 1, (1,))
    assert len(found) == 1
    rel, cls = found[0]
    assert rel.describe() == "cos(pi/3) = 1/2"
    assert cls.family == 1


def test_bounded_search_guards():
    with pytest.raises(ValueError):
        bounded_search(31)
    with pytest.raises(ValueError):
        bounded_search(30, 4, tuple(Fraction(n, 7) for n in range(-20, 21) if n))
    with pytest.raises(ValueError, match="at least one"):
        bounded_search(5, 4, ())


def test_bounded_search_large_coefficients_find_the_unit_relations():
    def signature(coeffs):
        return [(cls.kind, cls.family, cls.t) for _, cls in bounded_search(15, 4, coeffs)]

    assert signature((10**5, -10**5)) == signature((1, -1))


@pytest.mark.parametrize("coeffs", [(10**8, -10**8), (1, Fraction(10**5) + Fraction(1, 3))])
def test_bounded_search_refuses_coefficients_beyond_the_screen_bound(coeffs):
    # (10**8, -10**8) at max_q=10 lost family 1 to rounding in the float screen
    with pytest.raises(ValueError, match=r"10\*\*5"):
        bounded_search(10, 4, coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, Fraction(1, 10**400)),
        (10**5, Fraction(1, 10**303)),
        (Fraction(1, 10**400),),
    ],
    ids=["lattice-beyond-doubles", "sums-beyond-doubles", "lone-tiny-coefficient"],
)
def test_bounded_search_refuses_screens_beyond_the_double_range(coeffs):
    # these leaked an OverflowError from the float screen: `lattice * float(c)`
    # took the lattice past the doubles, or `round` met an infinite sum
    with pytest.raises(ValueError, match="double range"):
        bounded_search(5, 4, coeffs)


def test_bounded_search_takes_a_fine_coefficient_inside_the_double_range():
    found = bounded_search(5, 4, (1, Fraction(1, 10**303)))
    assert [(rel.describe(), cls.family) for rel, cls in found] == [("cos(pi/3) = 1/2", 1)]


def test_bounded_search_keeps_large_coefficient_denominators():
    # the value 1/10002 has a denominator above 10,000
    found = bounded_search(3, 1, (Fraction(1, 5001),))
    assert len(found) == 1
    rel, cls = found[0]
    assert rel.describe() == "1/5001*cos(pi/3) = 1/10002"
    assert cls.kind == "family" and cls.family == 1


def _exhaustive_search(max_q, max_terms, coeffs):
    # every combination decided exactly, with no float screen
    fractions = {Fraction(p, q) for q in range(3, max_q + 1) for p in range(1, (q + 1) // 2)}
    angles = [AngleFraction.from_fraction(t) for t in sorted(fractions)]
    keys = set()
    for k in range(1, max_terms + 1):
        for combo in itertools.combinations(angles, k):
            for assignment in itertools.product(coeffs, repeat=k):
                terms = tuple(CJTerm(Fraction(c), a) for c, a in zip(assignment, combo))
                value = is_rational_relation(CJRelation(terms, Fraction(0)))
                if value is None:
                    continue
                rel = CJRelation(terms, value)
                if match_family(rel).kind != "reducible":
                    keys.add(_proportional_key(rel))
    return keys


def _proportional_key(rel):
    lead = rel.terms[0].coeff
    return tuple((t.angle, t.coeff / lead) for t in rel.terms), rel.rhs / lead


@pytest.mark.parametrize(
    "max_q, max_terms, coeffs",
    [(6, 4, (1, -1)), (5, 3, (1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2))],
)
def test_bounded_search_screen_is_exhaustive(max_q, max_terms, coeffs):
    found = bounded_search(max_q, max_terms, coeffs)
    keys = [_proportional_key(rel) for rel, _ in found]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _exhaustive_search(max_q, max_terms, coeffs)


def _screen_inputs(max_q, coeffs):
    coeffs = tuple(Fraction(c) for c in coeffs)
    angles = _search_angles(max_q)
    lattice = 2 * math.lcm(*(c.denominator for c in coeffs))
    scaled = [lattice * float(c) for c in coeffs]
    return coeffs, angles, [a.cos() for a in angles], scaled, lattice * 1e-9


def _brute_force_screen(n, max_terms, scaled, cos_values, tol):
    # the one-combination-at-a-time float screen that _screen replaced
    passes = []
    for k in range(1, max_terms + 1):
        for combo in itertools.combinations(range(n), k):
            base = [cos_values[i] for i in combo]
            for assignment in itertools.product(range(len(scaled)), repeat=k):
                x = sum(scaled[j] * v for j, v in zip(assignment, base))
                if abs(x - round(x)) <= tol:
                    passes.append((k, combo, assignment))
    return passes


def _brute_force_search(max_q, max_terms, coeffs):
    # the brute-force screen followed by the same exact stage
    coeffs, angles, cos_values, scaled, tol = _screen_inputs(max_q, coeffs)
    results, seen_keys = [], set()
    for _, combo, assignment in _brute_force_screen(len(angles), max_terms, scaled, cos_values, tol):
        terms = tuple(CJTerm(coeffs[j], angles[i]) for j, i in zip(assignment, combo))
        value = is_rational_relation(CJRelation(terms, Fraction(0)))
        if value is None:
            continue
        found = CJRelation(terms, value)
        key = _proportional_key(found)
        if key in seen_keys:
            continue
        cls = match_family(found)
        if cls.kind != "reducible":
            seen_keys.add(key)
            results.append((found, cls))
    return results


_DEFAULT_COEFFS = (1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2)
_WIDE_LATTICE = (1, -1, Fraction(1, 1000))  # tol 2e-6
# lattices so wide that the screen's tolerance on the scaled sum (0.6, 1.4
# and 2) lets its windows overlap, so each right half must be visited once
_WIDER_THAN_ONE = [
    (4, (1, -1, Fraction(1, 3 * 10**8))),
    (6, (Fraction(1, 7 * 10**8), -1)),
    (5, (1, Fraction(1, 10**9))),
]


# coefficient orders for the sign rule: three sets closed under negation, one
# of them with a repeated value, and two sets that are not closed
_SIGN_ORDERS = ((-1, 1), (-2, -1, 1, 2), (1, 1, -1), (1, 2, -1), (1, -1, -2))


@pytest.mark.parametrize(
    "max_q, coeffs",
    [(q, (1, -1)) for q in range(3, 16)]
    + [(q, _DEFAULT_COEFFS) for q in range(3, 10)]
    + [(q, _WIDE_LATTICE) for q in range(3, 8)]
    + [(q, coeffs) for coeffs in _SIGN_ORDERS for q in (5, 8, 11)]
    + _WIDER_THAN_ONE,
)
def test_bounded_search_matches_brute_force(max_q, coeffs):
    # same results in the same order, so the same first-enumerated representatives
    assert repr(bounded_search(max_q, 4, coeffs)) == repr(_brute_force_search(max_q, 4, coeffs))


def _sign_rule_firsts(coeffs):
    # the first coefficients a pass may have: all, unless the set is closed
    # under negation, when c goes if -c is listed before it
    if set(coeffs) != {-c for c in coeffs}:
        return list(range(len(coeffs)))
    return [j for j, c in enumerate(coeffs) if -c not in coeffs[:j]]


@pytest.mark.parametrize(
    "max_q, max_terms, coeffs",
    [(12, 4, (1, -1)), (8, 4, _DEFAULT_COEFFS), (7, 4, _WIDE_LATTICE), (9, 3, (1,)),
     (6, 2, (Fraction(1, 5001), -1)), (4, 4, tuple(range(-20, 0)) + tuple(range(1, 21))),
     (9, 4, (1, 2, -1)), (9, 4, (1, -1, -2)), (9, 4, (-2, -1, 1, 2)), (9, 4, (1, 1, -1)),
     (4, 4, (1, -1, Fraction(1, 3 * 10**8))), (6, 3, (Fraction(1, 7 * 10**8), -1)),
     (5, 4, (1, Fraction(1, 10**9)))],
)
def test_screen_passes_the_brute_force_set_in_its_order(max_q, max_terms, coeffs):
    coeffs, angles, cos_values, scaled, tol = _screen_inputs(max_q, coeffs)
    args = (len(angles), max_terms, scaled, cos_values, tol)
    firsts = _sign_rule_firsts(coeffs)
    expected = [p for p in _brute_force_screen(*args) if p[2][0] in firsts]
    assert _screen(*args, firsts) == expected


@pytest.mark.parametrize(
    "args, decisions", [((15, 4, (1, -1)), 26), ((8, 4), 23), ((15, 4, (1, -1, -2)), 46)]
)
def test_bounded_search_decides_each_proportional_class_once(monkeypatch, args, decisions):
    # the two perfbench searches and the asymmetric CI one: the brute-force
    # screen passes 26, 23 and 46 proportional classes, all rational, and
    # each gets one exact decision, with one exact evaluation and no second
    # normalization or classification through match_family
    trigdioph = tracetwist.trigdioph
    decide, exact = trigdioph._decide, trigdioph.is_rational_relation
    decided, exact_calls = [], []

    def counted_decide(terms):
        decided.append(terms)
        return decide(terms)

    def counted_exact(rel):
        exact_calls.append(rel)
        return exact(rel)

    def refused(*_):
        raise AssertionError("bounded_search must not call match_family or normalize")

    monkeypatch.setattr(trigdioph, "_decide", counted_decide)
    monkeypatch.setattr(trigdioph, "is_rational_relation", counted_exact)
    monkeypatch.setattr(trigdioph, "match_family", refused)
    monkeypatch.setattr(trigdioph, "normalize", refused)
    bounded_search(*args)
    assert len(decided) == len(exact_calls) == decisions
    keys = {_proportional_key(CJRelation(terms))[0] for terms in decided}
    assert len(keys) == decisions


@pytest.mark.parametrize(
    "args",
    [(15, 4, (1, -1)), (8, 4)] + [(11, 4, coeffs) for coeffs in _SIGN_ORDERS],
)
def test_bounded_search_decides_only_normal_forms(monkeypatch, args):
    # _decide takes terms in normal form; the search builds them so
    trigdioph = tracetwist.trigdioph
    decide, seen = trigdioph._decide, []

    def checked_decide(terms):
        rel = CJRelation(terms)
        assert normalize(rel) == rel
        seen.append(terms)
        return decide(terms)

    monkeypatch.setattr(trigdioph, "_decide", checked_decide)
    bounded_search(*args)
    assert seen


def test_bounded_search_largest_pm1_input_is_classified():
    # the largest (1, -1) search the combination guard admits (19M combinations)
    found = bounded_search(22, 4, (1, -1))
    assert found and all(cls.kind == "family" for _, cls in found)
    with pytest.raises(ValueError, match="desk scale"):
        bounded_search(23, 4, (1, -1))


def test_split_coefficient_relation_is_reducible():
    # [cos(pi/15) - cos(4pi/15) - cos(2pi/5) = 0] + [cos(pi/5) - cos(2pi/5) = 1/2];
    # no sub-sum with the relation's own coefficients is rational
    rel = CJRelation.make([(1, 1, 15), (1, 1, 5), (-1, 4, 15), (-2, 2, 5)], Fraction(1, 2))
    assert is_rational_relation(rel) == Fraction(1, 2)
    assert match_family(rel).kind == "reducible"
    assert _has_rational_proper_subset(normalize(rel).terms)


def test_search_with_split_coefficients_has_no_unclassified_result():
    found = bounded_search(15, 4, (1, -1, -2))
    assert found and all(cls.kind == "family" for _, cls in found)


@pytest.mark.parametrize("t", [Fraction(1, 12), Fraction(1, 15), Fraction(1, 9), Fraction(2, 15)])
def test_conway_jones_list_is_minimal(t):
    for index, rel in enumerate(conway_jones_list(t), start=1):
        assert not _has_rational_proper_subset(rel.terms)
        cls = match_family(rel)
        assert cls.kind == "family" and cls.family == index


def test_package_import_leaves_mpmath_unloaded():
    src = str(Path(tracetwist.__file__).resolve().parents[1])
    # nor the array extension, which no module of the package imports
    code = "import sys, tracetwist, tracetwist.cli; print('mpmath' in sys.modules, 'array' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"


def test_conductor_guard():
    with pytest.raises(ConductorLimitError):
        eval_exact(CJRelation.make([(1, 1, 5001)], 0))
    with pytest.raises(ConductorLimitError):
        cos_pi(AngleFraction(1, 3), 12_000)
    # theta_x = pi/5003 puts the conductor at lcm(2*5003, 4) = 20,012
    half = AngleFraction(1, 2)
    thetas = (AngleFraction(1, 5003), half, half, half)
    with pytest.raises(ConductorLimitError):
        eqcos_residual(BoundaryTraces(0, 0, 0, 0), thetas)


@pytest.mark.parametrize("max_q", range(3, 31))
def test_search_angles_are_the_reduced_angles_below_half(max_q):
    # reference: one comprehension over every p/q, compared as Fractions
    half = Fraction(1, 2)
    reference = sorted(
        AngleFraction(p, q)
        for q in range(3, max_q + 1)
        for p in range(1, q)
        if math.gcd(p, q) == 1 and Fraction(p, q) < half
    )
    assert _search_angles(max_q) == reference


@pytest.mark.parametrize(
    "build",
    [
        lambda: cos_pi(AngleFraction(1, 3), 0),
        lambda: CycloElement.root_power(0, 1),
        lambda: cos_pi(AngleFraction(1, 3), -6),
        lambda: CycloElement(0, ()),
        lambda: CycloElement.zero(-3),
        lambda: CycloElement.from_rational(0, 1),
    ],
    ids=[
        "cos_pi-0", "root_power-0", "cos_pi-negative", "constructor-0", "zero-negative",
        "from_rational-0",
    ],
)
def test_conductor_must_be_positive(build):
    # the first three raised ZeroDivisionError, ZeroDivisionError and IndexError
    with pytest.raises(ValueError, match="conductor must be positive"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: cyclotomic_poly(0), "n must be positive"),
        (
            lambda: cos_pi(AngleFraction(1, 3), 9),
            "conductor must be a multiple of twice the denominator",
        ),
        (lambda: CJTerm(0, AngleFraction(1, 3)), "zero coefficients are not terms"),
        (lambda: bounded_search(5, 0), "max_terms must be between 1 and 4"),
        (lambda: bounded_search(5, 5), "max_terms must be between 1 and 4"),
    ],
    ids=["cyclotomic_poly-0", "cos_pi-9", "term-zero", "search-0-terms", "search-5-terms"],
)
def test_guards_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_five_term_relation_is_unclassified():
    # cos(pi/11) - cos(2pi/11) + cos(3pi/11) - cos(4pi/11) + cos(5pi/11) = 1/2
    # is minimal but has five angles, beyond the list of at most four
    rel = CJRelation.make([((-1) ** k, k + 1, 11) for k in range(5)], Fraction(1, 2))
    assert match_family(rel) == Classification("unclassified")


@pytest.mark.parametrize(
    "build",
    [
        lambda: CJTerm(0.1, AngleFraction(1, 3)),
        lambda: CJRelation((), 0.5),
        lambda: CJRelation.make([(1, 1, 3)], 0.5),
        lambda: CycloElement.from_rational(6, 0.5),
        lambda: cos_pi(AngleFraction(1, 5)).scale(0.1),
        lambda: bounded_search(3, 1, (0.1,)),
        lambda: t_family_instance(0.1),
        lambda: CycloElement(12, (0.5, 0, 0, 0)),
        lambda: minimality_criterion(BoundaryTraces(0.0, 0.0, 0.0, 0.0)),
        lambda: eqcos_residual(BoundaryTraces(0.0, 0.0, 0.0, 0.0), (AngleFraction(1, 2),) * 4),
        lambda: is_in_F(1.0, 7 / 4),
        lambda: exceptional_family(1.0, 2 * math.cos(math.pi / 65)),
    ],
    ids=[
        "term", "rhs", "make-rhs", "from_rational", "scale", "bounded_search", "t_family",
        "constructor", "minimality", "eqcos_residual", "is_in_F", "exceptional_family",
    ],
)
def test_floats_never_enter_exact_arithmetic(build):
    # bounded_search(3, 1, (0.1,)) used to certify a binary fraction times
    # cos(pi/3) as family 1; exceptional_family used to decide float
    # membership in F within a tolerance
    with pytest.raises(MixedModeError):
        build()


def test_cyclo_element_takes_phi_coordinates():
    # a short tuple used to truncate the other operand of + and -, so
    # 1 + cos(pi/6) came out as the rational 1
    with pytest.raises(ValueError, match="conductor 12 takes 4 coordinates, got 1"):
        CycloElement(12, (Fraction(1),)) + cos_pi(AngleFraction(1, 6))
    with pytest.raises(ValueError, match="takes 4 coordinates, got 5"):
        CycloElement(12, (Fraction(0),) * 5)


def _power_remainder(k, phi):
    # x^k modulo the monic polynomial phi, by schoolbook integer long division
    m = len(phi) - 1
    rem = [0] * k + [1]
    for e in range(k, m - 1, -1):
        c = rem[e]
        if c:
            for j, t in enumerate(phi):
                rem[e - m + j] -= c * t
    return (rem + [0] * m)[:m]


def test_root_power_matches_long_division():
    for L in range(1, 61):
        phi = cyclotomic_poly(L)
        for k in range(2 * L):
            coords = CycloElement.root_power(L, k).coords
            assert all(isinstance(c, Fraction) for c in coords)
            assert coords == tuple(_power_remainder(k, phi)), (L, k)


_small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def _relations(draw, max_half):
    # every angle is pi*p/h, so the conductor divides 2*h <= 2*max_half
    half = draw(st.integers(min_value=1, max_value=max_half))
    terms = draw(
        st.lists(
            st.tuples(_small_fractions, st.integers(min_value=0, max_value=2 * half - 1)),
            min_size=1,
            max_size=5,
        )
    )
    rhs = draw(st.one_of(st.just(Fraction(0)), _small_fractions))
    return CJRelation(tuple(CJTerm(c, AngleFraction(p, half)) for c, p in terms), rhs)


@st.composite
def _real_elements(draw):
    # sum of c*(z^j + z^-j) at any conductor up to 210, odd ones included
    L = draw(st.integers(min_value=1, max_value=210))
    total = CycloElement.zero(L)
    pairs = st.tuples(_small_fractions, st.integers(min_value=0, max_value=L - 1))
    for c, j in draw(st.lists(pairs, max_size=4)):
        pair = CycloElement.root_power(L, j) + CycloElement.root_power(L, -j)
        total = total + pair.scale(c)
    return total


@settings(max_examples=60, deadline=None)
@given(_relations(105), _relations(12), _real_elements())
def test_integer_kernel_matches_mpmath(rel, other, w):
    a, b = eval_exact(rel), eval_exact(other)
    with mpmath.workdps(60):
        tol = mpmath.mpf(10) ** -40
        assert abs(a.numeric(60) - _numeric_direct(rel, 60)) < tol
        # products at one conductor and at the lcm of two, promoting both
        for x, y in ((a, a), (a, b), (w, w), (w, b)):
            assert abs((x * y).numeric(60) - x.numeric(60) * y.numeric(60)) < tol


def test_eqcos_residual_degenerate_cases(markov_B):
    right = AngleFraction(1, 2)
    assert eqcos_residual(markov_B, (right, right, right, right)) == 0

    B = BoundaryTraces(1, 1, 1, 0)  # sigma_x = 1
    thetas = (AngleFraction(1, 3), right, right, right)
    assert eqcos_residual(B, thetas) == 0


def test_eqcos_residual_period_three_orbit(markov_B):
    # exact data of the period-3 slice orbit through (1, 1, 1): all interior
    # angles pi/3 and the twisted x-trace is sigma_x - yz - x = -2 = 2cos(pi)
    third = AngleFraction(1, 3)
    thetas = (third, third, third, AngleFraction(1, 1))
    assert eqcos_residual(markov_B, thetas) == 0


def test_eqcos_residual_nonzero_and_irrational(markov_B):
    right = AngleFraction(1, 2)
    # only cos(theta_x) = cos(pi/3) survives but sigma_x/2 = 0
    value = eqcos_residual(markov_B, (AngleFraction(1, 3), right, right, right))
    assert value == Fraction(1, 2)
    # an irrational residual comes back as a field element
    value = eqcos_residual(markov_B, (AngleFraction(1, 5), right, right, right))
    assert isinstance(value, CycloElement)
    assert float(value.numeric()) == pytest.approx(math.cos(math.pi / 5))


def test_eqcos_residual_crosscheck_needs_larger_conductor():
    # theta_y = pi/6 and theta_z = pi/2 need conductor 12 and 4, but the
    # relation angles (2pi/3, 2pi/3, pi/3, pi/3) only need 6.
    B = BoundaryTraces(1, Fraction(1, 2), 1, Fraction(-1, 2))
    thetas = (AngleFraction(1, 3), AngleFraction(1, 6), AngleFraction(1, 2), AngleFraction(2, 3))
    assert eqcos_residual(B, thetas) == Fraction(0)


def test_eqcos_residual_cyclic_permutation(markov_B):
    # the companion equations for the other two twists are reached by
    # permuting the boundary so that sigma_y (resp. sigma_z) leads
    B = BoundaryTraces(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))
    permuted = BoundaryTraces(B.a, B.d, B.b, B.c)
    assert permuted.sigma_x == B.sigma_y
    right = AngleFraction(1, 2)
    value = eqcos_residual(permuted, (right, right, right, right))
    assert value == -B.sigma_y / 2


def _numeric_direct(rel, dps=50):
    with mpmath.workdps(dps):
        total = -mpmath.mpf(rel.rhs.numerator) / rel.rhs.denominator
        for t in rel.terms:
            total += (
                mpmath.mpf(t.coeff.numerator)
                / t.coeff.denominator
                * mpmath.cos(mpmath.pi * t.angle.p / t.angle.q)
            )
        return total


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-5, 3)]),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=8),
        ),
        max_size=4,
    ),
    st.sampled_from([0, Fraction(1, 2), Fraction(-7, 3)]),
)
def test_eval_exact_crosschecks_numerically(triples, rhs):
    rel = CJRelation(
        tuple(CJTerm(Fraction(c), AngleFraction(p, q)) for c, p, q in triples),
        Fraction(rhs),
    )
    exact = eval_exact(rel)
    with mpmath.workdps(50):
        assert abs(exact.numeric() - _numeric_direct(rel)) < mpmath.mpf(10) ** -40


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=2, max_value=12),
)
def test_cyclo_product_matches_numerics(p1, p2, q):
    a = cos_pi(AngleFraction(p1, q), 2 * q)
    b = cos_pi(AngleFraction(p2, q), 2 * q)
    with mpmath.workdps(50):
        direct = mpmath.cos(mpmath.pi * p1 / q) * mpmath.cos(mpmath.pi * p2 / q)
        assert abs((a * b).numeric() - direct) < mpmath.mpf(10) ** -40


def test_promote_numeric_roundtrip():
    a = cos_pi(AngleFraction(2, 7))
    b = a.promote(70)
    with mpmath.workdps(50):
        assert abs(a.numeric() - b.numeric()) < mpmath.mpf(10) ** -45


def test_whole_list_self_classifies():
    for index, rel in enumerate(conway_jones_list(), start=1):
        cls = match_family(rel)
        assert cls.kind == "family"
        assert cls.family == index
        if index == 2:
            assert cls.t == Fraction(1, 12)
        else:
            assert cls.scale == 1


def test_cyclo_element_small_algebra():
    a = cos_pi(AngleFraction(1, 5))
    assert (-a + a).is_zero()
    assert (a.scale(3) - a - a - a).is_zero()
    with pytest.raises(ValueError):
        a.promote(15)  # not a multiple of the conductor
    b = cos_pi(AngleFraction(1, 3))
    assert (a * b - b * a).is_zero()  # commutes across promotion to lcm


# Reference: the Fraction-tuple arithmetic that CycloElement used before it
# carried integer numerators.  An element is (conductor, coords) with coords
# a tuple of Fractions over the power basis.


def _ref_reduce(L, dense, den):
    phi = cyclotomic_poly(L)
    m = len(phi) - 1
    vec = dense[:L] + [0] * (L - len(dense))
    for k in range(L, len(dense)):
        vec[k % L] += dense[k]
    for e in range(L - 1, m - 1, -1):
        c = vec[e]
        if c:
            for j, t in enumerate(phi[:m]):
                vec[e - m + j] -= c * t
    return tuple(Fraction(c, den) for c in vec[:m])


def _ref_numerators(coords):
    den = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (den // c.denominator) for c in coords], den


def _ref_promote(a, M):
    L, coords = a
    if M == L:
        return a
    xs, den = _ref_numerators(coords)
    dense = [0] * M
    dense[:: M // L] = xs + [0] * (L - len(xs))
    return M, _ref_reduce(M, dense, den)


def _ref_common(a, b):
    M = math.lcm(a[0], b[0])
    return _ref_promote(a, M), _ref_promote(b, M)


def _ref_add(a, b, sign=1):
    (L, xs), (_, ys) = _ref_common(a, b)
    return L, tuple(x + sign * y for x, y in zip(xs, ys))


def _ref_mul(a, b):
    (L, xs), (_, ys) = _ref_common(a, b)
    xs, dx = _ref_numerators(xs)
    ys, dy = _ref_numerators(ys)
    dense = [0] * (2 * len(xs) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            dense[i + j] += x * y
    return L, _ref_reduce(L, dense, dx * dy)


_CONDUCTORS = (1, 2, 5, 12, 24, 60, 84, 120)


@st.composite
def _elements(draw):
    # random coordinates, often sparse, so that zero and rational elements occur
    L = draw(st.sampled_from(_CONDUCTORS))
    n = len(cyclotomic_poly(L)) - 1
    coord = st.one_of(st.just(Fraction(0)), _small_fractions, st.integers(-50, 50))
    head = draw(coord)
    tail = draw(st.one_of(st.just([0] * (n - 1)), st.lists(coord, min_size=n - 1, max_size=n - 1)))
    return L, (head, *tail)


def _check_against_reference(element, ref):
    assert (element.conductor, element.coords) == ref
    assert all(isinstance(c, Fraction) for c in element.coords)
    assert math.gcd(element.den, *element.nums) == 1 and element.den > 0
    assert element.is_zero() == all(c == 0 for c in ref[1])
    assert element.is_rational() == all(c == 0 for c in ref[1][1:])
    assert element.rational_value() == (ref[1][0] if element.is_rational() else None)


@settings(max_examples=80, deadline=None)
@given(_elements(), _elements(), _small_fractions, st.sampled_from([1, 2, 3, 5, 7]))
def test_integer_carrier_matches_fraction_reference(a, b, factor, multiple):
    x, y = CycloElement(*a), CycloElement(*b)
    ra = (a[0], tuple(map(Fraction, a[1])))
    rb = (b[0], tuple(map(Fraction, b[1])))
    _check_against_reference(x, ra)
    _check_against_reference(x + y, _ref_add(ra, rb))
    _check_against_reference(x - y, _ref_add(ra, rb, -1))
    _check_against_reference(x - x, (x.conductor, (Fraction(0),) * len(ra[1])))
    _check_against_reference(-x, (ra[0], tuple(-c for c in ra[1])))
    _check_against_reference(x * y, _ref_mul(ra, rb))
    _check_against_reference(x.scale(factor), (ra[0], tuple(factor * c for c in ra[1])))
    _check_against_reference(x.scale(0), (ra[0], (Fraction(0),) * len(ra[1])))
    M = x.conductor * multiple
    _check_against_reference(x.promote(M), _ref_promote(ra, M))


def test_cyclo_element_equal_values_hash_alike():
    a = cos_pi(AngleFraction(1, 6))
    assert a.coords == (0, 1, 0, Fraction(-1, 2))
    routes = [
        CycloElement(12, (0, Fraction(2, 2), Fraction(0, 7), Fraction(-2, 4))),
        CycloElement(12, ["0", "1", 0, "-3/6"]),
        (a + a).scale(Fraction(1, 2)),
        cos_pi(AngleFraction(1, 3)) * a.scale(2),
        CycloElement.root_power(12, 1) + CycloElement.root_power(12, -1) - a,
    ]
    for b in routes:
        assert b == a and hash(b) == hash(a)
        assert (b.nums, b.den) == ((0, 2, 0, -1), 2)
    assert len({a, *routes}) == 1
    half = CycloElement.from_rational(12, Fraction(1, 2))
    assert cos_pi(AngleFraction(1, 3)).promote(12) == half
    assert hash(cos_pi(AngleFraction(1, 3)).promote(12)) == hash(half)
    # same value, other conductor: a different element
    assert cos_pi(AngleFraction(1, 3)) != half
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.den = 3


def test_cyclo_element_repr_is_unchanged():
    assert repr(cos_pi(AngleFraction(1, 6))) == (
        "CycloElement(conductor=12, coords=(Fraction(0, 1), Fraction(1, 1), "
        "Fraction(0, 1), Fraction(-1, 2)))"
    )
    assert repr(CycloElement.zero(1)) == "CycloElement(conductor=1, coords=(Fraction(0, 1),))"
    assert repr(cos_pi(AngleFraction(1, 5)).scale(Fraction(2, 3))) == (
        "CycloElement(conductor=10, coords=(Fraction(1, 3), Fraction(0, 1), "
        "Fraction(1, 3), Fraction(-1, 3)))"
    )


def test_cyclo_element_zero_is_canonical():
    a = cos_pi(AngleFraction(2, 7))
    for zero in (CycloElement.zero(14), a - a, a.scale(0), CycloElement(14, (Fraction(0, 5),) * 6)):
        assert (zero.nums, zero.den) == ((0,) * 6, 1)
        assert zero == CycloElement.zero(14)


def test_default_coeff_search_collapses_proportional_duplicates():
    found = bounded_search(6, 3)
    families = sorted(cls.family for _, cls in found)
    assert families == [1, 3]
    assert all(cls.scale == 1 for _, cls in found)


def test_match_family_scaled_t_instance():
    rel = CJRelation.make(
        [(Fraction(-1, 2), 1, 12), (Fraction(1, 2), 1, 4), (Fraction(1, 2), 5, 12)], 0
    )
    cls = match_family(rel)
    assert cls.kind == "family" and cls.family == 2
    assert cls.scale == Fraction(1, 2) and cls.t == Fraction(1, 12)


# _cosine_sum adds cached rows of z^k + z^-k; the reference is the method it
# replaced: write every term into a dense length-L vector, then fold and
# divide by Phi_L once (_ref_reduce).


def _ref_cosine_sum(L, pairs, rhs):
    D = math.lcm(rhs.denominator, *(c.denominator for c, _ in pairs))
    dense = [0] * L
    dense[0] = -2 * rhs.numerator * (D // rhs.denominator)
    for c, angle in pairs:
        n = c.numerator * (D // c.denominator)
        k = angle.p * (L // (2 * angle.q))
        dense[k % L] += n
        dense[-k % L] += n
    return L, _ref_reduce(L, dense, 2 * D)


# 210 = 2*3*5*7 and 2310 = 2*3*5*7*11 have many odd primes and dense rows;
# CONDUCTOR_LIMIT = 10,000 is the largest conductor the guard admits
_cosine_sum_halves = st.one_of(
    st.integers(min_value=1, max_value=60),
    st.sampled_from([105, 1155, CONDUCTOR_LIMIT // 2]),
)


@st.composite
def _cosine_sums(draw):
    half = draw(_cosine_sum_halves)
    # p = 0 is k = 0 and p = half is k = L/2 (the angle pi)
    p = st.one_of(st.sampled_from([0, half]), st.integers(min_value=0, max_value=2 * half - 1))
    angle = p.map(lambda p: AngleFraction(p, half))
    pairs = draw(st.lists(st.tuples(_small_fractions, angle), max_size=4))
    rhs = draw(st.one_of(st.just(Fraction(0)), _small_fractions))
    return 2 * half, pairs, rhs


@settings(max_examples=80, deadline=None)
@given(_cosine_sums())
def test_cosine_sum_matches_dense_fold_and_divide(case):
    L, pairs, rhs = case
    _check_against_reference(_cosine_sum(L, pairs, rhs), _ref_cosine_sum(L, pairs, rhs))
    for _, angle in pairs:
        k = angle.p * (L // (2 * angle.q))
        pair = CycloElement.root_power(L, k) + CycloElement.root_power(L, -k)
        assert cos_pi(angle, L) == pair.scale(Fraction(1, 2))


def test_cos_row_cache_is_bounded():
    assert _cos_row.cache_info().maxsize is not None
    # k and L - k share one row: cos(pi*p/q) = cos(pi*(2q - p)/q)
    before = _cos_row.cache_info().misses
    assert cos_pi(AngleFraction(3, 7), 42) == cos_pi(AngleFraction(11, 7), 42)
    assert _cos_row.cache_info().misses - before <= 1


def test_eqcos_residual_zero_still_multiplies_for_the_cross_check(monkeypatch, markov_B):
    # the trace identity is re-checked with a product of two cosines, not
    # with the cached rows that produced the residual
    calls = []
    mul = CycloElement.__mul__

    def counting_mul(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(CycloElement, "__mul__", counting_mul)
    right = AngleFraction(1, 2)
    assert eqcos_residual(markov_B, (right, right, right, right)) == 0
    assert len(calls) == 1
    assert eqcos_residual(markov_B, (AngleFraction(1, 3), right, right, right)) == Fraction(1, 2)
    assert len(calls) == 1  # a nonzero residual needs no cross-check
