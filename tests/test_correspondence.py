"""Divisor <-> fractional ideal correspondence, canonical divisors,
multidegree element search."""

import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DecompositionIncomplete,
    DivisorForgeError,
    FractionalIdeal,
    NotCompleteIntersection,
    WeilDivisor,
    canonical_divisor,
    divisor_of_fractional_ideal,
    divisor_with_section,
    effective_ideal,
    find_element_of_degree,
    ideal,
    polynomial,
    sheaf_of,
)
from divisor_forge.correspondence import laurent_monomial


def test_effective_ideal_examples(cone3):
    P = ideal(cone3, "x", "z")
    D = WeilDivisor.from_primes([1], [P])
    assert effective_ideal(D) == P
    assert effective_ideal(2 * D) == ideal(cone3, "x")
    assert effective_ideal(WeilDivisor.zero(cone3)).is_unit()


def test_sheaf_of_ruling(cone3):
    D = WeilDivisor.from_primes([1], [ideal(cone3, "x", "z")])
    F = sheaf_of(D)
    # O(D) = (1/x)(x, z)
    assert F.denominator == polynomial(cone3, "x")
    assert F.numerator == ideal(cone3, "x", "z")


def test_sheaf_of_effective_and_antieffective(cone3):
    P = ideal(cone3, "x", "z")
    D = WeilDivisor.from_primes([1], [P])
    # O(-D) is the ideal itself
    F = sheaf_of(-D)
    assert F.denominator.is_unit()
    assert F.numerator == P
    # O(D) * O(-D) reflexifies to R exactly when D is Cartier; here it is not
    prod = sheaf_of(D).product(F)
    assert prod.equals_as_reflexive(FractionalIdeal.unit(cone3))


def _mixed_divisors(rng, pool, count):
    """count seeded divisors on the primes of pool with coefficients in
    [-2, 2], at least one of them negative."""
    drawn = []
    while len(drawn) < count:
        coeffs = [rng.randint(-2, 2) for _ in pool]
        if min(coeffs) < 0:
            drawn.append(WeilDivisor.from_primes(coeffs, pool))
    return drawn


def test_round_trip_oracle(cone3, cone4, plane, elliptic):
    """divisor_of_fractional_ideal(sheaf_of(D)) is D in both modes, for
    seeded D of mixed sign; graded mode also on the elliptic cone, and the
    plane's inhomogeneous primes only ungraded."""
    rng = random.Random(23)
    homogeneous = {
        cone3: [ideal(cone3, "x", "z"), ideal(cone3, "y", "z")],
        cone4: [ideal(cone4, "x", "u"), ideal(cone4, "x", "v"),
                ideal(cone4, "y", "u")],
        plane: [ideal(plane, "x"), ideal(plane, "x + y")],
    }
    cases = [(D, g) for ring, pool in homogeneous.items()
             for D in _mixed_divisors(rng, pool, 3) for g in (False, True)]
    cases += [(D, False) for D in _mixed_divisors(
        rng, [ideal(plane, "x - 1"), ideal(plane, "x*y - 1")], 3)]
    cases += [(D, True) for D in _mixed_divisors(
        rng, [ideal(elliptic, "x", "z"), ideal(elliptic, "x", "y")], 2)]
    D = Fraction(1) * WeilDivisor.from_primes(
        [1, -1], homogeneous[cone4][:2])
    assert D.tier == "Q" and D.is_integral()
    cases += [(D, False), (D, True)]
    for D, g in cases:
        assert divisor_of_fractional_ideal(sheaf_of(D), graded=g) == D, (D, g)


def test_graded_mode_checks_before_it_decomposes(space):
    """An inhomogeneous F is refused by the graded check, even when its
    numerator is one the decomposition refuses."""
    cubic = ideal(space, "x*z - y^2", "y*w - z^2", "x*w - y*z")
    F = FractionalIdeal(cubic, polynomial(space, "x + 1"))
    with pytest.raises(DecompositionIncomplete):
        divisor_of_fractional_ideal(F)
    with pytest.raises(DivisorForgeError, match="homogeneous denominator"):
        divisor_of_fractional_ideal(F, graded=True)
    # a homogeneous denominator over an inhomogeneous numerator
    F = FractionalIdeal(ideal(space, "x - 1"), polynomial(space, "x"))
    with pytest.raises(DivisorForgeError, match="homogeneous numerator"):
        divisor_of_fractional_ideal(F, graded=True)


def test_sheaf_of_the_divisor_is_the_sheaf(cone3, cone4):
    """sheaf_of(divisorOf(F)) is F up to reflexive closure, for F a power of
    a sheaf and a product of two."""
    rng = random.Random(2323)
    for ring, pool in ((cone3, [ideal(cone3, "x", "z"),
                                ideal(cone3, "y", "z")]),
                       (cone4, [ideal(cone4, "x", "u"),
                                ideal(cone4, "x", "v")])):
        D, E = _mixed_divisors(rng, pool, 2)
        for F in (sheaf_of(D).power(rng.choice([-2, 2, 3])),
                  sheaf_of(D).product(sheaf_of(E))):
            assert sheaf_of(divisor_of_fractional_ideal(F)) \
                .equals_as_reflexive(F)


def test_round_trip_graded_is_identity(cone3, cone4):
    for ring, gens in ((cone3, ("x", "z")), (cone4, ("x", "u"))):
        D = WeilDivisor.from_primes([1], [ideal(ring, *gens)])
        E = divisor_of_fractional_ideal(sheaf_of(D), graded=True)
        assert E.multiset() == D.multiset()


def test_round_trip_mixed_divisor(cone4):
    D = WeilDivisor.from_primes(
        [2, -1], [ideal(cone4, "x", "u"), ideal(cone4, "x", "v")])
    E = divisor_of_fractional_ideal(sheaf_of(D), graded=True)
    assert E.multiset() == D.multiset()


def test_sheaf_monoid_law_randomized(cone3, cone4):
    """O(D+E) = (O(D) * O(E))** as reflexive fractional ideals on >= 50
    random pairs."""
    rng = random.Random(808)
    pools = {
        cone3: [ideal(cone3, "x", "z"), ideal(cone3, "y", "z")],
        cone4: [ideal(cone4, "x", "u"), ideal(cone4, "x", "v"),
                ideal(cone4, "y", "u")],
    }
    done = 0
    while done < 50:
        ring = cone3 if done % 2 == 0 else cone4
        pool = pools[ring]
        coeffs_d = [rng.randint(-2, 2) for _ in pool]
        coeffs_e = [rng.randint(-2, 2) for _ in pool]
        if not any(coeffs_d) or not any(coeffs_e):
            continue
        D = WeilDivisor.from_primes(coeffs_d, pool)
        E = WeilDivisor.from_primes(coeffs_e, pool)
        lhs = sheaf_of(D + E)
        rhs = sheaf_of(D).product(sheaf_of(E))
        assert lhs.equals_as_reflexive(rhs)
        done += 1


def test_divisor_with_section(cone3):
    # sections of O(D), D = Div(x,z): the section z/x cuts out Div(y,z)
    D = WeilDivisor.from_primes([1], [ideal(cone3, "x", "z")])
    F = sheaf_of(D)
    S = divisor_with_section(F, polynomial(cone3, "z"), polynomial(cone3, "x"))
    assert S.is_effective()
    assert S.multiset() == frozenset(
        [(Fraction(1), ideal(cone3, "y", "z").key)])
    # the section 1 recovers D itself
    assert divisor_with_section(F, cone3.one()) == D


def test_divisor_with_section_oracle(cone3, cone4):
    """For seeded s in F (a numerator generator times a power of a
    variable, over the denominator): the divisor of s on F is div(s) +
    divisorOf(F), and it is effective."""
    rng = random.Random(2324)
    for ring, pool in ((cone3, [ideal(cone3, "x", "z"),
                                ideal(cone3, "y", "z")]),
                       (cone4, [ideal(cone4, "x", "u"),
                                ideal(cone4, "x", "v"),
                                ideal(cone4, "y", "u")])):
        for D in _mixed_divisors(rng, pool, 3):
            F = sheaf_of(D)
            for g in F.numerator.quotient_gens():
                s = g * polynomial(ring, rng.choice(ring.names)) ** \
                    rng.randint(0, 2)
                S = divisor_with_section(F, s, F.denominator)
                assert S == WeilDivisor.of_fraction(s, F.denominator) + \
                    divisor_of_fractional_ideal(F)
                assert S.is_effective(), (D, s)


def test_find_element_of_degree(cone4, weighted):
    e = find_element_of_degree(cone4, (3,))
    assert sum(e) == 3
    ew = find_element_of_degree(weighted, (2, 1))
    assert ew == (0, 1)
    num, den = laurent_monomial(weighted, ew)
    assert num == polynomial(weighted, "y") and den.is_unit()
    # negative degrees force genuine fractions
    eneg = find_element_of_degree(cone4, (-2,))
    assert sum(eneg) == -2


@pytest.mark.parametrize("target", [(Fraction(3, 2), 1), (1.5, 1), (2.0, 1)])
def test_non_integral_target_degrees_are_refused(weighted, target):
    with pytest.raises(DivisorForgeError, match="a degree must be"):
        find_element_of_degree(weighted, target)
    assert find_element_of_degree(weighted, (Fraction(2), Fraction(1))) == \
        find_element_of_degree(weighted, (2, 1))


def test_a_scalar_target_may_be_an_integral_fraction(cone3):
    assert find_element_of_degree(cone3, Fraction(2)) == \
        find_element_of_degree(cone3, 2)
    for target in (Fraction(3, 2), 1.5, 2.0):
        with pytest.raises(DivisorForgeError, match="a degree must be"):
            find_element_of_degree(cone3, target)


def test_canonical_divisor_cones(cone3, cone3b):
    # quadric cone: K = -2 * (ruling) in both presentations
    K = canonical_divisor(cone3)
    assert len(K.terms) == 1
    ((P, (c, _)),) = list(K.terms.items())
    assert c == -2 and P.height() == 1
    K2 = canonical_divisor(cone3b)
    total = sum(coeff for coeff, _ in K2.terms.values())
    assert total == -2


def test_canonical_divisor_plane(plane):
    K = canonical_divisor(plane)
    # A^2: K = -div of a degree-2 monomial (a choice of coordinate lines)
    assert sum(c for c, _ in K.terms.values()) == -2
    assert all(c < 0 for c, _ in K.terms.values())


def test_canonical_divisor_elliptic_curve(elliptic):
    # plane cubic: a = 3 - (1 + 1 + 1) = 0
    assert canonical_divisor(elliptic).is_zero()


def test_canonical_divisor_counts_minimal_generators():
    from divisor_forge import QuotientRing

    # two quadrics whose reduced Groebner basis has a third, cubic element:
    # a = 2 + 2 - 4 = 0
    ring = QuotientRing(("x", "y", "z", "w"),
                        ("x*y - z*w", "x^2 + y^2 - z^2 - 2*w^2"))
    assert len(ring.quotient_gb) == 3
    assert canonical_divisor(ring).is_zero()


def test_canonical_divisor_needs_complete_intersection():
    from divisor_forge import QuotientRing

    # the cone over the twisted quartic-like presentation: 3 relations,
    # codimension 2 -- not a complete intersection
    ring = QuotientRing(("x", "y", "z", "w"),
                        ("x*z - y^2", "y*w - z^2", "x*w - y*z"))
    with pytest.raises(NotCompleteIntersection):
        canonical_divisor(ring)
