"""Fractional ideals and reflexification invariants."""

import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DivisorForgeError,
    FractionalIdeal,
    Ideal,
    Polynomial,
    QuotientRing,
    ideal,
    polynomial,
    reflexify,
    unit_ideal,
)
from divisor_forge.fractional import smallest_generator


def random_poly(rng, ring, maxdeg=2, nterms=2):
    terms = {}
    for _ in range(nterms):
        m = []
        budget = rng.randint(0, maxdeg)
        for _ in range(ring.nvars):
            e = rng.randint(0, budget)
            budget -= e
            m.append(e)
        terms[tuple(m)] = Fraction(rng.randint(-3, 3))
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


def random_proper_ideal(rng, ring):
    gens = [random_poly(rng, ring) for _ in range(rng.randint(1, 2))]
    I = Ideal(ring, gens)
    if I.is_zero() or I.is_unit():
        return None
    return I


def reflexify_via(I, f):
    """(f) : ((f) : I), the hull computed through a chosen f in I."""
    principal = Ideal(I.ring, [f])
    return principal.quotient(principal.quotient(I))


# -- reflexify property suite (randomized, 4 fixed rings) ---------------------

def test_reflexify_properties_randomized(plane, cone3, cone3b, cone4):
    """Idempotence, extensivity and choice-independence of the reflexive
    hull on at least 100 random ideals across four rings."""
    rng = random.Random(515)
    rings = [plane, cone3, cone3b, cone4]
    checked = 0
    while checked < 104:
        ring = rings[checked % 4]
        I = random_proper_ideal(rng, ring)
        if I is None:
            continue
        hull = reflexify(I)
        # extensivity
        assert hull.contains_ideal(I)
        # idempotence
        assert reflexify(hull) == hull
        # independence from the nonzerodivisor chosen inside I
        for f in I.quotient_gens():
            assert reflexify_via(I, f) == hull
        checked += 1
    assert checked >= 100


def test_reflexify_known_values(plane, cone3):
    # ideals of height >= 2 reflexify to the whole ring
    assert reflexify(ideal(plane, "x", "y")).is_unit()
    # principal ideals are already reflexive
    assert reflexify(ideal(plane, "x^2*y")) == ideal(plane, "x^2*y")
    # (x^2, xy) = x*(x,y) has hull (x)
    assert reflexify(ideal(plane, "x^2", "x*y")) == ideal(plane, "x")
    # the cone's ruling is reflexive but not principal
    P = ideal(cone3, "x", "z")
    assert reflexify(P) == P
    assert reflexify(P * P) == ideal(cone3, "x")


def test_reflexify_rejects_zero(plane):
    with pytest.raises(DivisorForgeError):
        reflexify(Ideal(plane, []))


def test_smallest_generator_is_deterministic_and_member(cone3):
    I = ideal(cone3, "z", "x")
    f = smallest_generator(I)
    assert I.contains(f)
    assert f == smallest_generator(ideal(cone3, "x", "z"))


# -- fractional ideal algebra -------------------------------------------------

def test_unit_and_from_ideal(cone3):
    U = FractionalIdeal.unit(cone3)
    F = FractionalIdeal.from_ideal(ideal(cone3, "x", "z"))
    assert U.equals_as_reflexive(U.product(U))
    assert F.product(U).equals_as_reflexive(F)


def test_dual_dual_is_reflexive_hull(cone3, cone4):
    rng = random.Random(77)
    for ring in (cone3, cone4):
        for _ in range(6):
            I = random_proper_ideal(rng, ring)
            if I is None:
                continue
            F = FractionalIdeal.from_ideal(I)
            assert F.dual().dual().equals_as_reflexive(F.reflexive_hull())


def test_product_with_dual_is_trivial_class(cone3):
    # the divisor class group relation O(D) * O(-D) ** = R
    F = FractionalIdeal.from_ideal(ideal(cone3, "x", "z"))
    unit = FractionalIdeal.unit(cone3)
    assert F.product(F.dual()).equals_as_reflexive(unit)


def test_power_laws(cone3):
    F = FractionalIdeal.from_ideal(ideal(cone3, "x", "z"))
    assert F.power(0).equals_as_reflexive(FractionalIdeal.unit(cone3))
    assert F.power(2).equals_as_reflexive(F.product(F))
    assert F.power(-1).equals_as_reflexive(F.dual())
    # n and -n cancel
    assert F.power(2).product(F.power(-2)).equals_as_reflexive(
        FractionalIdeal.unit(cone3))


def test_contains_fraction(cone3):
    # O(D) for D = Div(x,z) is (1/x)(x,z); it contains z/x and 1 but not 1/x
    F = FractionalIdeal(ideal(cone3, "x", "z"), polynomial(cone3, "x"))
    one = cone3.one()
    assert F.contains_fraction(polynomial(cone3, "z"), polynomial(cone3, "x"))
    assert F.contains_fraction(one, one)
    assert not F.contains_fraction(one, polynomial(cone3, "x"))


def test_fractional_guards(cone3):
    with pytest.raises(DivisorForgeError):
        FractionalIdeal(ideal(cone3, "x"), cone3.zero())
    with pytest.raises(DivisorForgeError):
        FractionalIdeal(Ideal(cone3, []), cone3.one())


# -- principal ideals of polynomial rings are their own hull ----------------

def random_principal(rng, ring):
    """(f) for a random nonconstant f, given by f alone or with a multiple
    of it."""
    while True:
        f = random_poly(rng, ring, maxdeg=3, nterms=rng.randint(1, 4))
        if not f.is_zero() and f.total_degree() > 0:
            break
    gens = [f]
    if rng.random() < 0.3:
        gens.append(f * random_poly(rng, ring, maxdeg=1, nterms=2))
    return Ideal(ring, gens)


def test_principal_ideals_of_polynomial_rings_take_no_colon(monkeypatch):
    rng = random.Random(0x4EF1)
    rings = [QuotientRing(("x", "y")), QuotientRing(("x", "y", "z"))]
    principal = [random_principal(rng, rings[i % 2]) for i in range(40)]
    # the double colon, taken before the colon is switched off
    hulls = [reflexify_via(I, I.quotient_gens()[0]).key for I in principal]

    def refuse(*args, **kwargs):
        raise AssertionError("a colon was taken")

    monkeypatch.setattr(Ideal, "quotient", refuse)
    for I, hull in zip(principal, hulls):
        assert reflexify(I).key == I.key == hull


def test_polynomial_rings_still_hull_other_ideals():
    R = QuotientRing(("x", "y"))
    assert reflexify(ideal(R, "x", "y")).is_unit()
    assert reflexify(ideal(R, "x^2", "x*y")) == ideal(R, "x")


def test_quotient_rings_keep_the_double_colon(cone3, cone4):
    rng = random.Random(0xC011)
    for ring in (cone3, cone4):
        for _ in range(12):
            f = random_poly(rng, ring, maxdeg=2, nterms=2)
            if f.is_zero():
                continue
            I = Ideal(ring, [f])
            assert reflexify(I).key == reflexify_via(I, f).key


@pytest.mark.parametrize("n", [Fraction(1, 2), Fraction(-3, 2), 0.5, 2.0])
def test_non_integral_fractional_powers_are_refused(plane, n):
    f = FractionalIdeal(ideal(plane, "x"), polynomial(plane, "1"))
    with pytest.raises(DivisorForgeError, match="an exponent must be"):
        f.power(n)
    for k in (-2, 0, 2):
        assert repr(f.power(Fraction(k))) == repr(f.power(k))
