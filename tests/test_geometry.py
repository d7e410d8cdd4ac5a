"""Pullbacks, projective-space maps, base loci."""

import random

import pytest

from divisor_forge import (
    QuotientRing,
    RingMap,
    RingMismatch,
    WeilDivisor,
    base_locus,
    ideal,
    map_to_projective_space,
    polynomial,
    pullback,
)


def test_pullback_blowup_chart(plane):
    target = QuotientRing(("a", "b"))
    phi = RingMap(plane, target, ("a*b", "b"))
    D = WeilDivisor.of_element(polynomial(plane, "x*y*(x+y)*(x-y)"))
    expected = (
        WeilDivisor.of_element(polynomial(target, "a"))
        + WeilDivisor.of_element(polynomial(target, "a+1"))
        + WeilDivisor.of_element(polynomial(target, "a-1"))
        + 4 * WeilDivisor.of_element(polynomial(target, "b"))
    )
    for strategy in ("primes", "sheaves"):
        got = pullback(phi, D, strategy=strategy)
        assert got.multiset() == expected.multiset()


def test_pullback_refuses_a_divisor_from_another_ring(plane):
    target = QuotientRing(("a", "b"))
    phi = RingMap(plane, target, ("a*b", "b"))
    D = WeilDivisor.of_element(polynomial(target, "a"))
    for strategy in ("primes", "sheaves"):
        with pytest.raises(RingMismatch,
                           match="^divisor does not live on the source ring$"):
            pullback(phi, D, strategy=strategy)


def test_pullback_loses_contracted_components(plane):
    # along x -> a, y -> 0 the line y = 0 pulls back, the line x = 0 stays,
    # and components through the image behave predictably; use x -> a, y -> a
    # (the diagonal): div(x - y) dies, div(x + y) survives
    target = QuotientRing(("a",))
    phi = RingMap(plane, target, ("a", "a"))
    D = WeilDivisor.of_element(polynomial(plane, "(x - y + 1)*(x + y)"))
    got = pullback(phi, D, strategy="primes")
    assert got.multiset() == WeilDivisor.of_element(
        polynomial(target, "2*a")).multiset()


def test_pullback_strategy_agreement_randomized(plane):
    """The two pullback strategies agree on >= 20 principal (hence Cartier)
    divisors across two maps."""
    rng = random.Random(1001)
    target = QuotientRing(("a", "b"))
    maps = [
        RingMap(plane, target, ("a*b", "b")),
        RingMap(plane, target, ("a", "a*b")),
    ]
    forms = ["x", "y", "x+y", "x-y", "x+2*y", "x+1", "y-2"]
    done = 0
    while done < 20:
        phi = maps[done % 2]
        f = plane.one()
        for _ in range(rng.randint(1, 3)):
            f = f * polynomial(plane, rng.choice(forms))
        if phi(f).is_zero():
            continue
        D = WeilDivisor.of_element(f)
        a = pullback(phi, D, strategy="primes")
        b = pullback(phi, D, strategy="sheaves")
        assert a.multiset() == b.multiset()
        done += 1


def test_pullback_scales_linearly(plane):
    target = QuotientRing(("a", "b"))
    phi = RingMap(plane, target, ("a*b", "b"))
    D = WeilDivisor.of_element(polynomial(plane, "x*y"))
    for strategy in ("primes", "sheaves"):
        one = pullback(phi, D, strategy=strategy)
        three = pullback(phi, 3 * D, strategy=strategy)
        assert three.multiset() == (3 * one).multiset()


def test_pullback_keeps_the_tier_under_both_strategies(plane):
    target = QuotientRing(("a", "b"))
    phi = RingMap(plane, target, ("a*b", "b"))
    D = WeilDivisor.of_element(polynomial(plane, "x*y"))
    want = (WeilDivisor.of_element(polynomial(target, "a"))
            + 2 * WeilDivisor.of_element(polynomial(target, "b")))
    for E in (D, D.to_rational_tier()):
        for strategy in ("primes", "sheaves"):
            got = pullback(phi, E, strategy=strategy)
            assert got.tier == E.tier, (E.tier, strategy)
            assert got.multiset() == want.multiset()
            assert all(type(c) is int for c, _ in got.terms.values())


def test_map_to_projective_space_ruling(cone4):
    D = WeilDivisor.from_primes([1], [ideal(cone4, "x", "u")])
    phi = map_to_projective_space(D)
    assert phi.target is cone4
    assert phi.source.nvars == 2
    images = {repr(f) for f in phi.images}
    assert images == {"v", "x"}
    # the images really are sections: v/x and x/x lie in O(D)
    from divisor_forge import sheaf_of

    F = sheaf_of(D)
    for f in phi.images:
        assert F.contains_fraction(f, F.denominator)


def test_base_locus_elliptic(elliptic):
    D = WeilDivisor.of_ideal(ideal(elliptic, "x", "y"))
    assert base_locus(D) == ideal(elliptic, "x", "y")
    assert base_locus(2 * D).is_unit()


def test_base_locus_base_point_free_case(cone4):
    D = WeilDivisor.from_primes([1], [ideal(cone4, "x", "u")])
    assert base_locus(D).is_unit()
