"""Weil divisors: constructors, group laws, tiers, rounding."""

import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DivisorForgeError,
    HeightNotOne,
    NonIntegralCoercion,
    PrimalityUncertain,
    RingMismatch,
    WeilDivisor,
    ideal,
    polynomial,
)


def prime_pool(cone4):
    return [
        ideal(cone4, "x", "u"),
        ideal(cone4, "x", "v"),
        ideal(cone4, "y", "u"),
        ideal(cone4, "y", "v"),
    ]


def random_divisor(rng, pool, rational=False):
    coeffs, primes = [], []
    for P in pool:
        if rng.random() < 0.6:
            if rational:
                coeffs.append(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            else:
                coeffs.append(rng.randint(-4, 4))
            primes.append(P)
    if not primes:
        coeffs, primes = [1], [pool[0]]
    D = WeilDivisor.from_primes(coeffs, primes)
    return D.to_rational_tier() if rational else D


# -- constructors -------------------------------------------------------------

def test_from_primes_merges_duplicates(cone4):
    P = ideal(cone4, "x", "u")
    D = WeilDivisor.from_primes([2, 3], [P, ideal(cone4, "u", "x")])
    assert D.coefficient_of(P) == 5


def test_from_primes_rejects_wrong_height(cone4):
    with pytest.raises(HeightNotOne):
        WeilDivisor.from_primes([1], [ideal(cone4, "x", "u", "v")])


def test_from_primes_rejects_non_prime(plane):
    with pytest.raises(PrimalityUncertain):
        WeilDivisor.from_primes([1], [ideal(plane, "x*y")])


def test_from_primes_says_when_an_ideal_is_not_prime(plane):
    # a reducible generator, and a power, are proofs of non-primality
    for gen, shown in [("x^2 + x", "x^2 + x"),
                       ("(x - y)^2", "x^2 - 2*x*y + y^2")]:
        with pytest.raises(PrimalityUncertain) as info:
            WeilDivisor.from_primes([1], [ideal(plane, gen)])
        assert str(info.value) == "ideal(%s) is not prime" % shown


def test_of_element_unit_and_zero(cone4, plane):
    assert WeilDivisor.of_element(polynomial(plane, "3")).is_zero()
    with pytest.raises(DivisorForgeError):
        WeilDivisor.of_element(plane.zero())


def test_of_element_cone(cone4):
    D = WeilDivisor.of_element(polynomial(cone4, "x"))
    assert D.multiset() == frozenset(
        [(Fraction(1), ideal(cone4, "x", "u").key),
         (Fraction(1), ideal(cone4, "x", "v").key)])


def test_of_ideal_with_multiplicity(cone4):
    I = ideal(cone4, "x", "u") ** 2 * ideal(cone4, "x", "v") ** 3
    D = WeilDivisor.of_ideal(I)
    assert D.coefficient_of(ideal(cone4, "x", "u")) == 2
    assert D.coefficient_of(ideal(cone4, "x", "v")) == 3


def test_of_ideal_height_two_gives_zero(plane):
    assert WeilDivisor.of_ideal(ideal(plane, "x", "y")).is_zero()


def test_of_fraction(cone4):
    D = WeilDivisor.of_fraction(polynomial(cone4, "x"), polynomial(cone4, "u"))
    assert D.coefficient_of(ideal(cone4, "x", "v")) == 1
    assert D.coefficient_of(ideal(cone4, "y", "u")) == -1
    assert D.coefficient_of(ideal(cone4, "x", "u")) == 0


# -- group laws (randomized) --------------------------------------------------

def test_group_laws_randomized(cone4):
    """Abelian group axioms and scaling laws on >= 100 random divisors."""
    rng = random.Random(606)
    pool = prime_pool(cone4)
    zero = WeilDivisor.zero(cone4)
    for i in range(34):
        D = random_divisor(rng, pool, rational=(i % 3 == 0))
        E = random_divisor(rng, pool, rational=(i % 3 == 0))
        F = random_divisor(rng, pool)
        assert (D + E).multiset() == (E + D).multiset()
        assert ((D + E) + F).multiset() == (D + (E + F)).multiset()
        assert (D + zero).multiset() == D.multiset()
        assert (D - D).is_zero()
        assert (-(-D)).multiset() == D.multiset()
        n = rng.randint(-3, 3)
        assert (n * (D + E)).multiset() == (n * D + n * E).multiset()
        assert ((2 * 3) * D).multiset() == (2 * (3 * D)).multiset()


def test_scaling_tier_rules(cone4):
    P = ideal(cone4, "x", "u")
    D = WeilDivisor.from_primes([2], [P])
    assert D.tier == "Z"
    assert (3 * D).tier == "Z"
    assert (Fraction(1, 2) * D).tier == "Q"
    # even a trivial rational scalar widens the tier
    assert (Fraction(1, 1) * D).tier == "Q"
    assert (Fraction(1, 1) * D).multiset() == D.multiset()


def test_tier_coercions(cone4):
    P = ideal(cone4, "x", "u")
    Q = ideal(cone4, "y", "v")
    D = WeilDivisor.from_primes(
        [Fraction(2, 3), Fraction(-1, 2)], [P, Q]).to_rational_tier()
    assert not D.is_integral()
    with pytest.raises(NonIntegralCoercion):
        D.to_integer_tier()
    sixD = (6 * D).to_integer_tier()
    assert sixD.tier == "Z"
    assert sixD.coefficient_of(P) == 4
    assert sixD.coefficient_of(Q) == -3


def test_floor_ceiling_parts(cone4):
    P = ideal(cone4, "x", "u")
    Q = ideal(cone4, "y", "v")
    D = WeilDivisor.from_primes(
        [Fraction(5, 2), Fraction(-1, 3)], [P, Q]).to_rational_tier()
    fl = D.floor()
    ce = D.ceiling()
    assert fl.coefficient_of(P) == 2 and fl.coefficient_of(Q) == -1
    assert ce.coefficient_of(P) == 3 and ce.coefficient_of(Q) == 0
    assert fl.tier == "Z" and ce.tier == "Z"
    pos = D.positive_part()
    neg = D.negative_part()
    assert (pos - neg).multiset() == D.multiset()
    assert pos.is_effective() and neg.is_effective()


def test_effective_and_support(cone4):
    P = ideal(cone4, "x", "u")
    Q = ideal(cone4, "x", "v")
    D = WeilDivisor.from_primes([2, -1], [P, Q])
    assert not D.is_effective()
    assert {I.key for I in D.support()} == {P.key, Q.key}


# -- divisor-of-element additivity (randomized) -------------------------------

def test_of_element_additivity_randomized(plane):
    """div(fg) = div(f) + div(g) for >= 50 random products of split forms."""
    rng = random.Random(707)
    forms = ["x", "y", "x+y", "x-y", "x+2*y", "2*x-y", "x+1", "y-1"]
    for _ in range(52):
        f = plane.one()
        g = plane.one()
        for _ in range(rng.randint(1, 3)):
            f = f * polynomial(plane, rng.choice(forms))
        for _ in range(rng.randint(1, 3)):
            g = g * polynomial(plane, rng.choice(forms))
        left = WeilDivisor.of_element(f * g)
        right = WeilDivisor.of_element(f) + WeilDivisor.of_element(g)
        assert left.multiset() == right.multiset()


# generator sets of the ruling (x, u) on xy - uv
RULING_GENERATORS = [("x", "u"), ("u", "x"), ("x+u", "x-u"), ("x", "u+x^2"),
                     ("2*x", "3*u"), ("u", "x+u", "x*y"), ("x+u^2", "u")]


def test_each_prime_is_stored_once_and_printed_from_its_key(cone4):
    """Whatever generators a prime is given by, its divisor stores the
    canonical prime in both slots of its entry, and its text and JSON list
    that prime's minimal generators.  Sums of such divisors merge them into
    one entry, also when the first part's coefficient cancels."""
    divisors = []
    for gens in RULING_GENERATORS:
        D = WeilDivisor.from_primes([1], [ideal(cone4, *gens)])
        divisors.append(D)
        (P, (c, prime)), = D.terms.items()
        assert c == 1 and prime is P
        assert repr(D) == "Div(u, x)"
        assert D.to_json() == {
            "ring": "QQ[x,y,u,v]/(x*y - u*v)", "tier": "Z",
            "terms": [{"coeff": "1", "prime": ["u", "x"]}]}
    first, second = divisors[:2]
    for parts, text in [([(1, D) for D in divisors], "7*Div(u, x)"),
                        ([(1, first), (-1, first), (3, second)], "3*Div(u, x)")]:
        total = WeilDivisor.combine(cone4, parts)
        (P, (_, prime)), = total.terms.items()
        assert prime is P and repr(total) == text
    D = WeilDivisor.from_primes([3, 2],
                                [ideal(cone4, "x", "v"), ideal(cone4, "x", "u")])
    assert repr(D) == "3*Div(v, x) + 2*Div(u, x)"


# -- one linear-combination path -----------------------------------------------

def folded_add(D, E):
    """The earlier WeilDivisor.__add__."""
    coeffs = {P: c for P, (c, _) in D.terms.items()}
    for P, (c, _) in E.terms.items():
        coeffs[P] = coeffs.get(P, 0) + c
    tier = "Q" if "Q" in (D.tier, E.tier) else "Z"
    return WeilDivisor(D.ring, coeffs, tier)


def folded_scale(D, c):
    """The earlier WeilDivisor.scale, which made every coefficient a
    Fraction."""
    widen = isinstance(c, Fraction)
    c = Fraction(c)
    coeffs = {P: c * k for P, (k, _) in D.terms.items()}
    tier = "Q" if (widen or D.tier == "Q") else "Z"
    return WeilDivisor(D.ring, coeffs, tier)


def folded_combine(ring, parts, tier="Z"):
    out = WeilDivisor.zero(ring, tier)
    for c, D in parts:
        out = folded_add(out, folded_scale(D, c))
    return out


def assert_under_the_rule(D):
    for P, (c, prime) in D.terms.items():
        assert type(c) is (int if c.denominator == 1 else Fraction), D
        assert prime is P


def combination_pools(plane, cone3, cone4):
    forms = ["x", "y", "x+y", "x-y", "x+2*y", "y-1"]
    products = [polynomial(plane, "(%s)*(%s)" % (a, b))
                for a in forms for b in forms[:3]]
    return [
        [WeilDivisor.of_element(f) for f in products],
        [WeilDivisor.from_primes([1], [P])
         for P in (ideal(cone3, "x", "z"), ideal(cone3, "y", "z"))]
        + [WeilDivisor.of_element(polynomial(cone3, "x*z"))],
        [WeilDivisor.from_primes([1], [P]) for P in prime_pool(cone4)]
        + [WeilDivisor.of_element(polynomial(cone4, "x*u"))],
    ]


def test_combine_matches_the_folded_sums(plane, cone3, cone4):
    """combine against the earlier fold of __add__ and scale: the same
    divisor, tier, text and JSON, with integral coefficients ints and each
    prime stored once."""
    rng = random.Random(2121)
    for pool in combination_pools(plane, cone3, cone4):
        ring = pool[0].ring
        for _ in range(40):
            parts = []
            for _ in range(rng.randint(0, 5)):
                D = rng.choice(pool)
                if rng.random() < 0.3:
                    D = D.to_rational_tier()
                c = rng.choice([rng.randint(-3, 3),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
                parts.append((c, D))
            tier = rng.choice("ZZQ")
            got = WeilDivisor.combine(ring, parts, tier)
            want = folded_combine(ring, parts, tier)
            assert got.multiset() == want.multiset()
            assert got.tier == want.tier
            assert repr(got) == repr(want)
            assert got.to_json() == want.to_json()
            assert_under_the_rule(got)


def test_difference_is_the_sum_with_the_negation(plane, cone3, cone4):
    rng = random.Random(2122)
    for pool in combination_pools(plane, cone3, cone4):
        for _ in range(20):
            D, E = (rng.choice([rng.randint(-3, 3), Fraction(1, 2)])
                    * rng.choice(pool) for _ in range(2))
            diff, total = D - E, D + (-E)
            assert diff.multiset() == total.multiset()
            assert diff.tier == total.tier
            assert repr(diff) == repr(total)
            for X in (D, E, diff, -E, 2 * D, Fraction(2) * D):
                assert_under_the_rule(X)


def test_from_primes_keeps_integral_coefficients_ints(cone4):
    P, Q = ideal(cone4, "x", "u"), ideal(cone4, "y", "v")
    D = WeilDivisor.from_primes([Fraction(4, 2), 3], [P, Q])
    assert D.tier == "Z"
    assert [type(c) for c, _ in D.terms.values()] == [int, int]
    # the tier follows the coefficients given, not their sums
    E = WeilDivisor.from_primes([Fraction(1, 2), Fraction(1, 2), 2],
                                [Q, Q, P])
    assert E.tier == "Q"
    assert [type(c) for c, _ in E.terms.values()] == [int, int]
    assert E.coefficient_of(Q) == 1


def test_floats_are_refused(cone4):
    P = ideal(cone4, "x", "u")
    D = WeilDivisor.from_primes([2], [P])
    for call in (lambda: D.scale(0.5),
                 lambda: D.scale(2.0),
                 lambda: WeilDivisor.combine(cone4, [(1, D), (0.5, D)]),
                 lambda: WeilDivisor.from_primes([0.1], [P]),
                 lambda: WeilDivisor.from_primes([1, 2.0], [P, P])):
        with pytest.raises(DivisorForgeError, match="int or a Fraction"):
            call()
    with pytest.raises(TypeError):
        D * 0.5


def test_combine_refuses_divisors_on_other_rings(cone4, plane):
    D = WeilDivisor.from_primes([1], [ideal(cone4, "x", "u")])
    E = WeilDivisor.of_element(polynomial(plane, "x"))
    with pytest.raises(RingMismatch):
        WeilDivisor.combine(cone4, [(1, D), (1, E)])
    with pytest.raises(RingMismatch):
        D + E
