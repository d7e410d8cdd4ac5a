"""Principal primes take no decomposition and no reflexive hull.

Three rules of the valuation layer, each checked against the general route
it replaces:

- in a polynomial ring (a UFD) `of_element` reads the primes off the
  factorization: it equals the sum of m * of_ideal((p)) over the
  irreducible factors p^m, in multiset, repr and JSON;
- the n-th symbolic power of a principal prime (pi), the reflexive hull
  of the bracket power, is (pi^n);
- max_symbolic_containment(P, P) is 1, and an ideal that is not of
  height one still raises HeightNotOne.

Elements are seeded products of affine linear forms and irreducible
quadrics and cubics, with multiplicities, in QQ[x,y], QQ[x,y,z] and a
weighted QQ[x,y].
"""

import json
import random
from fractions import Fraction

import pytest

from divisor_forge import (
    Grading,
    Ideal,
    Polynomial,
    QuotientRing,
    WeilDivisor,
    ideal,
    max_symbolic_containment,
    reflexify,
    symbolic_power,
)
from divisor_forge import divisors, fractional, ideals
from divisor_forge.errors import HeightNotOne
from divisor_forge.ideals import factor_polynomial

RINGS = {
    "QQ[x,y]": lambda: QuotientRing(("x", "y")),
    "QQ[x,y,z]": lambda: QuotientRing(("x", "y", "z")),
    "weighted": lambda: QuotientRing(("x", "y"), (),
                                     Grading([(1, 2), (0, 1)])),
}


def random_poly(rng, ring, degree):
    """A polynomial of the given total degree: a few monomials of that
    degree and at most one of lower degree, coefficients in {-2..2} \\ {0}."""
    terms = {}
    for top in [True] * rng.randint(1, 3) + [rng.random() < 0.5]:
        d = degree if top else rng.randrange(degree)
        e = [0] * ring.nvars
        for _ in range(d):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return Polynomial(ring, terms)


def irreducible(rng, ring, degree):
    """A random irreducible polynomial of the given degree."""
    while True:
        p = random_poly(rng, ring, degree)
        if p.total_degree() == degree:
            factors = factor_polynomial(p)[1]
            if len(factors) == 1 and factors[0][1] == 1:
                return p


def elements(name, count):
    """Seeded products of one to three irreducibles of degree 1-3, each
    raised to a multiplicity 1-3."""
    ring = RINGS[name]()
    rng = random.Random("principal-primes-" + name)
    out = []
    for _ in range(count):
        f = ring.one()
        for _ in range(rng.randint(1, 3)):
            degree = rng.choice([1, 1, 2, 3])
            f = f * irreducible(rng, ring, degree) ** rng.randint(1, 3)
        out.append(f)
    return out


def general_route(f):
    """Sum of m * of_ideal((p)), decomposing each principal ideal."""
    D = WeilDivisor.zero(f.ring)
    for p, m in factor_polynomial(f)[1]:
        D = D + WeilDivisor.of_ideal(Ideal(f.ring, [p])).scale(m)
    return D


@pytest.mark.parametrize("name", sorted(RINGS))
def test_element_divisor_reads_the_factorization(name):
    for f in elements(name, 12):
        D, want = WeilDivisor.of_element(f), general_route(f)
        assert D.multiset() == want.multiset(), f
        assert repr(D) == repr(want)
        assert json.dumps(D.to_json()) == json.dumps(want.to_json())
        assert D.tier == want.tier == "Z"


@pytest.mark.parametrize("name", sorted(RINGS))
def test_symbolic_power_of_a_principal_prime(name):
    for f in elements(name, 4):
        for P in WeilDivisor.of_element(f).support():
            for n in (2, 3, 4):
                S = symbolic_power(P, n)
                assert S.key == reflexify(P.bracket_power(n)).key, (P, n)
                (pi,) = P.quotient_gens()
                assert S.key == Ideal(P.ring, [pi**n]).key, (P, n)
                assert max_symbolic_containment(S, P) == n


def test_symbolic_power_of_a_principal_prime_of_a_quotient_ring():
    # the quadric cone times a line: each of these cuts out the cone over
    # a field, a principal height-one prime presented by one generator
    R = QuotientRing(("x", "y", "z", "w"), ("x*y - z^2",))
    for gen in ("w", "w - 1", "w^2 + 1"):
        P = ideal(R, gen)
        assert P.height() == 1 and len(P.quotient_gens()) == 1
        for n in (2, 3, 4):
            S = symbolic_power(P, n)
            assert S.key == reflexify(P.bracket_power(n)).key, (gen, n)
            assert S.key == ideal(R, "(%s)^%d" % (gen, n)).key, (gen, n)


def test_a_prime_contains_itself_once(cone3, cone4, plane):
    primes = [ideal(cone3, "x", "z"), ideal(cone3, "y", "z"),
              ideal(cone4, "x", "u"), ideal(plane, "x + y"),
              ideal(plane, "x^2 + y^2 - 1")]
    for P in primes:
        assert max_symbolic_containment(P, P) == 1
        # an ideal with P's key on other generators
        Q = Ideal(P.ring, list(P.gens) + [P.gens[0] * P.gens[-1]])
        assert max_symbolic_containment(Q, P) == 1


def test_height_two_still_refused(plane):
    m = ideal(plane, "x", "y")
    with pytest.raises(HeightNotOne):
        max_symbolic_containment(m, m)
    with pytest.raises(HeightNotOne):
        symbolic_power(m, 2)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_polynomial_rings_never_decompose(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("general route reached")

    want = [general_route(f) for f in elements(name, 6)]
    monkeypatch.setattr(divisors, "minimal_height_one_primes", refuse)
    monkeypatch.setattr(ideals, "minimal_height_one_primes", refuse)
    monkeypatch.setattr(fractional, "reflexify", refuse)
    # fresh rings: nothing the general route stored may serve the answer
    for f, D in zip(elements(name, 6), want):
        assert WeilDivisor.of_element(f) == D
