"""Oracles for height-one decomposition on the two quadric cones.

For every seeded ring element f (products of random linear forms, and
random quadrics) whose divisor is computed:

- the sheaf round trip: O(div f) equals (1/f)R as reflexive fractional
  ideals;
- every prime of div f contains f and has height one;
- where the principal ideal (f) decomposes as a whole, its minimal
  height-one primes are exactly the support of div f, each one certified
  prime.

A decomposition that drops a component, keeps a wrong one or misreads a
multiplicity breaks the round trip.
"""

import random
from fractions import Fraction

import pytest

from divisor_forge import (
    FractionalIdeal,
    Ideal,
    Polynomial,
    QuotientRing,
    WeilDivisor,
    minimal_height_one_primes,
    sheaf_of,
)
from divisor_forge.errors import DecompositionIncomplete
from divisor_forge.ideals import certify_prime

RINGS = {
    "cone3": lambda: QuotientRing(("x", "y", "z"), ("x*y - z^2",)),
    "cone4": lambda: QuotientRing(("x", "y", "u", "v"), ("x*y - u*v",)),
}


def random_form(rng, ring, degree, most):
    """A form of the given degree with 1..most terms, coefficients in
    {-2, -1, 1, 2}."""
    terms = {}
    for _ in range(rng.randint(1, most)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return Polynomial(ring, terms)


def elements(name, count):
    ring = RINGS[name]()
    rng = random.Random("decomposition-oracles-" + name)
    out = []
    while len(out) < count:
        if len(out) % 2:
            f = random_form(rng, ring, 2, 4)
        else:
            f = ring.one()
            for _ in range(rng.randint(1, 3)):
                f = f * random_form(rng, ring, 1, 3)
        if not f.is_zero() and not f.is_unit():
            out.append(f)
    return out


@pytest.mark.parametrize("name", sorted(RINGS))
def test_divisors_of_elements_pass_the_oracles(name):
    checked = whole = 0
    for f in elements(name, 24):
        ring = f.ring
        try:
            D = WeilDivisor.of_element(f)
        except DecompositionIncomplete:
            continue
        unit = Ideal(ring, [ring.one()])
        assert sheaf_of(D).equals_as_reflexive(FractionalIdeal(unit, f)), f
        for P in D.support():
            assert P.contains(f.terms) and P.height() == 1, (f, P)
        checked += 1
        try:
            primes = minimal_height_one_primes(Ideal(ring, [f]))
        except DecompositionIncomplete:
            continue
        assert [P.key for P in primes] == [P.key for P in D.support()], f
        assert all(certify_prime(P) for P in primes), f
        whole += 1
    assert checked >= 8 and whole >= 4
