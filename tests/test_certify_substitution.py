"""An oracle for the substitution step of the primality certificate.

For I = (x - g(y,z), h) in QQ[x,y,z], the quotient QQ[x,y,z]/I is
QQ[y,z]/(h(g,y,z)), so I is prime exactly when h(g,y,z) is irreducible
and not a power.  The certificate solves x - g for x and substitutes g
into the rest of the basis.  Each g has a term above x in grevlex, so x
is not a leading monomial and the other basis elements may still contain
x: the substitution then really rewrites them.  h(g,y,z) is computed here
with a RingMap, not with the certificate's own substitution.

- 'prime' means h(g,y,z) is irreducible;
- 'split' or 'project' means it is reducible or a power;
- 'unit' means it is a nonzero constant;
- 'fail' is allowed.
"""

import random
from fractions import Fraction

import pytest

from divisor_forge import Ideal, Polynomial, QuotientRing, RingMap
from divisor_forge import ideals
from divisor_forge.ideals import _certify_prime, factor_polynomial

RING = QuotientRing(("x", "y", "z"))
X, Y, Z = RING.variables()


def random_poly(rng, variables, least, most, terms):
    """Up to `terms` terms in the given variable indices, each of total
    degree least..most, coefficients in {-2, -1, 1, 2}."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = [0, 0, 0]
        for _ in range(rng.randint(least, most)):
            e[rng.choice(variables)] += 1
        out[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return Polynomial(RING, out)


def draws(count):
    """Seeded pairs (g, h): g in QQ[y,z] with a term of degree 2, h of
    degree at most 2 with a term in x."""
    rng = random.Random("certify-substitution")
    out = []
    while len(out) < count:
        g = random_poly(rng, [1, 2], 1, 2, 3)
        if g.total_degree() < 2:
            g = g + random_poly(rng, [1, 2], 2, 2, 1)
        h = random_poly(rng, [0, 1, 2], 1, 2, 3)
        if not any(m[0] for m in h.terms):
            h = h + X * random_poly(rng, [0, 1, 2], 0, 1, 2)
        out.append((g, h))
    return out


def oracle(g, h):
    """(verdict, irreducible) for (x - g, h): the certificate's verdict and
    whether h(g,y,z) is irreducible and not a power (None if constant)."""
    verdict = _certify_prime(RING, Ideal(RING, [X - g, h]).groebner)[0]
    restricted = RingMap(RING, RING, [g, Y, Z])(h)
    assert not restricted.is_zero(), (g, h)
    if restricted.is_constant():
        return verdict, None
    _, factors = factor_polynomial(restricted)
    return verdict, len(factors) == 1 and factors[0][1] == 1


def agrees(verdict, irreducible):
    if verdict == "fail":
        return True
    if irreducible is None:
        return verdict == "unit"
    return irreducible == (verdict == "prime")


@pytest.mark.parametrize("g, h, verdicts", [
    ("y^2", "z - x^2", {"prime"}),
    ("y^2", "x*y - z^3", {"split"}),
    # prime, but the certificate stops on it
    ("y^2", "z - x*y", {"prime", "fail"}),
])
def test_examples(g, h, verdicts):
    got, irreducible = oracle(RING.element(g, ""), RING.element(h, ""))
    assert got in verdicts
    assert agrees(got, irreducible)


def test_substitution_agrees_with_the_restriction(monkeypatch):
    fired = []
    real = ideals._subst

    def spy(p, i, value):
        fired[-1] |= any(m[i] for m in p)
        return real(p, i, value)

    monkeypatch.setattr(ideals, "_subst", spy)
    for g, h in draws(120):
        fired.append(False)
        verdict, irreducible = oracle(g, h)
        assert agrees(verdict, irreducible), (g, h, verdict)
    # draws in which the certificate substituted into a polynomial that
    # contains the solved variable
    assert sum(fired) >= 40
