"""Cartier, Q-Cartier, principality, linear equivalence, SNC."""

import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DivisorForgeError,
    NonIntegralCoercion,
    WeilDivisor,
    ideal,
    is_cartier,
    is_linearly_equivalent,
    is_principal,
    is_q_cartier,
    is_snc,
    non_cartier_locus,
    polynomial,
)


def ruling(cone3b):
    return WeilDivisor.from_primes([1], [ideal(cone3b, "x", "y")])


def test_cartier_suite_on_quadric_cone(cone3b):
    D = ruling(cone3b)
    assert not is_cartier(D)
    assert non_cartier_locus(D) == ideal(cone3b, "x", "y", "z")
    assert is_cartier(2 * D)
    assert is_cartier(D, graded=True)
    assert is_q_cartier(5, D) == 2


def test_cartier_on_principal_divisors(cone3b, plane):
    for ring, f in ((cone3b, "x"), (plane, "x*y")):
        D = WeilDivisor.of_element(polynomial(ring, f))
        assert is_cartier(D)
        assert non_cartier_locus(D).is_unit()


def test_q_cartier_rational_coefficients(cone3b):
    D = ruling(cone3b)
    half = Fraction(1, 2) * D
    # (1/2)D needs multiples of 2 to clear denominators; 2*(1/2)D = D is not
    # Cartier but 4*(1/2)D = 2D is
    assert is_q_cartier(3, half) == 4
    assert is_q_cartier(1, half) == 0


@pytest.mark.parametrize("bound", [0, -3])
def test_q_cartier_bound_below_one_is_a_library_error(cone3b, bound):
    with pytest.raises(DivisorForgeError, match="bound must be positive"):
        is_q_cartier(bound, ruling(cone3b))


def test_q_cartier_takes_an_integral_fraction_bound(cone3b):
    assert is_q_cartier(Fraction(2), ruling(cone3b)) == 2
    with pytest.raises(DivisorForgeError, match="bound must be positive"):
        is_q_cartier(Fraction(0), ruling(cone3b))


@pytest.mark.parametrize("bound", [1.9, Fraction(3, 2), 0.5, 2.0])
def test_q_cartier_refuses_a_bound_that_is_not_an_integer(cone3, bound):
    # on the ruling div(x, z) of xy - z^2 a bound truncated to 1 answers 0
    D = WeilDivisor.from_primes([1], [ideal(cone3, "x", "z")])
    with pytest.raises(DivisorForgeError, match="a bound must be an integer"):
        is_q_cartier(bound, D)


def test_non_cartier_locus_requires_integrality(cone3b):
    D = Fraction(1, 2) * ruling(cone3b)
    with pytest.raises(NonIntegralCoercion):
        non_cartier_locus(D)


def test_is_principal(cone3b, plane):
    D = ruling(cone3b)
    assert not is_principal(D, graded=True)
    assert is_principal(2 * D, graded=True)
    E = WeilDivisor.of_element(polynomial(plane, "x^2*y"))
    assert is_principal(E, graded=True)
    assert is_principal(E - E, graded=True)


def test_is_principal_witness_generates(cone3b):
    report = is_principal(2 * ruling(cone3b), graded=True)
    g, den = report.witness
    # O(D) = (g/den)R, so D is the divisor of den/g
    D = WeilDivisor.of_fraction(den, g)
    assert D.multiset() == (2 * ruling(cone3b)).multiset()


def test_linear_equivalence(cone4, cone3):
    P = ideal(cone4, "x", "u")
    D = WeilDivisor.from_primes([1], [P])
    # div(x) = (x,u) + (x,v): affine-locally (x,u) ~ -(x,v), but on the
    # projective quadric div(x) is a hyperplane class, so graded mode differs
    F = WeilDivisor.of_element(polynomial(cone4, "x")) - D
    assert is_linearly_equivalent(D, -F)
    assert not is_linearly_equivalent(D, -F, graded=True)
    assert is_linearly_equivalent(D, D, graded=True)
    # the two rulings of the quadric cone are exchanged by div(z/x)
    A = WeilDivisor.from_primes([1], [ideal(cone3, "x", "z")])
    B = WeilDivisor.from_primes([1], [ideal(cone3, "y", "z")])
    assert is_linearly_equivalent(A, B, graded=True)


def test_snc_basics(plane, cone3b):
    # two coordinate lines in the plane cross normally
    D = WeilDivisor.of_element(polynomial(plane, "x*y"))
    assert is_snc(D)
    # adding the diagonal makes a triple point: not SNC
    E = WeilDivisor.of_element(polynomial(plane, "x*y*(x+y)"))
    assert not is_snc(E)
    # a nodal curve is not SNC (singular component)
    N = WeilDivisor.of_element(polynomial(plane, "y^2 - x^2*(x+1)"))
    assert not is_snc(N)
    # the ambient cone is singular at the origin: nothing on it is SNC
    # without saturating away the vertex
    R = ruling(cone3b)
    assert not is_snc(R)
    assert is_snc(R, graded=True)


def test_snc_depends_only_on_support(plane, cone3b):
    """Replacing nonzero coefficients never changes the SNC verdict."""
    rng = random.Random(909)
    cases = [
        WeilDivisor.of_element(polynomial(plane, "x*y")),
        WeilDivisor.of_element(polynomial(plane, "x*y*(x+y)")),
        WeilDivisor.of_element(polynomial(plane, "x*(y - x^2)")),
        ruling(cone3b),
    ]
    for graded in (False, True):
        for D in cases:
            base = is_snc(D, graded=graded).verdict
            for _ in range(5):
                coeffs = [rng.choice([-3, -1, 1, 2, 5]) for _ in D.support()]
                E = WeilDivisor.from_primes(coeffs, list(D.support()))
                assert is_snc(E, graded=graded).verdict == base


def test_check_report_protocol(cone3b):
    report = is_cartier(ruling(cone3b))
    assert report.verdict == "false"
    assert not report
    data = report.to_json()
    assert set(data) == {"verdict", "witness", "note"}
