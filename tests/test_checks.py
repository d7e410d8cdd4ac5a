"""Cartier, Q-Cartier, principality, linear equivalence, SNC."""

import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DivisorForgeError,
    NonIntegralCoercion,
    QuotientRing,
    WeilDivisor,
    engine,
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


def test_cartier_battery_ignores_the_tier(cone3, cone4):
    """A Q-tier divisor with integral coefficients and its Z-tier copy get
    the same verdicts, locus and Q-Cartier index; a non-integral one is
    refused by sheaf_of, the one integrality check."""
    rng = random.Random(2525)
    pools = [(cone3, [ideal(cone3, "x", "z"), ideal(cone3, "y", "z")]),
             (cone4, [ideal(cone4, a, b) for a in "xy" for b in "uv"])]
    for ring, pool in pools:
        for _ in range(3):
            primes = rng.sample(pool, rng.randint(1, 2))
            Z = WeilDivisor.from_primes(
                [rng.choice([-2, -1, 1, 2, 3]) for _ in primes], primes)
            Q = Z.to_rational_tier()
            assert (Z.tier, Q.tier) == ("Z", "Q")
            for check in (is_cartier, is_principal):
                assert check(Z).verdict == check(Q).verdict
                assert check(Z, graded=True).verdict == \
                    check(Q, graded=True).verdict
            assert non_cartier_locus(Z).key == non_cartier_locus(Q).key
            assert is_q_cartier(4, Z) == is_q_cartier(4, Q)
            half = Z + WeilDivisor.from_primes([Fraction(1, 2)], primes[:1])
            for check in (is_cartier, is_principal, non_cartier_locus):
                with pytest.raises(NonIntegralCoercion):
                    check(half)


def test_is_principal(cone3b, plane):
    D = ruling(cone3b)
    assert not is_principal(D, graded=True)
    assert is_principal(2 * D, graded=True)
    E = WeilDivisor.of_element(polynomial(plane, "x^2*y"))
    assert is_principal(E, graded=True)
    assert is_principal(E - E, graded=True)


def test_ungraded_is_principal_decides_by_graded_nakayama(cone3, cone4):
    """Over a positive grading, two or more homogeneous irredundant
    generators of O(D) mean "false" ungraded too, so the two modes agree
    whenever ungraded decides; generators that are not homogeneous leave
    it "unknown"."""
    D = WeilDivisor.from_primes([1], [ideal(cone3, "x - z", "y - z")])
    assert is_principal(D).verdict == is_principal(D, graded=True).verdict \
        == "false"
    rng = random.Random(2626)
    pools = [(cone3, [ideal(cone3, "x", "z"), ideal(cone3, "y", "z")]),
             (cone4, [ideal(cone4, a, b) for a in "xy" for b in "uv"])]
    decided = set()
    for ring, pool in pools:
        for _ in range(4):
            primes = rng.sample(pool, rng.randint(1, 2))
            D = WeilDivisor.from_primes(
                [rng.choice([-2, -1, 1, 2, 3]) for _ in primes], primes)
            verdict = is_principal(D).verdict
            if verdict != "unknown":
                decided.add(verdict)
                assert verdict == is_principal(D, graded=True).verdict
    assert decided == {"true", "false"}
    ring = QuotientRing(("x", "y", "z"), ("x*y - z^2 - z",))
    D = WeilDivisor.from_primes([1], [ideal(ring, "x", "z")])
    assert is_principal(D).verdict == "unknown"


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


def test_snc_reads_dimensions_from_the_memo(monkeypatch):
    """Every lt_dimension call of is_snc fills a memo entry: the Jacobian
    criterion reads the dimensions that height() has stored."""
    calls, real = [], engine.lt_dimension
    monkeypatch.setattr(engine, "lt_dimension",
                        lambda *args: calls.append(args) or real(*args))
    for names, relations, gens in [
            (("x", "y"), (), ["x*y", "x*y*(x+y)", "y^2 - x^2*(x+1)"]),
            (("x", "y", "z"), ("x^2 - y*z",), ["x", "x*y*z"])]:
        for graded in (False, True):
            R = QuotientRing(names, relations)
            for g in gens:
                D = WeilDivisor.of_element(polynomial(R, g))
                calls.clear()
                stored = {k for k in R.memo if k[0] == "dim"}
                is_snc(D, graded=graded)
                new = {k for k in R.memo if k[0] == "dim"} - stored
                assert len(calls) == len(new), (g, graded)


# ROADMAP item 15A: the torus-invariant primes of three toric cones, each
# with its class in Cl, which is Z/order (Z for order 0)
TORIC = [
    (("x", "y", "z"), "x*y - z^2", 2, [(("x", "z"), 1), (("y", "z"), 1)]),
    (("x", "y", "z"), "x^2 - y*z", 2, [(("x", "y"), 1), (("x", "z"), 1)]),
    (("x", "y", "u", "v"), "x*y - u*v", 0,
     [(("x", "u"), 1), (("x", "v"), -1), (("y", "u"), -1), (("y", "v"), 1)]),
]


@pytest.mark.parametrize("names, relation, order, primes", TORIC)
def test_toric_checks_agree_with_the_class_group(names, relation, order,
                                                 primes):
    """On two seeded divisors of class zero and two of nonzero class, with
    coefficients in [-2, 2]: Cartier, graded principal and class zero
    agree, and the Q-Cartier index is the order of the class."""
    R = QuotientRing(names, (relation,))
    ideals = [ideal(R, *gens) for gens, _ in primes]
    rng, left = random.Random(15), {True: 2, False: 2}
    while any(left.values()):
        coeffs = [rng.randint(-2, 2) for _ in primes]
        c = sum(a * k for a, (_, k) in zip(coeffs, primes))
        c = c % order if order else c
        if not any(coeffs) or not left[c == 0]:
            continue
        left[c == 0] -= 1
        D = WeilDivisor.from_primes(coeffs, ideals)
        index = 1 if c == 0 else order
        assert bool(is_cartier(D)) == (c == 0), coeffs
        assert is_principal(D, graded=True).verdict == \
            ("true" if c == 0 else "false"), coeffs
        assert is_q_cartier(4, D) == index, coeffs


def test_check_report_protocol(cone3b):
    report = is_cartier(ruling(cone3b))
    assert report.verdict == "false"
    assert not report
    data = report.to_json()
    assert set(data) == {"verdict", "witness", "note"}
