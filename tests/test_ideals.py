"""Ideal arithmetic, elimination, colon, saturation, decomposition,
symbolic powers and graded pieces."""

import random
import time
from fractions import Fraction

import pytest

from divisor_forge import (
    DecompositionIncomplete,
    DivisorForgeError,
    Ideal,
    Polynomial,
    engine,
    factor_polynomial,
    graded_piece_basis,
    ideal,
    max_symbolic_containment,
    minimal_height_one_primes,
    polynomial,
    symbolic_power,
    unit_ideal,
)
from divisor_forge.ideals import (
    _eliminate, _intersect, _permute, _unpermute, certify_prime,
    monomials_of_multidegree)


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


# -- membership, sums, products ----------------------------------------------

def test_containment_basics(cone4):
    I = ideal(cone4, "x", "u")
    assert I.contains(polynomial(cone4, "x*y + u^2"))
    assert not I.contains(polynomial(cone4, "y"))
    assert I.contains_ideal(ideal(cone4, "x*u"))
    assert not I.is_unit()
    assert unit_ideal(cone4).is_unit()


def test_sum_product_power(cone4):
    I = ideal(cone4, "x", "u")
    J = ideal(cone4, "x", "v")
    assert (I + J).contains(polynomial(cone4, "u - v"))
    IJ = I * J
    assert IJ.contains(polynomial(cone4, "x^2"))
    assert IJ.contains(polynomial(cone4, "u*v"))
    assert (I ** 2).key == (I * I).key
    assert (I ** 0).is_unit()


def test_power_keeps_each_distinct_product_once(plane, cone4):
    """I**n stores each distinct product of generators once, in the order
    of first appearance in I * I * ... * I, and has that product's key:
    ideal(x, y)**100 has 101 generators, not 2**100."""
    for n in (12, 100):
        assert len((ideal(plane, "x", "y") ** n).gens) == n + 1
    for I in (ideal(plane, "x", "y"), ideal(plane, "x + y", "x - y", "x*y"),
              ideal(cone4, "x", "u", "x")):
        key = I.ring.key
        product = unit_ideal(I.ring)
        for n in range(5):
            power = I ** n
            assert power.key == product.key
            stored = [engine.canonical(g.terms, key) for g in power.gens]
            assert stored == list(dict.fromkeys(
                engine.canonical(g.terms, key) for g in product.gens))
            product = product * I


def multiplied_power(I, n):
    """I**n as a list of generators, multiplying by I n times and keeping
    each distinct product once."""
    gens = [I.ring.one()]
    for _ in range(n):
        step = {}
        for f in gens:
            for g in I.gens:
                h = f * g
                step.setdefault(engine.canonical(h.terms, I.ring.key), h)
        gens = list(step.values())
    return gens


def test_power_by_squaring_matches_repeated_multiplication(plane):
    """Square and multiply stores the generators n multiplications by I
    store, in the same order, and its cost grows with log n: (x)**(10**7)
    takes milliseconds."""
    key = plane.key
    for I in (ideal(plane, "x"), ideal(plane, "x", "y"),
              ideal(plane, "x^2 + y", "x*y", "y^3 - 1")):
        for n in range(7):
            got = [engine.canonical(g.terms, key) for g in (I ** n).gens]
            assert got == [engine.canonical(g.terms, key)
                           for g in multiplied_power(I, n)]
    start = time.perf_counter()
    power = ideal(plane, "x") ** 10**7
    assert time.perf_counter() - start < 1
    assert [g.terms for g in power.gens] == [{(10**7, 0): Fraction(1)}]


def looped_power(I, n):
    """I**n by the square-and-multiply loop Ideal.__pow__ ran itself before
    it shared engine.power, kept as the reference."""
    key = I.ring.key

    def times(A, B):
        step = {}
        for f in A:
            for g in B:
                h = f * g
                step.setdefault(engine.canonical(h.terms, key), h)
        return list(step.values())

    gens, base = [I.ring.one()], list(I.gens)
    while n:
        if n & 1:
            gens = times(gens, base)
        n >>= 1
        if n:
            base = times(base, base)
    return gens


def test_power_stores_the_generator_list_of_its_own_loop(plane, cone4):
    """The shared loop stores the very list the former one did: equal term
    dicts with their keys in the same order, repeated generators too."""
    for I in (ideal(plane, "x"), ideal(plane, "x", "y"),
              ideal(plane, "x^2 + y", "x*y", "y^3 - 1"),
              ideal(plane, "y", "x", "y", "x + y"),
              ideal(cone4, "x", "u", "x"), ideal(cone4, "x*y - 1", "u + v"),
              Ideal(plane, [])):
        for n in range(7):
            got = [list(g.terms.items()) for g in (I ** n).gens]
            assert got == [list(g.terms.items()) for g in looped_power(I, n)]


def eliminated_intersection(A, B, nvars):
    """The intersection as _intersect built it on _eliminate, kept as the
    reference: the permutation that moves t first is the identity."""
    gens = [{(1,) + m: c for m, c in g.items()} for g in A]
    gens += [{**{(0,) + m: c for m, c in g.items()},
              **{(1,) + m: -c for m, c in g.items()}} for g in B]
    return [{m[1:]: c for m, c in g.items()}
            for g in _eliminate(gens, [0], nvars + 1)]


def test_intersect_matches_the_elimination_route(plane, cone3, cone4):
    """_intersect calls Buchberger on t*A + (1-t)*B itself; it returns the
    list _eliminate's route returns, equal dicts in the same key order, for
    the inputs intersection and the colon give it."""
    rng = random.Random(0x1E7)
    for ring in (plane, cone3, cone4):
        for _ in range(12):
            I = Ideal(ring, [random_poly(rng, ring, nterms=rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3))])
            J = Ideal(ring, [random_poly(rng, ring, nterms=rng.randint(1, 3))
                             for _ in range(rng.randint(1, 2))])
            f = random_poly(rng, ring, nterms=2)
            for A, B in ((I.groebner, J.groebner), (I.groebner, [f.terms]),
                         ([f.terms], J.groebner)):
                got = _intersect(A, B, ring.nvars)
                want = eliminated_intersection(A, B, ring.nvars)
                assert ([list(g.items()) for g in got]
                        == [list(g.items()) for g in want])


def test_sum_and_product_refuse_non_ideals(cone4):
    """A non-Ideal operand is Python's TypeError, as for divisors and
    polynomials, never an AttributeError from inside the operator."""
    I = ideal(cone4, "x", "u")
    for other in (1, polynomial(cone4, "x"), cone4):
        with pytest.raises(TypeError):
            I + other
        with pytest.raises(TypeError):
            I * other


def test_bracket_power_agrees_after_reflexification(cone4):
    from divisor_forge import reflexify

    I = ideal(cone4, "x", "u")
    assert reflexify(I.bracket_power(2)) == reflexify(I ** 2)


# -- intersection / colon / saturation oracles -------------------------------

def test_intersection_membership_oracle(cone4, plane):
    rng = random.Random(41)
    for ring in (plane, cone4):
        for _ in range(8):
            gens_a = [random_poly(rng, ring) for _ in range(2)]
            gens_b = [random_poly(rng, ring) for _ in range(2)]
            I = Ideal(ring, gens_a)
            J = Ideal(ring, gens_b)
            if I.is_zero() or J.is_zero():
                continue
            K = I.intersection(J)
            # oracle: every generator of K lies in both I and J
            for g in K.quotient_gens():
                assert I.contains(g) and J.contains(g)
            # and products of generators of I and J lie in K
            for a in I.quotient_gens():
                for b in J.quotient_gens():
                    assert K.contains(a * b)


def test_known_intersections(plane):
    I = ideal(plane, "x")
    J = ideal(plane, "y")
    assert I.intersection(J) == ideal(plane, "x*y")
    assert I.intersection(I) == I


def test_colon_definition_oracle(plane, cone3):
    rng = random.Random(42)
    for ring in (plane, cone3):
        for _ in range(8):
            I = Ideal(ring, [random_poly(rng, ring) for _ in range(2)])
            J = Ideal(ring, [random_poly(rng, ring)])
            if J.is_zero():
                continue
            Q = I.quotient(J)
            # oracle: Q * J is contained in I
            for q in Q.quotient_gens():
                for j in J.quotient_gens():
                    assert I.contains(q * j)


def test_known_colons(plane, cone3):
    # (x^2, xy) : (x) = (x, y)
    I = ideal(plane, "x^2", "x*y")
    assert I.quotient(ideal(plane, "x")) == ideal(plane, "x", "y")
    # on the cone: (x) : (x, z) = (x, z), the reflexification engine room
    J = ideal(cone3, "x")
    assert J.quotient(ideal(cone3, "x", "z")) == ideal(cone3, "x", "z")


def iterated_variable_colon(I, i, k):
    """The basis of (I : x_i^k) by k passes, each dividing x_i once out of
    the elements whose lead it divides: a frozen copy of the loop that
    Ideal._quotient_by_variable_power ran before its single pass."""
    perm = [j for j in range(I.ring.nvars) if j != i] + [i]
    pgb = engine.buchberger(_permute(I.groebner, perm), I.ring.key)
    for _ in range(k):
        nxt = []
        for g in pgb:
            lm = max(g, key=I.ring.key)
            if lm[-1] > 0:
                nxt.append({m[:-1] + (m[-1] - 1,): c for m, c in g.items()})
            else:
                nxt.append(g)
        pgb = nxt
    return [list(g.items()) for g in _unpermute(pgb, perm)]


def test_colon_by_a_variable_power_is_the_iterated_pass(plane, cone3, cone4):
    """One pass dividing by x_i^min(k, e) gives the k-pass basis, term for
    term, on seeded homogeneous ideals."""
    rng = random.Random(225)
    for ring in (plane, cone3, cone4) * 4:
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            monos = rng.sample(monomials_of_multidegree(ring, (d,)), 2)
            gens.append(Polynomial(ring, {m: rng.choice([-2, -1, 1, 2])
                                          for m in monos}))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(ring, gens)
        for i in range(ring.nvars):
            for k in range(1, 5):
                f = 3 * polynomial(ring, ring.names[i]) ** k
                fast = I._quotient_by_variable_power(f)
                assert [list(g.terms.items()) for g in fast.gens] == \
                    iterated_variable_colon(I, i, k)


def test_saturation_stabilizes(plane):
    I = ideal(plane, "x^3*y", "x^2*y^2")
    S = I.saturation(ideal(plane, "x"))
    assert S == ideal(plane, "y")
    assert S.saturation(ideal(plane, "x")) == S


def test_elimination_oracle():
    from divisor_forge import QuotientRing

    ring = QuotientRing(("x", "y", "z"))
    # the twisted cubic as a graph: eliminating the parameter x from
    # (y - x^2, z - x^3) must produce its plane projection (y^3 - z^2)
    I = ideal(ring, "y - x^2", "z - x^3")
    E = I.eliminate((0,))
    for g in E.quotient_gens():
        for m in g.nf_terms():
            assert m[0] == 0
        assert I.contains(g)
    assert E == ideal(ring, "y^3 - z^2")


# -- factorization -----------------------------------------------------------

def test_factor_polynomial_round_trip(plane):
    rng = random.Random(43)
    for _ in range(20):
        f = random_poly(rng, plane, maxdeg=3, nterms=3)
        if f.is_zero():
            continue
        unit, factors = factor_polynomial(f)
        rebuilt = plane.one() * unit
        for g, mult in factors:
            rebuilt = rebuilt * g ** mult
        assert rebuilt == f


def test_factor_known_product(plane):
    f = polynomial(plane, "x*y*(x+y)*(x-y)")
    unit, factors = factor_polynomial(f)
    assert len(factors) == 4
    assert all(m == 1 for _, m in factors)


def test_factor_is_deterministic(plane):
    f = polynomial(plane, "x^2*y - y^3")
    assert factor_polynomial(f) == factor_polynomial(f)


# -- primality and decomposition ---------------------------------------------

def test_certify_prime_examples(cone4, plane):
    assert certify_prime(ideal(cone4, "x", "u"))
    assert certify_prime(ideal(plane, "y - x^2"))
    assert not certify_prime(ideal(plane, "x*y"))
    assert certify_prime(ideal(plane, "x", "y"))


def test_minimal_primes_of_element_cone(cone4):
    primes = minimal_height_one_primes(ideal(cone4, "x"))
    keys = {P.key for P in primes}
    assert keys == {ideal(cone4, "x", "u").key, ideal(cone4, "x", "v").key}


def test_minimal_primes_product_ideal(cone4):
    I = ideal(cone4, "x", "u") * ideal(cone4, "y", "v")
    keys = {P.key for P in minimal_height_one_primes(I)}
    assert keys == {ideal(cone4, "x", "u").key, ideal(cone4, "y", "v").key}


def test_minimal_primes_plane_curves(plane):
    I = ideal(plane, "x*y*(x+y)")
    keys = {P.key for P in minimal_height_one_primes(I)}
    assert keys == {ideal(plane, "x").key, ideal(plane, "y").key,
                    ideal(plane, "x+y").key}


def test_minimal_primes_with_multiplicity_structure(plane):
    # powers do not change the minimal primes
    I = ideal(plane, "x^2*y^3")
    keys = {P.key for P in minimal_height_one_primes(I)}
    assert keys == {ideal(plane, "x").key, ideal(plane, "y").key}


def test_decomposition_incomplete_is_raised(space):
    # a height-two prime with no linear certificate: the certificate cannot
    # decide it and the splitter must refuse rather than guess
    I = ideal(space, "x*z - y^2", "y*w - z^2", "x*w - y*z")
    with pytest.raises(DecompositionIncomplete):
        minimal_height_one_primes(I)


def test_unit_ideal_has_no_height_one_primes(plane, cone3):
    """The certificate reads the unit ideal's basis {1} as 'unit', and the
    splitting returns no component for it."""
    for ring in (plane, cone3):
        assert minimal_height_one_primes(unit_ideal(ring)) == []
        assert minimal_height_one_primes(ideal(ring, "x", "1 - x")) == []


# -- symbolic powers ----------------------------------------------------------

def test_symbolic_power_cone(cone3):
    P = ideal(cone3, "x", "z")
    assert symbolic_power(P, 2) == ideal(cone3, "x")
    assert symbolic_power(P, 1) == P
    assert symbolic_power(P, 4) == ideal(cone3, "x^2")


def test_symbolic_power_contains_ordinary_power(cone4):
    P = ideal(cone4, "x", "u")
    for n in (1, 2, 3):
        S = symbolic_power(P, n)
        assert S.contains_ideal(P ** n)


def test_max_symbolic_containment_orders(cone3, cone4):
    P = ideal(cone3, "x", "z")
    assert max_symbolic_containment(ideal(cone3, "x"), P) == 2
    assert max_symbolic_containment(ideal(cone3, "z"), P) == 1
    Q = ideal(cone4, "x", "u")
    assert max_symbolic_containment(ideal(cone4, "x"), Q) == 1
    assert max_symbolic_containment(Q ** 3, Q) == 3


# -- graded pieces ------------------------------------------------------------

def test_monomials_of_multidegree(cone4, weighted):
    monos = monomials_of_multidegree(cone4, (2,))
    assert len(monos) == 10  # all degree-2 monomials in 4 variables
    monos_w = monomials_of_multidegree(weighted, (2, 1))
    # x^a y^b with a + 2b = 2, b = 1: only y itself... a=0,b=1
    assert monos_w == [(0, 1)]


def test_graded_piece_basis_dimensions(cone3):
    # degree-1 piece of R itself: x, y, z
    basis = graded_piece_basis(unit_ideal(cone3), (1,))
    assert len(basis) == 3
    # degree-1 piece of (x, z): two monomials x, z survive
    basis2 = graded_piece_basis(ideal(cone3, "x", "z"), (1,))
    assert sorted(repr(b) for b in basis2) == ["x", "z"]
    # degree-2 piece of R: 6 ambient monomials minus 1 relation
    basis3 = graded_piece_basis(unit_ideal(cone3), (2,))
    assert len(basis3) == 5


@pytest.mark.parametrize("n", [Fraction(1, 2), Fraction(5, 2), 2.5, 2.0])
def test_non_integral_ideal_powers_are_refused(plane, n):
    m = ideal(plane, "x", "y")
    with pytest.raises(DivisorForgeError, match="an exponent must be"):
        m ** n
    assert (m ** Fraction(2)).key == (m ** 2).key


@pytest.mark.parametrize("n", [Fraction(5, 2), 2.5, 2.0])
def test_non_integral_bracket_powers_are_refused(plane, n):
    m = ideal(plane, "x", "y")
    with pytest.raises(DivisorForgeError, match="an exponent must be"):
        m.bracket_power(n)
    assert m.bracket_power(Fraction(2)).key == m.bracket_power(2).key


@pytest.mark.parametrize("n", [Fraction(5, 2), 2.5, 2.0])
def test_non_integral_symbolic_powers_are_refused(plane, n):
    p = ideal(plane, "x")
    with pytest.raises(DivisorForgeError, match="an exponent must be"):
        symbolic_power(p, n)
    assert symbolic_power(p, Fraction(2)).key == symbolic_power(p, 2).key


@pytest.mark.parametrize("target", [(Fraction(3, 2),), (1.5,), (2.0,)])
def test_non_integral_target_degrees_are_refused(plane, target):
    with pytest.raises(DivisorForgeError, match="a degree must be"):
        monomials_of_multidegree(plane, target)
    assert monomials_of_multidegree(plane, (Fraction(2),)) == \
        monomials_of_multidegree(plane, (2,))
