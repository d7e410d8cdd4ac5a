"""The divisor <-> sheaf dictionary.

`sheaf_of` realizes O(D) as a concrete fractional ideal: for a prime P the
sheaf O(P) is (R : P) in the fraction field, so effective divisors give
fractional ideals containing R.  Since our fractional ideals live embedded
in the fraction field they carry their graded structure with them, and the
graded divisor of a fractional ideal can be read off directly.
"""

from .divisors import WeilDivisor
from .errors import (
    DivisorForgeError,
    NonIntegralCoercion,
    NotCompleteIntersection,
)
from .fractional import FractionalIdeal, reflexify, smallest_generator
from .ideals import Ideal, unit_ideal
from .ring import Polynomial, QuotientRing
from .smith import solve_diophantine


def effective_ideal(D):
    """The divisorial ideal of an effective divisor: reflexive hull of the
    product of bracket powers of its primes (the codimension-one shortcut)."""
    if D.is_zero():
        return unit_ideal(D.ring)
    prod = unit_ideal(D.ring)
    for P, (c, _) in D.sorted_terms():
        if c < 0 or c.denominator != 1:
            raise DivisorForgeError("effective integral divisor required")
        prod = prod * P.bracket_power(c)
    return reflexify(prod)


def sheaf_of(D):
    """O(D) as a fractional ideal (1/f)((f * I_minus) : I_plus)."""
    if not D.is_integral():
        raise NonIntegralCoercion("sheaf of a non-integral divisor")
    ring = D.ring
    i_plus = effective_ideal(D.positive_part())
    i_minus = effective_ideal(D.negative_part())
    if i_plus.is_unit():
        return FractionalIdeal(reflexify(i_minus), ring.one())
    f = smallest_generator(i_plus)
    num = (Ideal(ring, [f]) * i_minus).quotient(i_plus)
    return FractionalIdeal(reflexify(num), f)


def divisor_of_fractional_ideal(F, graded=False):
    """The divisor E = div(d) - div(N) of the fractional ideal F = N/d, so
    that O(E) is the reflexive hull of F.

    graded=True first checks that the grading is positive and F is
    homogeneous; then the embedding of F in the fraction field carries its
    grading, and O(E) is graded-isomorphic to that hull by a degree-zero map.
    """
    if graded:
        F.ring.grading.require_positive()
        if F.denominator.multidegree() is None:
            raise DivisorForgeError(
                "graded mode needs a homogeneous denominator")
        for g in F.numerator.quotient_gens():
            if g.multidegree() is None:
                raise DivisorForgeError(
                    "graded mode needs a homogeneous numerator")
    return WeilDivisor.of_element(F.denominator) - WeilDivisor.of_ideal(
        F.numerator)


def divisor_with_section(F, num, den=None):
    """The unique effective divisor div(num/den) + E of a global section
    num/den of F, where O(E) is the reflexive hull of F."""
    den = den if den is not None else F.ring.one()
    if not F.contains_fraction(num, den):
        raise DivisorForgeError("section does not lie in the fractional ideal")
    return WeilDivisor.of_fraction(num, den) + divisor_of_fractional_ideal(F)


def find_element_of_degree(ring, target):
    """Laurent monomial exponents e with grading * e == target.

    Solved by Smith normal form; the free coordinates of the diophantine
    system are set to zero, making the choice deterministic.  Negative
    entries mean a fraction of monomials.
    """
    A = [list(row) for row in ring.grading.rows]
    target = ring.grading.expand(target)
    if len(target) != len(A):
        raise DivisorForgeError("target multidegree has wrong length")
    return tuple(solve_diophantine(A, target))


def laurent_monomial(ring, exps):
    """Split Laurent exponents into (numerator, denominator) monomials."""
    pos = tuple(max(e, 0) for e in exps)
    neg = tuple(max(-e, 0) for e in exps)
    num = Polynomial(ring, {pos: 1})
    den = Polynomial(ring, {neg: 1})
    return num, den


def canonical_divisor(ring):
    """Canonical divisor of a graded complete intersection.

    Uses omega = R(sum deg f_j - sum deg x_i) over minimal generators f_j of
    the defining ideal, which must be as many as its codimension (a regular
    sequence).  They are taken in the free ring on the same names and
    grading, where irredundant homogeneous generators are minimal (graded
    Nakayama).
    """
    grading = ring.grading
    grading.require_positive()
    free = QuotientRing(ring.names, (), grading)
    rels = [g for g in Ideal(free, [Polynomial(free, g)
                                    for g in ring.quotient_gb]).minimal_gens()
            if not g.is_zero()]
    codim = ring.nvars - ring.dimension()
    if len(rels) != codim:
        raise NotCompleteIntersection(
            "defining ideal has %d generators but codimension %d"
            % (len(rels), codim))
    total = [-d for d in grading.degree((1,) * ring.nvars)]
    for g in rels:
        deg = g.multidegree()
        if deg is None:
            raise DivisorForgeError("inhomogeneous defining relation")
        total = [t + d for t, d in zip(total, deg)]
    # total = a; the canonical module is R(a), i.e. -div of an element of degree -a
    exps = find_element_of_degree(ring, tuple(-t for t in total))
    num, den = laurent_monomial(ring, exps)
    return WeilDivisor.of_fraction(den, num)
