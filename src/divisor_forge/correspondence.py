"""The divisor <-> sheaf dictionary.

`sheaf_of` realizes O(D) as a concrete fractional ideal: for a prime P the
sheaf O(P) is (R : P) in the fraction field, so effective divisors give
fractional ideals containing R.  Since our fractional ideals live embedded
in the fraction field they carry their graded structure with them, and the
graded divisor of a fractional ideal can be read off directly.
"""

from dataclasses import dataclass
from fractions import Fraction

from .divisors import WeilDivisor
from .errors import (
    DivisorForgeError,
    NonIntegralCoercion,
    NoSolution,
    NotCompleteIntersection,
)
from .fractional import FractionalIdeal, reflexify, smallest_generator
from .ideals import Ideal, unit_ideal
from .ring import Polynomial
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
        prod = prod * P.bracket_power(int(c))
    return reflexify(prod)


def sheaf_of(D):
    """O(D) as a fractional ideal (1/f)((f * I_minus) : I_plus)."""
    if D.tier != "Z" and not D.is_integral():
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
    """A divisor E with O(E) isomorphic to F.

    Ungraded: divisor(numerator) - divisor(denominator), the representative
    fixed by the stored presentation.  Graded: the embedding of F in the
    fraction field carries its grading, and the graded-correct divisor is
    the negation of the ungraded one; O(E) is then graded-isomorphic to the
    reflexive hull of F by a degree-zero map.
    """
    base = WeilDivisor.of_ideal(F.numerator) - WeilDivisor.of_element(
        F.denominator)
    if not graded:
        return base
    F.ring.grading.require_positive()
    if F.denominator.multidegree() is None:
        raise DivisorForgeError("graded mode needs a homogeneous denominator")
    for g in F.numerator.quotient_gens():
        if g.multidegree() is None:
            raise DivisorForgeError("graded mode needs a homogeneous numerator")
    return -base


@dataclass
class SectionedDivisor:
    """An effective divisor together with the section that produced it."""

    divisor: WeilDivisor
    section_numerator: Polynomial
    section_denominator: Polynomial


def divisor_with_section(F, num, den=None):
    """The unique effective divisor of a global section num/den of F."""
    den = den if den is not None else F.ring.one()
    if not F.contains_fraction(num, den):
        raise DivisorForgeError("section does not lie in the fractional ideal")
    base = WeilDivisor.of_element(F.denominator) - WeilDivisor.of_ideal(
        F.numerator)
    E = WeilDivisor.of_fraction(num, den) + base
    return SectionedDivisor(E, num, den)


def find_element_of_degree(ring, target):
    """Laurent monomial exponents e with grading * e == target.

    Solved by Smith normal form; the free coordinates of the diophantine
    system are set to zero, making the choice deterministic.  Negative
    entries mean a fraction of monomials.
    """
    A = [list(row) for row in ring.grading.rows]
    if isinstance(target, int):
        target = (target,) * len(A)
    target = [int(t) for t in target]
    if len(target) != len(A):
        raise DivisorForgeError("target multidegree has wrong length")
    return tuple(solve_diophantine(A, target))


def laurent_monomial(ring, exps):
    """Split Laurent exponents into (numerator, denominator) monomials."""
    pos = tuple(max(e, 0) for e in exps)
    neg = tuple(max(-e, 0) for e in exps)
    num = Polynomial(ring, {pos: Fraction(1)})
    den = Polynomial(ring, {neg: Fraction(1)})
    return num, den


def canonical_divisor(ring, graded=True):
    """Canonical divisor of a graded complete intersection.

    Uses omega = R(sum deg f_j - sum deg x_i); requires the defining ideal
    to be generated by a regular sequence (codimension check).
    """
    if not graded:
        raise DivisorForgeError("only the graded canonical divisor is supported")
    ring.grading.require_positive()
    rels = ring.quotient_gb
    codim = ring.nvars - ring.dimension()
    if len(rels) != codim:
        raise NotCompleteIntersection(
            "defining ideal has %d generators but codimension %d"
            % (len(rels), codim))
    k = ring.grading.ncomponents
    total = [0] * k
    for g in rels:
        degs = {ring.grading.degree(m) for m in g}
        if len(degs) != 1:
            raise DivisorForgeError("inhomogeneous defining relation")
        deg = degs.pop()
        for i in range(k):
            total[i] += deg[i]
    for j in range(ring.nvars):
        col = ring.grading.degree(
            tuple(1 if i == j else 0 for i in range(ring.nvars)))
        for i in range(k):
            total[i] -= col[i]
    # total = a; the canonical module is R(a), i.e. -div of an element of degree -a
    exps = find_element_of_degree(ring, tuple(-t for t in total))
    num, den = laurent_monomial(ring, exps)
    return -(WeilDivisor.of_fraction(num, den))
