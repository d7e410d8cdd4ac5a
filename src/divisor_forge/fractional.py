"""Fractional ideals (1/d)*N and reflexification.

All duals and reflexive hulls go through ideal quotients with an explicit
nonzerodivisor (the double-colon identity, exact in a normal domain); no
module resolutions anywhere.
"""

from .errors import DivisorForgeError, RingMismatch
from .ideals import Ideal
from .ring import as_int


def smallest_generator(I):
    """Deterministic nonzero element: minimal total degree, ties broken by
    taking the largest leading monomial in the ring's order."""
    gens = I.quotient_gens()
    if not gens:
        raise DivisorForgeError("zero ideal has no nonzero element")
    ring = I.ring

    def rank(g):
        nf = g.nf_terms()
        lm = max(nf, key=ring.key)
        return (g.total_degree(), tuple(-v for v in ring.key(lm)[1:]))

    return min(gens, key=rank)


def reflexify(I):
    """Reflexive hull I** = (f) : ((f) : I) for any nonzero f in I.

    A principal ideal of a normal domain is reflexive; in a polynomial ring
    an ideal is principal exactly when its reduced basis has one element,
    and it is then its own hull."""
    if I.is_zero():
        raise DivisorForgeError("reflexive hull of the zero ideal")
    if I.ring.is_free() and len(I.quotient_gens()) == 1:
        return I
    f = smallest_generator(I)
    principal = Ideal(I.ring, [f])
    return principal.quotient(principal.quotient(I))


class FractionalIdeal:
    """(1/denominator) * numerator inside the fraction field."""

    def __init__(self, numerator, denominator):
        if not isinstance(numerator, Ideal):
            raise DivisorForgeError("numerator must be an Ideal")
        denominator = numerator.ring.element(
            denominator, "numerator and denominator in different rings")
        if denominator.is_zero():
            raise DivisorForgeError("zero denominator")
        if numerator.is_zero():
            raise DivisorForgeError("zero numerator")
        self.ring = numerator.ring
        self.numerator = numerator
        self.denominator = denominator.normal_form()

    @classmethod
    def unit(cls, ring):
        return cls(Ideal(ring, [ring.one()]), ring.one())

    @classmethod
    def from_ideal(cls, I):
        return cls(I, I.ring.one())

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatch("fractional ideals from different rings")

    def __repr__(self):
        return "(1/(%r)) * %r" % (self.denominator, self.numerator)

    # -- structure ---------------------------------------------------------

    def reflexive_hull(self):
        return FractionalIdeal(reflexify(self.numerator), self.denominator)

    def dual(self):
        """(R : F) in the fraction field; dual(dual(F)) is the reflexive hull."""
        f = smallest_generator(self.numerator)
        colon = Ideal(self.ring, [f]).quotient(self.numerator)
        num = Ideal(self.ring, [self.denominator]) * colon
        return FractionalIdeal(num, f)

    def product(self, other):
        """Reflexive product: multiply and take the reflexive hull."""
        self._check_ring(other)
        return FractionalIdeal(reflexify(self.numerator * other.numerator),
                               self.denominator * other.denominator)

    def power(self, n):
        """Reflexive power, also F ** n; negative exponents dualize first.
        Bracket powers of the numerator suffice: the hull is taken after."""
        n = as_int(n, "an exponent")
        if n == 0:
            return FractionalIdeal.unit(self.ring)
        base = self if n > 0 else self.dual()
        n = abs(n)
        if n == 1:
            return base.reflexive_hull()
        return FractionalIdeal(reflexify(base.numerator.bracket_power(n)),
                               base.denominator**n)

    __pow__ = power

    def contains_fraction(self, num, den):
        """Membership of num/den, by cross-multiplied ideal membership."""
        if den.is_zero():
            raise DivisorForgeError("zero denominator in section")
        target = Ideal(self.ring, [den]) * self.numerator
        probe = num * self.denominator
        return target.contains(probe.terms)

    def equals_as_reflexive(self, other):
        """Equality after cross-multiplication and reflexive closure."""
        self._check_ring(other)
        left = reflexify(Ideal(self.ring, [other.denominator]) * self.numerator)
        right = reflexify(Ideal(self.ring, [self.denominator]) * other.numerator)
        return left == right
