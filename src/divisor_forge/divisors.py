"""Weil divisors: formal sums of height-one primes keyed by reduced GBs.

A divisor maps canonical primes to coefficients, integral coefficients
ints, and stores each prime once.  Every sum, difference and multiple is
built by WeilDivisor.combine; the tier is 'Z' or 'Q', any Fraction scalar
widens to 'Q', and coercion back checks integrality.
"""

import math
import sys
from fractions import Fraction

from . import engine
from .errors import (
    DivisorForgeError,
    HeightNotOne,
    NonIntegralCoercion,
    PrimalityUncertain,
    RingMismatch,
)
from .ideals import (
    Ideal,
    _certify_prime,
    factor_polynomial,
    max_symbolic_containment,
    minimal_height_one_primes,
)
from .ring import Polynomial


def _scalar(c):
    """c, when it is a coefficient: an int or a Fraction, and not a bool."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise DivisorForgeError("a divisor coefficient must be an int or a "
                                "Fraction, not %s" % (c,))
    return c


class WeilDivisor:
    """Formal sum of height-one prime divisors with Z or Q coefficients."""

    def __init__(self, ring, coeffs=None, tier="Z"):
        self.ring = ring
        # built from a map canonical prime -> coefficient, and stored as
        # canonical prime -> (coefficient, the same prime), the pair that
        # callers unpack; the one place that drops a zero coefficient
        self.terms = {P: (c, P) for P, c in (coeffs or {}).items() if c}
        self.tier = tier

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring, tier="Z"):
        return cls(ring, {}, tier)

    @classmethod
    def combine(cls, ring, parts, tier="Z"):
        """Sum of c * D over the (c, D) pairs of parts: the one place that
        merges the coefficients of equal primes.  The tier is 'Q' when tier
        or a part's tier is, or when a c is a Fraction.  Under a budget it
        charges each coefficient product and sum with a Fraction."""
        coeffs, charging = {}, engine.budget is not None
        for c, D in parts:
            _scalar(c)
            if D.ring != ring:
                raise RingMismatch("divisors on different rings")
            if isinstance(c, Fraction) or D.tier == "Q":
                tier = "Q"
            for P, (k, _) in D.terms.items():
                if charging:
                    engine.charge_product((c,), (k,))
                t, old = c * k, coeffs.get(P, 0)
                if charging and Fraction in (type(t), type(old)):
                    engine.charge_product((old,), (t,))
                coeffs[P] = engine.coefficient(old + t)
        return cls(ring, coeffs, tier)

    @classmethod
    def from_primes(cls, coeffs, primes):
        """Divisor from parallel lists of coefficients and prime ideals."""
        if len(coeffs) != len(primes):
            raise DivisorForgeError("coefficient and prime lists differ in length")
        if not primes:
            raise DivisorForgeError("empty prime list")
        ring = primes[0].ring
        # every coefficient is read before any prime is certified; an
        # integral Fraction is an int, so only a non-integer widens
        coeffs = [engine.coefficient(_scalar(c)) for c in coeffs]
        parts = []
        # a refused ideal is named by its position, which costs no work
        for i, (c, P) in enumerate(zip(coeffs, primes), 1):
            if P.ring != ring:
                raise RingMismatch("primes from different rings")
            if P.is_zero() or P.is_unit():
                raise DivisorForgeError("prime must be nonzero and proper")
            canon = Ideal(ring, list(P.quotient_gens()))
            if canon.height() != 1:
                raise HeightNotOne("ideal %d has height %d"
                                   % (i, canon.height()))
            verdict = _certify_prime(ring, canon.groebner)[0]
            if verdict in ("split", "project"):
                raise PrimalityUncertain("ideal %d is not prime" % i)
            if verdict != "prime":
                raise PrimalityUncertain("cannot certify ideal %d prime" % i)
            parts.append((c, cls(ring, {canon: 1})))
        return cls.combine(ring, parts)

    @classmethod
    def of_element(cls, f):
        """Divisor of a ring element; units give the zero divisor.

        div is a homomorphism, so this is the sum of m * div((p)) over the
        irreducible factors p^m of the stored representative (not of its
        normal form, which need not factor).  In a polynomial ring, a UFD,
        each irreducible p generates a height-one prime, so div((p)) is
        (p) itself and nothing is decomposed."""
        if isinstance(f, Polynomial) and f.is_zero():
            raise DivisorForgeError("divisor of zero")
        if f.is_unit():
            return cls.zero(f.ring)
        factors = [(Ideal(f.ring, [p]), m) for p, m in factor_polynomial(f)[1]]
        if f.ring.is_free():
            # distinct monic irreducible factors: distinct primes
            return cls(f.ring, dict(factors))
        return cls.combine(f.ring, [(m, cls.of_ideal(P)) for P, m in factors])

    @classmethod
    def of_ideal(cls, I):
        """Effective divisor of an ideal in codimension one.

        Its primes are canonical, and the decomposition reads I through its
        key only, so the value is memoized in the ring under ("divisor",
        I.key).  A refusal is raised before anything is stored, and so again
        on the next call."""
        if I.is_zero():
            raise DivisorForgeError("divisor of the zero ideal")

        def compute():
            return cls(I.ring, {P: max_symbolic_containment(I, P)
                                for P in minimal_height_one_primes(I)})

        return I.ring.memoized(("divisor", I.key), compute)

    @classmethod
    def of_fraction(cls, num, den):
        """Divisor of num/den in the fraction field."""
        return cls.of_element(num) - cls.of_element(den)

    # -- accessors -----------------------------------------------------------

    def support(self):
        return sorted(self.terms, key=lambda P: P.key)

    def coefficient_of(self, P):
        entry = self.terms.get(P)  # ideals hash and compare by key
        return entry[0] if entry else 0

    def is_zero(self):
        return not self.terms

    def is_effective(self):
        return all(c >= 0 for c, _ in self.terms.values())

    def is_integral(self):
        return all(c.denominator == 1 for c, _ in self.terms.values())

    def multiset(self):
        """Canonical comparison form: frozenset of (coefficient, prime key)."""
        return frozenset((c, P.key) for P, (c, _) in self.terms.items())

    def sorted_terms(self):
        """Display order: coefficient descending, then key lexicographic."""
        return sorted(
            self.terms.items(), key=lambda kv: (-kv[1][0], kv[0].key))

    # -- group operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WeilDivisor):
            return NotImplemented
        return self.combine(self.ring, [(1, self), (1, other)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, WeilDivisor):
            return NotImplemented
        return self.combine(self.ring, [(1, self), (-1, other)])

    def scale(self, c):
        """Scale coefficients; Fraction scalars widen the tier to Q."""
        return self.combine(self.ring, [(c, self)])

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    # -- tier handling ---------------------------------------------------------

    def to_rational_tier(self):
        return self.apply_to_coefficients(lambda c: c, "Q")

    def to_integer_tier(self):
        if not self.is_integral():
            try:
                shown = repr(self)
            except ValueError:  # CPython's cap on int -> str conversion
                raise NonIntegralCoercion(
                    "divisor has a non-integer coefficient of more than %d "
                    "digits" % sys.get_int_max_str_digits()) from None
            raise NonIntegralCoercion(
                "divisor has non-integer coefficients: %s" % shown)
        return self.apply_to_coefficients(lambda c: c, "Z")

    def apply_to_coefficients(self, fn, tier):
        return WeilDivisor(self.ring, {
            P: fn(c) for P, (c, _) in self.terms.items()}, tier)

    def floor(self):
        return self.apply_to_coefficients(math.floor, tier="Z")

    def ceiling(self):
        return self.apply_to_coefficients(math.ceil, tier="Z")

    def positive_part(self):
        return self.apply_to_coefficients(lambda c: max(c, 0), tier=self.tier)

    def negative_part(self):
        """Effective divisor of the negated negative coefficients."""
        return self.apply_to_coefficients(lambda c: max(-c, 0), tier=self.tier)

    # -- identity --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeilDivisor):
            return NotImplemented
        return self.ring == other.ring and self.multiset() == other.multiset()

    def __hash__(self):
        return hash((self.ring, self.multiset()))

    def __repr__(self):
        if not self.terms:
            return "0"
        chunks = []
        for P, (c, _) in self.sorted_terms():
            gens = ", ".join(repr(g) for g in P.minimal_gens())
            body = "Div(%s)" % gens
            if c == 1:
                chunks.append(body)
            else:
                chunks.append("%s*%s" % (c, body))
        return " + ".join(chunks)

    def to_json(self):
        return {
            "ring": repr(self.ring),
            "tier": self.tier,
            "terms": [
                {
                    "coeff": str(c),
                    "prime": [repr(g) for g in P.minimal_gens()],
                }
                for P, (c, _) in self.sorted_terms()
            ],
        }
