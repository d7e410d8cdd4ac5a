"""Pullback of divisors along ring maps and global-section tools."""

from .correspondence import effective_ideal, sheaf_of
from .divisors import WeilDivisor
from .errors import DivisorForgeError, RingMismatch
from .ideals import Ideal, graded_piece_basis, irrelevant_ideal
from .ring import Grading, QuotientRing, RingMap, written


def extend_ideal(phi, I):
    """Extension of an ideal of the source along a ring map."""
    return Ideal(phi.target, [phi(g) for g in I.quotient_gens()])


def pullback(phi, D, strategy="primes"):
    """Pull a divisor back along Spec(target) -> Spec(source).

    'primes' extends each component prime and re-decomposes; valid for flat
    or finite maps, or when the components are Cartier.  'sheaves' moves the
    pair of reflexive ideals O(-D+), O(-D-) instead; valid when D is Cartier
    or the map is flat or finite.  Neither regime is machine-verified.
    Both keep the tier of D.
    """
    if D.ring != phi.source:
        raise RingMismatch("divisor does not live on the source ring")
    parts = []
    if strategy == "primes":
        for P, (c, _) in D.sorted_terms():
            ext = extend_ideal(phi, P)
            if ext.is_zero() or ext.is_unit() or ext.height() < 1:
                continue  # component lost under the map
            parts.append((c, WeilDivisor.of_ideal(ext)))
    elif strategy == "sheaves":
        plus = effective_ideal(D.positive_part())
        minus = effective_ideal(D.negative_part())
        for sign, part in ((1, plus), (-1, minus)):
            if part.is_unit():
                continue
            ext = extend_ideal(phi, part)
            if ext.is_zero() or ext.is_unit():
                continue
            parts.append((sign, WeilDivisor.of_ideal(ext)))
    else:
        raise DivisorForgeError(
            "unknown pullback strategy %s" % written(strategy))
    return WeilDivisor.combine(phi.target, parts, D.tier)


def _fresh_names(base, count, taken):
    names = []
    for i in range(1, count + 1):
        name = "%s%d" % (base, i)
        while name in taken:
            name += "_"
        names.append(name)
    return names


def sections_of(D):
    """Global sections of O(D) as numerator elements: the graded piece of the
    numerator in the degree of the denominator."""
    F = sheaf_of(D)
    deg = F.denominator.multidegree()
    if deg is None:
        raise DivisorForgeError("sheaf denominator is not homogeneous")
    return F, graded_piece_basis(F.numerator, deg)


def map_to_projective_space(D):
    """Ring map from a fresh standard-graded polynomial ring sending its
    variables to the global sections of O(D)."""
    ring = D.ring
    ring.grading.require_positive()
    F, sections = sections_of(D)
    if not sections:
        raise DivisorForgeError("divisor has no global sections")
    names = _fresh_names("YY", len(sections), set(ring.names))
    source = QuotientRing(names, (), Grading.standard(len(names)))
    return RingMap(source, ring, sections)


def base_locus(D):
    """Defining ideal of the locus where O(D) is not globally generated,
    saturated by the irrelevant ideal; the unit ideal means base point free."""
    ring = D.ring
    ring.grading.require_positive()
    F, sections = sections_of(D)
    if not sections:
        return Ideal(ring, [])
    J = Ideal(ring, sections).quotient(F.numerator)
    return J.saturation(irrelevant_ideal(ring))
