"""Divisor property predicates: Cartier, Q-Cartier, principal, linear
equivalence and simple normal crossings.

The non-Cartier locus uses the plain ideal product of O(D) and O(-D) with
denominators cleared; taking reflexive hulls would erase the locus.
"""

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from . import engine
from .correspondence import sheaf_of
from .errors import DivisorForgeError, NonIntegralCoercion
from .ideals import Ideal, irrelevant_ideal
from .ring import Polynomial, as_int


@dataclass
class CheckReport:
    verdict: str  # 'true' | 'false' | 'unknown'
    witness: object = None
    note: str = ""

    def __bool__(self):
        return self.verdict == "true"

    def to_json(self):
        witness = self.witness
        if witness is not None and not isinstance(witness, (str, int)):
            witness = repr(witness)
        return {"verdict": self.verdict, "witness": witness, "note": self.note}

    def __repr__(self):
        out = self.verdict
        if self.note:
            out += "  (%s)" % self.note
        return out


def _integral(D):
    if not D.is_integral():
        raise NonIntegralCoercion("integral divisor required")
    return D.to_integer_tier() if D.tier != "Z" else D


def non_cartier_locus(D, graded=False):
    """Ideal defining the locus where D fails to be Cartier."""
    D = _integral(D)
    plus = sheaf_of(D)
    minus = sheaf_of(-D)
    product = plus.numerator * minus.numerator
    dens = Ideal(D.ring, [plus.denominator * minus.denominator])
    # the product lies inside R; clearing denominators is a colon here
    J = product.quotient(dens)
    if graded:
        J = J.saturation(irrelevant_ideal(D.ring))
    return J


def is_cartier(D, graded=False):
    J = non_cartier_locus(D, graded)
    if J.is_unit():
        return CheckReport("true")
    return CheckReport("false", witness=J,
                       note="non-Cartier locus is a proper ideal")


def is_q_cartier(bound, D):
    """Smallest integral multiple n <= bound*l with n*D Cartier, else 0.

    Only integral multiples of D are tested: n runs over l, 2l, ... where l
    clears the coefficient denominators, stopping at the first multiple at
    or past bound*l.
    """
    bound = as_int(bound, "a bound")
    if bound < 1:
        raise DivisorForgeError("bound must be positive")
    step = lcm(*(c.denominator for c, _ in D.terms.values()))
    for n in range(step, bound * step + 1, step):
        if is_cartier((D * n).to_integer_tier()):
            return n
    return 0


def is_principal(D, graded=False):
    """Whether O(D) is free, i.e. the divisor is the divisor of an element."""
    D = _integral(D)
    F = sheaf_of(D)
    # irredundant generators: their count is minimal for homogeneous
    # ideals by graded Nakayama
    gens = F.numerator.minimal_gens()
    if len(gens) == 1:
        g = gens[0]
        return CheckReport("true", witness=(g, F.denominator),
                           note="single generator")
    if graded:
        D.ring.grading.require_positive()
        if all(g.multidegree() is not None for g in gens):
            return CheckReport(
                "false",
                note="graded Nakayama: %d minimal generators" % len(gens))
    return CheckReport(
        "unknown",
        note="no single generator found; may be a false negative for "
        "non-graded divisors")


def is_linearly_equivalent(D, E, graded=False):
    """D ~ E iff D - E is principal; graded mode also requires the generator
    to have degree offset zero."""
    report = is_principal(D - E, graded)
    if report.verdict == "true" and graded:
        g, den = report.witness
        gdeg = g.multidegree()
        ddeg = den.multidegree()
        if gdeg is None or ddeg is None or gdeg != ddeg:
            return CheckReport(
                "false",
                note="principal generator has nonzero degree offset")
    return report


# ---------------------------------------------------------------------------
# regularity and simple normal crossings

def _jacobian_minors(ring, gens, size):
    """All size x size minors of the Jacobian matrix of ambient polynomials."""
    n = ring.nvars
    rows = len(gens)
    jac = [
        [engine.differentiate(g, j) for j in range(n)] for g in gens
    ]
    minors = []
    for rsel in combinations(range(rows), size):
        for csel in combinations(range(n), size):
            sub = [[jac[i][j] for j in csel] for i in rsel]
            minors.append(_poly_det(sub))
    return minors


def _poly_det(M):
    if len(M) == 1:
        return M[0][0]
    out = {}
    for j in range(len(M)):
        entry = M[0][j]
        if not entry:
            continue
        minor = _poly_det([row[:j] + row[j + 1 :] for row in M[1:]])
        term = engine.p_mul(entry, minor)
        out = engine.p_add(out, term) if j % 2 == 0 else engine.p_sub(out, term)
    return out


def _is_regular(ring, gb, graded):
    """Jacobian criterion (characteristic zero) for A/(gb), gb a reduced
    Groebner basis in the ambient ring A."""
    if not gb:
        return True
    codim = ring.nvars - engine.lt_dimension(gb, ring.nvars, ring.key)
    minors = _jacobian_minors(ring, gb, codim) if codim else []
    sing_gens = [Polynomial(ring, g) for g in gb]
    sing_gens += [Polynomial(ring, m) for m in minors if m]
    sing = Ideal(ring, sing_gens)
    if graded:
        sing = sing.saturation(irrelevant_ideal(ring))
    return sing.is_unit()


def is_snc(D, graded=False):
    """Simple normal crossings: regular ambient space, regular components,
    and every intersection of components regular of the expected codimension."""
    ring = D.ring
    if not _is_regular(ring, ring.quotient_gb, graded):
        return CheckReport("false", note="ambient space is not regular")
    primes = D.support()
    for size in range(1, len(primes) + 1):
        for subset in combinations(primes, size):
            total = subset[0]
            for P in subset[1:]:
                total = total + P
            if graded:
                total = total.saturation(irrelevant_ideal(ring))
            if total.is_unit():
                continue
            if total.height() != size:
                return CheckReport(
                    "false", witness=total,
                    note="intersection of %d components has codimension %d"
                    % (size, total.height()))
            if not _is_regular(ring, total.groebner, graded):
                return CheckReport(
                    "false", witness=total,
                    note="intersection of %d components is singular" % size)
    note = "intersections saturated by the irrelevant ideal" if graded else ""
    return CheckReport("true", note=note)
