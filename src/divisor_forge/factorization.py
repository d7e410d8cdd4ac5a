"""Irreducible factorization over the rationals, via sympy.

Factors are returned monic with respect to the ring's order so they can
serve as canonical splitting data.  Constants and linear forms are answered
directly: a linear form is irreducible.  Every other input goes to sympy:
the engine-level dict becomes a sympy.Poly over QQ through Poly.from_dict
(exponent tuples map to the generators t0, t1, ... in order, Fractions to
QQ elements), and the factors come back through Poly.terms().  A degree cap
(DIVISOR_FORGE_MAXDEG, default 512) refuses those inputs whose
Kronecker-substituted univariate degree would explode.
"""

import os
from fractions import Fraction

import sympy

from . import engine
from .errors import FactorDegreeExceeded

DEFAULT_MAXDEG = 512


def _maxdeg():
    try:
        return int(os.environ.get("DIVISOR_FORGE_MAXDEG", DEFAULT_MAXDEG))
    except ValueError:
        return DEFAULT_MAXDEG


def _kronecker_degree(terms, nvars):
    """Degree of the univariate image under Kronecker substitution."""
    if not terms:
        return 0
    bounds = [max(m[i] for m in terms) + 1 for i in range(nvars)]
    deg = 0
    stride = 1
    for i in range(nvars):
        deg += (bounds[i] - 1) * stride
        stride *= bounds[i]
    return deg


def factor_terms(terms, nvars, key):
    """Factor a nonzero term dict over QQ.

    Returns (unit, [(factor_terms, multiplicity), ...]) with each factor
    irreducible, monic w.r.t. `key`, and the product of unit and factor
    powers equal to the input.  Constants give an empty factor list.  Each
    factor dict is a new dict, never `terms` itself.
    """
    if not terms:
        raise ValueError("cannot factor the zero polynomial")
    degree = engine.total_degree(terms)
    if degree == 0:
        return terms[(0,) * nvars], []
    if degree == 1:
        _, lc = engine.leading(terms, key)
        return lc, [(dict(engine.monic(terms, key)), 1)]
    if _kronecker_degree(terms, nvars) > _maxdeg():
        raise FactorDegreeExceeded(
            "substituted univariate degree exceeds cap %d" % _maxdeg())
    rep = {m: sympy.QQ(c.numerator, c.denominator) for m, c in terms.items()}
    poly = sympy.Poly.from_dict(
        rep, *sympy.symbols("t0:%d" % nvars), domain=sympy.QQ)
    content, factors = poly.factor_list()
    unit = Fraction(content.p, content.q)
    out = []
    for fac, mult in factors:
        fdict = {}
        for mono, coeff in fac.terms():
            coeff = sympy.Rational(coeff)
            fdict[tuple(int(e) for e in mono)] = Fraction(coeff.p, coeff.q)
        _, lc = engine.leading(fdict, key)
        if lc != 1:
            fdict = engine.monic(fdict, key)
            unit *= lc**mult
        out.append((fdict, mult))
    out.sort(key=lambda fm: engine.canonical(fm[0], key))
    return unit, out
