"""Irreducible factorization over the rationals.

Factors are returned monic with respect to the ring's order so they can
serve as canonical splitting data.  Rational linear factors are peeled off
first, in any number of variables, each one confirmed by exact division:

- monomial content x_i^k comes out first;
- the direction a.x of a linear factor a.x + c divides the top-degree form,
  so the directions are the linear factors of that form, found by the same
  peel on it with its last variable set to 1 (in one variable, the rational
  roots of a univariate polynomial);
- the offset c along a direction is a rational root of the polynomial
  restricted to a line parallel to the axis of a variable the direction
  has: the axis itself, or else the first small-integer grid line on which
  the polynomial does not vanish.

The peel is exhaustive when every root search ran to its end: every
direction found a line, and no root search of degree 3 or more met a
coefficient past ROOT_COEFF_LIMIT (linear and quadratic ones need no bound).
After an exhaustive peel the cofactor has no rational linear factor, so a
cofactor of degree 2 or 3 is irreducible, since a reducible quadric or cubic
has a linear factor.  Only the other cofactors of degree 2 or more go to
sympy: those of degree 4 or more, and those left by a peel that gave up.
Such a cofactor becomes a sympy.Poly over QQ through Poly.from_dict
(exponent tuples map to the generators t0, t1, ... in order), and its
factors come back through Poly.terms().  The factorization over QQ is
unique, so the peel changes no answer; a factor it misses is left to sympy.
A degree cap (MAXDEG = 512) refuses the inputs of total degree 4 or more
whose Kronecker-substituted univariate degree would explode; it is checked
before the peel, on the input with its monomial content taken out, which
the peel's first step removes.  A cofactor bound for sympy with an integer
coefficient of more than MAX_COEFF_BITS bits is refused too.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice

import sympy

from . import engine
from .errors import FactorCoefficientsExceeded, FactorDegreeExceeded

# the degree cap of the module docstring
MAXDEG = 512

# the rational root search of degree 3 or more enumerates the divisors of
# the constant and the leading coefficient only when both are at most this
# in absolute value
ROOT_COEFF_LIMIT = 10**6

# on a 2-vCPU machine, factor_terms(x^3 + c*y^3 + 1) spent 0.5 s in sympy
# with c of 1024 bits, 1.9 s at 1329 bits and 35 s at 3322 bits (10^1000);
# a cofactor with a larger integer coefficient is refused before sympy
MAX_COEFF_BITS = 1024

# lines tried per direction before the peel leaves that direction to sympy
LINES = 16


def _kronecker_degree(terms, nvars):
    """Degree of the univariate image under Kronecker substitution of the
    nonzero terms with their monomial content taken out, as the peel's
    first step does: each variable contributes its exponent span."""
    deg = 0
    stride = 1
    for i in range(nvars):
        span = max(m[i] for m in terms) - min(m[i] for m in terms)
        deg += span * stride
        stride *= span + 1
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
    if (engine.total_degree(terms) > 3
            and _kronecker_degree(terms, nvars) > MAXDEG):
        raise FactorDegreeExceeded(
            "substituted univariate degree exceeds cap %d" % MAXDEG)
    linear, rest, exhaustive = _peel(_integral(terms), nvars)
    out = [(engine.monic(_form(v), key), mult) for v, mult in linear]
    degree = engine.total_degree(rest)
    if exhaustive and degree in (2, 3):
        out.append((engine.monic(rest, key), 1))
    elif degree > 1:
        out += _sympy_factors(rest, nvars, key)
    if len(out) > 1:
        out.sort(key=lambda fm: engine.canonical(fm[0], key))
    # every factor is monic, so the unit is the input's leading coefficient
    return engine.leading(terms, key)[1], out


def _sympy_factors(terms, nvars, key):
    """Monic irreducible factors of a term dict with integer coefficients,
    by sympy's factor_list over QQ."""
    bits = max(abs(c).bit_length() for c in terms.values())
    if bits > MAX_COEFF_BITS:
        raise FactorCoefficientsExceeded(
            "a coefficient of %d bits exceeds the factorization cap of %d "
            "bits" % (bits, MAX_COEFF_BITS))
    rep = {m: sympy.QQ(c) for m, c in terms.items()}
    poly = sympy.Poly.from_dict(
        rep, *sympy.symbols("t0:%d" % nvars), domain=sympy.QQ)
    out = []
    for fac, mult in poly.factor_list()[1]:
        fdict = {}
        for mono, coeff in fac.terms():
            coeff = sympy.Rational(coeff)
            fdict[tuple(int(e) for e in mono)] = engine.coefficient(
                Fraction(int(coeff.p), int(coeff.q)))
        out.append((engine.monic(fdict, key), mult))
    return out


# ---------------------------------------------------------------------------
# peeling rational linear factors
#
# A linear form v[0] x_0 + ... + v[n-1] x_(n-1) + v[n] is the integer vector
# v of length n + 1 with coprime entries; polynomials are term dicts with
# integer coefficients.

def _integral(terms):
    """The primitive integer multiple of a term dict with positive scale."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = math.gcd(*ints.values())
    return {m: c // g for m, c in ints.items()}


@lru_cache(maxsize=None)
def _axis(i, size):
    """The unit vector of length size at index i, made once and shared."""
    return tuple(int(k == i) for k in range(size))


def _form(v):
    """Term dict of the linear form v; its constant v[-1] sits at the zero
    monomial, which is _axis(n, n)."""
    n = len(v) - 1
    return {_axis(i, n): c for i, c in enumerate(v) if c}


def _peel(f, n):
    """Rational linear factors of an integer term dict f in n variables,
    each confirmed by exact division.

    Returns ([(v, multiplicity), ...], rest, exhaustive) with distinct forms
    v, rest their cofactor, a constant or a polynomial of degree 2 or more,
    and exhaustive true when the search was complete, so that rest has no
    rational linear factor.
    """
    found = []
    for i in range(n):
        k = min(m[i] for m in f)
        if k:
            found.append((_axis(i, n + 1), k))
            f = {m[:i] + (m[i] - k,) + m[i + 1 :]: c for m, c in f.items()}
    degree = engine.total_degree(f)
    exhaustive = True
    if degree > 1:
        directions, exhaustive = _directions(f, n, degree)
        for a in directions:
            candidates, complete = _candidates(f, a)
            exhaustive = exhaustive and complete
            for v in candidates:
                f, k = _divide_out(f, v)
                if k:
                    found.append((v, k))
                    degree -= k
                    if degree < 2:
                        break
            if degree < 2:
                break
    if degree == 1:
        v = tuple(f.get(_axis(i, n), 0) for i in range(n + 1))
        g = math.gcd(*v)
        found.append((tuple(c // g for c in v), 1))
        f = {(0,) * n: g}
    return found, f, exhaustive


def _directions(f, n, degree):
    """Directions a (coprime integer vectors of length n) of the linear
    forms a.x dividing the top-degree form of f.

    Those are the linear factors of the top form with x_(n-1) set to 1,
    homogenized (the form's constant becomes the coefficient of x_(n-1)),
    and x_(n-1) itself when it divides the top form.  Returns (directions,
    exhaustive), exhaustive as for the peel that finds them.
    """
    top = {m: c for m, c in f.items() if sum(m) == degree}
    found, _, exhaustive = _peel({m[:-1]: c for m, c in top.items()}, n - 1)
    out = [v for v, _ in found]
    if all(m[-1] for m in top):
        out.append(_axis(n - 1, n))
    return out, exhaustive


def _candidates(f, a):
    """Linear forms a.x + c that may divide f, and whether they are all of
    them.

    With x_j the first variable of a, c comes from a rational root of f
    restricted to a line parallel to the x_j axis: the axis first, else
    the first of the LINES grid lines on which f does not vanish.  The list
    is incomplete when f vanishes on all of them, or when the root search
    gave up.
    """
    n = len(a)
    j = next(i for i, ai in enumerate(a) if ai)
    for point in _grid(n - 1):
        # x_j takes the value 1 so that its powers stay in h's exponents
        p = point[:j] + (1,) + point[j:]
        h = {}
        for m, c in f.items():
            for pi, e in zip(p, m):
                if e:
                    c *= pi**e
            if c:
                h[m[j]] = h.get(m[j], 0) + c
        h = {k: c for k, c in h.items() if c}
        if h:
            # on the line, a.x + c = a_j t + s + c vanishes at t = -(s+c)/a_j
            s = sum(ai * pi for ai, pi in zip(a, p)) - a[j]
            roots, complete = _rational_roots(h)
            out = []
            for t in roots:
                c = -(a[j] * t + s)
                out.append(tuple(c.denominator * ai for ai in a)
                           + (c.numerator,))
            return out, complete
    return [], False


def _grid(m):
    """The first LINES points of Z^m by increasing L1 norm, origin first."""
    points = chain.from_iterable(_sphere(m, r) for r in range(LINES))
    return islice(points, LINES)


def _sphere(m, r):
    """The points of Z^m of L1 norm r."""
    if m == 0:
        if r == 0:
            yield ()
        return
    for k in range(r + 1):
        for rest in _sphere(m - 1, r - k):
            yield (k,) + rest
            if k:
                yield (-k,) + rest


def _rational_roots(h):
    """(roots, complete): distinct rational roots of the nonzero integer
    polynomial sum h[k] t^k, and whether they are all of them.

    Apart from the root 0, the roots of a linear or quadratic h / t^low
    come from a formula, and those of higher degree from the rational root
    theorem: a root p/q in lowest terms has p dividing the lowest
    coefficient and q the highest; (q - p) divides h(1) and (q + p)
    divides h(-1).  Beyond ROOT_COEFF_LIMIT no divisors are tried, and only
    the root 0 is known.
    """
    low, high = min(h), max(h)
    roots = [Fraction(0)] if low else []
    a0, ad = h[low], h[high]
    if high == low:
        return roots, True
    if high - low == 1:
        return roots + [Fraction(-a0, ad)], True
    if high - low == 2:
        b = h.get(low + 1, 0)
        disc = b * b - 4 * a0 * ad
        r = math.isqrt(disc) if disc >= 0 else -1
        if r * r == disc:
            roots.append(Fraction(-b + r, 2 * ad))
            if r:
                roots.append(Fraction(-b - r, 2 * ad))
        return roots, True
    if max(abs(a0), abs(ad)) > ROOT_COEFF_LIMIT:
        return roots, False
    coeffs = [h.get(k, 0) for k in range(high, low - 1, -1)]
    at_one = sum(coeffs)
    # h(-1) up to its sign, which divisibility ignores
    at_minus_one = sum(c if i % 2 else -c for i, c in enumerate(coeffs))
    for q in _divisors(ad):
        for d in _divisors(a0):
            if math.gcd(d, q) != 1:
                continue
            for p in (d, -d):
                if (_divides(q - p, at_one) and _divides(q + p, at_minus_one)
                        and _vanishes(coeffs, p, q)):
                    roots.append(Fraction(p, q))
    return roots, True


def _divides(d, v):
    return v % d == 0 if d else v == 0


def _vanishes(coeffs, p, q):
    """True if the polynomial with coefficients `coeffs` (highest first)
    vanishes at p/q: its value times q^degree is zero."""
    acc, qpow = 0, 1
    for c in coeffs:
        acc = acc * p + c * qpow
        qpow *= q
    return acc == 0


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divide_out(f, v):
    """(f / L^k, k) for the largest k with L^k dividing f, L the form v."""
    k = 0
    while (q := _divide(f, v)) is not None:
        f, k = q, k + 1
    return f, k


def _divide(f, v):
    """f / L over ZZ, or None when the form v does not divide f.

    Synthetic division in x_j, the first variable of L = a_j x_j + M (the
    terms of M are `tail`): the quotient's coefficients of x_j^(k-1) are
    (F_k - M Q_k) / a_j from the top down, where F_k is f's coefficient of
    x_j^k.  L is primitive, so if it divides f the quotient has integer
    coefficients (Gauss's lemma) and an inexact division by a_j means it
    does not.
    """
    n = len(v) - 1
    j = next(i for i in range(n) if v[i])
    aj = v[j]
    # (i, b): the term b x_i of the tail, i == n for the constant b
    tail = [(i, c) for i, c in enumerate(v) if c and i != j]
    coeffs = {}
    for m, c in f.items():
        coeffs.setdefault(m[j], {})[m[:j] + (0,) + m[j + 1 :]] = c
    quotient, carry = {}, {}
    for k in range(max(coeffs), 0, -1):
        part = dict(coeffs.get(k, {}))
        for m, c in carry.items():
            c = part.get(m, 0) - c
            if c:
                part[m] = c
            else:
                del part[m]
        carry = {}
        for m, c in part.items():
            c, r = divmod(c, aj)
            if r:
                return None
            quotient[m[:j] + (k - 1,) + m[j + 1 :]] = c
            for i, b in tail:
                t = m[:i] + (m[i] + 1,) + m[i + 1 :] if i < n else m
                s = carry.get(t, 0) + b * c
                if s:
                    carry[t] = s
                else:
                    del carry[t]
    return quotient if carry == coeffs.get(0, {}) else None
