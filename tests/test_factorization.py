"""factor_terms: seeded differential tests against the expression-tree
conversion it replaced, round trips, linear forms beyond the degree cap,
and the peel of rational linear factors that spares sympy."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from divisor_forge import (
    FactorCoefficientsExceeded, FactorDegreeExceeded, QuotientRing,
    WeilDivisor, polynomial)
from divisor_forge import engine, factorization
from divisor_forge.engine import elim_key, grevlex_key
from divisor_forge.factorization import factor_terms


def reference_factor_terms(terms, nvars, key):
    """The former conversion, kept as the reference: every input, linear
    forms too, goes to sympy as an expression tree."""
    if all(not any(m) for m in terms):
        return terms[(0,) * nvars], []
    symbols = sympy.symbols("t0:%d" % nvars)
    if nvars == 1:
        symbols = (symbols[0],) if not isinstance(symbols, tuple) else symbols
    expr = sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s**e for s, e in zip(symbols, m) if e])
        for m, c in terms.items()
    ])
    poly = sympy.Poly(expr, *symbols, domain="QQ")
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


def random_terms(rng, nvars, maxdeg):
    """A nonzero term dict of total degree <= maxdeg with small rational
    coefficients."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            budget = rng.randint(0, maxdeg)
            mono = []
            for _ in range(nvars):
                e = rng.randint(0, budget)
                budget -= e
                mono.append(e)
            rng.shuffle(mono)
            c = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + c
        terms = {m: c for m, c in terms.items() if c}
    return terms


def random_input(rng, nvars):
    """Degree <= 3: either random terms or a product, so that reducible
    inputs and repeated factors occur."""
    shape = rng.randrange(3)
    if shape == 0:
        return random_terms(rng, nvars, 3)
    if shape == 1:
        return engine.p_mul(random_terms(rng, nvars, 1),
                            random_terms(rng, nvars, 2))
    return engine.p_pow(random_terms(rng, nvars, 1), rng.choice([2, 3]))


def expand(unit, factors, nvars):
    out = {(0,) * nvars: Fraction(unit)}
    for f, m in factors:
        out = engine.p_mul(out, engine.p_pow(f, m))
    return out


@pytest.mark.parametrize("key_name", ["grevlex", "elim1"])
def test_factor_terms_matches_reference(key_name):
    key = grevlex_key if key_name == "grevlex" else elim_key(1)
    rng = random.Random(0xFAC7 + len(key_name))
    for _ in range(300):
        nvars = rng.randint(1, 4)
        terms = random_input(rng, nvars)
        snapshot = dict(terms)
        unit, factors = factor_terms(terms, nvars, key)
        assert (unit, factors) == reference_factor_terms(terms, nvars, key)
        assert terms == snapshot
        assert expand(unit, factors, nvars) == terms
        for f, _ in factors:
            assert f is not terms
            assert engine.leading(f, key)[1] == 1


def variable_sum(nvars):
    """x0 + ... + x(nvars-1) as a term dict."""
    return {tuple(int(i == j) for j in range(nvars)): Fraction(1)
            for i in range(nvars)}


def test_linear_forms_skip_the_degree_cap():
    nvars = 10
    form = variable_sum(nvars)
    # the Kronecker image of x0+...+x9 has degree 2^10 - 1 > 512
    unit, factors = factor_terms(form, nvars, grevlex_key)
    assert unit == 1 and factors == [(form, 1)]
    assert factors[0][0] is not form

    scaled = {m: 3 * c for m, c in form.items()}
    unit, factors = factor_terms(scaled, nvars, grevlex_key)
    assert unit == 3 and factors == [(form, 1)]
    assert expand(unit, factors, nvars) == scaled


def test_degree_cap_still_refuses_nonlinear_inputs():
    nvars = 10
    # the cap applies from degree 4 on: the peel decides a square
    form = variable_sum(nvars)
    square = engine.p_pow(form, 2)
    assert factor_terms(square, nvars, grevlex_key) == (1, [(form, 2)])
    # the Kronecker image of x0^4+...+x9^4+1 has degree 5^10 - 1 > 512
    quartic = {tuple(4 * int(i == j) for j in range(nvars)): Fraction(1)
               for i in range(nvars)}
    quartic[(0,) * nvars] = Fraction(1)
    with pytest.raises(FactorDegreeExceeded):
        factor_terms(quartic, nvars, grevlex_key)


def test_degree_cap_does_not_count_monomial_content():
    """x^600 and x^30*y^30 * (y - 2x) are peeled at once: the cap measures
    each variable's exponent span, as left after the content comes out."""
    assert factor_terms({(600,): Fraction(1)}, 1, grevlex_key) == (
        1, [({(1,): Fraction(1)}, 600)])
    terms = named("3*x^30*y^31 - 6*x^31*y^30", ("x", "y"))
    unit, factors = factor_terms(terms, 2, grevlex_key)
    assert unit == -6 and expand(unit, factors, 2) == terms
    assert sorted(mult for _, mult in factors) == [1, 30, 30]


def test_coefficient_cap_refuses_only_above_it(monkeypatch):
    """A quartic always goes to sympy; its integer coefficients may have
    MAX_COEFF_BITS bits and no more."""
    monkeypatch.setattr(factorization, "MAX_COEFF_BITS", 20)
    at_cap = named("x^4 + %d*y^4 + 1" % (2**20 - 1), ("x", "y"))
    unit, factors = factor_terms(at_cap, 2, grevlex_key)
    assert expand(unit, factors, 2) == at_cap
    # a rational input is scaled to integers first: 2^20/3 becomes 2^20
    for text in ["x^4 + %d*y^4 + 1" % 2**20,
                 "1/3*x^4 + %d/3*y^4 + 1/3" % 2**20,
                 "x^4 + y^4 + 1/%d" % 2**20]:
        with pytest.raises(FactorCoefficientsExceeded, match="21 bits"):
            factor_terms(named(text, ("x", "y")), 2, grevlex_key)


def test_divisor_of_a_linear_form_in_ten_variables():
    names = tuple("x%d" % i for i in range(10))
    R = QuotientRing(names)
    f = R.zero()
    for v in R.variables():
        f = f + v
    D = WeilDivisor.of_element(f)
    assert repr(D) == "Div(%s)" % " + ".join(names)


# ---------------------------------------------------------------------------
# the peel of rational linear factors

def random_form(rng, nvars):
    """A linear form with small rational coefficients and a variable."""
    while True:
        coeffs = [Fraction(rng.choice([0, 0, 1, -1, 2, -3]),
                           rng.choice([1, 1, 2])) for _ in range(nvars + 1)]
        if any(coeffs[:nvars]):
            return {tuple(int(i == j) for j in range(nvars)): c
                    for i, c in enumerate(coeffs) if c}


def random_product(rng, nvars):
    """A constant times 1-6 linear forms, among them repeats and translates
    of one direction, and sometimes times an irreducible quadratic."""
    zero = (0,) * nvars
    f = {zero: Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))}
    count = rng.randint(1, 6)
    while count:
        form = random_form(rng, nvars)
        shape = rng.randrange(3) if count > 1 else 0
        if shape == 1:  # repeated
            form = engine.p_pow(form, 2)
        elif shape == 2:  # parallel: the same direction, another offset
            form = engine.p_mul(form, engine.p_add(
                form, {zero: Fraction(rng.choice([1, -1, 3]))}))
        count -= 1 + bool(shape)
        f = engine.p_mul(f, form)
    if rng.random() < 0.3:
        i = rng.randrange(nvars)
        square = tuple(2 * int(j == i) for j in range(nvars))
        f = engine.p_mul(f, {square: Fraction(1), zero: Fraction(1)})
    return f


def named(text, names):
    """A term dict from polynomial syntax over the given variables."""
    return dict(polynomial(QuotientRing(names), text).terms)


SPECIAL = [
    ("x*(x+1)", ("x",)),
    ("x^3*(x+1)^2*(2*x-3)", ("x",)),
    ("(x+y)*(y+z)", ("x", "y", "z")),
    ("(x+y)*(x+z)*(y+z)", ("x", "y", "z")),
    ("(x+y)*(x+y+1)*(x-y)^2", ("x", "y")),
    ("x*y*(x*y+1)", ("x", "y")),
    ("(x^2+y^2+z^2+w^2)*(x+w-1)", ("x", "y", "z", "w")),
]


@pytest.mark.parametrize("key_name", ["grevlex", "elim1"])
def test_peeled_products_match_reference(key_name, monkeypatch):
    monkeypatch.setattr(factorization, "MAXDEG", 10**6)
    key = grevlex_key if key_name == "grevlex" else elim_key(1)
    rng = random.Random(0x9EE1 + len(key_name))
    inputs = [named(text, names) for text, names in SPECIAL]
    inputs += [random_product(rng, rng.randint(1, 4)) for _ in range(100)]
    for terms in inputs:
        nvars = len(next(iter(terms)))
        unit, factors = factor_terms(terms, nvars, key)
        assert (unit, factors) == reference_factor_terms(terms, nvars, key)
        assert expand(unit, factors, nvars) == terms


def test_products_of_linear_forms_need_no_sympy(monkeypatch):
    monkeypatch.setattr(factorization, "MAXDEG", 10**6)
    def refuse(*args, **kwargs):
        raise AssertionError("sympy was asked to factor")

    monkeypatch.setattr(sympy.Poly, "factor_list", refuse)
    rng = random.Random(0x11E4)
    for text, names in SPECIAL[:5]:
        terms = named(text, names)
        factor_terms(terms, len(names), grevlex_key)
    for _ in range(50):
        nvars = rng.randint(1, 4)
        terms = {(0,) * nvars: Fraction(1)}
        for _ in range(rng.randint(1, 6)):
            terms = engine.p_mul(terms, random_form(rng, nvars))
        unit, factors = factor_terms(terms, nvars, grevlex_key)
        assert all(engine.total_degree(f) == 1 for f, _ in factors)
        assert expand(unit, factors, nvars) == terms


def test_coefficients_beyond_the_root_search_limit():
    big = factorization.ROOT_COEFF_LIMIT + 1
    cases = [
        ("(%d*x - 1)*(x + 2)*(x^2 + 1)" % big, ("x",)),
        ("(x - %d*y + %d)*(3*x + y - 1)*(x - y)" % (big, big**2), ("x", "y")),
        ("(x + y - %d)*(x - 1)*(y + z)" % (big * 7), ("x", "y", "z")),
    ]
    for text, names in cases:
        terms = named(text, names)
        for key in (grevlex_key, elim_key(1)):
            got = factor_terms(terms, len(names), key)
            assert got == reference_factor_terms(terms, len(names), key)


# ---------------------------------------------------------------------------
# quadrics and cubics decided by the peel

def big_form(rng, nvars, bound):
    """A linear form with integer coefficients up to bound and a variable."""
    while True:
        coeffs = [rng.choice([0, rng.randint(-bound, bound)])
                  for _ in range(nvars + 1)]
        if any(coeffs[:nvars]):
            return {tuple(int(i == j) for j in range(nvars)): Fraction(c)
                    for i, c in enumerate(coeffs) if c}


def big_terms(rng, nvars, degree, bound):
    """Two to five terms of degree at most `degree`, one of them of that
    degree, with coefficients up to bound."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            mono = [0] * nvars
            for _ in range(rng.randint(0, degree)):
                mono[rng.randrange(nvars)] += 1
            c = rng.randint(-bound, bound)
            if c:
                terms[tuple(mono)] = Fraction(c)
        if terms and engine.total_degree(terms) == degree:
            return terms


def quadric_or_cubic(rng, nvars, bound):
    """A polynomial of degree 2 or 3 of one of the shapes: a product of
    linear forms, a linear form times a quadric, or random terms."""
    shape = rng.randrange(3)
    if shape == 0:
        f = big_form(rng, nvars, bound)
        for _ in range(rng.randint(1, 2)):
            f = engine.p_mul(f, big_form(rng, nvars, bound))
        return f
    if shape == 1:
        return engine.p_mul(big_form(rng, nvars, bound),
                            big_terms(rng, nvars, 2, bound))
    return big_terms(rng, nvars, rng.choice([2, 3]), bound)


def test_quadrics_and_cubics_match_sympy():
    """Seeded inputs of degree 2 and 3 in 1-4 variables, with coefficients
    up to 10^8, some past the root search's limit so that the peel gives up
    and sympy answers: unit and factors agree with sympy's factor_list."""
    rng = random.Random(0xC0B1C)
    bounds = [3, 100, 10**4, 10**8]
    irreducible = past_limit = 0
    for _ in range(160):
        nvars = rng.randint(1, 4)
        terms = quadric_or_cubic(rng, nvars, rng.choice(bounds))
        if max(abs(c) for c in terms.values()) > factorization.ROOT_COEFF_LIMIT:
            past_limit += 1
        for key in (grevlex_key, elim_key(1)):
            got = factor_terms(terms, nvars, key)
            assert got == reference_factor_terms(terms, nvars, key), terms
        degrees = [engine.total_degree(f) for f, _ in got[1]]
        irreducible += any(d > 1 for d in degrees)
    assert irreducible >= 40 and past_limit >= 20


def test_quadrics_and_cubics_within_the_root_search_need_no_sympy(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy was asked to factor")

    monkeypatch.setattr(factorization, "_sympy_factors", refuse)
    rng = random.Random(0x9EE7)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        terms = quadric_or_cubic(rng, nvars, 50)
        unit, factors = factor_terms(terms, nvars, grevlex_key)
        assert expand(unit, factors, nvars) == terms


def test_a_peel_out_of_lines_leaves_the_cofactor_to_sympy(monkeypatch):
    """(x0 + 1)*(x1*x2 + x3*x4) in nine variables vanishes on the first
    LINES lines parallel to the x0 axis, so the peel cannot look for the
    offset of x0 + 1; it gives up, and sympy finds the factor."""
    names = tuple("x%d" % i for i in range(9))
    terms = named("(x0 + 1)*(x1*x2 + x3*x4)", names)
    asked = []
    real = factorization._sympy_factors

    def spy(*args):
        asked.append(args[0])
        return real(*args)

    monkeypatch.setattr(factorization, "_sympy_factors", spy)
    got = factor_terms(terms, len(names), grevlex_key)
    assert got == reference_factor_terms(terms, len(names), grevlex_key)
    assert len(got[1]) == 2 and len(asked) == 1


def test_huge_coefficients_on_quadrics_need_no_sympy(monkeypatch):
    """A quadric restricted to a line is linear or quadratic in t, so its
    roots need no coefficient bound."""
    def refuse(*args, **kwargs):
        raise AssertionError("sympy was asked to factor")

    monkeypatch.setattr(factorization, "_sympy_factors", refuse)
    for text, names, count in [
        ("y*z + 10^5000*x", ("x", "y", "z"), 1),
        ("x + 10^1000*y^2", ("x", "y"), 1),
        ("x^2 + 10^5000*y^2 + 1", ("x", "y"), 1),
        ("x^2 + 10^5000*y + 10^5000", ("x", "y"), 1),
        ("(x + 10^60*y + 1)*(x - 10^60*y + 3)", ("x", "y"), 2),
    ]:
        terms = named(text, names)
        unit, factors = factor_terms(terms, len(names), grevlex_key)
        assert len(factors) == count
        assert all(m == 1 for _, m in factors)
        assert expand(unit, factors, len(names)) == terms


def test_cone_table_with_a_huge_coefficient_exits_quickly():
    """In the cone, divisor{1: ideal(x^2 + 10^5000*x)} factors the basis
    element y*z + 10^5000*x; the answer is past the digit limit, exit 2."""
    script = ("ring R = QQ[x,y,z] / (x^2 - y*z);\n"
              "print divisor{1: ideal(x^2 + 10^5000*x)};\n")
    src = os.path.dirname(os.path.dirname(factorization.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "divisor_forge.cli", "run", "-"],
        input=script, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "cannot print a number of more than" in proc.stderr
