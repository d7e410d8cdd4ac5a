"""div is a homomorphism: divisors of products on the two quadric cones.

`WeilDivisor.of_element` factors the stored representative and adds up the
divisors of its irreducible factors.  Oracles: div(f^2*g) = 2*div(f) +
div(g) on random linear forms, agreement with the divisor of the principal
ideal where its decomposition succeeds, and squares of a linear form whose
principal ideal the decomposition alone cannot split, through the library
and the CLI.
"""

import io
import random
from fractions import Fraction

import pytest

from divisor_forge import Ideal, Polynomial, QuotientRing, WeilDivisor, polynomial
from divisor_forge.cli import run_text
from divisor_forge.errors import DecompositionIncomplete

CONE3 = "QQ[x,y,z] / (x*y - z^2)"


def cones():
    return {
        "cone3": QuotientRing(("x", "y", "z"), ("x*y - z^2",)),
        "cone4": QuotientRing(("x", "y", "u", "v"), ("x*y - u*v",)),
    }


def random_linear_form(rng, ring):
    terms = {}
    for i in rng.sample(range(ring.nvars), rng.randint(1, 3)):
        e = [0] * ring.nvars
        e[i] = 1
        terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("name", ["cone3", "cone4"])
def test_square_times_form_is_additive(name):
    ring = cones()[name]
    rng = random.Random("element-divisors-" + name)
    agreed = 0
    for _ in range(8):
        f = random_linear_form(rng, ring)
        g = random_linear_form(rng, ring)
        div = WeilDivisor.of_element
        got = div(f * f * g)
        assert got == 2 * div(f) + div(g)
        assert got == div(f) + div(f * g)
        try:
            whole = WeilDivisor.of_ideal(Ideal(ring, [f * f * g]))
        except DecompositionIncomplete:
            continue
        assert got == whole
        agreed += 1
    assert agreed


def test_squared_linear_form_on_cone3():
    ring = cones()["cone3"]
    x, ell = polynomial(ring, "x"), polynomial(ring, "x + y - 2*z")
    div = WeilDivisor.of_element
    assert div(ell**2 * x) == 2 * div(ell) + div(x)
    assert div(ell**2) == 2 * div(ell)
    assert not div(ell).is_zero()


def test_squared_linear_form_through_cli():
    script = (
        "ring R = %s;\n"
        "print divisor((x+y-2*z)^2*x);\n"
        "print divisor((x+y-2*z)^2);\n"
        "print divisor((x+y-2*z)^2*x) - 2*divisor(x+y-2*z) - divisor(x);\n"
        "print divisor((x+y-2*z)^2) - 2*divisor(x+y-2*z);\n" % CONE3)
    out, err = io.StringIO(), io.StringIO()
    assert run_text(script, out=out, err=err) == 0, err.getvalue()
    lines = out.getvalue().splitlines()
    assert lines[0] != "o1 = 0"
    assert lines[-2:] == ["o3 = 0", "o4 = 0"]
