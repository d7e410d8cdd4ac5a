"""The coefficient rule: an integral coefficient is an int, any other is a
Fraction, and no float is ever formed.

A true division of two ints makes a float, so every division of one
coefficient by another in the library goes through engine.coeff_div, whose
left operand is a Fraction; the AST check below fails on any other, in
src/ and in the frozen reference copies that tests compare the library
with.  The seeded test runs the library's arithmetic on int-valued inputs,
and sums and products of Fractions that are integral, and checks the rule
on everything that comes back.
"""

import ast
import pathlib
import random
from fractions import Fraction

import divisor_forge
from divisor_forge import (
    Ideal,
    Polynomial,
    QuotientRing,
    RingMap,
    engine,
    graded_piece_basis,
    polynomial,
)
from divisor_forge.factorization import factor_terms
from divisor_forge.ideals import _exact_div, _solvable_variable

SRC = pathlib.Path(divisor_forge.__file__).parent
TESTS = pathlib.Path(__file__).parent


def inexact_divisions(source):
    """Line numbers of the true divisions whose left operand is not a
    Fraction(...) call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
            if not (isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "Fraction"):
                out.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            out.append(node.lineno)
    return sorted(out)


def test_the_check_sees_an_inexact_division():
    source = ("a = b / c\nd = Fraction(b) / c\ne = Fraction(1, 2) / f(b)\n"
              "g = b // c\nh = (b / c) + Fraction(b) / c\nb /= c\n")
    assert inexact_divisions(source) == [1, 5, 6]


def test_library_divides_coefficients_exactly():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = inexact_divisions(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}


def frozen_references(path):
    """The source of each top-level function named ref_* in a test file."""
    source = path.read_text(encoding="utf-8")
    return {node.name: ast.get_source_segment(source, node)
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("ref_")}


def test_frozen_references_divide_exactly():
    """The frozen copies the engine and graded pieces are compared with
    divide as the library does, so an int coefficient that reaches them
    makes no float."""
    found, names = {}, set()
    for name in ("test_engine_differential.py", "test_graded_pieces.py"):
        for ref, source in frozen_references(TESTS / name).items():
            names.add(ref)
            lines = inexact_divisions(source)
            if lines:
                found[ref] = lines
    assert {"ref_monic", "ref_s_poly", "ref_normal_form", "ref_rref"} <= names
    assert found == {}


# ---------------------------------------------------------------------------
# the rule on int-valued inputs

RINGS = {
    "cone3": (("x", "y", "z"), ("x*y - z^2",)),
    "cone4": (("x", "y", "u", "v"), ("x*y - u*v",)),
    "plane": (("x", "y"), ()),
}

# per ring, int-valued images in QQ[s,t] that send its relation to zero
MAPS = {
    "cone3": ["s^2", "4*t^2", "2*s*t"],
    "cone4": ["2*s", "3*t", "6*s", "t"],
    "plane": ["s - 2*t", "3*s*t + 1"],
}


def assert_rule(polys, what):
    for p in polys:
        for c in p.values():
            want = int if c.denominator == 1 else Fraction
            assert type(c) is want, (what, p)


def random_terms(rng, nvars, nterms=3, degree=3):
    """An int-valued term dict with a leading coefficient other than 1."""
    p = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, degree) for _ in range(nvars))
        p[m] = p.get(m, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    p = {m: c for m, c in p.items() if c}
    if p:
        p[max(p, key=engine.grevlex_key)] = rng.choice([2, -3, 5])
    return p


def axes(n):
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


def test_int_valued_inputs_keep_the_rule():
    rng = random.Random(20)
    target = QuotientRing(("s", "t"))
    for name, spec in sorted(RINGS.items()):
        R = QuotientRing(*spec)
        n, key = R.nvars, R.key
        phi = RingMap(R, target, MAPS[name])
        for _ in range(6):
            f, g, h = (random_terms(rng, n) for _ in range(3))
            if not (f and g and h):
                continue
            F, G = Polynomial(R, f), Polynomial(R, g)
            arithmetic = [F + G, F - G, F * G, -F, F**3, F * 2 + 1,
                          R.one(), *R.variables()]
            assert_rule([P.terms for P in arithmetic], "arithmetic")
            assert_rule([P.nf_terms() for P in arithmetic], "normal form")
            assert_rule([phi(P).terms for P in arithmetic], "ring map")
            # Fraction inputs whose sums and products are integral
            H = F * Fraction(1, 2)
            halves = {m: Fraction(c, 2) for m, c in f.items()}
            fractional = [H * 2, H + H, H - (-H), 2 * H + G, H * H * 4,
                          H**2 * 4, G - H - H]
            assert_rule([P.terms for P in fractional], "Fraction arithmetic")
            assert_rule([engine.p_add(halves, halves),
                         engine.p_sub(halves, engine.p_neg(halves)),
                         engine.p_mul(halves, {(0,) * n: Fraction(2)}),
                         engine.p_pow(halves, 2)], "Fraction term dicts")
            gb = engine.buchberger([f, g, h], key)
            assert_rule(gb, "buchberger")
            assert_rule([engine.normal_form(p, gb, key)
                         for p in (f, g, engine.p_mul(f, g),
                                   random_terms(rng, n, 5))], "normal_form")
            fg = engine.p_mul(f, g)
            quotient = _exact_div(fg, g, key)
            assert quotient == f
            assert_rule([quotient, _exact_div(fg, engine.monic(g, key), key),
                         engine.monic(g, key)], "_exact_div")
            a, b = (random_terms(rng, n, degree=1) for _ in range(2))
            unit, factors = factor_terms(engine.p_mul(a, engine.p_mul(a, b)),
                                         n, key)
            assert factors
            assert_rule([{(): unit}] + [d for d, _ in factors],
                        "factorization")
            assert_rule(Ideal(R, [F, G]).groebner, "ideal basis")
            # two int-valued linear forms: a homogeneous ideal
            forms = [Polynomial(R, {e: rng.choice([-3, -1, 2, 5])
                                    for e in axes(n)[:k]})
                     for k in (2, n)]
            pieces = [graded_piece_basis(Ideal(R, forms), d)
                      for d in range(1, 4)]
            assert any(pieces)
            assert_rule([P.terms for piece in pieces for P in piece],
                        "graded_piece_basis")
    # a linear element with leading coefficient 2 solves with halves
    x = (1, 0, 0)
    i, value = _solvable_variable({x: 2, (0, 1, 0): 3, (0, 0, 0): 1}, 3)
    assert_rule([value], "_solvable_variable")
    assert i == 0 and value == {(0, 1, 0): Fraction(-3, 2),
                                (0, 0, 0): Fraction(-1, 2)}
    i, value = _solvable_variable({x: -1, (0, 1, 1): 3}, 3)
    assert_rule([value], "_solvable_variable")
    assert value == {(0, 1, 1): 3}


def test_a_halved_variable_doubled_is_an_int():
    R = QuotientRing(("x", "y"))
    p = polynomial(R, "x/2 + y") * 2
    assert p.terms == {(1, 0): 1, (0, 1): 2}
    assert_rule([p.terms], "x/2 + y times 2")
