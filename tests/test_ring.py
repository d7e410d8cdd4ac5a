"""Quotient rings, elements, gradings and ring maps."""

import itertools
import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DivisorForgeError,
    FractionalIdeal,
    Grading,
    GradingNotPositive,
    Ideal,
    Polynomial,
    QuotientRing,
    RingMap,
    RingMismatch,
    WorkExceeded,
    engine,
    ideal,
    polynomial,
)
from divisor_forge.cli import WORK_BUDGET
from divisor_forge.ring import as_int


def test_ring_construction_and_dimension(cone4, cone3, plane):
    assert cone4.dimension() == 3
    assert cone3.dimension() == 2
    assert plane.dimension() == 2
    assert plane.is_free()
    assert not cone4.is_free()


def test_equality_mod_relations(cone4):
    xy = polynomial(cone4, "x*y")
    uv = polynomial(cone4, "u*v")
    assert xy == uv
    assert (xy - uv).is_zero()
    assert xy != polynomial(cone4, "x*v")


def test_normal_form_unique_and_idempotent(cone3):
    f = polynomial(cone3, "x*y + z^2")
    nf = f.normal_form()
    assert nf.terms == nf.normal_form().terms
    # xy reduces to z^2, so f has canonical form 2z^2
    assert nf == polynomial(cone3, "2*z^2")


def test_polynomial_parser_rejects_bad_input(plane):
    with pytest.raises(DivisorForgeError):
        polynomial(plane, "x / y")
    with pytest.raises(DivisorForgeError):
        polynomial(plane, "q + 1")
    with pytest.raises(DivisorForgeError):
        polynomial(plane, "x ^ y")


def test_parser_round_trip_printing(plane, cone4):
    for text in ("x^2 - 2*x*y + y^2", "x + 1", "3*x*y - 1/2*y"):
        f = polynomial(plane, text)
        assert polynomial(plane, repr(f)) == f
    g = polynomial(cone4, "x*y - u*v + v^3")
    assert polynomial(cone4, repr(g)) == g
    # more terms than the nesting bound: a sum of any length is one level
    R = QuotientRing(("x", "y", "z"))
    h = polynomial(R, "(x+y+z+1)^7")
    assert len(h.terms) == 120
    assert polynomial(R, repr(h)) == h


def test_multidegree_standard_and_weighted(cone4, weighted):
    assert polynomial(cone4, "x*y").multidegree() == (2,)
    assert polynomial(cone4, "x + y*u").multidegree() is None
    x = polynomial(weighted, "x")
    y = polynomial(weighted, "y")
    assert x.multidegree() == (1, 0)
    assert y.multidegree() == (2, 1)
    assert (x * y).multidegree() == (3, 1)


def test_grading_positivity():
    good = Grading([(1, 2), (0, 1)])
    assert good.positivity_witness() is not None
    bad = Grading([(1, -1)])
    with pytest.raises(GradingNotPositive):
        bad.require_positive()


def first_positive_combination(rows):
    """The witness the search has always returned: the first nonzero w in
    {0..4}^k, in itertools.product order, with w*A positive in every
    column."""
    for w in itertools.product(range(5), repeat=len(rows)):
        if any(w) and all(sum(a * r[j] for a, r in zip(w, rows)) > 0
                          for j in range(len(rows[0]))):
            return w
    return None


def test_small_gradings_answer_as_before_under_the_budget():
    """Every grading of one to three rows with entries -1, 0 and 1 on two
    variables has the same witness, or none, with no budget and under the
    CLI's budget; a search that finds none charges 1 + 2k // TESTS units
    for each of the 5^k - 1 combinations, so eight rows, 5^8 - 1
    combinations, still fit in the budget.  A second call reuses the
    answer and charges nothing."""
    entries = list(itertools.product((-1, 0, 1), repeat=2))
    for k in (1, 2, 3):
        units = 1 + 2 * k // engine.TESTS
        for rows in itertools.product(entries, repeat=k):
            want = first_positive_combination(rows)
            assert Grading(rows).positivity_witness() == want
            grading = Grading(rows)
            with engine.work_budget(WORK_BUDGET):
                assert grading.positivity_witness() == want
                spent = engine.spent
                if want is None:
                    assert spent == (5 ** k - 1) * units
                assert grading.positivity_witness() == want
                assert engine.spent == spent
    assert (5 ** 8 - 1) * (1 + 2 * 8 // engine.TESTS) < WORK_BUDGET


def test_a_refused_positivity_search_keeps_no_answer():
    """A search refused at the budget leaves the grading unsearched: the
    next call, with no budget, finds its witness, which comes after
    5^4 - 1 combinations that are not positive."""
    grading = Grading([(1, 1), (1, -1), (-1, 1), (1, -1), (-1, 1)])
    with engine.work_budget(100):
        with pytest.raises(WorkExceeded):
            grading.positivity_witness()
    assert grading.positivity_witness() == first_positive_combination(
        grading.rows) == (1, 0, 0, 0, 0)


def test_ring_mismatch_guard(plane, cone4):
    with pytest.raises(RingMismatch):
        polynomial(plane, "x") + polynomial(cone4, "x")


def test_ring_map_well_definedness(cone4, plane):
    # xy - uv must map to zero: x,y,u,v -> s, t, s, t works
    phi = RingMap(cone4, plane, ("x", "y", "x", "y"))
    assert phi(polynomial(cone4, "x*v")) == polynomial(plane, "x*y")
    with pytest.raises(DivisorForgeError):
        RingMap(cone4, plane, ("x", "y", "x", "x"))


def test_ring_map_identity_and_composition_values(cone3):
    ident = RingMap.identity(cone3)
    f = polynomial(cone3, "x*y + z")
    assert ident(f) == f


def test_scalar_coercion_and_fractions(plane):
    x = polynomial(plane, "x")
    f = x * Fraction(1, 2) + 1
    assert f == polynomial(plane, "x/2 + 1")
    assert (f - f).is_zero()
    assert isinstance(f, Polynomial)


def test_subtraction_and_hashing(plane, cone3):
    x, y = plane.variables()
    assert str(1 - x) == "-x + 1"
    assert x - 1 == -(1 - x)
    assert (x - y) + y == x
    assert len({x, x + 0, y}) == 2
    # equal modulo the relation, so one element of a set
    assert len({polynomial(cone3, "x*y"), polynomial(cone3, "z^2")}) == 1
    for other in (None, ideal(plane, "x")):
        with pytest.raises(TypeError):
            x - other
        with pytest.raises(TypeError):
            other - x


def test_constant_recognition(plane):
    assert polynomial(plane, "5").is_unit()
    assert not polynomial(plane, "x").is_unit()
    assert polynomial(plane, "0*x").is_zero()


def test_duplicate_names_rejected():
    with pytest.raises(DivisorForgeError):
        QuotientRing(("x", "x"))


def test_constructors_take_text_numbers_and_elements(plane):
    x, y = plane.variables()
    assert Ideal(plane, [1]).is_unit()
    assert ideal(plane, "x", 2).is_unit()
    assert Ideal(plane, [Fraction(0), x]) == \
        ideal(plane, "x")
    phi = RingMap(plane, plane, [1, "y"])
    assert phi(x * y + x) == y + 1
    F = FractionalIdeal(ideal(plane, "x"), 2)
    assert F.denominator == polynomial(plane, "2")
    assert repr(F) == "(1/(2)) * ideal(x)"


def test_constructors_refuse_an_element_of_another_ring(plane, cone3):
    z = polynomial(cone3, "z")
    for build, message in [
        (lambda: Ideal(plane, [z]), "generator from a different ring"),
        (lambda: ideal(plane, "x", z), "generator from a different ring"),
        (lambda: RingMap(plane, plane, [z, "y"]), "image not in target ring"),
        (lambda: FractionalIdeal(ideal(plane, "x"), z),
         "numerator and denominator in different rings"),
    ]:
        with pytest.raises(RingMismatch, match=message):
            build()


def test_relations_are_read_or_refused():
    names = ("x", "y")
    same = QuotientRing(names, ("x^2 - 1",))
    for rels in [(polynomial(same, "x^2 - 1"),),
                 (polynomial(QuotientRing(names, ("x^3",)), "x^2 - 1"),),
                 ({(2, 0): 1, (0, 0): -1},),
                 ({(2, 0): Fraction(2, 2), (0, 0): Fraction(-1), (1, 1): 0},)]:
        assert QuotientRing(names, rels) == same
    # a number is a constant relation
    assert repr(QuotientRing(names, (5,))) == "QQ[x,y]/(1)"
    assert QuotientRing(names, (Fraction(1, 2),)) == \
        QuotientRing(names, ("1/2",))
    assert QuotientRing(names, (0, "x*y")) == QuotientRing(names, ("x*y",))
    for rels in [({(1,): 1},), ({(1, 0, 0): 1},), ({(1, -1): 1},),
                 ({(1, 1.0): 1},), ({(True, 0): 1},), ({"x": 1},),
                 ({(1, 0): 1.5},), ({(1, 0): "1"},), (None,), ([1, 2],),
                 (2.0,)]:
        with pytest.raises(DivisorForgeError) as caught:
            QuotientRing(names, rels)
        assert type(caught.value) is DivisorForgeError, rels
    other = QuotientRing(("a",))
    with pytest.raises(RingMismatch, match="variables \\('a',\\)"):
        QuotientRing(names, (polynomial(other, "a^2 - 1"),))


@pytest.mark.parametrize("n", [Fraction(5, 2), 2.5, 2.0, "2", True])
def test_non_integral_exponents_are_refused(plane, n):
    x = polynomial(plane, "x")
    with pytest.raises(DivisorForgeError, match="an exponent must be"):
        x ** n
    assert x ** Fraction(4, 2) == x ** 2 == polynomial(plane, "x^2")


def test_refusals_name_the_kind_of_a_value_that_is_not_a_number(plane):
    """A refused value that is not a number is named by its kind, not
    formatted."""
    x = polynomial(plane, "x")
    I = ideal(plane, "x")
    with pytest.raises(DivisorForgeError,
                       match="^an exponent must be an integer, not an Ideal$"):
        x ** I
    with pytest.raises(DivisorForgeError,
                       match="^n must be an integer, not a str$"):
        as_int("2", "n")
    with pytest.raises(DivisorForgeError,
                       match="^n must be an integer, not 2.5$"):
        as_int(2.5, "n")
    for build in (lambda: Ideal(plane, [I]), lambda: ideal(plane, "x", I),
                  lambda: RingMap(plane, plane, [I, "y"]),
                  lambda: FractionalIdeal(I, I)):
        with pytest.raises(RingMismatch,
                           match="^an Ideal is not a ring element$"):
            build()


def test_as_int_refuses_bools():
    for b in (True, False):
        with pytest.raises(DivisorForgeError, match="n must be an integer"):
            as_int(b, "n")
    assert as_int(Fraction(6, 3), "n") == 2 and as_int(-7, "n") == -7


@pytest.mark.parametrize("d", [Fraction(3, 2), 1.5, 1.0])
def test_non_integral_grading_rows_are_refused(d):
    with pytest.raises(DivisorForgeError, match="a degree must be"):
        Grading([(d, 1)])
    assert Grading([(Fraction(2, 1), 1)]).rows == ((2, 1),)


def looped_apply(phi, terms):
    """The earlier RingMap._apply_raw: a Polynomial per term, and each power
    of an image raised again for every term."""
    out = phi.target.zero()
    for m, c in terms.items():
        val = Polynomial(phi.target, {
            (0,) * phi.target.nvars: engine.coefficient(c)})
        for i, e in enumerate(m):
            if e:
                val = val * (phi.images[i] ** e)
        out = out + val
    return out


def test_ring_maps_apply_as_the_term_loop_did(plane, cone3):
    """The same ambient representative, in the same term order, as the
    earlier loop: on both blow-up charts of the plane and the Veronese map
    of the quadric cone, scaled by seeded coefficients."""
    rng = random.Random(2150)
    target = QuotientRing(("s", "t"))
    # images and their scalars for seeded a, b; the cone's keep xy = z^2
    maps = [(plane, ["s", "s*t"], lambda a, b: (a, b)),
            (plane, ["s*t", "t"], lambda a, b: (a, b)),
            (cone3, ["s^2", "t^2", "s*t"], lambda a, b: (a * a, b * b, a * b))]
    for source, images, scalars in maps:
        for _ in range(15):
            a, b = rng.choice([1, -2, 3]), rng.choice([1, Fraction(1, 2)])
            phi = RingMap(source, target, [
                polynomial(target, f) * c
                for f, c in zip(images, scalars(a, b))])
            terms = {}
            for _ in range(rng.randint(1, 6)):
                m = tuple(rng.randint(0, 3) for _ in range(source.nvars))
                terms[m] = rng.choice([1, -1, 2, Fraction(-3, 2)])
            got = phi._apply_raw(terms)
            want = looped_apply(phi, terms)
            assert list(got.terms.items()) == list(want.terms.items())
            f = Polynomial(source, terms)
            assert phi(f).terms == want.normal_form().terms
