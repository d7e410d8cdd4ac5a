"""Graded pieces against a frozen copy of their earlier row-reduction version.

`graded_piece_basis` returns, for each standard monomial m of the degree
that lies in the leading ideal of I, the element m - NF_I(m).  The earlier
version spanned monomial multiples of the quotient generators and
Gauss-eliminated them over the standard monomials; its reduced row echelon
basis is unique and its row with pivot m is exactly m - NF_I(m).  On seeded
random homogeneous ideals both versions return the same term dicts in the
same order, or raise the same exception type with the same message.

The divisor/sheaf functions that once kept answers on the divisor object
now compute afresh: repeated calls and calls on an equal fresh divisor
agree, reprs included.
"""

import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DivisorForgeError,
    Grading,
    GradingNotPositive,
    Ideal,
    Polynomial,
    QuotientRing,
    WeilDivisor,
    graded_piece_basis,
    ideal,
    non_cartier_locus,
    sheaf_of,
    unit_ideal,
)
from divisor_forge import engine
from divisor_forge.ideals import monomials_of_multidegree

# ---------------------------------------------------------------------------
# frozen reference: monomial multiples of the quotient generators, reduced
# modulo the defining ideal and row-reduced over the standard monomials


def ref_graded_piece_basis(I, degree):
    ring = I.ring
    if isinstance(degree, int):
        degree = (degree,) * ring.grading.ncomponents
    degree = tuple(int(d) for d in degree)
    if len(degree) != ring.grading.ncomponents:
        raise DivisorForgeError("multidegree has wrong length")
    lts = [engine.leading(g, ring.key)[0] for g in ring.quotient_gb]
    std = [
        m for m in monomials_of_multidegree(ring, degree)
        if not any(engine.mono_divides(lt, m) for lt in lts)
    ]
    std.sort(key=ring.key, reverse=True)
    col = {m: i for i, m in enumerate(std)}
    rows = []
    for g in I.quotient_gens():
        gdeg = g.multidegree()
        if gdeg is None:
            raise DivisorForgeError(
                "graded piece of an ideal with inhomogeneous generators")
        shift = tuple(d - gd for d, gd in zip(degree, gdeg))
        for m in monomials_of_multidegree(ring, shift):
            prod = ring.normal_form_raw(
                engine.p_mul({m: Fraction(1)}, g.nf_terms()))
            if prod:
                vec = [Fraction(0)] * len(std)
                for mm, c in prod.items():
                    vec[col[mm]] = Fraction(c)
                rows.append(vec)
    basis_rows = ref_rref(rows)
    out = []
    for vec in basis_rows:
        terms = {std[i]: c for i, c in enumerate(vec) if c}
        out.append(Polynomial(ring, terms))
    return out


def ref_rref(rows):
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [Fraction(x) / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r]]


# ---------------------------------------------------------------------------
# random homogeneous ideals


def random_form(rng, ring, degree):
    """A random homogeneous element of the given multidegree, or None when
    the degree has no monomials."""
    monos = monomials_of_multidegree(ring, degree)
    if not monos:
        return None
    terms = {}
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        terms[m] = c
    return Polynomial(ring, terms)


def random_degree(rng, ring, top):
    return tuple(rng.randint(0, top) for _ in range(ring.grading.ncomponents))


def outcome(fn, I, degree):
    """Term dicts in order (with their order kept), or the exception."""
    try:
        return [list(p.terms.items()) for p in fn(I, degree)]
    except Exception as exc:  # the comparison includes the type
        return (type(exc), str(exc))


RINGS = {
    "cone3": lambda: QuotientRing(("x", "y", "z"), ("x*y - z^2",)),
    "cone4": lambda: QuotientRing(("x", "y", "u", "v"), ("x*y - u*v",)),
    "elliptic": lambda: QuotientRing(
        ("x", "y", "z"), ("y^2*z - x*(x+z)*(x-z)",)),
    "weighted": lambda: QuotientRing(("x", "y"), (), Grading([(1, 2), (0, 1)])),
    "free": lambda: QuotientRing(("x", "y", "z")),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_graded_piece_matches_row_reduction(name):
    ring = RINGS[name]()
    rng = random.Random("graded-piece-" + name)
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(0, 3)):
            g = random_form(rng, ring, random_degree(rng, ring, 2))
            if g is not None:
                gens.append(g)
        I = Ideal(ring, gens)
        for degree in range(5):
            assert outcome(graded_piece_basis, I, degree) == outcome(
                ref_graded_piece_basis, I, degree)
        degree = random_degree(rng, ring, 4)
        assert outcome(graded_piece_basis, I, degree) == outcome(
            ref_graded_piece_basis, I, degree)


def test_graded_piece_refusals_match():
    ring = RINGS["cone3"]()
    mixed = ideal(ring, "x + y^2")
    for I, degree in ((mixed, 2), (ideal(ring, "x"), (1, 1))):
        got = outcome(graded_piece_basis, I, degree)
        assert got == outcome(ref_graded_piece_basis, I, degree)
        assert got[0] is DivisorForgeError


def test_nonpositive_grading_refused_before_inhomogeneous_generator():
    ring = QuotientRing(("x", "y"), (), Grading([(1, -1)]))
    I = ideal(ring, "x + y^2")
    got = outcome(graded_piece_basis, I, 1)
    assert got == outcome(ref_graded_piece_basis, I, 1)
    assert got[0] is GradingNotPositive


def test_inhomogeneous_relations_refused():
    # the row reduction raised KeyError here: x^2 reduces to y, which lies
    # outside the degree-2 piece
    ring = QuotientRing(("x", "y"), ("x^2 - y",))
    with pytest.raises(DivisorForgeError, match="inhomogeneous relations"):
        graded_piece_basis(unit_ideal(ring), 2)


# ---------------------------------------------------------------------------
# no state kept on the divisor


def test_sheaf_and_locus_recomputed_alike(cone3):
    def make():
        return WeilDivisor.from_primes([3, -1], [ideal(cone3, "x", "z"),
                                                 ideal(cone3, "y", "z")])

    def answers(D):
        F = sheaf_of(D)
        return [F.numerator, F.denominator, non_cartier_locus(D),
                non_cartier_locus(D, graded=True)]

    D = make()
    first = answers(D)
    shown = [repr(x) for x in [sheaf_of(D)] + first]
    for other in (D, D, make()):
        assert answers(other) == first
        assert [repr(x) for x in [sheaf_of(other)] + answers(other)] == shown
    assert vars(D).keys() == {"ring", "terms", "tier"}


@pytest.mark.parametrize("degree", [(Fraction(3, 2),), (1.5,), (2.0,)])
def test_non_integral_piece_degrees_are_refused(cone3, degree):
    m = ideal(cone3, "x", "z")
    with pytest.raises(DivisorForgeError, match="a degree must be"):
        graded_piece_basis(m, degree)
    assert graded_piece_basis(m, (Fraction(2),)) == graded_piece_basis(m, 2)


def test_a_scalar_degree_may_be_an_integral_fraction(cone3):
    m = ideal(cone3, "x", "z")
    assert graded_piece_basis(m, Fraction(2)) == graded_piece_basis(m, 2)
    for degree in (Fraction(3, 2), 1.5, 2.0):
        with pytest.raises(DivisorForgeError, match="a degree must be"):
            graded_piece_basis(m, degree)
