"""Acceptance suite.

Nine criteria, each printed as a single pass/fail line.  Criterion 8 is
the seven randomized property suites where they are defined; its line is
printed by tests/conftest.py once they have run.  Every comparison
is exact: divisors are compared as multisets of (coefficient, prime-key)
pairs, ideals through their canonical reduced Groebner keys, and all
coefficients are integers or fractions.Fraction -- no floating point.
"""

import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from divisor_forge import (
    DecompositionIncomplete,
    QuotientRing,
    RingMap,
    WeilDivisor,
    base_locus,
    divisor_of_fractional_ideal,
    ideal,
    is_cartier,
    is_q_cartier,
    map_to_projective_space,
    minimal_height_one_primes,
    non_cartier_locus,
    polynomial,
    pullback,
    sheaf_of,
)


@contextmanager
def criterion(capsys, number, label):
    """Print one pass/fail line per criterion, bypassing output capture."""

    def line(verdict):
        with capsys.disabled():
            print(f"criterion {number} ({label}): {verdict}")
            sys.stdout.flush()

    try:
        yield
    except BaseException:
        line("FAIL")
        raise
    line("PASS")


def multiset(coeff_prime_pairs):
    return frozenset((Fraction(c), P.key) for c, P in coeff_prime_pairs)


def test_criterion_1_construction(cone4, capsys):
    with criterion(capsys, 1, "divisor construction"):
        P = ideal(cone4, "x", "u")
        Q = ideal(cone4, "x", "v")
        D = WeilDivisor.from_primes([2, 3], [P, Q])
        assert D.multiset() == multiset([(2, P), (3, Q)])
        E = WeilDivisor.of_element(polynomial(cone4, "x"))
        assert E.multiset() == multiset([(1, P), (1, Q)])
        F = WeilDivisor.of_ideal(P ** 2 * Q ** 3)
        assert F.multiset() == D.multiset()


def test_criterion_2_coercion(cone4, capsys):
    with criterion(capsys, 2, "tier coercion"):
        P = ideal(cone4, "x", "u")
        Q = ideal(cone4, "y", "v")
        D = WeilDivisor.from_primes(
            [Fraction(2, 3), Fraction(-1, 2)], [P, Q]).to_rational_tier()
        assert not D.is_integral()
        six = 6 * D
        assert six.is_integral()
        assert six.to_integer_tier().multiset() == multiset([(4, P), (-3, Q)])


def test_criterion_3_group_operations(cone4, capsys):
    with criterion(capsys, 3, "group operations"):
        P = ideal(cone4, "x", "u")
        Q = ideal(cone4, "x", "v")
        S = ideal(cone4, "y", "u")
        D = WeilDivisor.from_primes([1, -2], [P, Q])
        E = WeilDivisor.of_element(polynomial(cone4, "u"))
        assert (3 * D + E).multiset() == multiset(
            [(4, P), (-6, Q), (1, S)])
        assert (D - Fraction(1, 2) * E).multiset() == multiset(
            [(Fraction(1, 2), P), (-2, Q), (Fraction(-1, 2), S)])


def test_criterion_4_sheaf_round_trip(cone3, capsys):
    with criterion(capsys, 4, "divisor/sheaf round trip"):
        D = WeilDivisor.from_primes([1], [ideal(cone3, "x", "z")])
        for graded in (False, True):
            back = divisor_of_fractional_ideal(sheaf_of(D), graded=graded)
            assert back.multiset() == D.multiset()


def test_criterion_5_pullback(plane, capsys):
    with criterion(capsys, 5, "pullback under both strategies"):
        target = QuotientRing(("a", "b"))
        phi = RingMap(plane, target, ("a*b", "b"))
        D = WeilDivisor.of_element(polynomial(plane, "x*y*(x+y)*(x-y)"))
        expected = (
            WeilDivisor.of_element(polynomial(target, "a+1"))
            + WeilDivisor.of_element(polynomial(target, "a-1"))
            + 4 * WeilDivisor.of_element(polynomial(target, "b"))
            + WeilDivisor.of_element(polynomial(target, "a"))
        )
        for strategy in ("primes", "sheaves"):
            got = pullback(phi, D, strategy=strategy)
            assert got.multiset() == expected.multiset()


def test_criterion_6_projective_maps(cone4, elliptic, capsys):
    with criterion(capsys, 6, "projective-space map and base loci"):
        D = WeilDivisor.from_primes([1], [ideal(cone4, "x", "u")])
        phi = map_to_projective_space(D)
        assert phi.source.nvars == 2
        assert {repr(f) for f in phi.images} == {"v", "x"}
        point = WeilDivisor.of_ideal(ideal(elliptic, "x", "y"))
        assert base_locus(point) == ideal(elliptic, "x", "y")
        assert base_locus(2 * point).is_unit()


def test_criterion_7_cartier_suite(cone3b, capsys):
    with criterion(capsys, 7, "Cartier test suite"):
        D = WeilDivisor.of_ideal(ideal(cone3b, "x", "y"))
        assert not is_cartier(D)
        assert non_cartier_locus(D) == ideal(cone3b, "x", "y", "z")
        assert is_cartier(2 * D)
        assert is_cartier(D, graded=True)
        assert is_q_cartier(5, D) == 2


def test_criterion_9_failure_honesty(space, tmp_path, capsys):
    with criterion(capsys, 9, "failure honesty"):
        I = ideal(space, "x*z - y^2", "y*w - z^2", "x*w - y*z")
        with pytest.raises(DecompositionIncomplete):
            minimal_height_one_primes(I)
        script = tmp_path / "incomplete.df"
        script.write_text(
            "ring R = QQ[x,y,z,w];\n"
            "D = divisor(ideal(x*z - y^2, y*w - z^2, x*w - y*z));\n")
        proc = subprocess.run(
            [sys.executable, "-m", "divisor_forge.cli", "run", str(script)],
            capture_output=True, text=True)
        assert proc.returncode == 3
