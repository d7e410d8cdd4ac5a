"""The ring-owned memo never changes an answer: a session on a fresh ring
and the same session on a ring whose memo is already warm give identical
prime keys, reprs and JSON."""

import io
import json

from divisor_forge import (
    QuotientRing,
    WeilDivisor,
    ideal,
    polynomial,
    symbolic_power,
)
from divisor_forge.cli import run_text

CONE = ("x", "y", "z"), ("x*y - z^2",)
PLANE = ("x", "y"), ()

# per ring: the session's elements and symbolic-power prime, then the
# warm-up's elements and the same prime on other generators
SESSIONS = {
    "cone": (CONE, ["x", "x^2*z", "x*y*z^3", "x - z"], ("x", "z"),
             ["x*z", "y^2*z", "x*y", "(x - z)^2*y"], ("z", "x")),
    "plane": (PLANE, ["x*y*(x+y)^2", "(x^2+y^2)*(x-1)", "(x+y)^3*y"],
              ("x+y",),
              ["x*(x+y)", "(x^2+y^2)*y", "(x-1)^2"], ("2*x+2*y",)),
}


def session(R, elements, prime):
    """Divisors of elements and symbolic powers, rendered every way."""
    out = []
    for text in elements:
        D = WeilDivisor.of_element(polynomial(R, text))
        out.append((repr(D), json.dumps(D.to_json(), sort_keys=True),
                    sorted(P.key for P in D.terms)))
    for n in (1, 2, 3):
        S = symbolic_power(ideal(R, *prime), n)
        out.append((repr(S), S.key))
    return out


def warm_up(R, elements, prime):
    """Fill the memo with factorizations, bases and symbolic powers the
    session shares, reached along other paths."""
    for text in elements:
        WeilDivisor.of_element(polynomial(R, text))
    P = ideal(R, *prime)
    for n in (2, 3, 4):
        symbolic_power(P, n)


def test_cold_and_warm_sessions_agree():
    for name, (ring, elements, prime, warm_elements,
               warm_prime) in SESSIONS.items():
        cold_ring = QuotientRing(*ring)
        cold = session(cold_ring, elements, prime)
        warm_ring = QuotientRing(*ring)
        warm_up(warm_ring, warm_elements, warm_prime)
        before = len(warm_ring.memo)
        assert before
        assert session(warm_ring, elements, prime) == cold, name
        # the warm session was served by what warm_up stored
        assert len(warm_ring.memo) < before + len(cold_ring.memo), name


def test_symbolic_power_shares_one_value_per_prime_key():
    R = QuotientRing(*CONE)
    P, Q = ideal(R, "x", "z"), ideal(R, "z", "x", "x*z")
    assert P is not Q and P.key == Q.key
    assert symbolic_power(P, 1) is P and symbolic_power(Q, 1) is Q
    assert symbolic_power(P, 2).key == symbolic_power(Q, 2).key
    assert symbolic_power(Q, 3).key == symbolic_power(P, 3).key


def run(text, json_mode):
    out, err = io.StringIO(), io.StringIO()
    code = run_text(text, json_mode=json_mode, out=out, err=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_cli_output_is_identical_on_a_warm_ring():
    # the warm-up shares the ring's line, so output lines and indices match
    queries = ("print divisor(x^2*z);\n"
               "print symbolicPower(ideal(x, z), 3);\n"
               "print OO(divisor(x*y*z^3));\n")
    ring = "ring R = QQ[x,y,z] / (x*y - z^2);"
    warm = (" W = divisor(x*z*(x - z)); V = symbolicPower(ideal(z, x), 3);"
            " U = OO(divisor(y^2*z));")
    for json_mode in (False, True):
        cold = run(ring + "\n" + queries, json_mode)
        assert run(ring + warm + "\n" + queries, json_mode) == cold


def test_heights_agree_on_cold_and_warm_rings():
    gens = [("x", "z"), ("x",), ("x", "y", "z"), ("x*y",), ("y", "z"), ("1",)]
    cold_ring = QuotientRing(*CONE)
    cold = [ideal(cold_ring, *g).height() for g in gens]
    assert cold == [1, 1, 2, 1, 1, 3]
    warm_ring = QuotientRing(*CONE)
    # the same ideals on other generators fill the memo first
    for g in (("z", "x", "x*z"), ("x", "x^2"), ("z", "y", "x", "x*y")):
        ideal(warm_ring, *g).height()
    assert [ideal(warm_ring, *g).height() for g in gens] == cold
    assert ("dim", ideal(warm_ring, "x", "z").key) in warm_ring.memo
