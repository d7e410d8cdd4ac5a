"""The ring-owned memo never changes an answer: a session on a fresh ring
and the same session on a ring whose memo is already warm give identical
prime keys, reprs and JSON."""

import io
import json
import random
from fractions import Fraction

import pytest

from divisor_forge import (
    DecompositionIncomplete,
    Ideal,
    Polynomial,
    QuotientRing,
    RingMap,
    WeilDivisor,
    engine,
    ideal,
    polynomial,
    symbolic_power,
)
from divisor_forge import ideals
from divisor_forge.cli import run_text
from divisor_forge.geometry import extend_ideal

CONE = ("x", "y", "z"), ("x*y - z^2",)
PLANE = ("x", "y"), ()
TWISTED_CUBIC = ("x", "y", "z", "w"), ("x*z - y^2", "y*w - z^2", "x*w - y*z")

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


# ideals of the cone, each with an equal ideal on other generators
CONE_IDEALS = [
    (("x", "z"), ("z", "x", "x*z")),
    (("x",), ("x", "x^2")),
    (("x^2*z",), ("x^3*z", "x^2*z")),
    (("x*y", "z^3"), ("z^2", "x*y*z")),
    (("x - z",), ("z - x",)),
]


def rendered(D):
    return (repr(D), json.dumps(D.to_json(), sort_keys=True), D.multiset())


def pullbacks(R):
    """The cone's ideals extended along x -> a^2, y -> b^2, z -> a*b."""
    plane = QuotientRing(("a", "b"))
    phi = RingMap(R, plane, ["a^2", "b^2", "a*b"])
    return plane, [(extend_ideal(phi, ideal(R, *gens)),
                    extend_ideal(phi, ideal(R, *other)))
                   for gens, other in CONE_IDEALS]


def test_divisors_of_ideals_agree_on_cold_and_warm_rings():
    cold_ring = QuotientRing(*CONE)
    cold = [rendered(WeilDivisor.of_ideal(ideal(cold_ring, *gens)))
            for gens, _ in CONE_IDEALS]
    warm_ring = QuotientRing(*CONE)
    for _, other in CONE_IDEALS:
        WeilDivisor.of_ideal(ideal(warm_ring, *other))
    assert [rendered(WeilDivisor.of_ideal(ideal(warm_ring, *gens)))
            for gens, _ in CONE_IDEALS] == cold
    # the pullbacks land in QQ[a,b]; there the warm-up takes the extensions
    # of the equal ideals on other generators
    _, cold_pairs = pullbacks(QuotientRing(*CONE))
    cold = [rendered(WeilDivisor.of_ideal(I)) for I, _ in cold_pairs]
    _, warm_pairs = pullbacks(QuotientRing(*CONE))
    for _, J in warm_pairs:
        WeilDivisor.of_ideal(J)
    assert [rendered(WeilDivisor.of_ideal(I)) for I, _ in warm_pairs] == cold


def test_an_equal_ideal_is_served_the_same_divisor():
    R = QuotientRing(*CONE)
    for gens, other in CONE_IDEALS:
        I, J = ideal(R, *gens), ideal(R, *other)
        assert I.key == J.key
        assert [g.terms for g in I.gens] != [g.terms for g in J.gens]
        D = WeilDivisor.of_ideal(I)
        assert R.memo[("divisor", I.key)] is D
        assert WeilDivisor.of_ideal(J) is D
    plane, pairs = pullbacks(R)
    for I, J in pairs:
        assert WeilDivisor.of_ideal(J) is WeilDivisor.of_ideal(I)
        assert ("divisor", I.key) in plane.memo


def test_a_refusal_is_raised_again_and_not_stored():
    def refusal(R):
        I = ideal(R, *TWISTED_CUBIC[1])
        with pytest.raises(DecompositionIncomplete) as caught:
            WeilDivisor.of_ideal(I)
        assert ("divisor", I.key) not in R.memo
        return str(caught.value)

    cold = refusal(QuotientRing(TWISTED_CUBIC[0]))
    warm_ring = QuotientRing(TWISTED_CUBIC[0])
    assert refusal(warm_ring) == cold
    assert refusal(warm_ring) == cold


def test_the_ring_dimension_is_a_memo_entry(monkeypatch):
    calls = []
    lt_dimension = engine.lt_dimension
    monkeypatch.setattr(engine, "lt_dimension",
                        lambda *args: calls.append(args) or lt_dimension(*args))
    R = QuotientRing(*CONE)
    assert (R.dimension(), R.dimension()) == (2, 2)
    assert R.memo[("dim",)] == 2
    assert len(calls) == 1
    # an ideal's dimension is its own entry, next to the ring's
    assert ideal(R, "x", "z").height() == 1
    assert ("dim", ideal(R, "x", "z").key) in R.memo


# ---------------------------------------------------------------------------
# the ("gb", probe) entries: each holds the basis and its key

CONE4 = ("x", "y", "u", "v"), ("x*y - u*v",)
KEY_RINGS = {"cone": CONE, "cone4": CONE4, "plane": PLANE}


def seeded_gens(rng, nvars):
    """Two to four nonzero term dicts of squarefree monomials and squares
    of variables, with int and Fraction coefficients."""
    gens = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        while not terms:
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 1) for _ in range(nvars))
                if sum(m) < 2 and rng.random() < 0.5:
                    m = tuple(2 * e for e in m)
                terms[m] = rng.choice(
                    [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        gens.append(terms)
    return gens


def key_of(R, gens):
    return Ideal(R, [Polynomial(R, g) for g in gens]).key


def gb_entries(R):
    return {probe: value for probe, value in R.memo.items()
            if probe[0] == "gb"}


def test_keys_agree_on_cold_and_warm_rings():
    rng = random.Random("memo-keys")
    for name, ring in KEY_RINGS.items():
        lists = [seeded_gens(rng, len(ring[0])) for _ in range(12)]
        cold_ring = QuotientRing(*ring)
        cold = [key_of(cold_ring, gens) for gens in lists]
        warm_ring = QuotientRing(*ring)
        # the warm-up asks for each list reordered and with every int
        # coefficient an equal Fraction (2 as Fraction(2))
        for gens in lists:
            key_of(warm_ring, gens[::-1])
            key_of(warm_ring, [{m: Fraction(c) for m, c in g.items()}
                               for g in gens])
        before = len(warm_ring.memo)
        assert [key_of(warm_ring, gens) for gens in lists] == cold, name
        # every list was served by the entry its variants made
        assert len(warm_ring.memo) == before, name


def test_a_duplicated_generator_makes_its_own_entry():
    for ring in KEY_RINGS.values():
        R = QuotientRing(*ring)
        x, y = R.variables()[:2]
        once, twice = Ideal(R, [x, y * y]), Ideal(R, [y * y, x, y * y])
        assert once.key == twice.key
        assert len(gb_entries(R)) == 2


def test_the_stored_key_is_the_canonical_basis():
    rng = random.Random("memo-stored-keys")
    for ring in KEY_RINGS.values():
        R = QuotientRing(*ring)
        made = [Ideal(R, [Polynomial(R, g) for g in seeded_gens(rng, R.nvars)])
                for _ in range(8)]
        for I in made:
            assert I.key == tuple(
                engine.canonical(g, R.key) for g in I.groebner)
        entries = gb_entries(R)
        # each ideal holds the basis and the key of an entry, and every
        # entry came from one of them
        stored = {id(gb): key for gb, key in entries.values()}
        assert stored.keys() == {id(I.groebner) for I in made}
        assert all(stored[id(I.groebner)] is I.key for I in made)
        for gb, key in entries.values():
            assert key == tuple(engine.canonical(g, R.key) for g in gb)


def test_equal_term_dicts_share_one_factorization():
    R = QuotientRing(*CONE)
    terms = {(1, 0, 0): 2, (0, 0, 1): -1}
    same = {(0, 0, 1): Fraction(-1), (1, 0, 0): Fraction(2)}
    assert ideals._factor(R, terms) is ideals._factor(R, same)
    assert len([p for p in R.memo if p[0] == "factor"]) == 1
