"""Raw polynomial engine: monomial order, arithmetic, Buchberger."""

import random
from fractions import Fraction

from divisor_forge import engine


def P(d):
    return {m: Fraction(c) for m, c in d.items() if c}


def random_poly(rng, nvars, nterms=3, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[m] = Fraction(rng.randint(-4, 4))
    return {m: c for m, c in terms.items() if c}


def test_grevlex_basic_order():
    key = engine.grevlex_key
    # total degree dominates
    assert key((2, 0)) > key((1, 0))
    # among equal degree, grevlex: x^2 > xy > y^2 in QQ[x,y]
    assert key((2, 0)) > key((1, 1)) > key((0, 2))
    # x*z vs y^2 in three variables: deg equal, last exponent decides
    assert key((0, 2, 0)) > key((1, 0, 1))


def test_arithmetic_ring_axioms():
    rng = random.Random(7)
    for _ in range(50):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        c = random_poly(rng, 3)
        assert engine.p_add(a, b) == engine.p_add(b, a)
        assert engine.p_mul(a, b) == engine.p_mul(b, a)
        left = engine.p_mul(a, engine.p_add(b, c))
        right = engine.p_add(engine.p_mul(a, b), engine.p_mul(a, c))
        assert left == right
        assert engine.p_sub(a, a) == {}


def test_power_matches_repeated_product():
    rng = random.Random(8)
    for _ in range(10):
        a = random_poly(rng, 2)
        prod = {(0, 0): Fraction(1)}
        for n in range(4):
            assert engine.p_pow(a, n) == prod if a else True
            prod = engine.p_mul(prod, a)


def looped_p_pow(p, n):
    """p**n by the square-and-multiply loop p_pow ran itself before it
    shared engine.power, kept as the reference."""
    r = None
    base = dict(p)
    while n:
        if n & 1:
            r = engine.p_mul(r, base) if r is not None else base
        n >>= 1
        if n:
            base = engine.p_mul(base, base)
    if r is None:
        nvars = len(next(iter(p))) if p else 0
        return {(0,) * nvars: Fraction(1)}
    return r


def test_power_returns_the_dict_of_its_own_loop():
    """Equal dicts with their keys in the same order, never p itself."""
    rng = random.Random(0x9F)
    polys = [{}, {(0, 0, 0): Fraction(3)}]
    polys += [random_poly(rng, rng.randint(1, 3)) for _ in range(20)]
    for a in polys:
        for n in range(7):
            got = engine.p_pow(a, n)
            assert list(got.items()) == list(looped_p_pow(a, n).items())
            assert got is not a


def test_buchberger_known_basis():
    key = engine.grevlex_key
    # <x, xy - uv> in QQ[x,y,u,v]: reduced basis is {uv, x}
    x = P({(1, 0, 0, 0): 1})
    rel = P({(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    gb = engine.buchberger([x, rel], key)
    monic = sorted(engine.canonical(g, key) for g in gb)
    assert monic == sorted(
        [engine.canonical(P({(0, 0, 1, 1): 1}), key),
         engine.canonical(x, key)])


def test_buchberger_criterion_oracle():
    """Every S-polynomial of the output reduces to zero (the defining
    property of a Groebner basis), on randomized inputs."""
    rng = random.Random(11)
    key = engine.grevlex_key
    for _ in range(25):
        gens = [random_poly(rng, 3, nterms=2) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = engine.buchberger(gens, key)
        lms = [max(g, key=key) for g in gb]
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                # gb is monic, so the leading terms cancel in the difference
                lcm = tuple(map(max, lms[i], lms[j]))
                fi, fj = ({engine.mono_div(lcm, lms[k]): engine.ONE}
                          for k in (i, j))
                s = engine.p_sub(engine.p_mul(fi, gb[i]),
                                 engine.p_mul(fj, gb[j]))
                assert engine.normal_form(s, gb, key) == {}
        # the input reduces to zero as well
        for g in gens:
            assert engine.normal_form(g, gb, key) == {}


def test_buchberger_deterministic_and_reduced():
    rng = random.Random(12)
    key = engine.grevlex_key
    for _ in range(10):
        gens = [random_poly(rng, 3, nterms=2) for _ in range(3)]
        gb1 = engine.buchberger([dict(g) for g in gens], key)
        gb2 = engine.buchberger([dict(g) for g in reversed(gens)], key)
        c1 = sorted(engine.canonical(g, key) for g in gb1)
        c2 = sorted(engine.canonical(g, key) for g in gb2)
        assert c1 == c2
        # reduced: no monomial of any element lies in the lead ideal of others
        for i, g in enumerate(gb1):
            others = gb1[:i] + gb1[i + 1 :]
            lead = [max(h, key=key) for h in others]
            for m in g:
                assert not any(engine.mono_divides(l, m) for l in lead)


def test_normal_form_is_idempotent_and_linear():
    rng = random.Random(13)
    key = engine.grevlex_key
    gens = [P({(2, 0, 0): 1, (0, 1, 1): -1})]
    gb = engine.buchberger(gens, key)
    for _ in range(20):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        nfa = engine.normal_form(a, gb, key)
        assert engine.normal_form(nfa, gb, key) == nfa
        lhs = engine.normal_form(engine.p_add(a, b), gb, key)
        rhs = engine.p_add(engine.normal_form(a, gb, key),
                           engine.normal_form(b, gb, key))
        assert lhs == rhs


def test_unit_ideal_detection():
    key = engine.grevlex_key
    gb = engine.buchberger([P({(1,): 1}), P({(1,): 1, (0,): 1})], key)
    assert engine.is_unit_ideal(gb)


def test_lt_dimension_examples():
    key = engine.grevlex_key
    # hypersurface in 4 variables has dimension 3
    rel = P({(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    gb = engine.buchberger([rel], key)
    assert engine.lt_dimension(gb, 4, key) == 3
    # zero ideal: full dimension
    assert engine.lt_dimension([], 4, key) == 4
