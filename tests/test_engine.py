"""Raw polynomial engine: monomial order, arithmetic, Buchberger."""

import random
from fractions import Fraction

import pytest

from divisor_forge import WorkExceeded, engine


# Every test runs under engine.work_budget, so a broken pair criterion or
# power loop fails as WorkExceeded within seconds instead of growing without
# bound.  A test's budget is four times the units it spends, rounded up (the
# spend in parentheses).  The two tests of the budget itself set their own
# budgets and run without one: one asserts that none is set on entry, the
# other that nothing is charged outside a budget.
BUDGETS = {
    "test_grevlex_basic_order": 0,
    "test_arithmetic_ring_axioms": 34_000,  # (8,398)
    "test_power_matches_repeated_product": 4_800,  # (1,183)
    "test_power_returns_the_dict_of_its_own_loop": 46_000,  # (11,500)
    "test_buchberger_known_basis": 40,  # (10)
    "test_buchberger_criterion_oracle": 30_000,  # (7,363)
    "test_buchberger_deterministic_and_reduced": 6_000,  # (1,491)
    "test_normal_form_is_idempotent_and_linear": 3_700,  # (905)
    "test_unit_ideal_detection": 32,  # (8)
    "test_lt_dimension_examples": 24,  # (6)
    "test_a_work_budget_holds_only_inside_its_block": None,
    "test_fraction_sums_are_charged_as_one_term_products": None,
}


@pytest.fixture(autouse=True)
def budgeted(request):
    units = BUDGETS[request.function.__name__]
    if units is None:
        yield
        return
    with engine.work_budget(units):
        yield


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


def test_a_work_budget_holds_only_inside_its_block():
    """The engine charges its work only under a budget, which the block
    sets and restores; past it, the step and its counts are named."""
    f = {(1, 0): 1, (0, 1): 1, (0, 0): 1}
    assert engine.budget is None
    with engine.work_budget(10**6):
        with engine.work_budget(100):
            with pytest.raises(WorkExceeded) as refused:
                engine.p_pow(f, 10)
        assert (engine.budget, engine.spent) == (10**6, 0)
        engine.p_pow(f, 10)
        assert engine.spent > 100
    assert (engine.budget, engine.spent) == (None, 0)
    assert str(refused.value) == (
        "a product of 15 by 15 terms of up to 1 by 1 words needs 233 units "
        "of work, past the budget of 100 units (61 spent)")
    assert len(engine.p_pow(f, 10)) == 66


def test_fraction_sums_are_charged_as_one_term_products(monkeypatch):
    """Under a budget, p_add and p_sub charge each sum with a Fraction what
    p_mul charges for a product of one term by one, and a sum of ints
    nothing; with no budget nothing is charged."""
    charged, real = [], engine.charge
    monkeypatch.setattr(engine, "charge", lambda units, step, *counts: (
        charged.append(units), real(units, step, *counts)))
    half, third, one = {(0,): Fraction(1, 2)}, {(0,): Fraction(1, 3)}, \
        {(0,): 1}
    assert engine.p_add(half, third) == {(0,): Fraction(5, 6)}
    assert engine.p_sub(half, half) == {}
    assert charged == []
    with engine.work_budget(10**6):
        engine.p_mul(half, third)
        assert engine.p_add(one, {(0,): 2, (1,): 3}) == {(0,): 3, (1,): 3}
        assert engine.p_sub(one, one) == {}
        assert len(charged) == 1
        assert engine.p_add(half, third) == {(0,): Fraction(5, 6)}
        assert engine.p_sub(third, half) == {(0,): Fraction(-1, 6)}
    assert charged == [charged[0]] * 3 and charged[0] > engine.PRODUCT_UNITS
