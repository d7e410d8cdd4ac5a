"""The engine against a frozen copy of its earlier nested-key version.

The flat order keys, cached leading monomials, the packed pair
bookkeeping, the pair criteria decided from lcms and indices and the
interreduction by already reduced elements must not change which S-pairs
are reduced or any result: on seeded random small ideals under grevlex and
elimination orders, on a squaring chain whose leading degrees outgrow the
first packing width, on ideals with non-monic integer leading coefficients
and rational coefficients, on generators whose leading monomials repeat
lcms, on generators where an earlier leading monomial divides a later one
(a unit among them), on a wider seeded sweep with int and Fraction
coefficients, and on a reduction whose terms climb out of the first
packing's range, both engines reduce the same S-polynomials in the same
sequence and return the same reduced bases (same elements, same term
order) and the same normal forms.
The reference divides as the library does, Fraction(a) / b, so an int
coefficient makes no float in it.  The comparison of normal_form inputs
checks that the same pairs are reduced: the run at the widest packing
makes exactly the reference's calls, and a run abandoned at a narrower
packing made a prefix of them.  Since the reduction consumes the packed
polynomial it is handed, a test also checks that buchberger and
normal_form leave their tuple-keyed arguments as they are.
"""

import heapq
import itertools
import random
from fractions import Fraction

import pytest

from divisor_forge import engine

# ---------------------------------------------------------------------------
# frozen reference: nested order keys, leading monomials recomputed with
# max(), chain criterion scanning all of G against a set of popped pairs


def ref_grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def ref_elim_key(k):
    def key(e):
        return (ref_grevlex_key(e[:k]), ref_grevlex_key(e[k:]))

    return key


def ref_mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def ref_mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def ref_monic(p, key):
    m = max(p, key=key)
    c = p[m]
    if c == 1:
        return p
    return {m: Fraction(k) / c for m, k in p.items()}


def ref_neg_key(k):
    if isinstance(k, tuple):
        return tuple(ref_neg_key(x) for x in k)
    return -k


def ref_normal_form(p, basis, key):
    if not basis:
        return dict(p)
    heads = [(max(g, key=key), g) for g in basis]
    heads = [(lm, g[lm], g) for lm, g in heads]
    work = dict(p)
    heap = [(ref_neg_key(key(m)), m) for m in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        for lm, lc, g in heads:
            if ref_mono_divides(lm, m):
                q = ref_mono_div(m, lm)
                factor = Fraction(c) / lc
                for gm, gc in g.items():
                    t = ref_mono_mul(gm, q)
                    old = work.get(t)
                    s = (old if old is not None else Fraction(0)) - gc * factor
                    if s:
                        if old is None:
                            heapq.heappush(heap, (ref_neg_key(key(t)), t))
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            out[m] = c
            del work[m]
    return out


def ref_mul_term(p, mono, coeff):
    return {ref_mono_mul(m, mono): c * coeff for m, c in p.items()}


def ref_p_sub(p, q):
    """The earlier engine.p_sub, which kept Fraction sums Fractions."""
    r = dict(p)
    for m, c in q.items():
        s = r.get(m, 0) - c
        if s:
            r[m] = s
        else:
            r.pop(m, None)
    return r


def ref_s_poly(f, g, key):
    mf, mg = max(f, key=key), max(g, key=key)
    lcm = ref_mono_lcm(mf, mg)
    return ref_p_sub(
        ref_mul_term(f, ref_mono_div(lcm, mf), Fraction(1) / f[mf]),
        ref_mul_term(g, ref_mono_div(lcm, mg), Fraction(1) / g[mg]),
    )


def ref_buchberger(gens, key, log):
    """The earlier engine.buchberger; appends the first argument of every
    normal_form call to log."""

    def logged(p, basis):
        log.append(p)
        return ref_normal_form(p, basis, key)

    G = [ref_monic(g, key) for g in gens if g]
    G.sort(key=lambda g: key(max(g, key=key)))
    if not G:
        return []
    lms = [max(g, key=key) for g in G]
    pairs = [
        (key(ref_mono_lcm(lms[i], lms[j])), i, j)
        for i in range(len(G))
        for j in range(i + 1, len(G))
    ]
    heapq.heapify(pairs)
    done = set()
    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        lcm = ref_mono_lcm(lms[i], lms[j])
        if lcm == ref_mono_mul(lms[i], lms[j]):
            continue
        chain = False
        for k in range(len(G)):
            if k in (i, j) or not ref_mono_divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                chain = True
                break
        if chain:
            continue
        h = logged(ref_s_poly(G[i], G[j], key), G)
        if h:
            h = ref_monic(h, key)
            G.append(h)
            lms.append(max(h, key=key))
            n = len(G) - 1
            for i2 in range(n):
                heapq.heappush(
                    pairs, (key(ref_mono_lcm(lms[i2], lms[n])), i2, n))
    order_idx = sorted(range(len(G)), key=lambda i: key(lms[i]))
    minimal = []
    for i in order_idx:
        if not any(ref_mono_divides(max(g, key=key), lms[i]) for g in minimal):
            minimal.append(G[i])
    reduced = []
    for i, g in enumerate(minimal):
        rest = minimal[:i] + minimal[i + 1 :]
        r = logged(g, rest)
        if r:
            reduced.append(ref_monic(r, key))
    reduced.sort(key=lambda g: key(max(g, key=key)))
    return reduced


# ---------------------------------------------------------------------------
# the comparison

ORDERS = {
    "grevlex": (engine.grevlex_key, ref_grevlex_key),
    "elim1": (engine.elim_key(1), ref_elim_key(1)),
    "elim2": (engine.elim_key(2), ref_elim_key(2)),
    "elim3": (engine.elim_key(3), ref_elim_key(3)),
}


def random_poly(rng, nvars, nterms, maxdeg):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[m] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return {m: c for m, c in terms.items() if c}


def random_ideal(rng):
    nvars = rng.randint(2, 4)
    gens = [random_poly(rng, nvars, rng.randint(1, 3), 2)
            for _ in range(rng.randint(1, 3))]
    return nvars, gens


def as_items(basis):
    return [list(g.items()) for g in basis]


def logged_buchberger(monkeypatch, gens, key):
    """engine.buchberger, logging the first argument of every normal_form
    call it makes, unpacked by the packing it comes with; the log maps each
    packing width to the calls made at it."""
    log, real = {}, engine.normal_form

    def normal_form(p, *args):
        log.setdefault(args[-1].width, []).append(
            {args[-1].unpack(m): c for m, c in p.items()})
        return real(p, *args)

    with monkeypatch.context() as m:
        m.setattr(engine, "normal_form", normal_form)
        return engine.buchberger(gens, key), log


def assert_matches_reference(monkeypatch, rng, nvars, gens, key, ref_key):
    """Both engines reduce the same S-polynomials and return the same basis,
    and four random polynomials drawn from rng have the same normal forms.
    The run at the widest packing reduces exactly the reference's
    polynomials, and each abandoned narrower run a prefix of them."""
    snapshot = [dict(g) for g in gens]
    ref_log = []
    want = ref_buchberger(gens, ref_key, ref_log)
    got, log = logged_buchberger(monkeypatch, gens, key)
    assert gens == snapshot
    assert as_items(got) == as_items(want)
    calls = {w: [sorted(s.items()) for s in log[w]] for w in log}
    widest = calls.pop(max(calls, default=0), [])
    assert widest == [sorted(s.items()) for s in ref_log]
    for narrower in calls.values():
        assert narrower == widest[:len(narrower)]
    for _ in range(4):
        p = random_poly(rng, nvars, 4, 3)
        nf = ref_normal_form(p, want, ref_key)
        assert list(engine.normal_form(p, got, key).items()) == list(
            nf.items())
    return got


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_buchberger_matches_frozen_reference(order, monkeypatch):
    key, ref_key = ORDERS[order]
    rng = random.Random("engine-differential-" + order)
    for _ in range(80):
        nvars, gens = random_ideal(rng)
        assert_matches_reference(monkeypatch, rng, nvars, gens, key, ref_key)


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_buchberger_matches_frozen_reference_in_more_variables(
        order, monkeypatch):
    """Three binomials of degree at most 2 in 5 or 6 variables: hundreds of
    reduced S-pairs per order, in about a second."""
    key, ref_key = ORDERS[order]
    rng = random.Random("engine-differential-wide-" + order)
    for _ in range(20):
        nvars = rng.randint(5, 6)
        gens = [random_poly(rng, nvars, 2, 2) for _ in range(3)]
        assert_matches_reference(monkeypatch, rng, nvars, gens, key, ref_key)


def squaring_chain(length):
    """t0 - y, t0 - t1^2, ..., t(length-1) - t(length)^2 in the variables
    t0, ..., t(length), y: eliminating t0..t(length-1) leaves
    y - t(length)^(2^length)."""
    n = length + 2

    def var(i):
        return tuple(int(j == i) for j in range(n))

    gens = [{var(0): Fraction(1), var(n - 1): Fraction(-1)}]
    for i in range(length):
        square = tuple(2 * e for e in var(i + 1))
        gens.append({var(i): Fraction(1), square: Fraction(-1)})
    return n, gens


@pytest.mark.parametrize("length", [6, 7])
def test_squaring_chain_repacks_wider_and_matches_reference(
        length, monkeypatch):
    """The leading monomial t6^64 (t7^128) reaches the degree bound 2^6 of
    the first, 8-bit packing, so buchberger abandons that run, redoes it at
    16 bits and still reduces the same S-pairs as the reference."""
    nvars, gens = squaring_chain(length)
    widths, real = [], engine._packing

    def packing(nvars, width, key):
        widths.append(width)
        return real(nvars, width, key)

    rng = random.Random("squaring-chain-%d" % length)
    key, ref_key = engine.elim_key(length), ref_elim_key(length)
    assert_matches_reference(monkeypatch, rng, nvars, gens, key, ref_key)
    with monkeypatch.context() as m:
        m.setattr(engine, "_packing", packing)
        got = engine.buchberger(gens, key)
    assert widths == [8, 16]
    want = {(0,) * length + (2**length, 0): Fraction(1),
            (0,) * (length + 1) + (1,): Fraction(-1)}
    assert want in got
    assert_matches_reference(monkeypatch, rng, nvars, gens,
                             engine.grevlex_key, ref_grevlex_key)


def non_monic_ideal(rng, key):
    """Two or three polynomials with rational coefficients and a leading
    coefficient of 2, 3 or -5 under key."""
    nvars, gens = rng.randint(2, 3), []
    for _ in range(rng.randint(2, 3)):
        g = {tuple(rng.randint(0, 2) for _ in range(nvars)):
             Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 4, 7]),
                      rng.randint(1, 5))
             for _ in range(rng.randint(2, 3))}
        g[max(g, key=key)] = Fraction(rng.choice([2, 3, -5]))
        gens.append(g)
    return nvars, gens


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_int_and_fraction_coefficients_stay_exact(order, monkeypatch):
    """Packed reduction keeps integral coefficients as ints and the rest as
    Fractions; what leaves the engine keeps that rule, equal to the
    reference's, and no float is formed on the way."""
    key, ref_key = ORDERS[order]
    rng = random.Random("engine-exact-" + order)
    for _ in range(25):
        nvars, gens = non_monic_ideal(rng, key)
        assert_matches_reference(monkeypatch, rng, nvars, gens, key, ref_key)
        got, log = logged_buchberger(monkeypatch, gens, key)
        p = random_poly(rng, nvars, 4, 3)
        nf = engine.normal_form(p, got, key)
        assert nf == ref_normal_form(p, ref_buchberger(gens, ref_key, []),
                                     ref_key)
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for g in got + [nf] for c in g.values())
        assert all(type(c) in (int, Fraction) for calls in log.values()
                   for s in calls for c in s.values())


def test_a_term_inside_a_reduction_widens_the_packing(monkeypatch):
    """t^20*x - 1 and t - y^2 under elim_key(1) have every exponent in the
    range of the first, 8-bit packing (below 2^5 in three variables), and
    so has their S-polynomial 1 - t^19*x*y^2.  Its reduction by t - y^2
    climbs to x*y^40, so a term of that reduction is the first out of
    range: that normal_form call returns None, the run is abandoned and
    redone at 16 bits, where it makes the same normal_form calls, in the
    same sequence, as the reference."""
    gens = [{(20, 1, 0): Fraction(1), (0, 0, 0): Fraction(-1)},
            {(1, 0, 0): Fraction(1), (0, 0, 2): Fraction(-1)}]
    key = engine.elim_key(1)
    rng = random.Random("widen-in-reduction")
    assert_matches_reference(monkeypatch, rng, 3, gens, key, ref_elim_key(1))
    events, packing, normal_form = [], engine._packing, engine.normal_form

    def logged_packing(nvars, width, split):
        events.append("pack %d" % width)
        return packing(nvars, width, split)

    def logged_normal_form(p, *args):
        events.append("reduce %s" % sorted(
            args[-1].unpack(m) for m in p))
        return normal_form(p, *args)

    monkeypatch.setattr(engine, "_packing", logged_packing)
    monkeypatch.setattr(engine, "normal_form", logged_normal_form)
    got = engine.buchberger(gens, key)
    assert events == ["pack 8", "reduce [(0, 0, 0), (19, 1, 2)]", "pack 16",
                      "reduce [(0, 0, 0), (19, 1, 2)]",
                      "reduce [(0, 0, 0), (0, 1, 40)]",
                      "reduce [(0, 0, 2), (1, 0, 0)]"]
    assert got[0] == {(0, 1, 40): Fraction(1), (0, 0, 0): Fraction(-1)}


# ---------------------------------------------------------------------------
# equal lcms: the pair criteria decided by lcms and indices alone

# leading monomials in x, y, z whose pairs share lcms: x, y, xy, x^2*y;
# xy, yz, xz, xyz; x^2, xy, y^2, x^2*y^2; x twice, y, xy; xz, yz, z, xyz;
# xy, xz, yz, x, y
LCM_SHAPES = [
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)],
    [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
    [(2, 0, 0), (1, 1, 0), (0, 2, 0), (2, 2, 0)],
    [(1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
    [(1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 1)],
    [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0)],
]


def random_coefficient(rng):
    """An int or a Fraction, about half each."""
    if rng.random() < 0.5:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3]))


def with_lower_terms(rng, lms, key):
    """One polynomial per monomial of lms, which leads it under key, with
    up to two lower terms of no greater degree and int or Fraction
    coefficients."""
    nvars, gens = len(lms[0]), []
    for lm in lms:
        lower = [m for m in itertools.product(range(3), repeat=nvars)
                 if sum(m) <= sum(lm) and key(m) < key(lm)]
        g = {lm: random_coefficient(rng)}
        for m in rng.sample(lower, min(len(lower), rng.randint(0, 2))):
            g[m] = random_coefficient(rng)
        gens.append(g)
    return gens


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_equal_lcms_match_reference(order, monkeypatch):
    """Generators whose leading monomials repeat lcms, from the shapes
    above and from random draws out of a few squarefree monomials, with int
    and Fraction coefficients: the same S-pairs, bases and normal forms as
    the reference."""
    key, ref_key = ORDERS[order]
    rng = random.Random("engine-equal-lcms-" + order)
    for lms in LCM_SHAPES:
        for _ in range(5):
            gens = with_lower_terms(rng, lms, key)
            assert_matches_reference(monkeypatch, rng, 3, gens, key, ref_key)
    for _ in range(30):
        nvars = rng.randint(2, 4)
        pool = [m for m in itertools.product((0, 1), repeat=nvars)
                if 0 < sum(m) <= 2]
        lms = [rng.choice(pool) for _ in range(rng.randint(3, 5))]
        gens = with_lower_terms(rng, lms, key)
        assert_matches_reference(monkeypatch, rng, nvars, gens, key, ref_key)


# leading monomials in x, y, z where an earlier one divides a later one,
# so the later one's row holds its own leading monomial: x, xy, x^2*y;
# y, xy, xyz with xz; x twice and xy; x, y, xy twice (equal lcms); z, xz,
# yz, xyz; a unit with x and y; x, a unit and x^2
DIVISIBLE_SHAPES = [
    [(1, 0, 0), (1, 1, 0), (2, 1, 0)],
    [(0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
    [(1, 0, 0), (1, 0, 0), (1, 1, 0)],
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 0)],
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    [(1, 0, 0), (0, 0, 0), (2, 0, 0)],
]


def divisible_leads(rng, nvars):
    """Two to six leading monomials with exponents below 3, at least one a
    multiple of one drawn before it; a unit about once in twelve draws."""
    pool = [m for m in itertools.product((0, 1), repeat=nvars) if any(m)]
    lms = [(0,) * nvars if rng.random() < 1 / 12 else rng.choice(pool)
           for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        lms.append(engine.mono_mul(rng.choice(lms), rng.choice(
            pool + [(0,) * nvars])))
    rng.shuffle(lms)
    return lms


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_divisible_leads_match_reference(order, monkeypatch):
    """Generators where an earlier leading monomial (in the ascending order
    the run sorts them into) divides a later one, from the shapes above and
    from a seeded sweep of random multiples, with equal lcms and unit
    leading monomials among them, int and Fraction coefficients: the same
    S-pairs, bases and normal forms as the reference."""
    key, ref_key = ORDERS[order]
    rng = random.Random("engine-divisible-leads-" + order)
    for lms in DIVISIBLE_SHAPES:
        for _ in range(5):
            gens = with_lower_terms(rng, lms, key)
            assert_matches_reference(monkeypatch, rng, 3, gens, key, ref_key)
    for _ in range(60):
        nvars = rng.randint(2, 4)
        lms = divisible_leads(rng, nvars)
        assert any(engine.mono_divides(a, b)
                   for a, b in itertools.combinations(
                       sorted(lms, key=key), 2))
        gens = with_lower_terms(rng, lms, key)
        assert_matches_reference(monkeypatch, rng, nvars, gens, key, ref_key)


def test_buchberger_and_normal_form_leave_their_arguments_unmodified():
    """The reduction consumes the packed dict it is handed, so buchberger
    and normal_form pack their tuple-keyed arguments into fresh dicts: each
    argument keeps its terms, their order and their coefficient types, also
    when the basis is empty or one element, and when buchberger is given a
    reduced basis."""

    def items(polys):
        return [[(m, c, type(c)) for m, c in g.items()] for g in polys]

    rng = random.Random("engine-arguments")
    for order in sorted(ORDERS):
        key = ORDERS[order][0]
        for _ in range(40):
            nvars = rng.randint(2, 4)
            gens = [{m: random_coefficient(rng) for m in (
                tuple(rng.randint(0, 2) for _ in range(nvars))
                for _ in range(rng.randint(1, 3))) if sum(m) <= 2}
                for _ in range(rng.randint(1, 3))]
            before = items(gens)
            gb = engine.buchberger(gens, key)
            assert items(gens) == before
            basis = items(gb)
            assert items(engine.buchberger(gb, key)) == basis
            assert items(gb) == basis
            for p in [random_poly(rng, nvars, 4, 3) for _ in range(3)] + gb:
                shown = items([p])
                for part in (gb, gb[:1], []):
                    nf = engine.normal_form(p, part, key)
                    assert nf is not p and items([p]) == shown
            assert items(gb) == basis


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_seeded_sweep_matches_reference(order, monkeypatch):
    """2 to 5 variables and 2 to 5 generators of degree at most 2, each of
    one to three terms with int or Fraction coefficients; at most ten terms
    in all, which keeps every reference run small.  Each ideal is run first
    on cold packing tables, cleared before it, and again once the whole
    sweep has filled them: both runs match the reference and give the same
    bases, term order and coefficient types included."""
    key, ref_key = ORDERS[order]
    rng = random.Random("engine-sweep-" + order)
    sweep = []
    for _ in range(200):
        nvars = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(2, 5)):
            g = {tuple(rng.randint(0, 2) for _ in range(nvars)):
                 random_coefficient(rng) for _ in range(rng.randint(1, 3))}
            gens.append({m: c for m, c in g.items() if sum(m) <= 2})
        while sum(map(len, gens)) > 10:
            gens.pop()
        engine._packing.cache_clear()
        got = assert_matches_reference(monkeypatch, rng, nvars, gens, key,
                                       ref_key)
        sweep.append((nvars, gens, got))
    for nvars, gens, cold in sweep:
        warm = assert_matches_reference(monkeypatch, rng, nvars, gens, key,
                                        ref_key)
        assert [[(m, c, type(c)) for m, c in g.items()] for g in warm] == [
            [(m, c, type(c)) for m, c in g.items()] for g in cold]


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_flat_keys_sort_like_nested_keys(order):
    key, ref_key = ORDERS[order]
    rng = random.Random("key-order-" + order)
    for nvars in (2, 3, 4):
        monos = list({tuple(rng.randint(0, 3) for _ in range(nvars))
                      for _ in range(60)})
        rng.shuffle(monos)
        assert sorted(monos, key=key) == sorted(monos, key=ref_key)
        for a in monos[:20]:
            for b in monos[:20]:
                assert (key(a) < key(b)) == (ref_key(a) < ref_key(b))
                assert (key(a) == key(b)) == (a == b)


def assert_tables_convert(pk, monos):
    """Converting monos at pk through its tables, by _pack and _unpack as at
    the engine's boundary, gives what pack and unpack compute, and equal
    monomials come back as one shared tuple."""
    P = engine._pack({m: Fraction(1) for m in monos}, pk)
    assert list(P) == [pk.pack(m) for m in dict.fromkeys(monos)]
    back = engine._unpack(P, pk)
    assert list(back) == list(dict.fromkeys(monos))
    for m in monos:
        assert engine._tuple(pk.pack(m), pk) is engine._tuple(pk.pack(m), pk)
    assert pk.tuples == {i: m for m, i in pk.ints.items()}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("width", [8, 16])
def test_packed_monomials_agree_with_tuples(order, width):
    """A packed monomial is its own order key: packed monomials compare (<
    and ==) like key, unpack to themselves and multiply as a + b - one
    while every exponent stays below twice the in-range bound, as every
    term of the work does.  On in-range monomials the packed lcm, product
    criterion and divisibility agree with the tuple operations, and the
    in-range test agrees with the bound at the bound and one past it.

    The packing's tables convert in-range monomials as pack and unpack do
    when they are cold (the packing built afresh), warm (each monomial
    converted a second time) and after the packing cache was cleared,
    which builds a packing with empty tables."""
    key = ORDERS[order][0]
    rng = random.Random("packed-%s-%d" % (order, width))
    engine._packing.cache_clear()
    for nvars in range(1, 7):
        pk = engine._packing(nvars, width, key.split)
        pack, one, guard = pk.pack, pk.one, pk.guard
        bound = 2 ** (width - (nvars - 1).bit_length() - 1)

        def monomial(top):
            return tuple(rng.randint(0, rng.choice((1, 3, top)))
                         for _ in range(nvars))

        def in_range(P):
            return P & pk.margin == pk.margin

        top = 2 * bound - 2  # the largest exponent of a term of the work
        monos = [monomial(top) for _ in range(40)]
        monos += [tuple(top * (j == i) for j in range(nvars))
                  for i in range(nvars)]
        monos += [(0,) * nvars] + monos[:5]
        for a in monos:
            assert pk.unpack(pack(a)) == a
            assert in_range(pack(a)) == (max(a) < bound)
            for b in monos:
                pa, pb = pack(a), pack(b)
                assert (pa < pb) == (key(a) < key(b))
                assert (pa == pb) == (a == b)
        for i in range(nvars):
            for e in (bound - 1, bound):
                m = tuple(e * (j == i) + (j != i) for j in range(nvars))
                assert in_range(pack(m)) == (e < bound)
        heads = [monomial(bound - 1) for _ in range(30)]
        heads += [ref_mono_lcm(heads[0], heads[1]), (0,) * nvars]
        for a in heads:
            for b in heads:
                pa, pb = pack(a), pack(b)
                want = ref_mono_lcm(a, b)
                assert pa + pb - one == pack(engine.mono_mul(a, b))
                L = pk.lcm(pa & one, pb & one)
                assert L == pack(want) & one and pk.graded(L) == pack(want)
                assert (L == (pa & one) + (pb & one) - one) == (
                    want == engine.mono_mul(a, b))
                divides = engine.mono_divides(a, b)
                assert ((pa | pk.high) - pb & guard == guard) == divides
                assert (not (pa & one) - (pb & one) & guard) == divides
        assert pk.ints == pk.tuples == {}
        assert_tables_convert(pk, heads)
        assert_tables_convert(pk, heads)
        engine._packing.cache_clear()
        fresh = engine._packing(nvars, width, key.split)
        assert fresh is not pk and fresh.ints == fresh.tuples == {}
        assert_tables_convert(fresh, heads)


def test_packing_tables_stay_within_their_bound():
    """Converting more distinct monomials than MONOMIALS, half of them
    first packed and half first unpacked: the tables never hold more than
    MONOMIALS entries, always hold the same pairs, and every conversion,
    before and after a table is cleared, round-trips exactly."""
    pk = engine._packing(3, 16, 0)
    pk.ints.clear()
    pk.tuples.clear()
    sizes = set()
    for n in range(engine.MONOMIALS + 500):
        m = (n % 64, n // 64 % 64, n // 4096)
        if n % 2:
            P = engine._int(m, pk)
            assert P == pk.pack(m) and engine._tuple(P, pk) == m
        else:
            P = pk.pack(m)
            assert engine._tuple(P, pk) == m and engine._int(m, pk) == P
        sizes.add(len(pk.ints))
        assert len(pk.tuples) == len(pk.ints) <= engine.MONOMIALS
    assert max(sizes) == engine.MONOMIALS and min(sizes) == 1
    assert pk.tuples == {i: m for m, i in pk.ints.items()}
    assert engine._unpack(engine._pack({m: 1 for m in pk.ints}, pk), pk) == {
        m: 1 for m in pk.ints}
