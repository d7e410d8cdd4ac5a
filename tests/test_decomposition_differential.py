"""Height-one decomposition against a frozen copy of its earlier version.

The earlier `_decompose` factored Groebner basis elements in its own loop,
certified with a triangular substitution that factored again after each
substitution, and, when both failed, tried 25 random combinations of the
quotient generators before refusing; `certify_prime` re-scanned the basis
for reducible elements.  The current version is one factor-and-split step,
with a coordinate projection where the substitution stops.  On a seeded
corpus of ring elements and two-generator ideals on the two quadric cones
and on free rings, every input the earlier version decomposes gets the
same primes (reprs and canonical keys), and every input it refuses gets
the same exception type and message or an answer that passes definitional
oracles.  `certify_prime` agrees on every input ideal and every prime.
"""

import random
from fractions import Fraction

import pytest

from divisor_forge import Polynomial, QuotientRing, WeilDivisor
from divisor_forge import engine, ideals
from divisor_forge.errors import DecompositionIncomplete, DivisorForgeError
from divisor_forge.ideals import Ideal, _factor, certify_prime

# ---------------------------------------------------------------------------
# frozen reference


def ref_subst(p, i, num, den_coeff):
    by_power = {}
    for m, c in p.items():
        e = m[i]
        rest = m[:i] + (0,) + m[i + 1 :]
        by_power.setdefault(e, {})[rest] = by_power.setdefault(e, {}).get(
            rest, Fraction(0)) + c
    out = {}
    ratio = {m: c / den_coeff for m, c in num.items()}
    for e, part in sorted(by_power.items()):
        piece = {m: c for m, c in part.items() if c}
        if e:
            piece = engine.p_mul(piece, engine.p_pow(ratio, e)) if piece else {}
        out = engine.p_add(out, piece)
    return out


def ref_solvable_variable(p, nvars):
    for i in range(nvars):
        lin = None
        ok = True
        for m, c in p.items():
            if m[i] == 0:
                continue
            if m[i] == 1 and not any(m[j] for j in range(nvars) if j != i):
                lin = c
            else:
                ok = False
                break
        if ok and lin is not None:
            rest = {m: c for m, c in p.items() if m[i] == 0}
            return i, lin, rest
    return None


def ref_certify(ring, gb):
    n = ring.nvars
    polys = [dict(g) for g in gb]
    while True:
        polys = [p for p in polys if p]
        if any(all(not any(m) for m in p) for p in polys):
            return ("unit", None)
        if not polys:
            return ("prime", None)
        if len(polys) == 1:
            _, factors = _factor(ring, polys[0])
            if len(factors) == 1 and factors[0][1] == 1:
                return ("prime", None)
            return ("split", [f for f, _ in factors])
        solved = None
        for idx, p in enumerate(polys):
            hit = ref_solvable_variable(p, n)
            if hit is not None:
                solved = (idx, hit)
                break
        if solved is None:
            return ("fail", None)
        idx, (i, coeff, rest) = solved
        num = engine.p_neg(rest)
        nxt = []
        for j, q in enumerate(polys):
            if j == idx:
                continue
            nxt.append(ref_subst(q, i, num, coeff))
        polys = nxt
        split = []
        for q in polys:
            if q and any(any(m) for m in q):
                _, factors = _factor(ring, q)
                if len(factors) > 1 or (factors and factors[0][1] > 1):
                    split = [f for f, _ in factors]
                    break
        if split:
            return ("split", split)


def ref_decompose(I, seen=None):
    seen = seen if seen is not None else set()
    if I.key in seen:
        return []
    seen.add(I.key)
    if I.is_unit():
        return []
    gb = I.groebner
    for g in gb:
        _, factors = _factor(I.ring, g)
        distinct = [f for f, _ in factors]
        if len(distinct) >= 2:
            return ref_branch(I, distinct, seen)
        if len(distinct) == 1 and factors[0][1] >= 2:
            p = Polynomial(I.ring, distinct[0])
            if not I.contains(p.terms):
                return ref_decompose(Ideal(I.ring, list(I.gens) + [p]), seen)
    verdict, data = ref_certify(I.ring, gb)
    if verdict == "unit":
        return []
    if verdict == "prime":
        return [I]
    if verdict == "split":
        usable = [f for f in data if not I.contains(f)]
        if len(usable) == len(data) and len(data) >= 2:
            return ref_branch(I, data, seen)
    rng = random.Random(0xD1F0)
    qgens = I.quotient_gens()
    for _ in range(25):
        combo = I.ring.zero()
        for q in qgens:
            combo = combo + q * rng.randint(-3, 3)
        if combo.is_zero() or not combo.terms:
            continue
        _, factors = _factor(I.ring, combo.terms)
        distinct = [f for f, _ in factors]
        if len(distinct) >= 2 and all(not I.contains(f) for f in distinct):
            return ref_branch(I, distinct, seen)
    raise DecompositionIncomplete(
        "cannot split or certify component %r" % (I,))


def ref_branch(I, factor_dicts, seen):
    out = {}
    for f in factor_dicts:
        p = Polynomial(I.ring, f)
        branch = Ideal(I.ring, list(I.gens) + [p])
        for P in ref_decompose(branch, seen):
            out[P.key] = P
    return list(out.values())


def ref_certify_prime(I):
    verdict, _ = ref_certify(I.ring, I.groebner)
    if verdict != "prime":
        return False
    for g in I.groebner:
        _, factors = _factor(I.ring, g)
        if len(factors) != 1 or factors[0][1] != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# corpus


RINGS = {
    "cone3": lambda: QuotientRing(("x", "y", "z"), ("x*y - z^2",)),
    "cone4": lambda: QuotientRing(("x", "y", "u", "v"), ("x*y - u*v",)),
    "free3": lambda: QuotientRing(("x", "y", "z")),
    "free2": lambda: QuotientRing(("x", "y")),
}


def random_form(rng, ring, degree):
    """A homogeneous form with 1-4 random terms and small coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return Polynomial(ring, terms)


def random_element(rng, ring):
    """A product of one to three forms of degree one or two, or a random
    quadric; zero and constants are redrawn."""
    while True:
        if rng.random() < 0.5:
            f = ring.one()
            for _ in range(rng.randint(1, 3)):
                f = f * random_form(rng, ring, rng.choice([1, 1, 2]))
        else:
            f = random_form(rng, ring, 2)
        if not f.is_zero() and not f.is_unit():
            return f


def outcome(fn, I):
    """fn(I), or the exception's type and message."""
    try:
        return fn(I)
    except DivisorForgeError as exc:  # the comparison includes the type
        return (type(exc), str(exc))


def ref_minimal_height_one_primes(I):
    """minimal_height_one_primes with the frozen decomposition inside."""
    saved = ideals._decompose
    ideals._decompose = ref_decompose
    try:
        return ideals.minimal_height_one_primes(I)
    finally:
        ideals._decompose = saved


def shown(primes):
    if isinstance(primes, tuple):
        return primes
    return [(repr(P), P.key) for P in primes]


def corpus(name, count):
    """Principal ideals of random elements, and every third one an ideal
    of two random elements."""
    ring = RINGS[name]()
    rng = random.Random("decomposition-differential-" + name)
    for k in range(count):
        gens = [random_element(rng, ring) for _ in range(1 + (k % 3 == 2))]
        yield Ideal(ring, gens)


def compare(I):
    """Assert both versions agree on I; return the current outcome.

    Where the earlier version refused and the current one answers, every
    prime must contain I, have height one and be certified; and the primes
    must be the height-one primes containing every generator, that is the
    common support of the generators' divisors, whenever those are
    computed."""
    got = outcome(ideals.minimal_height_one_primes, I)
    ref = outcome(ref_minimal_height_one_primes, I)
    if isinstance(ref, tuple) and isinstance(got, list):
        for P in got:
            assert P.height() == 1 and certify_prime(P), (I, P)
            assert all(P.contains(g.terms) for g in I.gens), (I, P)
        divisors = [outcome(WeilDivisor.of_element, g) for g in I.gens]
        if not any(isinstance(D, tuple) for D in divisors):
            common = set.intersection(*(set(D.support()) for D in divisors))
            assert shown(got) == shown(sorted(common, key=lambda P: P.key)), I
    else:
        assert shown(got) == shown(ref), I
    for J in [I] + ([] if isinstance(got, tuple) else got):
        assert outcome(certify_prime, J) == outcome(ref_certify_prime, J), J
    return got


@pytest.mark.parametrize("name", sorted(RINGS))
def test_decomposition_matches_frozen_reference(name):
    outcomes = [compare(I) for I in corpus(name, 40)]
    assert any(isinstance(o, list) and o for o in outcomes)
