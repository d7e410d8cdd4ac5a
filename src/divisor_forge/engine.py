"""Exact multivariate polynomial engine.

Polynomials are plain dicts mapping exponent tuples to nonzero rational
coefficients.  One rule holds for coefficients throughout the library: an
integral coefficient is an int, and any other is a Fraction.  The two agree
on numerator, denominator, ==, hash and str, so canonical keys and printed
text do not depend on which one a coefficient is.  A division of one
coefficient by another goes through coeff_div, which is exact and returns
an int when the quotient is integral; plain / on two ints would make a
float.  All functions here are ring-agnostic: they take the number of
variables implicitly from the exponent tuples and an order key explicitly.
The higher-level modules wrap these in ring-aware classes.

Reduction works on packed polynomials instead: dicts from a monomial
packed into one int (see _packing) to a coefficient under the same rule.
buchberger packs its generators on entry and unpacks its basis on exit;
normal_form packs its tuple-keyed arguments at the same kind of boundary,
and s_poly, called from buchberger only, is packed throughout.  What
buchberger, normal_form, p_add, p_sub and p_mul return keeps the rule,
even an integral sum or product of Fractions.

There is one widening rule (_widening): each of these two steps, a whole
Buchberger run or one normal form, runs at the narrowest packing that holds
its input, and is redone from the start at double the width whenever a
term of its work leaves the packing's range.
"""

import heapq
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from operator import add, le, lshift, neg, sub

ONE = 1  # the coefficient of a monomial alone


def coefficient(c):
    """The int or Fraction c under the coefficient rule: an int when it is
    integral."""
    return c.numerator if c.denominator == 1 else c


def coeff_div(k, c):
    """The exact quotient k / c of two coefficients, under the rule."""
    return coefficient(Fraction(k) / c)


# ---------------------------------------------------------------------------
# monomial orders

def grevlex_key(e):
    """Sort key for graded reverse lexicographic order (larger key = larger
    monomial): the flat tuple (deg, -e_n, ..., -e_1)."""
    return (sum(e), *map(neg, reversed(e)))


def elim_key(k):
    """Block order eliminating the first k variables (grevlex within each
    block): the grevlex keys of the two blocks, concatenated."""

    def key(e):
        a, b = e[:k], e[k:]
        return (sum(a), *map(neg, a[::-1]), sum(b), *map(neg, b[::-1]))

    key.split = k
    return key


# grevlex is the block order with an empty eliminated block
grevlex_key.split = 0


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(a, b):
    """Exponent vector a - b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# arithmetic on term dicts

def p_add(p, q):
    r = dict(p)
    for m, c in q.items():
        s = r.get(m, 0) + c
        if s:
            r[m] = s if type(s) is int else coefficient(s)
        else:
            r.pop(m, None)
    return r


def p_neg(p):
    return {m: -c for m, c in p.items()}


def p_sub(p, q):
    r = dict(p)
    for m, c in q.items():
        s = r.get(m, 0) - c
        if s:
            r[m] = s if type(s) is int else coefficient(s)
        else:
            r.pop(m, None)
    return r


def p_mul(p, q):
    r = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            s = r.get(m, 0) + c1 * c2
            if s:
                r[m] = s if type(s) is int else coefficient(s)
            else:
                r.pop(m, None)
    return r


def power(x, n, mul, one):
    """x**n for an int n >= 0 by square and multiply with the product mul:
    one when n is 0, x itself when n is 1."""
    r = None
    while n:
        if n & 1:
            r = x if r is None else mul(r, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if r is None else r


def p_pow(p, n):
    nvars = len(next(iter(p))) if p else 0
    return power(dict(p), n, p_mul, {(0,) * nvars: ONE})


def leading(p, key):
    """Leading (monomial, coefficient) of a nonzero polynomial."""
    m = max(p, key=key)
    return m, p[m]


def monic(p, key):
    """p divided by its leading coefficient; p itself when it is zero or
    already monic."""
    if not p:
        return p
    c = p[max(p, key=key)]
    return p if c == 1 else {m: coeff_div(k, c) for m, k in p.items()}


def canonical(p, key):
    """Hashable canonical form: terms sorted by descending order key."""
    return tuple(
        (m, (p[m].numerator, p[m].denominator))
        for m in sorted(p, key=key, reverse=True)
    )


def total_degree(p):
    return max((sum(m) for m in p), default=-1)


def differentiate(p, i):
    """Partial derivative with respect to variable i."""
    r = {}
    for m, c in p.items():
        if m[i]:
            dm = list(m)
            dm[i] -= 1
            r[tuple(dm)] = c * m[i]
    return r


# ---------------------------------------------------------------------------
# packed monomials

Packing = namedtuple("Packing", "width pack unpack lcm order guard margin")


@lru_cache(maxsize=None)
def _packing(nvars, width, split):
    """Monomials in nvars variables packed into one int each (Monagan and
    Pearce, CASC 2007), for the order of every key with key.split == split:
    the block order eliminating the first split variables (grevlex for 0).

    Every exponent gets a width-bit field that ends in a guard bit.  The
    eliminated block lies above the rest, and the higher variable index
    lies higher within a block.  A packed term is in range when it sets no
    bit of margin, the top ceil(log2 nvars) + 1 bits of every field.  The
    sum of two in-range terms carries out of no field, so for in-range a
    and b: a + b is their product, lcm(a, b) their exponentwise max, a
    divides b iff not b - a & guard, and no block degree reaches a guard
    bit.  order(P) then sorts like the order key (per block: the degree,
    then mask - P, whose fields are the negated exponents).
    """
    k = min(split, nvars)  # the eliminated block is variables 0..k-1
    nb = nvars - k
    shifts = [width * ((v - k) % nvars) for v in range(nvars)]
    ones = sum(1 << width * p for p in range(nvars))
    guard = ones << width - 1
    mask, low, fm = guard - ones, (1 << width * nb) - 1, (1 << width) - 1
    sb, sn, w1 = width * nb, width * nvars, width - 1
    margin = ones * (fm + 1 - (1 << width - (nvars - 1).bit_length() - 1))

    def pack(m):
        return sum(map(lshift, m, shifts))

    def unpack(P):
        return tuple([P >> s & fm for s in shifts])

    def lcm(a, b):
        d = ((a | guard) - b) & guard  # guard bits where a's field >= b's
        return b ^ (a ^ b) & (d - (d >> w1))

    def order(P):
        t = P * ones << width  # field p + 1: the degree of fields 0..p
        deg_b, q = t >> sb & fm, mask - P
        return (((t >> sn & fm) - deg_b << sn | q & ~low) << width
                | deg_b << sb | q & low)

    return Packing(width, pack, unpack, lcm, order, guard, margin)


def _pack(p, pk):
    """The tuple-keyed p packed, each coefficient under the rule (the body
    of coefficient(), inline)."""
    pack = pk.pack
    return {pack(m): c.numerator if c.denominator == 1 else c
            for m, c in p.items()}


def _unpack(P, pk):
    """The packed P as a tuple-keyed dict, its coefficients as they are."""
    unpack = pk.unpack
    return {unpack(m): c for m, c in P.items()}


def _monic(P, lm):
    """The packed P divided by its coefficient at lm, exactly."""
    c = P[lm]
    if c == 1:
        return P
    if c == -1:
        return {m: -k for m, k in P.items()}
    return {m: coeff_div(k, c) for m, k in P.items()}


def _head(P, lm):
    """The monic packed P with leading monomial lm as the pair (lm, tail),
    the tail holding its other terms as (monomial, coefficient) pairs."""
    return lm, tuple([t for t in P.items() if t[0] != lm])


def _heads(polys, pk):
    """The monic tuple-keyed polys packed as (leading monomial, tail) pairs."""
    return [_head(P, max(P, key=pk.order))
            for P in [_pack(g, pk) for g in polys]]


def _widening(polys, split, attempt):
    """attempt(pk) at the packing of the least width 8, 16, 32, ... that
    holds every exponent of the nonzero tuple-keyed polys, the width doubled
    and attempt called again each time it returns None (a term of its work
    left the packing's range)."""
    nvars = len(next(iter(polys[0])))
    top = max(map(max, chain.from_iterable(polys)))
    spare, width = (nvars - 1).bit_length() + 1, 8
    while True:
        if width > spare and not top >> width - spare:
            r = attempt(_packing(nvars, width, split))
            if r is not None:
                return r
        width *= 2


# ---------------------------------------------------------------------------
# division and Buchberger

def _reduce(p, heads, pk):
    """The one reduction loop: the packed p fully reduced by heads, a list
    of (leading monomial, tail) of monic packed polynomials.  Returns the
    remainder with its terms in descending order, or None as soon as a term
    of p or of the work is out of range."""
    guard, margin, order = pk.guard, pk.margin, pk.order
    push, pop = heapq.heappush, heapq.heappop
    work = dict(p)
    # max-heap of candidate monomials with lazy deletion
    heap = []
    for m in work:
        if m & margin:
            return None
        heap.append((-order(m), m))
    heapq.heapify(heap)
    out = {}
    while heap:
        m = pop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        if c.__class__ is not int and c.denominator == 1:
            c = c.numerator
        for lm, tail in heads:
            q = m - lm
            if not q & guard:
                break
        else:
            out[m] = c
            continue
        for gm, gc in tail:
            t = gm + q
            old = work.get(t)
            if old is None:
                if t & margin:
                    return None
                work[t] = -gc * c
                push(heap, (-order(t), t))
            else:
                s = old - gc * c
                if s:
                    work[t] = s
                else:
                    del work[t]
    return out


def normal_form(p, basis, key, packing=None):
    """Fully reduced remainder of p modulo a monic basis (a reduced
    Groebner basis, or the list `buchberger` builds).

    Given a packing, everything is packed: basis holds its elements as
    (leading monomial, tail) pairs (see _head), and the result is the
    packed remainder, or None when a term leaves the packing's range.
    Otherwise p and basis are packed here, at the width _widening finds,
    and the remainder unpacked.
    """
    if not basis:
        return dict(p)
    if packing is not None:
        return _reduce(p, basis, packing)
    if not p:
        return {}

    def attempt(pk):
        r = _reduce(_pack(p, pk), _heads(basis, pk), pk)
        return None if r is None else _unpack(r, pk)

    return _widening((p, *basis), key.split, attempt)


def s_poly(f, g, packing):
    """S-polynomial of the monic packed polynomials f and g, given as
    (leading monomial, tail) pairs (see _head), without their leading
    terms, which cancel.  Its terms may be out of the packing's range, but
    are exact."""
    (lf, f), (lg, g) = f, g
    L = packing.lcm(lf, lg)
    qf, qg = L - lf, L - lg
    r = {m + qf: c for m, c in f}
    for m, c in g:
        t = m + qg
        s = r.get(t, 0) - c
        if s:
            r[t] = s
        else:
            del r[t]
    return r


def buchberger(gens, key):
    """Reduced Groebner basis, deterministic.

    Normal selection strategy; pairs are discarded by the product (coprime
    leading monomials) and chain criteria.  The output is monic, pairwise
    autoreduced and sorted by ascending leading monomial.

    The work is packed (see _packing) at the width _widening finds: a run
    that meets a remainder out of the packing's range is abandoned, and the
    whole run is redone at double the width.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    return _widening(gens, key.split, lambda pk: _buchberger(gens, key, pk))


def _buchberger(gens, key, pk):
    """buchberger's run at the packing pk, or None as soon as a remainder
    leaves its range.  G holds each element as a monic packed dict, heads
    as its (leading monomial, tail) pair and plms its leading monomial."""
    lcm, order, guard = pk.lcm, pk.order, pk.guard
    new = []
    for g in gens:
        P = _pack(g, pk)
        lm = max(P, key=order)
        new.append((lm, _monic(P, lm)))
    new.sort(key=lambda h: order(h[0]))
    # normal selection via a heap keyed by the order of the pair's lcm;
    # (i, j) is unique, so the packed lcm carried last is never compared.
    # popped[i]: bitset of the partners k of every pair (i, k) popped so far
    G, heads, plms, popped, pairs = [], [], [], [], []
    while True:
        for lm, g in new:
            n = len(G)
            for i2, Q in enumerate(plms):
                L = lcm(Q, lm)
                heapq.heappush(pairs, (order(L), i2, n, L))
            G.append(g)
            heads.append(_head(g, lm))
            plms.append(lm)
            popped.append(0)
        new = ()
        if not pairs:
            break
        _, i, j, L = heapq.heappop(pairs)
        popped[i] |= 1 << j
        popped[j] |= 1 << i
        if L == plms[i] + plms[j]:
            continue  # product criterion
        # chain criterion: some lm_k divides the lcm and the pairs (i, k)
        # and (j, k) are already popped
        b = popped[i] & popped[j]
        while b and L - plms[(b & -b).bit_length() - 1] & guard:
            b &= b - 1
        if b:
            continue
        h = normal_form(s_poly(heads[i], heads[j], pk), heads, key, pk)
        if h is None:
            return None
        if h:
            lm = next(iter(h))  # the remainder's terms are in descending order
            new = ((lm, _monic(h, lm)),)
    # minimalize
    minimal = []
    for i in sorted(range(len(G)), key=lambda i: order(plms[i])):
        if all(plms[i] - plms[k] & guard for k in minimal):
            minimal.append(i)
    # interreduce: no other leading monomial divides a term at or above an
    # element's own monic leading term, so each remainder keeps it and the
    # result stays monic and in ascending order
    reduced = []
    for pos, i in enumerate(minimal):
        rest = minimal[:pos] + minimal[pos + 1 :]
        r = normal_form(G[i], [heads[k] for k in rest], key, pk)
        if r is None:
            return None
        reduced.append(_unpack(r, pk))
    return reduced


def is_unit_ideal(gb):
    return len(gb) == 1 and list(gb[0]) == [tuple([0] * len(next(iter(gb[0]))))]


# ---------------------------------------------------------------------------
# dimension via independent variable sets

def lt_dimension(gb, nvars, key):
    """Krull dimension of k[x]/LT(I) from a reduced GB (unit ideal gives -1)."""
    if is_unit_ideal(gb):
        return -1
    lts = [max(g, key=key) for g in gb]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if all(any(m[i] for i in range(nvars) if i not in s) for m in lts):
                return size
    return 0
