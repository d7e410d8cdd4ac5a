"""Exact multivariate polynomial engine.

Polynomials are plain dicts mapping exponent tuples to nonzero Fractions.
All functions here are ring-agnostic: they take the number of variables
implicitly from the exponent tuples and an order key explicitly.  The
higher-level modules wrap these in ring-aware classes.
"""

import heapq
from fractions import Fraction
from itertools import combinations
from operator import add, le, lshift, neg, sub

ZERO = Fraction(0)
ONE = Fraction(1)


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


def mono_lcm(a, b):
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# arithmetic on term dicts

def p_add(p, q):
    r = dict(p)
    for m, c in q.items():
        s = r.get(m, ZERO) + c
        if s:
            r[m] = s
        else:
            r.pop(m, None)
    return r


def p_neg(p):
    return {m: -c for m, c in p.items()}


def p_sub(p, q):
    r = dict(p)
    for m, c in q.items():
        s = r.get(m, ZERO) - c
        if s:
            r[m] = s
        else:
            r.pop(m, None)
    return r


def p_mul(p, q):
    r = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            s = r.get(m, ZERO) + c1 * c2
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return r


def p_pow(p, n):
    r = None
    base = dict(p)
    while n:
        if n & 1:
            r = p_mul(r, base) if r is not None else base
        n >>= 1
        if n:
            base = p_mul(base, base)
    if r is None:
        nvars = len(next(iter(p))) if p else 0
        return {(0,) * nvars: ONE}
    return r


def leading(p, key):
    """Leading (monomial, coefficient) of a nonzero polynomial."""
    m = max(p, key=key)
    return m, p[m]


def _lm_monic(p, key):
    """(leading monomial, monic p) of a nonzero polynomial; p itself when
    it is already monic."""
    lm = max(p, key=key)
    c = p[lm]
    return lm, (p if c == 1 else {m: k / c for m, k in p.items()})


def monic(p, key):
    return _lm_monic(p, key)[1] if p else p


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
# division and Buchberger

def _neg_key(k):
    """Elementwise negation of a flat integer key tuple; reverses the order."""
    return tuple(map(neg, k))


def normal_form(p, basis, key, lms=None):
    """Fully reduced remainder of p modulo a monic basis (a reduced
    Groebner basis, or the list `buchberger` builds).  lms, if given, holds
    the leading monomials of basis under key.
    """
    if not basis:
        return dict(p)
    if lms is None:
        lms = [max(g, key=key) for g in basis]
    heads = list(zip(lms, basis))
    work = dict(p)
    # max-heap of candidate monomials with lazy deletion
    heap = [(_neg_key(key(m)), m) for m in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        for lm, g in heads:
            if mono_divides(lm, m):
                q = mono_div(m, lm)
                for gm, gc in g.items():
                    t = mono_mul(gm, q)
                    old = work.get(t)
                    s = (old if old is not None else ZERO) - gc * c
                    if s:
                        if old is None:
                            heapq.heappush(heap, (_neg_key(key(t)), t))
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            out[m] = c
            del work[m]
    return out


def _shifted_tail(p, lm, lcm):
    """The terms of monic p below its leading monomial lm, times lcm/lm."""
    q = mono_div(lcm, lm)
    return {mono_mul(m, q): c for m, c in p.items() if m != lm}


def s_poly(f, g, key, lms=None):
    """S-polynomial of monic f and g without their leading terms, which
    cancel; lms, if given, is their pair of leading monomials under key."""
    mf, mg = lms if lms is not None else (max(f, key=key), max(g, key=key))
    lcm = mono_lcm(mf, mg)
    return p_sub(_shifted_tail(f, mf, lcm), _shifted_tail(g, mg, lcm))


def _packing(nvars, width, key):
    """Monomials packed into one int each for buchberger's pair bookkeeping.

    Every exponent gets a width-bit field that ends in a guard bit.  The
    block that key.split eliminates lies above the rest, and the higher
    variable index lies higher within a block.  For packed a and b whose
    exponents are below 2**(width - 1), lcm(a, b) is their exponentwise
    max, a + b their product, and a divides b iff not b - a & guard.
    order(P) sorts like key(exponents of P) when P's degree is below
    2**width: per block, the degree and then mask - P, whose fields are
    the negated exponents.  A key without a split is called on P unpacked.
    Returns (pack, lcm, order, guard).
    """
    split = getattr(key, "split", None)
    k = min(split or 0, nvars)  # the eliminated block is variables 0..k-1
    nb = nvars - k
    shifts = [width * ((v - k) % nvars) for v in range(nvars)]
    ones = sum(1 << width * p for p in range(nvars))
    guard = ones << width - 1
    mask, low, fm = guard - ones, (1 << width * nb) - 1, (1 << width) - 1
    sb, sn, w1 = width * nb, width * nvars, width - 1

    def pack(m):
        return sum(map(lshift, m, shifts))

    def lcm(a, b):
        d = ((a | guard) - b) & guard  # guard bits where a's field >= b's
        return b ^ (a ^ b) & (d - (d >> w1))

    def order(P):
        t = P * ones << width  # field p + 1: the degree of fields 0..p
        deg_b, q = t >> sb & fm, mask - P
        return (((t >> sn & fm) - deg_b << sn | q & ~low) << width
                | deg_b << sb | q & low)

    if split is None:
        return pack, lcm, (lambda P: key(tuple(
            P >> s & fm for s in shifts))), guard
    return pack, lcm, order, guard


def buchberger(gens, key):
    """Reduced Groebner basis, deterministic.

    Normal selection strategy; pairs are discarded by the product (coprime
    leading monomials) and chain criteria.  The output is monic, pairwise
    autoreduced and sorted by ascending leading monomial.  Each element's
    leading monomial is found once and kept in lms beside G, and packed
    once (see _packing) into plms for the pair bookkeeping.
    """
    heads = [_lm_monic(g, key) for g in gens if g]
    if len(heads) < 2:
        return [normal_form(g, [], key, []) for _, g in heads]
    heads.sort(key=lambda h: key(h[0]))
    nvars, width = len(heads[0][0]), 8
    pack, lcm, order, guard = _packing(nvars, width, key)
    # normal selection via a heap keyed by the order of the pair's lcm;
    # (i, j) is unique, so the packed lcm carried last is never compared.
    # popped[i]: bitset of the partners k of every pair (i, k) popped so far
    G, lms, plms, popped, pairs = [], [], [], [], []
    new = heads
    while True:
        for lm, g in new:
            # every leading monomial's degree stays below 2**(width - 2), so
            # no lcm, product or degree reaches a guard bit; a wider packing
            # sorts the same, so the heap keeps its pop sequence
            deg = sum(lm)
            if deg >> width - 2:
                while deg >> width - 2:
                    width *= 2
                pack, lcm, order, guard = _packing(nvars, width, key)
                plms = list(map(pack, lms))
                pairs = [(order(L), i, j, L) for _, i, j, _ in pairs
                         for L in (lcm(plms[i], plms[j]),)]
                heapq.heapify(pairs)
            P, n = pack(lm), len(G)
            for i2, Q in enumerate(plms):
                L = lcm(Q, P)
                heapq.heappush(pairs, (order(L), i2, n, L))
            G.append(g)
            lms.append(lm)
            plms.append(P)
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
        h = normal_form(s_poly(G[i], G[j], key, (lms[i], lms[j])), G, key, lms)
        if h:
            new = (_lm_monic(h, key),)
    # minimalize
    order_idx = sorted(range(len(G)), key=lambda i: key(lms[i]))
    minimal = []
    for i in order_idx:
        if all(plms[i] - plms[k] & guard for k in minimal):
            minimal.append(i)
    # interreduce: no other leading monomial divides a term at or above an
    # element's own monic leading term, so each remainder keeps it and the
    # result stays monic and in ascending order
    reduced = []
    for pos, i in enumerate(minimal):
        rest = minimal[:pos] + minimal[pos + 1 :]
        reduced.append(normal_form(
            G[i], [G[k] for k in rest], key, [lms[k] for k in rest]))
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
