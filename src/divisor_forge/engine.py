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
packed into one int, which is its own order key (see _packing), to a
coefficient under the same rule.  buchberger packs its generators on entry
and unpacks its basis on exit; normal_form packs its tuple-keyed arguments
at the same kind of boundary, and s_poly, called from buchberger only, is
packed throughout.  What buchberger, normal_form, p_add, p_sub and p_mul
return keeps the rule, even an integral sum or product of Fractions.

There is one widening rule (_widening): each of these two steps, a whole
Buchberger run or one normal form, runs at the narrowest packing that holds
its input, and is redone from the start at double the width whenever a
term of its work leaves the packing's range.

Each packing keeps two tables, from a monomial tuple to its packed int and
back, each entry made on the first conversion of its monomial, so a
conversion at the boundary is a dict lookup and equal monomials unpack to
one shared tuple.  An entry depends only on its key, so a table never needs
invalidating; it is cleared whole when it reaches MONOMIALS entries, which
no workload comes near, to keep a long session's memory bounded.  The bound
is a constant and not an option, since it changes no answer and no work
count.

buchberger decides Buchberger's product and chain criteria from the lcms of
leading monomials and the indices of the pairs (see _buchberger).  A pair
enters the heap only when its lcm is minimal and first among those of the
element that made it, and when it is taken it is checked only against the
elements that came after it.  This reduces the same S-pairs, in the same
sequence, as pushing every pair and testing it against every element when
it is taken.  The final interreduction reduces each element by the already
reduced elements with smaller leading monomials.

A caller may bound a computation with work_budget, counted in engine work
and never in time.  Sites charge before they work: p_mul for its term
products and p_add for each sum with a Fraction, at charge_product's price,
which WeilDivisor.combine and the CLI's number arithmetic pay too; _reduce
for each term and reduction step, _buchberger for each pair and new
element, lt_dimension for each set of variables, and, outside the engine,
Grading.positivity_witness for each combination of rows it tests.  Past the
budget, WorkExceeded names the step and its counts.  The library runs with
no budget: each site tests it for None.
"""

import heapq
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from operator import add, le, mul, neg, sub

from .errors import WorkExceeded

ONE = 1  # the coefficient of a monomial alone

# ---------------------------------------------------------------------------
# the work budget (see the module docstring)

budget = None  # the units of work allowed, or None for no limit
spent = 0  # the units charged since the budget was set
# A unit is about one term product of small ints.  A product charges
# PRODUCT_UNITS, and per term product a unit and one per WORD_PRODUCTS
# products of the 64-bit words of its coefficients; a Fraction counts
# FRACTION_WORDS words more, for its gcds.  A reduction charges a unit per
# term taken, a term product per term update and a unit per TESTS
# divisibility tests, as Buchberger does per pair and lt_dimension per set
# of variables, and a unit per lcm.
PRODUCT_UNITS, WORD_PRODUCTS, FRACTION_WORDS, TESTS = 8, 64, 32, 8


@contextmanager
def work_budget(units):
    """Run the body under a budget of units, counted from zero."""
    global budget, spent
    saved, (budget, spent) = (budget, spent), (units, 0)
    try:
        yield
    finally:
        budget, spent = saved


def charge(units, step, *counts):
    """Charge units to step, a phrase with a %d for each of counts; past
    the budget, raise WorkExceeded naming both."""
    global spent
    spent += units
    if spent > budget:
        raise WorkExceeded("%s needs %d units of work, past the budget of %d "
                           "units (%d spent)" % (step % counts, units, budget,
                                                 spent - units))


def _words(coefficients):
    """The size in 64-bit words of the largest of coefficients."""
    return 1 + max((c.numerator.bit_length() + c.denominator.bit_length()
                    + (c.denominator > 1) * 64 * FRACTION_WORDS
                    for c in coefficients), default=0) // 64


def charge_product(p, q):
    """Charge a product of terms whose coefficients are p and q; one sum or
    product of numbers x and y is priced as charge_product((x,), (y,))."""
    a, b = _words(p), _words(q)
    charge(PRODUCT_UNITS + len(p) * len(q) * (1 + a * b // WORD_PRODUCTS),
           "a product of %d by %d terms of up to %d by %d words",
           len(p), len(q), a, b)


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
    r, charging = dict(p), budget is not None
    for m, c in q.items():
        old = r.get(m, 0)
        if charging and (type(old) is not int or type(c) is not int):
            charge_product((old,), (c,))  # a sum with a Fraction
        s = old + c
        if s:
            r[m] = s if type(s) is int else coefficient(s)
        else:
            r.pop(m, None)
    return r


def p_neg(p):
    return {m: -c for m, c in p.items()}


def p_sub(p, q):
    return p_add(p, p_neg(q))


def p_mul(p, q):
    if budget is not None:
        charge_product(p.values(), q.values())
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
    """Hashable canonical form: terms sorted by descending order key.  The
    sort is needed: buchberger returns a one-element basis in its input's
    term order, as normal_form with an empty basis returns a copy of p."""
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

Packing = namedtuple("Packing", "width pack unpack one lcm graded fills "
                     "guard high margin ints tuples")

# the most entries a packing's tables hold: when they reach it, they are
# cleared whole before the next entry is made (see _packing)
MONOMIALS = 1 << 14


@lru_cache(maxsize=None)
def _packing(nvars, width, split):
    """Monomials in nvars variables packed into one int each that is their
    order key (Monagan and Pearce, CASC 2007), for the block order of every
    key with key.split == split (grevlex for 0).

    A block of variables has a field of width + 1 bits per variable, which
    holds 2**width - 1 - e for its exponent e (the higher index higher), and
    its degree in a field above them; the eliminated block lies above the
    rest.  Every field's top bit is a guard bit, set in high, and in guard
    for the variable fields.  The encoding is affine: a * b is a + b - one,
    and g * m / lm is g + (m - lm).  A term is in range when every exponent
    is below 2**(width - ceil(log2 nvars) - 1): P & margin == margin.  The
    product of two in-range terms leaves every field below its guard bit,
    so lm divides m iff (lm | high) - m & guard == guard.

    The pair criteria need only the variable fields: P & one is P bare, its
    degree fields cleared.  For bare a and b, lcm(a, b) is their fieldwise
    min and a divides b iff not a - b & guard; graded(a) fills in the
    degree fields of an in-range bare a, adding (one - a) * spread & degree
    for each (spread, degree) of fills, one per block.

    pack and unpack compute a conversion; ints and tuples, the tables from
    an in-range monomial tuple to its packed int and back, remember it (see
    _int and _tuple).  The two tables always hold the same pairs.  They
    live as long as the cached packing, and since an entry is a function of
    its key alone they are never stale; they are cleared together when
    they reach MONOMIALS entries.  The bound is a module constant rather
    than an option: the largest tables after a sheaf_session cycle hold
    1,265 entries, and a cleared table only costs its conversions again.
    """
    k = min(split, nvars)  # the eliminated block is variables 0..k-1
    wide, top = width + 1, (1 << width) - 1
    shifts, coefs, fills, field = [0] * nvars, [0] * nvars, [], 0
    for block in [b for b in (range(k, nvars), range(k)) if b]:
        deg = wide * (field + len(block))  # field p starts at bit wide * p
        for v in block:
            shifts[v], field = wide * field, field + 1
            coefs[v] = (1 << deg) - (1 << shifts[v])
        # a field of e * spread sums the block's fields below it
        fills.append((sum(1 << wide * j for j in range(1, len(block) + 1)),
                      top << deg))
        field += 1
    ones = sum(1 << s for s in shifts)
    one, guard = top * ones, ones << width
    high = sum(1 << wide * p + width for p in range(field))
    margin = ones * (top + 1 - (1 << width - (nvars - 1).bit_length() - 1))

    def pack(m):
        return one + sum(map(mul, m, coefs))

    def unpack(P):
        return tuple([top - (P >> s & top) for s in shifts])

    def lcm(a, b):
        d = ((a | guard) - b) & guard  # guard bits where a's field >= b's
        return a ^ (a ^ b) & (d - (d >> width))

    def graded(a):
        e = one - a  # the exponents, each in its field
        for spread, degree in fills:
            a += e * spread & degree
        return a

    return Packing(width, pack, unpack, one, lcm, graded, tuple(fills), guard,
                   high, margin, {}, {})


def _remember(m, P, pk):
    """Enter the monomial tuple m and its packed int P in pk's tables,
    clearing both first when they are full."""
    if len(pk.ints) >= MONOMIALS:
        pk.ints.clear()
        pk.tuples.clear()
    pk.ints[m] = P
    pk.tuples[P] = m


def _int(m, pk):
    """The in-range monomial tuple m packed, from pk's tables."""
    P = pk.ints.get(m)
    if P is None:
        P = pk.pack(m)
        _remember(m, P, pk)
    return P


def _tuple(P, pk):
    """The in-range packed monomial P as its tuple, from pk's tables."""
    m = pk.tuples.get(P)
    if m is None:
        m = pk.unpack(P)
        _remember(m, P, pk)
    return m


def _pack(p, pk):
    """The tuple-keyed p packed, its monomials in range, each coefficient
    under the rule (the body of coefficient(), inline).  Its monomials are
    looked up in pk's tables, and only a missing one is converted."""
    ints = pk.ints
    try:
        return {ints[m]: c.numerator if c.denominator == 1 else c
                for m, c in p.items()}
    except KeyError:
        return {_int(m, pk): c.numerator if c.denominator == 1 else c
                for m, c in p.items()}


def _unpack(P, pk):
    """The packed P, its monomials in range, as a tuple-keyed dict, its
    coefficients as they are; as _pack, through pk's tables."""
    tuples = pk.tuples
    try:
        return {tuples[m]: c for m, c in P.items()}
    except KeyError:
        return {_tuple(m, pk): c for m, c in P.items()}


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
    the tail holding its other terms as (monomial, coefficient) pairs in
    P's order.  When lm is P's first term, as in every remainder of _reduce
    (its terms descend), the tail is the items after it, read without a
    comparison; otherwise lm is looked for among all of them."""
    items = iter(P.items())
    if next(items)[0] == lm:
        return lm, tuple(items)
    return lm, tuple([t for t in P.items() if t[0] != lm])


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
    of p or of the work is out of range.

    p is consumed: it holds the work, its terms taken out as they are
    reduced or kept, so a caller hands over a dict it no longer needs (a
    fresh S-polynomial or _pack result, or an element reduced only once)."""
    guard, high, margin = pk.guard, pk.high, pk.margin
    push, pop = heapq.heappush, heapq.heappop
    charging, n = budget is not None, len(heads)
    scan, sizes = 1 + n // TESTS, {}  # sizes: lm -> _words of its tail
    work = p
    # max-heap of candidate monomials, negated, with lazy deletion
    heap = []
    for m in work:
        if m & margin != margin:
            return None
        heap.append(-m)
    heapq.heapify(heap)
    out = {}
    while heap:
        m = -pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if c.__class__ is not int and c.denominator == 1:
            c = c.numerator
        for lm, tail in heads:
            if (lm | high) - m & guard == guard:
                break
        else:
            if charging:
                charge(scan, "a term tested against %d leading terms", n)
            out[m] = c
            continue
        if charging:
            a, b = sizes.get(lm), _words((c,))
            if a is None:
                a = sizes[lm] = _words(t[1] for t in tail)
            charge(scan + len(tail) * (1 + a * b // WORD_PRODUCTS),
                   "a term tested against %d leading terms and reduced by %d "
                   "term updates of up to %d by %d words", n, len(tail), a, b)
        q = m - lm
        for gm, gc in tail:
            t = gm + q
            old = work.get(t)
            if old is None:
                if t & margin != margin:
                    return None
                work[t] = -gc * c
                push(heap, -t)
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
    (leading monomial, tail) pairs (see _head), the packed p is consumed
    (see _reduce), and the result is the packed remainder, or None when a
    term leaves the packing's range.  Otherwise p and basis are packed here
    into fresh dicts, at the width _widening finds, and the remainder
    unpacked, so the tuple-keyed arguments are left as they are.  With an
    empty basis the result is a copy of p, in p's term order.  A zero p,
    as a third of buchberger's S-polynomials are, is its own remainder: {}
    before anything is packed or reduced.
    """
    if not p:
        return {}
    if not basis:
        return dict(p)
    if packing is not None:
        return _reduce(p, basis, packing)

    def attempt(pk):
        heads = [_head(P, max(P)) for P in [_pack(g, pk) for g in basis]]
        r = _reduce(_pack(p, pk), heads, pk)
        return None if r is None else _unpack(r, pk)

    return _widening((p, *basis), key.split, attempt)


def s_poly(f, g, L):
    """S-polynomial of the monic packed polynomials f and g, given as
    (leading monomial, tail) pairs (see _head), whose leading monomials
    have the lcm L, without their leading terms, which cancel.  Its terms
    may be out of the packing's range, but are exact."""
    (lf, f), (lg, g) = f, g
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
    leading monomials) and chain criteria, decided when a pair is made and
    when it is taken (see _buchberger).  The output is monic, pairwise
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
    as its (leading monomial, tail) pair, bare its leading monomial with
    the degree fields cleared, and lcms[n][k] the bare lcm L_kn of the
    leading monomials of elements k < n.

    Normal selection pops the pair (i, j) of least L_ij, ties going to the
    least (i, j).  A pair is dropped by the product criterion, or by the
    chain criterion when some lm_k divides L with the pairs (i, k) and
    (j, k) popped before (i, j).  Both are decided from the bare lcms and
    the indices alone.  Of two pairs in the heap together, one whose lcm
    strictly divides L is smaller, so it is popped before (i, j), and one
    with lcm equal to L is popped before it exactly when its index pair is
    smaller.  So:

    - when element n arrives, k < n is a witness for (i, n) exactly when
      L_kn strictly divides L_in, or equals it with k < i, since (k, n) and
      (i, k) then come first.  Only the lowest index i of each minimal
      distinct lcm of the row L_0n, ..., L_(n-1)n is pushed, its degree
      fields filled in, and only when the product criterion does not drop
      it.  The row is built in one pass, each entry the fieldwise min of
      pk.lcm written inline.  When an earlier lm_k divides lm_n, L_kn is
      lm_n itself, which divides every lcm of the row, so it is the one
      minimal lcm; otherwise the minimal ones are found among the row's
      distinct lcms, and only their lowest indices are looked up;
    - when (i, j) is popped, a later element k > j is a witness exactly
      when lm_k divides L, L_ik != L and L_jk != L: (i, k) and (j, k) came
      into the heap after (i, j) and have larger index pairs, so only a
      strictly smaller lcm puts them first.

    Every pair that is pushed is therefore popped in the same sequence, and
    reduced or dropped, as when every pair is pushed and tested at pop
    time, and the S-pairs reduced are the same.
    """
    one, guard, width, fills = pk.one, pk.guard, pk.width, pk.fills
    packed = [_pack(g, pk) for g in gens]
    # by ascending leading monomial, equal ones in the order given
    new = [(lm, _monic(packed[i], lm))
           for lm, i in sorted((max(P), i) for i, P in enumerate(packed))]
    # normal selection via a heap of (L, i, j); (i, j) is unique
    G, heads, bare, lcms, pairs = [], [], [], [], []
    while True:
        for lm, g in new:
            n, b = len(G), lm & one
            if budget is not None:
                charge(1 + n, "basis element %d and its %d lcms", n + 1, n)
            # pk.lcm(B, b) inline: d holds the guard bits of the fields
            # where B's is at least b's, and those fields are taken from b
            row = [B ^ (B ^ b) & (d - (d >> width))
                   for B in bare for d in ((B | guard) - b & guard,)]
            if b in row:  # an earlier leading monomial divides lm
                least = [b]
            else:
                # the distinct lcms that no other one divides: a proper
                # divisor of a bare L is a larger int than L, so it is met
                # first
                least = []
                for L in sorted(set(row), reverse=True):
                    for M in least:
                        if not M - L & guard:
                            break
                    else:
                        least.append(L)
            for L in least:
                i = row.index(L)  # the lowest index of the lcm L
                if L != bare[i] + b - one:  # product criterion
                    e = one - L  # pk.graded(L) inline
                    for spread, degree in fills:
                        L += e * spread & degree
                    heapq.heappush(pairs, (L, i, n))
            G.append(g)
            heads.append(_head(g, lm))
            bare.append(b)
            lcms.append(row)
        new = ()
        if not pairs:
            break
        L, i, j = heapq.heappop(pairs)
        if budget is not None:
            charge(1 + (len(G) - j) // TESTS,
                   "the S-pair (%d, %d) of a basis of %d elements", i, j,
                   len(G))
        b = L & one
        for k in range(j + 1, len(G)):
            if not bare[k] - b & guard and lcms[k][i] != b != lcms[k][j]:
                break  # chain criterion, by an element that came later
        else:
            h = normal_form(s_poly(heads[i], heads[j], L), heads, key, pk)
            if h is None:
                return None
            if h:
                lm = next(iter(h))  # the remainder's terms are descending
                new = ((lm, _monic(h, lm)),)
    # minimalize
    minimal = []
    for _, i in sorted((h[0], i) for i, h in enumerate(heads)):
        b = bare[i]
        for k in minimal:
            if not bare[k] - b & guard:
                break
        else:
            minimal.append(i)
    # interreduce in ascending order: a term below lm_i is divisible only by
    # a smaller leading monomial, so reducing each element by the reduced
    # elements before it gives its unique remainder, which keeps its monic
    # leading term.  The first is reduced by all the others, which changes
    # none of its terms but puts them in descending order, or by none when
    # it is alone
    done, reduced = [], []
    for pos, i in enumerate(minimal):  # G[i] is consumed, not needed again
        r = normal_form(G[i], done if pos else [heads[k] for k in minimal[1:]],
                        key, pk)
        if r is None:
            return None
        done.append(_head(r, heads[i][0]))
        reduced.append(_unpack(r, pk))
    return reduced


def is_unit_ideal(gb):
    return len(gb) == 1 and list(gb[0]) == [tuple([0] * len(next(iter(gb[0]))))]


# ---------------------------------------------------------------------------
# dimension via independent variable sets

def lt_dimension(gb, nvars, key):
    """Krull dimension of k[x]/LT(I) from a reduced GB (unit ideal gives -1;
    otherwise no leading term is constant, so size 0 always qualifies)."""
    if is_unit_ideal(gb):
        return -1
    lts = [max(g, key=key) for g in gb]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            if budget is not None:
                charge(1 + len(lts) * nvars // TESTS, "a set of %d of %d "
                       "variables tested against %d leading terms", size,
                       nvars, len(lts))
            s = set(subset)
            if all(any(m[i] for i in range(nvars) if i not in s) for m in lts):
                return size
