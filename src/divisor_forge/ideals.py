"""Ideal arithmetic, height-one minimal primes and symbolic powers.

Every ideal of a quotient ring is handled through its full ambient preimage
(generators plus defining relations); the reduced Groebner basis of that
preimage is the ideal's canonical key, so ideal equality is key equality.
"""

from . import engine, factorization
from .engine import elim_key
from .errors import (
    DecompositionIncomplete,
    DivisorForgeError,
    HeightNotOne,
    Refusal,
    RingMismatch,
    ScriptError,
)
from .ring import Polynomial, as_int, written


class Ideal:
    """Finitely generated ideal in a QuotientRing."""

    def __init__(self, ring, gens):
        self.ring = ring
        fixed = []
        for g in gens:
            g = ring.element(g, "generator from a different ring")
            if g.terms:
                fixed.append(g)
        self.gens = tuple(fixed)
        self._gb = None
        self._key = None
        self._hash = None
        self._qgens = None

    # -- canonical data ------------------------------------------------------

    @property
    def groebner(self):
        """Reduced GB of the ambient preimage (generators + defining ideal).

        The ring's memo holds it under ("gb", probe), the probe being the
        sorted tuple of each generator's sorted term items, so equal
        multisets of generator term dicts share one entry.  The entry is
        the pair (basis, key), the key canonicalized once, when the basis
        is computed; a lookup stores both on the ideal."""
        if self._gb is None:
            ring = self.ring

            def compute():
                gb = engine.buchberger(
                    [g.terms for g in self.gens] + ring.quotient_gb, ring.key)
                return gb, tuple(engine.canonical(g, ring.key) for g in gb)

            probe = ("gb", tuple(sorted(
                tuple(sorted(g.terms.items())) for g in self.gens)))
            self._gb, self._key = ring.memoized(probe, compute)
        return self._gb

    @property
    def key(self):
        """The canonical key: engine.canonical of each element of the
        reduced basis, in the basis's order.  It is read from the memo
        entry the basis came from, so it is canonicalized once per basis."""
        if self._key is None:
            self.groebner  # stores the key with the basis
        return self._key

    def quotient_gens(self):
        """Generators presented in the quotient: GB elements surviving modulo
        the defining ideal, reduced to normal form."""
        if self._qgens is None:
            out = []
            for g in self.groebner:
                nf = self.ring.normal_form_raw(g)
                if nf:
                    out.append(Polynomial(self.ring, nf))
            self._qgens = tuple(out)
        return self._qgens

    # -- predicates ----------------------------------------------------------

    def contains(self, f):
        if isinstance(f, Polynomial):
            f = f.terms
        return not engine.normal_form(f, self.groebner, self.ring.key)

    def contains_ideal(self, other):
        # the defining relations lie in every preimage
        return all(self.contains(g.terms) for g in other.gens)

    def is_unit(self):
        return engine.is_unit_ideal(self.groebner)

    def is_zero(self):
        return not self.quotient_gens()

    def dimension(self):
        """Krull dimension of R/I (unit ideal gives -1), memoized by key."""
        ring = self.ring
        return ring.memoized(("dim", self.key), lambda: engine.lt_dimension(
            self.groebner, ring.nvars, ring.key))

    def height(self):
        return self.ring.dimension() - self.dimension()

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.key == other.key

    def __hash__(self):
        # a key never changes once computed, so neither does the hash
        if self._hash is None:
            self._hash = hash((self.ring, self.key))
        return self._hash

    def minimal_gens(self):
        """Irredundant generating set drawn from the quotient presentation."""
        gens = list(self.quotient_gens())
        if not gens:
            return (self.ring.zero(),)
        gens.sort(key=lambda g: (g.total_degree(),
                                 engine.canonical(g.nf_terms(), self.ring.key)))
        kept = list(gens)
        i = 0
        while i < len(kept):
            rest = kept[:i] + kept[i + 1 :]
            if rest and Ideal(self.ring, rest).contains(kept[i].terms):
                kept.pop(i)
            else:
                i += 1
        return tuple(kept)

    def __repr__(self):
        return "ideal(%s)" % ", ".join(repr(g) for g in self.minimal_gens())

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatch("ideals from different rings")

    def __add__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        self._check_ring(other)
        return Ideal(self.ring, list(self.gens) + list(other.gens))

    def __mul__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        self._check_ring(other)
        return Ideal(
            self.ring, [f * g for f in self.gens for g in other.gens])

    def __pow__(self, n):
        n = as_int(n, "an exponent")
        if n < 0:
            raise ScriptError("negative power of an ideal element")

        def times(A, B):
            # each distinct product once: ideal(x, y)**n keeps n + 1 generators
            step = {}
            for f in A:
                for g in B:
                    h = f * g
                    step.setdefault(engine.canonical(h.terms, key), h)
            return list(step.values())

        # each generator once, then square and multiply as engine.p_pow does
        one, key = [self.ring.one()], self.ring.key
        return Ideal(self.ring,
                     engine.power(times(one, self.gens), n, times, one))

    def bracket_power(self, n):
        """Ideal generated by the n-th powers of the stored generators."""
        n = as_int(n, "an exponent")
        if n < 1:
            raise DivisorForgeError("bracket power needs n >= 1")
        return Ideal(self.ring, [g**n for g in self.gens])

    def intersection(self, other):
        self._check_ring(other)
        kept = _intersect(self.groebner, other.groebner, self.ring.nvars)
        return Ideal(self.ring, [Polynomial(self.ring, g) for g in kept])

    def quotient(self, other):
        """Colon ideal (self : other)."""
        self._check_ring(other)
        # the stored generators suffice: defining relations lie in every
        # preimage, so their colons are the unit ideal
        gens = [g for g in other.gens if not g.is_zero()]
        if len(gens) > 8:
            gens = [g for g in other.minimal_gens() if not g.is_zero()]
        if not gens:
            raise DivisorForgeError("colon by the zero ideal")
        out = None
        for f in gens:
            part = self._quotient_by_element(f)
            out = part if out is None else out.intersection(part)
        return out

    def _quotient_by_element(self, f):
        fast = self._quotient_by_variable_power(f)
        if fast is not None:
            return fast
        # (I : f) = (1/f)(I \cap (f)), computed in the ambient ring where the
        # division by f is exact polynomial division.
        kept = _intersect(self.groebner, [f.terms], self.ring.nvars)
        out = [_exact_div(g, f.terms, self.ring.key) for g in kept]
        return Ideal(self.ring, [Polynomial(self.ring, g) for g in out])

    def _quotient_by_variable_power(self, f):
        """Fast colon by c*x_i^k for homogeneous ideals, or None.

        With x_i moved last, a grevlex basis of a homogeneous ideal yields a
        basis of (I : x_i^k) in one pass: each element is divided by
        x_i^min(k, e), where e is x_i's exponent in its lead (homogeneity
        makes every term divisible by that power).
        """
        fterms = f.terms
        if len(fterms) != 1:
            return None
        ((mono, _),) = fterms.items()
        gb = self.groebner
        if not any(mono):
            # colon by a unit changes nothing
            return Ideal(self.ring, [Polynomial(self.ring, dict(g))
                                     for g in gb])
        used = [i for i, e in enumerate(mono) if e]
        if len(used) != 1:
            return None
        i, k = used[0], mono[used[0]]
        for g in gb:
            if len({sum(m) for m in g}) != 1:
                return None
        perm = [j for j in range(self.ring.nvars) if j != i] + [i]
        pgb = engine.buchberger(_permute(gb, perm), self.ring.key)
        out = []
        for g in pgb:
            d = min(k, max(g, key=self.ring.key)[-1])
            out.append({m[:-1] + (m[-1] - d,): c for m, c in g.items()})
        return Ideal(self.ring, [Polynomial(self.ring, g)
                                 for g in _unpermute(out, perm)])

    def saturation(self, other):
        """Stable limit of iterated colon ideals (I : J^infinity)."""
        cur = self
        while True:
            nxt = cur.quotient(other)
            if nxt.key == cur.key:
                return cur
            cur = nxt

    def eliminate(self, var_indices):
        """Generators of the contraction to the subring without the given variables."""
        drop = sorted(set(var_indices))
        if not drop:
            return self
        out = _eliminate(self.groebner, drop, self.ring.nvars)
        return Ideal(self.ring, [Polynomial(self.ring, g) for g in out])


def _eliminate(polys, drop, nvars):
    """The elements free of the variables in the sorted list drop of an
    elimination basis of the term dicts polys in nvars variables."""
    perm = drop + [i for i in range(nvars) if i not in drop]
    gb = engine.buchberger(_permute(polys, perm), elim_key(len(drop)))
    return _unpermute(
        [g for g in gb if not any(any(m[:len(drop)]) for m in g)], perm)


def _permute(polys, perm):
    """The term dicts polys with variable perm[k] moved to position k."""
    return [{tuple(m[i] for i in perm): c for m, c in g.items()}
            for g in polys]


def _unpermute(polys, perm):
    """The inverse of _permute(polys, perm)."""
    inverse = [0] * len(perm)
    for k, i in enumerate(perm):
        inverse[i] = k
    return _permute(polys, inverse)


def _intersect(A, B, nvars):
    """Ambient generators of the intersection of the ideals generated by
    the term-dict lists A and B in nvars variables: the elements free of t
    in an elimination basis of t*A + (t-1)*B, t a new first variable.  t
    comes first, where elim_key(1) wants it, so no variable is permuted,
    and (t-1)*g leads with t times the leading term of g, so a monic g
    gives a monic generator."""
    gens = [{(1,) + m: c for m, c in g.items()} for g in A]
    gens += [{**{(0,) + m: -c for m, c in g.items()},
              **{(1,) + m: c for m, c in g.items()}} for g in B]
    return [{m[1:]: c for m, c in g.items()}
            for g in engine.buchberger(gens, elim_key(1))
            if not any(m[0] for m in g)]


def _exact_div(p, f, key):
    """Exact division of ambient polynomials; raises if not divisible."""
    work = dict(p)
    out = {}
    lmf, lcf = engine.leading(f, key)
    while work:
        m, c = engine.leading(work, key)
        if not engine.mono_divides(lmf, m):
            raise DivisorForgeError("inexact polynomial division")
        q = engine.mono_div(m, lmf)
        coeff = engine.coeff_div(c, lcf)
        out[q] = coeff
        for gm, gc in f.items():
            t = engine.mono_mul(gm, q)
            s = work.get(t, 0) - gc * coeff
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return out


# ---------------------------------------------------------------------------
# convenience constructors

def ideal(ring, *gens):
    return Ideal(ring, list(gens))


def unit_ideal(ring):
    return Ideal(ring, [ring.one()])


def irrelevant_ideal(ring):
    """Ideal of all variables (the positive-degree elements for positive gradings)."""
    return Ideal(ring, ring.variables())


# ---------------------------------------------------------------------------
# factorization of ring elements

def factor_polynomial(f):
    """Irreducible factorization of an ambient representative over QQ.

    Returns (unit, [(Polynomial, multiplicity), ...]); constants give an
    empty list.
    """
    if not f.terms:
        raise DivisorForgeError("cannot factor zero")
    unit, factors = _factor(f.ring, f.terms)
    return unit, [(Polynomial(f.ring, d), m) for d, m in factors]


def _factor(ring, terms):
    """factorization.factor_terms of an ambient term dict, once per ring.

    The memo probe is the dict's sorted term items, so equal term dicts
    (2 and Fraction(2) being equal) share one entry.  The result is shared
    through the ring's memo: callers must not mutate it or its factor
    dicts."""
    return ring.memoized(
        ("factor", tuple(sorted(terms.items()))),
        lambda: factorization.factor_terms(terms, ring.nvars, ring.key))


# ---------------------------------------------------------------------------
# primality certificate and minimal prime decomposition

def _subst(p, i, value):
    """Substitute variable i := value (a term dict) into term dict p."""
    by_power = {}
    for m, c in p.items():
        by_power.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1 :]] = c
    out = {}
    for e, part in sorted(by_power.items()):
        if e:
            part = engine.p_mul(part, engine.p_pow(value, e))
        out = engine.p_add(out, part)
    return out


def _solvable_variable(p, nvars):
    """Return (i, value) if p is a nonzero multiple of x_i - value, with x_i
    absent from value."""
    for i in range(nvars):
        x_i = tuple(int(j == i) for j in range(nvars))
        if [m for m in p if m[i]] == [x_i]:
            return i, {m: engine.coeff_div(-c, p[x_i])
                       for m, c in p.items() if not m[i]}
    return None


def _proper_factors(ring, p):
    """Factor dicts of p if p is reducible or a power, else None."""
    _, factors = _factor(ring, p)
    if len(factors) > 1 or factors[0][1] > 1:
        return [f for f, _ in factors]


def _certify_prime(ring, gb):
    """Factor-and-substitute step on an ambient GB.

    Each round factors every polynomial of the system (the GB, then what is
    left after substituting for a variable some element is linear in):
    ('split', factors) for the first reducible one or power, ('unit', None)
    on a nonzero constant, ('prime', None) once at most one is left.  With
    no variable to solve for, elimination bases of the system (one variable
    at a time) project its components to hypersurfaces whose equations may
    factor: ('project', factors) for the first reducible element none of
    whose factors lies in the ideal of gb, else ('fail', None).

    No factor of a split or projection lies in the ideal of gb, so every
    branch is a larger ideal.  A proper factor of an element of the reduced
    GB cannot: its leading monomial strictly divides that element's, which
    no other leading monomial divides.  A split found after a substitution
    is checked, and one with a factor in the ideal is a 'fail'.
    """
    n = ring.nvars
    polys = list(gb)
    substituted = False
    while True:
        polys = [p for p in polys if p]
        if any(all(not any(m) for m in p) for p in polys):
            return ("unit", None)
        for p in polys:
            factors = _proper_factors(ring, p)
            if factors:
                if substituted and not all(
                        engine.normal_form(f, gb, ring.key) for f in factors):
                    return ("fail", None)
                return ("split", factors)
        if len(polys) <= 1:
            return ("prime", None)
        for idx, p in enumerate(polys):
            hit = _solvable_variable(p, n)
            if hit is not None:
                break
        else:
            for i in range(n):
                for g in _eliminate(polys, [i], n):
                    try:
                        factors = _proper_factors(ring, g)
                    except Refusal:
                        continue  # too large to factor: skip
                    if factors and all(engine.normal_form(f, gb, ring.key)
                                       for f in factors):
                        return ("project", factors)
            return ("fail", None)
        polys = [_subst(q, *hit) for j, q in enumerate(polys) if j != idx]
        substituted = True


def _decompose(I, seen=None):
    """All primes obtainable by recursive splitting of I; raises when stuck.

    A split on factors f_1..f_k of an element of I branches on I + (f_j):
    every prime containing I contains some f_j.  The certificate gives no
    factor already in I, whose branch would be I again.  A projection is a
    look-ahead from a component the certificate stopped on: if one of its
    branches cannot be finished, that component is refused.
    """
    seen = seen if seen is not None else set()
    if I.key in seen:
        return []
    seen.add(I.key)
    verdict, factors = _certify_prime(I.ring, I.groebner)
    if verdict == "unit":
        return []
    if verdict == "prime":
        return [I]
    if factors:
        try:
            return [P for f in factors for P in _decompose(
                Ideal(I.ring, list(I.gens) + [Polynomial(I.ring, f)]), seen)]
        except DecompositionIncomplete:
            if verdict == "split":
                raise
    raise DecompositionIncomplete(
        "cannot split or certify component %s" % written(I))


def minimal_height_one_primes(I):
    """Minimal height-one primes of a nonzero ideal, canonically sorted.

    In a normal domain every height-one prime containing I is minimal over
    it, so the recursive splitting may safely over-cover; components of
    height >= 2 are discarded.  Raises DecompositionIncomplete rather than
    ever returning a wrong answer.
    """
    if I.is_zero():
        raise DivisorForgeError("decomposition of the zero ideal")
    comps = _decompose(I)
    out = {}
    for P in comps:
        if P.height() == 1:
            canon = Ideal(I.ring, list(P.quotient_gens()))
            out[canon.key] = canon
    return sorted(out.values(), key=lambda P: P.key)


def certify_prime(I):
    """True if the scoped certificate shows I is prime; False means unknown."""
    return _certify_prime(I.ring, I.groebner)[0] == "prime"


# ---------------------------------------------------------------------------
# symbolic powers

def symbolic_power(P, n):
    """n-th symbolic power of a height-one prime: reflexive hull of the
    bracket power, which agrees with the true power in codimension one."""
    n = as_int(n, "an exponent")
    if n < 1:
        raise DivisorForgeError("symbolic power needs n >= 1")
    if P.height() != 1:
        raise HeightNotOne("symbolic powers here require a height-one prime")
    if n == 1:
        return P
    from .fractional import reflexify

    # the hull depends on P only, not on its stored generators, so any
    # ideal with P's key may serve
    return P.ring.memoized(("symbolic", P.key, n),
                           lambda: reflexify(P.bracket_power(n)))


def max_symbolic_containment(I, P):
    """Largest n with I contained in the n-th symbolic power of P (0 if I not in P)."""

    def fits(n):
        S = symbolic_power(P, n)
        return all(S.contains(g.terms) for g in I.quotient_gens())

    if not fits(1):
        return 0
    if I.key == P.key:  # P^(2) is strictly smaller than P
        return 1
    lo, hi = 1, 2
    while fits(hi):
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# graded pieces

def monomials_of_multidegree(ring, target):
    """All exponent tuples e with grading*e == target, in deterministic order."""
    w = ring.grading.require_positive()
    A = ring.grading.rows
    k = len(A)
    target = tuple(as_int(t, "a degree") for t in target)
    budget = sum(wi * ti for wi, ti in zip(w, target))
    if budget < 0:
        return []
    weights = [
        sum(w[i] * A[i][j] for i in range(k)) for j in range(ring.nvars)
    ]
    out = []
    e = [0] * ring.nvars

    def rec(j, remaining):
        if j == ring.nvars:
            if remaining == 0 and ring.grading.degree(tuple(e)) == target:
                out.append(tuple(e))
            return
        top = remaining // weights[j]
        for v in range(top + 1):
            e[j] = v
            rec(j + 1, remaining - v * weights[j])
        e[j] = 0

    rec(0, budget)
    return out


def graded_piece_basis(I, degree):
    """Vector-space basis of the degree component of I inside R.

    One element m - NF(m) for each standard monomial m of the degree (no
    leading term of the defining ideal divides it) that the normal form
    modulo I's Groebner basis changes, by decreasing m.  This is the reduced
    row echelon basis over the standard monomials, so it is unique.
    """
    ring = I.ring
    degree = ring.grading.expand(degree)
    if len(degree) != ring.grading.ncomponents:
        raise DivisorForgeError("multidegree has wrong length")
    lts = [engine.leading(g, ring.key)[0] for g in ring.quotient_gb]
    std = [
        m for m in monomials_of_multidegree(ring, degree)
        if not any(engine.mono_divides(lt, m) for lt in lts)
    ]
    if any(len({ring.grading.degree(m) for m in g}) != 1
           for g in ring.quotient_gb):
        raise DivisorForgeError(
            "graded piece of a ring with inhomogeneous relations")
    if any(g.multidegree() is None for g in I.quotient_gens()):
        raise DivisorForgeError(
            "graded piece of an ideal with inhomogeneous generators")
    std.sort(key=ring.key, reverse=True)
    out = []
    for m in std:
        nf = engine.normal_form({m: engine.ONE}, I.groebner, ring.key)
        if nf != {m: engine.ONE}:
            terms = {m: engine.ONE}
            for t in sorted(nf, key=ring.key, reverse=True):
                terms[t] = -nf[t]
            out.append(Polynomial(ring, terms))
    return out
