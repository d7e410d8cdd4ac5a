"""Quotient rings of multigraded polynomial rings over the rationals.

A ring is fixed once at construction: variable names, a grading matrix and
a defining ideal whose reduced Groebner basis (graded reverse lexicographic
order, declared variable order) is computed eagerly.  Elements are stored
as ambient representatives; `normal_form` gives the unique canonical
representative modulo the defining ideal.
"""

from fractions import Fraction
from itertools import product

from . import engine, parsing
from .engine import grevlex_key
from .errors import DivisorForgeError, GradingNotPositive, RingMismatch


def as_int(n, what):
    """n as an int, when it is an int or an integral Fraction; anything else,
    a float included, is a DivisorForgeError naming what n is."""
    if isinstance(n, (int, Fraction)) and n.denominator == 1:
        return int(n)
    raise DivisorForgeError("%s must be an integer, not %s" % (what, n))


class Grading:
    """Integer degree matrix: one row per grading component, one column per variable."""

    def __init__(self, rows):
        rows = tuple(tuple(as_int(x, "a degree") for x in r) for r in rows)
        if not rows:
            raise DivisorForgeError("grading needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DivisorForgeError("ragged grading matrix")
        self.rows = rows
        self.ncomponents = len(rows)
        self.nvars = n

    @classmethod
    def standard(cls, nvars):
        return cls([(1,) * nvars])

    def degree(self, exps):
        return tuple(sum(a * e for a, e in zip(row, exps)) for row in self.rows)

    def expand(self, degree):
        """degree as a tuple of ints: a scalar, an int or an integral
        Fraction, stands for itself in every component."""
        if isinstance(degree, (tuple, list)):
            return tuple(as_int(d, "a degree") for d in degree)
        return (as_int(degree, "a degree"),) * self.ncomponents

    def positivity_witness(self):
        """Integer row vector w with w*A positive in every column, or None.

        Searched over small non-negative combinations of the rows; enough for
        desk-scale gradings.
        """
        for w in product(range(5), repeat=self.ncomponents):
            if not any(w):
                continue
            cols = [
                sum(w[i] * self.rows[i][j] for i in range(self.ncomponents))
                for j in range(self.nvars)
            ]
            if all(c > 0 for c in cols):
                return w
        return None

    def require_positive(self):
        w = self.positivity_witness()
        if w is None:
            raise GradingNotPositive(
                "no positive combination of grading rows found")
        return w

    def __eq__(self, other):
        return isinstance(other, Grading) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Grading(%r)" % (self.rows,)


class QuotientRing:
    """QQ[x_1..x_n]/I with a fixed grevlex order and cached defining GB.

    `memo` holds results that depend only on canonical data of this ring,
    under keys built from canonical forms (never object ids), so a value
    computed once serves every equal input and dies with the ring.  Stored
    values are shared between callers and must not be mutated.
    """

    def __init__(self, names, relations=(), grading=None):
        names = tuple(names)
        if not names:
            raise DivisorForgeError("need at least one variable")
        if len(set(names)) != len(names):
            raise DivisorForgeError("duplicate variable names: %r" % (names,))
        self.names = names
        self.nvars = len(names)
        self.grading = grading or Grading.standard(self.nvars)
        if self.grading.nvars != self.nvars:
            raise DivisorForgeError("grading has wrong number of columns")
        self.key = grevlex_key
        self.defining = ()
        self.quotient_gb = []
        raw = []
        for rel in relations:
            if isinstance(rel, str):
                raw.append(polynomial(self, rel).terms)
            else:
                raw.append(self._relation_terms(rel))
        self.defining = tuple(
            engine.canonical(g, self.key) for g in raw if g)
        self.quotient_gb = engine.buchberger(raw, self.key)
        # names, grading and defining never change, so neither does the hash
        self._hash = hash((self.names, self.grading, self.defining))
        self.memo = {}

    def _relation_terms(self, rel):
        """The terms of a relation given as a number (a constant), an element
        of a ring with these variable names, or a dict from exponent tuples,
        one exponent per variable, to int or Fraction coefficients."""
        if isinstance(rel, (int, Fraction)):
            return self.element(rel, None).terms
        if isinstance(rel, Polynomial):
            if rel.ring.names != self.names:
                raise RingMismatch("a relation from a ring with variables %r"
                                   % (rel.ring.names,))
            return rel.terms
        if not isinstance(rel, dict):
            raise DivisorForgeError("cannot read the relation %r" % (rel,))
        for e, c in rel.items():
            if not (isinstance(e, tuple) and len(e) == self.nvars and all(
                    type(a) is int and a >= 0 for a in e)):
                raise DivisorForgeError(
                    "a relation exponent must be a tuple of %d non-negative "
                    "ints, not %r" % (self.nvars, e))
            if not isinstance(c, (int, Fraction)):
                raise DivisorForgeError("a relation coefficient must be an "
                                        "int or a Fraction, not %r" % (c,))
        return {e: engine.coefficient(c) for e, c in rel.items() if c}

    # -- basics ------------------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: 1})

    def variable(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def element(self, value, mismatch):
        """value as an element of this ring: text is parsed, a number is a
        constant, and an element of this ring is returned as it is.  Anything
        else raises RingMismatch(mismatch)."""
        if isinstance(value, Polynomial):
            if value.ring == self:
                return value
        elif isinstance(value, str):
            return polynomial(self, value)
        elif isinstance(value, (int, Fraction)):
            return Polynomial(
                self, {(0,) * self.nvars: engine.coefficient(value)})
        raise RingMismatch(mismatch)

    def normal_form_raw(self, terms):
        return engine.normal_form(terms, self.quotient_gb, self.key)

    def memoized(self, key, compute):
        """The memo's value under key, from compute() on the first request."""
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = compute()
            return value

    def dimension(self):
        """Krull dimension of the ring itself, memoized under ("dim",)."""
        return self.memoized(("dim",), lambda: engine.lt_dimension(
            self.quotient_gb, self.nvars, self.key))

    def is_free(self):
        return not self.quotient_gb

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, QuotientRing)
            and self.names == other.names
            and self.grading == other.grading
            and self.defining == other.defining
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        base = "QQ[%s]" % ",".join(self.names)
        if self.quotient_gb:
            rels = ", ".join(
                format_terms(g, self.names, self.key) for g in self.quotient_gb)
            return "%s/(%s)" % (base, rels)
        return base


class Polynomial:
    """Element of a quotient ring, stored as an ambient representative."""

    __slots__ = ("ring", "terms", "_nf")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._nf = None

    # -- canonical form ----------------------------------------------------

    def normal_form(self):
        """Unique representative modulo the defining ideal (idempotent)."""
        return Polynomial(self.ring, self.nf_terms())

    def nf_terms(self):
        if self._nf is None:
            self._nf = self.ring.normal_form_raw(self.terms)
        return self._nf

    def is_zero(self):
        return not self.nf_terms()

    def is_constant(self):
        nf = self.nf_terms()
        return all(not any(m) for m in nf)

    def is_unit(self):
        return self.is_constant() and bool(self.nf_terms())

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (Polynomial, int, Fraction)):
            return self.ring.element(
                other, "polynomials from different rings")
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, engine.p_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, engine.p_sub(self.terms, other.terms))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, engine.p_sub(other.terms, self.terms))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, engine.p_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial(self.ring, engine.p_neg(self.terms))

    def __pow__(self, n):
        n = as_int(n, "an exponent")
        if n < 0:
            raise DivisorForgeError("negative polynomial power")
        if n == 0:
            return self.ring.one()
        return Polynomial(self.ring, engine.p_pow(self.terms, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Polynomial) or other.ring != self.ring:
            return NotImplemented
        return self.nf_terms() == other.nf_terms()

    def __hash__(self):
        return hash((self.ring, engine.canonical(self.nf_terms(), self.ring.key)))

    # -- degrees -------------------------------------------------------------

    def multidegree(self):
        """Common multidegree of all terms of the normal form; None if mixed or zero."""
        nf = self.nf_terms()
        degs = {self.ring.grading.degree(m) for m in nf}
        if len(degs) != 1:
            return None
        return degs.pop()

    def total_degree(self):
        return engine.total_degree(self.nf_terms())

    def __repr__(self):
        return format_terms(self.nf_terms(), self.ring.names, self.ring.key)


class RingMap:
    """Ring homomorphism given by images of the source variables.

    Well-definedness (defining relations map to zero) is verified at
    construction.
    """

    def __init__(self, source, target, images):
        images = list(images)
        if len(images) != source.nvars:
            raise DivisorForgeError(
                "need %d images, got %d" % (source.nvars, len(images)))
        self.source = source
        self.target = target
        self.images = [target.element(f, "image not in target ring")
                       for f in images]
        for g in source.quotient_gb:
            if not self._apply_raw(g).is_zero():
                raise DivisorForgeError(
                    "map is not well defined: defining relation %s "
                    "does not map to zero"
                    % format_terms(g, source.names, source.key))

    def _apply_raw(self, terms):
        """The image of a term dict, each power of an image made once."""
        powers, out = {}, {}
        const = (0,) * self.target.nvars
        for m, c in terms.items():
            val = {const: engine.coefficient(c)}
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = engine.p_pow(self.images[i].terms, e)
                    val = engine.p_mul(val, powers[i, e])
            out = engine.p_add(out, val)
        return Polynomial(self.target, out)

    def __call__(self, f):
        if f.ring != self.source:
            raise RingMismatch("argument not in source ring")
        return self._apply_raw(f.terms).normal_form()

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, ring.variables())

    def __repr__(self):
        imgs = ", ".join(repr(f) for f in self.images)
        return "map(%r -> %r, {%s})" % (self.source, self.target, imgs)


# ---------------------------------------------------------------------------
# parsing and printing

def polynomial(ring, text):
    """Parse polynomial syntax (`+ - * / ^`, integer literals) in a ring."""
    node = parsing.parse_expression(text)
    return _eval_poly(node, ring)


def _eval_poly(node, ring):
    kind = node[0]
    if kind == "int":
        return ring.one() * node[1]
    if kind == "name":
        try:
            i = ring.names.index(node[1])
        except ValueError:
            raise DivisorForgeError(
                "unknown variable %r in %r" % (node[1], ring)) from None
        return ring.variable(i)
    if kind == "neg":
        return -_eval_poly(node[1], ring)
    if kind == "ops":
        x = _eval_poly(node[1], ring)
        for op, operand in node[2]:
            x = _apply_op(op, x, _eval_poly(operand, ring))
        return x
    raise DivisorForgeError("unsupported syntax in polynomial")


def _apply_op(op, x, y):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    # '^' and '/' take a rational constant
    c = y.nf_terms().get((0,) * y.ring.nvars, 0) \
        if y.is_constant() else None
    if op == "^":
        if c is None or c.denominator != 1:
            raise DivisorForgeError("exponent must be an integer")
        return x ** int(c)
    if c is None:
        raise DivisorForgeError("division only by nonzero rational constants")
    if not c:
        raise DivisorForgeError("division by zero")
    return x * engine.coeff_div(1, c)


def _format_mono(m, names):
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def format_terms(terms, names, key):
    """Print a term dict in decreasing monomial order."""
    if not terms:
        return "0"
    chunks = []
    for m in sorted(terms, key=key, reverse=True):
        c = terms[m]
        mono = _format_mono(m, names)
        if mono:
            if c == 1:
                body = mono
            elif c == -1:
                body = "-" + mono
            else:
                body = "%s*%s" % (c, mono)
        else:
            body = str(c)
        chunks.append(body)
    out = chunks[0]
    for body in chunks[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out
