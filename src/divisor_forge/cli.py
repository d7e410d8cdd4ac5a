"""Command line interface: a small script language and REPL over the API.

Statements::

    ring R = QQ[x,y,u,v] / (x*y - u*v) degrees [[1,1,1,1]];
    map f : R -> S = (a*b, b);
    use R;
    D = divisor{2: ideal(x,u), 3: ideal(x,v)};
    print 3*D + E;
    check isCartier(D, graded=true);

Exit codes: 0 success, 1 parse error or malformed command line, 2
mathematical error, 3 refusal (an `errors.Refusal`: incomplete
decomposition, or a factorization over a degree or coefficient cap).
"""

import argparse
import json
import sys
from fractions import Fraction
from math import comb, lcm
from operator import attrgetter

# `_FUNCTIONS` calls most of these imports by name.
from .checks import (
    CheckReport,
    is_cartier,
    is_linearly_equivalent,
    is_principal,
    is_q_cartier,
    is_snc,
    non_cartier_locus,
)
from .correspondence import (
    canonical_divisor,
    divisor_of_fractional_ideal,
    divisor_with_section,
    sheaf_of,
)
from .divisors import WeilDivisor
from .errors import DivisorForgeError, ParseError, Refusal, ScriptError
from .fractional import FractionalIdeal, reflexify
from .geometry import base_locus, map_to_projective_space, pullback
from .ideals import Ideal, symbolic_power
from .parsing import ExprParser, tokenize
from .ring import Grading, Polynomial, QuotientRing, RingMap


# ---------------------------------------------------------------------------
# script parsing

class ScriptParser(ExprParser):
    """Statement-level parser on top of the shared expression grammar."""

    def parse_script(self):
        statements = []
        while self.cur.kind != "eof":
            statements.append(self.statement())
        return statements

    def statement(self):
        tok = self.cur
        if tok.kind == "id" and tok.text == "ring":
            return self.ring_decl()
        if tok.kind == "id" and tok.text == "map":
            return self.map_decl()
        if tok.kind == "id" and tok.text == "use":
            self.i += 1
            name = self.expect("id").text
            self.expect("op", ";")
            return ("use", name, tok)
        if tok.kind == "id" and tok.text in ("print", "check"):
            self.i += 1
            node = self.expression()
            self.expect("op", ";")
            return (tok.text, node, tok)
        if self.named() is not None:
            node = self.expression()
            self.expect("op", ";")
            return ("bind", tok.text, node, tok)
        self.error("expected a statement")

    def ring_decl(self):
        tok = self.expect("id", "ring")
        name = self.expect("id").text
        self.expect("op", "=")
        self.expect("id", "QQ")
        variables = self.listed("[", lambda: self.expect("id").text, "]")
        relations = []
        if self.accept("op", "/"):
            relations = self.listed("(", self.expression, ")")
        degrees = None
        if self.cur.kind == "id" and self.cur.text == "degrees":
            self.i += 1
            degrees = self.listed(
                "[", lambda: self.listed("[", self.int_entry, "]"), "]")
        self.expect("op", ";")
        return ("ring", name, variables, relations, degrees, tok)

    def int_entry(self):
        sign = -1 if self.accept("op", "-") else 1
        return sign * self.integer()

    def map_decl(self):
        tok = self.expect("id", "map")
        name = self.expect("id").text
        self.expect("op", ":")
        source = self.expect("id").text
        self.expect("arrow")
        target = self.expect("id").text
        self.expect("op", "=")
        images = self.listed("(", self.expression, ")")
        self.expect("op", ";")
        return ("mapdecl", name, source, target, images, tok)


def parse_script(text):
    parser = ScriptParser(tokenize(text), text)
    return parser.parse_script()


# ---------------------------------------------------------------------------
# printing parsed scripts (the text parses back to the same tree, with
# parentheses only where the grammar needs them)

# How tightly a chain binds, by its operator; a sign binds like `^`, and
# any other node binds at 3.
_RANK = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 2}


def format_node(node, least=0):
    """node as text, in parentheses if it binds less tightly than least."""
    kind = node[0]
    rank = _RANK[node[2][0][0]] if kind == "ops" else 2 if kind == "neg" else 3
    if rank < least:
        return "(%s)" % format_node(node)
    if kind == "int":
        return str(node[1])
    if kind == "name":
        return node[1]
    if kind == "neg":
        return "-" + format_node(node[1], 2)
    if kind == "ops":
        # a chain's operands bind more tightly than it does, except that
        # `^` nests to the right, so an exponent may itself be a power
        out = format_node(node[1], rank + 1)
        for op, operand in node[2]:
            out += " %s %s" % (op, format_node(operand, min(rank + 1, 2)))
        return out
    if kind == "call":
        parts = [format_node(a) for a in node[2]]
        parts += ["%s=%s" % (k, format_node(v)) for k, v in node[3]]
        return "%s(%s)" % (node[1], ", ".join(parts))
    if kind == "table":
        entries = ", ".join(
            "%s: %s" % (format_node(c), format_node(e)) for c, e in node[1])
        return "divisor{%s}" % entries
    raise DivisorForgeError("cannot print node %r" % (node,))


def format_statement(stmt):
    kind = stmt[0]
    if kind == "ring":
        _, name, variables, relations, degrees, _ = stmt
        out = "ring %s = QQ[%s]" % (name, ",".join(variables))
        if relations:
            out += " / (%s)" % ", ".join(format_node(r) for r in relations)
        if degrees is not None:
            rows = ",".join(
                "[%s]" % ",".join(str(e) for e in row) for row in degrees)
            out += " degrees [%s]" % rows
        return out + ";"
    if kind == "mapdecl":
        _, name, source, target, images, _ = stmt
        return "map %s : %s -> %s = (%s);" % (
            name, source, target, ", ".join(format_node(i) for i in images))
    if kind == "use":
        return "use %s;" % stmt[1]
    if kind in ("print", "check"):
        return "%s %s;" % (kind, format_node(stmt[1]))
    if kind == "bind":
        return "%s = %s;" % (stmt[1], format_node(stmt[2]))
    raise DivisorForgeError("cannot print statement %r" % (stmt,))


def format_script(statements):
    return "\n".join(format_statement(s) for s in statements) + "\n"


# ---------------------------------------------------------------------------
# evaluation

def _element(value, ring, message):
    """`value` as a ring element for `ring`: a number is taken in `ring`, and
    a ring element must be in a ring with the same variables; otherwise a
    ScriptError with `message`."""
    if isinstance(value, (int, Fraction)):
        return ring.one() * value
    if isinstance(value, Polynomial) and value.ring.names == ring.names:
        return value
    raise ScriptError(message)


# Argument kinds of the function table: what each accepts, for messages,
# and the types it takes as they are.
_KINDS = {
    "any": ("any value", object),
    "divisor": ("a divisor", WeilDivisor),
    "sheaf": ("a fractional ideal", FractionalIdeal),
    "ideal": ("an ideal or a ring element", Ideal),
    "element": ("a ring element", Polynomial),
    "int": ("an integer", ()),
    "posint": ("a positive integer", ()),
    "bool": ("true or false", bool),
    "map": ("a ring map", RingMap),
    "ring": ("a ring", QuotientRing),
    "name": ("a name", str),
}


def _coerce(kind, value, what):
    """`value` as an argument of `kind`; `what` names it in the ScriptError
    raised when it is not one."""
    noun, types = _KINDS[kind]
    if isinstance(value, types):
        return value
    if kind == "ideal" and isinstance(value, Polynomial):
        return Ideal(value.ring, [value])
    if kind == "bool" and isinstance(value, CheckReport):
        return bool(value)
    if (kind in ("int", "posint") and isinstance(value, (int, Fraction))
            and not isinstance(value, bool) and value.denominator == 1
            and (kind == "int" or value > 0)):
        return int(value)
    raise ScriptError("%s must be %s" % (what, noun))


# a power of a number, or of a polynomial or ideal whose leading
# coefficient's power would have a numerator or denominator of more bits,
# is refused before it is computed
MAX_POWER_BITS = 2**20


def _bound_power(c, n):
    """Refuse c^n when its numerator or denominator could pass
    MAX_POWER_BITS bits."""
    size = max(abs(c.numerator), c.denominator)
    bits = abs(n) * size.bit_length()
    if size > 1 and bits > MAX_POWER_BITS:
        raise ScriptError("a power of up to %d bits exceeds the cap of %d bits"
                          % (bits, MAX_POWER_BITS))


# a power of a polynomial or ideal whose size could pass this many bits is
# refused before it is computed (see _bound_power_size).  A term count alone
# is not enough: (x+1)^4000 has 4,001 terms and a whole run binding it took
# 22 s.  Just under the cap, (x+y+1)^100 took about 3 s and (x+1)^1023 1.2 s
# (2 vCPUs).
MAX_POWER_SIZE = 2**20


def _bound_power_size(terms, nvars, n):
    """Refuse the n-th power of the ideal whose nonzero generators have the
    term dicts terms (of a polynomial when there is one) when a bound on
    its size, its number of terms times the bits of one coefficient, passes
    MAX_POWER_SIZE.

    The power is the list of the distinct products of n generators, at
    most C(n+m-1, m-1) of m generators.  A product has total degree at
    most n*d, so at most C(n*d+k, k) terms in k variables.  Its terms are
    products of n terms of the generators, so there are at most
    C(n+T-1, T-1) of them for T distinct terms in all, and at most t^n
    when no generator has more than t terms.  A generator is h/D with h
    integral and the sum of the absolute coefficients of h at most S, so a
    coefficient of a product has its numerator times denominator at most
    (S*D)^n, of at most n*ceil(log2(S*D)) + 1 bits."""
    m, t = len(terms), max(map(len, terms))
    scale = 1
    for p in terms:
        den = lcm(*(c.denominator for c in p.values()))
        scale = max(scale, den * sum(abs(c.numerator) * (den // c.denominator)
                                     for c in p.values()))
    if n > MAX_POWER_SIZE and (m > 1 or t > 1 or scale > 1):
        size = n + 1  # the bound below is at least this, past the cap
    else:
        d = max(sum(e) for p in terms for e in p)
        T = len({e for p in terms for e in p})
        size = comb(n + m - 1, n) * min(
            comb(n * d + nvars, nvars), comb(n + T - 1, n), t ** n) * (
                n * (scale - 1).bit_length() + 1)
    if size > MAX_POWER_SIZE:
        raise ScriptError("a power of up to %d bits exceeds the cap of %d "
                          "bits" % (size, MAX_POWER_SIZE))


# symbolicPower(I, n) above this n is refused before it is computed.  Whole
# runs printing symbolicPower(ideal(x,u), n) on QQ[x,y,u,v]/(x*y - u*v) took
# 1.8 s at n = 50, 6.7 s at n = 75 and 67 s at n = 200 (2 vCPUs).
MAX_SYMBOLIC_POWER = 50


class Session:
    """Named bindings plus the graded default, and the evaluation of
    expressions over them; bindings replace, never mutate."""

    def __init__(self, graded=False):
        self.bindings = {}
        self.current_ring = None
        self.graded = graded
        self.counter = 0

    # -- name resolution ----------------------------------------------------

    def lookup(self, name):
        if name in self.bindings:
            return self.bindings[name]
        if name == "true":
            return True
        if name == "false":
            return False
        ring = self.current_ring
        if ring is not None and name in ring.names:
            return ring.variable(ring.names.index(name))
        raise ScriptError("unbound identifier %r" % name)

    def need_ring(self):
        ring = self.current_ring
        if ring is None:
            raise ScriptError("no current ring; declare one with `ring`")
        return ring

    # -- expressions --------------------------------------------------------

    def eval(self, node, ring=None):
        kind = node[0]
        if kind == "int":
            return node[1]
        if kind == "name":
            if ring is not None and node[1] in ring.names:
                return ring.variable(ring.names.index(node[1]))
            return self.lookup(node[1])
        if kind == "neg":
            return self._neg(self.eval(node[1], ring))
        if kind == "ops":
            value = self.eval(node[1], ring)
            for op, operand in node[2]:
                value = self._binop(op, value, self.eval(operand, ring))
            return value
        if kind == "call":
            return self.call(node[1], node[2], node[3], ring)
        if kind == "table":
            return self._divisor_table(node[1], ring)
        raise ScriptError("cannot evaluate %r" % (node,))

    def _neg(self, a):
        if isinstance(a, (int, Fraction, Polynomial, WeilDivisor)):
            return -a
        raise ScriptError("cannot negate %r" % (a,))

    def _binop(self, op, a, b):
        try:
            if op == "+":
                return a + b
            if op == "-":
                return a + self._neg(b)
            if op == "*":
                return self._mul(a, b)
            if op == "/":
                return self._div(a, b)
            if op == "^":
                return self._pow(a, b)
        except (TypeError, ZeroDivisionError) as exc:
            raise ScriptError(str(exc)) from exc
        raise ScriptError("unknown operator %r" % op)

    def _mul(self, a, b):
        if isinstance(a, FractionalIdeal) and isinstance(b, FractionalIdeal):
            return a.product(b)
        if isinstance(a, Ideal) and isinstance(b, Polynomial):
            return a * Ideal(b.ring, [b])
        if isinstance(a, Polynomial) and isinstance(b, Ideal):
            return Ideal(a.ring, [a]) * b
        return a * b

    def _div(self, a, b):
        if isinstance(a, (int, Fraction, Polynomial, WeilDivisor)) and \
                isinstance(b, (int, Fraction)):
            if not b:
                raise ScriptError("division by zero")
            return a * (Fraction(1) / Fraction(b))
        raise ScriptError("unsupported division")

    def _pow(self, a, b):
        n = _coerce("int", b, "an exponent")
        if isinstance(a, FractionalIdeal):
            return a.power(n)
        if isinstance(a, (Ideal, Polynomial)):
            if n < 0:
                raise ScriptError("negative power of an ideal element")
            gens = a.gens if isinstance(a, Ideal) else (a,)
            # lc(g)^n is a coefficient of g^n under the ring order, and g^n
            # is a stored generator of the n-th power of an ideal with g
            for g in gens:
                if g.terms:
                    _bound_power(g.terms[max(g.terms, key=g.ring.key)], n)
            terms = [g.terms for g in gens if g.terms]
            if terms:
                _bound_power_size(terms, gens[0].ring.nvars, n)
            return a ** n
        if isinstance(a, (int, Fraction)):
            if n < 0 and a == 0:
                raise ScriptError("division by zero")
            _bound_power(a, n)
            return Fraction(a) ** n if n < 0 else a ** n
        raise ScriptError("cannot raise %r to a power" % (a,))

    # -- divisor table -------------------------------------------------------

    def _divisor_table(self, entries, ring):
        coeffs, primes = [], []
        for cnode, enode in entries:
            c = self.eval(cnode, ring)
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise ScriptError("divisor coefficient must be a number")
            coeffs.append(c)
            primes.append(_coerce("ideal", self.eval(enode, ring),
                                  "a divisor table entry"))
        return WeilDivisor.from_primes(coeffs, primes)

    # -- calls ---------------------------------------------------------------

    def call(self, name, arg_nodes, kw_nodes, ring=None):
        """Check a call against its `_FUNCTIONS` entry, then make it."""
        if name not in _FUNCTIONS:
            raise ScriptError("unknown function %r" % name)
        kinds, keywords, target = _FUNCTIONS[name]
        if not kinds[-1].endswith("*"):
            least = sum(not k.endswith("?") for k in kinds)
            if not least <= len(arg_nodes) <= len(kinds):
                count = "%d or %d" % (least, len(kinds)) \
                    if least < len(kinds) else str(least)
                raise ScriptError("%s() takes %s argument%s (%d given)" % (
                    name, count, "" if count == "1" else "s", len(arg_nodes)))
        kwargs = {"graded": self.graded} if "graded" in keywords \
            else {}
        seen = set()
        for key, vnode in kw_nodes:
            if key not in keywords:
                raise ScriptError("%s() takes no keyword %r" % (name, key))
            if key in seen:
                raise ScriptError("%s() got keyword %r twice" % (name, key))
            seen.add(key)
            kind = _KEYWORDS[key]
            value = vnode[1] if kind == "name" and vnode[0] == "name" \
                else self.eval(vnode, ring)
            kwargs[key] = _coerce(kind, value, "%s() keyword %s" % (name, key))
        args = [self.eval(a, ring) for a in arg_nodes]
        if kinds == ("element*",):
            owner = next((a.ring for a in args if isinstance(a, Polynomial)),
                         None) or self.need_ring()
            args = [owner, [_element(a, owner, "%s() takes elements of one "
                                     "ring" % name) for a in args]]
        else:
            if len(args) < len(kinds) and kinds[len(args)] == "ring?":
                args.append(self.need_ring())
            args = [_coerce(k.rstrip("?"), a, "%s() argument %d" % (name, i))
                    for i, (k, a) in enumerate(zip(kinds, args), 1)]
        return attrgetter(target)(sys.modules[__name__])(*args, **kwargs)


# function table --------------------------------------------------------------

def _divisor(target, *, graded, section=None):
    if isinstance(target, FractionalIdeal):
        if section is not None:
            return divisor_with_section(target, section)
        return divisor_of_fractional_ideal(target, graded=graded)
    if section is not None:
        raise ScriptError("divisor() takes section= only with a sheaf")
    if isinstance(target, Polynomial):
        return WeilDivisor.of_element(target)
    if isinstance(target, Ideal):
        return WeilDivisor.of_ideal(target)
    raise ScriptError("divisor() takes an element, ideal or sheaf")


def _divisor_of(F, flag=None, *, graded):
    """A positional flag overrides the graded keyword."""
    return divisor_of_fractional_ideal(
        F, graded=graded if flag is None else flag)


def _symbolic_power(I, n):
    if n > MAX_SYMBOLIC_POWER:
        raise ScriptError("symbolicPower() of order %d exceeds the cap of %d"
                          % (n, MAX_SYMBOLIC_POWER))
    return symbolic_power(I, n)


def _reflexify(target):
    if isinstance(target, FractionalIdeal):
        return target.reflexive_hull()
    return reflexify(_coerce("ideal", target, "reflexify() argument 1"))


# Keyword kinds; `graded` defaults to the session's flag when a script
# leaves it out, and a `strategy` is a bare name such as `sheaves`.
_KEYWORDS = {"graded": "bool", "section": "element", "strategy": "name"}

# name: (positional argument kinds, keywords, callable).  A kind ending in
# "?" may be left out, and a missing ring is the current ring.  "element*"
# takes any number of ring elements and passes their ring and their list;
# numbers go into the ring of the first element, else the current ring.
# The callable is named, not referenced, and looked up in this module at
# each call, so a wrapper bound over the name later (a tracer's span, a
# test's stub) is the one called.
_FUNCTIONS = {
    "ideal": (("element*",), (), "Ideal"),
    "divisor": (("any",), ("graded", "section"), "_divisor"),
    "OO": (("divisor",), (), "sheaf_of"),
    "divisorOf": (("sheaf", "bool?"), ("graded",), "_divisor_of"),
    "reflexify": (("any",), (), "_reflexify"),
    "pullback": (("map", "divisor"), ("strategy",), "pullback"),
    "mapToProjectiveSpace": (("divisor",), (), "map_to_projective_space"),
    "baseLocus": (("divisor",), (), "base_locus"),
    "canonicalDivisor": (("ring?",), (), "canonical_divisor"),
    "floor": (("divisor",), (), "WeilDivisor.floor"),
    "ceiling": (("divisor",), (), "WeilDivisor.ceiling"),
    "toWeil": (("divisor",), (), "WeilDivisor.to_integer_tier"),
    "toQWeil": (("divisor",), (), "WeilDivisor.to_rational_tier"),
    "isCartier": (("divisor",), ("graded",), "is_cartier"),
    "nonCartierLocus": (("divisor",), ("graded",), "non_cartier_locus"),
    "isQCartier": (("posint", "divisor"), (), "is_q_cartier"),
    "isPrincipal": (("divisor",), ("graded",), "is_principal"),
    "isLinearEquivalent": (("divisor", "divisor"), ("graded",),
                           "is_linearly_equivalent"),
    "isSNC": (("divisor",), ("graded",), "is_snc"),
    "symbolicPower": (("ideal", "posint"), (), "_symbolic_power"),
    "isEffective": (("divisor",), (), "WeilDivisor.is_effective"),
    "isIntegral": (("divisor",), (), "WeilDivisor.is_integral"),
}


# ---------------------------------------------------------------------------
# execution

def _value_to_json(value):
    if isinstance(value, bool):
        return {"type": "bool", "value": value}
    if isinstance(value, (int, Fraction)):
        return {"type": "number", "value": str(value)}
    if isinstance(value, WeilDivisor):
        return {"type": "divisor", "value": value.to_json()}
    if isinstance(value, Ideal):
        return {"type": "ideal",
                "value": {"gens": [repr(g) for g in value.minimal_gens()]}}
    if isinstance(value, FractionalIdeal):
        return {
            "type": "fractionalIdeal",
            "value": {
                "denominator": repr(value.denominator),
                "numerator": [repr(g) for g in value.numerator.minimal_gens()],
            },
        }
    if isinstance(value, CheckReport):
        return {"type": "check", "value": value.to_json()}
    if isinstance(value, RingMap):
        return {
            "type": "ringMap",
            "value": {
                "source": repr(value.source),
                "target": repr(value.target),
                "images": [repr(f) for f in value.images],
            },
        }
    if isinstance(value, QuotientRing):
        return {"type": "ring", "value": repr(value)}
    if isinstance(value, Polynomial):
        return {"type": "element", "value": repr(value)}
    return {"type": "other", "value": repr(value)}


def _located(exc, text, line, column):
    """exc, met in the statement at line:column of text, with that location.

    A library error keeps its type.  CPython's cap on int -> str conversion,
    met in printing a result or in formatting an error message, becomes a
    ScriptError; any other ValueError is returned unchanged."""
    if isinstance(exc, ValueError):
        if "integer string conversion" not in str(exc):
            return exc
        exc = ScriptError("cannot print a number of more than %d digits"
                          % sys.get_int_max_str_digits())
    return exc.locate(text, line, column)


def execute_script(statements, session, text=""):
    """Run parsed statements; returns one output record per print/check.

    An error gets the location of its statement (see _located)."""
    outputs = []
    for stmt in statements:
        kind, tok = stmt[0], stmt[-1]
        try:
            if kind == "ring":
                _, name, variables, relations, degrees, _ = stmt
                grading = Grading(degrees) if degrees else None
                probe = QuotientRing(tuple(variables), (), grading)
                rels = [_element(session.eval(r, probe), probe,
                                 "relation must be a polynomial").terms
                        for r in relations]
                ring = QuotientRing(tuple(variables), tuple(rels), grading)
                session.bindings[name] = ring
                session.current_ring = ring
            elif kind == "mapdecl":
                _, name, src_name, tgt_name, image_nodes, _ = stmt
                source = session.bindings.get(src_name)
                target = session.bindings.get(tgt_name)
                if not isinstance(source, QuotientRing) or not isinstance(
                        target, QuotientRing):
                    raise ScriptError("map endpoints must be declared rings")
                images = [_element(session.eval(node, target), target,
                                   "map images must lie in the target ring")
                          for node in image_nodes]
                session.bindings[name] = RingMap(source, target, images)
            elif kind == "use":
                ring = session.bindings.get(stmt[1])
                if not isinstance(ring, QuotientRing):
                    raise ScriptError("%r is not a ring" % stmt[1])
                session.current_ring = ring
            elif kind == "bind":
                session.bindings[stmt[1]] = session.eval(stmt[2])
            else:  # print or check
                value = session.eval(stmt[1])
                session.counter += 1
                if kind == "check" and not isinstance(
                        value, (CheckReport, bool)):
                    raise ScriptError("check expects a predicate result")
                outputs.append({
                    "index": session.counter,
                    "kind": kind,
                    "line": tok.line,
                    "column": tok.column,
                    "result": value,
                })
        except (DivisorForgeError, ValueError) as exc:
            raise _located(exc, text, tok.line, tok.column)
    return outputs


def _render(o, json_mode):
    """One output record as a JSON object or a line of text."""
    value = o["result"]
    if json_mode:
        return {"index": o["index"], "kind": o["kind"], "line": o["line"],
                **_value_to_json(value)}
    if isinstance(value, bool):
        shown = "true" if value else "false"
    elif isinstance(value, (int, Fraction)):
        shown = str(value)
    else:
        shown = repr(value)
    return "o%d = %s" % (o["index"], shown)


def render_outputs(outputs, json_mode=False, text=""):
    """The outputs as text or JSON; text is the script they came from, for
    the excerpt of an output that cannot be printed."""
    rendered = []
    for o in outputs:
        try:
            rendered.append(_render(o, json_mode))
        except ValueError as exc:
            raise _located(exc, text, o["line"], o["column"])
    if json_mode:
        return json.dumps({"outputs": rendered}, indent=2,
                          sort_keys=True) + "\n"
    return "".join(line + "\n" for line in rendered)


# ---------------------------------------------------------------------------
# entry points

def _exit_code(exc):
    """1 for a parse error, 3 for a refusal, 2 for any other error."""
    if isinstance(exc, ParseError):
        return 1
    if isinstance(exc, Refusal):
        return 3
    return 2


def _fail(exc, err):
    """Print `exc` to `err` and return its exit code."""
    code = _exit_code(exc)
    print("%s: %s" % ("parse error" if code == 1 else "error", exc), file=err)
    return code


def _run(text, session, json_mode, out, err):
    """Parse, execute and render text in session, and write the output only
    if all three succeed; returns the exit code."""
    try:
        rendered = render_outputs(
            execute_script(parse_script(text), session, text), json_mode,
            text)
    except DivisorForgeError as exc:
        return _fail(exc, err)
    out.write(rendered)
    return 0


def run_text(text, json_mode=False, graded=False, out=None, err=None):
    """Run a script; a stream left None (here and in repl) is the sys one
    at the call, so a redirect made after import is honoured."""
    return _run(text, Session(graded=graded), json_mode, out or sys.stdout,
                err or sys.stderr)


def repl(json_mode=False, graded=False, stdin=None, out=None, err=None):
    stdin, out, err = stdin or sys.stdin, out or sys.stdout, err or sys.stderr
    session = Session(graded=graded)
    buffer = ""
    out.write("divisor-forge repl; end statements with ';', exit with "
              "Ctrl-D or 'quit;'\n")
    for line in stdin:
        buffer += line
        if ";" not in line:
            continue
        chunk, buffer = buffer, ""
        if chunk.strip() in ("quit;", "exit;"):
            break
        _run(chunk, session, json_mode, out, err)
    return 0


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument("--graded", action="store_true",
                        help="default the graded flag to true")
    parser = argparse.ArgumentParser(
        prog="divisor-forge",
        description="exact divisor calculus on normal varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", parents=[common],
                          help="execute a script file")
    runp.add_argument("script", help="path to a script file, or - for stdin")
    sub.add_parser("repl", parents=[common], help="interactive session")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 1 if exc.code else 0
    if args.command == "repl":
        return repl(json_mode=args.json, graded=args.graded)
    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return run_text(text, json_mode=args.json, graded=args.graded)


if __name__ == "__main__":
    sys.exit(main())
