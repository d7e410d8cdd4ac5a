"""Command line interface: a small script language and REPL over the API.

Statements::

    ring R = QQ[x,y,u,v] / (x*y - u*v) degrees [[1,1,1,1]];
    map f : R -> S = (a*b, b);
    use R;
    D = divisor{2: ideal(x,u), 3: ideal(x,v)};
    print 3*D + E;
    check isCartier(D, graded=true);

Exit codes: 0 success, 1 parse error, 2 mathematical error, 3 incomplete
decomposition.
"""

import argparse
import json
import sys
from fractions import Fraction

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
from .errors import (
    DecompositionIncomplete,
    DivisorForgeError,
    ParseError,
    ScriptError,
)
from .fractional import FractionalIdeal, reflexify
from .geometry import base_locus, map_to_projective_space, pullback
from .ideals import Ideal, symbolic_power
from .parsing import ExprParser, caret_excerpt, tokenize
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
        if (
            tok.kind == "id"
            and self.tokens[self.i + 1].kind == "op"
            and self.tokens[self.i + 1].text == "="
        ):
            self.i += 2
            node = self.expression()
            self.expect("op", ";")
            return ("bind", tok.text, node, tok)
        self.error("expected a statement")

    def ring_decl(self):
        tok = self.expect("id", "ring")
        name = self.expect("id").text
        self.expect("op", "=")
        self.expect("id", "QQ")
        self.expect("op", "[")
        variables = [self.expect("id").text]
        while self.accept("op", ","):
            variables.append(self.expect("id").text)
        self.expect("op", "]")
        relations = []
        if self.accept("op", "/"):
            self.expect("op", "(")
            relations.append(self.expression())
            while self.accept("op", ","):
                relations.append(self.expression())
            self.expect("op", ")")
        degrees = None
        if self.cur.kind == "id" and self.cur.text == "degrees":
            self.i += 1
            degrees = self.int_matrix()
        self.expect("op", ";")
        return ("ring", name, variables, relations, degrees, tok)

    def int_matrix(self):
        self.expect("op", "[")
        rows = [self.int_row()]
        while self.accept("op", ","):
            rows.append(self.int_row())
        self.expect("op", "]")
        return rows

    def int_row(self):
        self.expect("op", "[")
        row = [self.int_entry()]
        while self.accept("op", ","):
            row.append(self.int_entry())
        self.expect("op", "]")
        return row

    def int_entry(self):
        sign = -1 if self.accept("op", "-") else 1
        return sign * int(self.expect("int").text)

    def map_decl(self):
        tok = self.expect("id", "map")
        name = self.expect("id").text
        self.expect("op", ":")
        source = self.expect("id").text
        self.expect("arrow")
        target = self.expect("id").text
        self.expect("op", "=")
        self.expect("op", "(")
        images = [self.expression()]
        while self.accept("op", ","):
            images.append(self.expression())
        self.expect("op", ")")
        self.expect("op", ";")
        return ("mapdecl", name, source, target, images, tok)


def parse_script(text):
    parser = ScriptParser(tokenize(text), text)
    return parser.parse_script()


# ---------------------------------------------------------------------------
# printing parsed scripts (round-trip stable: fully parenthesized)

def format_node(node):
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "name":
        return node[1]
    if kind == "neg":
        return "(-%s)" % format_node(node[1])
    if kind == "binop":
        return "(%s %s %s)" % (format_node(node[2]), node[1],
                               format_node(node[3]))
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

class Session:
    """Named bindings plus output options; bindings replace, never mutate."""

    def __init__(self, json_mode=False, graded=False):
        self.bindings = {}
        self.current_ring = None
        self.json_mode = json_mode
        self.graded = graded
        self.counter = 0


def _script_error(msg, tok, text=""):
    return ScriptError(msg, tok.line, tok.column,
                       caret_excerpt(text, tok.line, tok.column))


def _as_bool(value, tok):
    if isinstance(value, bool):
        return value
    if isinstance(value, CheckReport):
        return bool(value)
    raise _script_error("expected true or false, got %r" % (value,), tok)


def _as_int(value, tok):
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise _script_error("expected an integer, got %r" % (value,), tok)
    value = Fraction(value)
    if value.denominator != 1:
        raise _script_error("expected an integer, got %r" % (value,), tok)
    return int(value)


def _as_divisor(value, tok):
    if not isinstance(value, WeilDivisor):
        raise _script_error("expected a divisor, got %r" % (value,), tok)
    return value


def _as_ideal(value, tok):
    if isinstance(value, Polynomial):
        return Ideal(value.ring, [value])
    if not isinstance(value, Ideal):
        raise _script_error("expected an ideal, got %r" % (value,), tok)
    return value


class Evaluator:
    def __init__(self, session, text=""):
        self.session = session
        self.text = text

    # -- name resolution ----------------------------------------------------

    def lookup(self, name, tok):
        if name in self.session.bindings:
            return self.session.bindings[name]
        if name == "true":
            return True
        if name == "false":
            return False
        ring = self.session.current_ring
        if ring is not None and name in ring.names:
            return ring.variable(ring.names.index(name))
        raise _script_error("unbound identifier %r" % name, tok, self.text)

    def need_ring(self, tok):
        ring = self.session.current_ring
        if ring is None:
            raise _script_error("no current ring; declare one with `ring`",
                                tok, self.text)
        return ring

    # -- expressions --------------------------------------------------------

    def eval(self, node, tok, ring=None):
        kind = node[0]
        if kind == "int":
            return node[1]
        if kind == "name":
            if ring is not None and node[1] in ring.names:
                return ring.variable(ring.names.index(node[1]))
            return self.lookup(node[1], tok)
        if kind == "neg":
            return self._neg(self.eval(node[1], tok, ring), tok)
        if kind == "binop":
            op = node[1]
            a = self.eval(node[2], tok, ring)
            b = self.eval(node[3], tok, ring)
            return self._binop(op, a, b, tok)
        if kind == "call":
            return self.call(node[1], node[2], node[3], tok, ring)
        if kind == "table":
            return self._divisor_table(node[1], tok, ring)
        raise _script_error("cannot evaluate %r" % (node,), tok, self.text)

    def _neg(self, a, tok):
        if isinstance(a, (int, Fraction, Polynomial, WeilDivisor)):
            return -a
        raise _script_error("cannot negate %r" % (a,), tok, self.text)

    def _binop(self, op, a, b, tok):
        try:
            if op == "+":
                return a + b
            if op == "-":
                return a + self._neg(b, tok)
            if op == "*":
                return self._mul(a, b)
            if op == "/":
                return self._div(a, b, tok)
            if op == "^":
                return self._pow(a, b, tok)
        except (TypeError, ZeroDivisionError) as exc:
            raise _script_error(str(exc), tok, self.text) from exc
        raise _script_error("unknown operator %r" % op, tok, self.text)

    def _mul(self, a, b):
        if isinstance(a, (int, Fraction)) and isinstance(b, WeilDivisor):
            return b.scale(a) if isinstance(a, int) else b.scale(Fraction(a))
        if isinstance(b, (int, Fraction)) and isinstance(a, WeilDivisor):
            return a.scale(b) if isinstance(b, int) else a.scale(Fraction(b))
        if isinstance(a, FractionalIdeal) and isinstance(b, FractionalIdeal):
            return a.product(b)
        if isinstance(a, Ideal) and isinstance(b, Polynomial):
            return a * Ideal(b.ring, [b])
        if isinstance(a, Polynomial) and isinstance(b, Ideal):
            return Ideal(a.ring, [a]) * b
        return a * b

    def _div(self, a, b, tok):
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            if not b:
                raise _script_error("division by zero", tok, self.text)
            return Fraction(a) / Fraction(b)
        if isinstance(a, (Polynomial, WeilDivisor)) and isinstance(
                b, (int, Fraction)):
            if not b:
                raise _script_error("division by zero", tok, self.text)
            return self._mul(Fraction(1, 1) / Fraction(b), a) \
                if isinstance(a, WeilDivisor) else a * (Fraction(1) / Fraction(b))
        raise _script_error("unsupported division", tok, self.text)

    def _pow(self, a, b, tok):
        n = _as_int(b, tok)
        if isinstance(a, FractionalIdeal):
            return a.power(n)
        if isinstance(a, (Ideal, Polynomial)):
            if n < 0:
                raise _script_error("negative power of an ideal element",
                                    tok, self.text)
            return a ** n
        if isinstance(a, (int, Fraction)):
            return Fraction(a) ** n if n < 0 else a ** n
        raise _script_error("cannot raise %r to a power" % (a,), tok, self.text)

    # -- divisor table -------------------------------------------------------

    def _divisor_table(self, entries, tok, ring):
        coeffs, primes = [], []
        rational = False
        for cnode, enode in entries:
            c = self.eval(cnode, tok, ring)
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise _script_error("divisor coefficient must be a number",
                                    tok, self.text)
            if isinstance(c, Fraction) and c.denominator != 1:
                rational = True
            coeffs.append(Fraction(c))
            primes.append(_as_ideal(self.eval(enode, tok, ring), tok))
        return WeilDivisor.from_primes(coeffs, primes, rational=rational)

    # -- calls ---------------------------------------------------------------

    def call(self, name, arg_nodes, kw_nodes, tok, ring=None):
        kwargs = {}
        for key, vnode in kw_nodes:
            if key in ("strategy",) and vnode[0] == "name":
                kwargs[key] = vnode[1]
            else:
                kwargs[key] = self.eval(vnode, tok, ring)
        args = [self.eval(a, tok, ring) for a in arg_nodes]
        fn = _FUNCTIONS.get(name)
        if fn is None:
            raise _script_error("unknown function %r" % name, tok, self.text)
        try:
            return fn(self, args, kwargs, tok)
        except (ScriptError, DecompositionIncomplete):
            raise
        except DivisorForgeError as exc:
            raise _script_error(str(exc), tok, self.text) from exc

    def graded_flag(self, kwargs, tok):
        if "graded" in kwargs:
            return _as_bool(kwargs["graded"], tok)
        return self.session.graded


# function registry -----------------------------------------------------------

def _fn_ideal(ev, args, kwargs, tok):
    gens = []
    ring = None
    for a in args:
        if isinstance(a, (int, Fraction)):
            ring = ring or ev.need_ring(tok)
            a = ring.one() * a
        if not isinstance(a, Polynomial):
            raise _script_error("ideal() takes ring elements", tok, ev.text)
        ring = ring or a.ring
        gens.append(a)
    ring = ring or ev.need_ring(tok)
    return Ideal(ring, gens)


def _fn_divisor(ev, args, kwargs, tok):
    if not args:
        raise _script_error("divisor() needs an argument", tok, ev.text)
    target = args[0]
    if isinstance(target, FractionalIdeal):
        if "section" in kwargs:
            num = kwargs["section"]
            if not isinstance(num, Polynomial):
                raise _script_error("section must be a ring element", tok,
                                    ev.text)
            return divisor_with_section(target, num).divisor
        return divisor_of_fractional_ideal(
            target, graded=ev.graded_flag(kwargs, tok))
    if isinstance(target, Polynomial):
        return WeilDivisor.of_element(target)
    if isinstance(target, Ideal):
        return WeilDivisor.of_ideal(target)
    raise _script_error("divisor() takes an element, ideal or sheaf", tok,
                        ev.text)


def _fn_oo(ev, args, kwargs, tok):
    (D,) = args
    return sheaf_of(_as_divisor(D, tok))


def _fn_divisor_of(ev, args, kwargs, tok):
    F = args[0]
    if not isinstance(F, FractionalIdeal):
        raise _script_error("divisorOf() takes a fractional ideal", tok,
                            ev.text)
    graded = ev.graded_flag(kwargs, tok)
    if len(args) > 1:
        graded = _as_bool(args[1], tok)
    return divisor_of_fractional_ideal(F, graded=graded)


def _fn_reflexify(ev, args, kwargs, tok):
    target = args[0]
    if isinstance(target, FractionalIdeal):
        return target.reflexive_hull()
    return reflexify(_as_ideal(target, tok))


def _fn_pullback(ev, args, kwargs, tok):
    phi, D = args[0], _as_divisor(args[1], tok)
    if not isinstance(phi, RingMap):
        raise _script_error("pullback() needs a ring map", tok, ev.text)
    strategy = kwargs.get("strategy", "primes")
    return pullback(phi, D, strategy=strategy)


def _fn_map_to_projective_space(ev, args, kwargs, tok):
    return map_to_projective_space(_as_divisor(args[0], tok))


def _fn_base_locus(ev, args, kwargs, tok):
    return base_locus(_as_divisor(args[0], tok))


def _fn_canonical_divisor(ev, args, kwargs, tok):
    ring = args[0] if args else ev.need_ring(tok)
    if not isinstance(ring, QuotientRing):
        raise _script_error("canonicalDivisor() takes a ring", tok, ev.text)
    return canonical_divisor(ring)


def _fn_floor(ev, args, kwargs, tok):
    return _as_divisor(args[0], tok).floor()


def _fn_ceiling(ev, args, kwargs, tok):
    return _as_divisor(args[0], tok).ceiling()


def _fn_to_weil(ev, args, kwargs, tok):
    return _as_divisor(args[0], tok).to_integer_tier()


def _fn_to_q_weil(ev, args, kwargs, tok):
    return _as_divisor(args[0], tok).to_rational_tier()


def _fn_is_cartier(ev, args, kwargs, tok):
    return is_cartier(_as_divisor(args[0], tok),
                      graded=ev.graded_flag(kwargs, tok))


def _fn_non_cartier_locus(ev, args, kwargs, tok):
    return non_cartier_locus(_as_divisor(args[0], tok),
                             graded=ev.graded_flag(kwargs, tok))


def _fn_is_q_cartier(ev, args, kwargs, tok):
    bound = _as_int(args[0], tok)
    return is_q_cartier(bound, _as_divisor(args[1], tok))


def _fn_is_principal(ev, args, kwargs, tok):
    return is_principal(_as_divisor(args[0], tok),
                        graded=ev.graded_flag(kwargs, tok))


def _fn_is_linearly_equivalent(ev, args, kwargs, tok):
    return is_linearly_equivalent(
        _as_divisor(args[0], tok), _as_divisor(args[1], tok),
        graded=ev.graded_flag(kwargs, tok))


def _fn_is_snc(ev, args, kwargs, tok):
    return is_snc(_as_divisor(args[0], tok),
                  graded=ev.graded_flag(kwargs, tok))


def _fn_symbolic_power(ev, args, kwargs, tok):
    return symbolic_power(_as_ideal(args[0], tok), _as_int(args[1], tok))


def _fn_is_effective(ev, args, kwargs, tok):
    return _as_divisor(args[0], tok).is_effective()


def _fn_is_integral(ev, args, kwargs, tok):
    return _as_divisor(args[0], tok).is_integral()


_FUNCTIONS = {
    "ideal": _fn_ideal,
    "divisor": _fn_divisor,
    "OO": _fn_oo,
    "divisorOf": _fn_divisor_of,
    "reflexify": _fn_reflexify,
    "pullback": _fn_pullback,
    "mapToProjectiveSpace": _fn_map_to_projective_space,
    "baseLocus": _fn_base_locus,
    "canonicalDivisor": _fn_canonical_divisor,
    "floor": _fn_floor,
    "ceiling": _fn_ceiling,
    "toWeil": _fn_to_weil,
    "toQWeil": _fn_to_q_weil,
    "isCartier": _fn_is_cartier,
    "nonCartierLocus": _fn_non_cartier_locus,
    "isQCartier": _fn_is_q_cartier,
    "isPrincipal": _fn_is_principal,
    "isLinearEquivalent": _fn_is_linearly_equivalent,
    "isSNC": _fn_is_snc,
    "symbolicPower": _fn_symbolic_power,
    "isEffective": _fn_is_effective,
    "isIntegral": _fn_is_integral,
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
                "value": {"gens": [repr(g) for g in value.minimal_gens()]
                          or ["0"]}}
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
        return {"type": "element", "value": repr(value.normal_form())}
    return {"type": "other", "value": repr(value)}


def execute_script(statements, session, text=""):
    """Run parsed statements; returns one output record per print/check."""
    outputs = []
    ev = Evaluator(session, text)
    for stmt in statements:
        kind = stmt[0]
        if kind == "ring":
            _, name, variables, relations, degrees, tok = stmt
            grading = Grading(degrees) if degrees else None
            probe = QuotientRing(tuple(variables), (), grading)
            rels = []
            for rnode in relations:
                val = ev.eval(rnode, tok, probe)
                if isinstance(val, (int, Fraction)):
                    val = probe.one() * val
                if not isinstance(val, Polynomial):
                    raise _script_error("relation must be a polynomial", tok,
                                        text)
                rels.append(val.terms)
            ring = QuotientRing(tuple(variables), tuple(rels), grading)
            session.bindings[name] = ring
            session.current_ring = ring
        elif kind == "mapdecl":
            _, name, src_name, tgt_name, image_nodes, tok = stmt
            source = session.bindings.get(src_name)
            target = session.bindings.get(tgt_name)
            if not isinstance(source, QuotientRing) or not isinstance(
                    target, QuotientRing):
                raise _script_error(
                    "map endpoints must be declared rings", tok, text)
            images = []
            for node in image_nodes:
                val = ev.eval(node, tok, target)
                if isinstance(val, (int, Fraction)):
                    val = target.one() * val
                if not isinstance(val, Polynomial) or val.ring != target:
                    raise _script_error(
                        "map images must lie in the target ring", tok, text)
                images.append(val)
            try:
                session.bindings[name] = RingMap(source, target, images)
            except DivisorForgeError as exc:
                raise _script_error(str(exc), tok, text) from exc
        elif kind == "use":
            _, name, tok = stmt
            ring = session.bindings.get(name)
            if not isinstance(ring, QuotientRing):
                raise _script_error("%r is not a ring" % name, tok, text)
            session.current_ring = ring
        elif kind == "bind":
            _, name, node, tok = stmt
            session.bindings[name] = ev.eval(node, tok)
        elif kind in ("print", "check"):
            _, node, tok = stmt
            value = ev.eval(node, tok)
            session.counter += 1
            if kind == "check" and not isinstance(
                    value, (CheckReport, bool)):
                raise _script_error(
                    "check expects a predicate result", tok, text)
            outputs.append({
                "index": session.counter,
                "kind": kind,
                "line": tok.line,
                "result": value,
            })
        else:  # pragma: no cover - parser emits only the kinds above
            raise _script_error("unknown statement %r" % (kind,), stmt[-1],
                                text)
    return outputs


def render_outputs(outputs, json_mode=False):
    if json_mode:
        doc = {
            "outputs": [
                {
                    "index": o["index"],
                    "kind": o["kind"],
                    "line": o["line"],
                    **_value_to_json(o["result"]),
                }
                for o in outputs
            ]
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = []
    for o in outputs:
        value = o["result"]
        if isinstance(value, bool):
            shown = "true" if value else "false"
        else:
            shown = repr(value)
        lines.append("o%d = %s" % (o["index"], shown))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# entry points

def run_text(text, json_mode=False, graded=False, out=sys.stdout,
             err=sys.stderr):
    try:
        statements = parse_script(text)
    except ParseError as exc:
        print("parse error: %s" % exc, file=err)
        return 1
    session = Session(json_mode=json_mode, graded=graded)
    try:
        outputs = execute_script(statements, session, text)
    except DecompositionIncomplete as exc:
        print("error: %s" % exc, file=err)
        return 3
    except DivisorForgeError as exc:
        print("error: %s" % exc, file=err)
        return 2
    out.write(render_outputs(outputs, json_mode))
    return 0


def repl(json_mode=False, graded=False, stdin=sys.stdin, out=sys.stdout,
         err=sys.stderr):
    session = Session(json_mode=json_mode, graded=graded)
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
        try:
            statements = parse_script(chunk)
            outputs = execute_script(statements, session, chunk)
            out.write(render_outputs(outputs, json_mode))
        except DivisorForgeError as exc:
            print("error: %s" % exc, file=err)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="divisor-forge",
        description="exact divisor calculus on normal varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a script file")
    runp.add_argument("script", help="path to a script file, or - for stdin")
    runp.add_argument("--json", action="store_true", help="JSON output")
    runp.add_argument("--graded", action="store_true",
                      help="default the graded flag to true")
    replp = sub.add_parser("repl", help="interactive session")
    replp.add_argument("--json", action="store_true", help="JSON output")
    replp.add_argument("--graded", action="store_true",
                       help="default the graded flag to true")
    args = parser.parse_args(argv)
    if args.command == "repl":
        return repl(json_mode=args.json, graded=args.graded)
    if args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
    return run_text(text, json_mode=args.json, graded=args.graded)


if __name__ == "__main__":
    sys.exit(main())
