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
decomposition, a factorization over a degree or coefficient cap, or work
past WORK_BUDGET, number and divisor-coefficient arithmetic included).
"""

import argparse
import json
import sys
from fractions import Fraction
from operator import attrgetter

# `_FUNCTIONS` calls most of these imports by name.
from . import engine
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
from .ring import Evaluator, Grading, Polynomial, QuotientRing, RingMap, as_int


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
# evaluation

# Argument kinds of the function table: what each accepts, for messages,
# and the types it takes as they are; an "int" is read by ring.as_int.
_KINDS = {
    "any": ("any value", object),
    "divisor": ("a divisor", WeilDivisor),
    "sheaf": ("a fractional ideal", FractionalIdeal),
    "ideal": ("an ideal or a ring element", Ideal),
    "element": ("a ring element", Polynomial),
    "bool": ("true or false", bool),
    "map": ("a ring map", RingMap),
    "ring": ("a ring", QuotientRing),
    "name": ("a name", str),
}


def _coerce(kind, value, what):
    """`value` as an argument of `kind`; `what` names it in the error raised
    when it is not one."""
    if kind == "int":
        return as_int(value, what)
    noun, types = _KINDS[kind]
    if isinstance(value, types):
        return value
    if kind == "ideal" and isinstance(value, Polynomial):
        return Ideal(value.ring, [value])
    if kind == "bool" and isinstance(value, CheckReport):
        return bool(value)
    raise ScriptError("%s must be %s" % (what, noun))


# The work (see engine.work_budget) one script run or REPL entry may spend.
# Whole runs refused at it ended within about 2 s (2 vCPUs); the costliest
# script the tests answer, (x+y+1)^60 and more, spends 575,000.
WORK_BUDGET = 2 * 10**6


class Session(Evaluator):
    """Named bindings and the graded default, over which ring.Evaluator reads
    a script's expressions; bindings replace, never mutate."""

    SCALABLE = Evaluator.SCALABLE + (WeilDivisor,)
    POWERS = (Polynomial, Ideal, FractionalIdeal)

    def __init__(self, graded=False):
        self.bindings = {}
        self.current_ring = None
        self.graded = graded
        self.counter = 0

    # -- name resolution ----------------------------------------------------

    def literal(self, n, ring):
        return n

    def name(self, name, ring):
        """A variable of ring, a binding, a bool, a current ring variable."""
        if ring is None or name not in ring.names:
            if name in self.bindings or name in ("true", "false"):
                return self.bindings.get(name, name == "true")
            ring = self.current_ring
            if ring is None or name not in ring.names:
                raise ScriptError("unbound identifier %r" % name)
        return super().name(name, ring)

    def need_ring(self):
        ring = self.current_ring
        if ring is None:
            raise ScriptError("no current ring; declare one with `ring`")
        return ring

    # -- ideals and fractional ideals under * -------------------------------

    def _mul(self, a, b):
        if isinstance(a, FractionalIdeal) and isinstance(b, FractionalIdeal):
            return a.product(b)
        if isinstance(a, Ideal) and isinstance(b, Polynomial):
            return a * Ideal(b.ring, [b])
        if isinstance(a, Polynomial) and isinstance(b, Ideal):
            return Ideal(a.ring, [a]) * b
        return a * b

    # -- calls and divisor tables --------------------------------------------

    def _divisor_table(self, entries, ring):
        coeffs, primes = [], []
        for cnode, enode in entries:
            coeffs.append(self.eval(cnode, ring))
            primes.append(_coerce("ideal", self.eval(enode, ring),
                                  "a divisor table entry"))
        return WeilDivisor.from_primes(coeffs, primes)

    def call(self, node, ring):
        """A divisor table, or a call checked against its `_FUNCTIONS`
        entry and then made."""
        if node[0] == "table":
            return self._divisor_table(node[1], ring)
        _, name, arg_nodes, kw_nodes = node
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
            args = [owner, args]
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
    "isQCartier": (("int", "divisor"), (), "is_q_cartier"),
    "isPrincipal": (("divisor",), ("graded",), "is_principal"),
    "isLinearEquivalent": (("divisor", "divisor"), ("graded",),
                           "is_linearly_equivalent"),
    "isSNC": (("divisor",), ("graded",), "is_snc"),
    "symbolicPower": (("ideal", "int"), (), "symbolic_power"),
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
                ring = QuotientRing(tuple(variables), tuple(
                    session.eval(r, probe) for r in relations), grading)
                session.bindings[name] = ring
                session.current_ring = ring
            elif kind == "mapdecl":
                _, name, src_name, tgt_name, image_nodes, _ = stmt
                source = session.bindings.get(src_name)
                target = session.bindings.get(tgt_name)
                if not isinstance(source, QuotientRing) or not isinstance(
                        target, QuotientRing):
                    raise ScriptError("map endpoints must be declared rings")
                session.bindings[name] = RingMap(source, target, [
                    session.eval(node, target) for node in image_nodes])
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
        except (DivisorForgeError, ValueError) as exc:
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
        with engine.work_budget(WORK_BUDGET):
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
