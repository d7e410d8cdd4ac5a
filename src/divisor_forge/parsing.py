"""Tokenizer and expression parser shared by the polynomial syntax and the CLI.

The expression grammar covers `+ - * / ^` with integer literals,
parenthesization, identifiers, calls `name(args, kw=value)` and divisor
tables `divisor{coeff: expr, ...}`.  One evaluator, ring.Evaluator, reads
the trees: `polynomial()` with names as ring variables, and scripts
through its subclass cli.Session, which adds calls and tables.
"""

import re
import sys
from dataclasses import dataclass

from .errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<arrow>->)
  | (?P<op>[-+*/^(){}\[\],:;=])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'int', 'id', 'op', 'arrow', 'eof'
    text: str
    line: int
    column: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos]).locate(
                text, line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# AST nodes are tuples: ('int', value), ('name', id), ('neg', a),
# ('ops', first, [(op, operand), ...]) for a run of binary operators, folded
# from the left (`^` is a run of one, nested to the right),
# ('call', name, args, kwargs), ('table', [(coeff, expr)])

# The deepest nesting the parser accepts, counted in factors: parentheses,
# signs, exponents and call arguments each open one, and a chain such as
# 1+1+...+1 of any length is one level.  Parsing, evaluating and printing
# recurse only through nesting, a few frames per level, so this keeps them
# well inside Python's recursion limit.
MAX_DEPTH = 100


class ExprParser:
    """Recursive-descent parser over a token stream."""

    def __init__(self, tokens, text=""):
        self.tokens = tokens
        self.text = text
        self.i = 0
        self.nesting = 0  # factors being parsed

    @property
    def cur(self):
        return self.tokens[self.i]

    def error(self, msg, tok=None):
        tok = tok or self.cur
        raise ParseError(msg).locate(self.text, tok.line, tok.column)

    def accept(self, kind, text=None):
        t = self.cur
        if t.kind == kind and (text is None or t.text == text):
            self.i += 1
            return t
        return None

    def expect(self, kind, text=None):
        t = self.accept(kind, text)
        if t is None:
            self.error("expected %r" % (text or kind))
        return t

    def at_op(self, text):
        return self.cur.kind == "op" and self.cur.text == text

    def named(self):
        """At `name =` (a binding or a keyword argument), consume both and
        return the name; elsewhere None.  Only the operator has text "="."""
        tok = self.cur
        if tok.kind != "id" or self.tokens[self.i + 1].text != "=":
            return None
        self.i += 2
        return tok.text

    def integer(self):
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # CPython's cap on int <-> str conversion
            self.error("integer literal longer than %d digits"
                       % sys.get_int_max_str_digits(), tok)

    def listed(self, open, item, close):
        """One or more `item()`s separated by commas between brackets."""
        self.expect("op", open)
        items = [item()]
        while self.accept("op", ","):
            items.append(item())
        self.expect("op", close)
        return items

    # expression ::= term (('+'|'-') term)*
    # term ::= factor (('*'|'/') factor)*
    # One loop reads both levels, so only nesting deepens the stack.
    def expression(self):
        terms, signs = [[self.factor()]], []
        while self.cur.kind == "op" and self.cur.text in "+-*/":
            op = self.expect("op").text
            if op in "*/":
                terms[-1].append((op, self.factor()))
            else:
                signs.append(op)
                terms.append([self.factor()])
        terms = [_chain(term[0], term[1:]) for term in terms]
        return _chain(terms[0], list(zip(signs, terms[1:])))

    # factor ::= ('-'|'+') factor | atom ('^' factor)?
    # Every recursion of the grammar passes through here.
    def factor(self):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.error("expression nested deeper than %d levels" % MAX_DEPTH)
        if self.accept("op", "-"):
            node = ("neg", self.factor())
        elif self.accept("op", "+"):
            node = self.factor()
        else:
            node = self.atom()
            if self.accept("op", "^"):
                node = ("ops", node, [("^", self.factor())])
        self.nesting -= 1
        return node

    def atom(self):
        t = self.cur
        if t.kind == "int":
            return ("int", self.integer())
        if t.kind == "id":
            self.i += 1
            if self.at_op("("):
                return self.call(t.text)
            if self.at_op("{"):
                return self.table(t.text)
            return ("name", t.text)
        if self.accept("op", "("):
            node = self.expression()
            self.expect("op", ")")
            return node
        self.error("expected expression")

    def call(self, name):
        self.expect("op", "(")
        args, kwargs = [], []
        if not self.at_op(")"):
            while True:
                key = self.named()
                if key is None:
                    args.append(self.expression())
                else:
                    kwargs.append((key, self.expression()))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return ("call", name, args, kwargs)

    def table(self, name):
        if name != "divisor":
            self.error("unexpected '{' after %r" % name)
        return ("table", self.listed("{", self.table_entry, "}"))

    def table_entry(self):
        coeff = self.expression()
        self.expect("op", ":")
        return (coeff, self.expression())


def _chain(first, rest):
    """`first` and its (op, operand) pairs as one 'ops' node, if any."""
    return ("ops", first, rest) if rest else first


def parse_expression(text):
    parser = ExprParser(tokenize(text), text)
    node = parser.expression()
    if parser.cur.kind != "eof":
        parser.error("trailing input")
    return node
