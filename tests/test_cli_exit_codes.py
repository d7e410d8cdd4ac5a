"""Exit codes and messages of the script CLI on inputs it must refuse.

Every input ends in an exit code of the contract (0 ok, 1 parse error, 2
mathematical error, 3 refusal) with one `error:` or `parse error:`
message, never a Python traceback, and a REPL session survives it.
"""

import io
import sys
import time

import pytest

from divisor_forge import engine, errors, factorization
from divisor_forge.cli import (
    _FUNCTIONS, MAX_POWER_BITS, MAX_POWER_SIZE, MAX_SYMBOLIC_POWER, _exit_code,
    format_script, main, parse_script, repl, run_text)
from divisor_forge.factorization import MAX_COEFF_BITS
from divisor_forge.parsing import MAX_DEPTH

HEADER = (
    "ring R = QQ[x,y,z] / (x^2 - y*z);\n"
    "D = divisor(ideal(x,y));\n"
    "E = divisor(x);\n")
DIGITS = "%d digits" % sys.get_int_max_str_digits()
POWER_CAP = "exceeds the cap of %d bits" % MAX_POWER_BITS
NESTED = "expression nested deeper than %d levels" % MAX_DEPTH

# (statement, exit code, a fragment of the message)
CASES = [
    ("print OO();", 2, "OO() takes 1 argument (0 given)"),
    ("print floor();", 2, "floor() takes 1 argument (0 given)"),
    ("print divisorOf();", 2, "divisorOf() takes 1 or 2 arguments (0 given)"),
    ("print reflexify();", 2, "reflexify() takes 1 argument (0 given)"),
    ("print pullback(x);", 2, "pullback() takes 2 arguments (1 given)"),
    ("print symbolicPower(ideal(x));", 2,
     "symbolicPower() takes 2 arguments (1 given)"),
    ("print isQCartier(0, D);", 2,
     "isQCartier() argument 1 must be a positive integer"),
    ("print ideal(x) + 1;", 2, "unsupported operand type(s) for +"),
    ("print ideal(x)*ideal(y)*R;", 2, "unsupported operand type(s) for *"),
    # arguments that used to be dropped without a word
    ("print floor(D, E);", 2, "floor() takes 1 argument (2 given)"),
    ("print isCartier(D, foo=1);", 2, "isCartier() takes no keyword 'foo'"),
    ("print divisor(x, section=3);", 2,
     "divisor() keyword section must be a ring element"),
    ("print divisor(x, section=y);", 2, "section= only with a sheaf"),
    ("print isCartier(D, graded=true, graded=false);", 2,
     "isCartier() got keyword 'graded' twice"),
    # CPython's limit on converting integers to text
    ("print 10^5000;", 2, DIGITS),
    ("print 10^5000*x;", 2, DIGITS),
    ("print %s;" % ("1" * 5000), 1, DIGITS),
    # an error message that would show such a number
    ("print toWeil((1/(10^3000*10^3000))*E);", 2,
     "divisor has a non-integer coefficient of more than " + DIGITS),
    ("print toWeil((1/2)*E);", 2,
     "divisor has non-integer coefficients: 1/2*Div("),
    # nesting past the parser's depth bound, which used to overflow the stack
    ("print %s1%s;" % ("(" * 300, ")" * 300), 1, NESTED),
    ("print %s1;" % ("-" * 3000), 1, NESTED),
    # error messages that would show a number past CPython's limit; the
    # last row leaves QQ[x,y] as the current ring
    ("print -ideal(10^5000*x+1);", 2, DIGITS),
    ("ring S = QQ[x,y]; print divisor{1: ideal(x^2 + 10^5000*x)};", 2,
     DIGITS),
    # number powers past the bit cap, refused before they are computed
    ("print 3^(10^9);", 2, POWER_CAP),
    ("print (2/3)^(-(10^7));", 2, POWER_CAP),
    ("print (10^5000)^300;", 2, POWER_CAP),
    # polynomial and ideal powers, bounded by their leading coefficients
    ("print (2*x)^(10^7);", 2, POWER_CAP),
    ("print ideal(2*x)^(10^7);", 2, POWER_CAP),
    ("print ideal(y, x/3)^(10^6);", 2, POWER_CAP),
]


def run(text, json_mode=False):
    out, err = io.StringIO(), io.StringIO()
    code = run_text(text, json_mode=json_mode, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("statement, code, message", CASES)
def test_refused_inputs_get_their_exit_code(statement, code, message,
                                            json_mode):
    got, out, err = run(HEADER + statement + "\n", json_mode)
    assert (got, out) == (code, "")
    assert err.startswith("parse error: " if code == 1 else "error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("statement", [
    "print -ideal(10^5000*x+1);",  # in formatting an error message
    "print 10^5000*x;",  # in printing a result
])
def test_digit_limit_errors_get_their_location(statement, json_mode):
    text = HEADER + "print 1;\n  " + statement + "\n"
    code, out, err = run(text, json_mode)
    assert (code, out) == (2, "")
    assert err == "error: 5:3: cannot print a number of more than %s\n" \
        "  %s\n  ^\n" % (DIGITS, statement)


def test_nesting_up_to_the_bound_is_accepted():
    half = "+".join(["x"] * (MAX_DEPTH // 2 + 10))
    for statement, code in [
        ("print %s;" % "+".join(["1"] * MAX_DEPTH), 0),
        ("print %s1%s;" % ("(" * (MAX_DEPTH - 1), ")" * (MAX_DEPTH - 1)), 0),
        ("print %s1;" % ("-" * (MAX_DEPTH - 1)), 0),
        ("print %s^1;" % "^".join(["1"] * (MAX_DEPTH - 1)), 0),
        # two chains, one inside the other, are two levels
        ("print (%s)+%s;" % (half, half), 0),
    ]:
        got, _, err = run(HEADER + statement + "\n")
        assert got == code, (statement[:40], err)


def test_printing_adds_no_nesting():
    """Accepted statements at or near the bound print as text that parses
    back to the same tree."""
    for statement in [
        "print %sx;" % ("-" * 60),
        "print %sx;" % ("-" * (MAX_DEPTH - 1)),
        "print %s^1;" % "^".join(["1"] * (MAX_DEPTH - 1)),
        "print %sx;" % ("-x^" * (MAX_DEPTH // 2 - 1)),
        "print %s1%s;" % ("(" * (MAX_DEPTH - 1), ")" * (MAX_DEPTH - 1)),
        "print %sx%s;" % ("(x - " * (MAX_DEPTH - 1), ")" * (MAX_DEPTH - 1)),
    ]:
        tree = parse_script(statement)
        printed = format_script(tree)
        assert [s[:-1] for s in parse_script(printed)] == [
            s[:-1] for s in tree], statement[:40]


def test_a_chain_of_any_length_is_one_level():
    code, out, _ = run("print %s;\n" % "+".join(["1"] * 3000))
    assert (code, out) == (0, "o1 = 3000\n")


def _with_frames(n, f):
    """f() called under n extra stack frames."""
    return f() if n == 0 else _with_frames(n - 1, f)


def test_nesting_at_the_bound_leaves_stack_to_spare():
    """Parsing, evaluating and printing recurse a few frames per level of
    nesting; at the bound they must leave room for a caller's own stack."""
    n = MAX_DEPTH - 1
    for statement in [
        "print %sx%s;" % ("divisor{1: " * n, "}" * n),
        "print %sx%s;" % ("ideal(" * n, ")^1*x+x" * n),
        "print %sx%s;" % ("divisor(x, section=" * n, ")^1*x+x" * n),
    ]:
        text = HEADER + statement + "\n"
        code, _, err = _with_frames(200, lambda: run(text))
        assert code == 2 and "Traceback" not in err, err
        assert _with_frames(200, lambda: format_script(parse_script(text)))


def test_factor_degree_cap_is_a_refusal(monkeypatch):
    script = "ring R = QQ[x,y,z];\nprint divisor(x^4 + y^4 + z^4 + 1);\n"
    monkeypatch.setattr(factorization, "MAXDEG", 2)
    code, out, err = run(script)
    assert (code, out) == (3, "")
    assert err.startswith("error: 2:1: ") and "exceeds cap 2" in err
    monkeypatch.undo()
    assert run(script)[0] == 0


def test_degree_cap_does_not_count_monomial_content():
    """The peel takes monomial content out first, so the cap measures the
    input without it: monomials of any degree are answered, not refused."""
    code, out, err = run("ring R = QQ[x];\nprint divisor(x^600);\n"
                         "ring S = QQ[x,y];\nprint divisor(x^30*y^30);\n")
    assert (code, err) == (0, "")
    assert out == "o1 = 600*Div(x)\no2 = 30*Div(y) + 30*Div(x)\n"


def test_number_powers_are_bounded_before_they_are_built():
    start = time.perf_counter()
    code, out, err = run("print 3^(10^9);\n")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert "a power of up to 2000000000 bits " + POWER_CAP in err
    # under the cap, and powers whose base is 0, 1 or -1, are computed
    code, out, _ = run("print 10^5000 / 10^4999;\nprint (1/2)^(-3);\n"
                       "print (-1)^(10^9 + 1);\nprint 0^(10^9);\n")
    assert (code, out) == (0, "o1 = 10\no2 = 8\no3 = -1\no4 = 0\n")


def test_polynomial_and_ideal_powers_are_bounded_before_they_are_built():
    """lc(f)^n is a coefficient of f^n, and of a generator of I^n for each
    stored generator f of I, so its size bounds what would be built."""
    for base, bits in (("(2*x)", 20000000), ("ideal(2*x)", 20000000),
                       ("ideal(x, y - 10^9*x)", 300000000)):
        start = time.perf_counter()
        code, out, err = run("ring R = QQ[x,y];\nprint %s^(10^7);\n" % base)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert "a power of up to %d bits %s" % (bits, POWER_CAP) in err
    # monic leading coefficients leave the power uncapped
    code, out, _ = run("ring R = QQ[x,y];\nprint (x+y)^3;\n"
                       "print ideal(x - 2*y)^2;\nprint (2*x)^3;\n")
    assert (code, out) == (0, "o1 = x^3 + 3*x^2*y + 3*x*y^2 + y^3\n"
                           "o2 = ideal(x^2 - 4*x*y + 4*y^2)\n"
                           "o3 = 8*x^3\n")


def run_counting_products(monkeypatch, text):
    """run(text) and the number of polynomial products it formed."""
    products = []

    def p_mul(p, q):
        products.append(None)
        return real(p, q)

    real = engine.p_mul
    monkeypatch.setattr(engine, "p_mul", p_mul)
    got = run(text)
    monkeypatch.undo()
    return got, len(products)


def test_power_sizes_are_bounded_before_any_product(monkeypatch):
    """Terms times coefficient bits of a power are bounded before anything
    is multiplied, also where every leading coefficient is 1."""
    for text, size in [
            # C(402, 2) terms of at most 2*400 + 1 bits
            ("ring R = QQ[x,y];\nf = (x+y+1)^400;\n", 80601 * 801),
            ("ring R = QQ[x,y];\nprint (x+y+1)^101;\n", 5253 * 203),
            # 4,001 terms of at most 4,001 bits
            ("ring R = QQ[x];\nprint (x+1)^4000;\n", 4001 * 4001),
            # 501 products, each of at most C(502, 2) terms of 501 bits
            ("ring R = QQ[x,y];\nprint ideal(x+1, y+1)^500;\n",
             501 * 125751 * 501),
            ("ring R = QQ[x,y];\nprint ideal(x, y)^(10^9);\n", 10**9 + 1),
            # (3x+1)/3: at most 12^2000, so 4*2000 + 1 bits, per coefficient
            ("ring R = QQ[x,y];\nprint (x + 1/3)^2000;\n", 2001 * 8001)]:
        (code, out, err), products = run_counting_products(monkeypatch, text)
        assert (code, out, products) == (2, "", 0), text
        assert "a power of up to %d bits exceeds the cap of %d bits" % (
            size, MAX_POWER_SIZE) in err, err


def test_powers_under_the_size_cap_are_computed():
    code, out, err = run("ring R = QQ[x,y];\nf = (x+y+1)^60;\n"
                         "print f - (x+y+1)^30 * (x+y+1)^30;\n"
                         "print x^(10^9) * y;\n")
    assert (code, out, err) == (0, "o1 = 0\no2 = x^1000000000*y\n", "")


def test_symbolic_powers_are_capped_before_any_product(monkeypatch):
    ring = "ring R = QQ[x,y,z] / (x*y - z^2);\n"
    code, out, err = run(ring + "print symbolicPower(ideal(x,z), 3);\n")
    assert (code, err) == (0, "") and out.startswith("o1 = ideal(")
    # declaring the ring forms products, and the refused call no more
    _, products = run_counting_products(monkeypatch, ring)
    for n in (MAX_SYMBOLIC_POWER + 1, 10**4):
        (code, out, err), more = run_counting_products(
            monkeypatch, ring + "print symbolicPower(ideal(x,z), %d);\n" % n)
        assert (code, out, more) == (2, "", products)
        assert "symbolicPower() of order %d exceeds the cap of %d" % (
            n, MAX_SYMBOLIC_POWER) in err, err


def test_huge_coefficients_are_refused_before_sympy():
    """The cubic's root search gives up on the coefficient, so the cubic
    would go to sympy's factor_list, which takes minutes at 10^1000."""
    start = time.perf_counter()
    code, out, err = run("ring R = QQ[x,y,z];\n"
                         "print divisor(x^3 + 10^5000*y^3 + 1);\n")
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err.startswith("error: 2:1: a coefficient of 16610 bits exceeds "
                          "the factorization cap of %d bits" % MAX_COEFF_BITS)


def test_repl_survives_every_refused_input():
    lines = [HEADER]
    for statement, _, _ in CASES:
        lines += [statement + "\n", "print 7;\n"]
    out, err = io.StringIO(), io.StringIO()
    assert repl(stdin=io.StringIO("".join(lines)), out=out, err=err) == 0
    printed = out.getvalue().splitlines()[1:]
    assert len(printed) == len(CASES)
    assert all(line.endswith(" = 7") for line in printed)
    messages = err.getvalue()
    assert "Traceback" not in messages
    for _, _, message in CASES:
        assert message in messages


def test_an_error_is_located_once():
    exc = errors.ScriptError("boom")
    assert exc.locate("a;\n  b;\n", 2, 3) is exc
    assert exc.locate("c;\n", 1, 1) is exc
    assert str(exc) == "2:3: boom\n  b;\n  ^"
    assert str(errors.ScriptError("boom").locate("", 1, 1)) == "1:1: boom"


PLANE = "ring R = QQ[x,y];\n"
TARGET = PLANE + "ring S = QQ[a,b];\n"

# (script, exit code, first line of stderr): script errors of the evaluator
# and two values it must accept
BRANCHES = [
    ("print ideal(1);", 2,
     "error: 1:1: no current ring; declare one with `ring`"),
    (PLANE + "ring S = QQ[a,b]/(divisor(a));", 2,
     "error: 2:1: relation must be a polynomial"),
    (TARGET + "map f : S -> R = (divisor(x), y);", 2,
     "error: 3:1: map images must lie in the target ring"),
    (PLANE + "map f : T -> R = (x, y);", 2,
     "error: 2:1: map endpoints must be declared rings"),
    (HEADER + "use D;", 2, "error: 4:1: 'D' is not a ring"),
    (PLANE + "print divisor{x: ideal(x)};", 2,
     "error: 2:1: divisor coefficient must be a number"),
    (PLANE + "print foo(x);", 2, "error: 2:1: unknown function 'foo'"),
    (PLANE + "print x^-1;", 2,
     "error: 2:1: negative power of an ideal element"),
    (PLANE + "print x/y;", 2, "error: 2:1: unsupported division"),
    (PLANE + "print divisorOf(OO(divisor(x - 1)), true);", 2,
     "error: 2:1: graded mode needs a homogeneous denominator"),
    (PLANE + "print 1/0;", 2, "error: 2:1: division by zero"),
    (PLANE + "print 0^(-1);", 2, "error: 2:1: division by zero"),
    (PLANE + "print (0/2)^(-3);", 2, "error: 2:1: division by zero"),
    (TARGET + "map f : S -> R = (x, y);\nuse R; print pullback(f, "
     "divisor(x));", 2,
     "error: 4:8: divisor does not live on the source ring"),
    (PLANE + "print divisor(x)^2;", 2,
     "error: 2:1: cannot raise Div(x) to a power"),
    (PLANE + "print divisor(true);", 2,
     "error: 2:1: divisor() takes an element, ideal or sheaf"),
    ("ring R = QQ[x,y] degrees [[1,1,1]];", 2,
     "error: 1:1: grading has wrong number of columns"),
    (TARGET + "map f : S -> R = (1, y); print f;", 0, ""),
    (HEADER + "print divisorOf(OO(D), isCartier(D));", 0, ""),
]


@pytest.mark.parametrize("script, code, first_line", BRANCHES)
def test_script_errors_get_their_exit_code(script, code, first_line):
    got, out, err = run(script + "\n")
    assert (got, err.partition("\n")[0]) == (code, first_line)
    assert bool(out) == (code == 0)


def test_run_reads_a_script_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(PLANE + "print x*y;\n"))
    assert main(["run", "-"]) == 0
    assert capsys.readouterr() == ("o1 = x*y\n", "")


def test_repl_prints_each_statement_and_stops_at_quit():
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(PLANE + "print x +\n y;\nquit;\nprint 7;\n")
    assert repl(stdin=stdin, out=out, err=err) == 0
    assert out.getvalue().splitlines() == [
        "divisor-forge repl; end statements with ';', exit with Ctrl-D or "
        "'quit;'", "o1 = x + y"]
    assert err.getvalue() == ""


def test_unreadable_script_is_exit_1(tmp_path, capsys):
    binary = tmp_path / "binary.df"
    binary.write_bytes(b"print \xff;\n")
    assert main(["run", str(tmp_path / "missing.df")]) == 1
    assert main(["run", str(binary)]) == 1
    assert capsys.readouterr().err.count("error: ") == 2


# every exception class of errors.py and the exit code a script run gives it
ERROR_EXIT_CODES = {
    "DivisorForgeError": 2,
    "Refusal": 3,
    "RingMismatch": 2,
    "HeightNotOne": 2,
    "PrimalityUncertain": 2,
    "DecompositionIncomplete": 3,
    "NonIntegralCoercion": 2,
    "NoSolution": 2,
    "NotCompleteIntersection": 2,
    "GradingNotPositive": 2,
    "FactorDegreeExceeded": 3,
    "FactorCoefficientsExceeded": 3,
    "ScriptError": 2,
    "ParseError": 1,
}


def test_the_exit_code_table_names_every_error_class():
    assert ERROR_EXIT_CODES.keys() == {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)}


@pytest.mark.parametrize("name, code", sorted(ERROR_EXIT_CODES.items()))
def test_every_error_class_has_its_exit_code(name, code):
    assert _exit_code(getattr(errors, name)("message")) == code


@pytest.mark.parametrize("argv", [
    [], ["run"], ["foo"], ["run", "-", "--bogus"]])
def test_malformed_command_line_is_exit_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: divisor-forge")


def test_help_is_exit_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: divisor-forge")


def test_readme_lists_every_declared_signature():
    with open("README.md", "r", encoding="utf-8") as handle:
        readme = handle.read()
    for name, (kinds, keywords, _) in _FUNCTIONS.items():
        row = "| `%s` | %s | %s |" % (
            name, ", ".join(kinds), ", ".join(keywords) or "-")
        assert row in readme, row
