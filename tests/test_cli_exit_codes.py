"""Exit codes and messages of the script CLI on inputs it must refuse.

Every input ends in an exit code of the contract (0 ok, 1 parse error, 2
mathematical error, 3 refusal) with one `error:` or `parse error:`
message, never a Python traceback, and a REPL session survives it.
"""

import io
import os
import subprocess
import sys
import time

import pytest

from divisor_forge import cli, engine, errors, factorization
from divisor_forge.cli import (
    _FUNCTIONS, WORK_BUDGET, Session, _exit_code,
    execute_script, format_script, main, parse_script, repl, run_text)
from divisor_forge.factorization import MAX_COEFF_BITS
from divisor_forge.parsing import MAX_DEPTH

HEADER = (
    "ring R = QQ[x,y,z] / (x^2 - y*z);\n"
    "D = divisor(ideal(x,y));\n"
    "E = divisor(x);\n")
DIGITS = "%d digits" % sys.get_int_max_str_digits()
BUDGET = "past the budget of %d units" % WORK_BUDGET
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
    ("print isQCartier(0, D);", 2, "bound must be positive"),
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
    # error messages that name the value's kind, or the ideal's position,
    # and not a value that would show a number past CPython's limit; the
    # last row leaves QQ[x,y] as the current ring
    ("print -ideal(10^5000*x+1);", 2, "cannot negate an Ideal"),
    ("ring S = QQ[x,y]; print divisor{1: ideal(x^2 + 10^5000*x)};", 2,
     "ideal 1 is not prime"),
    # a coefficient is read before its prime, whose factorization would be
    # refused with exit 3
    ("print divisor{x: ideal(x^3 + 10^5000*y^3 + 1)};", 2,
     "a divisor coefficient must be an int or a Fraction, not x"),
    # the twisted cubic of perfbench/scripts/refusal.df with y scaled by N:
    # its component cannot be certified, and is named without its text
    ("ring R = QQ[x,y,z,w]; N = 10^2200; D = divisor(ideal(x*z - N^2*y^2, "
     "N*y*w - z^2, x*w - N*y*z));", 3,
     "cannot split or certify a component with a coefficient of more than "
     + DIGITS),
    # number, polynomial and ideal powers, bounded by the work budget
    ("print 3^(10^9);", 3, BUDGET),
    ("print (2/3)^(-(10^7));", 3, BUDGET),
    ("print (10^5000)^300;", 3, BUDGET),
    ("print (2*x)^(10^7);", 3, BUDGET),
    ("print ideal(2*x)^(10^7);", 3, BUDGET),
    ("print ideal(y, x/3)^(10^6);", 3, BUDGET),
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
    # in formatting an error message: the relation a - 10^5000 does not
    # map to zero
    "map f : A -> B = (b);",
    "print 10^5000*x;",  # in printing a result
])
def test_digit_limit_errors_get_their_location(statement, json_mode):
    text = HEADER + "ring A = QQ[a]/(a - 10^5000); ring B = QQ[b]; use R;" \
        "\n  " + statement + "\n"
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
    """3^(10^9) is refused before its first squaring past the budget."""
    start = time.perf_counter()
    code, out, err = run("print 3^(10^9);\n")
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err.startswith("error: 1:1: a product of 1 by 1 terms of up to "
                          "12985 by 12985 words needs 2634543 units")
    assert BUDGET in err
    # within the budget, and powers whose base is 0, 1 or -1, are computed
    # (true^1 is the int 1, as true^2 is)
    code, out, _ = run("print 10^5000 / 10^4999;\nprint (1/2)^(-3);\n"
                       "print (-1)^(10^9 + 1);\nprint 0^(10^9);\n"
                       "print true^1;\n")
    assert (code, out) == (0, "o1 = 10\no2 = 8\no3 = -1\no4 = 0\no5 = 1\n")


def run_charging(monkeypatch, text):
    """run(text) and the units of each charge it made, in order."""
    units, real = [], engine.charge

    def counted(n, step, *counts):
        units.append(n)
        return real(n, step, *counts)

    monkeypatch.setattr(engine, "charge", counted)
    got = run(text)
    monkeypatch.undo()
    return got, units


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# a product the size of 3^500000 by itself, whose refusal is the first one
# past the budget
SQUARE = ("a product of 1 by 1 terms of up to 12383 by 12383 words needs "
          "2395926 units")


@pytest.mark.parametrize("text, refused", [
    # forty factors 3^500000
    ("f = %s;\n" % " * ".join(["3^500000"] * 40), "1:1: " + SQUARE),
    # fifteen terms 1/p^k, each of at most 2^20 bits
    ("f = %s;\n" % " + ".join("1/%d^%d" % (p, 2**20 // p.bit_length())
                              for p in PRIMES),
     "1:1: a product of 1 by 1 terms of up to 8225 by 13017 words"),
    # the same sum of terms of at most 2^17 bits, refused in a sum
    ("f = %s;\n" % " + ".join("1/%d^%d" % (p, 2**17 // p.bit_length())
                              for p in PRIMES),
     "1:1: a product of 1 by 1 terms of up to 21986 by 1772 words"),
    # a divisor scaled twenty times by 3^500000
    ("ring R = QQ[x,y];\nN = 3^500000;\nD = divisor(x);\nf = D%s;\n"
     % ("*N" * 20), "4:1: " + SQUARE),
])
def test_number_arithmetic_is_bounded_by_the_budget(monkeypatch, text,
                                                    refused):
    """Number products, powers and Fraction sums, and divisor scalings,
    are charged as the engine charges a product of one term by one; each
    of these ran for a minute or more with no charge."""
    start = time.perf_counter()
    (code, out, err), units = run_charging(monkeypatch, text)
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err.startswith("error: " + refused) and BUDGET in err, err
    # the work done is what was charged before the refused step
    assert sum(units[:-1]) <= WORK_BUDGET < sum(units)


@pytest.mark.parametrize("template, base, code", [
    ("print %s^(10^7);", "2", 3),
    ("f = %s^661000;", "3", 0),
    ("f = %s^500000 * %s^500000;", "3", 3),
])
def test_a_number_costs_what_its_constant_polynomial_costs(
        monkeypatch, template, base, code):
    """c and the constant polynomial c + 0*x take the same charges, in the
    same order, and get the same verdict."""
    setup = "ring R = QQ[x];\nc = %s + 0*x;\n" % base
    runs = [run_charging(monkeypatch, setup + template.replace("%s", b)
                         + "\n") for b in (base, "c")]
    (number, units), (twin, twin_units) = runs
    assert number[0] == twin[0] == code
    assert number[2].partition("\n")[0] == twin[2].partition("\n")[0]
    assert units == twin_units


def test_divisor_arithmetic_within_the_budget_is_answered():
    code, out, err = run(HEADER + "print 1/2*D;\nprint 3*D + E;\n"
                         "print isQCartier(5, D);\n")
    assert (code, err) == (0, "")
    assert out == ("o1 = 1/2*Div(y, x)\no2 = 4*Div(y, x) + Div(z, x)\n"
                   "o3 = 2\n")


def test_polynomial_and_ideal_powers_are_bounded_by_the_work_budget():
    for base in ("(2*x)", "ideal(2*x)", "ideal(x, y - 10^9*x)"):
        start = time.perf_counter()
        code, out, err = run("ring R = QQ[x,y];\nprint %s^(10^7);\n" % base)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("error: 2:1: a product of ") and BUDGET in err
    # powers within the budget are computed
    code, out, _ = run("ring R = QQ[x,y];\nprint (x+y)^3;\n"
                       "print ideal(x - 2*y)^2;\nprint (2*x)^3;\n")
    assert (code, out) == (0, "o1 = x^3 + 3*x^2*y + 3*x*y^2 + y^3\n"
                           "o2 = ideal(x^2 - 4*x*y + 4*y^2)\n"
                           "o3 = 8*x^3\n")


def run_counting_calls(monkeypatch, name, text):
    """run(text) and the number of calls it made to engine.<name>."""
    calls, real = [], getattr(engine, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(engine, name, counted)
    got = run(text)
    monkeypatch.undo()
    return got, len(calls)


def run_counting_products(monkeypatch, text):
    """run(text) and the number of polynomial products it formed."""
    return run_counting_calls(monkeypatch, "p_mul", text)


# every product charges at least PRODUCT_UNITS of the budget
MOST_PRODUCTS = WORK_BUDGET // engine.PRODUCT_UNITS + 1


@pytest.mark.parametrize("text, code", [
    ("ring R = QQ[x,y];\nf = (x+y+1)^400;\n", 3),
    ("ring R = QQ[x,y];\nf = (x+y+1)^101;\n", 0),
    ("ring R = QQ[x,y];\nprint ideal(x, y)^(10^9);\n", 3),
    ("ring R = QQ[x,y];\nprint (x + 1/3)^2000;\n", 3),
])
def test_power_products_are_bounded_by_the_budget(monkeypatch, text, code):
    """A power is answered or refused within the budget, so the products it
    forms are bounded by it."""
    (got, out, err), products = run_counting_products(monkeypatch, text)
    assert (got, out) == (code, "") and products <= MOST_PRODUCTS, err
    assert (BUDGET in err) == (code == 3)


def test_one_budget_decides_polynomial_powers(monkeypatch):
    """(2x)^(2^19 + 1) is answered within the budget; (2x)^(10^7) is refused
    after a few squarings of 2x."""
    start = time.perf_counter()
    code, out, err = run("ring R = QQ[x,y];\nf = (2*x)^(2^19 + 1);\n")
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, "", "")
    base = "ring R = QQ[x,y];\ng = 2*x;\n"
    _, products = run_counting_products(monkeypatch, base)
    (code, out, err), more = run_counting_products(
        monkeypatch, base + "print g^(10^7);\n")
    assert (code, out) == (3, "") and BUDGET in err
    assert more - products <= 2 * (10**7).bit_length()


def test_a_refused_exponent_names_its_kind_without_work(monkeypatch):
    """x^I is refused by naming the kind of I: formatting I would compute
    its minimal generators, four buchberger calls, only to word the
    refusal."""
    base = "ring R = QQ[x,y,z]/(x^2 - y*z);\nI = ideal(x,y,z^2);\n"
    got, bases = run_counting_calls(monkeypatch, "buchberger", base)
    assert got == (0, "", "")
    (code, out, err), calls = run_counting_calls(
        monkeypatch, "buchberger", base + "print x^I;\n")
    assert (code, out, calls) == (2, "", bases)
    assert err.startswith(
        "error: 3:1: an exponent must be an integer, not an Ideal\n")


@pytest.mark.parametrize("statement, message", [
    ("print -I;", "cannot negate an Ideal"),
    ("print D^2;", "cannot raise a WeilDivisor to a power"),
])
def test_a_refused_value_is_named_by_its_kind_without_work(monkeypatch,
                                                          statement, message):
    """Formatting I or D would compute minimal generators only to word the
    refusal."""
    base = ("ring R = QQ[x,y,z]/(x^2 - y*z);\nI = ideal(x,y,z^2);\n"
            "D = divisor(x);\n")
    got, bases = run_counting_calls(monkeypatch, "buchberger", base)
    assert got == (0, "", "")
    (code, out, err), calls = run_counting_calls(
        monkeypatch, "buchberger", base + statement + "\n")
    assert (code, out, calls) == (2, "", bases)
    assert err.startswith("error: 4:1: %s\n" % message)


def test_powers_within_the_budget_are_computed():
    code, out, err = run("ring R = QQ[x,y];\nf = (x+y+1)^60;\n"
                         "print f - (x+y+1)^30 * (x+y+1)^30;\n"
                         "print x^(10^9) * y;\n")
    assert (code, out, err) == (0, "o1 = 0\no2 = x^1000000000*y\n", "")


def test_symbolic_powers_are_bounded_by_the_budget():
    ring = "ring R = QQ[x,y,z] / (x*y - z^2);\n"
    code, out, err = run(ring + "print symbolicPower(ideal(x,z), 3);\n")
    assert (code, err) == (0, "") and out.startswith("o1 = ideal(")
    code, out, err = run(ring + "print symbolicPower(ideal(x,z), 51);\n")
    assert (code, err, out) == (0, "", "o1 = ideal(x^25*z, x^26)\n")
    code, out, err = run(ring + "print symbolicPower(ideal(x,z), 10^4);\n")
    assert (code, out) == (3, "") and BUDGET in err


# refused runs, each ending within the budget on an input that would take
# minutes or more without it
SYMBOLIC = ("ring R = QQ[x,y,u,v] / (x*y - u*v);\n"
            "print symbolicPower(ideal(x,u), 10^4);\n")
# the dimension of this ring tests every set of variables
SQUARES = "ring R = QQ[%s] / (%s);\nprint canonicalDivisor();\n" % (
    ",".join("v%d" % i for i in range(22)),
    ", ".join("v%d^2" % i for i in range(22)))
REFUSED = [
    "ring R = QQ[x];\nf = (x+1)^4000;\n",
    "ring R = QQ[x,y];\nf = (x + 3^1000)^3000;\n",
    "ring R = QQ[x,y];\nprint (2*x)^(10^7);\n",
    "ring R = QQ[x,y];\nprint ideal(y, x/3)^(10^6);\n",
    "ring R = QQ[x,y];\nprint ideal(x+1, y+1)^500;\n",
    SYMBOLIC,
    SQUARES,
]


@pytest.mark.parametrize("text", REFUSED)
def test_work_past_the_budget_is_a_refusal(monkeypatch, text):
    (code, out, err), products = run_counting_products(monkeypatch, text)
    assert (code, out) == (3, "") and products <= MOST_PRODUCTS
    assert err.startswith("error: 2:1: ") and BUDGET in err, err


# twelve grading rows with no positive combination, so the search for one
# would test all 5^12 of them
GRADING = ("ring R = QQ[x,y] degrees [%s];\nprint canonicalDivisor();\n"
           % ", ".join(["[1,-1]", "[-1,1]"] * 6))


def test_the_positivity_search_is_bounded_by_the_budget(monkeypatch):
    """The search for a positive combination of grading rows is refused at
    the budget: each combination of the twelve rows charges 1 + 12 * 2 //
    TESTS = 4 units, so at most WORK_BUDGET // 4 + 1 of the 5^12 are
    tested."""
    tested, real = [], engine.charge

    def counted(units, step, *counts):
        if step.startswith("a combination of"):
            tested.append(units)
        return real(units, step, *counts)

    monkeypatch.setattr(engine, "charge", counted)
    code, out, err = run(GRADING)
    assert (code, out) == (3, "")
    assert err.startswith("error: 2:1: a combination of 12 grading rows "
                          "tested on 2 variables needs 4 units")
    assert BUDGET in err
    assert set(tested) == {4} and len(tested) <= WORK_BUDGET // 4 + 1


def test_work_past_the_budget_while_printing_is_located(monkeypatch):
    """Printing an ideal computes its minimal generators under the budget
    of the whole run, and a refusal there is located at the print."""
    text = "ring R = QQ[x,y,z] / (x^2 - y*z);\nprint ideal(x, y, z);\n"
    with engine.work_budget(10**9):
        execute_script(parse_script(text), Session(), text)
        evaluated = engine.spent
    monkeypatch.setattr(cli, "WORK_BUDGET", evaluated)
    code, out, err = run(text)
    assert (code, out) == (3, "")
    assert err.startswith("error: 2:1: ")
    assert "past the budget of %d units" % evaluated in err


def test_a_refusal_is_the_same_on_every_run():
    """The budget counts work, not time, so a refusal's step and counts
    are the same in every process and under any hash seed."""
    script = ("from divisor_forge import cli; cli.WORK_BUDGET = 300000; "
              "raise SystemExit(cli.main(['run', '-']))")
    runs = []
    for seed in ("0", "0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script], input=SYMBOLIC,
                              capture_output=True, text=True, env=env,
                              timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0][0] == 3 and "past the budget of 300000 units" in runs[0][2]
    assert runs[0] == runs[1] == runs[2]


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
GRADED = "ring R = QQ[x,y] degrees [%s];\nprint canonicalDivisor();"
NOT_POSITIVE = "error: 2:1: no positive combination of grading rows found"

# (script, exit code, first line of stderr): script errors of the evaluator
# and values it must accept; gradings of one to three rows answer, or are
# refused as not positive, within the budget their search charges
BRANCHES = [
    ("print ideal(1);", 2,
     "error: 1:1: no current ring; declare one with `ring`"),
    (PLANE + "ring S = QQ[a,b]/(divisor(a));", 2,
     "error: 2:1: cannot read a WeilDivisor as a relation"),
    (TARGET + "map f : S -> R = (divisor(x), y);", 2,
     "error: 3:1: a WeilDivisor is not a ring element"),
    (PLANE + "print ideal(x, divisor(x));", 2,
     "error: 2:1: a WeilDivisor is not a ring element"),
    (PLANE + "print ideal(x, true);", 2,
     "error: 2:1: a bool is not a ring element"),
    (PLANE + "map f : T -> R = (x, y);", 2,
     "error: 2:1: map endpoints must be declared rings"),
    (HEADER + "use D;", 2, "error: 4:1: 'D' is not a ring"),
    (PLANE + "print divisor{x: ideal(x)};", 2,
     "error: 2:1: a divisor coefficient must be an int or a Fraction, not x"),
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
     "error: 2:1: cannot raise a WeilDivisor to a power"),
    (PLANE + "print divisor(true);", 2,
     "error: 2:1: divisor() takes an element, ideal or sheaf"),
    ("ring R = QQ[x,y] degrees [[1,1,1]];", 2,
     "error: 1:1: grading has wrong number of columns"),
    (GRADED % "[1,-1]", 2, NOT_POSITIVE),
    (GRADED % "[1,-1],[-1,1]", 2, NOT_POSITIVE),
    (GRADED % "[-1,-1],[1,-2],[-2,1]", 2, NOT_POSITIVE),
    (TARGET + "map f : S -> R = (1, y); print f;", 0, ""),
    (HEADER + "print divisorOf(OO(D), isCartier(D));", 0, ""),
    (GRADED % "[1,1]", 0, ""),
    (GRADED % "[1,0],[0,1]", 0, ""),
    (GRADED % "[1,-1],[-1,1],[0,1]", 0, ""),
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


def test_main_starts_the_repl(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("ring R = QQ[x];\nprint x;\nquit;\n"))
    assert main(["repl"]) == 0
    assert capsys.readouterr() == (
        "divisor-forge repl; end statements with ';', exit with Ctrl-D or "
        "'quit;'\no1 = x\n", "")


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
    "WorkExceeded": 3,
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
