"""Grammar fuzzing of the script CLI over the function table.

Scripts are built from small terms: every table function with zero to
three arguments, small literals, the variables x and y of QQ[x,y] and of
QQ[x,y,z]/(x*y - z^2), the prime ideal(x, z) of the latter, exponents up
to 3 or up to 10^6, and symbolicPower calls nested in one another.  Every
script must end in an exit code of the contract (the work budget ends what
would run on), `run_text` must return rather than raise (so `main` never
prints a traceback), and the printed form of every accepted script must
parse back to the same tree.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divisor_forge.cli import _FUNCTIONS, format_script, parse_script, run_text
from divisor_forge.errors import ParseError

HEADER = (
    "ring R = QQ[x,y];\n"
    "ring S = QQ[x,y,z] / (x*y - z^2);\n"
    "map f : R -> R = (y, x);\n")
LEAVES = ["0", "1", "2", "3", "x", "y", "true", "false", "R", "S", "f", "D",
          "ideal(x, z)"]
KEYWORDS = ["graded=true", "graded=false", "strategy=primes",
            "strategy=sheaves", "section=x", "foo=1"]


def _call(name, args, keywords):
    return "%s(%s)" % (name, ", ".join(args + keywords))


EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, 10**6))


def _extend(terms):
    return st.one_of(
        st.builds("({} {} {})".format, terms, st.sampled_from("+-*/"), terms),
        st.builds("({})^{}".format, terms, EXPONENTS),
        st.builds("symbolicPower({}, {})".format, terms, EXPONENTS),
        st.builds("-{}".format, terms),
        st.builds("divisor{{{}: {}}}".format,
                  st.sampled_from(["1", "-2", "1/2"]), terms),
        st.builds(_call, st.sampled_from(sorted(_FUNCTIONS)),
                  st.lists(terms, max_size=3),
                  st.lists(st.sampled_from(KEYWORDS), max_size=1)),
    )


TERMS = st.recursive(st.sampled_from(LEAVES), _extend, max_leaves=5)
STATEMENTS = st.one_of(
    st.builds("print {};".format, TERMS),
    st.builds("check {};".format, TERMS),
    st.builds("D = {};".format, TERMS),
    st.sampled_from(["use R;", "use S;"]),
)
SCRIPTS = st.builds(lambda body: HEADER + "\n".join(body) + "\n",
                    st.lists(STATEMENTS, min_size=1, max_size=3))
FUZZ = settings(derandomize=True, database=None, max_examples=60,
                deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(SCRIPTS, st.data())
def test_every_script_gets_an_exit_code(text, data):
    # a cut anywhere in the script exercises the parse-error path too
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(text))))
    if cut is not None:
        text = text[:cut]
    out, err = io.StringIO(), io.StringIO()
    code = run_text(text, out=out, err=err)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


def _trees(statements):
    """The statements without their location tokens."""
    return [s[:-1] for s in statements]


@FUZZ
@given(SCRIPTS)
def test_printing_parses_back_to_the_same_tree(text):
    try:
        statements = parse_script(text)
    except ParseError:
        return
    printed = format_script(statements)
    assert _trees(parse_script(printed)) == _trees(statements)
    assert format_script(parse_script(printed)) == printed
