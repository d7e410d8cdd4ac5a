"""Script language: parsing, round-trip printing, execution, output modes,
exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from divisor_forge import (
    QuotientRing,
    WeilDivisor,
    canonical_divisor,
    divisor_of_fractional_ideal,
    divisor_with_section,
    engine,
    ideal,
    polynomial,
    reflexify,
    sheaf_of,
)
from divisor_forge.cli import (
    Session,
    execute_script,
    parse_script,
    render_outputs,
    run_text,
)
from divisor_forge.errors import ParseError

from script_format import format_script

SCHEMA_PATH = "docs/output_schema.json"


def run_script(text, json_mode=False, graded=False):
    out = io.StringIO()
    err = io.StringIO()
    code = run_text(text, json_mode=json_mode, graded=graded, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- parsing -----------------------------------------------------------------

def test_parse_statement_shapes():
    script = parse_script(
        "ring R = QQ[x,y] / (x*y) degrees [[1,1]];\n"
        "map f : R -> R = (x, y);\n"
        "use R;\n"
        "D = divisor{2: ideal(x), -1: ideal(y)};\n"
        "print 3*D;\n"
        "check isCartier(D, graded=true);\n")
    kinds = [s[0] for s in script]
    assert kinds == ["ring", "mapdecl", "use", "bind", "print", "check"]


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as info:
        parse_script("ring R = QQ[x,y;\n")
    assert info.value.line == 1
    assert info.value.column is not None
    with pytest.raises(ParseError):
        parse_script("D = divisor{1: };")


def test_parse_print_round_trip():
    """Printing a parsed script and reparsing gives an identical AST."""
    scripts = [
        "ring R = QQ[x,y,u,v] / (x*y - u*v);\n"
        "D = divisor{2: ideal(x,u), 3: ideal(x,v)};\n"
        "E = divisor(x);\n"
        "print 3*D + E;\n"
        "print D - (1/2)*E;\n"
        "check isCartier(D, graded=true);\n",
        "ring S = QQ[a,b] degrees [[1,2],[0,1]];\n"
        "map f : S -> S = (a, b^2);\n"
        "use S;\n"
        "print pullback(f, divisor(a), strategy=sheaves);\n",
        "print ((1/2) - 3)^2;\n",
        "print -x^-y^2 * (-x)^2 - (x - y) + (x^2)^3 / -(x*y);\n",
    ]

    def strip(statements):
        # drop the location tokens before comparing
        return [tuple(part for part in s if not hasattr(part, "line"))
                for s in statements]

    for text in scripts:
        first = parse_script(text)
        printed = format_script(first)
        second = parse_script(printed)
        assert strip(first) == strip(second)
        # printing is a fixed point after one round
        assert format_script(second) == printed


# -- execution ----------------------------------------------------------------

def test_empty_script_runs_clean():
    code, out, err = run_script("")
    assert (code, out, err) == (0, "", "")


def test_construction_session_output():
    code, out, _ = run_script(
        "ring R = QQ[x,y,u,v] / (x*y - u*v);\n"
        "D = divisor{2: ideal(x,u), 3: ideal(x,v)};\n"
        "print D;\n"
        "print divisor(x);\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("o1 = ")
    assert "3*Div(" in lines[0] and "2*Div(" in lines[0]
    assert lines[1].count("Div(") == 2


def test_rebinding_replaces():
    code, out, _ = run_script(
        "ring R = QQ[x,y];\n"
        "D = divisor(x);\n"
        "D = divisor(y);\n"
        "print D;\n")
    assert code == 0
    assert "Div(y)" in out


def test_check_statement_and_graded_default():
    script = (
        "ring R = QQ[x,y,z] / (x^2 - y*z);\n"
        "D = divisor(ideal(x,y));\n"
        "check isCartier(D);\n")
    code, out, _ = run_script(script)
    assert code == 0 and "false" in out
    # --graded flips the default
    code, out, _ = run_script(script, graded=True)
    assert code == 0 and "true" in out
    # an explicit argument beats the flag
    code, out, _ = run_script(
        script.replace("isCartier(D)", "isCartier(D, graded=false)"),
        graded=True)
    assert code == 0 and "false" in out


def test_printed_polynomial_reads_back_as_a_binding():
    ring = "ring R = QQ[x,y,z];\n"
    code, out, _ = run_script(ring + "print (x+y+z+1)^7;\n")
    assert code == 0 and out.startswith("o1 = x^7 + 7*x^6*y + ")
    f = out[len("o1 = "):].strip()
    assert f.count(" + ") == 119
    code, out, err = run_script(
        ring + "f = %s;\nprint f - (x+y+z+1)^7;\n" % f)
    assert (code, out) == (0, "o1 = 0\n"), err


def test_text_and_json_print_the_same_normal_form():
    script = "ring R = QQ[x,y,z] / (x^2 - y*z);\nprint x^3 - x*y*z;\n"
    assert run_script(script) == (0, "o1 = 0\n", "")
    code, out, _ = run_script(script, json_mode=True)
    assert code == 0
    assert json.loads(out)["outputs"][0]["value"] == "0"


def test_text_and_json_print_the_same_numbers():
    script = "print 1/2;\nprint 4/2;\nprint 10^5000 / 10^4999;\nprint -7;\n"
    assert run_script(script) == (0, "o1 = 1/2\no2 = 2\no3 = 10\no4 = -7\n",
                                  "")
    code, out, _ = run_script(script, json_mode=True)
    assert code == 0
    assert [o["value"] for o in json.loads(out)["outputs"]] == [
        "1/2", "2", "10", "-7"]


def test_rational_scalars_widen_the_divisor_tier():
    code, out, _ = run_script(
        "ring R = QQ[x,y];\n"
        "D = divisor(x);\n"
        "print (2/2)*D; print D*(2/2); print D/1; print 3*D; print D*3;\n",
        json_mode=True)
    assert code == 0
    tiers = [o["value"]["tier"] for o in json.loads(out)["outputs"]]
    assert tiers == ["Q", "Q", "Q", "Z", "Z"]


def test_pullback_prints_the_tier_of_its_input():
    code, out, _ = run_script(
        "ring P = QQ[x,y];\n"
        "ring T = QQ[a,b];\n"
        "map f : P -> T = (a*b, b);\n"
        "use P;\n"
        "D = divisor(x*y);\n"
        "print pullback(f, D, strategy=primes);\n"
        "print pullback(f, D, strategy=sheaves);\n"
        "print pullback(f, toQWeil(D), strategy=primes);\n"
        "print pullback(f, toQWeil(D), strategy=sheaves);\n",
        json_mode=True)
    assert code == 0
    values = [o["value"] for o in json.loads(out)["outputs"]]
    assert [v["tier"] for v in values] == ["Z", "Z", "Q", "Q"]
    assert len({json.dumps(v["terms"]) for v in values}) == 1


def test_unbound_identifier_is_a_math_error():
    code, _, err = run_script("print missing;")
    assert code == 2
    assert "unbound" in err


def test_determinism_byte_identical():
    script = (
        "ring R = QQ[x,y,u,v] / (x*y - u*v);\n"
        "D = divisor{1: ideal(x,u), -2: ideal(x,v)};\n"
        "E = divisor(u);\n"
        "print 3*D + E;\n"
        "print OO(D);\n"
        "check isCartier(2*D);\n")
    runs = [run_script(script, json_mode=m) for m in (False, True)]
    runs2 = [run_script(script, json_mode=m) for m in (False, True)]
    assert runs == runs2


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_a_warm_process_prints_the_golden_bytes():
    """The benchmark's scripts, in text and JSON mode, run twice in one
    process: the first pass on cold packing tables, the second on the
    tables the first filled.  Both print the stdout and exit code recorded
    in perfbench/goldens.json; the two runs with no golden print the same
    bytes on both passes.  CI runs each script in a fresh process only."""
    with open(os.path.join(PERFBENCH, "goldens.json"), encoding="utf-8") as f:
        goldens = json.load(f)["cli_scripts"]
    engine._packing.cache_clear()
    first = {}
    for _ in range(2):
        for script in ("determinism.df", "schema.df", "geometry.df",
                       "refusal.df"):
            with open(os.path.join(PERFBENCH, "scripts", script),
                      encoding="utf-8") as f:
                text = f.read()
            for json_mode in (False, True):
                name = script + " --json" * json_mode
                code, out, _ = run_script(text, json_mode)
                got = (code, hashlib.sha256(out.encode()).hexdigest())
                assert got == first.setdefault(name, got), name
                if name in goldens:
                    assert got == (goldens[name]["exit"],
                                   goldens[name]["stdout_sha256"]), name
    assert set(goldens) < set(first)


def test_json_outputs_validate_against_schema():
    with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
        schema = json.load(handle)
    script = (
        "ring R = QQ[x,y,z] / (x^2 - y*z);\n"
        "D = divisor(ideal(x,y));\n"
        "check isCartier(D);\n"
        "print nonCartierLocus(D);\n"
        "print OO(D);\n"
        "print isQCartier(5, D);\n"
        "print mapToProjectiveSpace(2*D);\n"
        "print 1/2*D;\n"
        "print x + y;\n"
        "print R;\n")
    code, out, _ = run_script(script, json_mode=True)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert len(doc["outputs"]) == 8


CONE = "ring R = QQ[x,y,z] / (x^2 - y*z);\nD = divisor(ideal(x,y));\n" \
    "F = OO(D);\n"

# (expression, the library call it maps to on the cone, with D = Div(x, y)
# and F = O(D))
CALLS = [
    ("reflexify(F)", lambda R, F: F.reflexive_hull()),
    ("reflexify(ideal(x,y))", lambda R, F: reflexify(ideal(R, "x", "y"))),
    ("reflexify(x)", lambda R, F: reflexify(ideal(R, "x"))),
    ("divisor(F)",
     lambda R, F: divisor_of_fractional_ideal(F, graded=False)),
    ("divisor(F, section=y)",
     lambda R, F: divisor_with_section(F, polynomial(R, "y"))),
    ("divisorOf(F, true)",
     lambda R, F: divisor_of_fractional_ideal(F, graded=True)),
    ("canonicalDivisor()", lambda R, F: canonical_divisor(R)),
    ("F*F", lambda R, F: F.product(F)),
    ("F^2", lambda R, F: F.power(2)),
    ("F^(-1)", lambda R, F: F.power(-1)),
    ("x*ideal(y)", lambda R, F: ideal(R, "x") * ideal(R, "y")),
    ("ideal(y)*x", lambda R, F: ideal(R, "y") * ideal(R, "x")),
    ("true", lambda R, F: True),
]


@pytest.mark.parametrize("expression, call", CALLS,
                         ids=[e for e, _ in CALLS])
def test_script_calls_print_their_library_call(expression, call):
    """Each call prints, in text and in schema-valid JSON, exactly what the
    library call it maps to renders as."""
    with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
        schema = json.load(handle)
    R = QuotientRing(("x", "y", "z"), ("x^2 - y*z",))
    F = sheaf_of(WeilDivisor.of_ideal(ideal(R, "x", "y")))
    want = call(R, F)
    record = {"index": 1, "kind": "print", "line": 4, "column": 1,
              "result": want}
    for json_mode in (False, True):
        got = run_script(CONE + "print %s;\n" % expression, json_mode)
        assert got == (0, render_outputs([record], json_mode), "")
    jsonschema.validate(json.loads(got[1]), schema)


def test_printed_ring_map_names_both_rings():
    code, out, _ = run_script(
        "ring R = QQ[x,y,z] / (x*y - z^2);\n"
        "map f : R -> R = (y, x, z);\n"
        "print f;\n")
    assert (code, out) == (0, "o1 = map(QQ[x,y,z]/(x*y - z^2) -> "
                              "QQ[x,y,z]/(x*y - z^2), {y, x, z})\n")


def test_divisor_of_the_unit_ideal_is_zero():
    code, out, _ = run_script(
        "ring R = QQ[x,y,z] / (x*y - z^2);\n"
        "print divisor(ideal(x, 1 - x));\n"
        "print 1 - x;\n")
    assert (code, out) == (0, "o1 = 0\no2 = -x + 1\n")


def test_divisor_of_a_sheaf_is_its_divisor_in_both_modes():
    """divisorOf(OO(D)) and divisor(OO(D)) print D, graded or not."""
    code, out, _ = run_script(
        "ring R = QQ[x,y,u,v] / (x*y - u*v);\n"
        "D = divisor{2: ideal(x,u), -1: ideal(x,v)};\n"
        "print D;\nprint divisorOf(OO(D));\nprint divisor(OO(D));\n"
        "print divisorOf(OO(D), true);\n"
        "print divisor(OO(D), graded=true);\n")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 5
    assert len({line.split(" = ", 1)[1] for line in lines}) == 1, out


# -- exit codes ---------------------------------------------------------------

def test_exit_code_parse_error():
    code, _, err = run_script("ring R = QQ[x,;\n")
    assert code == 1
    assert "parse error" in err


def test_exit_code_math_error():
    code, _, err = run_script(
        "ring R = QQ[x,y];\nD = divisor(x/0);\n")
    assert code == 2


def test_exit_code_decomposition_incomplete():
    code, _, err = run_script(
        "ring R = QQ[x,y,z,w];\n"
        "D = divisor(ideal(x*z - y^2, y*w - z^2, x*w - y*z));\n")
    assert code == 3
    assert "certify" in err


def test_console_entry_point_subprocess(tmp_path):
    script = tmp_path / "session.df"
    script.write_text(
        "ring R = QQ[x,y,z] / (x*y - z^2);\n"
        "D = divisor(ideal(x,z));\n"
        "print divisorOf(OO(D), graded=true);\n")
    proc = subprocess.run(
        [sys.executable, "-m", "divisor_forge.cli", "run", str(script)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Div(" in proc.stdout


def test_repl_smoke():
    from divisor_forge.cli import repl

    stdin = io.StringIO(
        "ring R = QQ[x,y];\n"
        "print divisor(x*y);\n"
        "print broken;\n"
        "print divisor(x);\n"
        "quit;\n")
    out = io.StringIO()
    err = io.StringIO()
    assert repl(stdin=stdin, out=out, err=err) == 0
    text = out.getvalue()
    # errors do not kill the session
    assert "unbound" in err.getvalue()
    assert text.count("o") >= 2
