"""README's examples run, and say what they do.

The Python quickstart is executed and each claim in its comments is
checked against the value of its line; the `text` script block runs
through the CLI without an error.
"""

import io
import os
import re

from divisor_forge.cli import run_text

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def block(language):
    with open(README, "r", encoding="utf-8") as handle:
        readme = handle.read()
    return re.search(r"```%s\n(.*?)```" % language, readme, re.S).group(1)


def test_python_quickstart_claims():
    code = block("python")
    ns = {}
    exec(code, ns)
    D = ns["D"]
    # the code of a line, its comment's first word and the value it claims
    claims = [
        ("is_cartier(D)", "false:", False),
        ("is_cartier(2 * D)", "true", True),
        ("is_q_cartier(5, D)", "2", 2),
        ("divisor_of_fractional_ideal(F)", "D", D),
        ("divisor_of_fractional_ideal(F, graded=True)", "D", D),
    ]
    comments = {}
    for line in code.splitlines():
        source, _, comment = line.partition("#")
        if source.strip() and comment:
            comments[source.strip()] = comment.split()[0]
    for line, word, value in claims:
        assert comments[line] == word, line
        got = eval(line, ns)
        if isinstance(value, bool):
            got = bool(got)
        assert got == value, line


def test_script_example_runs():
    out, err = io.StringIO(), io.StringIO()
    assert run_text(block("text"), out=out, err=err) == 0, err.getvalue()
    assert out.getvalue().count("\n") == 3
