"""Printing parsed scripts back as script text, for the round-trip checks
of the CLI tests and the script fuzzer: the text parses back to the same
tree, with parentheses only where the grammar needs them."""

from divisor_forge.errors import DivisorForgeError


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
