"""Exception hierarchy for divisor_forge."""


def caret_excerpt(text, line, column):
    """The source line of text at line, and a caret under column; empty
    when there is no such line."""
    try:
        src = text.splitlines()[line - 1]
    except IndexError:
        return ""
    return src + "\n" + " " * (column - 1) + "^"


class DivisorForgeError(Exception):
    """Base class for all library errors.

    A script run locates the error at the token or statement that failed
    (`locate` sets `line`, `column` and `excerpt`), keeping the exception's
    type; the message then starts with the location and ends with the
    excerpt.
    """

    line = column = excerpt = None

    def locate(self, text, line, column):
        """Set the location to line:column of text unless one is set; return
        the error."""
        if self.line is None:
            self.line, self.column = line, column
            self.excerpt = caret_excerpt(text, line, column)
        return self

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            base = "%d:%d: %s" % (self.line, self.column, base)
        if self.excerpt:
            base += "\n" + self.excerpt
        return base


class Refusal(DivisorForgeError):
    """A computation declined instead of answered; a script run exits 3."""


class RingMismatch(DivisorForgeError):
    """Operands belong to different rings."""


class HeightNotOne(DivisorForgeError):
    """An ideal expected to be a height-one prime has the wrong height."""


class PrimalityUncertain(DivisorForgeError):
    """An ideal given as a prime is shown not prime, or cannot be certified."""


class DecompositionIncomplete(Refusal):
    """The splitting procedure could neither split nor certify a component.

    Raised instead of ever returning a possibly-wrong decomposition.
    """


class NonIntegralCoercion(DivisorForgeError):
    """Attempted to coerce a divisor with non-integer coefficients to integer tier."""


class NoSolution(DivisorForgeError):
    """The linear diophantine system for the requested multidegree has no solution."""


class NotCompleteIntersection(DivisorForgeError):
    """The defining ideal is not generated by a regular sequence."""


class GradingNotPositive(DivisorForgeError):
    """Graded operation requested on a ring whose grading is not positive."""


class FactorDegreeExceeded(Refusal):
    """Multivariate factorization refused: substituted degree above the cap."""


class FactorCoefficientsExceeded(Refusal):
    """Factorization by sympy refused: a coefficient above the bit cap."""


class WorkExceeded(Refusal):
    """Engine work past the budget a caller set (engine.work_budget)."""


class ScriptError(DivisorForgeError):
    """Error while parsing or evaluating a script or an expression."""


class ParseError(ScriptError):
    """Syntax error in a script or polynomial expression."""
