"""Exception types shared across the package.

Every error the engine raises deliberately derives from DpcalcError so the
CLI can map them to exit codes without catching Exception.
"""


class DpcalcError(Exception):
    pass


class InvalidArgument(DpcalcError, ValueError):
    """A well-formed value outside the range an operation accepts."""


# local field arithmetic

class InvalidPrime(DpcalcError):
    pass


class PrecisionExhausted(DpcalcError):
    """No significant digit of the requested quantity is determined."""


# symbolic ring

class NotInvertibleInA(DpcalcError):
    pass


# presburger summation

class NotSummable(DpcalcError):
    pass


class OverlapDetected(DpcalcError):
    pass


# formula layer

class ParseError(DpcalcError):
    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return "line %d, column %d: %s" % (self.line, self.column, base)
        return base


class SortError(ParseError):
    """A term or variable was used at the wrong sort."""


class UnboundVariable(DpcalcError):
    pass


# enumeration budget

class BudgetExceeded(DpcalcError):
    pass


# motivic layer

class DuplicateCenter(DpcalcError):
    pass


class UnsupportedZeroCell(DpcalcError):
    pass


class BadPrime(DpcalcError):
    pass


class UnboundParameter(DpcalcError):
    pass


class UnsupportedFeature(DpcalcError):
    """Input is valid but outside the implemented fragment."""
