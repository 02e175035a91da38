"""Exception types shared across the package."""


class BicommError(Exception):
    """Base class for all errors raised by this package."""


class InvalidField(BicommError):
    """Field specification is malformed or the modulus is not prime."""


class FieldMismatch(BicommError):
    """Two operands belong to different coefficient fields."""


class DivisionByZero(BicommError, ZeroDivisionError):
    """Inversion or division by the zero scalar."""


class ParseError(BicommError):
    """Syntax error in a textual expression.

    Carries a 1-based line and column of the offending token.
    """

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class AmbiguousProduct(ParseError):
    """Product chain of three or more factors without parentheses."""


class BadIndex(ParseError):
    """Variable index outside the allowed range (indices start at 1)."""


class BadElement(BicommError):
    """Element does not satisfy a precondition (e.g. not purely quadratic)."""


class NoWeight(BicommError):
    """Weight requested for an element with empty quadratic part."""


class InvalidIndexMap(BicommError):
    """Index map is not strictly increasing or misses an occurring index."""


class NotDominated(BicommError):
    """Target monomial does not dominate the source weight in the embedding order."""


class WindowTooSmall(BicommError):
    """Closure window cannot accommodate the requested data."""


class UnsupportedGenerator(BicommError):
    """Generator violates the preconditions of the requested operation."""


class BadChain(BicommError):
    """Chain input is not cumulative (some step drops earlier generators)."""


class NotMultilinear(BicommError):
    """Polynomial is not multilinear in x1..xn as required by the mode."""


class BadAlgebra(BicommError):
    """Structure-algebra description is malformed (e.g. JSON lacks a key)."""


class WrongCharacteristic(BicommError):
    """Operation requires a specific field characteristic."""
