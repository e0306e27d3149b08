"""Exception hierarchy shared by all quasiform modules."""


class QuasiformError(Exception):
    """Base class for all library errors."""


class DivisionByZero(QuasiformError, ZeroDivisionError):
    """Division by the zero polynomial, rational function, or tower element."""


class UnknownVariable(QuasiformError):
    """A variable name that is not declared in the relevant context."""


class NameCollision(QuasiformError):
    """A new variable or generator name clashes with an existing one."""


class IsSquare(QuasiformError):
    """An inseparable extension was requested with a square theta."""


class ZeroElement(QuasiformError):
    """A nonzero element was required (inversion, extension data)."""


class TowerDepthExceeded(QuasiformError):
    """The configured inseparable tower depth limit would be exceeded."""


class ZeroGenerator(QuasiformError):
    """A generator list for semilinear rank contains a zero element."""


class DimensionMismatch(QuasiformError):
    """Two forms have incompatible dimensions for the requested operation."""


class BadCodimension(QuasiformError):
    """Requested generic subform codimension out of range."""


class IsotropicInput(QuasiformError):
    """An anisotropic form was required."""


class DimensionTooSmall(QuasiformError):
    """The form dimension is too small for the requested construction."""


class EmbeddingFailure(QuasiformError):
    """No structural name-preserving embedding exists between two towers."""


class NotRuled(QuasiformError):
    """The quadric has first Witt index 1 and admits no ruling."""


class InconsistencyDetected(QuasiformError):
    """Two independently computed answers disagree; indicates a library bug."""


class ZeroSlot(QuasiformError):
    """A quasi-Pfister slot entry is zero."""


class IndexMismatch(QuasiformError):
    """Albert multiplication received vectors over different slot sets."""


class BadDecomposition(QuasiformError):
    """A neighbor ruling decomposition request is malformed."""


class DslSyntaxError(QuasiformError):
    """Script syntax error, with 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ZeroCoefficient(QuasiformError):
    """A diagonal coefficient in a script evaluates to zero."""


class UndeclaredVariable(QuasiformError):
    """A script expression uses a variable the field declaration lacks."""


class ResourceLimit(QuasiformError):
    """A resource limit was exceeded: the time budget, the largest
    exponent a polynomial holds (`gf2poly.MAX_EXPONENT`), or the most
    terms a script coefficient holds (`dsl.MAX_TERMS`)."""
