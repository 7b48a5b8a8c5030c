"""Exception hierarchy shared across the package."""


class QghaError(Exception):
    """Base class for all errors raised by this package; `exit_code` is the
    CLI exit status: 2 input parsing, 3 precondition or regime, 4 capacity,
    5 internal error."""

    exit_code = 3


class InvalidArgument(QghaError, ValueError):
    """An argument outside the domain its function documents, such as a
    negative exponent; a ValueError too, for callers that catch that."""

    exit_code = 2


class NotPrime(QghaError):
    """A prime-field modulus failed the primality check."""

    exit_code = 2


class FieldMismatch(QghaError):
    """Operands live over different ground fields."""


class DivisionByZero(QghaError, ZeroDivisionError):
    """Exact division by zero or inversion of zero."""


class ZeroInput(QghaError):
    """An operation required a nonzero scalar input."""


class ZeroScale(QghaError):
    """An affine or scaling parameter that must be invertible was zero."""


class ZeroPolynomial(QghaError):
    """An operation required a nonzero polynomial."""


class CapacityExceeded(QghaError):
    """A degree or search bound was exceeded; see the capacity module."""

    exit_code = 4


class InternalError(QghaError):
    """A computed result failed its own certificate: a bug in this package,
    not a property of the input."""

    exit_code = 5


class AlgebraMismatch(QghaError):
    """Elements of different algebra presentations were combined."""


class DegenerateAlgebra(QghaError):
    """Leading-term arithmetic needs q != 0 and nonconstant f."""


class PreconditionViolated(QghaError):
    """The operation's regime precondition does not hold."""


class NoFixedPointInField(QghaError):
    """f - h has no root in the ground field, so the ideal-chain witness
    cannot be built without a base change."""


class WrongDegree(QghaError):
    """The polynomial degree is outside the operation's allowed range."""


class UnsupportedRegime(QghaError):
    """The decision procedure only covers q != 0 and deg f >= 2."""


class NonSplitQuadratic(QghaError):
    """h^2 - alpha*h - beta has no roots in the ground field."""


class SchemaError(QghaError):
    """An algebra description file does not match the expected schema."""

    exit_code = 2


class ParseError(QghaError):
    """Element-expression parsing failed; carries the offending position."""

    exit_code = 2

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LexError(ParseError):
    """Unexpected character in an element expression."""


class ExprSyntaxError(ParseError):
    """Token stream violates the element-expression grammar."""
