"""Exception types shared across the package."""


class PolyharmError(Exception):
    """Base class for all package-specific errors."""


class NonHarmonicComponent(PolyharmError):
    """A component of an Almansi form has a mixed z/zbar monomial."""


class NotAnalytic(PolyharmError):
    """An operation requiring an analytic input received a zbar term."""


class InternalInconsistency(PolyharmError):
    """A finite witness search exhausted without finding a violation.

    This should be impossible when the implemented theorems are correct,
    so it is raised loudly instead of being swallowed.
    """


class UnknownSuite(PolyharmError):
    """run_suite was called with a suite name it does not know."""


class IntegerTooLong(PolyharmError, ValueError):
    """An integer in a result has more digits than Python converts to text.

    The limit is sys.get_int_max_str_digits(); the interpreter-wide
    setting is left as it is.
    """


class FloatOverflow(PolyharmError, OverflowError):
    """A value a floating-point check needs lies beyond the range of a double."""


class ParseError(PolyharmError):
    """Rejected input text, with the byte offset and the expected tokens."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = tuple(sorted(expected))
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class DivisionByZero(ParseError):
    """A rational literal with a zero denominator."""

    def __init__(self, position: int):
        super().__init__("division by zero in rational literal", position)
