"""Checks of polyharm's text output that do not use polyharm.

The expression grammar of polyharm (``z``, ``zbar``, ``i``, rationals,
``+ - * ^``, ``conj(...)``, ``abs2(...)``) is translated token by token into
a Python expression over the small exact Gaussian-rational type below, and
evaluated at Gaussian-integer points, where ``zbar`` is the conjugate of
``z``.  Input text and printed output can then be compared exactly without
trusting the program's own parser, printer or arithmetic.  At a nonzero
point, changing any one coefficient of a printed polynomial changes its
value, so a single wrong coefficient is always caught.
"""

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|(zbar|z|i|conj|abs2)|([-+*/^()]))")
_NAMES = {"z": "Z", "zbar": "ZB", "i": "I", "conj": "_conj", "abs2": "_abs2"}


class GQ:
    """Exact complex number re + im*i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(value) -> "GQ":
        return value if isinstance(value, GQ) else GQ(value)

    def __add__(self, other):
        other = GQ.lift(other)
        return GQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GQ.lift(other)
        return GQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GQ.lift(other) - self

    def __mul__(self, other):
        other = GQ.lift(other)
        return GQ(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = GQ(1)
        for _ in range(n):
            out = out * self
        return out

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __eq__(self, other):
        other = GQ.lift(other)
        return self.re == other.re and self.im == other.im

    def conjugate(self):
        return GQ(self.re, -self.im)

    def __repr__(self):
        return f"({self.re} + {self.im}*i)"


_SCOPE = {
    "__builtins__": {},
    "I": GQ(0, 1),
    "Q": Fraction,
    "_conj": lambda v: GQ.lift(v).conjugate(),
    "_abs2": lambda v: v * GQ.lift(v).conjugate(),
}

# Gaussian-integer points at which mappings are compared.
POINTS = (GQ(2, 1), GQ(-1, 3))


class OracleError(ValueError):
    """The text is not in the expression grammar."""


def _compile(text: str):
    pieces = []
    pos = 0
    stripped = text.rstrip()
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if m is None or m.end() == pos:
            raise OracleError(f"unexpected text at offset {pos} in {text!r}")
        number, name, symbol = m.groups()
        if number is not None:
            # Exponents stay Python ints; every other number is exact.
            pieces.append(number if pieces and pieces[-1] == "**" else f"Q({number})")
        elif name is not None:
            pieces.append(_NAMES[name])
        else:
            pieces.append("**" if symbol == "^" else symbol)
        pos = m.end()
    try:
        return compile(" ".join(pieces), "<expr>", "eval")
    except SyntaxError as exc:
        raise OracleError(f"not an expression: {text!r} ({exc.msg})") from None


def evaluate(text: str, point: GQ) -> GQ:
    """Exact value of the mapping written as text at z = point."""
    return GQ.lift(eval(_compile(text), {**_SCOPE, "Z": point, "ZB": point.conjugate()}))


def same_mapping(text: str, expected) -> str | None:
    """None if text equals expected(point) at every point, else why not."""
    for w in POINTS:
        try:
            got = evaluate(text, w)
        except (OracleError, ArithmeticError) as exc:
            return f"could not evaluate output: {exc}"
        want = expected(w)
        if got != want:
            return f"at z={w!r}: got {got!r}, expected {want!r}"
    return None


# --- univariate helpers for closed forms -------------------------------------


def poly_mul(a: list, b: list) -> list:
    """Product of two coefficient lists (lowest degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = x * y + out[i + j]
    return out


def poly_pow(a: list, n: int) -> list:
    out = [1]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def poly_derivative(a: list, times: int) -> list:
    for _ in range(times):
        a = [k * c for k, c in enumerate(a)][1:] or [0]
    return a


def poly_eval(a: list, w):
    total = 0
    for c in reversed(a):
        total = c + total * w
    return total
