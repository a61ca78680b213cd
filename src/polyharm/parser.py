"""Text grammar for mappings, round-tripping with canonical printing.

Grammar (whitespace insignificant):

    expr     := ["-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" uint)?
    atom     := "z" | "zbar" | "i" | rational
              | "conj" "(" expr ")" | "abs2" "(" expr ")" | "(" expr ")"
    rational := uint ("/" uint)?

Implicit multiplication ("2z") is rejected.  Rejections carry a byte
offset and the set of expected tokens.

parse_ast reads the whole text into a postfix program before any
arithmetic, so a syntax error anywhere is reported without building
anything.  The program is a flat list in which each item follows its
operands: a BiPoly leaf (z, zbar, i or a rational literal), one of the
operators "+", "-", "*", "conj" and "abs2", or an int n for "^n".  There
is no unary minus: a leading "-" is emitted as 0, the term, then "-".
lower runs the program on a stack in one loop.

While parsing, each subexpression carries upper bounds of its degrees in
z and in zbar.  A "^", "*" or "abs2" whose result could hold more than
TERM_BUDGET terms, (deg_z + 1) * (deg_zbar + 1) by those bounds, is
rejected at its offset.  A "(", "conj(" or "abs2(" nested more than
NESTING_LIMIT levels deep is rejected at its offset.  Only the parser
recurses, and only on brackets and calls: sums and products are loops,
and lower does not recurse at all.
"""

import operator
import sys
from fractions import Fraction
from typing import NamedTuple

from .bipoly import BiPoly, GR_I
from .errors import DivisionByZero, ParseError

# (1+z+zbar)^63 is the largest power of that trinomial within the budget.
TERM_BUDGET = 4096

# Each level costs at most four parser frames, well inside Python's
# default recursion limit of 1000.
NESTING_LIMIT = 100

# Leaves shared by every program, with their degree bounds; BiPoly values
# are immutable.
_ZERO = BiPoly.zero()
_LEAVES = {
    "z": (BiPoly.z(), (1, 0)),
    "zbar": (BiPoly.zbar(), (0, 1)),
    "i": (BiPoly.constant(GR_I), (0, 0)),
}

# --- Lexer -----------------------------------------------------------------

_KEYWORDS = ("z", "zbar", "i", "conj", "abs2")
_SYMBOLS = "+-*/^()"


class _Token(NamedTuple):
    kind: str  # "int", one of the keywords, a symbol, or "end"
    text: str
    position: int  # byte offset into the source


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    n = len(text)
    idx = 0
    # pos is the byte offset of text[mark]; it is carried forward token by
    # token, so each character is encoded once.
    mark = pos = 0
    while idx < n:
        ch = text[idx]
        if ch.isspace():
            idx += 1
            continue
        pos += len(text[mark:idx].encode("utf-8"))
        mark = idx
        # isdecimal, not isdigit: "²" is a digit that int() does not read.
        if ch.isdecimal():
            start = idx
            while idx < n and text[idx].isdecimal():
                idx += 1
            tokens.append(_Token("int", text[start:idx], pos))
            continue
        if ch.isalpha():
            start = idx
            while idx < n and (text[idx].isalnum() or text[idx] == "_"):
                idx += 1
            word = text[start:idx]
            if word not in _KEYWORDS:
                raise ParseError(f"unknown name {word!r}", pos, _KEYWORDS)
            tokens.append(_Token(word, word, pos))
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, pos))
            idx += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", pos + len(text[mark:].encode("utf-8"))))
    return tokens


# --- Recursive descent -----------------------------------------------------

_ATOM_EXPECTED = ("(", "abs2", "conj", "i", "integer", "z", "zbar")


def _int_value(tok: _Token) -> int:
    """The value of an integer token; a ParseError at it past the int/str digit limit."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(tok.text)} digits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits",
            tok.position,
        ) from None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open "(", "conj(" and "abs2(" around the current token
        self.program: list[BiPoly | str | int] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, label: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.position,
                (label or kind,),
            )
        return self.advance()

    def check_budget(self, tok: _Token, degrees: tuple[int, int]) -> tuple[int, int]:
        """degrees, or a ParseError at tok when they could exceed TERM_BUDGET terms."""
        size = (degrees[0] + 1) * (degrees[1] + 1)
        if size > TERM_BUDGET:
            raise ParseError(
                f"{tok.text!r} could give up to {size} terms, over the budget of {TERM_BUDGET}",
                tok.position,
            )
        return degrees

    # Each parse_* appends its postfix code to self.program and returns
    # (deg_z bound, deg_zbar bound).

    def parse_expr(self) -> tuple[int, int]:
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
            self.program.append(_ZERO)
        degrees = self.parse_term()
        if negate:
            self.program.append("-")
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            dz, dzbar = self.parse_term()
            self.program.append(op)
            degrees = (max(degrees[0], dz), max(degrees[1], dzbar))
        return degrees

    def parse_term(self) -> tuple[int, int]:
        degrees = self.parse_factor()
        while self.peek().kind == "*":
            star = self.advance()
            dz, dzbar = self.parse_factor()
            self.program.append("*")
            degrees = self.check_budget(star, (degrees[0] + dz, degrees[1] + dzbar))
        return degrees

    def parse_factor(self) -> tuple[int, int]:
        degrees = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            n = _int_value(self.expect("int", "integer exponent"))
            self.program.append(n)
            degrees = self.check_budget(caret, (degrees[0] * n, degrees[1] * n))
        return degrees

    def parse_atom(self) -> tuple[int, int]:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num, den = _int_value(tok), 1
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("int", "integer denominator")
                den = _int_value(den_tok)
                if den == 0:
                    raise DivisionByZero(den_tok.position)
            self.program.append(BiPoly.constant(Fraction(num, den)))
            return (0, 0)
        if tok.kind in _LEAVES:
            self.advance()
            leaf, degrees = _LEAVES[tok.kind]
            self.program.append(leaf)
            return degrees
        if tok.kind in ("conj", "abs2", "("):
            self.advance()
            if tok.kind != "(":
                self.expect("(")
            if self.depth == NESTING_LIMIT:
                raise ParseError(f"{tok.text!r} nests deeper than {NESTING_LIMIT} levels", tok.position)
            self.depth += 1
            dz, dzbar = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            if tok.kind == "(":
                return (dz, dzbar)
            self.program.append(tok.kind)
            if tok.kind == "conj":
                return (dzbar, dz)
            return self.check_budget(tok, (dz + dzbar, dz + dzbar))
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.position,
            _ATOM_EXPECTED,
        )


def parse_ast(text: str) -> list[BiPoly | str | int]:
    """Parse text to a postfix program, or raise ParseError with a byte offset.

    Each item of the program follows its operands: a BiPoly leaf, one of
    the operators "+", "-", "*", "conj" and "abs2", or an int n for "^n".
    """
    parser = _Parser(_tokenize(text))
    parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"unexpected {trailing.text!r} after expression",
            trailing.position,
            ("+", "-", "*", "^", "end of input"),
        )
    return parser.program


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def lower(program: list[BiPoly | str | int]) -> BiPoly:
    """Run a postfix program on a stack to a BiPoly by exact ring operations."""
    stack = []
    for item in program:
        if isinstance(item, BiPoly):
            stack.append(item)
        elif isinstance(item, int):
            stack[-1] = stack[-1] ** item
        elif item == "conj":
            stack[-1] = stack[-1].conjugate()
        elif item == "abs2":
            inner = stack[-1]
            stack[-1] = inner * inner.conjugate()
        else:
            right = stack.pop()
            stack[-1] = _BINARY[item](stack[-1], right)
    (out,) = stack
    return out


def parse(text: str) -> BiPoly:
    """Parse the grammar above down to a canonical BiPoly."""
    return lower(parse_ast(text))

