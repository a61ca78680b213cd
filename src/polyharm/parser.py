"""Text grammar for mappings, round-tripping with canonical printing.

Grammar (whitespace insignificant):

    expr     := ["-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" uint)?
    atom     := "z" | "zbar" | "i" | rational
              | "conj" "(" expr ")" | "abs2" "(" expr ")" | "(" expr ")"
    rational := uint ("/" uint)?

There is no unary minus node: a leading "-" is binary subtraction with an
implicit 0 on the left.  Implicit multiplication ("2z") is rejected.
Rejections carry a byte offset and the set of expected tokens.

While parsing, each node carries upper bounds of its degrees in z and in
zbar.  A "^", "*" or "abs2" whose result could hold more than TERM_BUDGET
terms, (deg_z + 1) * (deg_zbar + 1) by those bounds, is rejected at its
offset before anything is built.  A "(", "conj(" or "abs2(" nested more
than NESTING_LIMIT levels deep is rejected at its offset, so recursion
depth stays bounded: sums and products are loops, only brackets and calls
recurse.
"""

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .bipoly import BiPoly, GR_I, canonical_print
from .errors import DivisionByZero, ParseError

# (1+z+zbar)^63 is the largest power of that trinomial within the budget.
TERM_BUDGET = 4096

# Each level costs at most four frames in the parser and four in lower(),
# well inside Python's default recursion limit of 1000.
NESTING_LIMIT = 100

# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Add:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Sub:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Mul:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Conj:
    operand: "ExprAst"


@dataclass(frozen=True)
class Abs2:
    operand: "ExprAst"


@dataclass(frozen=True)
class VarZ:
    pass


@dataclass(frozen=True)
class VarZbar:
    pass


@dataclass(frozen=True)
class ImagUnit:
    pass


@dataclass(frozen=True)
class RationalLit:
    value: Fraction


ExprAst = Union[Add, Sub, Mul, Pow, Conj, Abs2, VarZ, VarZbar, ImagUnit, RationalLit]

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

    # Each parse_* returns (node, (deg_z bound, deg_zbar bound)).

    def parse_expr(self) -> tuple[ExprAst, tuple[int, int]]:
        if self.peek().kind == "-":
            self.advance()
            right, degrees = self.parse_term()
            node: ExprAst = Sub(RationalLit(Fraction(0)), right)
        else:
            node, degrees = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right, (dz, dzbar) = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
            degrees = (max(degrees[0], dz), max(degrees[1], dzbar))
        return node, degrees

    def parse_term(self) -> tuple[ExprAst, tuple[int, int]]:
        node, degrees = self.parse_factor()
        while self.peek().kind == "*":
            star = self.advance()
            right, (dz, dzbar) = self.parse_factor()
            node = Mul(node, right)
            degrees = self.check_budget(star, (degrees[0] + dz, degrees[1] + dzbar))
        return node, degrees

    def parse_factor(self) -> tuple[ExprAst, tuple[int, int]]:
        node, degrees = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            n = _int_value(self.expect("int", "integer exponent"))
            node = Pow(node, n)
            degrees = self.check_budget(caret, (degrees[0] * n, degrees[1] * n))
        return node, degrees

    def parse_atom(self) -> tuple[ExprAst, tuple[int, int]]:
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
            return RationalLit(Fraction(num, den)), (0, 0)
        if tok.kind == "z":
            self.advance()
            return VarZ(), (1, 0)
        if tok.kind == "zbar":
            self.advance()
            return VarZbar(), (0, 1)
        if tok.kind == "i":
            self.advance()
            return ImagUnit(), (0, 0)
        if tok.kind in ("conj", "abs2", "("):
            self.advance()
            if tok.kind != "(":
                self.expect("(")
            if self.depth == NESTING_LIMIT:
                raise ParseError(f"{tok.text!r} nests deeper than {NESTING_LIMIT} levels", tok.position)
            self.depth += 1
            inner, (dz, dzbar) = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            if tok.kind == "conj":
                return Conj(inner), (dzbar, dz)
            if tok.kind == "abs2":
                return Abs2(inner), self.check_budget(tok, (dz + dzbar, dz + dzbar))
            return inner, (dz, dzbar)
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.position,
            _ATOM_EXPECTED,
        )


def parse_ast(text: str) -> ExprAst:
    """Parse text to an ExprAst, or raise ParseError with a byte offset."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"unexpected {trailing.text!r} after expression",
            trailing.position,
            ("+", "-", "*", "^", "end of input"),
        )
    return node


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def lower(node: ExprAst) -> BiPoly:
    """Evaluate an ExprAst to a BiPoly by exact ring operations.

    A chain of Add, Sub and Mul nodes is walked down .left in a loop and
    recursion is only on .right and on operands, so a long sum or product
    costs no stack depth.
    """
    chain = []
    while type(node) in _BINARY:
        chain.append(node)
        node = node.left
    if isinstance(node, Pow):
        out = lower(node.base) ** node.exponent
    elif isinstance(node, Conj):
        out = lower(node.operand).conjugate()
    elif isinstance(node, Abs2):
        inner = lower(node.operand)
        out = inner * inner.conjugate()
    elif isinstance(node, VarZ):
        out = BiPoly.z()
    elif isinstance(node, VarZbar):
        out = BiPoly.zbar()
    elif isinstance(node, ImagUnit):
        out = BiPoly.constant(GR_I)
    elif isinstance(node, RationalLit):
        out = BiPoly.constant(node.value)
    else:
        raise TypeError(f"unknown AST node {node!r}")
    for op in reversed(chain):
        out = _BINARY[type(op)](out, lower(op.right))
    return out


def parse(text: str) -> BiPoly:
    """Parse the grammar above down to a canonical BiPoly."""
    return lower(parse_ast(text))


def unparse(f: BiPoly) -> str:
    """Canonical text for f; parse(unparse(f)) == f for every f."""
    return canonical_print(f)
