"""Text grammar for mappings, round-tripping with canonical printing.

The grammar is GRAMMAR below, which the CLI's --help prints; whitespace
is insignificant.  Implicit multiplication ("2z") is rejected.
Rejections carry a UTF-8 byte offset and the set of expected tokens.

The lexer reads the text into plain (kind, text, index) tuples, where the
index counts characters; the parser reads that list by index.  A
ParseError turns its token's index into the byte offset once, when it is
raised, so no token encodes anything.

parse_ast reads the whole text into a postfix program before any
arithmetic, so a syntax error anywhere is reported without building
anything.  The program is a flat list in which each item follows its
operands: a BiPoly leaf (z, zbar, i or a rational literal), one of the
operators "+", "-", "*", "conj" and "abs2", or an int n for "^n".  There
is no unary minus: a leading "-" is emitted as 0, the term, then "-".
lower runs the program on a stack in one loop.

While parsing, each subexpression carries upper bounds of its degrees in
z and in zbar, and of its coefficient size: h and e such that, over the
subexpression's common denominator den <= 2^e, the sum of |re| + |im|
over its numerators is at most 2^h.  That sum bounds every numerator
part, and it is submultiplicative, so a product adds the bounds and a
power multiplies them; a sum of k terms, taken over the product of their
denominators, adds ceil(log2 k) to its largest scaled term.  The growth
from term counts is inside these bounds.  A "^", "*" or "abs2" whose
result could hold more than TERM_BUDGET terms, (deg_z + 1) * (deg_zbar +
1) by those bounds, is rejected at its offset; so, checked next, is one
whose numerators or denominator could be longer than COEFF_BIT_BUDGET
bits.  A "(", "conj(" or "abs2(" nested more than NESTING_LIMIT levels
deep is rejected at its offset.  Only the parser recurses, and only on
brackets and calls: sums and products are loops, and lower does not
recurse at all.
"""

import operator
import re
import sys

from .bipoly import BiPoly, GR_I, _reduced
from .errors import DivisionByZero, ParseError

GRAMMAR = """\
expr     := ["-"] term (("+" | "-") term)*
term     := factor ("*" factor)*
factor   := atom ("^" uint)?
atom     := "z" | "zbar" | "i" | rational
          | "conj" "(" expr ")" | "abs2" "(" expr ")" | "(" expr ")"
rational := uint ("/" uint)?
"""

# (1+z+zbar)^63 is the largest power of that trinomial within the budget.
TERM_BUDGET = 4096

# (3^1000)^1000 is bounded by 2,000,001 bits and parses; 3^10000000 does not.
COEFF_BIT_BUDGET = 1 << 21

# Each level costs at most four parser frames, well inside Python's
# default recursion limit of 1000.
NESTING_LIMIT = 100

# Leaves shared by every program, with their bounds (deg_z, deg_zbar, h, e);
# BiPoly values are immutable.
_ZERO = BiPoly.zero()
_LEAVES = {
    "z": (BiPoly.z(), (1, 0, 0, 0)),
    "zbar": (BiPoly.zbar(), (0, 1, 0, 0)),
    "i": (BiPoly.constant(GR_I), (0, 0, 0, 0)),
}

# --- Lexer -----------------------------------------------------------------

_KEYWORDS = ("z", "zbar", "i", "conj", "abs2")
# A keyword or symbol token is its own kind.
_NAMED = frozenset(_KEYWORDS + tuple("+-*/^()"))
# A run of whitespace, of decimal digits (as str.isdecimal reads them: "²"
# is a digit that int() does not read), of word characters, or one other
# character.
_LEXEME = re.compile(r"\s+|\d+|\w+|\S")


def _byte_offset(text: str, index: int) -> int:
    """The UTF-8 byte offset of text[index]."""
    return len(text[:index].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, index) tuples ending in ("end", "", len(text)).

    The kind is "int", a keyword or a symbol; the index counts characters.
    """
    tokens = []
    index = 0
    for word in _LEXEME.findall(text):
        if word in _NAMED:
            tokens.append((word, word, index))
        elif word[0].isdecimal():
            tokens.append(("int", word, index))
        elif word[0].isalpha():
            raise ParseError(f"unknown name {word!r}", _byte_offset(text, index), _KEYWORDS)
        elif not word[0].isspace():
            raise ParseError(f"unexpected character {word[0]!r}", _byte_offset(text, index))
        index += len(word)
    tokens.append(("end", "", index))
    return tokens


# --- Recursive descent -----------------------------------------------------

_ATOM_EXPECTED = ("(", "abs2", "conj", "i", "integer", "z", "zbar")


class _Parser:
    # Each parse_* appends its postfix code to self.program and returns the
    # bounds (deg_z, deg_zbar, h, e) of its subexpression.

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open "(", "conj(" and "abs2(" around the current token
        self.program: list[BiPoly | str | int] = []

    def error(self, message: str, index: int, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, _byte_offset(self.text, index), expected)

    def unexpected(self, token: tuple[str, str, int], expected: tuple[str, ...]) -> ParseError:
        kind, word, index = token
        return self.error(f"unexpected {word!r}" if kind != "end" else "unexpected end of input", index, expected)

    def int_value(self, token: tuple[str, str, int], label: str) -> int:
        """The value of an integer token; a ParseError at any other token, or past the int/str digit limit."""
        kind, word, index = token
        if kind != "int":
            raise self.unexpected(token, (label,))
        try:
            return int(word)
        except ValueError:
            raise self.error(
                f"integer literal of {len(word)} digits is over the limit of "
                f"{sys.get_int_max_str_digits()} digits",
                index,
            ) from None

    def check_budget(self, token: tuple[str, str, int], bounds: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        """bounds, or a ParseError at token when they break TERM_BUDGET, then COEFF_BIT_BUDGET."""
        dz, dzbar, h, e = bounds
        _, op, index = token
        size = (dz + 1) * (dzbar + 1)
        if size > TERM_BUDGET:
            raise self.error(f"{op!r} could give up to {size} terms, over the budget of {TERM_BUDGET}", index)
        bits = max(h, e) + 1
        if bits > COEFF_BIT_BUDGET:
            raise self.error(
                f"{op!r} could give coefficients of up to {bits} bits, over the budget of {COEFF_BIT_BUDGET} bits",
                index,
            )
        return bounds

    def parse_expr(self) -> tuple[int, int, int, int]:
        tokens = self.tokens
        program = self.program
        negate = tokens[self.pos][0] == "-"
        if negate:
            self.pos += 1
            program.append(_ZERO)
        bounds = self.parse_term()
        if negate:
            program.append("-")
        op = tokens[self.pos][0]
        if op != "+" and op != "-":
            return bounds
        # A sum of k terms over the product of their denominators: its
        # numerators add up to at most k * 2^(e + max(h_t - e_t)).
        dz, dzbar, h, e = bounds
        top = h - e
        count = 1
        while op == "+" or op == "-":
            self.pos += 1
            tz, tzbar, th, te = self.parse_term()
            program.append(op)
            if tz > dz:
                dz = tz
            if tzbar > dzbar:
                dzbar = tzbar
            if th - te > top:
                top = th - te
            e += te
            count += 1
            op = tokens[self.pos][0]
        return dz, dzbar, top + e + (count - 1).bit_length(), e

    def parse_term(self) -> tuple[int, int, int, int]:
        bounds = self.parse_factor()
        tokens = self.tokens
        while tokens[self.pos][0] == "*":
            star = tokens[self.pos]
            self.pos += 1
            dz, dzbar, h, e = bounds
            tz, tzbar, th, te = self.parse_factor()
            self.program.append("*")
            bounds = self.check_budget(star, (dz + tz, dzbar + tzbar, h + th, e + te))
        return bounds

    def parse_factor(self) -> tuple[int, int, int, int]:
        bounds = self.parse_atom()
        tokens = self.tokens
        if tokens[self.pos][0] != "^":
            return bounds
        caret = tokens[self.pos]
        n = self.int_value(tokens[self.pos + 1], "integer exponent")
        self.pos += 2
        self.program.append(n)
        dz, dzbar, h, e = bounds
        return self.check_budget(caret, (dz * n, dzbar * n, h * n, e * n))

    def parse_atom(self) -> tuple[int, int, int, int]:
        tokens = self.tokens
        token = tokens[self.pos]
        kind = token[0]
        self.pos += 1
        if kind == "int":
            num = self.int_value(token, "integer")
            den = 1
            if tokens[self.pos][0] == "/":
                den_token = tokens[self.pos + 1]
                den = self.int_value(den_token, "integer denominator")
                if den == 0:
                    raise DivisionByZero(_byte_offset(self.text, den_token[2]))
                self.pos += 2
            self.program.append(_reduced({(0, 0): (num, 0)}, den) if num else _ZERO)
            return 0, 0, (num - 1).bit_length(), (den - 1).bit_length()
        if kind in _LEAVES:
            leaf, bounds = _LEAVES[kind]
            self.program.append(leaf)
            return bounds
        if kind == "(" or kind == "conj" or kind == "abs2":
            if kind != "(":
                if tokens[self.pos][0] != "(":
                    raise self.unexpected(tokens[self.pos], ("(",))
                self.pos += 1
            if self.depth == NESTING_LIMIT:
                raise self.error(f"{kind!r} nests deeper than {NESTING_LIMIT} levels", token[2])
            self.depth += 1
            bounds = self.parse_expr()
            self.depth -= 1
            if tokens[self.pos][0] != ")":
                raise self.unexpected(tokens[self.pos], (")",))
            self.pos += 1
            if kind == "(":
                return bounds
            self.program.append(kind)
            dz, dzbar, h, e = bounds
            if kind == "conj":
                return dzbar, dz, h, e
            return self.check_budget(token, (dz + dzbar, dz + dzbar, 2 * h, 2 * e))
        raise self.unexpected(token, _ATOM_EXPECTED)


def parse_ast(text: str) -> list[BiPoly | str | int]:
    """Parse text to a postfix program, or raise ParseError with a byte offset.

    Each item of the program follows its operands: a BiPoly leaf, one of
    the operators "+", "-", "*", "conj" and "abs2", or an int n for "^n".
    """
    parser = _Parser(text)
    parser.parse_expr()
    trailing = parser.tokens[parser.pos]
    if trailing[0] != "end":
        raise parser.error(
            f"unexpected {trailing[1]!r} after expression", trailing[2], ("+", "-", "*", "^", "end of input")
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

