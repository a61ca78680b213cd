"""An evaluator of mappings over GF(P^2), independent of polyharm's ring.

P = 2^61 - 1 is a prime with P = 3 (mod 4), so -1 is not a square mod P
and GF(P)[iota]/(iota^2 + 1) is the field GF(P^2); iota stands in for i.
A field element is a pair (x, y) of residues meaning x + y*iota.

A mapping e is evaluated at a point (a, b), with z and zbar independent,
as the pair (e(a, b), conj(e)(a, b)), where conj(e) swaps z and zbar and
conjugates every coefficient.  Then z gives (a, b), zbar gives (b, a), i
gives (iota, -iota) and a rational r gives (r, r); sums, products and
powers act on both parts, conj swaps them, and abs2 of (v, w) is
(v*w, w*v).  evaluate_text reads grammar text with its own small parser;
evaluate_bipoly reads a BiPoly's numerators and denominator.  Both assert
that no denominator is divisible by P, the one case in which a value has
no image in GF(P^2).
"""

import random
import re

P = (1 << 61) - 1

ZERO = (0, 0)
ONE = (1, 0)


def add(u, v):
    return (u[0] + v[0]) % P, (u[1] + v[1]) % P


def sub(u, v):
    return (u[0] - v[0]) % P, (u[1] - v[1]) % P


def mul(u, v):
    return (u[0] * v[0] - u[1] * v[1]) % P, (u[0] * v[1] + u[1] * v[0]) % P


def power(u, n: int):
    out = ONE
    while n:
        if n & 1:
            out = mul(out, u)
        n >>= 1
        u = mul(u, u)
    return out


def rational(num: int, den: int):
    """num/den as a field element."""
    assert den % P, f"denominator {den} is divisible by P"
    return num * pow(den, -1, P) % P, 0


def random_point(seed: int):
    """A seeded point (a, b) of GF(P^2)^2."""
    rng = random.Random(seed)
    return tuple((rng.randrange(P), rng.randrange(P)) for _ in range(2))


def evaluate_bipoly(f, a, b):
    """(f(a, b), conj(f)(a, b)) from f's numerators over its denominator."""
    scale = rational(1, f.denominator)
    keys = f.numerators.keys()
    top = max((max(key) for key in keys), default=0)
    a_pow, b_pow = [ONE], [ONE]
    for _ in range(top):
        a_pow.append(mul(a_pow[-1], a))
        b_pow.append(mul(b_pow[-1], b))
    value = conj = ZERO
    for (i, j), (re, im) in f.numerators.items():
        value = add(value, mul((re % P, im % P), mul(a_pow[i], b_pow[j])))
        conj = add(conj, mul((re % P, -im % P), mul(a_pow[j], b_pow[i])))
    return mul(value, scale), mul(conj, scale)


_TOKEN = re.compile(r"\s*(\d+|zbar|z|i|conj|abs2|[-+*/^()])")


def evaluate_text(text: str, a, b):
    """(e(a, b), conj(e)(a, b)) for the mapping e that grammar text denotes."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append("")
    reader = _Reader(tokens, a, b)
    out = reader.expr()
    if tokens[reader.pos]:
        raise ValueError(f"unexpected {tokens[reader.pos]!r}")
    return out


class _Reader:
    def __init__(self, tokens, a, b):
        self.tokens = tokens
        self.pos = 0
        self.leaves = {"z": (a, b), "zbar": (b, a), "i": ((0, 1), (0, P - 1))}

    def take(self, expected=None) -> str:
        token = self.tokens[self.pos]
        if expected is not None and token != expected:
            raise ValueError(f"expected {expected!r}, got {token!r}")
        self.pos += 1
        return token

    def expr(self):
        negate = self.tokens[self.pos] == "-"
        if negate:
            self.take()
        value = self.term()
        if negate:
            value = sub(ZERO, value[0]), sub(ZERO, value[1])
        while self.tokens[self.pos] in ("+", "-"):
            op = add if self.take() == "+" else sub
            right = self.term()
            value = op(value[0], right[0]), op(value[1], right[1])
        return value

    def term(self):
        value = self.factor()
        while self.tokens[self.pos] == "*":
            self.take()
            right = self.factor()
            value = mul(value[0], right[0]), mul(value[1], right[1])
        return value

    def factor(self):
        value = self.atom()
        if self.tokens[self.pos] == "^":
            self.take()
            n = int(self.take())
            value = power(value[0], n), power(value[1], n)
        return value

    def atom(self):
        token = self.take()
        if token in self.leaves:
            return self.leaves[token]
        if token.isdigit():
            den = 1
            if self.tokens[self.pos] == "/":
                self.take()
                den = int(self.take())
            r = rational(int(token), den)
            return r, r
        if token == "(":
            value = self.expr()
        elif token in ("conj", "abs2"):
            self.take("(")
            v, w = self.expr()
            value = (w, v) if token == "conj" else (mul(v, w), mul(w, v))
        else:
            raise ValueError(f"unexpected {token!r}")
        self.take(")")
        return value
