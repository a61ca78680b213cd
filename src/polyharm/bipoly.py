"""Exact arithmetic for polynomial mappings of one complex variable.

A mapping f(z) = sum c_ij * z^i * zbar^j, with z and zbar treated as
independent formal variables, is stored sparsely as Gaussian-integer
numerators over one common positive denominator: a map from exponent pairs
(i, j) to int pairs (re, im) together with an int den, where
c_ij = (re + im*i) / den.  This is the layout of FLINT's fmpq_poly built
from plain Python ints: the ring operations multiply and add ints and
reduce each result by one gcd, instead of reducing a Fraction at every
scalar step.

In normal form no zero numerator is stored and the gcd of every numerator
part and the denominator is 1; the zero mapping is the empty map over 1.
Two mappings are therefore equal exactly when their numerator maps and
denominators are equal.  |z|^(2k) is the term (k, k) with coefficient 1;
the degrees of the zero mapping are 0 by convention.

``_from_parts`` builds a mapping from ((i, j), (re, im, den)) items: one
lcm, one scaling pass that sums the values of a repeated key, and one gcd
pass.  It is the one merge of scaled numerators: BiPoly(...), the
generators (gen_bipoly, gen_analytic and gen_harmonic's h + conj(g)), the
Almansi recomposition and a sum whose sides share a key all go through
it.  A product with a scalar is ``_shift`` with no key shift.

Identities cost nothing: a sum with the zero mapping returns the other
operand, and a product with the unit monomial 1 (``_shift`` at (0, 0) by
1) returns the other factor.  A power of a one-term mapping is one key
scaling and one Gaussian-integer power of its numerator over den^n,
reduced by one gcd pass, which den = 1 (a unit monomial among them)
skips; other powers go through binary powering.  Composing f with a unit
monomial z^p * zbar^r, p != r, only moves f's keys, injectively, so f's
normal form carries over with no gcd pass.

Composition substitutes inner = N/d into f in one accumulation: every
term c_ij * d^(top-i-j) * N^i * conj(N)^j is added into one set of sums
over den_f * d^top, where top is the largest i + j among f's keys, and the
sum is reduced once.  The powers N^i come from one chain of unreduced
products, and conj(N)^j is read off N^j by reflection (swap each key,
negate the imaginary part), so no second chain is built.  A one-term
N = (a + b*i) * z^p * zbar^r makes no product: each term goes to
c_ij * (a+bi)^i * (a-bi)^j * d^(top-i-j) at (i*p + j*r, i*r + j*p), with
the powers of a + bi from one Gaussian-integer chain; keys meet only when
p == r, as for c * |z|^(2k) and constants.

A sum whose sides share no key is a merge scaled onto the lcm, already in
normal form; one whose keys meet is ``_from_parts`` over both sides'
items.  Evaluation is composition: ``eval_exact``
is the constant term of f composed with the constant point, a one-term
inner with p = r = 0, so it is one key substitution onto (0, 0) and one
reduction.  The printer reads the numerators and reduces each coefficient
part with one gcd.

GaussianRational, the exact scalar with Fraction parts, is a value type
with no arithmetic: BiPoly is the one ring, and a computation on scalars
is done on BiPoly.constant(c).  It appears only at the edges: coefficients
given to BiPoly(...) and to scalar products, the ``terms`` and
``coefficient`` views, and the value ``eval_exact`` returns.

Every value is immutable after construction and every operation is a pure
function, so objects can be shared freely across workers.
"""

import sys
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import IntegerTooLong

Rationalish = Union[int, Fraction]


class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts: an immutable value class.

    Fraction keeps both components in lowest terms with a positive
    denominator, so structural equality is exact value equality; equal
    values hash equally, and a GaussianRational equals no other type.  The
    parts cannot be reassigned.  It has no arithmetic operators; compute on
    BiPoly.constant(c).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish, im: Rationalish = Fraction(0)):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: GaussianRational is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # Pickling and copy rebuild the value through the constructor, since
    # the slots cannot be set after it.
    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _gaussian_pow(re: int, im: int, n: int) -> tuple[int, int]:
    """(re + im*i)^n for n >= 0, by binary powering on Gaussian integers."""
    if not im:
        return re**n, 0
    out_re, out_im = 1, 0
    while n:
        if n & 1:
            out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
        n >>= 1
        if n:
            re, im = re * re - im * im, 2 * re * im
    return out_re, out_im


GR_ZERO = GaussianRational(Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def unit_circle_point(t: Rationalish) -> GaussianRational:
    """Rational point ((1-t^2) + 2t*i)/(1+t^2) on the unit circle.

    |c| = 1 holds exactly for every rational t, which keeps unit-modulus
    constants inside the coefficient field.
    """
    t = Fraction(t)
    den = 1 + t * t
    return GaussianRational((1 - t * t) / den, 2 * t / den)


class BiPoly:
    """Sparse polynomial in z and zbar: Gaussian-integer numerators over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        parts = []
        for key, coeff in items:
            key = _exponents(key)
            c = _scalar_parts(coeff)
            if c is None:
                raise TypeError(f"coefficient must be rational-like, got {coeff!r}")
            parts.append((key, c))
        f = _from_parts(parts)
        self._num = f._num
        self._den = f._den

    @classmethod
    def zero(cls) -> "BiPoly":
        return _make({}, 1)

    @classmethod
    def one(cls) -> "BiPoly":
        return _make({(0, 0): (1, 0)}, 1)

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def z(cls) -> "BiPoly":
        return _make({(1, 0): (1, 0)}, 1)

    @classmethod
    def zbar(cls) -> "BiPoly":
        return _make({(0, 1): (1, 0)}, 1)

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> "BiPoly":
        if not (isinstance(coeff, int) and coeff == 1):
            return cls({(i, j): coeff})
        return _make({_exponents((i, j)): (1, 0)}, 1)

    @property
    def terms(self) -> Mapping[tuple[int, int], GaussianRational]:
        """The coefficients as GaussianRational values."""
        den = self._den
        return MappingProxyType({key: _gaussian(re, im, den) for key, (re, im) in self._num.items()})

    @property
    def numerators(self) -> Mapping[tuple[int, int], tuple[int, int]]:
        """Exponent pair -> Gaussian-integer numerator (re, im) over ``denominator``."""
        return MappingProxyType(self._num)

    @property
    def denominator(self) -> int:
        """The common positive denominator of every coefficient."""
        return self._den

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def deg_z(self) -> int:
        return max((i for i, _ in self._num), default=0)

    @property
    def deg_zbar(self) -> int:
        return max((j for _, j in self._num), default=0)

    def coefficient(self, i: int, j: int) -> GaussianRational:
        c = self._num.get((i, j))
        return GR_ZERO if c is None else _gaussian(*c, self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __add__(self, other) -> "BiPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        if not self._num.keys().isdisjoint(other._num):
            # Keys meet: _from_parts sums them over one lcm and reduces.
            return _from_parts(
                [(key, (re, im, part._den)) for part in (self, other) for key, (re, im) in part._num.items()]
            )
        # No key meets, so nothing cancels and the merge is already in normal
        # form.  For a prime p dividing den, say p^e || den, the side whose
        # denominator holds p^e is scaled by a factor prime to p; being in
        # lowest terms, that side has a numerator part prime to p, and it
        # stays so after scaling.  So the gcd of every part and den is 1 and
        # no gcd pass is needed.
        den = lcm(self._den, other._den)
        num = {}
        for part in (self, other):
            scale = den // part._den
            if scale == 1:
                num.update(part._num)
            else:
                num.update((key, (re * scale, im * scale)) for key, (re, im) in part._num.items())
        return _make(num, den)

    __radd__ = __add__

    def __sub__(self, other) -> "BiPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "BiPoly":
        return _make({key: (-re, -im) for key, (re, im) in self._num.items()}, self._den)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            return mul(self, other)
        c = _scalar_parts(other)
        if c is None:
            return NotImplemented
        if not (c[0] or c[1]):
            return BiPoly.zero()
        return _shift(self, 0, 0, *c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self._num) != 1:
            return _power(self, n)
        # One term c * z^i * zbar^j with c = (re + im*i)/den: its n-th power
        # is (re + im*i)^n / den^n at (n*i, n*j), brought to normal form by
        # one gcd pass, which _reduced skips over den = 1.
        ((i, j), (re, im)), = self._num.items()
        return _reduced({(n * i, n * j): _gaussian_pow(re, im, n)}, self._den**n)

    def conjugate(self) -> "BiPoly":
        """Swap z and zbar and conjugate every coefficient (an involution)."""
        return _make({(j, i): (re, -im) for (i, j), (re, im) in self._num.items()}, self._den)

    def __str__(self) -> str:
        return canonical_print(self)

    def __repr__(self) -> str:
        return f"BiPoly({canonical_print(self)!r})"


def _exponents(key) -> tuple[int, int]:
    i, j = key
    if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
        raise ValueError(f"exponents must be nonnegative integers, got {key!r}")
    return i, j


def _make(num: dict, den: int) -> BiPoly:
    # Internal constructor for a numerator map and denominator already in normal form.
    p = BiPoly.__new__(BiPoly)
    p._num = num
    p._den = den
    return p


def _reduced(num: dict, den: int) -> BiPoly:
    """BiPoly of the zero-free numerators num over den > 0, brought to normal form."""
    g = den
    for re, im in num.values():
        if g == 1:
            break
        g = gcd(g, re, im)
    if g > 1:
        num = {key: (re // g, im // g) for key, (re, im) in num.items()}
        den //= g
    return _make(num, den)


def _collect(out: dict, den: int) -> BiPoly:
    # Normal form of [re, im] sums over den, dropping the sums that cancelled.
    return _reduced({key: (re, im) for key, (re, im) in out.items() if re or im}, den)


def _from_parts(items) -> BiPoly:
    """BiPoly of ((i, j), (re, im, den)) items with den > 0: dict items or a list.

    The values of a repeated key are summed over one lcm; zero sums are dropped.
    """
    den = lcm(*[d for _, (_, _, d) in items])
    out = {}
    for key, (re, im, d) in items:
        scale = den // d
        if key in out:
            s_re, s_im = out[key]
            out[key] = (s_re + re * scale, s_im + im * scale)
        else:
            out[key] = (re * scale, im * scale)
    return _collect(out, den)


def _scalar_parts(value) -> "tuple[int, int, int] | None":
    """(re, im, den) with value == (re + im*i)/den and den > 0, or None for a non-scalar."""
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        return re.numerator * im.denominator, im.numerator * re.denominator, re.denominator * im.denominator
    return None


def _gaussian(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _as_poly(value) -> "BiPoly | None":
    if isinstance(value, BiPoly):
        return value
    if _scalar_parts(value) is None:
        return None
    return BiPoly.constant(value)


def _shift(f: BiPoly, di: int, dj: int, re: int, im: int, den: int) -> BiPoly:
    """f * (re + im*i)/den * z^di * zbar^dj for a nonzero (re, im) and den > 0."""
    if re == 1 and not im and den == 1:
        # A unit monomial only moves the keys; f's normal form carries over.
        if not (di or dj):
            return f
        return _make({(i + di, j + dj): c for (i, j), c in f._num.items()}, f._den)
    # Gaussian integers have no zero divisors, so no numerator becomes zero.
    if im:
        num = {(i + di, j + dj): (a * re - b * im, a * im + b * re) for (i, j), (a, b) in f._num.items()}
    else:
        num = {(i + di, j + dj): (a * re, b * re) for (i, j), (a, b) in f._num.items()}
    return _reduced(num, f._den * den)


def mul(a: BiPoly, b: BiPoly) -> BiPoly:
    """Exact product; the result is in normal form."""
    if len(b._num) == 1:
        a, b = b, a
    if len(a._num) == 1:
        ((di, dj), (re, im)), = a._num.items()
        return _shift(b, di, dj, re, im, a._den)
    out: dict = {}
    _mul_into(out, a._num.items(), list(b._num.items()))
    return _collect(out, a._den * b._den)


def _power(base: BiPoly, n: int) -> BiPoly:
    """base**n for n >= 0 by binary powering."""
    out = BiPoly.one()
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


def _mul_into(out: dict, a_items, b_items, cr: int = 1, ci: int = 0) -> None:
    # Add (cr + ci*i) * a * b into out, whose values are mutable [re, im]
    # sums; a_items and b_items hold (key, (re, im)) Gaussian-integer
    # numerators.  The scalar goes onto each term of a before the double loop.
    if ci:
        a_items = [(key, (r * cr - m * ci, r * ci + m * cr)) for key, (r, m) in a_items]
    elif cr != 1:
        a_items = [(key, (r * cr, m * cr)) for key, (r, m) in a_items]
    get = out.get
    for (i1, j1), (r1, m1) in a_items:
        for (i2, j2), (r2, m2) in b_items:
            key = (i1 + i2, j1 + j2)
            acc = get(key)
            if acc is None:
                out[key] = [r1 * r2 - m1 * m2, r1 * m2 + m1 * r2]
            else:
                acc[0] += r1 * r2 - m1 * m2
                acc[1] += r1 * m2 + m1 * r2


def _mul_items(a_items, b_items: list) -> list:
    """The unreduced product of two numerator lists, as (key, (re, im)) items with no zero sum."""
    out: dict = {}
    _mul_into(out, a_items, b_items)
    return [(key, (re, im)) for key, (re, im) in out.items() if re or im]


def compose(f: BiPoly, inner: BiPoly) -> BiPoly:
    """Exact substitution z -> inner, zbar -> conjugate(inner) in f: f after inner.

    With inner = N/d, f's numerators c_ij over den_f and top = max(i + j),
    this is sum c_ij * d^(top-i-j) * N^i * conj(N)^j over den_f * d^top,
    added up in one set of sums and reduced once.  N^i comes from one
    unreduced chain; conj(N)^j is N^j reflected (keys swapped, im negated).
    A one-term N = (a + b*i) * z^p * zbar^r is a key substitution instead.
    """
    deg_z = deg_zbar = top = 0
    for i, j in f._num:
        if i > deg_z:
            deg_z = i
        if j > deg_zbar:
            deg_zbar = j
        if i + j > top:
            top = i + j
    d_pow = [inner._den**k for k in range(top + 1)]
    den = f._den * d_pow[top]
    if len(inner._num) == 1:
        ((p, r), (a, b)), = inner._num.items()
        if a == 1 and not b and inner._den == 1 and p != r:
            # A unit monomial with p != r maps (i, j) to (i*p + j*r, i*r + j*p)
            # injectively (the determinant is p^2 - r^2), so f's normal form
            # carries over, as in _shift.
            return _make({(i * p + j * r, i * r + j * p): c for (i, j), c in f._num.items()}, f._den)
        # c_ij * z^i * zbar^j goes to c_ij * (a+bi)^i * (a-bi)^j * d^(top-i-j)
        # at (i*p + j*r, i*r + j*p); keys meet only when p == r.
        chain = [(1, 0)]
        for _ in range(max(deg_z, deg_zbar)):
            x, y = chain[-1]
            chain.append((x * a - y * b, x * b + y * a))
        sums: dict = {}
        for (i, j), (cr, ci) in f._num.items():
            (x, y), (u, v), scale = chain[i], chain[j], d_pow[top - i - j]
            sr, si = (x * u + y * v) * scale, (y * u - x * v) * scale
            re, im = cr * sr - ci * si, cr * si + ci * sr
            key = (i * p + j * r, i * r + j * p)
            acc = sums.get(key)
            sums[key] =(re, im) if acc is None else (acc[0] + re, acc[1] + im)
        return _collect(sums, den)
    inner_items = list(inner._num.items())
    powers = [[((0, 0), (1, 0))]]
    for _ in range(max(deg_z, deg_zbar)):
        powers.append(_mul_items(powers[-1], inner_items))
    conj_powers = [[((b, a), (r, -m)) for (a, b), (r, m) in p] for p in powers[: deg_zbar + 1]]
    out: dict = {}
    for (i, j), (re, im) in f._num.items():
        scale = d_pow[top - i - j]
        _mul_into(out, powers[i], conj_powers[j], re * scale, im * scale)
    return _collect(out, den)


def eval_exact(f: BiPoly, point: GaussianRational) -> GaussianRational:
    """Evaluate with z = point and zbar = conjugate(point), exactly: f composed with the constant point."""
    return compose(f, BiPoly.constant(point)).coefficient(0, 0)


# ---------------------------------------------------------------------------
# Canonical text form.  This is the interchange format for the CLI and the
# parser: terms sorted by (i+j, i) ascending, coefficients in lowest terms,
# and the minus sign of pure-real/pure-imaginary coefficients folded into
# the separator.  parse(canonical_print(f)) == f for every f.
# ---------------------------------------------------------------------------


def _fraction_text(n: int, d: int) -> str:
    """Text of n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:
        raise IntegerTooLong(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "the limit of sys.get_int_max_str_digits()"
        ) from None


def _scalar_text(re: int, im: int, den: int) -> str:
    """Standalone text of (re + im*i)/den for den > 0, e.g. "1/2 + 3/4*i"."""
    if not im:
        return _fraction_text(re, den)
    imag = "i" if abs(im) == den else f"{_fraction_text(abs(im), den)}*i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return _fraction_text(re, den) + (" + " if im > 0 else " - ") + imag


def format_scalar(c: GaussianRational) -> str:
    """Standalone text for an exact complex scalar, e.g. "1/2 + 3/4*i"."""
    return _scalar_text(*_scalar_parts(c))


def _monomial_text(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("z")
    elif i > 1:
        parts.append(f"z^{i}")
    if j == 1:
        parts.append("zbar")
    elif j > 1:
        parts.append(f"zbar^{j}")
    return "*".join(parts)


def _term_text(i: int, j: int, re: int, im: int, den: int) -> tuple[bool, str]:
    """Return (negative, magnitude_text) for the term (re + im*i)/den * z^i * zbar^j."""
    mono = _monomial_text(i, j)
    if not mono:
        # The constant term always sorts first, so it prints as the
        # standalone scalar with its own signs.
        return False, _scalar_text(re, im, den)
    if not im:
        mag = abs(re)
        coeff = "" if mag == den else f"{_fraction_text(mag, den)}*"
        return re < 0, coeff + mono
    if not re:
        mag = abs(im)
        coeff = "i*" if mag == den else f"{_fraction_text(mag, den)}*i*"
        return im < 0, coeff + mono
    return False, f"({_scalar_text(re, im, den)})*{mono}"


def canonical_print(f: BiPoly) -> str:
    """Deterministic text for f; the zero mapping prints as "0"."""
    if f.is_zero:
        return "0"
    num, den = f._num, f._den
    pieces = []
    for (i, j) in sorted(num, key=lambda key: (key[0] + key[1], key[0])):
        negative, text = _term_text(i, j, *num[(i, j)], den)
        if not pieces:
            pieces.append(("-" if negative else "") + text)
        else:
            pieces.append((" - " if negative else " + ") + text)
    return "".join(pieces)
