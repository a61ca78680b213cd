"""Seeded, reproducible instance generators for the verification suites.

All randomness flows through a splitmix-style 64-bit stream driven by pure
integer arithmetic, so identical (seed, parameters) give identical output
on every platform.  SplitMix64.next_u64 is the one step and mix, and the
other methods draw through it.  Only _analytic_draws steps and mixes
inline: it draws one analytic part, its degree, coins, coefficients and
redraws, in one Python frame, and returns them as the
((i, j), (re, im, den)) items that bipoly._from_parts merges; a harmonic
mapping h + conj(g) is one _from_parts call over both parts' items.
tests/test_gen.py pins the draw streams and the generated mappings by
SHA-256 digest.  Coefficient numerators and denominators are bounded by
16 to keep exact arithmetic tame through degree-8 compositions.

Generated instances are never trusted by the suites: class membership is
re-verified through the classify/wirtinger oracles at the point of use.
"""

from fractions import Fraction

from .bipoly import BiPoly, GaussianRational, _from_parts

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

COEFF_LIMIT = 16


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def spawn(seed: int, index: int) -> int:
    """Derive an independent per-case seed from (seed, index)."""
    return _mix((_mix(seed & _MASK) + (index + 1) * _GAMMA) & _MASK)


class SplitMix64:
    """Deterministic 64-bit stream; the only randomness source in the package."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    # next_u64 is the one step-and-mix; every other method draws through it.
    # An empty range raises ValueError before the state moves.

    def next_u64(self) -> int:
        x = self._state = (self._state + _GAMMA) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return x ^ (x >> 31)

    def below(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError("hi must be at least lo")
        return lo + self.next_u64() % (hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        if den < 1:
            raise ValueError("den must be positive")
        return self.next_u64() % den < num

    def coeff(self, limit: int = COEFF_LIMIT, nonzero: bool = False) -> GaussianRational:
        re, im, den = self.coeff_parts(limit, nonzero)
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def coeff_parts(self, limit: int = COEFF_LIMIT, nonzero: bool = False) -> tuple[int, int, int]:
        """The draws of coeff() as integers (re, im, den), meaning (re + im*i)/den.

        The real part is between(-limit, limit) over between(1, limit); on a
        chance(1, 2) coin the imaginary part is drawn the same way, else it is
        0.  With nonzero=True a zero value is drawn again.  No Fraction is built.
        """
        if limit < 1:
            raise ValueError("limit must be positive")
        while True:
            re, den = self.between(-limit, limit), self.between(1, limit)
            im = 0
            if self.chance(1, 2):
                im, im_den = self.between(-limit, limit), self.between(1, limit)
                re, im, den = re * im_den, im * den, den * im_den
            if re or im or not nonzero:
                return re, im, den

    def unit(self) -> float:
        return self.next_u64() / float(1 << 64)


def gen_bipoly(seed: int, max_degree: int) -> BiPoly:
    """Random nonzero mapping with deg_z <= max_degree and deg_zbar <= max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    rng = SplitMix64(seed)
    terms = {}
    for _ in range(rng.between(1, 8)):
        key = (rng.between(0, max_degree), rng.between(0, max_degree))
        terms[key] = rng.coeff_parts(nonzero=True)
    return _from_parts(terms.items())


def _analytic_draws(seed: int, max_degree: int, exact_degree: bool, conj: bool = False) -> list:
    """gen_analytic's draws as _from_parts items ((n, 0), (re, im, den)) for increasing n.

    Each item means (re + im*i)/den * z^n.  With conj=True the part is
    conjugated: the items are ((0, n), (re, -im, den)), for g in h + conj(g).

    The draws are SplitMix64(seed)'s: the degree as between(0, max_degree)
    unless it is exact, then for each n below it a chance(5, 8) coin and,
    when it comes up, coeff_parts(); then the leading coeff_parts(nonzero=True),
    redrawn while it is zero.  A zero value drawn below the degree is kept.
    Each draw steps and mixes the state inline, so one analytic part is
    drawn in one Python frame.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    state = seed & _MASK
    if exact_degree:
        degree = max_degree
    else:
        state = (state + _GAMMA) & _MASK
        x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        degree = (x ^ (x >> 31)) % (max_degree + 1)
    draws = []
    n = 0
    while True:
        if n < degree:
            state = (state + _GAMMA) & _MASK
            x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            if (x ^ (x >> 31)) % 8 >= 5:  # chance(5, 8) is false: no term at z^n
                n += 1
                continue
        # coeff_parts(): re over den, then a coin for an imaginary part im
        # over im_den, which a draw of 1 leaves out.
        state = (state + _GAMMA) & _MASK
        x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        re = (x ^ (x >> 31)) % (2 * COEFF_LIMIT + 1) - COEFF_LIMIT
        state = (state + _GAMMA) & _MASK
        x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        den = (x ^ (x >> 31)) % COEFF_LIMIT + 1
        state = (state + _GAMMA) & _MASK
        x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        if (x ^ (x >> 31)) % 2:
            im = 0
        else:
            state = (state + _GAMMA) & _MASK
            x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            im = (x ^ (x >> 31)) % (2 * COEFF_LIMIT + 1) - COEFF_LIMIT
            state = (state + _GAMMA) & _MASK
            x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            im_den = (x ^ (x >> 31)) % COEFF_LIMIT + 1
            re, im, den = re * im_den, im * den, den * im_den
        if n < degree or re or im:
            draws.append(((0, n), (re, -im, den)) if conj else ((n, 0), (re, im, den)))
            if n == degree:
                return draws
            n += 1


def gen_analytic(seed: int, max_degree: int, *, exact_degree: bool = False) -> BiPoly:
    """Random analytic polynomial; the leading coefficient is forced nonzero."""
    return _from_parts(_analytic_draws(seed, max_degree, exact_degree))


def gen_harmonic(
    seed: int,
    max_degree: int,
    *,
    both_parts_nonconstant: bool = False,
    nonzero: bool = False,
) -> BiPoly:
    """Random harmonic mapping h + conj(g) with h, g analytic.

    h and g are drawn as gen_analytic draws them, each in one frame, g's
    items conjugated as drawn, and h + conj(g) is one _from_parts call over
    both item lists; only the constants share a key, (0, 0), where they add.

    With both_parts_nonconstant=True, both h and g get degree >= 1, so the
    result is neither analytic nor anti-analytic.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    rng = SplitMix64(seed)
    if both_parts_nonconstant:
        top = max(1, max_degree)
        h = _analytic_draws(rng.next_u64(), rng.between(1, top), True)
        g = _analytic_draws(rng.next_u64(), rng.between(1, top), True, conj=True)
    else:
        h = _analytic_draws(rng.next_u64(), max_degree, False)
        g = _analytic_draws(rng.next_u64(), max_degree, False, conj=True)
    f = _from_parts(h + g)
    if nonzero and f.is_zero:
        f = f + BiPoly.one()
    return f


def gen_strict_q_harmonic(seed: int, q: int, max_degree: int) -> BiPoly:
    """Random mapping of polyharmonic order exactly q (q >= 1).

    Built as sum_k (z*zbar)^(k-1) * G_k with harmonic G_k and G_q forced
    nonzero; the top Almansi component pins the order at q.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be a positive integer")
    rng = SplitMix64(seed)
    weight = BiPoly.monomial(1, 1)
    total = BiPoly.zero()
    for k in range(1, q):
        if rng.chance(3, 4):
            total = total + weight ** (k - 1) * gen_harmonic(rng.next_u64(), max_degree)
    total = total + weight ** (q - 1) * gen_harmonic(
        rng.next_u64(), max_degree, nonzero=True
    )
    return total
