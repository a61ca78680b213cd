"""Executable classification theorems for compositions of polyharmonic mappings.

Membership in the composition classes quantifies over every outer or inner
mapping of a given harmonicity, which sampling alone cannot decide.  Three
effective surfaces are exposed instead:

* ``allowed_form_post`` / ``allowed_form_pre`` -- the closed-form
  characterizations that the theorems provide, each a bool for every
  (f, q, l); the pre-composition case q <= 1, l >= 3, which the paper
  leaves open, is decided for polynomial f by f's Newton polygon
  (Ostrowski's product rule and Hajos' lemma, see _pre_candidates);
* ``find_witness_post`` / ``find_witness_pre`` -- the one verdict on
  (f, q, l): Compliant for an allowed form, else a Violation whose
  partner comes from the finite, proven violating families of the
  necessity arguments (at most three inner or two outer mappings), each
  candidate re-verified by exact order computation before it is returned
  (a family that exhausts raises InternalInconsistency loudly, since it
  would contradict a proof);
* ``run_suite`` -- seeded sampled suites for the sufficiency directions,
  the structural propositions, and the counterexample hunt, an independent
  exact check of the Newton-polygon bound on f's powers;
  ``replay_case`` reruns the one case a failure names by its case seed.
"""

from fractions import Fraction
from typing import NamedTuple

from .bipoly import (
    BiPoly,
    GaussianRational,
    _collect,
    _from_parts,
    _mul_into,
    _mul_items,
    _square_into,
    canonical_print,
    compose,
    mul,
    unit_circle_point,
)
from .classify import classify
from .errors import InternalInconsistency, NotAnalytic, UnknownSuite
from .gen import (
    SplitMix64,
    gen_analytic,
    gen_bipoly,
    gen_harmonic,
    gen_strict_q_harmonic,
    spawn,
)
from .wirtinger import (
    _derivative, d_dz, d_dzbar, has_off_axis_vertex, newton_certificate, polyharmonic_order
)

COMPLIANT = "Compliant"
VIOLATION = "Violation"


class WitnessResult(NamedTuple):
    """Outcome of a witness search: Compliant, with no witness, or a Violation.

    A Violation carries the concrete mapping F together with the exactly
    recomputed order of the composition, which exceeds the required bound.
    """

    verdict: str
    witness: BiPoly | None
    composition_order: int | None
    required_bound: int
    family_tag: str


class SuiteReport(NamedTuple):
    suite_name: str
    cases_run: int
    failures: int
    first_failure: tuple[str, str, str] | None
    seed: int


def _require_params(q: int, l: int) -> None:
    if not isinstance(q, int) or q < 0:
        raise ValueError("q must be a nonnegative integer")
    if not isinstance(l, int) or l < 1:
        raise ValueError("l must be a positive integer")


# ---------------------------------------------------------------------------
# Post-composition: f applied after a mapping of class q must stay within
# order l.
# ---------------------------------------------------------------------------


def allowed_form_post(f: BiPoly, q: int, l: int) -> bool:
    """Closed form for "f composed after every class-q mapping is l-harmonic".

    q = 0 quantifies over analytic inners, q = 1 over harmonic-not-analytic
    inners, q >= 2 over strictly q-harmonic inners.
    """
    _require_params(q, l)
    return _allowed_post(classify(f), q, l)


def _allowed_post(rep, q: int, l: int) -> bool:
    # allowed_form_post from f's ClassReport.
    if q == 0:
        return rep.is_harmonic
    if q == 1:
        return rep.is_affine
    bound = min(1, (l - 1) // (q - 1))
    return rep.is_harmonic and rep.harmonic_degree <= bound


# 1, i and (-3+4i)/5, in the order the post-composition families try them.
# (-3+4i)/5 has modulus 1 and is no root of unity, since its n-th power has
# denominator 5^n; so c^n differs at c = 1 and c = (-3+4i)/5 for every n >= 1.
_UNITS = tuple(map(unit_circle_point, range(3)))


def _post_candidates(f: BiPoly, rep, q: int, l: int):
    d = max(f.deg_z, f.deg_zbar)
    if not rep.is_harmonic:
        # One candidate, a witness for every non-harmonic f.  F = z^m sends
        # c_ij*z^i*zbar^j to (m*i, m*j), F = zbar^m to (m*j, m*i), and
        # F = |z|^(2(q-1))*z^(m(q-1)) to (q-1)*((m+1)*i + j, i + (m+1)*j),
        # a map of determinant m(m+2) != 0.  So no two terms of f meet, and
        # a term with min(i, j) >= 1 lands at a min of at least m > l.
        if q == 0:
            yield BiPoly.monomial(l + 1, 0), "z^m"
        elif q == 1:
            yield BiPoly.monomial(0, l + 1), "zbar^m"
        else:
            m = l + d + 1
            yield BiPoly.monomial((m + 1) * (q - 1), q - 1), "|z|^(2(q-1))*z^(m(q-1))"
        return
    # Harmonic f = h + conj(g) of degree d, m = l + 1, one c per candidate
    # from _UNITS.  Each family below is homogeneous, so the top total
    # degree of f(F) holds only multiples of h_d*c^n + conj(g_d), with
    # n = m*d for q = 1 and n = 2d for q >= 2.  That factor vanishes for at
    # most one of c = 1 and c = (-3+4i)/5, so one of the three succeeds.
    m = l + 1
    if q == 1:
        # z^m + (c*zbar)^m puts the factor at (m(d-1), m), and d >= 2
        # because f is not affine.
        for c in _UNITS:
            yield BiPoly.monomial(m, 0) + BiPoly.monomial(0, 1, c) ** m, "z^m+(c*zbar)^m"
        return
    weight = BiPoly.monomial(q - 1, q - 1)
    if d * (q - 1) + 1 > l:
        # c*|z|^(2(q-1)) puts the factor at (d(q-1), d(q-1)).  Otherwise its
        # order d(q-1) + 1 <= l, so it can never succeed.
        for c in _UNITS:
            yield weight * c, "c*|z|^(2(q-1))"
        return
    # Here d >= 2: a non-allowed f of degree 1 has l < q, so d(q-1) + 1 > l.
    # c*|z|^(2(q-1))*(z^(2m)+zbar^(2m)), whose conjugate has the same shape,
    # puts the factor at d(q-1) + 2m*(d-1, 1), with min >= 2m > l.
    pair = mul(weight, BiPoly.monomial(2 * m, 0) + BiPoly.monomial(0, 2 * m))
    for c in _UNITS:
        yield pair * c, "c*|z|^(2(q-1))*(z^(2m)+zbar^(2m))"


def find_witness_post(f: BiPoly, q: int, l: int) -> WitnessResult:
    """Compliant, or a concrete inner mapping F with order(f after F) > l, exactly verified.

    Compliant exactly when allowed_form_post is True.  Otherwise the finite
    family of _post_candidates is proven to hold a Violation; raises
    InternalInconsistency if no candidate passes the exact order check.
    """
    return _search(f, q, l, post=True)


# ---------------------------------------------------------------------------
# Pre-composition: every mapping of class q applied after f must stay
# within order l.
# ---------------------------------------------------------------------------


def allowed_form_pre(f: BiPoly, q: int, l: int) -> bool:
    """Closed form for "every class-q mapping composed after f is l-harmonic".

    For q <= 1 the answer is "f is analytic or anti-analytic" at every l.
    The paper proves this for l <= 2; for l >= 3 and polynomial f, which is
    every input polyharm accepts, the Newton-polygon argument in
    _pre_candidates proves it.
    """
    _require_params(q, l)
    return _allowed_pre(classify(f), q, l)


def _allowed_pre(rep, q: int, l: int) -> bool:
    # allowed_form_pre from f's ClassReport.  Analytic and anti-analytic
    # mappings are harmonic, so q <= 1 needs no separate harmonicity test,
    # and their harmonic_degree is deg_z or deg_zbar.
    split = rep.is_analytic or rep.is_antianalytic
    if q <= 1:
        return split
    return split and rep.harmonic_degree <= (l - 1) // (q - 1)


def _pre_candidates(f: BiPoly, rep, q: int, l: int):
    if q >= 2 and (rep.is_analytic or rep.is_antianalytic):
        # The only candidate: composition order is exactly t*(q-1)+1 for degree-t f.
        yield BiPoly.monomial(q - 1, q - 1), "|w|^(2(q-1))"
        return
    # An outer power w^m at the least m < 2l for which f's Newton polygon
    # certifies order(f^m) > l (wirtinger.newton_certificate), else at 2l,
    # as for z^2 + z*zbar + zbar^2.  f^m has a term with min(i, j) >= l:
    # the certificate gives one, and at m = 2l the proof below does.  For
    # q = 0 the composition is f^m, a witness.
    start = newton_certificate(f, l) or 2 * l
    power = BiPoly.monomial(start, 0)
    if q == 0:
        yield power, "w^m"
        return
    if q == 1:
        # F = w^m + eps*conj(w), harmonic and not analytic for eps != 0,
        # composes to f^m + eps*conj(f).  At most one eps cancels the term
        # of f^m with min(i, j) >= l, so if eps = 1 fails, eps = 2 succeeds.
        yield power + BiPoly.zbar(), "w^m + conj(w)"
        yield power + BiPoly.monomial(0, 1, 2), "w^m + 2*conj(w)"
        return
    # For q >= 2, F = w^m + lam*|w|^(2(q-1)), strictly q-harmonic for
    # lam != 0, composes to f^m + lam*(f*conj(f))^(q-1).  At most one lam
    # cancels the term of f^m with min(i, j) >= l, so if lam = 1 fails,
    # lam = 2 succeeds.
    yield power + BiPoly.monomial(q - 1, q - 1), "w^m + |w|^(2(q-1))"
    yield power + BiPoly.monomial(q - 1, q - 1, 2), "w^m + 2*|w|^(2(q-1))"
    # For f neither analytic nor anti-analytic, order(f^m) > l for every
    # m >= 2l, so w^(2l) is a witness at every l:
    #   * A vertex v of f's Newton polygon with min(v) >= 1 puts
    #     c_v^m != 0 at m*v (Ostrowski 1921), so m >= l suffices.
    #   * Otherwise every vertex lies on an axis.  As f is neither analytic
    #     nor anti-analytic, (A, 0) and (0, B) with A, B >= 1 are vertices,
    #     and the segment between them is an edge.  With g = gcd(A, B),
    #     a = A/g and b = B/g, its initial form is x^A * u(y^b / x^a) with
    #     deg u = g and u(0) != 0.  The initial form of f^m on m times that
    #     edge is x^(mA) * u^m (Ostrowski).  u^m is divisible by (s - r)^m
    #     for a root r != 0, so by Hajos' lemma (1953) it has at least
    #     m + 1 nonzero terms.  At most ceil(l/a) + ceil(l/b) <= 2l
    #     positions (mA - k*a, k*b) on m times the edge have min(i, j) < l,
    #     so for m >= 2l one term of f^m has min(i, j) >= l.


def find_witness_pre(f: BiPoly, q: int, l: int) -> WitnessResult:
    """Compliant, or a concrete outer mapping F of class q with order(F after f) > l.

    Compliant exactly when allowed_form_pre is True.  Otherwise the finite
    family of _pre_candidates is proven to hold a Violation; raises
    InternalInconsistency if no candidate passes the exact order check.
    """
    return _search(f, q, l, post=False)


def _search(f: BiPoly, q: int, l: int, post: bool) -> WitnessResult:
    """The witness search after f (post) or before it (pre), from one classify(f).

    Compliant for an allowed form; otherwise a Violation with the first
    candidate whose composition with f has exact order > l.  Every
    candidate is of class q by construction.  Each candidate is composed in
    full: a witness is built so that its composition's order is above l,
    so little of it lies below l for compose's floor to drop, and the
    floor's per-term tests cost more there than they save.
    """
    _require_params(q, l)
    rep = classify(f)
    if (_allowed_post if post else _allowed_pre)(rep, q, l):
        return WitnessResult(COMPLIANT, None, None, l, "")
    for candidate, tag in (_post_candidates if post else _pre_candidates)(f, rep, q, l):
        order = polyharmonic_order(compose(f, candidate) if post else compose(candidate, f))
        if order > l:
            return WitnessResult(VIOLATION, candidate, order, l, tag)
    side = "inner" if post else "outer"
    raise InternalInconsistency(f"no violating {side} mapping found for q={q}, l={l}, f={canonical_print(f)}")


# ---------------------------------------------------------------------------
# Identities used by the proofs.
# ---------------------------------------------------------------------------


def _require_analytic(name: str, p: BiPoly) -> None:
    if any(j != 0 for _, j in p.numerators):
        raise NotAnalytic(f"{name} has a zbar term")


def separable_laplacian(h: BiPoly, g: BiPoly, l: int) -> BiPoly:
    """4^l * (l-th z-derivative of h) * conj(l-th z-derivative of g).

    For analytic h, g this equals laplacian(h * conj(g), l); the identity
    itself is what the test suites exercise.
    """
    if not isinstance(l, int) or l < 1:
        raise ValueError("l must be a positive integer")
    _require_analytic("H", h)
    _require_analytic("G", g)
    dh, dg = h, g
    for _ in range(l):
        dh = d_dz(dh)
        dg = d_dz(dg)
    return mul(dh, dg.conjugate()) * (4**l)


def a_m(f: BiPoly, m: int) -> BiPoly:
    """Obstruction polynomial for order-2 flatness of w -> exp(m*f(w)).

    a_m(f, m) == 0 for all of m = 1, 2, 3 exactly when f_z * f_zbar == 0,
    i.e. when f is analytic or anti-analytic.

    It is A + m*B + m^2*C with
    A = 2*(f_zzb^2 + f_z*f_zzbzb + f_zb*f_zzzb) + f_zz*f_zbzb,
    B = f_z^2*f_zbzb + f_zb^2*f_zz + 4*f_z*f_zb*f_zzb and C = (f_z*f_zb)^2,
    computed in one accumulation pass.  With f = N/D, the seven derivatives
    are read off N over D, unreduced, in one wirtinger._derivative pass;
    f_z^2, f_zb^2 and f_z*f_zb are built once as unreduced products over
    D^2.  The products of A, B and C are added into one set of sums over
    D^4, scaled by 2*D^2 and D^2 (A), m*D and 4*m*D (B) and m^2 (C), and
    the sum is reduced once.  The four squares, f_z^2, f_zb^2, f_zzb^2
    and (f_z*f_zb)^2, take each unordered pair of terms once.
    """
    if not isinstance(m, int) or m == 0:
        raise ValueError("m must be a nonzero integer")
    den = f.denominator
    fz, fzb, fzz, fzbzb, fzzb, fzzbzb, fzzzb = _derivative(
        f, ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, 2), (2, 1))
    )
    fz2, fzb2, quad = _mul_items(fz, fz), _mul_items(fzb, fzb), _mul_items(fz, fzb)
    out: dict = {}
    den2 = den * den
    for a, b, scale in (
        (fz, fzzbzb, 2 * den2),
        (fzb, fzzzb, 2 * den2),
        (fzz, fzbzb, den2),
        (fz2, fzbzb, m * den),
        (fzb2, fzz, m * den),
        (quad, fzzb, 4 * m * den),
    ):
        _mul_into(out, a, b, scale)
    _square_into(out, fzzb, 2 * den2)
    _square_into(out, quad, m * m)
    return _collect(out, den2 * den2)


def reich_condition_check(g: BiPoly, alpha: "int | Fraction | GaussianRational", c) -> bool:
    """Polynomial identity test (g')^2 == alpha^2 g^4 + 2c g^3 + conj(alpha)^2 g^2."""
    _require_analytic("G", g)
    a = BiPoly.constant(alpha)
    gp = d_dz(g)
    rhs = g**4 * a**2 + g**3 * (2 * Fraction(c)) + g**2 * a.conjugate() ** 2
    return (mul(gp, gp) - rhs).is_zero


# ---------------------------------------------------------------------------
# Sampled suites.  A case function takes its draw stream and returns
# nothing; a failed check raises _CaseFailure, and _run_case turns that
# into the case's error triple.
# ---------------------------------------------------------------------------


class _CaseFailure(Exception):
    """A failed check of a sampled case: its (context, expected, got)."""


def _split(rng: SplitMix64, degree: int, exact_degree: bool) -> BiPoly:
    """An analytic mapping of the given degree, or its conjugate with chance 1/2."""
    f = gen_analytic(rng.next_u64(), degree, exact_degree=exact_degree)
    return f.conjugate() if rng.chance(1, 2) else f


def _harmonic_with_degree_at_least(rng: SplitMix64, lo: int, hi: int) -> BiPoly:
    degree = rng.between(lo, hi)
    big = gen_analytic(rng.next_u64(), degree, exact_degree=True)
    other = gen_analytic(rng.next_u64(), degree)
    if rng.chance(1, 2):
        return big + other.conjugate()
    return other + big.conjugate()


def _nonconstant_affine(rng: SplitMix64) -> BiPoly:
    return _from_parts(
        [
            ((1, 0), rng.coeff_parts(nonzero=True)),
            ((0, 1), rng.coeff_parts()),
            ((0, 0), rng.coeff_parts()),
        ]
    )


def _check_order(name: str, f: BiPoly, q: int) -> None:
    """A generated mapping has the order it was drawn for."""
    order = polyharmonic_order(f)
    if order != q:
        raise _CaseFailure(f"{name}={f}", f"generator order {q}", str(order))


def _check_bound(outer: BiPoly, inner: BiPoly, bound: int) -> None:
    """The order of outer after inner is at most bound.

    Only the part at keys with min(i, j) >= bound is composed: it is zero
    (order 0) exactly when the order is at most bound, and otherwise its
    order is the exact order of the whole composition, which the failure
    names.
    """
    got = polyharmonic_order(compose(outer, inner, floor=bound))
    if got > bound:
        raise _CaseFailure(f"outer={outer} inner={inner}", f"order <= {bound}", str(got))


def _check_violation(res: WitnessResult, f: BiPoly, q: int, l: int, post: bool) -> None:
    """Raise _CaseFailure unless res is a Violation whose order, recomposed, is still above l.

    The composition is recomputed in full, as _search made it, and the
    failure names its exact order.  This repeats _search's composition
    rather than checking it independently; a certificate read from f's
    coefficients alone would make the recheck independent.
    """
    context = f"q={q} l={l} f={canonical_print(f)}"
    if res.verdict != VIOLATION:
        raise _CaseFailure(context, "verdict Violation", res.verdict)
    outer, inner = (f, res.witness) if post else (res.witness, f)
    order = polyharmonic_order(compose(outer, inner))
    if order != res.composition_order or order <= l:
        raise _CaseFailure(context, f"recomputed composition order > {l}", str(order))
    wrep = classify(res.witness)
    if q == 0 and not wrep.is_analytic:
        raise _CaseFailure(context, "analytic witness for q=0", canonical_print(res.witness))
    if q == 1 and (not wrep.is_harmonic or wrep.is_analytic):
        raise _CaseFailure(context, "harmonic non-analytic witness for q=1", canonical_print(res.witness))
    if q >= 2 and wrep.order != q:
        raise _CaseFailure(context, f"strictly {q}-harmonic witness", str(wrep.order))


def _check_witness(f: BiPoly, q: int, l: int, post: bool) -> WitnessResult:
    """find_witness_post (post) or find_witness_pre on (f, q, l), re-verified by _check_violation."""
    res = (find_witness_post if post else find_witness_pre)(f, q, l)
    _check_violation(res, f, q, l, post)
    return res


def _check_split_witness(f: BiPoly, t: int, q: int, l: int) -> None:
    """_check_witness before split f of degree t, whose composition has order exactly t(q-1)+1."""
    got = _check_witness(f, q, l, post=False).composition_order
    exact = t * (q - 1) + 1
    if got != exact:
        raise _CaseFailure(f"q={q} l={l} f={f}", f"composition order exactly {exact}", str(got))


def _case_thm1_suff(rng: SplitMix64) -> None:
    # (a) harmonic outer after analytic inner stays harmonic
    _check_bound(gen_harmonic(rng.next_u64(), 4), gen_analytic(rng.next_u64(), 4), 1)
    # (b) affine outer after harmonic inner stays harmonic
    affine = _nonconstant_affine(rng)
    _check_bound(affine, gen_harmonic(rng.next_u64(), 4), 1)
    # (c) affine outer after strictly q-harmonic inner stays within order q
    q = rng.between(2, 4)
    inner = gen_strict_q_harmonic(rng.next_u64(), q, 2)
    _check_order("inner", inner, q)
    _check_bound(affine, inner, q)


def _case_thm1_nec(rng: SplitMix64) -> None:
    # branch (a): non-harmonic f, analytic inners
    f = gen_strict_q_harmonic(rng.next_u64(), rng.between(2, 3), 2)
    _check_witness(f, 0, rng.between(1, 4), post=True)
    # branch (b): non-affine f, harmonic non-analytic inners
    if rng.chance(1, 2):
        f = _harmonic_with_degree_at_least(rng, 2, 4)
    else:
        f = gen_strict_q_harmonic(rng.next_u64(), rng.between(2, 3), 2)
    _check_witness(f, 1, rng.between(1, 4), post=True)
    # branch (c): outside the degree-bounded harmonic polynomial form
    q = rng.between(2, 4)
    mode = rng.below(3)
    if mode == 0:
        f = _harmonic_with_degree_at_least(rng, 2, 4)
        l = rng.between(1, 5)
    elif mode == 1:
        f = gen_strict_q_harmonic(rng.next_u64(), rng.between(2, 3), 2)
        l = rng.between(1, 5)
    else:
        f = _nonconstant_affine(rng)
        l = rng.between(1, q - 1)  # forces the degree bound to 0
    _check_witness(f, q, l, post=True)


def _case_thm2_suff(rng: SplitMix64) -> None:
    t = rng.between(0, 4)
    f = gen_analytic(rng.next_u64(), t, exact_degree=True)
    if not classify(f).is_analytic or f.deg_z != t:
        raise _CaseFailure(f"f={f}", f"analytic of degree {t}", "generator broke its contract")
    q = rng.between(2, 4)
    outer = gen_strict_q_harmonic(rng.next_u64(), q, 2)
    _check_order("outer", outer, q)
    _check_bound(outer, f, t * (q - 1) + 1)


def _case_thm2_nec(rng: SplitMix64) -> None:
    if rng.chance(1, 2):
        q = rng.below(2)
        l = rng.between(1, 4)
        _check_witness(gen_harmonic(rng.next_u64(), 3, both_parts_nonconstant=True), q, l, post=False)
    else:
        q = rng.between(2, 4)
        l = rng.between(1, 5)
        t = min((l - 1) // (q - 1) + rng.between(1, 2), 6)
        _check_split_witness(_split(rng, t, exact_degree=True), t, q, l)


def _case_thm3(rng: SplitMix64) -> None:
    mode = rng.below(5)
    if mode == 0:
        # (a) sufficiency: analytic or anti-analytic f keeps harmonic outers harmonic
        f = _split(rng, 4, exact_degree=False)
        _check_bound(gen_harmonic(rng.next_u64(), 4), f, 1)
    elif mode == 1:
        # (a) necessity at l = 1, 2
        l = rng.between(1, 2)
        q = rng.below(2)
        if rng.chance(1, 2):
            f = gen_harmonic(rng.next_u64(), 3, both_parts_nonconstant=True)
        else:
            f = gen_strict_q_harmonic(rng.next_u64(), rng.between(2, 3), 1)
        _check_witness(f, q, l, post=False)
    elif mode == 2:
        # (b) necessity: only constants survive l = 1
        q = rng.between(2, 4)
        kind = rng.below(3)
        if kind == 2:
            f = gen_harmonic(rng.next_u64(), 2, both_parts_nonconstant=True)
        else:
            f = gen_analytic(rng.next_u64(), rng.between(1, 3), exact_degree=True)
            if kind == 1:
                f = f.conjugate()
        _check_witness(f, q, 1, post=False)
    elif mode == 3:
        # (c) necessity at l = 2
        q = rng.between(2, 4)
        t = 1 // (q - 1) + rng.between(1, 2)
        _check_split_witness(_split(rng, t, exact_degree=True), t, q, 2)
    else:
        # (b)/(c) sufficiency: constants, and degree-1 analytic f for q = 2
        q = rng.between(2, 4)
        outer = gen_strict_q_harmonic(rng.next_u64(), q, 2)
        _check_bound(outer, _from_parts([((0, 0), rng.coeff_parts())]), 1)
        linear = gen_analytic(rng.next_u64(), 1, exact_degree=True)
        _check_bound(gen_strict_q_harmonic(rng.next_u64(), 2, 2), linear, 2)


def _case_prop21(rng: SplitMix64) -> None:
    q1 = rng.between(1, 5)
    q2 = 1 + (q1 - 1 + rng.between(1, 4)) % 5
    f = gen_strict_q_harmonic(rng.next_u64(), q1, 2)
    g = gen_strict_q_harmonic(rng.next_u64(), q2, 2)
    _check_order("f", f, q1)
    _check_order("g", g, q2)
    got = polyharmonic_order(f + g)
    if got != max(q1, q2):
        raise _CaseFailure(f"f={f} g={g}", f"order of sum = {max(q1, q2)}", str(got))
    h = gen_bipoly(rng.next_u64(), 4)
    ident = BiPoly.z()
    if compose(ident, h) != h or compose(h, ident) != h:
        raise _CaseFailure(f"h={h}", "identity composition fixes h", "mismatch")


def _case_prop22(rng: SplitMix64) -> None:
    kind = rng.below(4)
    if kind == 0:
        f = gen_bipoly(rng.next_u64(), 4)
    elif kind == 1:
        f = gen_analytic(rng.next_u64(), 4)
    elif kind == 2:
        f = gen_analytic(rng.next_u64(), 4).conjugate()
    else:
        f = gen_harmonic(rng.next_u64(), 3, both_parts_nonconstant=True)
    obstructions_vanish = all(a_m(f, m).is_zero for m in (1, 2, 3))
    product_zero = mul(d_dz(f), d_dzbar(f)).is_zero
    rep = classify(f)
    split = rep.is_analytic or rep.is_antianalytic
    if not (obstructions_vanish == product_zero == split):
        raise _CaseFailure(
            f"f={f}",
            "a_m vanishing <=> f_z*f_zbar = 0 <=> analytic or anti-analytic",
            f"a_m={obstructions_vanish} product={product_zero} split={split}",
        )


# The orders the counterexample hunt draws l from unless it is given others.
DEFAULT_L_VALUES = (3, 4)


def _conjecture_case(rng: SplitMix64, l_values: tuple[int, ...]) -> None:
    """One exact check of the pre-composition power bound at q <= 1.

    Draws f of order >= 2 (hence neither analytic nor anti-analytic) and
    checks that some power w^m, m = 1..2l, composes with f to order > l,
    as the Newton-polygon proof in _pre_candidates says w^(2l) does.  A
    failing case would be a fault in that proof or in the exact arithmetic.

    When f's Newton polygon has a vertex off the axes
    (wirtinger.has_off_axis_vertex), w^l already exceeds order l, so the
    case is decided with no power built; that is the verdict the power
    loop would reach.  Only f with every vertex on an axis runs the loop.

    No other harmonic outer of degree <= 2l can do better: composed with
    f it is a linear combination of f^k and conj(f)^k for k <= 2l, and
    conj only reflects a support, so when every power stays within order
    l, so does every such composition.
    """
    l = l_values[rng.below(len(l_values))]
    q = rng.between(2, 4)
    f = gen_strict_q_harmonic(rng.next_u64(), q, rng.between(1, 2))
    _check_order("f", f, q)
    if has_off_axis_vertex(f):
        return
    max_m = 2 * l
    power = BiPoly.one()
    for _ in range(max_m):
        power = mul(power, f)
        if polyharmonic_order(power) > l:
            return
    raise _CaseFailure(
        f"l={l} f={canonical_print(f)}",
        f"some harmonic outer mapping of degree <= {max_m} with composition order > l",
        f"every power f^m, m = 1..{max_m}, stayed within order {l}",
    )


# Each suite's case function and its case count in a full pass
# (`polyharm verify --suite all`), in the order that pass runs them.
_SUITES = {
    "thm1_suff": (_case_thm1_suff, 200),
    "thm1_nec": (_case_thm1_nec, 200),
    "thm2_suff": (_case_thm2_suff, 200),
    "thm2_nec": (_case_thm2_nec, 200),
    "thm3": (_case_thm3, 200),
    "prop21": (_case_prop21, 500),
    "prop22": (_case_prop22, 500),
    "conjecture_search": (lambda rng: _conjecture_case(rng, DEFAULT_L_VALUES), 2000),
}

SUITE_NAMES = tuple(sorted(_SUITES))
DEFAULT_CASES = {name: cases for name, (_, cases) in _SUITES.items()}


def _suite_case(name: str):
    try:
        return _SUITES[name][0]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}") from None


def run_suite(name: str, seed: int, cases: int) -> SuiteReport:
    """Run a named suite; deterministic given (seed, cases).

    A raised InternalInconsistency inside a case is recorded as a failure
    rather than swallowed; any other exception propagates.
    """
    return _run_cases(name, _suite_case(name), seed, cases)


def replay_case(name: str, case_seed: int):
    """Run one case of a named suite on its case seed.

    Returns the error triple that run_suite records for that case (the
    first_failure of a report whose first failing case it is), or None.
    """
    return _run_case(_suite_case(name), case_seed)


def run_conjecture_search(seed: int, cases: int, l_values: tuple[int, ...] = DEFAULT_L_VALUES) -> SuiteReport:
    """Counterexample hunt at the given l values: an exact check of the power bound."""
    l_values = tuple(l_values)
    if not l_values:
        raise ValueError("l_values must name at least one order")
    for l in l_values:
        _require_params(0, l)
    return _run_cases("conjecture_search", lambda rng: _conjecture_case(rng, l_values), seed, cases)


def _run_case(case_fn, case_seed: int):
    """Run case_fn on the draw stream of case_seed; its error triple, or None.

    The one place a failure gets its case_seed=N prefix, whether a check
    raised _CaseFailure or a witness search raised InternalInconsistency.
    """
    try:
        case_fn(SplitMix64(case_seed))
    except _CaseFailure as exc:
        context, expected, got = exc.args
        return (f"case_seed={case_seed} {context}", expected, got)
    except InternalInconsistency as exc:
        return (f"case_seed={case_seed}", "witness search must succeed", f"InternalInconsistency: {exc}")


def _run_cases(name: str, case_fn, seed: int, cases: int) -> SuiteReport:
    if not isinstance(cases, int) or cases < 0:
        raise ValueError("cases must be a nonnegative integer")
    failures = 0
    first_failure = None
    for index in range(cases):
        detail = _run_case(case_fn, spawn(seed, index))
        if detail is not None:
            failures += 1
            if first_failure is None:
                first_failure = detail
    return SuiteReport(name, cases, failures, first_failure, seed)
