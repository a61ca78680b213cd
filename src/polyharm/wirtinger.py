"""Wirtinger derivatives, Laplacian, polyharmonic order, Almansi split.

The Laplacian is 4 * d/dz d/dzbar, acting termwise on the sparse
representation: 4*i*j * z^(i-1) * zbar^(j-1).  The least p with
laplacian(f, p) == 0 therefore has the closed form 1 + max(min(i, j))
over the support, which makes order detection exact and decidable.
"""

from math import perm
from operator import itemgetter

from .bipoly import BiPoly, _from_parts, _reduced
from .errors import NonHarmonicComponent


def _derivative(f: BiPoly, orders, scale: int = 1) -> list[list]:
    """scale * d^a/dz^a d^b/dzbar^b f for each (a, b) in orders, a, b <= 2, in one pass over f.

    Returns one list of unreduced (key, (re, im)) items over f's
    denominator per order.  c * z^i * zbar^j ->
    c * i!/(i-a)! * j!/(j-b)! * z^(i-a) * zbar^(j-b); a term whose falling
    factorial is 0 (i < a or j < b) is dropped.
    """
    outs = [[] for _ in orders]
    for (i, j), (re, im) in f.numerators.items():
        fi, fj = (1, i, i * (i - 1)), (1, j, j * (j - 1))
        for out, (a, b) in zip(outs, orders):
            k = scale * fi[a] * fj[b]
            if k:
                out.append(((i - a, j - b), (re * k, im * k)))
    return outs


def d_dz(f: BiPoly) -> BiPoly:
    """Formal d/dz: c * z^i * zbar^j -> c*i * z^(i-1) * zbar^j."""
    return _reduced(dict(_derivative(f, ((1, 0),))[0]), f.denominator)


def d_dzbar(f: BiPoly) -> BiPoly:
    """Formal d/dzbar: c * z^i * zbar^j -> c*j * z^i * zbar^(j-1)."""
    return _reduced(dict(_derivative(f, ((0, 1),))[0]), f.denominator)


def laplacian(f: BiPoly, times: int = 1) -> BiPoly:
    """Apply 4 * d/dz d/dzbar the given number of times (times >= 1), in one pass.

    c * z^i * zbar^j goes to c * 4^k * i!/(i-k)! * j!/(j-k)! *
    z^(i-k) * zbar^(j-k) for k = times, and to zero when k > min(i, j);
    when k exceeds every min(i, j) the result is zero, with no 4^k made.
    """
    if not isinstance(times, int) or times < 1:
        raise ValueError("times must be a positive integer")
    num = f.numerators
    if not num or times > max(map(min, num)):
        return BiPoly.zero()
    scale = 4**times
    out = {}
    for (i, j), (re, im) in num.items():
        if i >= times and j >= times:
            k = scale * perm(i, times) * perm(j, times)
            out[(i - times, j - times)] = (re * k, im * k)
    return _reduced(out, f.denominator)


def polyharmonic_order(f: BiPoly) -> int:
    """Least p with laplacian(f, p) == 0; the zero mapping has order 0."""
    if f.is_zero:
        return 0
    return 1 + max(map(min, f.numerators))


# Orders support points by (j, i): the key of has_off_axis_vertex's second read.
_J_THEN_I = itemgetter(1, 0)


def _newton_vertices(f: BiPoly) -> list[tuple[int, int]]:
    """Vertices of f's Newton polygon (the convex hull of its support), in cyclic order.

    Andrew's monotone chain; popping on cross <= 0 drops collinear points,
    so a support point inside an edge, like (1, 1) in z^2 + z*zbar + zbar^2,
    is not a vertex.  A support on one line gives its two ends; f = 0 gives
    no vertex.
    """
    points = sorted(f.numerators)
    if len(points) <= 1:
        return points

    def half_hull(ordered):
        chain = []
        for x, y in ordered:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                chain.pop()
            chain.append((x, y))
        return chain

    return half_hull(points)[:-1] + half_hull(reversed(points))[:-1]


def has_off_axis_vertex(f: BiPoly) -> bool:
    """Whether a vertex v of f's Newton polygon has min(v) >= 1; False for f = 0.

    f^m has c_v^m != 0 at m*v (see newton_certificate), so then
    order(f^m) >= 1 + m*min(v).  Two support points are vertices read with
    no hull built and no tuple made per key: max(support), the only point
    that maximises i + eps*j for a small eps > 0, and the largest in
    (j, i), the only one that maximises j + eps*i.  The hull decides only
    when both lie on an axis.
    """
    support = f.numerators
    # Exponents are never negative, so "i and j" reads min(i, j) >= 1.
    i, j = max(support, default=(0, 0))
    if i and j:
        return True
    i, j = max(support, key=_J_THEN_I, default=(0, 0))
    if i and j:
        return True
    return any(min(v) >= 1 for v in _newton_vertices(f))


def newton_certificate(f: BiPoly, l: int) -> int | None:
    """The least m < 2l for which f's Newton polygon certifies order(f^m) > l, or None.

    f^m certainly has in its support the points below, and m is certified
    when one of them has both coordinates >= l.  Proof: for a weight w, the
    initial form of f^m on the face of its Newton polygon that w selects is
    the initial form of f on that face, raised to the power m (Ostrowski
    1921: the Newton polygon of a product is the Minkowski sum of the
    factors' polygons).
      * At a vertex v of f with coefficient c_v, the initial form is a
        monomial, so f^m has c_v^m != 0 at m*v.
      * On an edge v1 v2 whose only support points are its two ends, the
        initial form is the binomial c1*x^v1 + c2*x^v2, whose m-th power
        puts binom(m, k) * c1^(m-k) * c2^k != 0 at (m-k)*v1 + k*v2 for
        k = 0..m; these exponents are distinct, so nothing cancels.
    A vertex v is the face (v, v), so one rule reads both.  A support on
    one line is one edge.  An edge with a support point inside it
    certifies only its ends.
    """
    vertices = _newton_vertices(f)
    cycle = vertices + vertices[:1] if len(vertices) > 2 else vertices
    inner = f.numerators.keys() - set(vertices)
    # A support point on an edge's line lies on the edge, between its ends.
    faces = [(v, v) for v in vertices] + [
        ((x1, y1), (x2, y2))
        for (x1, y1), (x2, y2) in zip(cycle, cycle[1:])
        if not any((x2 - x1) * (y - y1) == (y2 - y1) * (x - x1) for x, y in inner)
    ]
    for m in range(1, 2 * l):
        for (x1, y1), (x2, y2) in faces:
            for k in range(m + 1):
                if min((m - k) * x1 + k * x2, (m - k) * y1 + k * y2) >= l:
                    return m
    return None


def almansi_decompose(f: BiPoly) -> tuple[BiPoly, ...]:
    """Split f into harmonic components (G_1, ..., G_p) with f = sum (z*zbar)^(k-1) G_k.

    Each monomial c * z^i * zbar^j with m = min(i, j) is routed to
    component G_(m+1) as c * z^(i-m) when i >= j and as c * zbar^(j-m)
    otherwise.  The component count p equals the polyharmonic order, so
    the zero mapping gives the empty tuple.
    """
    order = polyharmonic_order(f)
    buckets: list[dict] = [{} for _ in range(order)]
    for (i, j), c in f.numerators.items():
        m = min(i, j)
        key = (i - m, 0) if i >= j else (0, j - m)
        buckets[m][key] = c
    return tuple(_reduced(b, f.denominator) for b in buckets)


def almansi_recompose(components: tuple[BiPoly, ...]) -> BiPoly:
    """Evaluate sum_k (z*zbar)^(k-1) * G_k exactly; no components give zero.

    Raises NonHarmonicComponent if any component has a mixed monomial.
    """
    parts = []
    for k, g in enumerate(components):
        for (i, j), (re, im) in g.numerators.items():
            if min(i, j) >= 1:
                raise NonHarmonicComponent(
                    f"component {k + 1} contains the mixed monomial z^{i}*zbar^{j}"
                )
            parts.append(((i + k, j + k), (re, im, g.denominator)))
    return _from_parts(parts)
