"""Brute-force Newton-polygon oracles, independent of wirtinger's hull.

They find vertices and binomial edges by exhaustive search over
directions and vertex pairs, and read the points that Ostrowski's product
rule puts into f^m, so the tests can check wirtinger.newton_certificate,
wirtinger.has_off_axis_vertex and the pre-composition search against them.
"""

from math import comb

from polyharm.bipoly import BiPoly
from strategies import gr_mul


def newton_vertices(f: BiPoly) -> set:
    """The support points that some direction maximises alone.

    A vertex of a lattice polygon in [0, D]^2 is the unique maximiser of
    the sum of its two primitive edge normals, and an end of a segment of
    the primitive direction along it; all of these have integer components
    within 2D.
    """
    points = list(f.numerators)
    vertices = set()
    if not points:
        return vertices
    reach = 2 * max(map(max, points))
    for a in range(-reach, reach + 1):
        for b in range(-reach, reach + 1):
            values = [a * i + b * j for i, j in points]
            top = max(values)
            if values.count(top) == 1:
                vertices.add(points[values.index(top)])
    return vertices


def binomial_edges(f: BiPoly, vertices: set) -> set:
    """Pairs of vertices whose line bounds the support and holds no other support point."""
    points = list(f.numerators)
    edges = set()
    for x1, y1 in vertices:
        for x2, y2 in vertices:
            if (x1, y1) >= (x2, y2):
                continue
            sides = [(x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) for x, y in points]
            if (min(sides) >= 0 or max(sides) <= 0) and sides.count(0) == 2:
                edges.add(((x1, y1), (x2, y2)))
    return edges


def certified_points(f: BiPoly, m: int) -> dict:
    """Points of f^m with the coefficient Ostrowski's rule gives them.

    m*v with c_v^m for each vertex v, and (m-k)*v1 + k*v2 with
    binom(m, k)*c1^(m-k)*c2^k for each binomial edge v1 v2.
    """
    vertices = newton_vertices(f)
    certified = {(m * i, m * j): gr_mul(*[f.coefficient(i, j)] * m) for i, j in vertices}
    for (i1, j1), (i2, j2) in binomial_edges(f, vertices):
        c1, c2 = f.coefficient(i1, j1), f.coefficient(i2, j2)
        for k in range(m + 1):
            point = ((m - k) * i1 + k * i2, (m - k) * j1 + k * j2)
            certified[point] = gr_mul(*[c1] * (m - k), *[c2] * k, comb(m, k))
    return certified


def certified_start(f: BiPoly, l: int):
    """The least m < 2l with a certified point of f^m whose coordinates are both >= l, or None."""
    return next((m for m in range(1, 2 * l) if any(min(p) >= l for p in certified_points(f, m))), None)
