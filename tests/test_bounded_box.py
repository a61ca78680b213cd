"""Every witness verdict on a small bounded box of mappings, exhaustively.

The sampled suites and the hand-picked corners reach the later candidates
of the witness families (the ones that carry the "at most one c, eps or
lam cancels" proofs) only by chance.  Here every nonzero f with
coefficients in {0, 1, -1} on a fixed support of six points is searched
for q 0-3, l 1-3, after and before f.  f and -f have the same verdicts,
as F(-w) has the class of F, so each f is taken up to sign: 364 per
support, 8,736 searches.
"""

from itertools import product

import pytest

from polyharm.bipoly import BiPoly
from polyharm.classify import classify
from polyharm.theorems import (
    COMPLIANT,
    _check_violation,
    _post_candidates,
    _pre_candidates,
    allowed_form_post,
    allowed_form_pre,
    find_witness_post,
    find_witness_pre,
)

SUPPORTS = {
    "quadratic": ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
    "biharmonic": ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)),
}


def box(support):
    """Each nonzero f on support with coefficients in {0, 1, -1}, up to sign."""
    for coeffs in product((0, 1, -1), repeat=len(support)):
        if next((c for c in coeffs if c), -1) == 1:
            yield BiPoly({key: c for key, c in zip(support, coeffs) if c})


def later_candidates(support) -> set:
    """(family tag, candidate index) of every Violation past its family's first candidate."""
    reached = set()
    for f in box(support):
        rep = classify(f)
        for q, l, post in product(range(4), range(1, 4), (True, False)):
            res = (find_witness_post if post else find_witness_pre)(f, q, l)
            allowed = (allowed_form_post if post else allowed_form_pre)(f, q, l)
            assert (res.verdict == COMPLIANT) == allowed, (str(f), q, l, post)
            if allowed:
                continue
            _check_violation(res, f, q, l, post)
            candidates = [c for c, _ in (_post_candidates if post else _pre_candidates)(f, rep, q, l)]
            index = candidates.index(res.witness) + 1
            if index > 1:
                reached.add((res.family_tag, index))
    return reached


def test_box_sizes():
    assert [sum(1 for _ in box(support)) for support in SUPPORTS.values()] == [364, 364]


# The later candidates each support reaches.  Together they reach every
# one but the paired family's candidate 2, c = i, which no f here can
# reach: that family needs d >= 2, a harmonic f on these supports has
# d <= 2, and its factor h_d*c^(2d) + conj(g_d) at d = 2 uses c^4, and
# i^4 = 1, so c = i fails exactly when c = 1 does.
LATER = {
    "quadratic": {
        ("c*|z|^(2(q-1))", 2),
        ("c*|z|^(2(q-1))", 3),
        ("z^m+(c*zbar)^m", 2),
        ("z^m+(c*zbar)^m", 3),
        ("c*|z|^(2(q-1))*(z^(2m)+zbar^(2m))", 3),
        ("w^m + 2*|w|^(2(q-1))", 2),
    },
    "biharmonic": {
        ("c*|z|^(2(q-1))", 2),
        ("w^m + 2*conj(w)", 2),
        ("w^m + 2*|w|^(2(q-1))", 2),
    },
}


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_every_verdict_in_the_box(name):
    assert later_candidates(SUPPORTS[name]) == LATER[name]
