"""The primitive-row kernel against the QuadScalar routines it stands in
for, over rational rows (entries in Z) and rows with a sigma part
(entries in Z[sigma]), zero rows and dependent rows included: the
reduction scaled to pivot 1 is rref, the complement is the QuadScalar
orthogonal_complement of tests/helpers.py, and the nondegeneracy test agrees
with det of the Gram matrix."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.errors import ShapeError
from lightlike_lab.linalg import (
    PrimitiveRows,
    RowElimination,
    RowRing,
    det,
    is_zero_vec,
    rref,
)
from lightlike_lab.scalars import GOLDEN, SILVER, MetallicParams, QuadScalar

from helpers import OpenElimination, Subspace, intersect, orthogonal_complement

# (1, 2) has a square discriminant, so sigma = 2 and every entry is rational
PARAMS = [GOLDEN, SILVER, MetallicParams(0, 2), MetallicParams(1, 2)]
IDS = ["golden", "silver", "p0q2", "square"]


def _draw_rows(data, params, sigma, width=None):
    """A few rows of one width: drawn, zero, or a combination of two
    earlier rows, with a sigma part in some entries when asked."""
    if width is None:
        width = data.draw(st.integers(1, 5), label="width")
    small = st.integers(-3, 3)

    def entry():
        a = Fraction(data.draw(small), data.draw(st.sampled_from([1, 1, 2, 3])))
        b = data.draw(st.sampled_from([0, 0, 1, -2])) if sigma else 0
        return QuadScalar(a, b, params)

    rows = []
    for _ in range(data.draw(st.integers(0, 5), label="rows")):
        kind = data.draw(st.sampled_from(["drawn", "drawn", "zero", "combination"]))
        if kind == "zero":
            rows.append(tuple(QuadScalar.zero(params) for _ in range(width)))
        elif kind == "combination" and len(rows) >= 2:
            c1, c2 = entry(), entry()
            rows.append(tuple(c1 * x + c2 * y for x, y in zip(rows[-1], rows[-2])))
        else:
            rows.append(tuple(entry() for _ in range(width)))
    return width, rows


def _cleared(params, rows):
    ring = RowRing.over(params, rows)
    return ring, [ring.clear(v)[0] for v in rows]


def _triples(vectors):
    return [[(x.A, x.B, x.D) for x in v] for v in vectors]


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
@pytest.mark.parametrize("sigma", [False, True], ids=["rational", "sigma"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_reduction_scaled_to_pivot_one_is_rref(params, sigma, data):
    width, rows = _draw_rows(data, params, sigma)
    ring, cleared = _cleared(params, rows)
    assert ring.sigma == any(x.B for v in rows for x in v)
    span = PrimitiveRows.span(ring, cleared, width)
    reduced, pivots = rref(tuple(rows)) if rows else ((), ())
    assert span.pivots == pivots
    assert _triples(span.basis) == _triples(reduced[: len(pivots)])
    expected = Subspace(tuple(rows), width, params)
    assert (span.basis, span.pivots, span.width) == (expected.basis, expected.pivots, expected.ambient_dim)
    for row, p, canon in zip(span.rows, span.pivots, span.basis):
        # a nonzero multiple of the canonical row, with content 1
        assert all(x == row[p] * c for x, c in zip(row, canon))
        if not ring.sigma:
            assert row[p] > 0
            assert gcd(*row) == 1
        else:
            assert gcd(*(x.A for x in row), *(x.B for x in row)) == 1


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
@pytest.mark.parametrize("sigma", [False, True], ids=["rational", "sigma"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_complement_is_the_orthogonal_complement(params, sigma, data):
    width, rows = _draw_rows(data, params, sigma)
    eps = tuple(data.draw(st.sampled_from([-1, 1])) for _ in range(width))
    space = SignatureSpace(width, eps, params)
    ring, cleared = _cleared(params, rows)
    perp = PrimitiveRows.span(ring, cleared, width).complement(eps)
    expected = orthogonal_complement(space, Subspace(tuple(rows), width, params))
    assert (_triples(perp.basis), perp.pivots) == (_triples(expected.basis), expected.pivots)


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
@pytest.mark.parametrize("sigma", [False, True], ids=["rational", "sigma"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_nondegeneracy_agrees_with_the_gram_determinant(params, sigma, data):
    """On the rows as drawn (a dependent list gives a singular Gram
    matrix) and on their reduced rows, whose Gram matrix differs from
    the canonical basis's by the squares of the row scales."""
    width, rows = _draw_rows(data, params, sigma)
    if not rows:
        return
    eps = tuple(data.draw(st.sampled_from([-1, 1])) for _ in range(width))
    space = SignatureSpace(width, eps, params)
    ring, cleared = _cleared(params, rows)
    assert ring.nonsingular(ring.gram(eps, cleared)) == bool(det(space.gram(rows)))
    span = PrimitiveRows.span(ring, cleared, width)
    if span.dim:
        assert ring.nonsingular(ring.gram(eps, span.rows)) == bool(det(space.gram(span.basis)))


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
@pytest.mark.parametrize("sigma", [False, True], ids=["rational", "sigma"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_image_of_the_pairing_is_the_orthogonal_part(params, sigma, data):
    """gram(eps, left, rows) is the off-diagonal block of the stacked
    Gram matrix, and kernel_image of it is span(rows) meet the orthogonal
    space of left, as intersect and orthogonal_complement of
    tests/helpers.py find it; zero and dependent rows on either side."""
    width, left = _draw_rows(data, params, sigma)
    _, rows = _draw_rows(data, params, sigma, width)
    eps = tuple(data.draw(st.sampled_from([-1, 1])) for _ in range(width))
    space = SignatureSpace(width, eps, params)
    ring, cleared = _cleared(params, left + rows)
    k = len(left)
    pairing = ring.gram(eps, cleared[:k], cleared[k:])
    assert pairing == [g[k:] for g in ring.gram(eps, cleared)[:k]]
    image = ring.kernel_image(pairing, cleared[k:], width)
    expected = intersect(
        Subspace(tuple(rows), width, params),
        orthogonal_complement(space, Subspace(tuple(left), width, params)),
    )
    assert (_triples(image.basis), image.pivots) == (_triples(expected.basis), expected.pivots)


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
@pytest.mark.parametrize("sigma", [False, True], ids=["rational", "sigma"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_membership_and_open_elimination_match_the_quadscalar_ones(params, sigma, data):
    width, rows = _draw_rows(data, params, sigma)
    _, candidates = _draw_rows(data, params, sigma, width)
    sub = Subspace(tuple(rows), width, params)
    ring = RowRing.over(params, rows, candidates)
    span = PrimitiveRows.span(ring, [ring.clear(v)[0] for v in rows], width)
    quad, integer = OpenElimination(sub), RowElimination(span)
    for v in candidates:
        row = ring.clear(v)[0]
        assert span.contains(row) == span.contains(v) == sub.contains(v)
        assert (not any(integer.reduce(row))) == is_zero_vec(quad.reduce(v))
        assert integer.extend(row) == quad.extend(v)
    assert integer.pivots == quad.pivots


@pytest.mark.parametrize("sigma", [False, True], ids=["rational", "sigma"])
def test_membership_refuses_a_vector_of_another_length(sigma):
    """A short or long vector is a ShapeError, as for Subspace, not the
    answer for its truncation."""
    ring = RowRing(GOLDEN, sigma)
    span = PrimitiveRows.span(ring, [[ring.one, ring.zero, ring.zero]], 3)
    sub = Subspace((_quad(1, 0, 0),), 3, GOLDEN)
    message = "vector length does not match ambient dimension"
    for v in (_quad(1, 0), _quad(1, 0, 0, 5)):
        for spans in (span, sub):
            with pytest.raises(ShapeError, match=message):
                spans.contains(v)
    for row in ([ring.one, ring.zero], [ring.one, ring.zero, ring.zero, 5 * ring.one]):
        with pytest.raises(ShapeError, match=message):
            span.contains(row)
    assert span.contains(_quad(2, 0, 0)) and not span.contains(_quad(1, 0, 5))


def _quad(*entries):
    return tuple(QuadScalar(x, 0, GOLDEN) for x in entries)
