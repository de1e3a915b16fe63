"""QuadScalar's integer triple against the Fraction-pair class it replaced.

pair_scalars.PairScalar is the former implementation, which works on the
Fraction coefficients a and b.  Every operation here runs on both classes
with the same inputs and must give the same value, the same text and the
same errors, and every QuadScalar result must be in canonical form:
D > 0, gcd(A, B, D) == 1, and B == 0 when the discriminant is a square.

The elimination kernels (rref, null_space, invert, det, FactoredBasis
and the test helper OpenElimination), which skip zero entries and zero
factors, are compared with a textbook Gauss-Jordan that skips nothing,
run on PairScalar entries, over random matrices that are at least half
zeros.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.errors import DivByZero, NotInSpan, ParamError
from lightlike_lab.linalg import (
    FactoredBasis,
    det,
    invert,
    is_zero_vec,
    null_space,
    rref,
)
from lightlike_lab.scalars import GOLDEN, SILVER, MetallicParams, QuadScalar, parse_scalar
from helpers import OpenElimination, Subspace
from pair_scalars import (
    PairScalar,
    det_by_cofactors,
    det_by_elimination,
    gauss_jordan,
)

# (1, 2) and (2, 3) have discriminants 9 and 16: sigma is 2 and 3 there
ORACLE_PARAMS = [GOLDEN, SILVER, MetallicParams(1, 2), MetallicParams(2, 3)]
IDS = ["golden", "silver", "square-1-2", "square-2-3"]

rationals = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
)
ints = st.integers(-(10**6), 10**6)


def canonical(x: QuadScalar) -> None:
    assert type(x) is QuadScalar
    assert all(type(v) is int for v in (x.A, x.B, x.D))
    assert x.D > 0
    assert math.gcd(x.A, x.B, x.D) == 1
    if x.params.square_discriminant:
        assert x.B == 0


def same(got, want) -> None:
    """A QuadScalar result equals the oracle's value, coefficient by coefficient."""
    canonical(got)
    assert type(want) is PairScalar
    assert (got.a, got.b, got.params) == (want.a, want.b, want.params)


def outcome(fn):
    """The value fn() returns, or the type of the library error it raises."""
    try:
        return fn()
    except (DivByZero, ParamError) as exc:
        return type(exc)


def same_outcome(fn_quad, fn_pair) -> None:
    got, want = outcome(fn_quad), outcome(fn_pair)
    if isinstance(want, type):
        assert got is want
    else:
        same(got, want)


def pair_of(params, a, b):
    return QuadScalar(a, b, params), PairScalar(a, b, params)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, c=rationals, d=rationals, n=ints, f=rationals)
def test_field_operations_match_the_pair_oracle(params, a, b, c, d, n, f):
    x, px = pair_of(params, a, b)
    y, py = pair_of(params, c, d)
    same(x, px)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        same_outcome(lambda: op(x, y), lambda: op(px, py))
        same_outcome(lambda: op(x, n), lambda: op(px, n))
        same_outcome(lambda: op(n, x), lambda: op(n, px))
        same_outcome(lambda: op(x, f), lambda: op(px, f))
        same_outcome(lambda: op(f, x), lambda: op(f, px))
    same(-x, -px)
    same(abs(x), abs(px))
    same(x.conjugate(), px.conjugate())
    same_outcome(x.inverse, px.inverse)
    for e in range(-3, 6):
        same_outcome(lambda: x**e, lambda: px**e)
    norm = x.field_norm()
    assert type(norm) is Fraction and norm == px.field_norm()
    assert x.is_rational == px.is_rational


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, c=rationals, d=rationals, n=st.integers(-6, 6))
def test_order_equality_and_hash_match_the_pair_oracle(params, a, b, c, d, n):
    x, px = pair_of(params, a, b)
    y, py = pair_of(params, c, d)
    assert x.sign() == px.sign()
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(x, y) == op(px, py)
        assert op(x, n) == op(px, n)
        assert op(x, x.a) == op(px, px.a)
    assert bool(x) == bool(px)
    # equal values hash alike, and a rational hashes as its int or Fraction
    if x == y:
        assert hash(x) == hash(y)
    if x.is_rational:
        assert hash(x) == hash(px) == hash(x.a)
        assert x == x.a and x.a == x
        if x.a.denominator == 1:
            assert x == int(x.a) and hash(x) == hash(int(x.a))
    assert (x == Fraction(n)) == (px == Fraction(n))


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, places=st.integers(0, 30))
def test_text_and_embedding_match_the_pair_oracle(params, a, b, places):
    x, px = pair_of(params, a, b)
    text = x.to_string()
    assert text == px.to_string() and str(x) == str(px)
    back = parse_scalar(text, params)
    canonical(back)
    assert back == x and (back.A, back.B, back.D) == (x.A, x.B, x.D)
    assert x.embed(places) == px.embed(places)
    assert float(x) == float(px)


def test_rationals_equal_across_parameters_and_others_do_not():
    assert QuadScalar(Fraction(3, 2), 0, GOLDEN) == QuadScalar(Fraction(3, 2), 0, SILVER)
    assert QuadScalar.sigma(GOLDEN) != QuadScalar.sigma(SILVER)
    assert PairScalar.sigma(GOLDEN) != PairScalar.sigma(SILVER)
    with pytest.raises(ParamError):
        QuadScalar.sigma(GOLDEN) - QuadScalar.sigma(SILVER)


square_3x3 = st.lists(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)),
             min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(cells=square_3x3)
def test_det_matches_the_cofactor_expansion(params, cells):
    quad = tuple(
        tuple(QuadScalar(Fraction(a, k), Fraction(b, k), params) for a, b, k in row)
        for row in cells
    )
    pair = [[PairScalar(Fraction(a, k), Fraction(b, k), params) for a, b, k in row] for row in cells]
    same(det(quad), det_by_cofactors(pair))


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
def test_construction_reduces_to_canonical_form(params):
    for a, b in [
        (Fraction(2, 4), Fraction(6, 8)),
        (Fraction(-9, 6), Fraction(10, 4)),
        (0, Fraction(5, 10)),
        (Fraction(7, 21), 0),
        (0, 0),
        (6, -4),
    ]:
        x, px = pair_of(params, a, b)
        same(x, px)
    for x in (QuadScalar.zero(params), QuadScalar.one(params), QuadScalar.sigma(params)):
        canonical(x)
    assert (QuadScalar.zero(params).A, QuadScalar.zero(params).D) == (0, 1)
    # a difference that cancels lands on the one zero triple
    half = QuadScalar(Fraction(1, 2), Fraction(1, 2), params)
    z = half - half
    canonical(z)
    assert (z.A, z.B, z.D) == (0, 0, 1)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
def test_copy_and_pickle_round_trip(params):
    x = QuadScalar(Fraction(-7, 6), Fraction(5, 4), params)
    copies = [copy.copy(x), copy.deepcopy(x), copy.deepcopy([x, x])[0]]
    copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        canonical(y)
        assert y == x and hash(y) == hash(x)
        assert (y.A, y.B, y.D, y.params) == (x.A, x.B, x.D, x.params)
        assert y + 1 == x + 1


def test_coefficients_are_read_only():
    x = QuadScalar(1, 2, GOLDEN)
    with pytest.raises(AttributeError):
        x.a = Fraction(3)  # type: ignore[misc]
    with pytest.raises(AttributeError):
        x.b = Fraction(3)  # type: ignore[misc]
    with pytest.raises(AttributeError):
        x.extra = 1  # type: ignore[attr-defined]


# ---- elimination kernels against a plain Gauss-Jordan ----

cell = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3))


@st.composite
def sparse_cells(draw, nrows, ncols):
    """An nrows x ncols grid of (a, b, k) cells, at least half of them zero."""
    size = nrows * ncols
    nonzero = draw(st.sets(st.integers(0, size - 1), max_size=size // 2))
    flat = [draw(cell) if k in nonzero else (0, 0, 1) for k in range(size)]
    return [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]


def quad_mat(cells, params):
    return tuple(
        tuple(QuadScalar(Fraction(a, k), Fraction(b, k), params) for a, b, k in row)
        for row in cells
    )


def pair_of_quad(x):
    return PairScalar(x.a, x.b, x.params)


def pair_mat(mat):
    return [[pair_of_quad(x) for x in row] for row in mat]


def same_mat(got, want) -> None:
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for x, y in zip(got_row, want_row):
            same(x, y)


def draw_matrix(data, params, max_rows=6, max_cols=12, square=False, ncols=None):
    nrows = data.draw(st.integers(1, max_rows), label="rows")
    if square:
        ncols = nrows
    elif ncols is None:
        ncols = data.draw(st.integers(1, max_cols), label="cols")
    return quad_mat(data.draw(sparse_cells(nrows, ncols), label="cells"), params)


def plain_coords(basis, v):
    """Coordinates of v in the list basis from Gauss-Jordan on [B^T | v],
    zero at the dependent vectors; None when v is outside the span."""
    k = len(basis)
    augmented = [[basis[i][row] for i in range(k)] + [v[row]] for row in range(len(v))]
    reduced, pivots = gauss_jordan(augmented)
    if pivots and pivots[-1] == k:
        return None
    out = [PairScalar.zero(v[0].params)] * k
    for r, p in enumerate(pivots):
        out[p] = reduced[r][k]
    return out


def combination(coeffs, vectors):
    acc = [PairScalar.zero(vectors[0][0].params)] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        acc = [x + c * y for x, y in zip(acc, v)]
    return acc


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rref_and_null_space_match_plain_gauss_jordan(params, data):
    a = draw_matrix(data, params)
    ncols = len(a[0])
    reduced, pivots = rref(a)
    want, want_pivots = gauss_jordan(pair_mat(a))
    assert pivots == want_pivots
    same_mat(reduced, want)
    # one kernel vector per free column: e_free minus the pivot entries there
    zero, one = PairScalar.zero(params), PairScalar.one(params)
    kernel = null_space(a, ncols, params)
    free = [c for c in range(ncols) if c not in want_pivots]
    assert len(kernel) == len(free)
    for v, fc in zip(kernel, free):
        expected = [one if c == fc else zero for c in range(ncols)]
        for r, pc in enumerate(want_pivots):
            expected[pc] = -want[r][fc]
        same_mat((v,), (expected,))
        for row in pair_mat(a):
            assert not sum((x * pair_of_quad(y) for x, y in zip(row, v)), zero)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_det_and_invert_match_plain_gauss_jordan(params, data):
    a = draw_matrix(data, params, square=True)
    n = len(a)
    pair = pair_mat(a)
    d = det(a)
    same(d, det_by_elimination(pair))
    if n <= 4:
        same(d, det_by_cofactors(pair))
    zero, one = PairScalar.zero(params), PairScalar.one(params)
    identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    reduced, pivots = gauss_jordan([row + e for row, e in zip(pair, identity)], n)
    inverse = invert(a)
    if pivots != tuple(range(n)):
        assert inverse is None and not d
    else:
        assert d
        same_mat(inverse, [row[n:] for row in reduced])


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_factored_basis_matches_plain_gauss_jordan(params, data):
    basis = draw_matrix(data, params)
    k, n = len(basis), len(basis[0])
    factor = FactoredBasis(basis, n, params)
    pair = pair_mat(basis)
    # [B^T | I] reduced with pivots among the basis columns only
    zero, one = PairScalar.zero(params), PairScalar.one(params)
    stacked = [
        [pair[i][row] for i in range(k)] + [one if row == j else zero for j in range(n)]
        for row in range(n)
    ]
    reduced, pivots = gauss_jordan(stacked, k)
    assert factor.pivots == pivots
    weights = data.draw(st.lists(cell, min_size=k, max_size=k), label="weights")
    coeffs = [PairScalar(Fraction(a, c), Fraction(b, c), params) for a, b, c in weights]
    inside = combination(coeffs, pair)
    probe = pair_mat(quad_mat(data.draw(sparse_cells(1, n), label="probe"), params))[0]
    for v in (inside, probe, *pair):
        want = plain_coords(pair, v)
        quad_v = tuple(QuadScalar(x.a, x.b, params) for x in v)
        if want is None:
            with pytest.raises(NotInSpan):
                factor.coords(quad_v)
        else:
            same_mat((factor.coords(quad_v),), (want,))
    indices = data.draw(st.sets(st.integers(0, k - 1)), label="indices")
    projector = factor.projector(indices)
    expected = [[zero] * n for _ in range(n)]
    for t, p in enumerate(pivots):
        if p in indices:
            for row in range(n):
                for col in range(n):
                    expected[row][col] += pair[p][row] * reduced[t][k + col]
    same_mat(projector, expected)
    # on the span, the projection keeps exactly the chosen coordinates
    want = plain_coords(pair, inside)
    kept = [c if i in indices else zero for i, c in enumerate(want)]
    image = [sum((x * y for x, y in zip(row, inside)), zero) for row in pair_mat(projector)]
    assert image == combination(kept, pair)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_open_elimination_matches_plain_gauss_jordan(params, data):
    seed_rows = draw_matrix(data, params)
    n = len(seed_rows[0])
    seed = Subspace(seed_rows, n, params)
    candidates = draw_matrix(data, params, ncols=n)
    if len(candidates) >= 2:
        # a combination of two candidates is dependent once both are kept
        candidates += (tuple(x + y for x, y in zip(candidates[0], candidates[1])),)
    elimination = OpenElimination(seed)
    rows = [pair_mat((row,))[0] for row in seed.basis]
    pivots = list(seed.pivots)
    for v in candidates:
        # the textbook forward pass against the rows kept so far
        w = pair_mat((v,))[0]
        for row, p in zip(rows, pivots):
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
        residual = elimination.reduce(v)
        same_mat((residual,), (w,))
        stacked_rank = len(gauss_jordan(rows + [pair_mat((v,))[0]])[1])
        assert is_zero_vec(residual) == (stacked_rank == len(rows))
        if not is_zero_vec(residual):
            elimination.keep(residual)
            c = next(i for i, x in enumerate(w) if x)
            inv = w[c].inverse()
            rows.append([inv * x for x in w])
            pivots.append(c)
    same_mat(elimination.rows, rows)
    assert elimination.pivots == pivots
