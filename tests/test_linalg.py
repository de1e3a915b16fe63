"""Exact elimination, kernels, subspace lattice ops, products.

Rank is cross-checked against numpy SVD on integer matrices, where the
smallest nonzero singular value is provably far above the SVD tolerance
for these sizes, so the float oracle cannot misreport.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.errors import NotInSpan, ShapeError
from lightlike_lab.linalg import (
    FactoredBasis,
    as_mat,
    as_vec,
    det,
    identity,
    invert,
    is_zero_vec,
    lin_comb,
    mat_mul,
    mat_vec,
    null_space,
    rank,
    rref,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from lightlike_lab.scalars import GOLDEN, SILVER, MetallicParams, QuadScalar
from helpers import OpenElimination, Subspace, intersect, solve, subspace_sum

P = GOLDEN


def q(x) -> QuadScalar:
    return QuadScalar(x, 0, P)


entry = st.builds(
    lambda a, b: QuadScalar(a, b, P),
    st.integers(-4, 4),
    st.sampled_from([0, 0, 0, 1, -1]),
)


def matrices(max_dim: int = 5):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(
        lambda rc: st.lists(
            st.lists(entry, min_size=rc[1], max_size=rc[1]).map(tuple),
            min_size=rc[0],
            max_size=rc[0],
        ).map(tuple)
    )


int_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda rc: st.lists(
        st.lists(st.integers(-3, 3), min_size=rc[1], max_size=rc[1]),
        min_size=rc[0],
        max_size=rc[0],
    )
)


# ---- elimination ----


def test_rref_frozen_example():
    a = as_mat([[2, 4, 1], [1, 2, 0]], P)
    reduced, pivots = rref(a)
    assert pivots == (0, 2)
    assert reduced[0] == as_vec([1, 2, 0], P)
    assert reduced[1] == as_vec([0, 0, 1], P)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices())
def test_rref_idempotent(a):
    reduced, pivots = rref(a)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_rank_nullity(a):
    ncols = len(a[0])
    kernel = null_space(a, ncols, P)
    assert rank(a) + len(kernel) == ncols
    for k in kernel:
        assert is_zero_vec(mat_vec(a, k))
    if kernel:
        assert rank(kernel) == len(kernel)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(int_matrices)
def test_rank_against_numpy(rows):
    a = as_mat(rows, P)
    expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert rank(a) == int(expected)


# ---- solve ----


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(4), st.data())
def test_solve_recovers_consistent_systems(a, data):
    ncols = len(a[0])
    x = tuple(
        data.draw(entry, label=f"x{i}") for i in range(ncols)
    )
    b = mat_vec(a, x)
    got = solve(a, b)
    assert got is not None
    assert mat_vec(a, got) == b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(4), st.data())
def test_solve_none_means_inconsistent(a, data):
    b = tuple(data.draw(entry, label=f"b{i}") for i in range(len(a)))
    got = solve(a, b)
    augmented = tuple(row + (rhs,) for row, rhs in zip(a, b))
    if got is None:
        assert rank(augmented) == rank(a) + 1
    else:
        assert mat_vec(a, got) == b


def test_solve_shape_guard():
    a = as_mat([[1, 2]], P)
    with pytest.raises(ShapeError):
        solve(a, as_vec([1, 2], P))


# ---- determinant and inverse ----


def test_det_frozen():
    a = as_mat([[1, 2], [3, 4]], P)
    assert det(a) == q(-2)
    assert det(identity(3, P)) == q(1)
    sigma = QuadScalar.sigma(P)
    b = (
        (sigma, q(1)),
        (q(1), sigma),
    )
    # sigma^2 - 1 = sigma + q - 1 = sigma for the golden parameters
    assert det(b) == sigma


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(4))
def test_det_rank_and_inverse_agree(a):
    if len(a) != len(a[0]):
        with pytest.raises(ShapeError):
            det(a)
        return
    n = len(a)
    d = det(a)
    inv = invert(a)
    if rank(a) == n:
        assert d
        assert inv is not None
        assert mat_mul(a, inv) == identity(n, P)
        assert mat_mul(inv, a) == identity(n, P)
    else:
        assert not d
        assert inv is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrices(3), matrices(3))
def test_det_multiplicative(a, b):
    n = len(a)
    if len(a[0]) != n or len(b) != n or len(b[0]) != n:
        return
    assert det(mat_mul(a, b)) == det(a) * det(b)


# ---- subspaces ----


def subspace_from(rows) -> Subspace:
    return Subspace(as_mat(rows, P), len(rows[0]), P)


def test_subspace_canonical_equality():
    u = subspace_from([[1, 0, 1], [0, 1, 1]])
    v = subspace_from([[1, 1, 2], [2, 1, 3]])
    assert u == v
    assert hash(u) == hash(v)
    assert u.dim == 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(4), matrices(4))
def test_subspace_lattice_laws(a, b):
    n = len(a[0])
    if len(b[0]) != n:
        return
    u = Subspace(a, n, P)
    v = Subspace(b, n, P)
    s = subspace_sum(u, v)
    i = intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains_subspace(u) and s.contains_subspace(v)
    assert u.contains_subspace(i) and v.contains_subspace(i)
    assert subspace_sum(u, u) == u
    assert intersect(u, u) == u


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(4), st.data())
def test_subspace_contains_combinations(a, data):
    n = len(a[0])
    u = Subspace(a, n, P)
    coeffs = tuple(data.draw(entry, label=f"c{i}") for i in range(len(a)))
    combo = lin_comb(coeffs, a)
    assert u.contains(combo)


def test_zero_subspace():
    u = Subspace((), 3, P)
    assert u.dim == 0
    assert u.contains(as_vec([0, 0, 0], P))
    assert not u.contains(as_vec([1, 0, 0], P))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(4), st.data())
def test_subspace_contains_matches_rank(a, data):
    n = len(a[0])
    u = Subspace(a, n, P)
    v = tuple(data.draw(entry, label=f"v{i}") for i in range(n))
    assert u.contains(v) == (rank(u.basis + (v,)) == u.dim)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(4), st.data())
def test_subspace_contains_a_nudged_combination_matches_rank(a, data):
    # a member of the span moved in one entry: membership now hinges on
    # that entry alone, pivot or not
    n = len(a[0])
    u = Subspace(a, n, P)
    coeffs = tuple(data.draw(entry, label=f"c{i}") for i in range(len(a)))
    k = data.draw(st.integers(0, n - 1), label="k")
    nudge = data.draw(entry.filter(bool), label="nudge")
    v = list(lin_comb(coeffs, a))
    v[k] = v[k] + nudge
    v = tuple(v)
    assert u.contains(v) == (rank(u.basis + (v,)) == u.dim)


# ---- coordinates ----


def coords_in(basis, v):
    return FactoredBasis(basis, len(v), P).coords(v)


def test_coords_round_trip():
    basis = as_mat([[1, 1, 0], [0, 1, 1]], P)
    v = vec_add(vec_scale(q(2), basis[0]), vec_scale(QuadScalar.sigma(P), basis[1]))
    coeffs = coords_in(basis, v)
    assert coeffs == (q(2), QuadScalar.sigma(P))


def test_coords_not_in_span():
    basis = as_mat([[1, 0, 0]], P)
    with pytest.raises(NotInSpan):
        coords_in(basis, as_vec([0, 1, 0], P))
    with pytest.raises(NotInSpan):
        coords_in((), as_vec([0, 1], P))
    assert coords_in((), as_vec([0, 0], P)) == ()


def _scalars(params: MetallicParams):
    return st.builds(
        lambda a, b: QuadScalar(a, b, params),
        st.integers(-3, 3),
        st.sampled_from([0, 0, 1, -1]),
    )


def _draw_basis(data, params: MetallicParams):
    """0..4 vectors in dimension 1..4: square, tall and wide lists, and
    dependent ones (the last vector combined from the first two)."""
    scalar = _scalars(params)
    n = data.draw(st.integers(1, 4), label="n")
    k = data.draw(st.integers(0, 4), label="k")
    vecs = [tuple(data.draw(scalar, label=f"b{i}") for _ in range(n)) for i in range(k)]
    if k >= 2 and data.draw(st.booleans(), label="dependent"):
        c = data.draw(scalar, label="c")
        vecs[-1] = vec_add(vecs[0], vec_scale(c, vecs[1]))
    return n, tuple(vecs)


@pytest.mark.parametrize("params", [GOLDEN, SILVER], ids=["golden", "silver"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_factored_coords_match_solve(params, data):
    n, basis = _draw_basis(data, params)
    scalar = _scalars(params)
    factored = FactoredBasis(basis, n, params)
    assert factored.rank == (rank(basis) if basis else 0)
    # a vector inside the span: coordinates agree with solve and rebuild it
    coeffs = tuple(data.draw(scalar, label="coeff") for _ in basis)
    inside = lin_comb(coeffs, basis) if basis else as_vec([0] * n, params)
    got = factored.coords(inside)
    if basis:
        assert got == solve(transpose(basis), inside)
        assert lin_comb(got, basis) == inside
    else:
        assert got == ()
    # an arbitrary vector: NotInSpan exactly where solve finds no solution
    probe = tuple(data.draw(scalar, label="probe") for _ in range(n))
    if basis:
        expected = solve(transpose(basis), probe)
    else:
        expected = () if is_zero_vec(probe) else None
    if expected is None:
        with pytest.raises(NotInSpan):
            factored.coords(probe)
    else:
        assert factored.coords(probe) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_projector_matrix_matches_coordinates(data):
    n = data.draw(st.integers(1, 4), label="n")
    a = tuple(tuple(data.draw(entry, label="a") for _ in range(n)) for _ in range(n))
    if rank(a) != n:
        return
    factored = FactoredBasis(a, n, P)
    chosen = data.draw(st.sets(st.integers(0, n - 1)), label="chosen")
    proj = factored.projector(chosen)
    v = tuple(data.draw(entry, label=f"v{j}") for j in range(n))
    c = factored.coords(v)
    want = as_vec([0] * n, P)
    for i in chosen:
        want = vec_add(want, vec_scale(c[i], a[i]))
    assert mat_vec(proj, v) == want
    assert mat_mul(proj, proj) == proj


def test_factored_basis_shape_guards():
    with pytest.raises(ShapeError):
        FactoredBasis(as_mat([[1, 0]], P), 3, P)
    with pytest.raises(ShapeError):
        FactoredBasis(as_mat([[1, 0, 0]], P), 3, P).coords(as_vec([1, 0], P))


# ---- misc ----


@pytest.mark.parametrize("params", [GOLDEN, SILVER], ids=["golden", "silver"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_open_elimination_verdicts_match_rank(params, data):
    """Independence one vector at a time equals rank on the stacked list,
    seeded with the zero or a drawn subspace, over candidate lists
    that mix drawn vectors, combinations of earlier ones and zeros."""
    dim = data.draw(st.integers(1, 5), label="dim")
    scal = _scalars(params)

    def drawn():
        return tuple(data.draw(scal) for _ in range(dim))

    seed_rows = tuple(drawn() for _ in range(data.draw(st.integers(0, dim))))
    seed = Subspace(seed_rows, dim, params)
    elimination = OpenElimination(seed)
    kept = list(seed.basis)
    for _ in range(data.draw(st.integers(0, 2 * dim), label="count")):
        kind = data.draw(st.sampled_from(["drawn", "combination", "zero"]))
        if kind == "combination" and kept:
            v = lin_comb([data.draw(scal) for _ in kept], kept)
        elif kind == "zero":
            v = tuple(QuadScalar.zero(params) for _ in range(dim))
        else:
            v = drawn()
        independent = rank(tuple(kept) + (v,)) == len(kept) + 1
        assert is_zero_vec(elimination.reduce(v)) == (not independent)
        assert elimination.extend(v) == independent
        if independent:
            kept.append(v)
    assert len(elimination.rows) == len(kept) == rank(tuple(kept))
    assert Subspace(tuple(elimination.rows), dim, params) == Subspace(
        tuple(kept), dim, params
    )


def test_open_elimination_seed_is_taken_as_is():
    sub = Subspace(as_mat([[2, 4, 1], [1, 2, 0]], P), 3, P)
    elimination = OpenElimination(sub)
    assert elimination.rows == list(sub.basis)
    assert elimination.pivots == list(sub.pivots)
    assert not elimination.extend(as_vec([3, 6, 1], P))
    assert elimination.extend(as_vec([0, 1, 0], P))
    assert not elimination.extend(as_vec([5, -1, 7], P))  # now full rank


def test_gram_symmetric():
    vs = as_mat([[1, 2], [3, 4]], P)
    g = SignatureSpace(2, (1, -1), P).gram(vs)
    assert g == transpose(g)
    assert g[0][0] == q(-3)


def test_vector_helpers():
    u = as_vec([1, 2], P)
    v = as_vec([3, 4], P)
    assert vec_sub(vec_add(u, v), v) == u
    assert vec_scale(q(0), u) == as_vec([0, 0], P)
    with pytest.raises(ShapeError):
        vec_add(u, as_vec([1], P))
    with pytest.raises(ShapeError):
        as_mat([[1, 2], [3]], P)


# ---- products against the dense textbook product ----

# two irrational sigmas, then two square discriminants (sigma = 2 and 4)
PRODUCT_PARAMS = (GOLDEN, SILVER, MetallicParams(1, 2), MetallicParams(3, 4))


def dense_mat_mul(a, b):
    zero = a[0][0] * 0
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b))), start=zero)
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def dense_mat_vec(a, x):
    zero = x[0] * 0
    return tuple(
        sum((row[k] * x[k] for k in range(len(x))), start=zero) for row in a
    )


def exact(rows):
    """Stored coefficients, so equal values must also be stored alike."""
    return tuple(
        (x.a, x.b, x.params) if isinstance(x, QuadScalar) else exact(x) for x in rows
    )


@st.composite
def patterned_matrices(draw, params, nrows, ncols):
    value = st.builds(
        lambda n, d, b: QuadScalar(Fraction(n, d), b, params),
        st.integers(-3, 3),
        st.integers(1, 3),
        st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]),
    )
    rows = [[draw(value) for _ in range(ncols)] for _ in range(nrows)]
    zero = QuadScalar.zero(params)
    pattern = draw(st.sampled_from(("dense", "zero-row", "zero-col", "single", "zero")))
    if pattern == "zero-row":
        rows[draw(st.integers(0, nrows - 1))] = [zero] * ncols
    elif pattern == "zero-col":
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = zero
    elif pattern in ("single", "zero"):
        keep = (draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1)))
        rows = [
            [
                x if pattern == "single" and (i, j) == keep else zero
                for j, x in enumerate(row)
            ]
            for i, row in enumerate(rows)
        ]
    return tuple(tuple(row) for row in rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_products_match_dense_textbook_product(data):
    params = data.draw(st.sampled_from(PRODUCT_PARAMS), label="params")
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(patterned_matrices(params, r, k), label="a")
    b = data.draw(patterned_matrices(params, k, c), label="b")
    (x,) = data.draw(patterned_matrices(params, 1, k), label="x")
    assert exact(mat_mul(a, b)) == exact(dense_mat_mul(a, b))
    assert exact(mat_vec(a, x)) == exact(dense_mat_vec(a, x))


def test_product_shape_guards():
    row = as_mat([[1, 2]], P)
    with pytest.raises(ShapeError):
        mat_mul(row, row)
    with pytest.raises(ShapeError):
        mat_vec(row, as_vec([1], P))
    with pytest.raises(ShapeError):
        mat_vec(((),), ())
    assert mat_mul((), row) == ()
    assert mat_mul(row, ()) == ()
    assert mat_vec((), as_vec([1], P)) == ()
