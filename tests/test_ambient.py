"""Signature spaces, orthogonal complements, structure validators."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.ambient import (
    MetallicStructure,
    SignatureSpace,
    diag_branches,
    validate_compatibility,
    validate_metallic,
)
from lightlike_lab.errors import ShapeError, ValidationError
from lightlike_lab.linalg import (
    as_mat,
    as_vec,
    identity,
    mat_mul,
    null_space,
    transpose,
)
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.scalars import GOLDEN, MetallicParams, QuadScalar
from lightlike_lab.submanifold import PolynomialImmersion

from helpers import Subspace, orthogonal_complement

P02 = MetallicParams(0, 2)


def test_signature_validation():
    with pytest.raises(ValidationError):
        SignatureSpace(2, (1, 0), GOLDEN)
    with pytest.raises(ShapeError):
        SignatureSpace(3, (1, 1), GOLDEN)
    with pytest.raises(ValidationError):
        SignatureSpace(0, (), GOLDEN)
    space = SignatureSpace(3, (-1, 1, 1), GOLDEN)
    assert space.index == 1


def test_inner_lightlike_vector():
    space = SignatureSpace(2, (-1, 1), GOLDEN)
    u = as_vec([1, 1], GOLDEN)
    assert not space.inner(u, u)
    assert space.inner(space.basis_vector(0), space.basis_vector(0)) == -1


def test_orthogonal_complement_of_null_line():
    """In the plane with signature (-, +) a lightlike line is its own complement."""
    space = SignatureSpace(2, (-1, 1), GOLDEN)
    line = Subspace((as_vec([1, 1], GOLDEN),), 2, GOLDEN)
    perp = orthogonal_complement(space, line)
    assert perp == line


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from([1, -1]), min_size=1, max_size=5),
    st.data(),
)
def test_complement_dimension_and_involution(eps, data):
    space = SignatureSpace(len(eps), tuple(eps), GOLDEN)
    k = data.draw(st.integers(0, len(eps)), label="k")
    rows = tuple(
        tuple(
            QuadScalar(data.draw(st.integers(-3, 3)), 0, GOLDEN)
            for _ in range(len(eps))
        )
        for _ in range(k)
    )
    sub = Subspace(rows, len(eps), GOLDEN)
    perp = orthogonal_complement(space, sub)
    assert sub.dim + perp.dim == space.dim
    assert orthogonal_complement(space, perp) == sub
    for b in sub.basis:
        for c in perp.basis:
            assert not space.inner(b, c)


def _textbook_inner(space, u, v):
    return sum(
        (QuadScalar(e, 0, space.params) * x * y for e, x, y in zip(space.eps, u, v)),
        start=QuadScalar.zero(space.params),
    )


def _null_space_complement(space, sub):
    """The complement as a kernel: null_space of B diag(eps), then the
    canonical basis of that kernel (two eliminations)."""
    rows = tuple(
        tuple(space.eps[j] * b[j] for j in range(space.dim)) for b in sub.basis
    )
    return Subspace(null_space(rows, space.dim, space.params), space.dim, space.params)


def _sparse_vectors(data, params, dim, count):
    entry = st.builds(
        lambda a, b: QuadScalar(a, b, params),
        st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-1, 2)]),
        st.sampled_from([0, 0, 1, -1]),
    )
    return tuple(
        tuple(data.draw(entry) for _ in range(dim)) for _ in range(count)
    )


@pytest.mark.parametrize(
    "params", [GOLDEN, P02, MetallicParams(1, 2)], ids=["golden", "p0", "square"]
)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    eps=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=6), data=st.data()
)
def test_inner_and_gram_match_the_textbook_sum(params, eps, data):
    space = SignatureSpace(len(eps), tuple(eps), params)
    vectors = _sparse_vectors(data, params, len(eps), data.draw(st.integers(0, 4)))
    gram = space.gram(vectors)
    assert len(gram) == len(vectors)
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            expected = _textbook_inner(space, u, v)
            assert space.inner(u, v) == expected
            assert gram[i][j] == expected


@pytest.mark.parametrize(
    "params", [GOLDEN, P02, MetallicParams(1, 2)], ids=["golden", "p0", "square"]
)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    eps=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=6), data=st.data()
)
def test_pivot_read_complement_matches_the_null_space_route(params, eps, data):
    space = SignatureSpace(len(eps), tuple(eps), params)
    vectors = _sparse_vectors(data, params, len(eps), data.draw(st.integers(0, 6)))
    sub = Subspace(vectors, space.dim, params)
    perp = orthogonal_complement(space, sub)
    assert perp == _null_space_complement(space, sub)


# ---- structure validators ----


def test_diag_structure_silver_like():
    """Diagonal branches at p=0, q=2 on the five dimensional example layout."""
    space = SignatureSpace(5, (-1, 1, -1, 1, 1), P02)
    j = diag_branches(P02, ["p-sigma", "sigma", "p-sigma", "sigma", "sigma"])
    ok, defects = validate_metallic(j, P02)
    assert ok and defects == []
    ok2, defects2 = validate_compatibility(space, j)
    assert ok2 and defects2 == []


def test_diag_structure_golden():
    space = SignatureSpace(3, (-1, 1, 1), GOLDEN)
    j = diag_branches(GOLDEN, ["sigma", "sigma", "p-sigma"])
    structure = MetallicStructure(space, j)
    ok, defects = structure.validate()
    assert ok and defects == []
    sigma = QuadScalar.sigma(GOLDEN)
    assert structure.apply(as_vec([1, 0, 0], GOLDEN)) == (sigma, 0 * sigma, 0 * sigma)


def test_identity_is_not_metallic():
    """J = I fails the quadratic relation; the witness pins the exact entry."""
    j = identity(3, GOLDEN)
    ok, defects = validate_metallic(j, GOLDEN)
    assert not ok
    first = defects[0]
    assert (first.row, first.col) == (0, 0)
    assert first.got == 1
    assert first.expected == GOLDEN.p + GOLDEN.q
    assert "quadratic-relation" in first.message()


def test_incompatible_structure_witness():
    """A swap matrix is metallic-like in no way and skew for this signature."""
    space = SignatureSpace(2, (-1, 1), GOLDEN)
    swap = as_mat([[0, 1], [1, 0]], GOLDEN)
    ok, defects = validate_compatibility(space, swap)
    assert not ok
    w = defects[0]
    assert w.code == "self-adjointness"
    assert {w.got, w.expected} == {
        QuadScalar.of(1, GOLDEN),
        QuadScalar.of(-1, GOLDEN),
    }


def test_conjugated_structure_stays_valid():
    """A non-diagonal structure built by an isometry conjugation passes both
    validators: rotation by a pythagorean angle in a (+, +) plane."""
    params = GOLDEN
    space = SignatureSpace(2, (1, 1), params)
    c, s = Fraction(3, 5), Fraction(4, 5)
    rot = as_mat([[c, -s], [s, c]], params)
    rot_t = transpose(rot)
    j0 = diag_branches(params, ["sigma", "p-sigma"])
    j = mat_mul(rot, mat_mul(j0, rot_t))
    assert j[0][1]  # actually non-diagonal
    ok, defects = validate_metallic(j, params)
    assert ok, [d.message() for d in defects]
    ok2, defects2 = validate_compatibility(space, j)
    assert ok2, [d.message() for d in defects2]


def test_bad_branch_name():
    with pytest.raises(ValidationError):
        diag_branches(GOLDEN, ["sigma", "tau"])


def test_structure_shape_guard():
    space = SignatureSpace(3, (-1, 1, 1), GOLDEN)
    with pytest.raises(ShapeError):
        MetallicStructure(space, identity(2, GOLDEN))
    with pytest.raises(ShapeError):
        validate_metallic((), GOLDEN)


def _validated_records():
    params = MetallicParams(1, 1)
    space = SignatureSpace(3, (-1, 1, 1), params)
    structure = MetallicStructure(space, diag_branches(params, ["sigma"] * 3))
    x, y = (Polynomial.variable(i, 2, params) for i in range(2))
    immersion = PolynomialImmersion(space, 2, (x, x, y))
    return [params, space, structure, immersion]


@pytest.mark.parametrize("index", range(4), ids=["params", "space", "structure", "immersion"])
def test_validated_records_are_read_only_values(index):
    record = _validated_records()[index]
    twin = _validated_records()[index]
    assert record == twin and hash(record) == hash(twin) and record is not twin
    assert record != record._values and record != object()
    name = record._fields[0]
    assert repr(record).startswith(f"{type(record).__name__}({name}=")
    with pytest.raises(AttributeError):
        setattr(record, name, twin)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record) and other == record


def test_record_repr_and_field_order_match_the_constructor():
    assert repr(MetallicParams(2, 3)) == "MetallicParams(p=2, q=3)"
    assert MetallicParams(q=3, p=2) == MetallicParams(2, 3) != MetallicParams(3, 2)
    space = SignatureSpace(eps=(1, -1), params=GOLDEN, dim=2)
    assert space._values == (2, (1, -1), GOLDEN)
    assert repr(space) == "SignatureSpace(dim=2, eps=(1, -1), params=MetallicParams(p=1, q=1))"


def test_immersion_caches_survive_the_read_only_fields():
    immersion = _validated_records()[3]
    assert immersion.jacobian_polys is immersion.jacobian_polys
    assert immersion.hessian_polys is immersion.hessian_polys
