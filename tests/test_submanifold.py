"""Adapted frame construction on frozen fixtures of every case kind.

The fixture arithmetic (Gram matrices, radical bases, transversal
frames) was worked out by hand; tests freeze those values and also
assert the frame contracts that must hold regardless of basis choices.
"""

import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.errors import (
    ImmersionRankDrop,
    InternalInconsistency,
    ScreenInvalid,
    ShapeError,
    ValidationError,
)
from lightlike_lab import linalg
from lightlike_lab.classifier import random_isometry
from lightlike_lab.generators import perturbed_structured_scene
from lightlike_lab.linalg import as_mat, as_vec, det, mat_vec, rank
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.scalars import GOLDEN, MetallicParams, QuadScalar
from lightlike_lab.scenes import parse_scene
from lightlike_lab.submanifold import (
    AdaptedFrame,
    CaseKind,
    PolynomialImmersion,
    build_frame,
    classify_case,
)
from helpers import (
    Subspace,
    as_subspace,
    intersect,
    orthogonal_complement,
    parse_polynomial,
    screen_rows,
    span_fields,
)

P02 = MetallicParams(0, 2)


def immersion(space: SignatureSpace, chart_dim: int, texts) -> PolynomialImmersion:
    comps = tuple(
        parse_polynomial(t, chart_dim, space.params) for t in texts
    )
    return PolynomialImmersion(space, chart_dim, comps)


def origin(space: SignatureSpace, m: int):
    return tuple(QuadScalar.zero(space.params) for _ in range(m))


def assert_frame_contracts(frame: AdaptedFrame) -> None:
    """Contracts every adapted frame satisfies, basis choices aside."""
    space = frame.space
    r = frame.radical_dim
    m = frame.tangent.dim
    k = frame.normal.dim
    assert m + k == space.dim
    assert frame.screen.dim == m - r
    assert frame.normal_screen.dim == k - r
    assert len(frame.ltr) == r
    # screen inside tangent, normal screen inside normal, radical inside both
    assert all(map(frame.tangent.contains, frame.screen.basis))
    assert all(map(frame.normal.contains, frame.normal_screen.basis))
    assert all(map(frame.tangent.contains, frame.radical.basis))
    assert all(map(frame.normal.contains, frame.radical.basis))
    # duality and isotropy of the transversal frame
    for i, n_i in enumerate(frame.ltr):
        for j, xi in enumerate(frame.rad_basis):
            assert space.inner(n_i, xi) == (1 if i == j else 0)
        for n_j in frame.ltr:
            assert not space.inner(n_i, n_j)
        for s in frame.screen.basis:
            assert not space.inner(n_i, s)
        for z in frame.normal_screen.basis:
            assert not space.inner(n_i, z)
    # the whole ambient splits: TN + ltr + normal screen
    stacked = frame.tangent.basis + frame.ltr + frame.normal_screen.basis
    assert rank(stacked) == space.dim


# ---- worked five dimensional example ----


def worked_example_frame() -> AdaptedFrame:
    space = SignatureSpace(5, (-1, 1, -1, 1, 1), P02)
    imm = immersion(space, 3, ["u1", "0", "u2", "s*u1 + s*u2", "u3"])
    return build_frame(imm, origin(space, 3))


def test_worked_example_jacobian():
    frame = worked_example_frame()
    sigma = QuadScalar.sigma(P02)
    w1, w2, w3 = frame.tangent_jacobian
    assert w1 == as_vec([1, 0, 0, 0, 0], P02)[:3] + (sigma, QuadScalar.zero(P02))
    assert w2 == (
        QuadScalar.zero(P02),
        QuadScalar.zero(P02),
        QuadScalar.one(P02),
        sigma,
        QuadScalar.zero(P02),
    )
    assert w3 == as_vec([0, 0, 0, 0, 1], P02)


def test_worked_example_gram_and_radical():
    """sigma^2 = 2 here, so the induced metric is [[1,2,0],[2,1,0],[0,0,1]]
    and it is nondegenerate: the radical is zero."""
    frame = worked_example_frame()
    gram = frame.space.gram(frame.tangent_jacobian)
    expected = as_mat([[1, 2, 0], [2, 1, 0], [0, 0, 1]], P02)
    assert gram == expected
    assert frame.radical_dim == 0
    assert frame.case is CaseKind.NONDEGENERATE
    assert frame.ltr == ()
    assert_frame_contracts(frame)


def test_worked_example_float_oracle():
    frame = worked_example_frame()
    gram = frame.space.gram(frame.tangent_jacobian)
    gf = np.array([[float(x) for x in row] for row in gram])
    expected = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(gf - expected)) < 1e-9
    jf = np.array([[float(x) for x in row] for row in frame.tangent_jacobian])
    assert np.linalg.matrix_rank(jf) == 3
    assert np.linalg.matrix_rank(gf) == 3


# ---- one dimensional radical, both screens nontrivial ----


def generic_r1_frame(**kwargs) -> AdaptedFrame:
    space = SignatureSpace(4, (-1, 1, 1, 1), GOLDEN)
    imm = immersion(space, 2, ["u1", "u1", "u2", "0"])
    return build_frame(imm, origin(space, 2), **kwargs)


def test_generic_r1_fixture():
    frame = generic_r1_frame()
    assert frame.case is CaseKind.GENERIC
    assert frame.radical_dim == 1
    assert frame.rad_basis == (as_vec([1, 1, 0, 0], GOLDEN),)
    assert frame.screen.basis == (as_vec([0, 0, 1, 0], GOLDEN),)
    assert frame.normal_screen.basis == (as_vec([0, 0, 0, 1], GOLDEN),)
    assert frame.ltr == (as_vec([Fraction(-1, 2), Fraction(1, 2), 0, 0], GOLDEN),)
    assert_frame_contracts(frame)


def test_screen_override_accepted():
    override = (as_vec([0, 0, 1, 0], GOLDEN),)
    frame = generic_r1_frame(screen_override=override)
    assert frame.screen.basis == override
    assert_frame_contracts(frame)


def test_screen_override_rejected():
    outside = (as_vec([0, 0, 0, 1], GOLDEN),)  # normal, not tangent
    with pytest.raises(ScreenInvalid):
        generic_r1_frame(screen_override=outside)
    not_complement = (as_vec([1, 1, 0, 0], GOLDEN),)  # the radical itself
    with pytest.raises(ScreenInvalid):
        generic_r1_frame(screen_override=not_complement)
    wrong_count = (
        as_vec([0, 0, 1, 0], GOLDEN),
        as_vec([1, 1, 0, 0], GOLDEN),
    )
    with pytest.raises(ScreenInvalid):
        generic_r1_frame(screen_override=wrong_count)
    dependent = (as_vec([0, 0, 1, 0], GOLDEN), as_vec([0, 0, 2, 0], GOLDEN))
    with pytest.raises(ScreenInvalid):
        generic_r1_frame(screen_override=dependent)


def test_normal_screen_override():
    override = (as_vec([0, 0, 0, 1], GOLDEN),)
    frame = generic_r1_frame(normal_screen_override=override)
    assert frame.normal_screen.basis == override
    bad = (as_vec([0, 0, 1, 0], GOLDEN),)
    with pytest.raises(ScreenInvalid):
        generic_r1_frame(normal_screen_override=bad)


# ---- coisotropic ----


def test_coisotropic_r1():
    space = SignatureSpace(3, (-1, 1, 1), GOLDEN)
    imm = immersion(space, 2, ["u1", "u1", "u2"])
    frame = build_frame(imm, origin(space, 2))
    assert frame.case is CaseKind.COISOTROPIC
    assert frame.radical_dim == 1
    assert frame.normal_screen.dim == 0
    assert frame.screen.basis == (as_vec([0, 0, 1], GOLDEN),)
    assert frame.ltr == (as_vec([Fraction(-1, 2), Fraction(1, 2), 0], GOLDEN),)
    assert_frame_contracts(frame)


def test_coisotropic_r2():
    space = SignatureSpace(5, (-1, -1, 1, 1, 1), GOLDEN)
    imm = immersion(space, 3, ["u1", "u2", "u1", "u2", "u3"])
    frame = build_frame(imm, origin(space, 3))
    assert frame.case is CaseKind.COISOTROPIC
    assert frame.radical_dim == 2
    n1, n2 = frame.ltr
    assert n1 == as_vec([Fraction(-1, 2), 0, Fraction(1, 2), 0, 0], GOLDEN)
    assert n2 == as_vec([0, Fraction(-1, 2), 0, Fraction(1, 2), 0], GOLDEN)
    assert_frame_contracts(frame)


# ---- isotropic ----


def test_isotropic_r2():
    space = SignatureSpace(5, (-1, -1, 1, 1, 1), GOLDEN)
    imm = immersion(space, 2, ["u1", "u2", "u1", "u2", "0"])
    frame = build_frame(imm, origin(space, 2))
    assert frame.case is CaseKind.ISOTROPIC
    assert frame.radical_dim == 2
    assert frame.screen.dim == 0
    assert frame.normal_screen.basis == (as_vec([0, 0, 0, 0, 1], GOLDEN),)
    assert_frame_contracts(frame)


# ---- totally lightlike ----


def test_totally_lightlike_line():
    space = SignatureSpace(2, (-1, 1), GOLDEN)
    imm = immersion(space, 1, ["u1", "u1"])
    frame = build_frame(imm, origin(space, 1))
    assert frame.case is CaseKind.TOTALLY_LIGHTLIKE
    assert frame.screen.dim == 0 and frame.normal_screen.dim == 0
    assert frame.ltr == (as_vec([Fraction(-1, 2), Fraction(1, 2)], GOLDEN),)
    assert_frame_contracts(frame)


# ---- mixed case with both screens, radical of rank two ----


def test_generic_r2_two_screens():
    space = SignatureSpace(6, (-1, -1, 1, 1, 1, 1), GOLDEN)
    imm = immersion(space, 3, ["u1", "u2", "u1", "u2", "u3", "u3"])
    frame = build_frame(imm, origin(space, 3))
    assert frame.case is CaseKind.GENERIC
    assert frame.radical_dim == 2
    assert frame.screen.basis == (as_vec([0, 0, 0, 0, 1, 1], GOLDEN),)
    assert frame.normal_screen.basis == (as_vec([0, 0, 0, 0, 1, -1], GOLDEN),)
    n1, n2 = frame.ltr
    assert n1 == as_vec([Fraction(-1, 2), 0, Fraction(1, 2), 0, 0, 0], GOLDEN)
    assert n2 == as_vec([0, Fraction(-1, 2), 0, Fraction(1, 2), 0, 0], GOLDEN)
    assert_frame_contracts(frame)


# ---- curvature does not disturb the pointwise frame at a critical point ----


def test_quadratic_graph_frame():
    """A paraboloid graph over a lightlike plane: at the origin the frame
    matches the linear fixture because the quadratic terms have no
    first-order contribution there."""
    space = SignatureSpace(4, (-1, 1, 1, 1), GOLDEN)
    imm = immersion(space, 2, ["u1", "u1", "u2", "u1^2 + u2^2"])
    frame = build_frame(imm, origin(space, 2))
    linear = generic_r1_frame()
    assert frame.rad_basis == linear.rad_basis
    assert span_fields(frame.screen) == span_fields(linear.screen)
    assert frame.ltr == linear.ltr
    # away from the critical point the tangent plane tips over
    one = QuadScalar.one(GOLDEN)
    frame2 = build_frame(imm, (one, one))
    assert span_fields(frame2.tangent) != span_fields(linear.tangent)
    assert_frame_contracts(frame2)


# ---- failure modes ----


def test_rank_drop_raises():
    space = SignatureSpace(3, (-1, 1, 1), GOLDEN)
    imm = immersion(space, 1, ["u1^2", "u1^2", "0"])
    with pytest.raises(ImmersionRankDrop):
        build_frame(imm, origin(space, 1))
    # fine away from the singular point
    frame = build_frame(imm, (QuadScalar.one(GOLDEN),))
    assert frame.tangent.dim == 1


def test_immersion_validation():
    space = SignatureSpace(3, (-1, 1, 1), GOLDEN)
    with pytest.raises(ValidationError):
        immersion(space, 3, ["u1", "u2", "u3"])  # chart_dim == ambient dim
    with pytest.raises(ShapeError):
        immersion(space, 1, ["u1", "u1"])  # wrong component count
    with pytest.raises(ShapeError):
        PolynomialImmersion(
            space,
            1,
            (
                Polynomial.variable(0, 2, GOLDEN),
                Polynomial.zero(2, GOLDEN),
                Polynomial.zero(2, GOLDEN),
            ),
        )


# ---- classification table ----


def test_classify_case_table():
    assert classify_case(3, 2, 0) is CaseKind.NONDEGENERATE
    assert classify_case(3, 2, 1) is CaseKind.GENERIC
    assert classify_case(3, 2, 2) is CaseKind.COISOTROPIC
    assert classify_case(2, 3, 2) is CaseKind.ISOTROPIC
    assert classify_case(2, 2, 2) is CaseKind.TOTALLY_LIGHTLIKE


# ---- random linear immersions keep the contracts ----


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(
        [(-1, 1, 1), (-1, -1, 1, 1), (-1, 1, 1, 1), (-1, -1, 1, 1, 1)]
    ),
    st.data(),
)
def test_random_linear_frames(eps, data):
    n = len(eps)
    space = SignatureSpace(n, tuple(eps), GOLDEN)
    m = data.draw(st.integers(1, n - 1), label="m")
    rows = [
        [data.draw(st.integers(-2, 2), label=f"a{i}{j}") for j in range(n)]
        for i in range(m)
    ]
    assume(rank(as_mat(rows, GOLDEN)) == m)
    comps = []
    for j in range(n):
        terms = {}
        for i in range(m):
            expos = tuple(1 if t == i else 0 for t in range(m))
            terms[expos] = QuadScalar(rows[i][j], 0, GOLDEN)
        comps.append(Polynomial(terms, m, GOLDEN))
    imm = PolynomialImmersion(space, m, tuple(comps))
    frame = build_frame(imm, origin(space, m))
    assert_frame_contracts(frame)


# ---- the frame build against the routes it replaced ----


def _rank_greedy_complement(space, whole, sub):
    """The greedy complement with a full rank test per candidate and the
    candidate Gram rebuilt each time: the oracle for the incremental one."""
    target = whole.dim - sub.dim
    chosen = []

    def independent(v):
        return rank(sub.basis + tuple(chosen) + (v,)) == sub.dim + len(chosen) + 1

    for v in whole.basis:
        if len(chosen) == target:
            break
        if independent(v) and det(space.gram(tuple(chosen) + (v,))):
            chosen.append(v)
    for v in whole.basis:
        if len(chosen) == target:
            break
        if independent(v):
            chosen.append(v)
    return Subspace(tuple(chosen), space.dim, space.params)


def assert_canonical(span) -> None:
    """span carries the basis and pivots that rref gives its own rows."""
    assert span_fields(span) == span_fields(as_subspace(span))


def _generated_frames(seed, pq, config, r, extra_points=2):
    params = MetallicParams(*pq)
    rng = random.Random(seed)
    g = perturbed_structured_scene(rng, params, config, ("str",), r=r)
    frames = [g.frame()]
    while len(frames) < 1 + extra_points:
        point = tuple(
            QuadScalar(Fraction(rng.randrange(-3, 4), rng.choice((1, 2))), 0, params)
            for _ in range(g.immersion.chart_dim)
        )
        try:
            frames.append(build_frame(g.immersion, point))
        except ImmersionRankDrop:
            continue
    return frames


@pytest.mark.parametrize("config", ["radical-transversal", "transversal"])
@pytest.mark.parametrize("pq", [(0, 2), (1, 1), (2, 1), (1, 2)], ids=str)
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("seed", [1, 2])
def test_frame_build_matches_the_routes_it_replaced(seed, r, pq, config):
    """Radical from the Gram kernel = tangent intersect normal; the kept
    tangent Gram = the inner products of the Jacobian rows; the greedy
    screens = the rank-tested greedy pass, vector for vector."""
    frames = _generated_frames(seed, pq, config, r)
    assert frames[0].radical_dim == r
    for frame in frames:
        space = frame.space
        tangent, normal, radical = map(as_subspace, (frame.tangent, frame.normal, frame.radical))
        assert span_fields(frame.radical) == span_fields(intersect(tangent, normal))
        jac = frame.tangent_jacobian
        assert frame.tangent_gram == tuple(
            tuple(space.inner(u, v) for v in jac) for u in jac
        )
        assert_frame_contracts(frame)
        assert span_fields(screen_rows(space, tangent, radical)) == span_fields(
            _rank_greedy_complement(space, tangent, radical)
        )
        assert span_fields(screen_rows(space, normal, radical, None, "normal screen")) == (
            span_fields(_rank_greedy_complement(space, normal, radical))
        )
        assert_canonical(frame.screen)
        assert_canonical(frame.normal_screen)


def _radical_rows(space, data):
    """Rows whose span has a radical of dimension at least 2: two null,
    mutually orthogonal vectors plus vectors orthogonal to both, all
    moved by a random isometry."""
    params = space.params
    minus = [i for i, e in enumerate(space.eps) if e < 0]
    plus = [i for i, e in enumerate(space.eps) if e > 0]
    pairs = ((minus[0], plus[0]), (minus[1], plus[1]))
    nulls = [
        tuple(QuadScalar(1 if k in pair else 0, 0, params) for k in range(space.dim))
        for pair in pairs
    ]
    rest = [k for k in range(space.dim) if all(k not in pair for pair in pairs)]
    small = st.sampled_from([0, 0, 1, -1, 2])
    rows = list(nulls)
    for _ in range(data.draw(st.integers(0, len(rest)), label="extras")):
        c1, c2 = data.draw(small), data.draw(small)
        rows.append(
            tuple(
                QuadScalar(data.draw(small) if k in rest else 0, 0, params)
                + c1 * nulls[0][k]
                + c2 * nulls[1][k]
                for k in range(space.dim)
            )
        )
    iso = random_isometry(random.Random(data.draw(st.integers(0, 10**6))), space)
    return [mat_vec(iso, v) for v in rows]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_greedy_complement_matches_the_rank_tested_pass(data):
    """Any subspace of any signature, nondegenerate ones (returned
    whole) and ones with a radical of dimension 2 or more included: the
    same screen and normal screen as the rank-tested greedy pass, each
    in its canonical basis."""
    kind = data.draw(st.sampled_from(["any", "nondegenerate", "radical"]), label="kind")
    if kind == "radical":
        eps = data.draw(st.sampled_from([(-1, -1, 1, 1), (-1, -1, 1, 1, 1), (-1, -1, -1, 1, 1, 1)]))
    else:
        eps = data.draw(st.sampled_from([(-1, 1, 1), (-1, 1, 1, 1), (-1, -1, 1, 1), (-1, -1, 1, 1, 1)]))
    space = SignatureSpace(len(eps), eps, GOLDEN)
    if kind == "radical":
        rows = _radical_rows(space, data)
    else:
        small = st.sampled_from([0, 0, 1, -1, 2])
        rows = [
            tuple(QuadScalar(data.draw(small), 0, GOLDEN) for _ in eps)
            for _ in range(data.draw(st.integers(1, len(eps)), label="k"))
        ]
    whole = Subspace(tuple(rows), space.dim, GOLDEN)
    normal = orthogonal_complement(space, whole)
    radical = intersect(whole, normal)
    if kind == "nondegenerate":
        assume(whole.dim and not radical.dim)
    if kind == "radical":
        assert radical.dim >= 2
    screen = screen_rows(space, whole, radical)
    assert span_fields(screen) == span_fields(_rank_greedy_complement(space, whole, radical))
    normal_screen = screen_rows(space, normal, radical, None, "normal screen")
    assert span_fields(normal_screen) == span_fields(
        _rank_greedy_complement(space, normal, radical)
    )
    for sub in (screen, normal_screen):
        assert_canonical(sub)
    if not radical.dim:
        assert (screen.basis, screen.pivots) == (whole.basis, whole.pivots)


def test_screens_are_canonical_reduced_bases():
    """Each fixture's screens, grown greedily or declared, carry the
    basis and pivots rref gives their own rows."""
    for fixture in sorted((resources.files("lightlike_lab") / "fixtures").iterdir()):
        if not fixture.name.endswith(".json"):
            continue
        sc = parse_scene(fixture.read_bytes())
        for point in sc.points:
            for screen, normal_screen in ((sc.screen, sc.normal_screen), (None, None)):
                frame = build_frame(sc.immersion, point, screen, normal_screen)
                assert_canonical(frame.screen)
                assert_canonical(frame.normal_screen)


def test_greedy_screen_reads_the_full_schur_pivot():
    """A hyperplane of R^{2,4} with a one-dimensional radical.  The
    candidates e1 - 3e5 and e2 - 2e5 are kept; the block they span with
    e3 + 2e5 has determinant 0, so e3 + 2e5 is skipped.  Its Schur pivot
    only comes out 0 once the L entry of e2 - 2e5 against e1 - 3e5 has
    entered the forward substitution."""
    space = SignatureSpace(6, (-1, -1, 1, 1, 1, 1), GOLDEN)
    basis = tuple(
        as_vec(row, GOLDEN)
        for row in (
            [1, 0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, -3],
            [0, 0, 1, 0, 0, -2],
            [0, 0, 0, 1, 0, 2],
            [0, 0, 0, 0, 1, 1],
        )
    )
    whole = Subspace(basis, 6, GOLDEN)
    radical = intersect(whole, orthogonal_complement(space, whole))
    assert radical == Subspace((as_vec([1, -3, 2, -2, -1, 1], GOLDEN),), 6, GOLDEN)
    assert not det(space.gram(basis[1:4]))
    screen = screen_rows(space, whole, radical)
    assert screen.basis == (basis[0], basis[1], basis[2], basis[4])
    assert span_fields(screen) == span_fields(_rank_greedy_complement(space, whole, radical))


def test_greedy_complement_refuses_a_degenerate_result():
    """A radical passed in too small leaves a degenerate complement,
    which is refused rather than returned: a null line with no radical,
    and a null plane with only one of its null directions as radical."""
    space = SignatureSpace(4, (-1, -1, 1, 1), GOLDEN)
    n1 = as_vec([1, 0, 1, 0], GOLDEN)
    n2 = as_vec([0, 1, 0, 1], GOLDEN)
    zero = Subspace((), 4, GOLDEN)
    with pytest.raises(InternalInconsistency):
        screen_rows(space, Subspace((n1,), 4, GOLDEN), zero)
    with pytest.raises(InternalInconsistency):
        screen_rows(
            space, Subspace((n1, n2), 4, GOLDEN), Subspace((n1,), 4, GOLDEN), None, "normal screen"
        )


def test_one_frame_eliminates_the_jacobian_once(monkeypatch):
    """On radical-transversal-deep (r = 2, both screens declared) one
    build_frame eliminates the Jacobian once, as primitive integer rows,
    and makes at most 10 reductions in all, primitive-row Gauss-Jordan
    passes and QuadScalar reductions together; eliminating it again for
    its rank, or rank-testing each candidate, raises the count."""
    fixture = resources.files("lightlike_lab") / "fixtures" / "radical-transversal-deep.json"
    sc = parse_scene(fixture.read_bytes())
    reductions = [0]
    eliminated = Counter()
    reduce, rref, span = linalg._reduce, linalg.rref, linalg.PrimitiveRows.span

    def counting_reduce(rows, limit):
        reductions[0] += 1
        return reduce(rows, limit)

    def counting_rref(a):
        eliminated["rref", tuple(a)] += 1
        return rref(a)

    def counting_span(cls, ring, spanning, width):
        reductions[0] += 1
        eliminated["rows", tuple(tuple(v) for v in spanning)] += 1
        return span(ring, spanning, width)

    monkeypatch.setattr(linalg, "_reduce", counting_reduce)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg.PrimitiveRows, "span", classmethod(counting_span))
    frame = build_frame(sc.immersion, sc.points[0], sc.screen, sc.normal_screen)
    assert frame.radical_dim == 2
    jacobian = frame.tangent_jacobian
    ring = linalg.RowRing.over(frame.space.params, jacobian, sc.screen, sc.normal_screen)
    cleared = tuple(tuple(ring.clear(v)[0]) for v in jacobian)
    assert eliminated["rows", cleared] + eliminated["rref", jacobian] == 1
    assert reductions[0] <= 10


def test_immersion_is_differentiated_once(monkeypatch):
    space = SignatureSpace(4, (-1, 1, 1, 1), GOLDEN)
    imm = immersion(space, 2, ["u1", "u1 + u2^2", "u2", "u1^2 + u2^2"])
    partial = Polynomial.partial
    calls = [0]

    def counting(self, i):
        calls[0] += 1
        return partial(self, i)

    monkeypatch.setattr(Polynomial, "partial", counting)
    one = QuadScalar.one(GOLDEN)
    build_frame(imm, origin(space, 2))
    assert calls[0] == 2 * 4  # every component once per chart direction
    build_frame(imm, (one, one))
    imm.hessian((one, one))
    assert calls[0] == 2 * 4 + 2 * 2 * 4
    imm.hessian(origin(space, 2))
    build_frame(imm, (one, -one))
    assert calls[0] == 2 * 4 + 2 * 2 * 4
