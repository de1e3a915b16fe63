"""The primitive-row frame build against the QuadScalar build it replaced
(tests/frame_reference.py): every AdaptedFrame field equal down to each
scalar's (A, B, D) triple and each pivot, and every raise equal in type
and message, on the fixtures, on generated scenes with and without sigma
in the Jacobian, and on declared screens and standalone calls that hit
each error message."""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

import pytest

from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.errors import LightlikeLabError
from lightlike_lab.generators import perturbed_structured_scene, random_flag_data
from lightlike_lab.linalg import PrimitiveRows, as_vec
from lightlike_lab.scalars import GOLDEN, SILVER, MetallicParams, QuadScalar
from lightlike_lab.scenes import parse_scene
from lightlike_lab.submanifold import (
    AdaptedFrame,
    PolynomialImmersion,
    build_frame,
    construct_ltr,
)

import frame_reference as ref
from helpers import Subspace, one_ring, parse_polynomial, screen_rows, span_fields

PARAMS = [(0, 2), (1, 1), (2, 1), (1, 2), (3, 2), (0, 3)]
CONFIGS = ["radical-transversal", "transversal"]
FLAVORS = [(), ("str",), ("ltr",), ("rad",), ("rad-twist",)]


def _scalar(x: QuadScalar):
    return (x.A, x.B, x.D, x.params)


def _vecs(vectors):
    return tuple(tuple(_scalar(x) for x in v) for v in vectors)


def _frame(frame: AdaptedFrame):
    return (
        (frame.space.dim, frame.space.eps, frame.space.params),
        tuple(_scalar(x) for x in frame.point),
        _vecs(frame.tangent_jacobian),
        _vecs(frame.tangent_gram),
        span_fields(frame.tangent),
        span_fields(frame.normal),
        span_fields(frame.radical),
        span_fields(frame.screen),
        span_fields(frame.normal_screen),
        _vecs(frame.ltr),
        frame.case,
    )


def test_every_frame_field_is_compared():
    assert len(AdaptedFrame._fields) == 11


def _outcome(fn, *args):
    """What a call returns, as plain triples and pivots, or what it raises."""
    try:
        value = fn(*args)
    except LightlikeLabError as exc:
        return ("raise", type(exc), str(exc))
    if isinstance(value, AdaptedFrame):
        return ("frame", _frame(value))
    if isinstance(value, (Subspace, PrimitiveRows)):
        return ("subspace", span_fields(value))
    return ("vectors", _vecs(value))


def assert_same(fn, ref_fn, *args):
    got, want = _outcome(fn, *args), _outcome(ref_fn, *args)
    assert got == want
    return got


def assert_same_frame(immersion, point, screen=None, normal_screen=None):
    return assert_same(build_frame, ref.build_frame, immersion, point, screen, normal_screen)


def _fixtures():
    root = resources.files("lightlike_lab") / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


@pytest.mark.parametrize("name", _fixtures())
def test_fixture_frames_match_the_quadscalar_build(name):
    raw = (resources.files("lightlike_lab") / "fixtures" / name).read_bytes()
    sc = parse_scene(raw)
    for point in sc.points:
        assert_same_frame(sc.immersion, point, sc.screen, sc.normal_screen)
        assert_same_frame(sc.immersion, point)


def _sigma_scaled(immersion: PolynomialImmersion) -> PolynomialImmersion:
    """The immersion with its first nonconstant component times sigma + 1."""
    params = immersion.space.params
    factor = QuadScalar(1, 1, params)
    comps = list(immersion.components)
    k = next(i for i, c in enumerate(comps) if c.degree() > 0)
    comps[k] = comps[k].scale(factor)
    return PolynomialImmersion(immersion.space, immersion.chart_dim, tuple(comps))


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("pq", PARAMS, ids=str)
def test_generated_frames_match_the_quadscalar_build(pq, config):
    """The base point (with and without its declared screens) and three
    random chart points of each scene, then the same points on the scene
    with one component scaled by sigma + 1."""
    params = MetallicParams(*pq)
    kinds = []
    for flavors in FLAVORS:
        for seed in range(3):
            rng = random.Random(seed)
            g = perturbed_structured_scene(rng, params, config, flavors)
            points = [g.point]
            for _ in range(3):
                points.append(
                    tuple(
                        QuadScalar(Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))), 0, params)
                        for _ in range(g.immersion.chart_dim)
                    )
                )
            kinds.append(
                assert_same_frame(g.immersion, g.point, g.screen_override, g.normal_screen_override)[0]
            )
            scaled = _sigma_scaled(g.immersion)
            for point in points:
                kinds.append(assert_same_frame(g.immersion, point)[0])
                kinds.append(assert_same_frame(scaled, point)[0])
    assert kinds.count("frame") >= len(kinds) // 2


def test_sigma_scaled_jacobians_carry_sigma():
    """The scaled scenes exercise the Z[sigma] rows: at a non-square
    discriminant some Jacobian entry of the scaled base point has a
    sigma part."""
    rng = random.Random(0)
    g = perturbed_structured_scene(rng, GOLDEN, "transversal", ("str",))
    frame = build_frame(_sigma_scaled(g.immersion), g.point)
    assert any(x.B for row in frame.tangent_jacobian for x in row)


# ---- declared screens and standalone calls, one per error message ----

GENERIC_SPACE = SignatureSpace(4, (-1, 1, 1, 1), GOLDEN)
GENERIC = PolynomialImmersion(
    GENERIC_SPACE, 2, tuple(parse_polynomial(t, 2, GOLDEN) for t in ["u1", "u1", "u2", "0"])
)
ORIGIN = (QuadScalar.zero(GOLDEN),) * 2


def _v(*entries):
    return as_vec(entries, GOLDEN)


# each message of ScreenInvalid that a build can reach, for either screen
OVERRIDES = {
    "vector length does not match ambient": ((_v(0, 0, 1),), (_v(0, 0, 1),)),
    "vector outside the bundle it must refine": ((_v(0, 0, 0, 1),), (_v(0, 0, 1, 0),)),
    "spanning vectors are dependent": (
        (_v(0, 0, 1, 0), _v(0, 0, 2, 0)),
        (_v(0, 0, 0, 1), _v(0, 0, 0, 3)),
    ),
    "got 2 vectors, need 1": (
        (_v(0, 0, 1, 0), _v(1, 1, 0, 0)),
        (_v(0, 0, 0, 1), _v(1, 1, 0, 0)),
    ),
    "does not complement the radical": ((_v(1, 1, 0, 0),), (_v(1, 1, 0, 0),)),
}


@pytest.mark.parametrize("message", sorted(OVERRIDES))
def test_invalid_declared_screens_raise_as_the_quadscalar_build(message):
    screen, normal_screen = OVERRIDES[message]
    got = assert_same_frame(GENERIC, ORIGIN, screen, None)
    assert got[2] == f"screen: {message}"
    got = assert_same_frame(GENERIC, ORIGIN, None, normal_screen)
    assert got[2] == f"normal screen: {message}"


NULL_1 = _v(1, 0, 1, 0)
NULL_2 = _v(0, 1, 0, 1)
SPLIT = SignatureSpace(4, (-1, -1, 1, 1), GOLDEN)
ZERO = Subspace((), 4, GOLDEN)


def _sub(*vectors):
    return Subspace(vectors, 4, GOLDEN)


def _normal_screen_rows(*args):
    return screen_rows(*args, label="normal screen")


def _ltr_on_rows(space, *subs):
    """construct_ltr on the Subspaces cleared into one ring, as build_frame
    hands it its spans."""
    return construct_ltr(space, *one_ring(space.params, *subs))


def test_degenerate_override_raises_as_the_quadscalar_check():
    """Any complement of the true radical is nondegenerate, so only a
    standalone call with too small a radical reaches this message."""
    plane = _sub(NULL_1, NULL_2)
    for fn, ref_fn, label in (
        (screen_rows, ref.choose_screen, "screen"),
        (_normal_screen_rows, ref.choose_normal_screen, "normal screen"),
    ):
        got = assert_same(fn, ref_fn, SPLIT, plane, ZERO, (NULL_1, NULL_2))
        assert got[2] == f"{label}: induced metric on the override is degenerate"


def test_greedy_raises_as_the_quadscalar_greedy():
    cases = [
        (_sub(NULL_1), ZERO, "complement of the radical came out degenerate"),
        (_sub(NULL_1, NULL_2), _sub(NULL_1), "complement of the radical came out degenerate"),
        (_sub(NULL_1), _sub(NULL_2), "sub is not inside whole"),
    ]
    for whole, sub, message in cases:
        for fn, ref_fn in ((screen_rows, ref.choose_screen), (_normal_screen_rows, ref.choose_normal_screen)):
            assert assert_same(fn, ref_fn, SPLIT, whole, sub)[2] == message


def test_standalone_ltr_raises_as_the_quadscalar_ltr():
    radical = Subspace((_v(1, 1, 0, 0),), 4, GOLDEN)
    cases = [
        (ZERO, ZERO, "orthogonal space of the screens has dimension 4, expected 2"),
        (
            Subspace((_v(0, 0, 1, 0),), 4, GOLDEN),
            Subspace((_v(1, 0, 0, 1),), 4, GOLDEN),
            "radical escaped the orthogonal space of the screens",
        ),
        (
            Subspace((_v(0, 0, 0, 1),), 4, GOLDEN),
            Subspace((_v(1, 1, 0, 0),), 4, GOLDEN),
            "pairing matrix against the radical is singular",
        ),
    ]
    for screen, normal_screen, message in cases:
        got = assert_same(_ltr_on_rows, ref.construct_ltr, GENERIC_SPACE, radical, screen, normal_screen)
        assert got[2] == message


@pytest.mark.parametrize("params", [GOLDEN, SILVER], ids=["golden", "silver"])
@pytest.mark.parametrize("r", [1, 2])
def test_standalone_ltr_matches_on_flag_data(params, r):
    for seed in range(10):
        space, rad_basis, screen_vecs, ns_vecs = random_flag_data(random.Random(100 * r + seed), params, r)
        args = (
            space,
            Subspace(rad_basis, space.dim, params),
            Subspace(screen_vecs, space.dim, params),
            Subspace(ns_vecs, space.dim, params),
        )
        assert assert_same(_ltr_on_rows, ref.construct_ltr, *args)[0] == "vectors"
