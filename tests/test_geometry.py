"""Derivative splits on a null-ruled surface with curvature in the
transversal direction.

Fixture: f(u1, u2) = (u1, u1*u2, u1 + u2^2/2, u1*u2 - u2) into the
signature (-,-,+,+).  The first coordinate field is radical at every
chart point, the second is spacelike wherever u2^2 - 2*u1 + 1 is not
zero, and the second fundamental form has a nonzero transversal-null
part, which is the interesting regime for the later checks.

Fields other than the coordinate fields are written here as chart
polynomials and handed to the library as their jets at the frame point.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab import geometry
from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.errors import InsufficientScene, InternalInconsistency, NotInSpan, ShapeError
from lightlike_lab.geometry import (
    AmbientJet,
    build_field_kit,
    chart_jet,
    derive,
    full_split,
    gauss_split,
    lie_bracket,
    pairing_gradient,
    split_tangent,
)
from lightlike_lab.linalg import as_vec, vec_add, vec_neg, vec_scale, vec_sub, zero_vec
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.scalars import GOLDEN, SILVER, QuadScalar
from lightlike_lab.submanifold import PolynomialImmersion, build_frame, polynomial_jet
from helpers import (
    assemble,
    gram_matrix,
    hl_vector,
    metric_deviation,
    parse_polynomial,
    solve,
    star_forms_radical,
    star_forms_screen,
    weingarten_normal_screen,
    weingarten_transversal,
)
from test_polynomials import S, U, to_sympy

P = GOLDEN


def q(x):
    return QuadScalar(x, 0, P)


def poly(text):
    return parse_polynomial(text, 2, P)


def make_surface() -> PolynomialImmersion:
    space = SignatureSpace(4, (-1, -1, 1, 1), P)
    comps = tuple(
        poly(t) for t in ["u1", "u1*u2", "u1 + 1/2*u2^2", "u1*u2 - u2"]
    )
    return PolynomialImmersion(space, 2, comps)


SURF = make_surface()
ORIGIN = (q(0), q(0))
OFF_POINT = (q(0), q(1))
FAR_POINT = (q(2), QuadScalar(Fraction(-1, 3), 0, P))


def surface_frame(point):
    return build_frame(SURF, point)


def chart_at(point):
    return chart_jet(SURF, surface_frame(point))


def coords_at(point):
    """The jets of the coordinate fields D1, D2 at the point."""
    return chart_at(point).coordinates


def tangent_at(point, *coeffs):
    """Jet of the tangent field with the given chart coefficients."""
    polys = [poly(c) if isinstance(c, str) else c for c in coeffs]
    return chart_at(point).tangent(*polynomial_jet(polys, point))


def ambient_at(point, components):
    return AmbientJet(*polynomial_jet(components, point))


def stationary(space, a, b):
    """d_l <A, B> vanishes at the point in every chart direction."""
    return all(
        not (space.inner(da, b.value) + space.inner(a.value, db))
        for da, db in zip(a.partials, b.partials)
    )


def test_fixture_shape_at_origin():
    frame = surface_frame(ORIGIN)
    assert frame.radical_dim == 1
    assert frame.rad_basis == (as_vec([1, 0, 1, 0], P),)
    assert frame.screen.basis == (as_vec([0, 0, 0, 1], P),)
    assert frame.normal_screen.basis == (as_vec([0, 1, 0, 0], P),)
    assert frame.ltr == (as_vec([Fraction(-1, 2), 0, Fraction(1, 2), 0], P),)


def test_radical_field_is_radical_everywhere():
    """g(D1, D1) and g(D1, D2) vanish to first order at every sample
    point; g(D2, D2) has the value and gradient of u2^2 - 2*u1 + 1."""
    g22 = poly("u2^2 - 2*u1 + 1")
    for point in (ORIGIN, OFF_POINT, FAR_POINT):
        space = SURF.space
        d1, d2 = coords_at(point)
        for other in (d1, d2):
            assert not space.inner(d1.value, other.value)
            assert stationary(space, d1, other)
        assert space.inner(d2.value, d2.value) == g22.eval(point)
        assert pairing_gradient(space, d2, d2) == tuple(
            g22.partial(l).eval(point) for l in range(2)
        )


# ---- frozen Gauss splits at the origin ----


def test_gauss_split_curvature_direction():
    """D_{d2} d2 = e3 splits as (1/2) xi + N: pure radical plus transversal."""
    frame = surface_frame(ORIGIN)
    _, d2 = coords_at(ORIGIN)
    parts = gauss_split(frame, d2, d2)
    assert parts.induced == as_vec([Fraction(1, 2), 0, Fraction(1, 2), 0], P)
    assert parts.hl == (q(1),)
    assert parts.hs == as_vec([0, 0, 0, 0], P)


def test_gauss_split_mixed_direction():
    frame = surface_frame(ORIGIN)
    d1, d2 = coords_at(ORIGIN)
    parts = gauss_split(frame, d1, d2)
    assert parts.induced == as_vec([0, 0, 0, 1], P)
    assert parts.hl == (q(0),)
    assert parts.hs == as_vec([0, 1, 0, 0], P)


def test_gauss_split_flat_direction():
    frame = surface_frame(ORIGIN)
    d1, _ = coords_at(ORIGIN)
    parts = gauss_split(frame, d1, d1)
    assert parts.induced == as_vec([0, 0, 0, 0], P)
    assert parts.hl == (q(0),)
    assert parts.hs == as_vec([0, 0, 0, 0], P)


# ---- split contracts ----


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([ORIGIN, OFF_POINT]), st.data())
def test_full_split_reassembles(point, data):
    frame = surface_frame(point)
    texts = ["u1", "u2", "1", "u1*u2", "u2^2", "2 - u1"]
    cx = [data.draw(st.sampled_from(texts), label=f"c{i}") for i in range(2)]
    cy = [data.draw(st.sampled_from(texts), label=f"d{i}") for i in range(2)]
    deriv = derive(tangent_at(point, *cx), tangent_at(point, *cy))
    parts = full_split(frame, deriv)
    assert assemble(parts, frame) == deriv


def test_second_form_symmetric_any_fields():
    """The transversal parts of D_X Y and D_Y X agree for any tangent
    fields; the induced parts differ by exactly the Lie bracket."""
    frame = surface_frame(OFF_POINT)
    x = tangent_at(OFF_POINT, "u2", "1")
    y = tangent_at(OFF_POINT, "1 - u1", "u1*u2")
    pxy = gauss_split(frame, x, y)
    pyx = gauss_split(frame, y, x)
    assert pxy.hl == pyx.hl
    assert pxy.hs == pyx.hs
    assert vec_sub(pxy.induced, pyx.induced) == lie_bracket(x, y)


def test_hl_matches_radical_pairing_oracle():
    """hl coefficients equal <D_X Y, xi_i> because the transversal frame
    is dual to the radical basis and everything else is orthogonal."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        coords = coords_at(point)
        for x in coords:
            for y in coords:
                deriv = derive(x, y)
                parts = gauss_split(frame, x, y)
                oracle = tuple(
                    frame.space.inner(deriv, xi) for xi in frame.rad_basis
                )
                assert parts.hl == oracle


def test_hs_matches_gram_solve_oracle():
    """hs is the unique normal-screen vector with the same pairings
    against the normal-screen basis as the full derivative."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        d1, d2 = coords_at(point)
        basis = frame.normal_screen.basis
        gram = gram_matrix(frame.space, basis)
        for x, y in [(d1, d2), (d2, d2), (d1, d1)]:
            deriv = derive(x, y)
            parts = gauss_split(frame, x, y)
            rhs = tuple(frame.space.inner(deriv, z) for z in basis)
            coeffs = solve(gram, rhs)
            assert coeffs is not None
            expected = zero_vec(frame.space.dim, frame.space.params)
            for c, z in zip(coeffs, basis):
                expected = vec_add(expected, vec_scale(c, z))
            assert parts.hs == expected


# ---- Weingarten splits ----


def constant_components(vec):
    return [Polynomial.constant(c, 2, P) for c in vec]


def test_weingarten_transversal_constant_section():
    frame = surface_frame(ORIGIN)
    _, d2 = coords_at(ORIGIN)
    n_field = ambient_at(ORIGIN, constant_components(frame.ltr[0]))
    parts = weingarten_transversal(frame, d2, n_field)
    assert parts.shape == as_vec([0, 0, 0, 0], P)
    assert parts.conn == (q(0),)
    assert parts.ds == as_vec([0, 0, 0, 0], P)


def test_weingarten_transversal_drifting_section():
    """Adding u1 * e2 to the transversal section puts the whole
    derivative along the normal screen."""
    frame = surface_frame(ORIGIN)
    d1, _ = coords_at(ORIGIN)
    comps = constant_components(frame.ltr[0])
    comps[1] = comps[1] + poly("u1")
    parts = weingarten_transversal(frame, d1, ambient_at(ORIGIN, comps))
    assert parts.shape == as_vec([0, 0, 0, 0], P)
    assert parts.conn == (q(0),)
    assert parts.ds == as_vec([0, 1, 0, 0], P)


def normal_screen_section(frame):
    """Everywhere-normal polynomial section, radical-corrected so its
    value at the frame point lies exactly in the normal screen.

    raw is the metric cross product of D1, D2 and e1, which is normal
    to the surface at every chart point; D1 is radical everywhere."""
    raw = [poly(t) for t in ("0", "u1 - u2^2 - 1", "-u2", "u1 - u2^2")]
    xi = [c.partial(0) for c in SURF.components]
    n0 = frame.ltr[0]
    (raw0, _), (xi0, _) = (polynomial_jet(c, frame.point) for c in (raw, xi))
    rho = frame.space.inner(raw0, n0) / frame.space.inner(xi0, n0)
    return [r - x.scale(rho) for r, x in zip(raw, xi)]


def test_normal_screen_section_is_coherent():
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        z_field = ambient_at(point, normal_screen_section(frame))
        assert frame.normal_screen.contains(z_field.value)
        # orthogonal to both coordinate fields to first order
        for d in coords_at(point):
            assert not frame.space.inner(z_field.value, d.value)
            assert stationary(frame.space, z_field, d)
        assert z_field.value != zero_vec(frame.space.dim, frame.space.params)


def test_screen_weingarten_duality_identity():
    """<hs(W,U), Z> + <U, sum dl_i N_i> = <A_Z W, U> for tangent W, U and
    an everywhere-normal section Z landing in the normal screen."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        z_field = ambient_at(point, normal_screen_section(frame))
        coords = coords_at(point)
        for w in coords:
            wparts = weingarten_normal_screen(frame, w, z_field)
            for u in coords:
                gparts = gauss_split(frame, w, u)
                lhs = frame.space.inner(gparts.hs, z_field.value) + frame.space.inner(
                    u.value, hl_vector(frame, wparts.dl)
                )
                rhs = frame.space.inner(wparts.shape, u.value)
                assert lhs == rhs


def corrected_transversal_section(frame, targets):
    """Constant transversal value plus linear terms chosen so the pairing
    with every target field is stationary at the frame point."""
    n0 = frame.ltr[0]
    space = frame.space
    rows = tuple(
        tuple(space.eps[i] * t.value[i] for i in range(space.dim)) for t in targets
    )
    comps = constant_components(n0)
    for j in range(2):
        rhs = tuple(-space.inner(n0, t.partials[j]) for t in targets)
        mu = solve(rows, rhs)
        assert mu is not None
        # shifted variable so the correction vanishes at the frame point
        uj = Polynomial.variable(j, 2, P) - Polynomial.constant(frame.point[j], 2, P)
        comps = [c + uj * Polynomial.constant(mu_i, 2, P) for c, mu_i in zip(comps, mu)]
    return comps


def test_transversal_screen_duality_identity():
    """<ds(W,N), Z> = <N, A_Z W> once the section pairings are stationary."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        z_field = ambient_at(point, normal_screen_section(frame))
        coords = coords_at(point)
        n_field = ambient_at(
            point, corrected_transversal_section(frame, [z_field, *coords])
        )
        assert n_field.value == frame.ltr[0]
        for t in (z_field, *coords):
            assert stationary(frame.space, n_field, t)
        for w in coords:
            nparts = weingarten_transversal(frame, w, n_field)
            zparts = weingarten_normal_screen(frame, w, z_field)
            lhs = frame.space.inner(nparts.ds, z_field.value)
            rhs = frame.space.inner(n_field.value, zparts.shape)
            assert lhs == rhs


# ---- screen and radical star splits ----


def test_star_splits_frozen():
    frame = surface_frame(ORIGIN)
    d1, d2 = coords_at(ORIGIN)
    screen_parts = star_forms_screen(frame, d1, d2)
    assert screen_parts.screen == as_vec([0, 0, 0, 1], P)
    assert screen_parts.rad == (q(0),)
    rad_parts = star_forms_radical(frame, d2, d1)
    assert rad_parts.shape == as_vec([0, 0, 0, -1], P)
    assert rad_parts.conn == (q(0),)


def test_star_shape_pairs_with_hl():
    """<hl-part of D_W PU, xi> = <A*_xi W, PU>: the radical second form
    and the radical shape operator are mutually adjoint."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        d1, d2 = coords_at(point)
        xi_field = d1  # radical at every point
        for w in (d1, d2):
            star = star_forms_radical(frame, w, xi_field)
            screen_u0, _ = split_tangent(frame, d2.value)
            gparts = gauss_split(frame, w, d2)
            lhs = frame.space.inner(hl_vector(frame, gparts.hl), xi_field.value)
            # <N_i, xi> terms: hl_vector pairs only through N against xi
            rhs = frame.space.inner(star.shape, screen_u0)
            assert lhs == rhs


# ---- metric deviation ----


def test_metric_deviation_two_paths():
    """(nabla_W g)(U,V) computed from derivatives equals the symmetric
    transversal-pairing expression, exactly, for polynomial fields."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        d1, d2 = coords_at(point)
        x = tangent_at(point, "u2", "1")
        y = tangent_at(point, "1", "u1")
        for w in (d1, d2, x):
            for u, v in [(d2, d2), (x, y), (d1, d2)]:
                hu = gauss_split(frame, w, u)
                hv = gauss_split(frame, w, v)
                dev = metric_deviation(frame, w, u, v, hu.induced, hv.induced)
                path2 = frame.space.inner(
                    hl_vector(frame, hu.hl), v.value
                ) + frame.space.inner(u.value, hl_vector(frame, hv.hl))
                assert dev == path2


def test_metric_deviation_nonzero_here():
    """This surface is not metric: the deviation has a nonzero value."""
    frame = surface_frame(OFF_POINT)
    d1, d2 = coords_at(OFF_POINT)
    dev = metric_deviation(
        frame, d2, d2, d1,
        gauss_split(frame, d2, d2).induced, gauss_split(frame, d2, d1).induced,
    )
    assert dev != 0


# ---- Lie bracket ----


def test_coordinate_fields_commute():
    for point in (ORIGIN, OFF_POINT, FAR_POINT):
        d1, d2 = coords_at(point)
        assert lie_bracket(d1, d2) == zero_vec(SURF.space.dim, SURF.space.params)


def test_bracket_leibniz_and_antisymmetry():
    """[X, fY] = X(f) Y + f [X, Y] and [Y, X] = -[X, Y] at each point."""
    f = poly("u1*u2")
    xc = [poly("u2"), poly("1")]
    yc = [poly("1"), poly("u1")]
    for point in (ORIGIN, OFF_POINT, FAR_POINT):
        x = tangent_at(point, *xc)
        y = tangent_at(point, *yc)
        fy = tangent_at(point, *(f * c for c in yc))
        (f0,), f_partials = polynomial_jet([f], point)
        xf = sum((c * df for c, (df,) in zip(x.coeffs, f_partials)), start=q(0))
        rhs = vec_add(vec_scale(xf, y.value), vec_scale(f0, lie_bracket(x, y)))
        assert lie_bracket(x, fy) == rhs
        assert lie_bracket(y, x) == vec_neg(lie_bracket(x, y))


# ---- derivative algebra ----


def test_derive_product_rule():
    """D_X (fV) = X(f) V + f D_X V."""
    f = poly("u1 + u2^2")
    for point in (ORIGIN, OFF_POINT):
        v = normal_screen_section(surface_frame(point))
        (f0,), f_partials = polynomial_jet([f], point)
        v_jet = ambient_at(point, v)
        fv_jet = ambient_at(point, [f * c for c in v])
        for x in coords_at(point):
            xf = sum((c * df for c, (df,) in zip(x.coeffs, f_partials)), start=q(0))
            rhs = vec_add(vec_scale(xf, v_jet.value), vec_scale(f0, derive(x, v_jet)))
            assert derive(x, fv_jet) == rhs


def test_field_shape_guards():
    chart = chart_at(ORIGIN)
    d1, _ = chart.coordinates
    with pytest.raises(ShapeError):
        chart.tangent((q(1),))
    # one d_l X row per chart direction: zip must not drop a direction
    for rows in (((q(0), q(0)),), ((q(0), q(0)),) * 3):
        with pytest.raises(ShapeError):
            chart.tangent((q(1), q(0)), rows)
    with pytest.raises(ShapeError):
        derive(d1, AmbientJet(d1.value, (d1.value,) * 3))
    with pytest.raises(ShapeError):
        polynomial_jet(SURF.components, (q(0),))


# ---- jets against sympy ----


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def sympy_quad(expr, point, params):
    """An expression in S and the chart variables, at a rational point,
    reduced modulo S^2 - p*S - q to the pair (a, b) of a + b*S."""
    expr = sympy.expand(expr.subs({U[l]: rational(x.a) for l, x in enumerate(point)}))
    rem = sympy.Poly(sympy.rem(expr, S**2 - params.p * S - params.q, S), S)
    return rem.coeff_monomial(1), rem.coeff_monomial(S)


def quad(x):
    return rational(x.a), rational(x.b)


@st.composite
def jet_cases(draw):
    """A graph immersion (u1, u2, g1, g2) into R^4, two tangent fields,
    an ambient field, all with random coefficients, and a rational point."""
    params = draw(st.sampled_from([GOLDEN, SILVER]))

    def random_poly():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            expos = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[expos] = QuadScalar(
                Fraction(draw(st.integers(-6, 6)), 2),
                Fraction(draw(st.integers(-4, 4)), 2),
                params,
            )
        return Polynomial(terms, 2, params)

    u1, u2 = (Polynomial.variable(l, 2, params) for l in range(2))
    imm = PolynomialImmersion(
        SignatureSpace(4, (-1, 1, 1, 1), params),
        2,
        (u1, u2, random_poly(), random_poly()),
    )
    point = tuple(
        QuadScalar(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))), 0, params)
        for _ in range(2)
    )
    x = [random_poly() for _ in range(2)]
    y = [random_poly() for _ in range(2)]
    v = [random_poly() for _ in range(4)]
    return params, imm, point, x, y, v


@settings(max_examples=40, deadline=None, derandomize=True)
@given(jet_cases())
def test_jets_match_sympy(case):
    params, imm, point, xc, yc, vc = case
    chart = chart_jet(imm, build_frame(imm, point))
    x = chart.tangent(*polynomial_jet(xc, point))
    y = chart.tangent(*polynomial_jet(yc, point))
    v = AmbientJet(*polynomial_jet(vc, point))

    f = [to_sympy(c) for c in imm.components]
    xs, ys, vs = ([to_sympy(c) for c in cs] for cs in (xc, yc, vc))

    def along(coeffs, field):
        """sum_j coeffs[j] d_j field, componentwise."""
        return [
            sum(c * sympy.diff(comp, U[j]) for j, c in enumerate(coeffs))
            for comp in field
        ]

    def check(vec, exprs):
        assert [quad(x) for x in vec] == [sympy_quad(e, point, params) for e in exprs]

    for jet, exprs in ((x, along(xs, f)), (y, along(ys, f)), (v, vs)):
        check(jet.value, exprs)
        for l in range(2):
            check(jet.partials[l], [sympy.diff(e, U[l]) for e in exprs])
    check(derive(x, v), along(xs, vs))
    check(derive(x, y), along(xs, along(ys, f)))
    bracket = [a - b for a, b in zip(along(xs, ys), along(ys, xs))]
    check(lie_bracket(x, y), along(bracket, f))


# ---- field kits ----


def surface_kit(point):
    frame = surface_frame(point)
    return frame, build_field_kit(chart_jet(SURF, frame), frame)


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_values_hit_the_frame(point):
    frame, kit = surface_kit(point)
    assert tuple(f.value for f in kit.radical) == frame.rad_basis
    assert tuple(f.value for f in kit.screen) == frame.screen.basis
    assert tuple(f.value for f in kit.screen_adapted) == frame.screen.basis
    assert tuple(z.value for z in kit.normal_screen) == frame.normal_screen.basis
    assert tuple(n.value for n in kit.transversal) == frame.ltr


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_radical_fields_are_radical_to_first_order(point):
    frame, kit = surface_kit(point)
    for rad_field in kit.radical:
        for w in coords_at(point):
            assert stationary(frame.space, rad_field, w)


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_sections_have_stationary_pairings(point):
    frame, kit = surface_kit(point)
    for z in kit.normal_screen:
        for w in coords_at(point):
            assert stationary(frame.space, z, w)
    stationary_targets = (
        list(kit.radical) + list(kit.screen) + list(kit.normal_screen) + list(kit.transversal)
    )
    for n in kit.transversal:
        for t in stationary_targets:
            assert stationary(frame.space, n, t)


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_adapted_screen_fields_stay_off_the_radical(point):
    frame, kit = surface_kit(point)
    for s in kit.screen_adapted:
        for n in kit.transversal:
            assert stationary(frame.space, s, n)


def test_kit_refuses_unstable_radical():
    """g(W1, W1) = 2*u2 + u2^2 kills the radical direction at first order."""
    space = SignatureSpace(3, (-1, 1, 1), P)
    comps = tuple(parse_polynomial(t, 2, P) for t in ["u1", "u1 + u1*u2", "u2"])
    imm = PolynomialImmersion(space, 2, comps)
    frame = build_frame(imm, (q(0), q(0)))
    assert frame.radical_dim == 1
    with pytest.raises(
        InsufficientScene, match="^radical direction does not extend to first order here$"
    ):
        build_field_kit(chart_jet(imm, frame), frame)


class _Unsolvable:
    """A factored system with no solution for any right-hand side."""

    def coords(self, rhs):
        raise NotInSpan("no solution")


@pytest.mark.parametrize(
    "builder, message",
    [
        (
            lambda chart, kit: geometry.transversal_sections(
                kit.frame, kit.radical, kit.screen, kit.normal_screen
            ),
            "section correction system became inconsistent",
        ),
        (
            lambda chart, kit: geometry.screen_adapted_fields(chart, kit.frame, kit.transversal),
            "screen adaptation system became inconsistent",
        ),
    ],
    ids=["section-correction", "screen-adaptation"],
)
def test_kit_systems_without_solution_are_inconsistent(monkeypatch, builder, message):
    """The frame's own systems always solve, so a NotInSpan from one is
    an internal fault, named after the system that raised it."""
    frame, kit = surface_kit(ORIGIN)
    chart = chart_jet(SURF, frame)
    assert frame.screen.dim and frame.ltr
    monkeypatch.setattr(geometry, "factor_system", lambda a, params: _Unsolvable())
    with pytest.raises(InternalInconsistency, match=f"^{message}$"):
        builder(chart, kit)
