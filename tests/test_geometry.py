"""Derivative splits on a null-ruled surface with curvature in the
transversal direction.

Fixture: f(u1, u2) = (u1, u1*u2, u1 + u2^2/2, u1*u2 - u2) into the
signature (-,-,+,+).  The first coordinate field is radical at every
chart point, the second is spacelike wherever u2^2 - 2*u1 + 1 is not
zero, and the second fundamental form has a nonzero transversal-null
part, which is the interesting regime for the later checks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.errors import InsufficientScene, ShapeError
from lightlike_lab.geometry import (
    AmbientField,
    TangentField,
    build_field_kit,
    constant_field,
    coordinate_field,
    derive,
    derive_tangent,
    full_split,
    gauss_split,
    hl_vector,
    lie_bracket,
    metric_deviation,
    pairing_poly,
    scalar_derivative,
    split_tangent,
    star_forms_radical,
    star_forms_screen,
    weingarten_normal_screen,
    weingarten_transversal,
)
from lightlike_lab.linalg import as_vec, solve, vec_add, vec_scale, vec_sub
from lightlike_lab.polynomials import Polynomial, parse_polynomial, poly_cross
from lightlike_lab.scalars import GOLDEN, QuadScalar
from lightlike_lab.submanifold import PolynomialImmersion, build_frame

P = GOLDEN


def q(x):
    return QuadScalar(x, 0, P)


def make_surface() -> PolynomialImmersion:
    space = SignatureSpace(4, (-1, -1, 1, 1), P)
    comps = tuple(
        parse_polynomial(t, 2, P)
        for t in ["u1", "u1*u2", "u1 + 1/2*u2^2", "u1*u2 - u2"]
    )
    return PolynomialImmersion(space, 2, comps)


SURF = make_surface()
ORIGIN = (q(0), q(0))
OFF_POINT = (q(0), q(1))
D1 = coordinate_field(SURF, 0)
D2 = coordinate_field(SURF, 1)


def surface_frame(point):
    return build_frame(SURF, point)


def test_fixture_shape_at_origin():
    frame = surface_frame(ORIGIN)
    assert frame.radical_dim == 1
    assert frame.rad_basis == (as_vec([1, 0, 1, 0], P),)
    assert frame.screen.basis == (as_vec([0, 0, 0, 1], P),)
    assert frame.normal_screen.basis == (as_vec([0, 1, 0, 0], P),)
    assert frame.ltr == (as_vec([Fraction(-1, 2), 0, Fraction(1, 2), 0], P),)


def test_radical_field_is_radical_everywhere():
    """g(D1, D1) and g(D1, D2) vanish identically, not just pointwise."""
    amb1 = D1.to_ambient()
    amb2 = D2.to_ambient()
    assert pairing_poly(amb1, amb1).is_zero
    assert pairing_poly(amb1, amb2).is_zero
    g22 = pairing_poly(amb2, amb2)
    assert g22 == parse_polynomial("u2^2 - 2*u1 + 1", 2, P)


# ---- frozen Gauss splits at the origin ----


def test_gauss_split_curvature_direction():
    """D_{d2} d2 = e3 splits as (1/2) xi + N: pure radical plus transversal."""
    frame = surface_frame(ORIGIN)
    parts = gauss_split(frame, D2, D2)
    assert parts.induced == as_vec([Fraction(1, 2), 0, Fraction(1, 2), 0], P)
    assert parts.hl == (q(1),)
    assert parts.hs == as_vec([0, 0, 0, 0], P)


def test_gauss_split_mixed_direction():
    frame = surface_frame(ORIGIN)
    parts = gauss_split(frame, D1, D2)
    assert parts.induced == as_vec([0, 0, 0, 1], P)
    assert parts.hl == (q(0),)
    assert parts.hs == as_vec([0, 1, 0, 0], P)


def test_gauss_split_flat_direction():
    frame = surface_frame(ORIGIN)
    parts = gauss_split(frame, D1, D1)
    assert parts.induced == as_vec([0, 0, 0, 0], P)
    assert parts.hl == (q(0),)
    assert parts.hs == as_vec([0, 0, 0, 0], P)


# ---- split contracts ----


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([ORIGIN, OFF_POINT]), st.data())
def test_full_split_reassembles(point, data):
    frame = surface_frame(point)
    texts = ["u1", "u2", "1", "u1*u2", "u2^2", "2 - u1"]
    cx = tuple(
        parse_polynomial(data.draw(st.sampled_from(texts), label=f"c{i}"), 2, P)
        for i in range(2)
    )
    cy = tuple(
        parse_polynomial(data.draw(st.sampled_from(texts), label=f"d{i}"), 2, P)
        for i in range(2)
    )
    x = TangentField(SURF, cx)
    y = TangentField(SURF, cy)
    deriv = derive_tangent(x, y).value_at(point)
    parts = full_split(frame, deriv)
    assert parts.assemble(frame) == deriv


def test_second_form_symmetric_any_fields():
    """The transversal parts of D_X Y and D_Y X agree for any tangent
    fields; the induced parts differ by exactly the Lie bracket."""
    frame = surface_frame(OFF_POINT)
    x = TangentField(SURF, (parse_polynomial("u2", 2, P), parse_polynomial("1", 2, P)))
    y = TangentField(
        SURF, (parse_polynomial("1 - u1", 2, P), parse_polynomial("u1*u2", 2, P))
    )
    pxy = gauss_split(frame, x, y)
    pyx = gauss_split(frame, y, x)
    assert pxy.hl == pyx.hl
    assert pxy.hs == pyx.hs
    bracket_val = lie_bracket(x, y).value_at(OFF_POINT)
    assert vec_sub(pxy.induced, pyx.induced) == bracket_val


def test_hl_matches_radical_pairing_oracle():
    """hl coefficients equal <D_X Y, xi_i> because the transversal frame
    is dual to the radical basis and everything else is orthogonal."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        for x in (D1, D2):
            for y in (D1, D2):
                deriv = derive_tangent(x, y).value_at(point)
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
        basis = frame.normal_screen.basis
        gram = frame.space.gram(basis)
        for x, y in [(D1, D2), (D2, D2), (D1, D1)]:
            deriv = derive_tangent(x, y).value_at(point)
            parts = gauss_split(frame, x, y)
            rhs = tuple(frame.space.inner(deriv, z) for z in basis)
            coeffs = solve(gram, rhs)
            assert coeffs is not None
            expected = frame.space.zero()
            for c, z in zip(coeffs, basis):
                expected = vec_add(expected, vec_scale(c, z))
            assert parts.hs == expected


# ---- Weingarten splits ----


def test_weingarten_transversal_constant_section():
    frame = surface_frame(ORIGIN)
    n_field = constant_field(SURF, frame.ltr[0])
    parts = weingarten_transversal(frame, D2, n_field)
    assert parts.shape == as_vec([0, 0, 0, 0], P)
    assert parts.conn == (q(0),)
    assert parts.ds == as_vec([0, 0, 0, 0], P)


def test_weingarten_transversal_drifting_section():
    """Adding u1 * e2 to the transversal section puts the whole
    derivative along the normal screen."""
    frame = surface_frame(ORIGIN)
    u1 = parse_polynomial("u1", 2, P)
    drift = constant_field(SURF, as_vec([0, 1, 0, 0], P)).scale_poly(u1)
    n_field = constant_field(SURF, frame.ltr[0]) + drift
    parts = weingarten_transversal(frame, D1, n_field)
    assert parts.shape == as_vec([0, 0, 0, 0], P)
    assert parts.conn == (q(0),)
    assert parts.ds == as_vec([0, 1, 0, 0], P)


def normal_screen_section(frame):
    """Everywhere-normal polynomial section, radical-corrected so its
    value at the frame point lies exactly in the normal screen."""
    imm = SURF
    rows = (
        imm.partial_polys(0),
        imm.partial_polys(1),
        tuple(Polynomial.constant(c, 2, P) for c in (1, 0, 0, 0)),
    )
    raw = AmbientField(imm, poly_cross(rows, imm.space.eps))
    xi_field = D1.to_ambient()
    v0 = raw.value_at(frame.point)
    n0 = frame.ltr[0]
    rho = frame.space.inner(v0, n0) / frame.space.inner(
        xi_field.value_at(frame.point), n0
    )
    return raw - xi_field.scale(rho)


def test_normal_screen_section_is_coherent():
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        z_field = normal_screen_section(frame)
        z0 = z_field.value_at(point)
        assert frame.normal_screen.contains(z0)
        # orthogonal to both coordinate fields identically
        for d in (D1, D2):
            assert pairing_poly(z_field, d.to_ambient()).is_zero
        assert z0 != frame.space.zero()


def test_screen_weingarten_duality_identity():
    """<hs(W,U), Z> + <U, sum dl_i N_i> = <A_Z W, U> for tangent W, U and
    an everywhere-normal section Z landing in the normal screen."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        z_field = normal_screen_section(frame)
        for w in (D1, D2):
            wparts = weingarten_normal_screen(frame, w, z_field)
            for u in (D1, D2):
                gparts = gauss_split(frame, w, u)
                u0 = u.value_at(point)
                lhs = frame.space.inner(
                    gparts.hs, z_field.value_at(point)
                ) + frame.space.inner(u0, hl_vector(frame, wparts.dl))
                rhs = frame.space.inner(wparts.shape, u0)
                assert lhs == rhs


def corrected_transversal_section(frame, targets):
    """Constant transversal value plus linear terms chosen so the pairing
    with every target field is stationary at the frame point."""
    n0 = frame.ltr[0]
    space = frame.space
    rows = tuple(
        tuple(space.eps[i] * t.value_at(frame.point)[i] for i in range(space.dim))
        for t in targets
    )
    comps = list(constant_field(SURF, n0).components)
    for j in range(2):
        rhs = []
        for t in targets:
            dt = tuple(c.partial(j) for c in t.components)
            dval = tuple(p.eval(frame.point) for p in dt)
            rhs.append(-space.inner(n0, dval))
        mu = solve(rows, tuple(rhs))
        assert mu is not None
        # shifted variable so the correction vanishes at the frame point
        uj = Polynomial.variable(j, 2, P) - Polynomial.constant(
            frame.point[j], 2, P
        )
        comps = [
            c + uj * Polynomial.constant(mu_i, 2, P) for c, mu_i in zip(comps, mu)
        ]
    return AmbientField(SURF, tuple(comps))


def test_transversal_screen_duality_identity():
    """<ds(W,N), Z> = <N, A_Z W> once the section pairings are stationary."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        z_field = normal_screen_section(frame)
        targets = [z_field, D1.to_ambient(), D2.to_ambient()]
        n_field = corrected_transversal_section(frame, targets)
        assert n_field.value_at(point) == frame.ltr[0]
        n0 = frame.ltr[0]
        for w in (D1, D2):
            nparts = weingarten_transversal(frame, w, n_field)
            zparts = weingarten_normal_screen(frame, w, z_field)
            lhs = frame.space.inner(nparts.ds, z_field.value_at(point))
            rhs = frame.space.inner(n0, zparts.shape)
            assert lhs == rhs


# ---- screen and radical star splits ----


def test_star_splits_frozen():
    frame = surface_frame(ORIGIN)
    screen_parts = star_forms_screen(frame, D1, D2)
    assert screen_parts.screen == as_vec([0, 0, 0, 1], P)
    assert screen_parts.rad == (q(0),)
    rad_parts = star_forms_radical(frame, D2, D1)
    assert rad_parts.shape == as_vec([0, 0, 0, -1], P)
    assert rad_parts.conn == (q(0),)


def test_star_shape_pairs_with_hl():
    """<hl-part of D_W PU, xi> = <A*_xi W, PU>: the radical second form
    and the radical shape operator are mutually adjoint."""
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        xi_field = D1  # radical at every point
        for w in (D1, D2):
            star = star_forms_radical(frame, w, xi_field)
            for u in (D2,):
                u0 = u.value_at(point)
                screen_u0, _ = split_tangent(frame, u0)
                gparts = gauss_split(frame, w, u)
                lhs = frame.space.inner(
                    hl_vector(frame, gparts.hl), xi_field.value_at(point)
                )
                # <N_i, xi> terms: hl_vector pairs only through N against xi
                rhs = frame.space.inner(star.shape, screen_u0)
                assert lhs == rhs


# ---- metric deviation ----


def test_metric_deviation_two_paths():
    """(nabla_W g)(U,V) computed from derivatives equals the symmetric
    transversal-pairing expression, exactly, for polynomial fields."""
    x = TangentField(SURF, (parse_polynomial("u2", 2, P), parse_polynomial("1", 2, P)))
    y = TangentField(
        SURF, (parse_polynomial("1", 2, P), parse_polynomial("u1", 2, P))
    )
    for point in (ORIGIN, OFF_POINT):
        frame = surface_frame(point)
        for w in (D1, D2, x):
            for u, v in [(D2, D2), (x, y), (D1, D2)]:
                hu = gauss_split(frame, w, u)
                hv = gauss_split(frame, w, v)
                dev = metric_deviation(frame, w, u, v, hu.induced, hv.induced)
                path2 = frame.space.inner(
                    hl_vector(frame, hu.hl), v.value_at(point)
                ) + frame.space.inner(u.value_at(point), hl_vector(frame, hv.hl))
                assert dev == path2


def test_metric_deviation_nonzero_here():
    """This surface is not metric: the deviation has a nonzero value."""
    frame = surface_frame(OFF_POINT)
    dev = metric_deviation(
        frame, D2, D2, D1,
        gauss_split(frame, D2, D2).induced, gauss_split(frame, D2, D1).induced,
    )
    assert dev != 0


# ---- Lie bracket ----


def test_coordinate_fields_commute():
    b = lie_bracket(D1, D2)
    assert all(c.is_zero for c in b.coeffs)


def test_bracket_leibniz_and_antisymmetry():
    f = parse_polynomial("u1*u2", 2, P)
    x = TangentField(SURF, (parse_polynomial("u2", 2, P), parse_polynomial("1", 2, P)))
    y = TangentField(SURF, (parse_polynomial("1", 2, P), parse_polynomial("u1", 2, P)))
    fy = y.scale_poly(f)
    lhs = lie_bracket(x, fy)
    xf = scalar_derivative(x, f)
    rhs_coeffs = tuple(
        xf * c1 + f * c2 for c1, c2 in zip(y.coeffs, lie_bracket(x, y).coeffs)
    )
    assert lhs.coeffs == rhs_coeffs
    minus = lie_bracket(y, x)
    assert all((a + b).is_zero for a, b in zip(lie_bracket(x, y).coeffs, minus.coeffs))


def test_bracket_jacobi():
    x = TangentField(SURF, (parse_polynomial("u2", 2, P), parse_polynomial("1", 2, P)))
    y = TangentField(SURF, (parse_polynomial("u1", 2, P), parse_polynomial("u2", 2, P)))
    z = TangentField(SURF, (parse_polynomial("1", 2, P), parse_polynomial("u1*u2", 2, P)))
    total = (
        lie_bracket(x, lie_bracket(y, z)).coeffs,
        lie_bracket(y, lie_bracket(z, x)).coeffs,
        lie_bracket(z, lie_bracket(x, y)).coeffs,
    )
    for a, b, c in zip(*total):
        assert (a + b + c).is_zero


# ---- derivative algebra ----


def test_derive_product_rule():
    f = parse_polynomial("u1 + u2^2", 2, P)
    v = normal_screen_section(surface_frame(ORIGIN))
    for x in (D1, D2):
        lhs = derive(x, v.scale_poly(f))
        xf = scalar_derivative(x, f)
        rhs = v.scale_poly(xf) + derive(x, v).scale_poly(f)
        assert lhs.components == rhs.components


def test_field_shape_guards():
    with pytest.raises(ShapeError):
        TangentField(SURF, (Polynomial.zero(2, P),))
    with pytest.raises(ShapeError):
        AmbientField(SURF, (Polynomial.zero(2, P),) * 3)
    other = PolynomialImmersion(
        SignatureSpace(3, (-1, 1, 1), P),
        1,
        (
            Polynomial.variable(0, 1, P),
            Polynomial.variable(0, 1, P),
            Polynomial.zero(1, P),
        ),
    )
    with pytest.raises(ShapeError):
        lie_bracket(D1, coordinate_field(other, 0))


# ---- field kits ----


def pairing_gradient_is_zero(immersion, point, left_components, right_components):
    pair = sum(
        (
            Polynomial.constant(immersion.space.eps[i], 2, P) * left_components[i] * right_components[i]
            for i in range(immersion.space.dim)
        ),
        start=Polynomial.zero(2, P),
    )
    return all(pair.partial(l).eval(point) == 0 for l in range(immersion.chart_dim))


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_values_hit_the_frame(point):
    frame = surface_frame(point)
    kit = build_field_kit(SURF, frame)
    assert tuple(f.value_at(point) for f in kit.radical) == frame.rad_basis
    assert tuple(f.value_at(point) for f in kit.screen) == frame.screen.basis
    assert tuple(f.value_at(point) for f in kit.screen_adapted) == frame.screen.basis
    assert tuple(z.value_at(point) for z in kit.normal_screen) == frame.normal_screen.basis
    assert tuple(n.value_at(point) for n in kit.transversal) == frame.ltr


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_radical_fields_are_radical_to_first_order(point):
    frame = surface_frame(point)
    kit = build_field_kit(SURF, frame)
    for rad_field in kit.radical:
        amb = rad_field.to_ambient()
        for j in range(SURF.chart_dim):
            w = coordinate_field(SURF, j).to_ambient()
            assert pairing_gradient_is_zero(SURF, point, amb.components, w.components)


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_sections_have_stationary_pairings(point):
    frame = surface_frame(point)
    kit = build_field_kit(SURF, frame)
    coords = [coordinate_field(SURF, j).to_ambient() for j in range(SURF.chart_dim)]
    for z in kit.normal_screen:
        for w in coords:
            assert pairing_gradient_is_zero(SURF, point, z.components, w.components)
    stationary_targets = (
        [f.to_ambient() for f in kit.radical]
        + [f.to_ambient() for f in kit.screen]
        + list(kit.normal_screen)
        + list(kit.transversal)
    )
    for n in kit.transversal:
        for t in stationary_targets:
            assert pairing_gradient_is_zero(SURF, point, n.components, t.components)


@pytest.mark.parametrize("point", [ORIGIN, OFF_POINT])
def test_kit_adapted_screen_fields_stay_off_the_radical(point):
    frame = surface_frame(point)
    kit = build_field_kit(SURF, frame)
    for s in kit.screen_adapted:
        for n in kit.transversal:
            assert pairing_gradient_is_zero(
                SURF, point, s.to_ambient().components, n.components
            )


def test_kit_refuses_unstable_radical():
    """g(W1, W1) = 2*u2 + u2^2 kills the radical direction at first order."""
    space = SignatureSpace(3, (-1, 1, 1), P)
    comps = tuple(parse_polynomial(t, 2, P) for t in ["u1", "u1 + u1*u2", "u2"])
    imm = PolynomialImmersion(space, 2, comps)
    frame = build_frame(imm, (q(0), q(0)))
    assert frame.radical_dim == 1
    with pytest.raises(InsufficientScene):
        build_field_kit(imm, frame)
