"""Fields along an immersion and exact splits of their flat derivatives.

The ambient space is flat, so the ambient covariant derivative of a
field given by chart-coordinate polynomials is literally the chain
rule, computed exactly.  At a frame point any ambient vector splits
uniquely into tangent + transversal-null + normal-screen parts, and any
tangent vector further into screen + radical parts; the second
fundamental forms, shape operators, and induced connections are read
off those splits.

Conventions for the returned pieces (X tangent, Y tangent, N a
transversal-null section, Z a normal-screen section, xi a radical
section):

    D_X Y   = induced(X,Y) + sum_i hl_i N_i + hs                (Gauss)
    D_X N   = -shape(N)X + sum_i nabla_l_i N_i + ds             (null Weingarten)
    D_X Z   = -shape(Z)X + sum_i dl_i N_i + nabla_s             (screen Weingarten)
    induced(X,U)  = star_screen + sum_i hstar_i xi_i            (U screen-valued)
    induced(X,xi) = -star_shape + sum_i star_conn_i xi_i        (xi radical)

All coefficients are taken against the frame's radical basis and its
dual transversal frame, in matching order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import InsufficientScene, InternalInconsistency, NotInSpan, ShapeError
from .linalg import (
    Vec,
    coords_in_basis,
    lin_comb,
    solve,
    vec_add,
    vec_neg,
    vec_scale,
    zero_vec,
)
from .polynomials import Polynomial
from .scalars import QuadScalar
from .submanifold import AdaptedFrame, PolynomialImmersion


@dataclass(frozen=True)
class AmbientField:
    """Ambient-space-valued polynomial map over the chart."""

    immersion: PolynomialImmersion
    components: Tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        space = self.immersion.space
        if len(self.components) != space.dim:
            raise ShapeError("component count does not match ambient dimension")
        for c in self.components:
            if c.nvars != self.immersion.chart_dim:
                raise ShapeError("component variable count does not match chart")

    def value_at(self, point: Sequence[QuadScalar]) -> Vec:
        return tuple(c.eval(point) for c in self.components)

    def __add__(self, other: "AmbientField") -> "AmbientField":
        self._check(other)
        return AmbientField(
            self.immersion,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "AmbientField") -> "AmbientField":
        self._check(other)
        return AmbientField(
            self.immersion,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def scale(self, c: QuadScalar) -> "AmbientField":
        return AmbientField(self.immersion, tuple(p.scale(c) for p in self.components))

    def scale_poly(self, factor: Polynomial) -> "AmbientField":
        return AmbientField(self.immersion, tuple(factor * p for p in self.components))

    def _check(self, other: "AmbientField") -> None:
        if self.immersion != other.immersion:
            raise ShapeError("fields live along different immersions")


@dataclass(frozen=True)
class TangentField:
    """Tangent field written in chart coefficients: sum_j coeffs[j] W_j."""

    immersion: PolynomialImmersion
    coeffs: Tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.immersion.chart_dim:
            raise ShapeError("coefficient count does not match chart dimension")
        for c in self.coeffs:
            if c.nvars != self.immersion.chart_dim:
                raise ShapeError("coefficient variable count does not match chart")

    def to_ambient(self) -> AmbientField:
        comps = []
        for i, f_i in enumerate(self.immersion.components):
            acc = Polynomial.zero(self.immersion.chart_dim, self.immersion.space.params)
            for j, coeff in enumerate(self.coeffs):
                acc = acc + coeff * f_i.partial(j)
            comps.append(acc)
        return AmbientField(self.immersion, tuple(comps))

    def value_at(self, point: Sequence[QuadScalar]) -> Vec:
        return self.to_ambient().value_at(point)

    def coeff_values(self, point: Sequence[QuadScalar]) -> Tuple[QuadScalar, ...]:
        return tuple(c.eval(point) for c in self.coeffs)

    def __add__(self, other: "TangentField") -> "TangentField":
        if self.immersion != other.immersion:
            raise ShapeError("fields live along different immersions")
        return TangentField(
            self.immersion, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale_poly(self, factor: Polynomial) -> "TangentField":
        return TangentField(self.immersion, tuple(factor * c for c in self.coeffs))


def constant_field(immersion: PolynomialImmersion, vec: Vec) -> AmbientField:
    """Ambient field with a fixed value everywhere."""
    m = immersion.chart_dim
    return AmbientField(
        immersion,
        tuple(Polynomial.constant(x, m, immersion.space.params) for x in vec),
    )


def coordinate_field(immersion: PolynomialImmersion, j: int) -> TangentField:
    m = immersion.chart_dim
    if not 0 <= j < m:
        raise ShapeError(f"chart index {j} out of range")
    params = immersion.space.params
    coeffs = tuple(
        Polynomial.constant(1 if i == j else 0, m, params) for i in range(m)
    )
    return TangentField(immersion, coeffs)


def tangent_from_constants(
    immersion: PolynomialImmersion, consts: Sequence
) -> TangentField:
    m = immersion.chart_dim
    params = immersion.space.params
    if len(consts) != m:
        raise ShapeError("constant count does not match chart dimension")
    return TangentField(
        immersion,
        tuple(Polynomial.constant(c, m, params) for c in consts),
    )


def lie_bracket(x: TangentField, y: TangentField) -> TangentField:
    """[X, Y]^k = sum_j (X^j dY^k/du_j - Y^j dX^k/du_j), exact."""
    if x.immersion != y.immersion:
        raise ShapeError("fields live along different immersions")
    m = x.immersion.chart_dim
    out = []
    for k in range(m):
        acc = Polynomial.zero(m, x.immersion.space.params)
        for j in range(m):
            acc = acc + x.coeffs[j] * y.coeffs[k].partial(j)
            acc = acc - y.coeffs[j] * x.coeffs[k].partial(j)
        out.append(acc)
    return TangentField(x.immersion, tuple(out))


def scalar_derivative(x: TangentField, scalar: Polynomial) -> Polynomial:
    """X applied to a chart function."""
    if scalar.nvars != x.immersion.chart_dim:
        raise ShapeError("scalar variable count does not match chart")
    acc = Polynomial.zero(scalar.nvars, scalar.params)
    for j, coeff in enumerate(x.coeffs):
        acc = acc + coeff * scalar.partial(j)
    return acc


def pairing_poly(u: AmbientField, v: AmbientField) -> Polynomial:
    """<U, V> as a chart polynomial."""
    if u.immersion != v.immersion:
        raise ShapeError("fields live along different immersions")
    space = u.immersion.space
    acc = Polynomial.zero(u.immersion.chart_dim, space.params)
    for e, a, b in zip(space.eps, u.components, v.components):
        term = a * b
        if e == -1:
            term = -term
        acc = acc + term
    return acc


def derive(x: TangentField, v: AmbientField) -> AmbientField:
    """Flat ambient derivative of V along X: componentwise chain rule."""
    if x.immersion != v.immersion:
        raise ShapeError("fields live along different immersions")
    m = x.immersion.chart_dim
    comps = []
    for comp in v.components:
        acc = Polynomial.zero(m, comp.params)
        for j, coeff in enumerate(x.coeffs):
            acc = acc + coeff * comp.partial(j)
        comps.append(acc)
    return AmbientField(x.immersion, tuple(comps))


def derive_tangent(x: TangentField, y: TangentField) -> AmbientField:
    return derive(x, y.to_ambient())


# ---- pointwise splits ----


@dataclass(frozen=True)
class FullSplit:
    """v = tangent + sum_i ltr_coeffs[i] N_i + normal_screen."""

    tangent: Vec
    ltr_coeffs: Tuple[QuadScalar, ...]
    normal_screen: Vec

    def assemble(self, frame: AdaptedFrame) -> Vec:
        acc = self.tangent
        for c, n in zip(self.ltr_coeffs, frame.ltr):
            acc = vec_add(acc, vec_scale(c, n))
        return vec_add(acc, self.normal_screen)


def full_split(frame: AdaptedFrame, v: Vec) -> FullSplit:
    space = frame.space
    stacked = frame.tangent.basis + frame.ltr + frame.normal_screen.basis
    try:
        coords = coords_in_basis(stacked, v)
    except NotInSpan as exc:
        raise InternalInconsistency(
            "adapted frame failed to span the ambient space"
        ) from exc
    m = frame.tangent.dim
    r = len(frame.ltr)
    tangent = (
        lin_comb(coords[:m], frame.tangent.basis)
        if m
        else zero_vec(space.dim, space.params)
    )
    ns = (
        lin_comb(coords[m + r :], frame.normal_screen.basis)
        if frame.normal_screen.dim
        else zero_vec(space.dim, space.params)
    )
    return FullSplit(tangent, tuple(coords[m : m + r]), ns)


def split_tangent(frame: AdaptedFrame, v: Vec) -> Tuple[Vec, Tuple[QuadScalar, ...]]:
    """Tangent vector -> (screen part, radical coefficients)."""
    stacked = frame.screen.basis + frame.rad_basis
    coords = coords_in_basis(stacked, v)
    s = frame.screen.dim
    screen_part = (
        lin_comb(coords[:s], frame.screen.basis)
        if s
        else zero_vec(frame.space.dim, frame.space.params)
    )
    return screen_part, tuple(coords[s:])


# ---- named split bundles ----


@dataclass(frozen=True)
class GaussSplit:
    """D_X Y = induced + sum hl_i N_i + hs."""

    induced: Vec
    hl: Tuple[QuadScalar, ...]
    hs: Vec


def gauss_split(frame: AdaptedFrame, x: TangentField, y: TangentField) -> GaussSplit:
    deriv = derive_tangent(x, y).value_at(frame.point)
    parts = full_split(frame, deriv)
    return GaussSplit(parts.tangent, parts.ltr_coeffs, parts.normal_screen)


@dataclass(frozen=True)
class TransversalSplit:
    """D_X N = -shape + sum conn_i N_i + ds, shape tangent, ds normal-screen."""

    shape: Vec
    conn: Tuple[QuadScalar, ...]
    ds: Vec


def weingarten_transversal(
    frame: AdaptedFrame, x: TangentField, n_field: AmbientField
) -> TransversalSplit:
    deriv = derive(x, n_field).value_at(frame.point)
    parts = full_split(frame, deriv)
    return TransversalSplit(vec_neg(parts.tangent), parts.ltr_coeffs, parts.normal_screen)


@dataclass(frozen=True)
class NormalScreenSplit:
    """D_X Z = -shape + sum dl_i N_i + conn, shape tangent, conn normal-screen."""

    shape: Vec
    dl: Tuple[QuadScalar, ...]
    conn: Vec


def weingarten_normal_screen(
    frame: AdaptedFrame, x: TangentField, z_field: AmbientField
) -> NormalScreenSplit:
    deriv = derive(x, z_field).value_at(frame.point)
    parts = full_split(frame, deriv)
    return NormalScreenSplit(vec_neg(parts.tangent), parts.ltr_coeffs, parts.normal_screen)


@dataclass(frozen=True)
class ScreenSplit:
    """induced(X, U) = screen + sum rad_i xi_i for screen-valued U."""

    screen: Vec
    rad: Tuple[QuadScalar, ...]


def star_forms_screen(
    frame: AdaptedFrame, x: TangentField, u: TangentField
) -> ScreenSplit:
    """Screen connection and radical-valued second form of the screen."""
    induced = gauss_split(frame, x, u).induced
    screen_part, rad_coeffs = split_tangent(frame, induced)
    return ScreenSplit(screen_part, rad_coeffs)


@dataclass(frozen=True)
class RadicalSplit:
    """induced(X, xi) = -shape + sum conn_i xi_i for radical xi."""

    shape: Vec
    conn: Tuple[QuadScalar, ...]


def star_forms_radical(
    frame: AdaptedFrame, x: TangentField, xi: TangentField
) -> RadicalSplit:
    induced = gauss_split(frame, x, xi).induced
    screen_part, rad_coeffs = split_tangent(frame, induced)
    return RadicalSplit(vec_neg(screen_part), rad_coeffs)


def induced_connection(frame: AdaptedFrame, x: TangentField, y: TangentField) -> Vec:
    return gauss_split(frame, x, y).induced


def hl_vector(frame: AdaptedFrame, coeffs: Sequence[QuadScalar]) -> Vec:
    """Assemble sum_i c_i N_i as an ambient vector."""
    if len(coeffs) != len(frame.ltr):
        raise ShapeError("coefficient count does not match the transversal frame")
    acc = zero_vec(frame.space.dim, frame.space.params)
    for c, n in zip(coeffs, frame.ltr):
        acc = vec_add(acc, vec_scale(c, n))
    return acc


def rad_vector(frame: AdaptedFrame, coeffs: Sequence[QuadScalar]) -> Vec:
    """Assemble sum_i c_i xi_i as an ambient vector."""
    if len(coeffs) != len(frame.rad_basis):
        raise ShapeError("coefficient count does not match the radical basis")
    acc = zero_vec(frame.space.dim, frame.space.params)
    for c, xi in zip(coeffs, frame.rad_basis):
        acc = vec_add(acc, vec_scale(c, xi))
    return acc


# ---- coherent field kits ----
#
# The pointwise checks differentiate fields, so the fields must respect
# the frame to first order, not just at the point: radical fields must
# stay radical to first order, and the section pairings that the
# duality identities differentiate must be stationary.  The kit builds
# all of that by exact linear solves.


@dataclass(frozen=True)
class FieldKit:
    """Frame-adapted fields: values match the frame bases exactly and
    the first-order behavior makes the derivative identities exact.

    screen holds constant-coefficient fields (the duality identities
    want those); screen_adapted holds fields whose radical coordinates
    against the transversal sections are stationary, which is what the
    distribution brackets need.
    """

    frame: AdaptedFrame
    radical: Tuple[TangentField, ...]
    screen: Tuple[TangentField, ...]
    normal_screen: Tuple[AmbientField, ...]
    transversal: Tuple[AmbientField, ...]
    screen_adapted: Tuple[TangentField, ...]

    def tangent_spanning(self) -> Tuple[TangentField, ...]:
        return self.screen + self.radical


def _shifted_variable(
    immersion: PolynomialImmersion, j: int, point: Sequence[QuadScalar]
) -> Polynomial:
    m = immersion.chart_dim
    params = immersion.space.params
    return Polynomial.variable(j, m, params) - Polynomial.constant(point[j], m, params)


def radical_tangent_fields(
    immersion: PolynomialImmersion, frame: AdaptedFrame
) -> Tuple[TangentField, ...]:
    """Tangent fields that equal the radical basis at the point and stay
    radical to first order.

    The first-order condition is an exact linear system against the
    Gram matrix of the coordinate frame; it is solvable exactly when
    the radical direction extends off the point, and a scene where it
    does not cannot support the checks that differentiate radical
    fields, hence InsufficientScene.
    """
    m = immersion.chart_dim
    params = immersion.space.params
    point = frame.point
    if frame.radical_dim == 0:
        return ()
    w_ambient = [
        AmbientField(immersion, immersion.partial_polys(j)) for j in range(m)
    ]
    gram_polys = tuple(
        tuple(pairing_poly(w_ambient[j], w_ambient[k]) for k in range(m))
        for j in range(m)
    )
    gram0 = tuple(tuple(p.eval(point) for p in row) for row in gram_polys)
    fields = []
    for xi in frame.rad_basis:
        c0 = coords_in_basis(frame.tangent_jacobian, xi)
        coeff_polys = [
            Polynomial.constant(c, m, params) for c in c0
        ]
        for l in range(m):
            d_gram = tuple(
                tuple(p.partial(l).eval(point) for p in row) for row in gram_polys
            )
            rhs = tuple(
                -sum(
                    (d_gram[j][k] * c0[j] for j in range(m)),
                    start=QuadScalar.zero(params),
                )
                for k in range(m)
            )
            gamma = solve(gram0, rhs)
            if gamma is None:
                raise InsufficientScene(
                    "radical direction does not extend to first order here"
                )
            shift = _shifted_variable(immersion, l, point)
            coeff_polys = [
                c + shift * Polynomial.constant(g, m, params)
                for c, g in zip(coeff_polys, gamma)
            ]
        fields.append(TangentField(immersion, tuple(coeff_polys)))
    return tuple(fields)


def screen_tangent_fields(
    immersion: PolynomialImmersion, frame: AdaptedFrame
) -> Tuple[TangentField, ...]:
    """Constant-coefficient tangent fields through the screen basis."""
    params = immersion.space.params
    m = immersion.chart_dim
    fields = []
    for s in frame.screen.basis:
        coords = coords_in_basis(frame.tangent_jacobian, s)
        fields.append(
            TangentField(
                immersion,
                tuple(Polynomial.constant(c, m, params) for c in coords),
            )
        )
    return tuple(fields)


def _linear_corrected_section(
    immersion: PolynomialImmersion,
    frame: AdaptedFrame,
    base: Vec,
    targets: Sequence[AmbientField],
    rhs_extra: Sequence[Sequence[QuadScalar]] = (),
    extra_rows: Sequence[Vec] = (),
) -> AmbientField:
    """base + sum_l (u_l - pt_l) mu_l with <mu_l, target_k(pt)> forced.

    For each chart direction l the correction solves
        <mu_l, T_k(pt)> = -<base, (d_l T_k)(pt)>
    so every pairing <section(u), T_k(u)> is stationary at the point.
    extra_rows/rhs_extra append further exact linear conditions.
    """
    space = immersion.space
    m = immersion.chart_dim
    point = frame.point
    rows = [
        tuple(space.eps[i] * t.value_at(point)[i] for i in range(space.dim))
        for t in targets
    ]
    for row_vec in extra_rows:
        rows.append(tuple(space.eps[i] * row_vec[i] for i in range(space.dim)))
    comps = list(constant_field(immersion, base).components)
    for l in range(m):
        rhs = []
        for t in targets:
            dval = tuple(c.partial(l).eval(point) for c in t.components)
            rhs.append(-space.inner(base, dval))
        for extra in rhs_extra:
            rhs.append(extra[l])
        mu = solve(tuple(rows), tuple(rhs))
        if mu is None:
            raise InternalInconsistency(
                "section correction system became inconsistent"
            )
        shift = _shifted_variable(immersion, l, point)
        comps = [
            c + shift * Polynomial.constant(mu_i, m, immersion.space.params)
            for c, mu_i in zip(comps, mu)
        ]
    return AmbientField(immersion, tuple(comps))


def normal_screen_sections(
    immersion: PolynomialImmersion, frame: AdaptedFrame
) -> Tuple[AmbientField, ...]:
    """Sections through the normal-screen basis, normal to first order."""
    m = immersion.chart_dim
    w_fields = [coordinate_field(immersion, j).to_ambient() for j in range(m)]
    return tuple(
        _linear_corrected_section(immersion, frame, z, w_fields)
        for z in frame.normal_screen.basis
    )


def transversal_sections(
    immersion: PolynomialImmersion,
    frame: AdaptedFrame,
    rad_fields: Sequence[TangentField],
    screen_fields: Sequence[TangentField],
    ns_sections: Sequence[AmbientField],
) -> Tuple[AmbientField, ...]:
    """Sections through the transversal frame with every frame pairing
    stationary: against the corrected radical fields, the screen fields,
    the normal-screen sections, and the other transversal values."""
    params = immersion.space.params
    m = immersion.chart_dim
    targets = [f.to_ambient() for f in rad_fields]
    targets += [f.to_ambient() for f in screen_fields]
    targets += list(ns_sections)
    zero_rows = tuple(
        tuple(QuadScalar.zero(params) for _ in range(m)) for _ in frame.ltr
    )
    out = []
    for n0 in frame.ltr:
        out.append(
            _linear_corrected_section(
                immersion,
                frame,
                n0,
                targets,
                rhs_extra=zero_rows,
                extra_rows=frame.ltr,
            )
        )
    return tuple(out)


def screen_adapted_fields(
    immersion: PolynomialImmersion,
    frame: AdaptedFrame,
    trans_sections: Sequence[AmbientField],
) -> Tuple[TangentField, ...]:
    """Tangent fields through the screen basis whose pairings with the
    transversal sections are stationary, so their radical part vanishes
    to first order and brackets probe the screen distribution."""
    params = immersion.space.params
    space = immersion.space
    m = immersion.chart_dim
    point = frame.point
    if not trans_sections:
        return screen_tangent_fields(immersion, frame)
    w_fields = [coordinate_field(immersion, j).to_ambient() for j in range(m)]
    rows = tuple(
        tuple(
            space.inner(w_fields[a].value_at(point), n.value_at(point))
            for a in range(m)
        )
        for n in trans_sections
    )
    fields = []
    for s in frame.screen.basis:
        c0 = coords_in_basis(frame.tangent_jacobian, s)
        coeff_polys = [Polynomial.constant(c, m, params) for c in c0]
        for l in range(m):
            rhs = []
            for n in trans_sections:
                n_deriv = tuple(c.partial(l).eval(point) for c in n.components)
                drift = space.inner(s, n_deriv)
                for a in range(m):
                    w_deriv = tuple(
                        c.partial(l).eval(point) for c in w_fields[a].components
                    )
                    drift = drift + c0[a] * space.inner(w_deriv, n.value_at(point))
                rhs.append(-drift)
            mu = solve(rows, tuple(rhs))
            if mu is None:
                raise InternalInconsistency(
                    "screen adaptation system became inconsistent"
                )
            shift = _shifted_variable(immersion, l, point)
            coeff_polys = [
                c + shift * Polynomial.constant(mu_a, m, params)
                for c, mu_a in zip(coeff_polys, mu)
            ]
        fields.append(TangentField(immersion, tuple(coeff_polys)))
    return tuple(fields)


def build_field_kit(
    immersion: PolynomialImmersion, frame: AdaptedFrame
) -> FieldKit:
    rad = radical_tangent_fields(immersion, frame)
    scr = screen_tangent_fields(immersion, frame)
    ns = normal_screen_sections(immersion, frame)
    trans = transversal_sections(immersion, frame, rad, scr, ns)
    adapted = screen_adapted_fields(immersion, frame, trans)
    return FieldKit(frame, rad, scr, ns, trans, adapted)


def metric_deviation(
    frame: AdaptedFrame,
    w: TangentField,
    u: TangentField,
    v: TangentField,
    du: Vec,
    dv: Vec,
) -> QuadScalar:
    """(nabla_W g)(U, V) = W<U, V> - <du, V> - <U, dv>.

    ``du`` and ``dv`` are induced(W, U) and induced(W, V); the caller
    passes them because it sweeps many pairs along one W and computes
    each once.
    """
    space = frame.space
    scalar = pairing_poly(u.to_ambient(), v.to_ambient())
    w_of_scalar = scalar_derivative(w, scalar).eval(frame.point)
    return (
        w_of_scalar
        - space.inner(du, v.value_at(frame.point))
        - space.inner(u.value_at(frame.point), dv)
    )
