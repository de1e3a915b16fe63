"""First-order jets of fields along an immersion, and exact splits of
their flat derivatives.

Every criterion the checks evaluate is a pointwise identity in first
derivatives of frame fields at one chart point, so a field is carried
as its first-order jet there.  An ambient section is its value plus its
chart partials.  A tangent field sum_j X^j W_j, where W_j = d_j f are
the coordinate fields, is its chart coefficients X^j and their
partials; its ambient jet follows from the immersion's Jacobian and
Hessian at the point.  The ambient space is flat, so the derivative of
a section V along X at the point is literally sum_j X^j d_j V, exact.

At a frame point any ambient vector splits uniquely into tangent +
transversal-null + normal-screen parts, and any tangent vector further
into screen + radical parts, both read off its coordinates against the
frame's slot_factor; the second fundamental forms are read off those
splits.  For X, Y tangent and N_i the transversal-null frame:

    D_X Y   = induced(X,Y) + sum_i hl_i N_i + hs                (Gauss)

The Weingarten and screen splits are the same decomposition applied to
the derivative of a transversal, normal-screen or radical section; the
classifier reads them as slot-coordinate rows instead of one vector at
a time.  All coefficients are taken against the frame's radical basis and
its dual transversal frame, in matching order.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .ambient import SignatureSpace
from .errors import InsufficientScene, InternalInconsistency, NotInSpan, ShapeError
from .linalg import (
    FactoredBasis,
    Vec,
    factor_system,
    lin_comb,
    lowered,
    vec_add,
    zero_vec,
)
from .scalars import QuadScalar
from .submanifold import AdaptedFrame, PolynomialImmersion


class AmbientJet(NamedTuple):
    """An ambient section at the frame point: its value V and its chart
    partials, partials[l] = d_l V."""

    value: Vec
    partials: Tuple[Vec, ...]


class TangentJet(NamedTuple):
    """A tangent field sum_j X^j W_j at the frame point.

    Besides its ambient jet (value, partials) it keeps the chart
    coefficients X^j, their partials coeff_partials[l][j] = d_l X^j, and
    the coordinate vectors W_j they refer to, which is what a Lie
    bracket needs.
    """

    value: Vec
    partials: Tuple[Vec, ...]
    coeffs: Tuple[QuadScalar, ...]
    coeff_partials: Tuple[Tuple[QuadScalar, ...], ...]
    jacobian: Tuple[Vec, ...]


class ChartJet(NamedTuple):
    """The immersion to second order at the frame point, held as the
    coordinate fields W_j: value d_j f, partials d_l d_j f."""

    coordinates: Tuple[TangentJet, ...]

    def tangent(
        self,
        coeffs: Sequence[QuadScalar],
        coeff_partials: Optional[Sequence[Sequence[QuadScalar]]] = None,
    ) -> TangentJet:
        """sum_j X^j W_j from X^j and d_l X^j (indexed [l][j]); the
        partials default to zero, a constant-coefficient field."""
        coords = self.coordinates
        m = len(coords)
        if len(coeffs) != m:
            raise ShapeError("coefficient count does not match chart dimension")
        jac = coords[0].jacobian
        # d_l (X^j W_j) = (d_l X^j) W_j + X^j d_l W_j
        partials = [
            lin_comb(coeffs, tuple(w.partials[l] for w in coords)) for l in range(m)
        ]
        if coeff_partials is None:
            zero = QuadScalar.zero(jac[0][0].params)
            coeff_partials = ((zero,) * m,) * m
        elif len(coeff_partials) != m:
            raise ShapeError("coefficient partial rows do not match chart dimension")
        else:
            partials = [
                vec_add(lin_comb(row, jac), d) for row, d in zip(coeff_partials, partials)
            ]
        return TangentJet(
            lin_comb(coeffs, jac),
            tuple(partials),
            tuple(coeffs),
            tuple(tuple(row) for row in coeff_partials),
            jac,
        )


def chart_jet(immersion: PolynomialImmersion, frame: AdaptedFrame) -> ChartJet:
    """Coordinate fields at the frame point.  This is the one place the
    immersion's Hessian is evaluated, so callers build it lazily."""
    jac = frame.tangent_jacobian
    hessian = immersion.hessian(frame.point)
    m = len(jac)
    params = frame.space.params
    zero, one = QuadScalar.zero(params), QuadScalar.one(params)
    flat = ((zero,) * m,) * m
    return ChartJet(
        tuple(
            TangentJet(
                jac[j],
                tuple(hessian[l][j] for l in range(m)),
                tuple(one if k == j else zero for k in range(m)),
                flat,
                jac,
            )
            for j in range(m)
        )
    )


def lie_bracket(x: TangentJet, y: TangentJet) -> Vec:
    """[X, Y] at the point: sum_k (sum_j X^j d_j Y^k - Y^j d_j X^k) W_k."""
    m = len(x.coeffs)
    zero = QuadScalar.zero(x.jacobian[0][0].params)
    coeffs = tuple(
        sum(
            (
                x.coeffs[j] * y.coeff_partials[j][k]
                - y.coeffs[j] * x.coeff_partials[j][k]
                for j in range(m)
            ),
            start=zero,
        )
        for k in range(m)
    )
    return lin_comb(coeffs, x.jacobian)


def pairing_gradient(
    space: SignatureSpace, u: AmbientJet, v: AmbientJet
) -> Tuple[QuadScalar, ...]:
    """d_l <U, V> at the point, for every chart direction l."""
    return tuple(
        space.inner(du, v.value) + space.inner(u.value, dv)
        for du, dv in zip(u.partials, v.partials)
    )


def derive(x: TangentJet, v: AmbientJet) -> Vec:
    """Flat ambient derivative of V along X at the point: sum_j X^j d_j V."""
    return lin_comb(x.coeffs, v.partials)


# ---- pointwise splits ----


class FullSplit(NamedTuple):
    """v = tangent + sum_i ltr_coeffs[i] N_i + normal_screen."""

    tangent: Vec
    ltr_coeffs: Tuple[QuadScalar, ...]
    normal_screen: Vec


def _part(frame: AdaptedFrame, coords: Vec, label: str) -> Vec:
    """The slot (or "tangent") component of the vector with these coordinates."""
    at = frame.slot_ranges[label]
    if not at:
        return zero_vec(frame.space.dim, frame.space.params)
    return lin_comb(coords[at.start : at.stop], frame.slot_factor.basis[at.start : at.stop])


def full_split(frame: AdaptedFrame, v: Vec) -> FullSplit:
    coords, ltr = frame.slot_coords(v), frame.slot_ranges["transversal"]
    tangent, normal_screen = (_part(frame, coords, a) for a in ("tangent", "normal-screen"))
    return FullSplit(tangent, coords[ltr.start : ltr.stop], normal_screen)


def split_tangent(frame: AdaptedFrame, v: Vec) -> Tuple[Vec, Tuple[QuadScalar, ...]]:
    """Tangent vector -> (screen part, radical coefficients); NotInSpan
    when it has an ltr or normal-screen coordinate."""
    coords = frame.slot_coords(v)
    if any(coords[frame.slot_ranges["tangent"].stop :]):
        raise NotInSpan("vector is outside the tangent space")
    rad = frame.slot_ranges["radical"]
    return _part(frame, coords, "screen"), coords[rad.start : rad.stop]


# ---- named split bundles ----


class GaussSplit(NamedTuple):
    """D_X Y = induced + sum hl_i N_i + hs."""

    induced: Vec
    hl: Tuple[QuadScalar, ...]
    hs: Vec


def gauss_split(frame: AdaptedFrame, x: TangentJet, y: TangentJet) -> GaussSplit:
    deriv = derive(x, y)
    parts = full_split(frame, deriv)
    return GaussSplit(parts.tangent, parts.ltr_coeffs, parts.normal_screen)


# ---- coherent field kits ----
#
# The pointwise checks differentiate fields, so the fields must respect
# the frame to first order, not just at the point: radical fields must
# stay radical to first order, and the section pairings that the
# duality identities differentiate must be stationary.  The kit builds
# all of that by exact linear solves, one per chart direction, whose
# solutions are the fields' partials at the point.  Each pairing the
# right-hand sides read is formed once, and each system matrix is factored
# once and reused for every right-hand side.


class FieldKit(NamedTuple):
    """Frame-adapted fields: values match the frame bases exactly and
    the first-order behavior makes the derivative identities exact.

    screen holds constant-coefficient fields (the duality identities
    want those); screen_adapted holds fields whose radical coordinates
    against the transversal sections are stationary, which is what the
    distribution brackets need.
    """

    frame: AdaptedFrame
    radical: Tuple[TangentJet, ...]
    screen: Tuple[TangentJet, ...]
    normal_screen: Tuple[AmbientJet, ...]
    transversal: Tuple[AmbientJet, ...]
    screen_adapted: Tuple[TangentJet, ...]


def _solve_each(system: FactoredBasis, rhs: Sequence[Vec], failure: Exception) -> List[Vec]:
    """system.coords of every right-hand side; failure when one has none."""
    try:
        return [system.coords(b) for b in rhs]
    except NotInSpan as exc:
        raise failure from exc


def radical_tangent_fields(
    chart: ChartJet, frame: AdaptedFrame
) -> Tuple[TangentJet, ...]:
    """Tangent fields that equal the radical basis at the point and stay
    radical to first order.

    The first-order condition is an exact linear system against the
    Gram matrix of the coordinate frame; it is solvable exactly when
    the radical direction extends off the point, and a scene where it
    does not cannot support the checks that differentiate radical
    fields, hence InsufficientScene.
    """
    if frame.radical_dim == 0:
        return ()
    space, coords, m = frame.space, chart.coordinates, len(chart.coordinates)
    zero = QuadScalar.zero(space.params)
    # pair[l][j][k] = <d_l W_j, W_k>, formed once for l <= j since
    # d_l W_j = d_j W_l; then d_l <W_j, W_k> = pair[l][j][k] + pair[l][k][j]
    half = {
        (l, j): tuple(space.inner(coords[j].partials[l], w.value) for w in coords)
        for j in range(m) for l in range(j + 1)
    }
    pair = [[half[min(l, j), max(l, j)] for j in range(m)] for l in range(m)]
    system = factor_system(frame.tangent_gram, space.params)  # Gram of the Jacobian rows
    c0s = [frame.jacobian_factor.coords(xi) for xi in frame.rad_basis]
    rhs = [
        tuple(
            -sum(((pair[l][j][k] + pair[l][k][j]) * c0[j] for j in range(m)), start=zero)
            for k in range(m)
        )
        for c0 in c0s
        for l in range(m)
    ]
    gammas = _solve_each(
        system, rhs, InsufficientScene("radical direction does not extend to first order here")
    )
    return tuple(chart.tangent(c0, gammas[i * m : (i + 1) * m]) for i, c0 in enumerate(c0s))


def screen_tangent_fields(
    chart: ChartJet, frame: AdaptedFrame
) -> Tuple[TangentJet, ...]:
    """Constant-coefficient tangent fields through the screen basis."""
    return tuple(
        chart.tangent(frame.jacobian_factor.coords(s)) for s in frame.screen.basis
    )


def _corrected_sections(
    frame: AdaptedFrame,
    bases: Sequence[Vec],
    targets: Sequence[AmbientJet],
    rhs_extra: Sequence[Sequence[QuadScalar]] = (),
    extra_rows: Sequence[Vec] = (),
) -> Tuple[AmbientJet, ...]:
    """Sections with values bases and partials mu_l, <mu_l, T_k(pt)> forced.

    For each base and chart direction l the partial solves
        <mu_l, T_k(pt)> = -<base, (d_l T_k)(pt)>
    so every pairing <section, T_k> is stationary at the point.
    extra_rows/rhs_extra append further exact linear conditions.  The
    system matrix does not depend on the base, so it is factored once.
    """
    if not bases:
        return ()
    space = frame.space
    m = len(frame.point)
    rows = [lowered(space.eps, t.value) for t in targets]
    rows += [lowered(space.eps, row) for row in extra_rows]
    system = factor_system(rows, space.params)
    rhs = [
        tuple(-space.inner(base, t.partials[l]) for t in targets)
        + tuple(extra[l] for extra in rhs_extra)
        for base in bases
        for l in range(m)
    ]
    partials = _solve_each(
        system, rhs, InternalInconsistency("section correction system became inconsistent")
    )
    return tuple(
        AmbientJet(base, tuple(partials[i * m : (i + 1) * m])) for i, base in enumerate(bases)
    )


def normal_screen_sections(
    chart: ChartJet, frame: AdaptedFrame
) -> Tuple[AmbientJet, ...]:
    """Sections through the normal-screen basis, normal to first order."""
    return _corrected_sections(frame, frame.normal_screen.basis, chart.coordinates)


def transversal_sections(
    frame: AdaptedFrame,
    rad_fields: Sequence[TangentJet],
    screen_fields: Sequence[TangentJet],
    ns_sections: Sequence[AmbientJet],
) -> Tuple[AmbientJet, ...]:
    """Sections through the transversal frame with every frame pairing
    stationary: against the corrected radical fields, the screen fields,
    the normal-screen sections, and the other transversal values."""
    zero = QuadScalar.zero(frame.space.params)
    targets = list(rad_fields) + list(screen_fields) + list(ns_sections)
    zero_rows = tuple((zero,) * len(frame.point) for _ in frame.ltr)
    return _corrected_sections(
        frame, frame.ltr, targets, rhs_extra=zero_rows, extra_rows=frame.ltr
    )


def screen_adapted_fields(
    chart: ChartJet,
    frame: AdaptedFrame,
    trans_sections: Sequence[AmbientJet],
) -> Tuple[TangentJet, ...]:
    """Tangent fields through the screen basis whose pairings with the
    transversal sections are stationary, so their radical part vanishes
    to first order and brackets probe the screen distribution."""
    if not trans_sections:
        return screen_tangent_fields(chart, frame)
    space, coords, m = frame.space, chart.coordinates, len(chart.coordinates)
    pairings = tuple(tuple(space.inner(w.value, n.value) for w in coords) for n in trans_sections)
    system = factor_system(pairings, space.params)
    # dw_n[l][i][a] = <d_l W_a, N_i> does not depend on the screen vector
    dw_n = [
        [tuple(space.inner(w.partials[l], n.value) for w in coords) for n in trans_sections]
        for l in range(m)
    ]
    c0s = [frame.jacobian_factor.coords(s) for s in frame.screen.basis]
    rhs = [
        tuple(
            -sum((c * d for c, d in zip(c0, row)), start=space.inner(s, n.partials[l]))
            for n, row in zip(trans_sections, dw_n[l])
        )
        for s, c0 in zip(frame.screen.basis, c0s)
        for l in range(m)
    ]
    mus = _solve_each(
        system, rhs, InternalInconsistency("screen adaptation system became inconsistent")
    )
    return tuple(chart.tangent(c0, mus[i * m : (i + 1) * m]) for i, c0 in enumerate(c0s))


def build_field_kit(chart: ChartJet, frame: AdaptedFrame) -> FieldKit:
    rad = radical_tangent_fields(chart, frame)
    scr = screen_tangent_fields(chart, frame)
    ns = normal_screen_sections(chart, frame)
    trans = transversal_sections(frame, rad, scr, ns)
    adapted = screen_adapted_fields(chart, frame, trans)
    return FieldKit(frame, rad, scr, ns, trans, adapted)
