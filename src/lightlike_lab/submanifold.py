"""Pointwise adapted frames along polynomial immersions.

Given an immersion f: R^m -> R^n into a signature space, everything is
computed exactly at a chosen chart point: the coordinate tangent frame,
the radical (the kernel of the induced metric), a screen complement in
the tangent space, a screen complement in the normal space, and the
null transversal frame paired against the radical basis.

Two structural facts keep the constructions total.  Any complement of
the radical inside the tangent space (or inside the normal space) is
automatically nondegenerate, and the pairing matrix between the radical
and any complement of it inside the orthogonal space of both screens is
automatically invertible.  Both are asserted rather than trusted.

Each piece of linear algebra is done once per point.  The Jacobian is
eliminated once, for its rank and its span together.  The radical is
J^T ker G, the image of the kernel of the m x m tangent Gram matrix G
(J has full rank, so J^T c is orthogonal to the tangent space exactly
when G c = 0), and the frame keeps G.  Each greedy complement reads
one Gram matrix of its bundle's basis: a candidate is tested for
independence with one forward reduction against an elimination kept
open, and for nondegeneracy with its Schur pivot against an L D L^T
factor of the vectors chosen so far.  With no radical the complement
is the bundle itself, and otherwise it is the chosen rows of the
bundle's reduced basis in pivot order, which is already the reduced
basis of their span.  Still asserted on every frame: the complements
are nondegenerate, the transversal frame is null and dual to the
radical basis.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .ambient import SignatureSpace
from .errors import (
    ImmersionRankDrop,
    InternalInconsistency,
    LtrConstructionFailed,
    ScreenInvalid,
    ShapeError,
    ValidationError,
)
from .linalg import (
    FactoredBasis,
    Mat,
    OpenElimination,
    Subspace,
    Vec,
    det,
    invert,
    is_zero_vec,
    lin_comb,
    mat_vec,
    null_space,
    transpose,
    vec_scale,
    vec_sub,
)
from .polynomials import Polynomial
from .records import Record
from .scalars import QuadScalar


class CaseKind(str, Enum):
    """Position of the radical inside tangent and normal spaces."""

    NONDEGENERATE = "nondegenerate"
    GENERIC = "generic-lightlike"  # 0 < r < min(m, k)
    COISOTROPIC = "coisotropic"  # r = k < m
    ISOTROPIC = "isotropic"  # r = m < k
    TOTALLY_LIGHTLIKE = "totally-lightlike"  # r = m = k


def classify_case(chart_dim: int, normal_dim: int, radical_dim: int) -> CaseKind:
    m, k, r = chart_dim, normal_dim, radical_dim
    if r == 0:
        return CaseKind.NONDEGENERATE
    if r == m and r == k:
        return CaseKind.TOTALLY_LIGHTLIKE
    if r == k:
        return CaseKind.COISOTROPIC
    if r == m:
        return CaseKind.ISOTROPIC
    return CaseKind.GENERIC


class PolynomialImmersion(Record):
    """f: R^m -> R^n with polynomial components."""

    __slots__ = ("space", "chart_dim", "components", "__dict__")

    def __init__(
        self, space: SignatureSpace, chart_dim: int, components: Tuple[Polynomial, ...]
    ) -> None:
        self._set(space, chart_dim, components)
        if not 1 <= self.chart_dim < self.space.dim:
            raise ValidationError(
                f"chart dimension {self.chart_dim} must be positive and below "
                f"the ambient dimension {self.space.dim}"
            )
        if len(self.components) != self.space.dim:
            raise ShapeError(
                f"{len(self.components)} components for ambient dimension {self.space.dim}"
            )
        for i, comp in enumerate(self.components):
            if comp.nvars != self.chart_dim:
                raise ShapeError(f"component {i} has {comp.nvars} variables")
            if comp.params != self.space.params:
                raise ShapeError(f"component {i} carries foreign scalar parameters")

    @cached_property
    def jacobian_polys(self) -> Tuple[Tuple[Polynomial, ...], ...]:
        """[j][k] = d_j f_k: the coordinate tangent fields, differentiated
        once per immersion rather than once per point."""
        return tuple(
            tuple(c.partial(j) for c in self.components) for j in range(self.chart_dim)
        )

    @cached_property
    def hessian_polys(self) -> Tuple[Tuple[Tuple[Polynomial, ...], ...], ...]:
        """[l][j][k] = d_l d_j f_k, differentiated once per immersion."""
        return tuple(
            tuple(tuple(d.partial(l) for d in row) for row in self.jacobian_polys)
            for l in range(self.chart_dim)
        )

    def tangent_space(
        self, point: Sequence[QuadScalar]
    ) -> Tuple[Tuple[Vec, ...], Subspace]:
        """Coordinate tangent vectors at the point and their span, from
        one elimination; full rank or a raise."""
        if len(point) != self.chart_dim:
            raise ShapeError("point length does not match chart dimension")
        frame = tuple(
            tuple(d.eval(point) for d in row) for row in self.jacobian_polys
        )
        tangent = Subspace(frame, self.space.dim, self.space.params)
        if tangent.dim != self.chart_dim:
            pretty = ", ".join(str(x) for x in point)
            raise ImmersionRankDrop(f"Jacobian rank drop at ({pretty})")
        return frame, tangent

    def tangent_frame(self, point: Sequence[QuadScalar]) -> Tuple[Vec, ...]:
        """Coordinate tangent vectors at the point; full rank or a raise."""
        return self.tangent_space(point)[0]

    def hessian(self, point: Sequence[QuadScalar]) -> Tuple[Tuple[Vec, ...], ...]:
        """Second partials at the point: hessian[l][j] = d_l d_j f."""
        return tuple(
            tuple(tuple(d.eval(point) for d in row) for row in rows)
            for rows in self.hessian_polys
        )


def polynomial_jet(
    polys: Sequence[Polynomial], point: Sequence[QuadScalar]
) -> Tuple[Vec, Tuple[Vec, ...]]:
    """First-order jet of polynomial components at a point: the values
    p_k(pt) and the partials, indexed [l][k] = d_l p_k(pt)."""
    values = tuple(p.eval(point) for p in polys)
    partials = tuple(
        tuple(p.partial(l).eval(point) for p in polys) for l in range(len(point))
    )
    return values, partials


def _greedy_complement(
    space: SignatureSpace, whole: Subspace, sub: Subspace
) -> Subspace:
    """Complement of sub inside whole from whole's canonical basis.

    First pass keeps the partial Gram matrix nondegenerate while
    growing; a second pass fills any remaining slots on independence
    alone.  The final complement is nondegenerate regardless (a vector
    of whole orthogonal to both sub and the complement sits in the
    radical of whole, which is contained in sub), and that is asserted.

    Every nondegeneracy decision reads the one Gram matrix G of whole's
    basis.  The chosen vectors' block of G is kept as L D L^T, one row
    per accepted vector, and a candidate k is accepted when its Schur
    pivot G_kk - sum_t d_t l_t^2 is nonzero: the bordered determinant
    is det(chosen block) times that pivot, and the chosen block is
    nonsingular by induction.  Independence is one forward reduction
    of the candidate against an elimination of sub plus the vectors
    chosen so far, kept open across candidates.  When sub is zero the
    complement is whole itself.  The chosen rows of whole's reduced
    basis, in pivot order, are already the reduced basis of their span,
    so the result is not eliminated again.
    """
    if not whole.contains_subspace(sub):
        raise ShapeError("sub is not inside whole")
    gram = space.gram(whole.basis)
    if not sub.dim:
        if whole.dim and not det(gram):
            raise InternalInconsistency("complement of the radical came out degenerate")
        return whole
    target = whole.dim - sub.dim
    chosen: list = []  # indices into whole.basis
    # L D L^T of the first-pass block: index, L row and 1/d per vector
    factor: list = []
    elimination = OpenElimination(sub)
    for k, v in enumerate(whole.basis):
        if len(chosen) == target:
            break
        residual = elimination.reduce(v)
        if is_zero_vec(residual):
            continue
        # forward substitution L w = G[chosen, k], then l_t = w_t / d_t
        # and the Schur pivot G_kk - sum_t l_t w_t
        g_k = gram[k]
        pivot = g_k[k]
        w: list = []
        lower: list = []
        for i, lower_i, inv_d in factor:
            w_t = g_k[i]
            for l_u, w_u in zip(lower_i, w):
                if l_u and w_u:
                    w_t = w_t - l_u * w_u
            w.append(w_t)
            if w_t:
                l_t = w_t * inv_d
                pivot = pivot - l_t * w_t
                lower.append(l_t)
            else:
                lower.append(w_t)
        if pivot:
            factor.append((k, lower, pivot.inverse()))
            elimination.keep(residual)
            chosen.append(k)
    if len(chosen) < target:
        for k, v in enumerate(whole.basis):
            if len(chosen) == target:
                break
            if elimination.extend(v):
                chosen.append(k)
    if len(chosen) != target:
        raise InternalInconsistency("greedy complement failed to reach full size")
    # nondegeneracy does not depend on the basis, so the chosen vectors'
    # block of G answers for the canonical basis of their span
    if chosen and not det(tuple(tuple(gram[i][j] for j in chosen) for i in chosen)):
        raise InternalInconsistency("complement of the radical came out degenerate")
    return whole.span_of_rows(chosen)


def _validate_override(
    space: SignatureSpace,
    whole: Subspace,
    sub: Subspace,
    override: Sequence[Vec],
    label: str,
) -> Subspace:
    vectors = tuple(override)
    for v in vectors:
        if len(v) != space.dim:
            raise ScreenInvalid(f"{label}: vector length does not match ambient")
        if not whole.contains(v):
            raise ScreenInvalid(f"{label}: vector outside the bundle it must refine")
    candidate = Subspace(vectors, space.dim, space.params)
    if candidate.dim != len(vectors):
        raise ScreenInvalid(f"{label}: spanning vectors are dependent")
    if len(vectors) != whole.dim - sub.dim:
        raise ScreenInvalid(
            f"{label}: got {len(vectors)} vectors, need {whole.dim - sub.dim}"
        )
    elimination = OpenElimination(sub)
    if not all(elimination.extend(v) for v in candidate.basis):
        raise ScreenInvalid(f"{label}: does not complement the radical")
    if candidate.dim and not det(space.gram(candidate.basis)):
        raise ScreenInvalid(f"{label}: induced metric on the override is degenerate")
    return candidate


def choose_screen(
    space: SignatureSpace,
    tangent: Subspace,
    radical: Subspace,
    override: Optional[Sequence[Vec]] = None,
) -> Subspace:
    """Screen distribution: a complement of the radical in the tangent space."""
    if override is not None:
        return _validate_override(space, tangent, radical, override, "screen")
    return _greedy_complement(space, tangent, radical)


def choose_normal_screen(
    space: SignatureSpace,
    normal: Subspace,
    radical: Subspace,
    override: Optional[Sequence[Vec]] = None,
) -> Subspace:
    """Screen of the normal bundle: a complement of the radical there."""
    if override is not None:
        return _validate_override(space, normal, radical, override, "normal screen")
    return _greedy_complement(space, normal, radical)


def construct_ltr(
    space: SignatureSpace,
    radical: Subspace,
    screen: Subspace,
    normal_screen: Subspace,
) -> Tuple[Vec, ...]:
    """Null transversal frame N_i dual to the radical's canonical basis.

    The N_i satisfy <N_i, xi_j> = delta_ij, <N_i, N_j> = 0 and are
    orthogonal to both screens.  Construction: inside the orthogonal
    space of the two screens, take any complement of the radical, apply
    the inverse pairing matrix, then strip quadratic self-terms.
    """
    rad_basis = radical.basis
    r = len(rad_basis)
    if r == 0:
        return ()
    params = space.params
    both = screen.sum(normal_screen)
    lam = space.orthogonal_complement(both)
    if lam.dim != 2 * r:
        raise LtrConstructionFailed(
            f"orthogonal space of the screens has dimension {lam.dim}, expected {2 * r}"
        )
    if not lam.contains_subspace(radical):
        raise LtrConstructionFailed("radical escaped the orthogonal space of the screens")

    chosen: list = []
    elimination = OpenElimination(radical)
    for v in lam.basis:
        if len(chosen) == r:
            break
        if elimination.extend(v):
            chosen.append(v)
    if len(chosen) != r:
        raise LtrConstructionFailed("no complement of the radical inside the pairing space")

    pairing = tuple(
        tuple(space.inner(v, xi) for xi in rad_basis) for v in chosen
    )
    inv = invert(pairing)
    if inv is None:
        raise LtrConstructionFailed("pairing matrix against the radical is singular")
    # dual vectors: <tilde_i, xi_j> = delta_ij
    tilde = [lin_comb(inv[i], tuple(chosen)) for i in range(r)]
    # subtract half the mutual inner products along the radical to null them
    half = QuadScalar(1, 0, params) / QuadScalar(2, 0, params)
    out = []
    for i in range(r):
        v = tilde[i]
        for j in range(r):
            coeff = half * space.inner(tilde[i], tilde[j])
            v = vec_sub(v, vec_scale(coeff, rad_basis[j]))
        out.append(v)
    return tuple(out)


class _FrameFields(NamedTuple):
    """The fields of AdaptedFrame, which adds an instance dict for its caches."""

    space: SignatureSpace
    point: Tuple[QuadScalar, ...]
    tangent_jacobian: Tuple[Vec, ...]
    tangent_gram: Mat
    tangent: Subspace
    normal: Subspace
    radical: Subspace
    screen: Subspace
    normal_screen: Subspace
    ltr: Tuple[Vec, ...]
    case: CaseKind


class AdaptedFrame(_FrameFields):
    """Everything the pointwise checks need, all exact.

    tangent_jacobian keeps the coordinate order of the chart, while the
    Subspace fields carry canonical bases.  tangent_gram is the Gram
    matrix of tangent_jacobian, which the radical was read from.  ltr[i]
    pairs with rad_basis[i].

    Bases that vectors get split against are factored on first use
    through factored(), which keeps each factorization for the life of
    the frame, so each distinct basis is eliminated at most once per
    point and every later split is a matrix-vector product.
    full_factor, tangent_factor and jacobian_factor name the three that
    geometry splits against; build_frame factors none of them.
    """

    @cached_property
    def _factors(self) -> Dict[Tuple[Vec, ...], FactoredBasis]:
        return {}

    @property
    def rad_basis(self) -> Tuple[Vec, ...]:
        return self.radical.basis

    @property
    def radical_dim(self) -> int:
        return self.radical.dim

    def factored(self, basis: Sequence[Vec]) -> FactoredBasis:
        """The list factored once per frame; equal lists share it."""
        key = tuple(basis)
        factor = self._factors.get(key)
        if factor is None:
            factor = FactoredBasis(key, self.space.dim, self.space.params)
            self._factors[key] = factor
        return factor

    @cached_property
    def full_factor(self) -> FactoredBasis:
        """Tangent basis, then ltr, then normal-screen basis."""
        return self.factored(self.tangent.basis + self.ltr + self.normal_screen.basis)

    @cached_property
    def tangent_factor(self) -> FactoredBasis:
        """Screen basis, then radical basis."""
        return self.factored(self.screen.basis + self.rad_basis)

    @cached_property
    def jacobian_factor(self) -> FactoredBasis:
        """The coordinate tangent vectors, in chart order."""
        return self.factored(self.tangent_jacobian)


def build_frame(
    immersion: PolynomialImmersion,
    point: Sequence[QuadScalar],
    screen_override: Optional[Sequence[Vec]] = None,
    normal_screen_override: Optional[Sequence[Vec]] = None,
) -> AdaptedFrame:
    space = immersion.space
    jac, tangent = immersion.tangent_space(point)
    normal = space.orthogonal_complement(tangent)
    # J has full rank, so J^T c is orthogonal to the tangent space exactly
    # when G c = 0: the radical is the image of the Gram kernel
    gram = space.gram(jac)
    kernel = null_space(gram, len(jac), space.params)
    columns = transpose(jac)
    radical = Subspace(
        tuple(mat_vec(columns, c) for c in kernel), space.dim, space.params
    )
    case = classify_case(tangent.dim, normal.dim, radical.dim)

    screen = choose_screen(space, tangent, radical, screen_override)
    normal_screen = choose_normal_screen(
        space, normal, radical, normal_screen_override
    )
    ltr = construct_ltr(space, radical, screen, normal_screen)

    # paranoid contracts, all cheap at these sizes
    for i, n_i in enumerate(ltr):
        for j, xi in enumerate(radical.basis):
            expected = QuadScalar(1 if i == j else 0, 0, space.params)
            if space.inner(n_i, xi) != expected:
                raise InternalInconsistency("transversal frame lost duality")
        for n_j in ltr:
            if space.inner(n_i, n_j):
                raise InternalInconsistency("transversal frame is not null")
    return AdaptedFrame(
        space=space,
        point=tuple(point),
        tangent_jacobian=jac,
        tangent_gram=gram,
        tangent=tangent,
        normal=normal,
        radical=radical,
        screen=screen,
        normal_screen=normal_screen,
        ltr=ltr,
        case=case,
    )
