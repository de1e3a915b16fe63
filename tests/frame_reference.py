"""The QuadScalar frame build that the primitive-row build in
lightlike_lab.submanifold replaced, kept as a test oracle.

Every span here is a Subspace over Q(sigma): the Jacobian and the
screens are eliminated with rref, the radical is J^T ker G from a
QuadScalar null_space of the tangent Gram matrix, each greedy complement
reads SignatureSpace.gram and decides nondegeneracy by a Schur pivot
against an L D L^T factor, and each declared screen is checked with det.
test_frame_reference.py holds the integer build to the same frame, field
for field and triple for triple, and to the same raises.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.errors import (
    ImmersionRankDrop,
    InternalInconsistency,
    LtrConstructionFailed,
    ScreenInvalid,
    ShapeError,
)
from lightlike_lab.linalg import (
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
from lightlike_lab.scalars import QuadScalar
from lightlike_lab.submanifold import AdaptedFrame, PolynomialImmersion, classify_case

from helpers import OpenElimination, Subspace, orthogonal_complement, subspace_sum


def tangent_space(
    immersion: PolynomialImmersion, point: Sequence[QuadScalar]
) -> Tuple[Tuple[Vec, ...], Subspace]:
    """Coordinate tangent vectors at the point and their span, from
    one elimination; full rank or a raise."""
    if len(point) != immersion.chart_dim:
        raise ShapeError("point length does not match chart dimension")
    frame = tuple(
        tuple(d.eval(point) for d in row) for row in immersion.jacobian_polys
    )
    tangent = Subspace(frame, immersion.space.dim, immersion.space.params)
    if tangent.dim != immersion.chart_dim:
        pretty = ", ".join(str(x) for x in point)
        raise ImmersionRankDrop(f"Jacobian rank drop at ({pretty})")
    return frame, tangent


def _span_of_rows(whole: Subspace, indices) -> Subspace:
    """The span of the basis rows at the given indices.

    Each basis row is 1 at its own pivot and 0 at every other pivot,
    so any of the rows, kept in pivot order, are already the
    canonical basis of their span and nothing is eliminated.
    """
    picked = sorted(indices)
    out = object.__new__(Subspace)
    out.ambient_dim = whole.ambient_dim
    out.params = whole.params
    out.basis = tuple(whole.basis[i] for i in picked)
    out.pivots = tuple(whole.pivots[i] for i in picked)
    return out


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
    return _span_of_rows(whole, chosen)


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
    lam = orthogonal_complement(space, subspace_sum(screen, normal_screen))
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


def build_frame(
    immersion: PolynomialImmersion,
    point: Sequence[QuadScalar],
    screen_override: Optional[Sequence[Vec]] = None,
    normal_screen_override: Optional[Sequence[Vec]] = None,
) -> AdaptedFrame:
    space = immersion.space
    jac, tangent = tangent_space(immersion, point)
    normal = orthogonal_complement(space, tangent)
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
