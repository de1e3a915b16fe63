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

Each piece of linear algebra is done once per point, and every span is
worked out on primitive rows over Z, or over Z[sigma] when an input
entry carries sigma (linalg.PrimitiveRows).  Each Jacobian row k is
cleared to U_k = d_k J_k over the lcm d_k of its denominators, and each
declared screen vector likewise.  The cleared Jacobian is eliminated
once, for its rank and its span together, and the normal bundle is read
off its pivots.  The radical is U^T ker G_int for the Gram matrix
G_int = D G D of the cleared rows, D = diag(d_k): J has full rank, so
J^T c is orthogonal to the tangent space exactly when G c = 0, and
ker G_int = D^-1 ker G.  The frame keeps G, entry G_int[i][j] / (d_i
d_j).  Each greedy complement reads one integer Gram matrix of its
bundle's rows: a candidate is tested for independence with one forward
reduction against an elimination kept open, and for nondegeneracy by
the last fraction-free pivot of its bordered Gram block.  Scaling row i
by s_i scales every principal minor by squares of the s_i, so no zero
test moves.  With no radical the complement is the bundle itself, and
otherwise it is the chosen rows of the bundle's reduced rows in pivot
order, which are already the reduced rows of their span.  The frame
keeps these rows as its span fields, all over the one ring, and each
field's canonical basis is made on first use, each reduced row divided
by its pivot entry, with no further elimination.  Only the transversal
frame's pairing with the radical, and the nulling after it, run on
Q(sigma) values.  Still asserted on every frame: the complements are
nondegenerate, the transversal frame is null and dual to the radical
basis.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .ambient import SignatureSpace
from .errors import (
    ImmersionRankDrop,
    InternalInconsistency,
    LtrConstructionFailed,
    NotInSpan,
    ScreenInvalid,
    ShapeError,
    ValidationError,
)
from .linalg import (
    FactoredBasis,
    Mat,
    PrimitiveRows,
    RowElimination,
    RowRing,
    Vec,
    factor_system,
    lin_comb,
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

    def _tangent_rows(
        self, point: Sequence[QuadScalar], *declared: Sequence[Vec]
    ) -> Tuple[Tuple[Vec, ...], RowRing, list, list, PrimitiveRows]:
        """The coordinate tangent vectors at the point, the ring that they
        and the declared vectors clear into, each vector cleared to a
        ring row, the denominator each was cleared over, and the reduced
        span: one elimination, full rank or a raise."""
        if len(point) != self.chart_dim:
            raise ShapeError("point length does not match chart dimension")
        frame = tuple(
            tuple(d.eval(point) for d in row) for row in self.jacobian_polys
        )
        ring = RowRing.over(self.space.params, frame, *declared)
        cleared = [ring.clear(v) for v in frame]
        rows = [row for row, _ in cleared]
        tangent = PrimitiveRows.span(ring, rows, self.space.dim)
        if tangent.dim != self.chart_dim:
            pretty = ", ".join(str(x) for x in point)
            raise ImmersionRankDrop(f"Jacobian rank drop at ({pretty})")
        return frame, ring, rows, [d for _, d in cleared], tangent

    def tangent_frame(self, point: Sequence[QuadScalar]) -> Tuple[Vec, ...]:
        """Coordinate tangent vectors at the point; full rank or a raise."""
        return self._tangent_rows(point)[0]

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


def _greedy_rows(
    ring: RowRing, eps: Sequence[int], whole: PrimitiveRows, sub: PrimitiveRows
) -> PrimitiveRows:
    """Complement of sub inside whole from whole's reduced rows.

    First pass keeps the partial Gram matrix nondegenerate while
    growing; a second pass fills any remaining slots on independence
    alone.  The final complement is nondegenerate regardless (a vector
    of whole orthogonal to both sub and the complement sits in the
    radical of whole, which is contained in sub), and that is asserted.

    Every nondegeneracy decision reads the one Gram matrix G of whole's
    rows.  Row i is s_i times canonical row i, so each principal minor
    of G is that of the canonical Gram matrix times the squares of its
    s_i, and no zero test moves.  The chosen vectors' block of G is
    kept in Bareiss form, one eliminated row per accepted vector, and a
    candidate is accepted when the last pivot of its bordered block, the
    determinant of that block, is nonzero.  Each division is exact in the
    ring, and symmetry gives the candidate's column from its own row.
    Independence is one forward reduction of the candidate against an
    elimination of sub plus the vectors chosen so far, kept open across
    candidates.  When sub is zero the complement is whole itself.  The
    chosen rows of whole's reduced rows, in pivot order, are already the
    reduced rows of their span, so the result is not eliminated again.
    """
    if not all(whole.contains(v) for v in sub.rows):
        raise ShapeError("sub is not inside whole")
    basis = whole.rows
    gram = ring.gram(eps, basis)
    if not sub.dim:
        if basis and not ring.nonsingular(gram):
            raise InternalInconsistency("complement of the radical came out degenerate")
        return whole
    target = whole.dim - sub.dim
    quotient = ring.quotient
    chosen: list = []  # indices into whole.rows
    # eliminated[t]: chosen vector t's row of the block after t Bareiss
    # steps; entry t is its pivot, the leading minor of order t + 1
    eliminated: list = []
    elimination = RowElimination(sub)
    for k, v in enumerate(basis):
        if len(chosen) == target:
            break
        residual = elimination.reduce(v)
        if not any(residual):
            continue
        g_k = gram[k]
        x = [g_k[i] for i in chosen]
        x.append(g_k[k])
        s = len(chosen)
        prev = ring.one
        for t, row_t in enumerate(eliminated):
            pivot, x_t = row_t[t], x[t]
            for j in range(t + 1, s):
                x[j] = quotient(pivot * x[j] - x_t * eliminated[j][t], prev)
            x[s] = quotient(pivot * x[s] - x_t * x_t, prev)
            prev = pivot
        if x[s]:
            eliminated.append(x)
            elimination.keep(residual)
            chosen.append(k)
    if len(chosen) < target:
        for k, v in enumerate(basis):
            if len(chosen) == target:
                break
            if elimination.extend(v):
                chosen.append(k)
    if len(chosen) != target:
        raise InternalInconsistency("greedy complement failed to reach full size")
    # nondegeneracy does not depend on the basis, so the chosen vectors'
    # block of G answers for the canonical basis of their span
    if chosen and not ring.nonsingular([[gram[i][j] for j in chosen] for i in chosen]):
        raise InternalInconsistency("complement of the radical came out degenerate")
    return whole.pick(chosen)


def _override_rows(
    ring: RowRing,
    eps: Sequence[int],
    whole: PrimitiveRows,
    sub: PrimitiveRows,
    override: Sequence[Vec],
    label: str,
) -> PrimitiveRows:
    """A declared screen, checked to be a nondegenerate complement of sub
    inside whole."""
    rows = []
    for v in override:
        if len(v) != whole.width:
            raise ScreenInvalid(f"{label}: vector length does not match ambient")
        row = ring.clear(v)[0]
        if not whole.contains(row):
            raise ScreenInvalid(f"{label}: vector outside the bundle it must refine")
        rows.append(row)
    candidate = PrimitiveRows.span(ring, rows, whole.width)
    if candidate.dim != len(rows):
        raise ScreenInvalid(f"{label}: spanning vectors are dependent")
    if len(rows) != whole.dim - sub.dim:
        raise ScreenInvalid(f"{label}: got {len(rows)} vectors, need {whole.dim - sub.dim}")
    elimination = RowElimination(sub)
    if not all(elimination.extend(v) for v in candidate.rows):
        raise ScreenInvalid(f"{label}: does not complement the radical")
    if candidate.dim and not ring.nonsingular(ring.gram(eps, candidate.rows)):
        raise ScreenInvalid(f"{label}: induced metric on the override is degenerate")
    return candidate


def _screen_rows(
    ring: RowRing,
    eps: Sequence[int],
    whole: PrimitiveRows,
    sub: PrimitiveRows,
    override: Optional[Sequence[Vec]],
    label: str,
) -> PrimitiveRows:
    if override is not None:
        return _override_rows(ring, eps, whole, sub, override, label)
    return _greedy_rows(ring, eps, whole, sub)


def construct_ltr(
    space: SignatureSpace,
    radical: PrimitiveRows,
    screen: PrimitiveRows,
    normal_screen: PrimitiveRows,
) -> Tuple[Vec, ...]:
    """Null transversal frame N_i dual to the radical's canonical basis.

    The N_i satisfy <N_i, xi_j> = delta_ij, <N_i, N_j> = 0 and are
    orthogonal to both screens.  Construction: inside the orthogonal
    space of the two screens, take any complement of the radical, factor
    its r x r pairing with the radical once (factor_system, whose
    coordinate map of all r columns is the inverse pairing), map the
    complement through it to dual vectors, then strip quadratic
    self-terms.  The three spans are primitive rows of one ring, and the
    orthogonal space is worked out over them; only the r chosen
    canonical vectors of it enter Q(sigma) arithmetic.
    """
    r = radical.dim
    if r == 0:
        return ()
    rad_basis = radical.basis
    params = space.params
    both = PrimitiveRows.span(radical.ring, screen.rows + normal_screen.rows, space.dim)
    lam = both.complement(space.eps)
    if lam.dim != 2 * r:
        raise LtrConstructionFailed(
            f"orthogonal space of the screens has dimension {lam.dim}, expected {2 * r}"
        )
    if not all(lam.contains(v) for v in radical.rows):
        raise LtrConstructionFailed("radical escaped the orthogonal space of the screens")

    picked: list = []
    elimination = RowElimination(radical)
    for k, v in enumerate(lam.rows):
        if len(picked) == r:
            break
        if elimination.extend(v):
            picked.append(k)
    if len(picked) != r:
        raise LtrConstructionFailed("no complement of the radical inside the pairing space")
    chosen = lam.pick(picked).basis

    pairing = tuple(
        tuple(space.inner(v, xi) for xi in rad_basis) for v in chosen
    )
    system = factor_system(pairing, params)
    if system.rank < r:
        raise LtrConstructionFailed("pairing matrix against the radical is singular")
    # dual vectors: <tilde_i, xi_j> = delta_ij
    tilde = [lin_comb(row, chosen) for row in system.coordinate_map(range(r))]
    # subtract half the mutual inner products along the radical to null them
    half = QuadScalar(Fraction(1, 2), 0, params)
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
    tangent: PrimitiveRows
    normal: PrimitiveRows
    radical: PrimitiveRows
    screen: PrimitiveRows
    normal_screen: PrimitiveRows
    ltr: Tuple[Vec, ...]
    case: CaseKind


# The slot order of slot_factor: S(TM), Rad TM, ltr(TM), S(TM^perp)
FOUR_SLOTS = ("screen", "radical", "transversal", "normal-screen")


class AdaptedFrame(_FrameFields):
    """Everything the pointwise checks need, all exact.

    tangent_jacobian keeps the coordinate order of the chart.  The span
    fields are the primitive rows build_frame reduced, all over one
    ring, and each makes its canonical basis on first use.  tangent_gram
    is the Gram matrix of tangent_jacobian, which the radical was read
    from.  ltr[i] pairs with rad_basis[i], the radical's canonical basis.

    The screen, radical, ltr and normal-screen bases, stacked in
    FOUR_SLOTS order, form a basis of the ambient space, and slot_factor
    is its one factorization: every split of an ambient or tangent
    vector, and every slot the checks read, takes coordinates against it
    in the slot's range of slot_ranges.  jacobian_factor is the only other
    basis the frame factors.  Both are factored on first use and kept
    for the life of the frame; build_frame factors neither, only the
    r x r pairing of construct_ltr.
    """

    @property
    def rad_basis(self) -> Tuple[Vec, ...]:
        return self.radical.basis

    @property
    def radical_dim(self) -> int:
        return self.radical.dim

    @cached_property
    def slot_bases(self) -> Dict[str, Tuple[Vec, ...]]:
        """Each slot's basis, keyed in FOUR_SLOTS order."""
        bases = {"screen": self.screen.basis, "radical": self.rad_basis, "transversal": self.ltr}
        bases["normal-screen"] = self.normal_screen.basis
        return {a: bases[a] for a in FOUR_SLOTS}

    @cached_property
    def slot_factor(self) -> FactoredBasis:
        """The four slot bases stacked in FOUR_SLOTS order, factored once."""
        basis = tuple(v for b in self.slot_bases.values() for v in b)
        return FactoredBasis(basis, self.space.dim, self.space.params)

    @cached_property
    def slot_ranges(self) -> Dict[str, range]:
        """Each slot's coordinates in slot_factor, and "tangent" (screen + radical)."""
        ends = tuple(accumulate(map(len, self.slot_bases.values()), initial=0))
        ranges = {a: range(s, e) for a, s, e in zip(FOUR_SLOTS, ends, ends[1:])}
        ranges["tangent"] = range(ends[2])
        return ranges

    def slot_coords(self, v: Vec) -> Vec:
        """Coordinates of v against slot_factor's basis."""
        try:
            return self.slot_factor.coords(v)
        except NotInSpan as exc:
            raise InternalInconsistency("adapted frame failed to span the ambient space") from exc

    @cached_property
    def jacobian_factor(self) -> FactoredBasis:
        """The coordinate tangent vectors, in chart order."""
        return FactoredBasis(self.tangent_jacobian, self.space.dim, self.space.params)


def build_frame(
    immersion: PolynomialImmersion,
    point: Sequence[QuadScalar],
    screen_override: Optional[Sequence[Vec]] = None,
    normal_screen_override: Optional[Sequence[Vec]] = None,
) -> AdaptedFrame:
    space = immersion.space
    eps = space.eps
    if screen_override is not None:
        screen_override = tuple(screen_override)
    if normal_screen_override is not None:
        normal_screen_override = tuple(normal_screen_override)
    jac, ring, rows, dens, tangent = immersion._tangent_rows(
        point, screen_override or (), normal_screen_override or ()
    )
    normal = tangent.complement(eps)
    # row k of U is d_k times Jacobian row k, so U's Gram matrix is D G D
    # for D = diag(d_k) and its kernel is D^-1 ker G.  J has full rank,
    # so J^T c is orthogonal to the tangent space exactly when G c = 0:
    # the radical is the image U^T ker(D G D) = J^T ker G
    gram = ring.gram(eps, rows)
    radical = ring.kernel_image(gram, rows, space.dim)
    tangent_gram = [[None] * len(rows) for _ in rows]
    for i, d_i in enumerate(dens):
        for j in range(i, len(dens)):
            tangent_gram[i][j] = tangent_gram[j][i] = ring.ratio(gram[i][j], d_i * dens[j])
    screen = _screen_rows(ring, eps, tangent, radical, screen_override, "screen")
    normal_screen = _screen_rows(
        ring, eps, normal, radical, normal_screen_override, "normal screen"
    )
    case = classify_case(tangent.dim, normal.dim, radical.dim)
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
        tangent_gram=tuple(tuple(row) for row in tangent_gram),
        tangent=tangent,
        normal=normal,
        radical=radical,
        screen=screen,
        normal_screen=normal_screen,
        ltr=ltr,
        case=case,
    )
