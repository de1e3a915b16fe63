"""The n x n slot projectors and the operators composed from them that
lightlike_lab.classifier built before it decided structure-eqs and the
ten criteria in the frame's slot coordinates, kept as test oracles.

reference_projectors gives a ProjectorSet the projector matrices the set
used to carry: each four-slot P_a read off the stacked slot basis, and
the transversal set's P[mapped-screen] composed from an ambient
factorization of the mapped-screen + mu basis and the four-slot
P[normal-screen], with P[mu] the rest of it.  structure_equations
composes its three residual operators from those matrices and J, and
each check in REFERENCE_CHECKS composes its operator the same way and
applies it to the same stacked derivative columns.  The gates, the
column builders, the oracles and the verdict binding are the package's
own; the oracles, _residual_witness and _bind are called through the
classifier module, so a test can wrap them on both sides at once.
test_operator_reference.py holds the slot-coordinate forms to the same
samples, witnesses and raises, and helpers.project, the pair loops and
the projector tests read these matrices.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from lightlike_lab import classifier
from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.classifier import (
    Column,
    CheckEntry,
    PointContext,
    ProjectorSet,
    _antisymmetrised,
    _hessian_columns,
    _pairs,
    _radical_along_coordinates,
)
from lightlike_lab.errors import InternalInconsistency
from lightlike_lab.linalg import (
    FactoredBasis,
    Mat,
    Vec,
    identity,
    is_zero_vec,
    mat_add,
    mat_mul,
    mat_sub,
    mat_vec,
    transpose,
    vec_scale,
)
from lightlike_lab.scalars import QuadScalar


class ReferenceProjectors(NamedTuple):
    """Exact slot projector matrices for one configuration mode at a point."""

    space: SignatureSpace
    bases: Dict[str, Tuple[Vec, ...]]
    matrices: Dict[str, Mat]

    def audit(self) -> List[str]:
        """Each P_a fixes the basis vectors of slot a and kills those of
        every other slot, and the P_a sum to the identity.  The slot
        bases form a basis of the ambient space, so the first check pins
        each P_a exactly, and every idempotence, kernel and complement
        identity between sums of slot projectors follows."""
        problems: List[str] = []
        for a, matrix in self.matrices.items():
            for b, basis in self.bases.items():
                for v in basis:
                    image = mat_vec(matrix, v)
                    if a == b and image != v:
                        problems.append(f"P[{a}] does not fix slot {b}")
                    elif a != b and not is_zero_vec(image):
                        problems.append(f"P[{a}] does not kill slot {b}")
        total = functools.reduce(mat_add, self.matrices.values())
        if total != identity(self.space.dim, self.space.params):
            problems.append("slot projectors do not sum to the identity")
        return problems


def _projector(basis: Sequence[Vec], rows: Mat, n: int, params) -> Mat:
    """sum_i basis[i] rows[i]: FactoredBasis.projector over those basis
    vectors, given their coordinate rows."""
    if not basis:
        return tuple((QuadScalar.zero(params),) * n for _ in range(n))
    return mat_mul(transpose(tuple(basis)), rows)


# id(ProjectorSet) -> (the set, its reference matrices) for the few sets
# read last, since a pair loop projects against one set many times; the
# set is kept so that its id is not reused while the entry lives
_MATRICES: Dict[int, Tuple[ProjectorSet, ReferenceProjectors]] = {}
_KEPT = 8


def reference_projectors(proj: ProjectorSet) -> ReferenceProjectors:
    """The set's bases with the projector matrices it used to carry.

    The first three slots (and the fourth, in the radical-transversal
    set) read their coordinate rows off the set's C^-1, which is the
    frame's slot_factor.  The transversal set composes P[mapped-screen]
    as the ambient projector of its mapped-screen + mu basis onto the
    mapped screen, times the four-slot P[normal-screen], which is the
    identity minus the other three projectors, and P[mu] is the rest of
    P[normal-screen]."""
    hit = _MATRICES.get(id(proj))
    if hit is not None and hit[0] is proj:
        return hit[1]
    space, bases, n = proj.space, proj.bases, proj.space.dim
    params = space.params
    matrices: Dict[str, Mat] = {}
    at = 0
    for label in ("screen", "radical", "transversal", "normal-screen"):
        if label in bases:
            rows = proj.inverse[at : at + len(bases[label])]
            matrices[label] = _projector(bases[label], rows, n, params)
            at += len(bases[label])
    if "mapped-screen" in bases:
        mapped, mu = bases["mapped-screen"], bases["mu"]
        onto = functools.reduce(mat_sub, matrices.values(), identity(n, params))
        factor = FactoredBasis(mapped + mu, n, params)
        p_ms = mat_mul(factor.projector(range(len(mapped))), onto)
        matrices["mapped-screen"] = p_ms
        matrices["mu"] = mat_sub(onto, p_ms)
    out = ReferenceProjectors(space, dict(bases), matrices)
    _MATRICES[id(proj)] = (proj, out)
    if len(_MATRICES) > _KEPT:
        del _MATRICES[next(iter(_MATRICES))]
    return out


def slot(ctx: PointContext, label: str) -> Mat:
    """The four-slot projector onto screen, radical, transversal or
    normal-screen, or onto "tangent", the screen-plus-radical sum."""
    matrices = reference_projectors(ctx.projectors("radical-transversal")).matrices
    if label != "tangent":
        return matrices[label]
    return mat_add(matrices["screen"], matrices["radical"])


def transversal_coefficients(ctx: PointContext) -> Mat:
    """Rows mapping a vector to its coefficients on the null transversal
    frame: the lowered radical basis.  <xi_j, v> is the N_j coefficient
    of v, since xi_j is orthogonal to the tangent space and the normal
    screen and <N_i, xi_j> = delta_ij, which build_frame asserts."""
    return classifier._lowered(ctx.space, ctx.frame.rad_basis)


# ---- structure equation audit ----


def structure_operators(ctx: PointContext, mode: str) -> Tuple[Tuple[str, Mat], ...]:
    """The residual operator of each slot, composed once per point and mode.

    The regrouped split equations are a fixed linear map of each pair's
    second derivative h_ij:

        tangent             T J - T J L - tangent_term
        screen-transversal  S J - screen_term
        null-transversal    L J - J P_radical - L J L

    P_screen, P_radical, L and S are the point's four-slot projectors
    onto the screen, the radical, the null transversal frame and the
    normal screen, and T = P_screen + P_radical projects onto the
    tangent space.  The mode supplies the two terms that depend on where
    J sends the screen.
    """
    T, L, S = slot(ctx, "tangent"), slot(ctx, "transversal"), slot(ctx, "normal-screen")
    J = ctx.structure.matrix
    matrices = reference_projectors(ctx.projectors(mode)).matrices
    TJ, LJ = mat_mul(T, J), mat_mul(L, J)
    j_nabla = mat_mul(J, slot(ctx, "screen"))
    if mode == "radical-transversal":
        # J keeps the screen, hence the normal screen (thm-3.3), so J hs
        # stays in the normal screen
        tangent_term = j_nabla
        screen_term = mat_mul(J, S)
    else:
        # only the screen part of J P_ms hs enters at p = 0; P_ms and
        # P_mu factor through P[normal-screen]
        b_hs = mat_mul(J, matrices["mapped-screen"])
        tangent_term = mat_mul(slot(ctx, "screen"), b_hs)
        screen_term = mat_add(j_nabla, mat_mul(J, matrices["mu"]))
    return (
        ("tangent", mat_sub(mat_sub(TJ, mat_mul(TJ, L)), tangent_term)),
        ("screen-transversal", mat_sub(mat_mul(S, J), screen_term)),
        (
            "null-transversal",
            mat_sub(mat_sub(LJ, mat_mul(J, slot(ctx, "radical"))), mat_mul(LJ, L)),
        ),
    )


def structure_equations(ctx: PointContext, mode: str) -> int:
    """Every slot's operator applied to the stacked Hessian columns; the
    first nonzero column names the first failing pair (j outer, i
    inner), and within it the first nonzero slot is reported."""
    m = len(ctx.chart().coordinates)
    hessian = _hessian_columns(ctx)
    residuals = [
        (label, transpose(mat_mul(op, hessian))) for label, op in structure_operators(ctx, mode)
    ]
    for c in range(m * m):
        for label, columns in residuals:
            if not is_zero_vec(columns[c]):
                raise InternalInconsistency(
                    f"split regrouping failed in the {label} slot at pair ({c % m}, {c // m})"
                )
    return m * m


# ---- criteria as operators composed from the slot projectors ----


def _applied(op: Mat, columns: Sequence[Column]) -> List[Column]:
    """op applied to every stacked column; the nonzero images, in pair order."""
    if not columns:
        return []
    images = transpose(mat_mul(op, transpose(tuple(col for _, col in columns))))
    return [(key, v) for (key, _), v in zip(columns, images) if not is_zero_vec(v)]


def _scaled(c: QuadScalar, a: Mat) -> Mat:
    return tuple(vec_scale(c, row) for row in a)


def _coefficient(ctx: PointContext) -> Tuple[QuadScalar, Mat, Mat]:
    """p, J and J - p I."""
    p = QuadScalar(ctx.params.p, 0, ctx.params)
    J = ctx.structure.matrix
    return p, J, mat_sub(J, _scaled(p, identity(ctx.space.dim, ctx.params)))


REFERENCE_CHECKS: Dict[str, Callable[[PointContext], CheckEntry]] = {}


def _reference(cid: str, mode: str, screen: bool = False):
    """Register a reference check under cid; its body runs behind the
    package's own gate."""

    def register(body: Callable[[PointContext], CheckEntry]):
        REFERENCE_CHECKS[cid] = lambda ctx: classifier._gate(ctx, cid, mode, screen, body)
        return body

    return register


# ---- invariant-screen configuration criteria ----


@_reference("thm-3.5", "radical-transversal")
def check_metric_connection_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Induced connection metric iff no mapped-radical shape operator
    has a screen component: -P_screen J on the radical fields along
    every coordinate field."""
    op = _scaled(-QuadScalar.one(ctx.params), mat_mul(slot(ctx, "screen"), ctx.structure.matrix))
    samples = _applied(op, _radical_along_coordinates(ctx))
    criterion = not samples
    oracle, checked = classifier._metric_oracle(ctx)
    witness: Dict[str, object] = {
        "screen_components": classifier._residual_witness(samples),
        "deviation_triples_checked": checked,
    }
    return classifier._bind("thm-3.5", criterion, oracle, witness)


@_reference("thm-3.6", "radical-transversal", screen=True)
def check_screen_integrability_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution integrable iff the null form is symmetric on
    mapped screen pairs: the transversal coefficients of J on the
    antisymmetrised screen pairs."""
    kit = ctx.kit()
    # the criterion uses the literal structure-composed adapted fields,
    # the same gauge the bracket oracle probes
    op = mat_mul(transversal_coefficients(ctx), ctx.structure.matrix)
    samples = _applied(op, _antisymmetrised(kit.screen_adapted))
    criterion = not samples
    oracle, bad = classifier._component_oracle(
        ctx, kit.screen_adapted, geodesic=False, keep="radical"
    )
    witness: Dict[str, object] = {
        "asymmetry": classifier._residual_witness(samples),
        "bracket_radical_components": classifier._residual_witness(bad),
    }
    return classifier._bind("thm-3.6", criterion, oracle, witness)


@_reference("thm-3.7", "radical-transversal")
def check_radical_integrability_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution integrable iff the mapped-radical shape
    operators are symmetric on radical pairs: T J on the antisymmetrised
    radical pairs."""
    kit = ctx.kit()
    op = mat_mul(slot(ctx, "tangent"), ctx.structure.matrix)
    samples = _applied(op, _antisymmetrised(kit.radical))
    criterion = not samples
    oracle, bad = classifier._component_oracle(ctx, kit.radical, geodesic=False, keep="screen")
    witness: Dict[str, object] = {
        "shape_asymmetry": classifier._residual_witness(samples),
        "bracket_screen_components": classifier._residual_witness(bad),
    }
    return classifier._bind("thm-3.7", criterion, oracle, witness)


@_reference("thm-3.8", "radical-transversal", screen=True)
def check_radical_foliation_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution totally geodesic iff the screen form
    transfers through the structure map with the linear coefficient:
    P_radical (J - p) on the screen fields along the radical ones."""
    kit = ctx.kit()
    _, _, j_minus_p = _coefficient(ctx)
    op = mat_mul(slot(ctx, "radical"), j_minus_p)
    samples = _applied(op, _pairs(kit.radical, kit.screen_adapted))
    criterion = not samples
    oracle, bad = classifier._component_oracle(ctx, kit.radical, geodesic=True, keep="screen")
    witness: Dict[str, object] = {
        "transfer_residuals": classifier._residual_witness(samples),
        "induced_screen_components": classifier._residual_witness(bad),
    }
    return classifier._bind("thm-3.8", criterion, oracle, witness)


@_reference("thm-3.9", "radical-transversal", screen=True)
def check_screen_foliation_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution totally geodesic iff the transferred screen
    and null couplings balance against every transversal image.

    J N_k splits into its transversal part k1 = L J N_k and its tangent
    part k2 = T J N_k, which must be radical.  On the screen pairs the
    balance against N_k is <P_radical (J - p) D, k1> +
    <L (J - p) D, k2>, one row per k.

    The printed form of this criterion groups its terms so that one of
    its two alternatives silently trivializes when the transversal
    images lose their transversal component; the verdict is bound to
    the exact balanced display, and both printed alternatives are
    reported in the witness.
    """
    kit = ctx.kit()
    T, L, radical = slot(ctx, "tangent"), slot(ctx, "transversal"), slot(ctx, "radical")
    _, J, j_minus_p = _coefficient(ctx)
    j_ltr = [ctx.structure.apply(n) for n in ctx.frame.ltr]
    if any(not is_zero_vec(mat_vec(slot(ctx, "screen"), v)) for v in j_ltr):
        raise InternalInconsistency("transversal image acquired a screen component")
    k1 = [mat_vec(L, v) for v in j_ltr]
    k2 = [mat_vec(T, v) for v in j_ltr]
    no_transversal_component = all(is_zero_vec(v) for v in k1)
    lowered = classifier._lowered
    balance = mat_add(mat_mul(lowered(ctx.space, k1), radical), mat_mul(lowered(ctx.space, k2), L))
    # the printed display: P_radical + T J L, both after J - p
    printed = mat_add(radical, mat_mul(mat_mul(T, J), L))
    columns = _pairs(kit.screen_adapted, kit.screen_adapted)
    samples = _applied(mat_mul(balance, j_minus_p), columns)
    criterion = not samples
    oracle, bad = classifier._component_oracle(
        ctx, kit.screen_adapted, geodesic=True, keep="radical"
    )
    printed_first = not _applied(mat_mul(printed, j_minus_p), columns)
    printed_verdict = printed_first or no_transversal_component
    witness: Dict[str, object] = {
        "balanced_residuals": classifier._residual_witness(samples),
        "induced_radical_components": classifier._residual_witness(bad),
        "printed_alternative_balance": printed_first,
        "printed_alternative_no_transversal_component": no_transversal_component,
        "printed_form_matches_verdict": printed_verdict == criterion,
    }
    return classifier._bind("thm-3.9", criterion, oracle, witness)


# ---- mapped-screen configuration criteria ----


@_reference("thm-4.5", "transversal")
def check_radical_integrability_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution integrable iff the normal-screen couplings
    of the mapped radical sections agree on radical pairs: S J on the
    antisymmetrised radical pairs."""
    kit = ctx.kit()
    op = mat_mul(slot(ctx, "normal-screen"), ctx.structure.matrix)
    samples = _applied(op, _antisymmetrised(kit.radical))
    criterion = not samples
    oracle, bad = classifier._component_oracle(ctx, kit.radical, geodesic=False, keep="screen")
    witness: Dict[str, object] = {
        "coupling_asymmetry": classifier._residual_witness(samples),
        "bracket_screen_components": classifier._residual_witness(bad),
    }
    return classifier._bind("thm-4.5", criterion, oracle, witness)


@_reference("thm-4.6", "transversal", screen=True)
def check_screen_integrability_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution integrable iff the null couplings of the
    mapped screen sections agree on screen pairs: the transversal
    coefficients of J on the antisymmetrised screen pairs."""
    kit = ctx.kit()
    op = mat_mul(transversal_coefficients(ctx), ctx.structure.matrix)
    samples = _applied(op, _antisymmetrised(kit.screen_adapted))
    criterion = not samples
    oracle, bad = classifier._component_oracle(
        ctx, kit.screen_adapted, geodesic=False, keep="radical"
    )
    witness: Dict[str, object] = {
        "coupling_asymmetry": classifier._residual_witness(samples),
        "bracket_radical_components": classifier._residual_witness(bad),
    }
    return classifier._bind("thm-4.6", criterion, oracle, witness)


@_reference("thm-4.7", "transversal", screen=True)
def check_screen_foliation_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution totally geodesic iff the mapped-screen split
    balances against every transversal image: on the screen pairs, the
    display (T + L) J - p (P_radical + L) paired with each J N_k.

    The printed form of this criterion carries a sign slip between its
    statement and its own derivation; the verdict is bound to the
    sign-consistent balanced display, and the printed three-part
    conjunction is evaluated and reported in the witness.
    """
    kit = ctx.kit()
    p, J, _ = _coefficient(ctx)
    T, L, radical = slot(ctx, "tangent"), slot(ctx, "transversal"), slot(ctx, "radical")
    display = mat_sub(mat_mul(mat_add(T, L), J), _scaled(p, mat_add(radical, L)))
    j_ltr = [ctx.structure.apply(n) for n in ctx.frame.ltr]
    columns = _pairs(kit.screen_adapted, kit.screen_adapted)
    samples = _applied(mat_mul(classifier._lowered(ctx.space, j_ltr), display), columns)
    criterion = not samples
    oracle, bad = classifier._component_oracle(
        ctx, kit.screen_adapted, geodesic=True, keep="radical"
    )
    # the printed conjunction: L (J + p), P_radical and P_radical J
    # vanish on every screen pair
    conj_coupling = not _applied(mat_add(mat_mul(L, J), _scaled(p, L)), columns)
    conj_screen_form = not _applied(radical, columns)
    conj_shape_clear = not _applied(mat_mul(radical, J), columns)
    printed = conj_coupling and conj_screen_form and conj_shape_clear
    witness: Dict[str, object] = {
        "balanced_residuals": classifier._residual_witness(samples),
        "induced_radical_components": classifier._residual_witness(bad),
        "printed_conjunction": {
            "coupling_matches": conj_coupling,
            "screen_form_vanishes": conj_screen_form,
            "shape_avoids_radical": conj_shape_clear,
        },
        "printed_form_matches_verdict": printed == criterion,
    }
    return classifier._bind("thm-4.7", criterion, oracle, witness)


@_reference("thm-4.8", "transversal", screen=True)
def check_radical_foliation_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution totally geodesic iff the mapped-screen shape
    operators stay out of the radical after the screen-form correction:
    -P_radical (J - p) on the screen fields along the radical ones.

    The printed form of this criterion drops the screen-form correction
    term; the verdict is bound to the corrected display and the printed
    shape-only condition is reported in the witness.
    """
    kit = ctx.kit()
    radical = slot(ctx, "radical")
    _, J, j_minus_p = _coefficient(ctx)
    columns = _pairs(kit.radical, kit.screen_adapted)
    op = _scaled(-QuadScalar.one(ctx.params), mat_mul(radical, j_minus_p))
    samples = _applied(op, columns)
    printed_clear = not _applied(mat_mul(radical, J), columns)
    criterion = not samples
    oracle, bad = classifier._component_oracle(ctx, kit.radical, geodesic=True, keep="screen")
    witness: Dict[str, object] = {
        "corrected_radical_components": classifier._residual_witness(samples),
        "induced_screen_components": classifier._residual_witness(bad),
        "printed_shape_avoids_radical": printed_clear,
        "printed_form_matches_verdict": printed_clear == criterion,
    }
    return classifier._bind("thm-4.8", criterion, oracle, witness)


@_reference("thm-4.9", "transversal")
def check_metric_connection_transversal(ctx: PointContext) -> CheckEntry:
    """Induced connection metric iff the screen components of the mapped
    couplings of the radical images balance: P_screen J S (J - p) on the
    radical fields along every coordinate field.

    The two named projections in the printed statement are only defined
    inside its own derivation; they are realized here as the screen
    components of the two mapped couplings.
    """
    columns = _radical_along_coordinates(ctx)
    _, J, j_minus_p = _coefficient(ctx)
    op = mat_mul(mat_mul(mat_mul(slot(ctx, "screen"), J), slot(ctx, "normal-screen")), j_minus_p)
    samples = _applied(op, columns)
    criterion = not samples
    oracle, checked = classifier._metric_oracle(ctx)
    witness: Dict[str, object] = {
        "coupling_residuals": classifier._residual_witness(samples),
        "deviation_triples_checked": checked,
    }
    return classifier._bind("thm-4.9", criterion, oracle, witness)
