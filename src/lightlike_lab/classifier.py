"""Configuration predicates, criterion checks, and their oracles.

Each check inspects one pointwise statement about an immersed lightlike
submanifold carrying a structure endomorphism: whether the radical and
screen bundles are arranged one way or the other, whether a named
two-sided criterion holds, and whether the independent oracle for that
criterion agrees.  Verdicts are three-valued: HOLDS, FAILS, or
NOT_APPLICABLE when the hypothesis of the statement is not met at the
point.  A criterion and its oracle disagreeing is never a verdict; it
raises InternalInconsistency, because the two sides are theorems of
each other and disagreement means a bug.

Field conventions: every derivative-based quantity is evaluated on the
coherent field kit, with structure-image sections realized literally as
the structure matrix composed with a kit field.  That composition is
what makes the criterion-to-oracle equivalences exact identities at the
point rather than statements about an ambient neighborhood.  J is
constant, so D(X, J V) = J D(X, V), and no composed section is built:
each criterion is one residual operator, composed from the point's slot
projectors, applied to the stacked derivative columns D(X_a, V_b) of
its pair domain.  The oracles stay per-vector, splitting one bracket or
induced derivative at a time by its coordinates against the frame's
slot_factor, and read no slot projector.  That factorization is shared
with the criteria, so a fault in it reaches both sides alike; the
tests hold it to separately eliminated splits (_factored_splits).

Both configurations split the ambient space into the same four slots
(screen, radical, null transversal, and the normal screen), whose
stacked bases the frame factors once per point (slot_factor): the slot
projectors (ProjectorSet) and both configuration predicates read their
coordinates.  They differ only in where the structure map sends the
screen: onto itself in the radical-transversal mode, into the normal
screen in the transversal mode, whose set splits the normal-screen slot
into the mapped screen and its complement mu.  The four-slot set exists
at every lightlike point; the criteria and structure-eqs read it.

REFERENCES is the one list of check identifiers and the screen-target
table the one list of configuration names.  @_point_check registers
each point check with its hypothesis, and _gate decides every
NOT_APPLICABLE: a valid structure, a lightlike point, the mode's
predicate and, for the six criteria over screen pairs, a built kit,
past which a screenless point holds vacuously.
"""

from __future__ import annotations

import copy
import functools
import math
import random
import threading
from collections import OrderedDict
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .ambient import (
    MetallicStructure,
    SignatureSpace,
    validate_compatibility,
    validate_metallic,
)
from .errors import InsufficientScene, InternalInconsistency, NotLightlike
from .geometry import (
    AmbientJet,
    ChartJet,
    FieldKit,
    TangentJet,
    build_field_kit,
    chart_jet,
    derive,
    gauss_split,
    lie_bracket,
    split_tangent,
)
from .linalg import (
    FactoredBasis,
    Mat,
    PrimitiveRows,
    RowRing,
    Vec,
    identity,
    is_zero_vec,
    mat_add,
    mat_mul,
    mat_sub,
    mat_vec,
    rank,
    transpose,
    vec_scale,
    vec_sub,
)
from .scalars import MetallicParams, QuadScalar
from .submanifold import PolynomialImmersion, build_frame


class Verdict(str, Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    NOT_APPLICABLE = "NOT_APPLICABLE"


class CheckEntry(NamedTuple):
    """One reported check: name, verdict, descriptor, exact witness data."""

    name: str
    verdict: Verdict
    reference: str
    witness: Mapping[str, object]


# The one list of check identifiers: its key order is the canonical
# execution order, CHECK_ORDER.  The descriptor says what the check
# does; reports embed it next to each verdict.
REFERENCES: Dict[str, str] = {
    "metallic-validate": "structure endomorphism satisfies its defining quadratic relation",
    "compat-validate": "structure endomorphism is self-adjoint for the ambient form",
    "frame": "adapted frame construction and comparison against declared data",
    "def-3.1": "radical maps onto the null transversal frame and the screen is invariant",
    "thm-3.3": "normal screen is invariant under the structure map (consequence audit)",
    "def-4.1": "radical maps onto the null transversal frame and the screen maps into the normal screen",
    "prop-4.2": "complement of the mapped screen inside the normal screen is invariant (consequence audit)",
    "structure-eqs": "slot-by-slot reassembly of the structure-composed derivative splits",
    "thm-3.5": "induced connection is metric iff the null shape operators have no screen component",
    "thm-3.6": "screen distribution is integrable iff the null form is symmetric on mapped screen pairs",
    "thm-3.7": "radical distribution is integrable iff the mapped-radical shape operators are symmetric",
    "thm-3.8": "radical distribution is totally geodesic iff the screen form transfers through the structure map",
    "thm-3.9": "screen distribution is totally geodesic iff the transferred screen and null couplings balance",
    "thm-4.5": "radical distribution is integrable iff the normal-screen couplings of the mapped radical agree",
    "thm-4.6": "screen distribution is integrable iff the null couplings of the mapped screen agree",
    "thm-4.7": "screen distribution is totally geodesic iff the mapped-screen split balances",
    "thm-4.8": "radical distribution is totally geodesic iff the mapped-screen shape operators avoid the radical",
    "thm-4.9": "induced connection is metric iff the mapped radical couplings balance on the screen",
    "audit-nonexistence": "no single null direction can carry the whole radical-to-transversal mapping",
}

CHECK_ORDER: Tuple[str, ...] = tuple(REFERENCES)

_WITNESS_CAP = 6


def _sv(v: Sequence[QuadScalar]) -> List[str]:
    return [str(x) for x in v]


def _smat(rows: Sequence[Sequence[QuadScalar]]) -> List[List[str]]:
    return [[str(x) for x in row] for row in rows]


def _residual_witness(samples: List[Tuple[List[int], Sequence[QuadScalar]]]) -> Dict[str, object]:
    """Nonzero residual samples, capped so witnesses stay readable."""
    shown = [
        {"at": list(at), "value": _sv(value)} for at, value in samples[:_WITNESS_CAP]
    ]
    return {
        "nonzero_count": len(samples),
        "samples": shown,
        "truncated": len(samples) > _WITNESS_CAP,
    }


# ---- slot projections ----


# mode -> (slot the screen images must lie in, witness key);
# its key order is the one list of configuration names, CONFIGURATIONS.
# structure-eqs tries the modes in this order, so a point in both
# configurations is audited in the radical-transversal mode
_SCREEN_TARGETS = {
    "radical-transversal": ("screen", "screen_invariant"),
    "transversal": ("normal-screen", "screen_maps_into_normal_screen"),
}
CONFIGURATIONS: Tuple[str, ...] = tuple(_SCREEN_TARGETS)
_NO_DECOMPOSITION = "slot bases do not decompose the ambient space"


class ProjectorSet(NamedTuple):
    """Exact slot projectors for one configuration mode at a point.

    The slot bases together form a basis of the ambient space, so every
    vector splits uniquely into one component per slot.  The four-slot
    set reads its matrices off the frame's slot_factor, each over its
    slot's coordinate range, and factors nothing of its own.  The
    transversal set shares the first three and splits the fourth: it
    factors only the mapped-screen + mu basis of the normal screen, and
    P[mu] = P[normal-screen] - P[mapped-screen].  audit() checks every
    matrix against the slot bases instead of trusting construction.
    """

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


# ---- per-point shared state ----


class PointContext:
    """Frame, lazy chart jet and kit, lazy predicates and slot
    projectors at one point."""

    def __init__(
        self,
        immersion: PolynomialImmersion,
        structure: MetallicStructure,
        point: Sequence[QuadScalar],
        screen_override: Optional[Sequence[Vec]] = None,
        normal_screen_override: Optional[Sequence[Vec]] = None,
    ) -> None:
        if immersion.space is not structure.space and immersion.space != structure.space:
            raise InternalInconsistency("immersion and structure live in different spaces")
        self.immersion = immersion
        self.structure = structure
        self.frame = build_frame(immersion, point, screen_override, normal_screen_override)
        self._chart: Optional[ChartJet] = None
        self._kit: Optional[FieldKit] = None
        self._valid: Optional[bool] = None
        self._config: Dict[str, Tuple[bool, Dict[str, object]]] = {}
        self._radical: Optional[Tuple[bool, Tuple[Vec, ...]]] = None
        self._mu: Optional[PrimitiveRows] = None
        self._proj: Dict[str, ProjectorSet] = {}
        self._tangent: Optional[Mat] = None

    @property
    def space(self):
        return self.immersion.space

    @property
    def params(self) -> MetallicParams:
        return self.space.params

    def chart(self) -> ChartJet:
        if self._chart is None:
            self._chart = chart_jet(self.immersion, self.frame)
        return self._chart

    def kit(self) -> FieldKit:
        if self._kit is None:
            self._kit = build_field_kit(self.chart(), self.frame)
        return self._kit

    def structure_valid(self) -> bool:
        if self._valid is None:
            ok, _ = self.structure.validate()
            self._valid = ok
        return self._valid

    def _require_lightlike(self) -> None:
        if self.frame.radical_dim == 0:
            raise NotLightlike("induced metric is nondegenerate at this point")

    def mapped_radical(self) -> Tuple[Vec, ...]:
        return tuple(self.structure.apply(xi) for xi in self.frame.rad_basis)

    def mapped_screen(self) -> Tuple[Vec, ...]:
        return tuple(self.structure.apply(s) for s in self.frame.screen.basis)

    def _independent_in(self, images: Sequence[Vec], label: str) -> bool:
        """Whether images lie in slot label and are independent: no slot
        coordinate outside it, and a full-row-rank block inside it."""
        at = self.frame.slot_ranges[label]
        coords = [self.frame.slot_coords(v) for v in images]
        if any(any(c[: at.start]) or any(c[at.stop :]) for c in coords):
            return False
        return rank(tuple(c[at.start : at.stop] for c in coords)) == len(images)

    def _radical_clause(self) -> Tuple[bool, Tuple[Vec, ...]]:
        # Structure images of the radical basis, tested for spanning the
        # null transversal complement exactly: r independent vectors in
        # the r-dimensional transversal slot.  When they do, every image
        # pairs to zero with every transversal vector, so self-adjointness
        # strips the transversal component from the N images and the
        # quadratic relation forces p times the (invertible) transfer
        # matrix to vanish.  The configuration therefore only exists at
        # p = 0; seeing it at p >= 1 means the frame construction or the
        # structure validators are broken.  Both modes share the result;
        # a raise is not kept, so each mode raises again.
        if self._radical is not None:
            return self._radical
        j_rad = self.mapped_radical()
        radical_clause = self._independent_in(j_rad, "transversal")
        if radical_clause and self.params.p >= 1 and self.structure_valid():
            raise InternalInconsistency(
                "radical directions map onto the null transversal span, which the"
                " trace obstruction rules out for p >= 1"
            )
        self._radical = (radical_clause, j_rad)
        return self._radical

    def configuration(self, mode: str) -> Tuple[bool, Dict[str, object]]:
        """Radical maps onto the transversal span, and the screen maps
        into itself (radical-transversal) or into the normal screen
        (transversal).  An internal error raised here names the mode."""
        if mode in self._config:
            return self._config[mode]
        if mode not in _SCREEN_TARGETS:
            raise InternalInconsistency(f"unknown configuration mode {mode!r}", mode=mode)
        target, key = _SCREEN_TARGETS[mode]
        self._require_lightlike()
        try:
            radical_clause, j_rad = self._radical_clause()
            j_scr = self.mapped_screen()
            screen_clause = self._independent_in(j_scr, target)
        except InternalInconsistency as exc:
            if exc.mode is None:
                exc.mode = mode
            raise
        witness: Dict[str, object] = {
            "radical_images": _smat(j_rad),
            "radical_images_span_transversal": radical_clause,
            "screen_images": _smat(j_scr),
            key: screen_clause,
        }
        self._config[mode] = (radical_clause and screen_clause, witness)
        return self._config[mode]

    def mu_subspace(self) -> PrimitiveRows:
        """Orthogonal complement of the mapped screen inside the normal
        screen: N^T ker <J_a, N_b> over primitive rows J_a, N_b of one ring."""
        if self._mu is None:
            n, j_scr, normal = self.space.dim, self.mapped_screen(), self.frame.normal_screen
            ring = RowRing.over(self.params, j_scr, normal.basis)
            mapped = PrimitiveRows.span(ring, [ring.clear(v)[0] for v in j_scr], n)
            rows = [ring.clear(v)[0] for v in normal.basis]
            mu = ring.kernel_image(ring.gram(self.space.eps, mapped.rows, rows), rows, n)
            if mapped.dim + mu.dim != normal.dim:
                raise InternalInconsistency(
                    "mapped screen and its complement do not fill the normal screen"
                )
            self._mu = mu
        return self._mu

    def slot(self, label: str) -> Mat:
        """The four-slot projector onto screen, radical, transversal or
        normal-screen, or onto "tangent", the screen-plus-radical sum.
        The radical-transversal mode's set is the four-slot set; it
        decomposes the ambient space at every lightlike point, in either
        configuration or neither."""
        matrices = self.projectors("radical-transversal").matrices
        if label != "tangent":
            return matrices[label]
        if self._tangent is None:
            self._tangent = mat_add(matrices["screen"], matrices["radical"])
        return self._tangent

    def projectors(self, mode: str) -> ProjectorSet:
        if mode in self._proj:
            return self._proj[mode]
        frame = self.frame
        if mode == "radical-transversal":
            factor = frame.slot_factor
            # a basis of the ambient space: independent and spanning
            if not len(factor.basis) == factor.rank == self.space.dim:
                raise InternalInconsistency(_NO_DECOMPOSITION, mode=mode)
            bases = dict(frame.slot_bases)
            matrices = {a: factor.projector(frame.slot_ranges[a]) for a in bases}
        elif mode == "transversal":
            # the normal-screen slot split in two: only J(screen) + mu is
            # factored, and it must be a basis of the normal screen
            normal, mapped, mu = frame.normal_screen, self.mapped_screen(), self.mu_subspace().basis
            factor = FactoredBasis(mapped + mu, self.space.dim, self.params)
            inside = all(map(normal.contains, mapped))
            if not (inside and len(factor.basis) == factor.rank == normal.dim):
                raise InternalInconsistency(_NO_DECOMPOSITION, mode=mode)
            four = self.projectors("radical-transversal")
            onto = four.matrices["normal-screen"]
            p_ms = mat_mul(factor.projector(range(len(mapped))), onto)
            bases = {**four.bases, "mapped-screen": mapped, "mu": mu}
            matrices = {**four.matrices, "mapped-screen": p_ms, "mu": mat_sub(onto, p_ms)}
            del bases["normal-screen"], matrices["normal-screen"]
        else:
            raise InternalInconsistency(f"unknown projection mode {mode!r}", mode=mode)
        self._proj[mode] = ProjectorSet(self.space, bases, matrices)
        return self._proj[mode]


# ---- structure validators as checks ----


def _validator_entry(name: str, ok: bool, defects) -> CheckEntry:
    witness = {
        "defects": [d.message() for d in defects[:_WITNESS_CAP]],
        "defect_count": len(defects),
        "truncated": len(defects) > _WITNESS_CAP,
    }
    return CheckEntry(name, Verdict.HOLDS if ok else Verdict.FAILS, REFERENCES[name], witness)


def check_structure_quadratic(structure: MetallicStructure) -> CheckEntry:
    ok, defects = validate_metallic(structure.matrix, structure.space.params)
    return _validator_entry("metallic-validate", ok, defects)


def check_structure_compat(structure: MetallicStructure) -> CheckEntry:
    ok, defects = validate_compatibility(structure.space, structure.matrix)
    return _validator_entry("compat-validate", ok, defects)


# ---- frame reporting ----


def check_frame(
    ctx: PointContext,
    declared_radical_dim: Optional[int] = None,
    declared_radical: Sequence[Vec] = (),
) -> Tuple[CheckEntry, Tuple[str, ...]]:
    """Report the computed frame and compare any declared radical data.

    Mismatches between declared and computed data become notices, not
    failures: the scene is telling us what it expected, and the report
    records the exact disagreement.
    """
    frame = ctx.frame
    space = ctx.space
    gram = frame.tangent_gram
    notices: List[str] = []
    witness: Dict[str, object] = {
        "case": frame.case.value,
        "radical_dim": frame.radical_dim,
        "screen_dim": frame.screen.dim,
        "normal_screen_dim": frame.normal_screen.dim,
        "tangent_gram": _smat(gram),
        "radical_basis": _smat(frame.rad_basis),
        "transversal_frame": _smat(frame.ltr),
    }
    if declared_radical_dim is not None and declared_radical_dim != frame.radical_dim:
        notices.append(
            f"declared radical dimension {declared_radical_dim} "
            f"but the computed radical has dimension {frame.radical_dim}"
        )
    declared_rows: List[Dict[str, object]] = []
    for k, vec in enumerate(declared_radical):
        pairings = [space.inner(vec, w) for w in frame.tangent_jacobian]
        in_tangent = frame.tangent.contains(vec)
        in_radical = frame.radical.contains(vec)
        declared_rows.append(
            {
                "vector": _sv(vec),
                "tangent_member": in_tangent,
                "radical_member": in_radical,
                "tangent_pairings": _sv(pairings),
                "self_pairing": str(space.inner(vec, vec)),
            }
        )
        if not in_radical:
            nonzero = [str(p) for p in pairings if p != QuadScalar.zero(ctx.params)]
            notices.append(
                f"declared radical vector {k} is not in the computed radical; "
                f"nonzero tangent pairings: {', '.join(nonzero) if nonzero else 'none'}"
            )
    if declared_rows:
        witness["declared_radical"] = declared_rows
    entry = CheckEntry("frame", Verdict.HOLDS, REFERENCES["frame"], witness)
    return entry, tuple(notices)


# ---- the hypothesis gate ----


# The mode of structure-eqs, which needs the point in some configuration
# and audits it in the first one that holds
EITHER_CONFIGURATION = "either"


def _not_applicable(name: str, reason: str) -> CheckEntry:
    return CheckEntry(name, Verdict.NOT_APPLICABLE, REFERENCES[name], {"reason": reason})


def _gate(
    ctx: PointContext,
    name: str,
    mode: Optional[str],
    screen: bool = False,
    body: Optional[Callable[[PointContext], CheckEntry]] = None,
) -> Optional[CheckEntry]:
    """The hypothesis of a point check, then its body, if given.

    The hypothesis is a valid structure, a lightlike point and the
    mode's predicate: none for mode=None, some configuration for
    EITHER_CONFIGURATION.  A screen criterion (screen=True) then builds
    its kit, so a scene that cannot supply it stays NOT_APPLICABLE, and
    holds vacuously at a point with no screen.  A nondegenerate metric
    or missing scene data, met here or in the body, is NOT_APPLICABLE
    with the reason.  Past the hypothesis, the body's entry is
    returned, or None without a body.
    """
    try:
        if not ctx.structure_valid():
            return _not_applicable(name, "structure endomorphism fails its validators")
        if mode == EITHER_CONFIGURATION:
            if not any(ctx.configuration(m)[0] for m in CONFIGURATIONS):
                return _not_applicable(name, "point is in neither named configuration")
        elif mode is not None and not ctx.configuration(mode)[0]:
            return _not_applicable(name, f"point is not in the {mode} configuration")
        if screen:
            ctx.kit()
            if ctx.frame.screen.dim == 0:
                return CheckEntry(name, Verdict.HOLDS, REFERENCES[name], {"vacuous": True})
        return None if body is None else body(ctx)
    except NotLightlike as exc:
        return _not_applicable(name, f"not lightlike: {exc}")
    except InsufficientScene as exc:
        return _not_applicable(name, f"insufficient scene data: {exc}")


_REGISTERED: Dict[str, Callable[[PointContext], CheckEntry]] = {}


def _point_check(cid: str, mode: Optional[str] = None, screen: bool = False):
    """Register a point check under cid; its body runs behind _gate."""

    def register(body: Callable[[PointContext], CheckEntry]):
        @functools.wraps(body)
        def check(ctx: PointContext) -> CheckEntry:
            return _gate(ctx, cid, mode, screen, body)

        _REGISTERED[cid] = check
        return check

    return register


# ---- configuration predicates as checks ----


def _configuration_entry(ctx: PointContext, name: str, mode: str) -> CheckEntry:
    holds, witness = ctx.configuration(mode)
    return CheckEntry(name, Verdict.HOLDS if holds else Verdict.FAILS, REFERENCES[name], witness)


@_point_check("def-3.1")
def check_radical_transversal_config(ctx: PointContext) -> CheckEntry:
    return _configuration_entry(ctx, "def-3.1", "radical-transversal")


@_point_check("def-4.1")
def check_transversal_config(ctx: PointContext) -> CheckEntry:
    return _configuration_entry(ctx, "def-4.1", "transversal")


def _invariance_audit(
    ctx: PointContext, name: str, mode: str, span: Callable[[], PrimitiveRows], what: str, key: str
) -> CheckEntry:
    """The subspace, built only past the gate, must be invariant under
    the structure map whenever the mode's predicate holds."""
    space = span()
    if not all(space.contains(ctx.structure.apply(v)) for v in space.basis):
        raise InternalInconsistency(f"{what} lost invariance in a {mode} configuration")
    witness = {key: space.dim, "images_checked": space.dim}
    return CheckEntry(name, Verdict.HOLDS, REFERENCES[name], witness)


@_point_check("thm-3.3", "radical-transversal")
def check_normal_screen_invariance(ctx: PointContext) -> CheckEntry:
    """Consequence audit: the normal screen must be invariant whenever
    the radical-transversal predicate holds."""
    return _invariance_audit(
        ctx, "thm-3.3", "radical-transversal", lambda: ctx.frame.normal_screen,
        "normal screen", "normal_screen_dim",
    )


@_point_check("prop-4.2", "transversal")
def check_mapped_screen_complement_invariance(ctx: PointContext) -> CheckEntry:
    """Consequence audit: the complement of the mapped screen inside the
    normal screen must be invariant whenever the transversal predicate
    holds."""
    return _invariance_audit(
        ctx, "prop-4.2", "transversal", ctx.mu_subspace, "mapped-screen complement", "mu_dim"
    )


# ---- structure equation audit ----


def _hessian_columns(ctx: PointContext) -> Mat:
    """The second derivatives d_i d_j f as the columns of one n x m^2
    matrix, column j*m + i holding d_i W_j (pair order: j outer, i inner)."""
    coords = ctx.chart().coordinates
    return transpose(tuple(w.partials[i] for w in coords for i in range(len(coords))))


def _structure_operators(ctx: PointContext, mode: str) -> Tuple[Tuple[str, Mat], ...]:
    """The residual operator of each slot, composed once per point and mode.

    For the pair (i, j) the regrouped split equations take the coordinate
    field W_j apart into its screen part tw and radical part qw, and
    differentiate J tw and J qw along W_i.  Both are constant-coefficient
    fields summing to W_j, so kw + lw = J h_ij with h_ij = d_i d_j f, and
    every residual is a fixed linear map applied to h_ij:

        tangent             T J - T J L - tangent_term
        screen-transversal  S J - screen_term
        null-transversal    L J - J P_radical - L J L

    P_screen, P_radical, L and S are the point's four-slot projectors
    onto the screen, the radical, the null transversal frame and the
    normal screen, which the ten criteria share, and T = P_screen +
    P_radical projects onto the tangent space.  The mode supplies the
    two terms that depend on where J sends the screen.
    """
    T, L, S = ctx.slot("tangent"), ctx.slot("transversal"), ctx.slot("normal-screen")
    J = ctx.structure.matrix
    proj = ctx.projectors(mode)
    TJ, LJ = mat_mul(T, J), mat_mul(L, J)
    j_nabla = mat_mul(J, ctx.slot("screen"))
    if mode == "radical-transversal":
        # J keeps the screen, hence the normal screen (thm-3.3), so J hs
        # stays in the normal screen
        tangent_term = j_nabla
        screen_term = mat_mul(J, S)
    else:
        # hs splits over the mapped screen and mu; J of the first part
        # splits over the mapped screen and the screen.  Its mapped-screen
        # part P_ms J P_ms hs is p P_ms hs (J^2 = p J + q on J(screen)),
        # and p = 0 wherever this configuration exists, so only the screen
        # part enters.  P_ms and P_mu factor through P[normal-screen]
        b_hs = mat_mul(J, proj.matrices["mapped-screen"])
        tangent_term = mat_mul(ctx.slot("screen"), b_hs)
        screen_term = mat_add(j_nabla, mat_mul(J, proj.matrices["mu"]))
    return (
        ("tangent", mat_sub(mat_sub(TJ, mat_mul(TJ, L)), tangent_term)),
        ("screen-transversal", mat_sub(mat_mul(S, J), screen_term)),
        (
            "null-transversal",
            mat_sub(mat_sub(LJ, mat_mul(J, ctx.slot("radical"))), mat_mul(LJ, L)),
        ),
    )


def _structure_equations(ctx: PointContext, mode: str) -> int:
    """Slot-by-slot reassembly of the structure-composed derivative splits.

    For every coordinate pair the three regrouped split equations must
    vanish exactly; any nonzero residual is an internal bug because the
    grouping is a pointwise identity once the predicate holds.  Each
    slot's residual is one operator applied to the pair's second
    derivative (see _structure_operators), so all pairs are checked by
    one product with the stacked Hessian columns.  Column c holds the
    residual of exactly one pair, and the columns follow the pair order
    (j outer, i inner), so the first nonzero column names the first
    failing pair, and within it the first nonzero slot is reported.
    """
    m = len(ctx.chart().coordinates)
    hessian = _hessian_columns(ctx)
    residuals = [
        (label, transpose(mat_mul(op, hessian)))
        for label, op in _structure_operators(ctx, mode)
    ]
    for c in range(m * m):
        for label, columns in residuals:
            if not is_zero_vec(columns[c]):
                raise InternalInconsistency(
                    f"split regrouping failed in the {label} slot at pair ({c % m}, {c // m})"
                )
    return m * m


@_point_check("structure-eqs", EITHER_CONFIGURATION)
def check_structure_equations(ctx: PointContext) -> CheckEntry:
    mode = next(m for m in CONFIGURATIONS if ctx.configuration(m)[0])
    try:
        problems = ctx.projectors(mode).audit()
        if problems:
            raise InternalInconsistency("; ".join(problems[:3]))
        pairs = _structure_equations(ctx, mode)
    except InternalInconsistency as exc:
        if exc.mode is None:
            exc.mode = mode
        raise
    witness = {
        "mode": mode,
        "coordinate_pairs": pairs,
        "slots": ["tangent", "screen-transversal", "null-transversal"],
        "all_zero": True,
        "projector_audit_clean": True,
    }
    return CheckEntry("structure-eqs", Verdict.HOLDS, REFERENCES["structure-eqs"], witness)


# ---- oracles shared by the criterion checks ----


def _lowered(space: SignatureSpace, vectors: Sequence[Vec]) -> Mat:
    """Rows eps * v, so that row . w = <v, w>."""
    return tuple(tuple(-x if e < 0 else x for e, x in zip(space.eps, v)) for v in vectors)


def _transversal_coefficients(ctx: PointContext) -> Mat:
    """Rows mapping a vector to its coefficients on the null transversal
    frame: the lowered radical basis.  <xi_j, v> is the N_j coefficient
    of v, since xi_j is orthogonal to the tangent space and the normal
    screen and <N_i, xi_j> = delta_ij, which build_frame asserts."""
    return _lowered(ctx.space, ctx.frame.rad_basis)


def _metric_oracle(ctx: PointContext) -> Tuple[bool, int]:
    """Deviation of the induced connection from metricity, on all
    coordinate triples; the deviation is a tensor, so coordinate fields
    span every case.

    Along W_k the pairing <W_i, W_j> changes by <h_ki, W_j> + <W_i, h_kj>
    and the induced connection keeps the tangent part T h_ki, so

        (nabla_{W_k} g)(W_i, W_j) = <(I - T) h_ki, W_j> + <W_i, (I - T) h_kj>.

    Every such inner product is an entry of the one product
    (W^T diag(eps) (I - T)) H, with H the stacked Hessian columns.
    """
    frame = ctx.frame
    space = ctx.space
    coords = ctx.chart().coordinates
    m = len(coords)
    tangent = frame.slot_factor.projector(frame.slot_ranges["tangent"])
    normal = mat_sub(identity(space.dim, space.params), tangent)
    rows = _lowered(space, [w.value for w in coords])
    # pairings[j][i*m + k] = <W_j, (I - T) h_ki>
    pairings = mat_mul(mat_mul(rows, normal), _hessian_columns(ctx))
    ok = all(
        not (pairings[j][i * m + k] + pairings[i][j * m + k])
        for k in range(m)
        for i in range(m)
        for j in range(m)
    )
    return ok, m**3


def _component_oracle(
    ctx: PointContext, fields: Sequence[TangentJet], *, geodesic: bool, keep: str
) -> Tuple[bool, List[Tuple[List[int], Vec]]]:
    """Nonzero tangent components of field pairs: of the brackets
    [f_a, f_b] for a < b, or, when geodesic, of the induced derivatives
    of f_b along f_a for every ordered pair (diagonal included).  keep
    is "screen" (the screen vector) or "radical" (the radical
    coefficients)."""
    frame = ctx.frame
    bad: List[Tuple[List[int], Vec]] = []
    for a, x in enumerate(fields):
        for b in range(0 if geodesic else a + 1, len(fields)):
            y = fields[b]
            v = gauss_split(frame, x, y).induced if geodesic else lie_bracket(x, y)
            screen_part, rad_coeffs = split_tangent(frame, v)
            part = screen_part if keep == "screen" else rad_coeffs
            if not is_zero_vec(part):
                bad.append(([a, b], part))
    return (not bad), bad


def _bind(
    name: str,
    criterion_holds: bool,
    oracle_holds: bool,
    witness: Dict[str, object],
) -> CheckEntry:
    if criterion_holds != oracle_holds:
        raise InternalInconsistency(
            f"{name}: criterion verdict {criterion_holds} disagrees with oracle {oracle_holds}"
        )
    witness["criterion_zero"] = criterion_holds
    witness["oracle_zero"] = oracle_holds
    return CheckEntry(
        name,
        Verdict.HOLDS if criterion_holds else Verdict.FAILS,
        REFERENCES[name],
        witness,
    )


# ---- criteria as operators on stacked derivative columns ----
#
# Every criterion is linear in first derivatives D(X, V) = sum_j X^j d_j V
# of kit fields at the point, and J is constant, so a structure-composed
# section differentiates as D(X, J V) = J D(X, V).  Each criterion is
# therefore one residual matrix, composed from the point's slot projectors,
# applied to the stacked derivative columns of its pair domain; column
# c of the product is the residual of pair c, so its nonzero columns,
# in pair order, are the samples.

Column = Tuple[List[int], Vec]


def _pairs(xs: Sequence[TangentJet], vs: Sequence[AmbientJet]) -> List[Column]:
    """D(X_a, V_b) keyed [a, b], a outer."""
    return [([a, b], derive(x, v)) for a, x in enumerate(xs) for b, v in enumerate(vs)]


def _antisymmetrised(fields: Sequence[TangentJet]) -> List[Column]:
    """D(F_a, F_b) - D(F_b, F_a) keyed [a, b], for a < b."""
    return [
        ([a, b], vec_sub(derive(fields[a], fields[b]), derive(fields[b], fields[a])))
        for a in range(len(fields))
        for b in range(a + 1, len(fields))
    ]


def _radical_along_coordinates(ctx: PointContext) -> List[Column]:
    """D(W_j, xi_c) keyed [c, j], c outer: each radical field along every
    coordinate field."""
    coords = ctx.chart().coordinates
    return [
        ([c, j], derive(w, xi))
        for c, xi in enumerate(ctx.kit().radical)
        for j, w in enumerate(coords)
    ]


def _nonzero(op: Mat, columns: Sequence[Column]) -> List[Column]:
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


# ---- invariant-screen configuration criteria ----


@_point_check("thm-3.5", "radical-transversal")
def check_metric_connection_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Induced connection metric iff no mapped-radical shape operator
    has a screen component: -P_screen J on the radical fields along
    every coordinate field."""
    op = _scaled(-QuadScalar.one(ctx.params), mat_mul(ctx.slot("screen"), ctx.structure.matrix))
    samples = _nonzero(op, _radical_along_coordinates(ctx))
    criterion = not samples
    oracle, checked = _metric_oracle(ctx)
    witness: Dict[str, object] = {
        "screen_components": _residual_witness(samples),
        "deviation_triples_checked": checked,
    }
    return _bind("thm-3.5", criterion, oracle, witness)


@_point_check("thm-3.6", "radical-transversal", screen=True)
def check_screen_integrability_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution integrable iff the null form is symmetric on
    mapped screen pairs: the transversal coefficients of J on the
    antisymmetrised screen pairs."""
    kit = ctx.kit()
    # the criterion uses the literal structure-composed adapted fields,
    # the same gauge the bracket oracle probes
    op = mat_mul(_transversal_coefficients(ctx), ctx.structure.matrix)
    samples = _nonzero(op, _antisymmetrised(kit.screen_adapted))
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.screen_adapted, geodesic=False, keep="radical")
    witness: Dict[str, object] = {
        "asymmetry": _residual_witness(samples),
        "bracket_radical_components": _residual_witness(bad),
    }
    return _bind("thm-3.6", criterion, oracle, witness)


@_point_check("thm-3.7", "radical-transversal")
def check_radical_integrability_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution integrable iff the mapped-radical shape
    operators are symmetric on radical pairs: T J on the antisymmetrised
    radical pairs."""
    kit = ctx.kit()
    op = mat_mul(ctx.slot("tangent"), ctx.structure.matrix)
    samples = _nonzero(op, _antisymmetrised(kit.radical))
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.radical, geodesic=False, keep="screen")
    witness: Dict[str, object] = {
        "shape_asymmetry": _residual_witness(samples),
        "bracket_screen_components": _residual_witness(bad),
    }
    return _bind("thm-3.7", criterion, oracle, witness)


@_point_check("thm-3.8", "radical-transversal", screen=True)
def check_radical_foliation_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution totally geodesic iff the screen form
    transfers through the structure map with the linear coefficient:
    P_radical (J - p) on the screen fields along the radical ones."""
    kit = ctx.kit()
    _, _, j_minus_p = _coefficient(ctx)
    op = mat_mul(ctx.slot("radical"), j_minus_p)
    samples = _nonzero(op, _pairs(kit.radical, kit.screen_adapted))
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.radical, geodesic=True, keep="screen")
    witness: Dict[str, object] = {
        "transfer_residuals": _residual_witness(samples),
        "induced_screen_components": _residual_witness(bad),
    }
    return _bind("thm-3.8", criterion, oracle, witness)


@_point_check("thm-3.9", "radical-transversal", screen=True)
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
    T, L, radical = ctx.slot("tangent"), ctx.slot("transversal"), ctx.slot("radical")
    _, J, j_minus_p = _coefficient(ctx)
    j_ltr = [ctx.structure.apply(n) for n in ctx.frame.ltr]
    if any(not is_zero_vec(mat_vec(ctx.slot("screen"), v)) for v in j_ltr):
        raise InternalInconsistency("transversal image acquired a screen component")
    k1 = [mat_vec(L, v) for v in j_ltr]
    k2 = [mat_vec(T, v) for v in j_ltr]
    no_transversal_component = all(is_zero_vec(v) for v in k1)
    balance = mat_add(
        mat_mul(_lowered(ctx.space, k1), radical), mat_mul(_lowered(ctx.space, k2), L)
    )
    # the printed display: P_radical + T J L, both after J - p
    printed = mat_add(radical, mat_mul(mat_mul(T, J), L))
    columns = _pairs(kit.screen_adapted, kit.screen_adapted)
    samples = _nonzero(mat_mul(balance, j_minus_p), columns)
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.screen_adapted, geodesic=True, keep="radical")
    printed_first = not _nonzero(mat_mul(printed, j_minus_p), columns)
    printed_verdict = printed_first or no_transversal_component
    witness: Dict[str, object] = {
        "balanced_residuals": _residual_witness(samples),
        "induced_radical_components": _residual_witness(bad),
        "printed_alternative_balance": printed_first,
        "printed_alternative_no_transversal_component": no_transversal_component,
        "printed_form_matches_verdict": printed_verdict == criterion,
    }
    return _bind("thm-3.9", criterion, oracle, witness)


# ---- mapped-screen configuration criteria ----


@_point_check("thm-4.5", "transversal")
def check_radical_integrability_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution integrable iff the normal-screen couplings
    of the mapped radical sections agree on radical pairs: S J on the
    antisymmetrised radical pairs."""
    kit = ctx.kit()
    op = mat_mul(ctx.slot("normal-screen"), ctx.structure.matrix)
    samples = _nonzero(op, _antisymmetrised(kit.radical))
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.radical, geodesic=False, keep="screen")
    witness: Dict[str, object] = {
        "coupling_asymmetry": _residual_witness(samples),
        "bracket_screen_components": _residual_witness(bad),
    }
    return _bind("thm-4.5", criterion, oracle, witness)


@_point_check("thm-4.6", "transversal", screen=True)
def check_screen_integrability_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution integrable iff the null couplings of the
    mapped screen sections agree on screen pairs: the transversal
    coefficients of J on the antisymmetrised screen pairs."""
    kit = ctx.kit()
    op = mat_mul(_transversal_coefficients(ctx), ctx.structure.matrix)
    samples = _nonzero(op, _antisymmetrised(kit.screen_adapted))
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.screen_adapted, geodesic=False, keep="radical")
    witness: Dict[str, object] = {
        "coupling_asymmetry": _residual_witness(samples),
        "bracket_radical_components": _residual_witness(bad),
    }
    return _bind("thm-4.6", criterion, oracle, witness)


@_point_check("thm-4.7", "transversal", screen=True)
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
    T, L, radical = ctx.slot("tangent"), ctx.slot("transversal"), ctx.slot("radical")
    display = mat_sub(mat_mul(mat_add(T, L), J), _scaled(p, mat_add(radical, L)))
    j_ltr = [ctx.structure.apply(n) for n in ctx.frame.ltr]
    columns = _pairs(kit.screen_adapted, kit.screen_adapted)
    samples = _nonzero(mat_mul(_lowered(ctx.space, j_ltr), display), columns)
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.screen_adapted, geodesic=True, keep="radical")
    # the printed conjunction: L (J + p), P_radical and P_radical J
    # vanish on every screen pair
    conj_coupling = not _nonzero(mat_add(mat_mul(L, J), _scaled(p, L)), columns)
    conj_screen_form = not _nonzero(radical, columns)
    conj_shape_clear = not _nonzero(mat_mul(radical, J), columns)
    printed = conj_coupling and conj_screen_form and conj_shape_clear
    witness: Dict[str, object] = {
        "balanced_residuals": _residual_witness(samples),
        "induced_radical_components": _residual_witness(bad),
        "printed_conjunction": {
            "coupling_matches": conj_coupling,
            "screen_form_vanishes": conj_screen_form,
            "shape_avoids_radical": conj_shape_clear,
        },
        "printed_form_matches_verdict": printed == criterion,
    }
    return _bind("thm-4.7", criterion, oracle, witness)


@_point_check("thm-4.8", "transversal", screen=True)
def check_radical_foliation_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution totally geodesic iff the mapped-screen shape
    operators stay out of the radical after the screen-form correction:
    -P_radical (J - p) on the screen fields along the radical ones.

    The printed form of this criterion drops the screen-form correction
    term; the verdict is bound to the corrected display and the printed
    shape-only condition is reported in the witness.
    """
    kit = ctx.kit()
    radical = ctx.slot("radical")
    _, J, j_minus_p = _coefficient(ctx)
    columns = _pairs(kit.radical, kit.screen_adapted)
    op = _scaled(-QuadScalar.one(ctx.params), mat_mul(radical, j_minus_p))
    samples = _nonzero(op, columns)
    printed_clear = not _nonzero(mat_mul(radical, J), columns)
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.radical, geodesic=True, keep="screen")
    witness: Dict[str, object] = {
        "corrected_radical_components": _residual_witness(samples),
        "induced_screen_components": _residual_witness(bad),
        "printed_shape_avoids_radical": printed_clear,
        "printed_form_matches_verdict": printed_clear == criterion,
    }
    return _bind("thm-4.8", criterion, oracle, witness)


@_point_check("thm-4.9", "transversal")
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
    op = mat_mul(mat_mul(mat_mul(ctx.slot("screen"), J), ctx.slot("normal-screen")), j_minus_p)
    samples = _nonzero(op, columns)
    criterion = not samples
    oracle, checked = _metric_oracle(ctx)
    witness: Dict[str, object] = {
        "coupling_residuals": _residual_witness(samples),
        "deviation_triples_checked": checked,
    }
    return _bind("thm-4.9", criterion, oracle, witness)


# ---- one-null-direction candidates for the nonexistence audit ----


def _rational(rng: random.Random, *, nonzero: bool = False) -> Fraction:
    num = rng.randrange(-3, 4)
    while nonzero and num == 0:
        num = rng.randrange(-3, 4)
    return Fraction(num, rng.choice([1, 1, 2, 3]))


def _mix_rows(
    rows: List[List[int]], i: int, j: int, a: int, b: int, c: int, e: int, den: int
) -> int:
    """Left product of rows by the identity with the block [[a, b], [c, e]]
    / den at (i, j), over the common denominator: rows i and j become
    a r_i + b r_j and c r_i + e r_j, every other row scales by den, all
    after dropping the common factor of the block and den.  Returns the
    factor the denominator gains."""
    g = math.gcd(a, b, c, e, den)
    if g != 1:
        a, b, c, e, den = a // g, b // g, c // g, e // g, den // g
    if den != 1:
        for k, row in enumerate(rows):
            if k != i and k != j:
                rows[k] = [den * x for x in row]
    ri, rj = rows[i], rows[j]
    rows[i] = [a * x + b * y for x, y in zip(ri, rj)]
    rows[j] = [c * x + e * y for x, y in zip(ri, rj)]
    return den


def integer_isometry(
    rng: random.Random, eps: Sequence[int], steps: Optional[int] = None
) -> Tuple[List[List[int]], int]:
    """Integer rows M and a denominator d > 0 with S = M / d an isometry
    of diag(eps): M^T diag(eps) M = d^2 diag(eps).

    S is composed from hyperbolic boosts across a (-,+) coordinate pair,
    rational-point rotations inside a same-sign pair, sign flips, and
    same-sign swaps, each applied to the rows of the accumulated product
    it multiplies from the left.  A boost by lam = u/v has cosh and sinh
    (u^2 + v^2, u^2 - v^2) / 2uv, a rotation by the tangent half-angle
    t = u/v has cos and sin (v^2 - u^2, 2uv) / (u^2 + v^2).
    """
    n = len(eps)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    d = 1
    minus = [i for i in range(n) if eps[i] == -1]
    plus = [i for i in range(n) if eps[i] == 1]
    if steps is None:
        steps = rng.randrange(0, 7)
    for _ in range(steps):
        kind = rng.choice(("boost", "rotate", "flip", "swap"))
        if kind == "boost" and minus and plus:
            i = rng.choice(minus)
            j = rng.choice(plus)
            u, v = rng.choice([2, 3, 1, 2]), rng.choice([1, 2, 3])
            if u == v:
                continue
            c, s = u * u + v * v, u * u - v * v
            d *= _mix_rows(rows, i, j, c, s, s, c, 2 * u * v)
        elif kind == "rotate":
            pool = minus if (len(minus) >= 2 and rng.random() < 0.5) else plus
            if len(pool) < 2:
                pool = minus if len(minus) >= 2 else plus
            if len(pool) < 2:
                continue
            i, j = rng.sample(pool, 2)
            u, v = rng.choice([1, 1, 2, 3]), rng.choice([1, 2, 3])
            c, s = v * v - u * u, 2 * u * v
            d *= _mix_rows(rows, i, j, c, -s, s, c, u * u + v * v)
        elif kind == "flip":
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
        else:
            pool = minus if (len(minus) >= 2 and rng.random() < 0.5) else plus
            if len(pool) < 2:
                continue
            i, j = rng.sample(pool, 2)
            rows[i], rows[j] = rows[j], rows[i]
    return rows, d


def random_isometry(rng: random.Random, space: SignatureSpace, steps: Optional[int] = None) -> Mat:
    """Exact rational matrix S with S^T diag(eps) S = diag(eps), as
    QuadScalars.

    S is the view M / d of ``integer_isometry`` on the same generator:
    the same draws in the same order, and the same state left behind.
    The audit reads the integers; the scene generators and the tests
    read this view.
    """
    rows, d = integer_isometry(rng, space.eps, steps)
    params = space.params
    return tuple(tuple(QuadScalar(Fraction(x, d), 0, params) for x in row) for row in rows)


class AuditCell(NamedTuple):
    """What every candidate of one (p, q) cell reuses, built once per
    cell: the two roots of the defining quadratic keyed by branch name,
    each as the integer pair (u, v) of u + v sigma, and sigma itself when
    it is rational, else None.  A rational sigma is an integer: the
    discriminant p^2 + 4q is then the square of an integer of p's
    parity.

    An integer pair (U, V) stands for U + V sigma, and ``is_zero`` is the
    audit's one zero test on it: with sigma irrational both integers
    must vanish; with sigma rational V folds into U, as QuadScalar
    folds it, so (2, -1) is zero at (p, q) = (1, 2), where sigma = 2.
    """

    params: MetallicParams
    roots: Dict[str, Tuple[int, int]]
    sigma: Optional[int]

    @classmethod
    def of(cls, params: MetallicParams) -> "AuditCell":
        sigma = int(params.sigma_rational()) if params.square_discriminant else None
        return cls(params, {"sigma": (0, 1), "p-sigma": (params.p, -1)}, sigma)

    def is_zero(self, u: int, v: int) -> bool:
        if self.sigma is None:
            return not u and not v
        return u + v * self.sigma == 0


class NullDualCandidate(NamedTuple):
    """One candidate over the integers, for a drawn isometry M / d and the
    drawn root diagonal D: the signature eps, the drawn rational a, and
    integer directions with

        xi = (a / d) xi_dir,   N = nv_dir / (2 a d),
        J xi = (a / d) (jxi_rational + jxi_sigma sigma).
    """

    eps: Tuple[int, ...]
    a: Fraction
    d: int
    xi_dir: Tuple[int, ...]
    nv_dir: Tuple[int, ...]
    jxi_rational: Tuple[int, ...]
    jxi_sigma: Tuple[int, ...]


def null_dual_candidate(rng: random.Random, cell: AuditCell) -> NullDualCandidate:
    """Random candidate with xi null, N null and <xi, N> = 1, for
    J = S D S^-1: a diagonal D of drawn roots hidden behind a drawn
    isometry S = M / d, with xi = S xi0 and N = S N0 for
    xi0 = a (e_minus + e_plus) and N0 = (e_plus - e_minus) / 2a.

    Neither J nor S^-1 is built, no QuadScalar is made, and nothing
    leaves the integers.  The column Gram matrix M^T diag(eps) M is
    checked against d^2 diag(eps) in full, which makes the adjoint
    diag(eps) S^T diag(eps) the inverse of S.  The adjoint must also give
    back the unrotated direction, eps M^T eps (M_minus + M_plus) =
    d^2 (e_minus + e_plus): that follows from the Gram identity, and is
    checked anyway, at n^2 small-integer products, because it is the one
    identity S^-1 xi = xi0 that J xi is read from: J xi = S D xi0 =
    a (D_minus M_minus + D_plus M_plus) / d, each root u + v sigma split
    into its rational and sigma parts.  Any root diagonal conjugated by
    an isometry satisfies both structure validators.
    """
    extra = rng.randrange(0, 3)
    n = 2 + extra
    roles: List[Tuple[str, int]] = [("pair-", 0), ("pair+", 0)]
    roles += [("extra", c) for c in range(extra)]
    rng.shuffle(roles)
    eps = [0] * n
    diag = [(0, 0)] * n
    for pos, (kind, _) in enumerate(roles):
        eps[pos] = -1 if kind == "pair-" else (1 if kind == "pair+" else rng.choice((-1, 1)))
        diag[pos] = cell.roots[rng.choice(("sigma", "p-sigma"))]
    minus, plus = roles.index(("pair-", 0)), roles.index(("pair+", 0))

    a = _rational(rng, nonzero=True)
    # short compositions keep the sweep cheap; candidate volume matters
    # more here than isometry depth
    rows, d = integer_isometry(rng, eps, steps=rng.randrange(0, 4))
    cols = list(zip(*rows))
    d2 = d * d
    for i in range(n):
        lowered = list(map(mul, eps, cols[i]))
        for j in range(i, n):
            if sum(map(mul, lowered, cols[j])) != (eps[i] * d2 if i == j else 0):
                raise InternalInconsistency(
                    "drawn matrix is not an isometry", check="audit-nonexistence"
                )
    col_minus, col_plus = cols[minus], cols[plus]
    xi = tuple(x + y for x, y in zip(col_minus, col_plus))
    lowered = list(map(mul, eps, xi))
    for j in range(n):
        back = eps[j] * sum(map(mul, cols[j], lowered))
        if back != (d2 if j == minus or j == plus else 0):
            raise InternalInconsistency("isometry adjoint inverse failed", check="audit-nonexistence")
    (um, vm), (up, vp) = diag[minus], diag[plus]
    return NullDualCandidate(
        tuple(eps),
        a,
        d,
        xi,
        tuple(y - x for x, y in zip(col_minus, col_plus)),
        tuple(um * x + up * y for x, y in zip(col_minus, col_plus)),
        tuple(vm * x + vp * y for x, y in zip(col_minus, col_plus)),
    )


# ---- randomized nonexistence audit ----

# The audit ignores the scene, so its witness depends only on the
# generator state it starts from and the trial count.  Completed audits
# are kept per process under that key, together with the generator
# state they leave behind, and the least recently used is evicted.  The
# five shipped fixtures that request the audit carry five distinct
# seeds, so a process looping them under their own seeds needs five
# entries; eight leave room for a few more.  An entry holds two
# generator states, about 50 KB.
_AUDIT_MEMO_SIZE = 8
_AUDIT_MEMO: "OrderedDict[tuple, Tuple[tuple, Dict[str, object]]]" = OrderedDict()
_AUDIT_MEMO_LOCK = threading.Lock()


def check_single_null_obstruction(
    rng: random.Random, trials: int = 200
) -> CheckEntry:
    """No single null direction can carry the whole radical-to-transversal
    mapping when the linear coefficient is positive.

    For every candidate the transfer identity <Ju, Ju> = p <Ju, u> is
    re-derived exactly; a candidate satisfying the full constraint set
    (null image pairing to one against its source) would force p = 0,
    so for positive p the satisfying count must be zero.  Finding one
    is not a verdict, it is a broken invariant.

    A repeated call from the same generator state with the same trial
    count reuses the first result: it returns a fresh copy of the
    witness and leaves ``rng`` in the state the full sweep would have.
    An audit that raises is never reused.
    """
    key = (type(rng), rng.getstate(), trials)
    with _AUDIT_MEMO_LOCK:
        hit = _AUDIT_MEMO.get(key)
        if hit is not None:
            _AUDIT_MEMO.move_to_end(key)
    if hit is None:
        witness = _single_null_sweep(rng, trials)
        hit = (rng.getstate(), witness)
        with _AUDIT_MEMO_LOCK:
            _AUDIT_MEMO[key] = hit
            while len(_AUDIT_MEMO) > _AUDIT_MEMO_SIZE:
                _AUDIT_MEMO.popitem(last=False)
    else:
        rng.setstate(hit[0])
    return CheckEntry(
        "audit-nonexistence",
        Verdict.HOLDS,
        REFERENCES["audit-nonexistence"],
        copy.deepcopy(hit[1]),
    )


def _single_null_sweep(rng: random.Random, trials: int) -> Dict[str, object]:
    zero_counts: Dict[str, Dict[str, object]] = {}
    for p in (1, 2, 3):
        for q in (1, 2):
            cell = AuditCell.of(MetallicParams(p, q))
            zero = cell.is_zero
            satisfied = 0
            image_in_span = 0
            for _ in range(trials):
                eps, a, d, xi, nv, ju, jv = null_dual_candidate(rng, cell)
                # <J xi, xi> = (a/d)^2 (ux + vx sigma) and <J xi, J xi> =
                # (a/d)^2 (U + V sigma)^2, reduced by sigma^2 = p sigma + q
                ux = vx = uu = uv = vv = 0
                for e, x, u, v in zip(eps, xi, ju, jv):
                    eu, ev = e * u, e * v
                    ux += eu * x
                    vx += ev * x
                    uu += eu * u
                    uv += eu * v
                    vv += ev * v
                bu, bv = uu + q * vv, 2 * uv + p * vv
                if not zero(bu - p * ux, bv - p * vx):
                    raise InternalInconsistency(
                        "transfer identity failed on a generated candidate",
                        check="audit-nonexistence",
                    )
                if zero(bu, bv):
                    # <J xi, xi> = 1 exactly when a_num^2 (ux + vx sigma)
                    # equals (a_den d)^2
                    num2, den2 = a.numerator ** 2, (a.denominator * d) ** 2
                    if zero(num2 * ux - den2, num2 * vx):
                        satisfied += 1
                # J xi lies on the line of N exactly when every 2 x 2
                # minor of (N, J xi) vanishes
                n = len(nv)
                if not all(zero(u, v) for u, v in zip(ju, jv)) and all(
                    zero(nv[i] * ju[k] - nv[k] * ju[i], nv[i] * jv[k] - nv[k] * jv[i])
                    for i in range(n)
                    for k in range(i + 1, n)
                ):
                    image_in_span += 1
            if satisfied or image_in_span:
                raise InternalInconsistency(
                    "randomized audit produced a forbidden single-null candidate",
                    check="audit-nonexistence",
                )
            zero_counts[f"p={p},q={q}"] = {
                "trials": trials,
                "satisfying_candidates": satisfied,
                "images_inside_the_transversal_span": image_in_span,
                "forced_value_when_satisfied": str(p),
            }
    return {
        "constraint_set": [
            "<xi, xi> = 0",
            "<J xi, J xi> = 0",
            "<J xi, xi> = 1",
            "<J xi, J xi> = p <J xi, xi>",
        ],
        "sweep": zero_counts,
        "minimum_radical_dim_for_transversal_claims": 2,
    }


# ---- the point checks, in the canonical order ----


POINT_CHECK_FUNCTIONS = {cid: _REGISTERED[cid] for cid in CHECK_ORDER if cid in _REGISTERED}
