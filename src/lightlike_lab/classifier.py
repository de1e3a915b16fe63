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
each criterion is one residual map applied to the stacked derivative
columns D(X_a, V_b) of its pair domain.  The oracles stay per-vector,
splitting one bracket or induced derivative at a time by its
coordinates against the frame's slot_factor, which the criteria share.

Both configurations split the ambient space into the same four slots
(screen, radical, null transversal, and the normal screen), whose
stacked bases C the frame factors once per point (slot_factor).  Both
configuration predicates, every criterion and structure-eqs read those
slot coordinates: a slot projector is C E_a C^-1 for the 0/1 mask E_a
of the slot's range, so a zero test on P_a M D is one on the a-rows of
C^-1 M D, read off K = C^-1 J or J^ = K C.  The modes differ only in
where the structure map sends the screen: onto itself, or into the
normal screen, whose slot the transversal set splits into the mapped
screen and its complement mu.

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
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)
from .scalars import MetallicParams, QuadScalar
from .submanifold import FOUR_SLOTS, PolynomialImmersion, build_frame


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
    """Slot bases for one configuration mode at a point, and the slot
    coordinates every projection onto them reads.

    The slot bases together form a basis of the ambient space.  inverse
    is C^-1 for the frame's four-slot basis C, read off slot_factor.  The
    transversal set shares it and splits the normal-screen slot in two:
    split factors the k-wide normal-screen coordinates of its
    mapped-screen + mu basis (None in the radical-transversal mode).
    audit() checks both against the slot bases.
    """

    space: SignatureSpace
    bases: Dict[str, Tuple[Vec, ...]]
    inverse: Mat
    split: Optional[FactoredBasis]

    def audit(self) -> List[str]:
        """C^-1 C = I over the stacked slot bases, the transversal set
        reading its normal-screen rows through split's k x k inverse:
        this pins every slot's coordinates, hence its projector."""
        n = self.space.dim
        coords = mat_mul(self.inverse, transpose([v for b in self.bases.values() for v in b]))
        if self.split is not None:
            k = len(self.split.basis)
            coords = coords[: n - k] + mat_mul(self.split.coordinate_map(range(k)), coords[n - k :])
        columns, unit = transpose(coords), identity(n, self.space.params)
        problems, at = [], 0
        for label, basis in self.bases.items():
            if columns[at : at + len(basis)] != unit[at : at + len(basis)]:
                problems.append(f"slot coordinates do not recover slot {label}")
            at += len(basis)
        return problems


# ---- per-point shared state ----


class PointContext:
    """Frame, lazy chart jet and kit, lazy predicates, slot bases and
    slot coordinates of the structure at one point."""

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
        self._in_slots: Optional[Tuple[MetallicStructure, Mat, Mat]] = None

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
            # the frame's own rows, unless J(screen) needs the other ring
            same = ring.sigma == normal.ring.sigma
            rows = normal.rows if same else [ring.clear(v)[0] for v in normal.basis]
            mu = ring.kernel_image(ring.gram(self.space.eps, mapped.rows, rows), rows, n)
            if mapped.dim + mu.dim != normal.dim:
                raise InternalInconsistency(
                    "mapped screen and its complement do not fill the normal screen"
                )
            self._mu = mu
        return self._mu

    def projectors(self, mode: str) -> ProjectorSet:
        """The radical-transversal mode's set is the four-slot set; it
        decomposes the ambient space at every lightlike point, in either
        configuration or neither."""
        if mode in self._proj:
            return self._proj[mode]
        frame = self.frame
        factor, n = frame.slot_factor, self.space.dim
        if mode == "radical-transversal":
            # a basis of the ambient space: independent and spanning
            if not len(factor.basis) == factor.rank == n:
                raise InternalInconsistency(_NO_DECOMPOSITION, mode=mode)
            inverse = factor.coordinate_map(range(n))
            proj = ProjectorSet(self.space, dict(frame.slot_bases), inverse, None)
        elif mode == "transversal":
            # the normal-screen slot split in two: only the k-wide
            # normal-screen coordinates of J(screen) + mu are factored,
            # and they must be a basis of that slot
            normal, mapped, mu = frame.normal_screen, self.mapped_screen(), self.mu_subspace().basis
            rows = factor.coordinate_map(frame.slot_ranges["normal-screen"])
            split = FactoredBasis([mat_vec(rows, v) for v in mapped + mu], normal.dim, self.params)
            inside = all(map(normal.contains, mapped))
            if not (inside and len(split.basis) == split.rank == normal.dim):
                raise InternalInconsistency(_NO_DECOMPOSITION, mode=mode)
            four = self.projectors("radical-transversal")
            bases = {**four.bases, "mapped-screen": mapped, "mu": mu}
            del bases["normal-screen"]
            proj = four._replace(bases=bases, split=split)
        else:
            raise InternalInconsistency(f"unknown projection mode {mode!r}", mode=mode)
        self._proj[mode] = proj
        return proj

    def structure_in_slots(self) -> Tuple[Mat, Mat]:
        """K = C^-1 J and J^ = K C for the four-slot basis C, formed
        once for the structure the context holds when they are asked for."""
        if self._in_slots is None or self._in_slots[0] is not self.structure:
            K = mat_mul(self.projectors("radical-transversal").inverse, self.structure.matrix)
            j_hat = mat_mul(K, transpose(self.frame.slot_factor.basis))
            self._in_slots = (self.structure, K, j_hat)
        return self._in_slots[1:]


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


# The weight of entry (i, j) of J^ = C^-1 J C in each residual map of
# structure-eqs, C^-1 M C, by the slots of row i and column j (s, r, l, n:
# screen, radical, transversal, normal screen); T J - T J L, for
# instance, keeps the rows s, r and the columns s, r, n.  In the
# radical-transversal mode J keeps the screen, hence the normal screen
# (thm-3.3), so J hs stays in the normal screen: tangent_term = J P_screen
# and screen_term = J S.  In the transversal mode hs splits over the
# mapped screen and mu, and J of the first part over the mapped screen
# and the screen.  Its mapped-screen part P_ms J P_ms hs is p P_ms hs
# (J^2 = p J + q on J(screen)), and p = 0 wherever this configuration
# exists, so only the screen part enters: tangent_term = P_screen J P_ms
# and screen_term = J P_screen + J (S - P_ms), whose P_ms terms
# _structure_equations adds.
_RESIDUAL_WEIGHTS = {
    "radical-transversal": (
        lambda a, b: (a in "sr" and b != "l") - (b == "s"),
        lambda a, b: (a == "n") - (b == "n"),
    ),
    "transversal": (
        lambda a, b: a in "sr" and b != "l",
        lambda a, b: (a == "n") - (b in "sn"),
    ),
}


def _weighted(j_hat: Mat, slots: str, weight: Callable[[str, str], int]) -> List[list]:
    """J^ with entry (i, j) times weight(slot of i, slot of j), in {-1, 0, 1}."""
    # indexed by the weight: 0, 1, and -1 the last
    zero = j_hat[0][0] * 0
    signed = (lambda x: zero, lambda x: x, lambda x: -x)
    return [[signed[weight(a, b)](x) for x, b in zip(row, slots)] for row, a in zip(j_hat, slots)]


def _structure_equations(ctx: PointContext, mode: str) -> int:
    """Slot-by-slot reassembly of the structure-composed derivative splits.

    For the pair (i, j) the regrouped split equations take the coordinate
    field W_j apart into its screen part tw and radical part qw, and
    differentiate J tw and J qw along W_i.  Both are constant-coefficient
    fields summing to W_j, so kw + lw = J h_ij with h_ij = d_i d_j f, and
    every residual is a fixed linear map applied to h_ij:

        tangent             T J - T J L - tangent_term
        screen-transversal  S J - screen_term
        null-transversal    L J - J P_radical - L J L

    P_screen, P_radical, L and S project onto the four slots, T onto
    the tangent space, and the mode supplies the other two terms.  Any
    nonzero residual is an internal bug.  Columns follow the pair order
    (j outer, i inner): the first nonzero one names the first failing
    pair, and its first nonzero slot is reported.
    """
    # Each map is J^ weighted by _RESIDUAL_WEIGHTS, applied to the slot
    # coordinates C^-1 h of every pair's second derivative in one product.
    # C is invertible, so a residual vanishes exactly when its slot
    # coordinates do.
    frame = ctx.frame
    m = len(ctx.chart().coordinates)
    proj = ctx.projectors(mode)
    _, j_hat = ctx.structure_in_slots()
    slots = "".join(c * len(frame.slot_ranges[a]) for c, a in zip("srln", FOUR_SLOTS))
    ops = [_weighted(j_hat, slots, w) for w in _RESIDUAL_WEIGHTS[mode]]
    if mode == "transversal":
        # in slot coordinates P_ms is split's projector Q onto the mapped
        # screen inside the normal-screen block, so J P_ms has the columns
        # J^_N Q there, J^_N being J^'s normal-screen columns
        at = frame.slot_ranges["normal-screen"]
        q = proj.split.projector(range(len(proj.bases["mapped-screen"])))
        for i, row in enumerate(mat_mul([row[at.start :] for row in j_hat], q)):
            for c, x in enumerate(row, at.start):
                if slots[i] == "s":
                    ops[0][i][c] = ops[0][i][c] - x
                ops[1][i][c] = ops[1][i][c] + x
    ops.append(_weighted(j_hat, slots, lambda a, b: (a == "l" and b != "l") - (b == "r")))
    hessian = mat_mul(proj.inverse, _hessian_columns(ctx))
    residuals = [
        (label, transpose(mat_mul(op, hessian)))
        for label, op in zip(("tangent", "screen-transversal", "null-transversal"), ops)
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


# ---- criteria as slot-coordinate rows on stacked derivative columns ----
#
# Every criterion is linear in first derivatives D(X, V) = sum_j X^j d_j V
# of kit fields at the point, and J is constant, so a structure-composed
# section differentiates as D(X, J V) = J D(X, V).  Each criterion is
# therefore one residual map M applied to the stacked derivative columns
# of its pair domain, column c of M D being the residual of pair c.  M is
# read in the frame's slot coordinates: when M = P_a N with the slot
# projector P_a = C E_a C^-1, M D vanishes exactly when the a-rows of
# C^-1 N D do, and C^-1 N is read off C^-1, K = C^-1 J and J^ = K C.  The
# nonzero columns, in pair order, are the samples; only they are mapped
# back by the slot's columns of C, so the witness holds the exact
# ambient residual M D.

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


def _nonzero(rows: Mat, columns: Sequence[Column]) -> List[Column]:
    """rows applied to every stacked column; the nonzero images, in pair order."""
    images = transpose(mat_mul(rows, transpose(tuple(col for _, col in columns))))
    return [(key, v) for (key, _), v in zip(columns, images) if not is_zero_vec(v)]


def _block(ctx: PointContext, label: str, rows: Sequence) -> Mat:
    """The rows in slot label's coordinate range."""
    at = ctx.frame.slot_ranges[label]
    return tuple(rows[at.start : at.stop])


def _slot_samples(
    ctx: PointContext, label: str, rows: Mat, columns: Sequence[Column], negate: bool = False
) -> List[Column]:
    """The nonzero columns of P_label N D (or -P_label N D), for rows =
    C^-1 N: each nonzero column of its label rows mapped back by C."""
    at = ctx.frame.slot_ranges[label]
    basis = transpose(ctx.frame.slot_factor.basis[at.start : at.stop])
    return [
        (key, mat_vec(basis, vec_neg(v) if negate else v))
        for key, v in _nonzero(_block(ctx, label, rows), columns)
    ]


def _shifted(ctx: PointContext, c: int) -> Mat:
    """C^-1 (J + c) = K + c C^-1."""
    (K, _), shift = ctx.structure_in_slots(), QuadScalar(c, 0, ctx.params)
    inverse = ctx.projectors("radical-transversal").inverse
    return tuple(vec_add(k, vec_scale(shift, row)) for k, row in zip(K, inverse)) if c else K


# ---- invariant-screen configuration criteria ----


@_point_check("thm-3.5", "radical-transversal")
def check_metric_connection_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Induced connection metric iff no mapped-radical shape operator
    has a screen component: -P_screen J on the radical fields along
    every coordinate field."""
    K, _ = ctx.structure_in_slots()
    samples = _slot_samples(ctx, "screen", K, _radical_along_coordinates(ctx), negate=True)
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
    # the same gauge the bracket oracle probes; the transversal rows of
    # K are the transversal coefficients of J, with no map back
    K, _ = ctx.structure_in_slots()
    samples = _nonzero(_block(ctx, "transversal", K), _antisymmetrised(kit.screen_adapted))
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
    K, _ = ctx.structure_in_slots()
    samples = _slot_samples(ctx, "tangent", K, _antisymmetrised(kit.radical))
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
    columns = _pairs(kit.radical, kit.screen_adapted)
    samples = _slot_samples(ctx, "radical", _shifted(ctx, -ctx.params.p), columns)
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
    _, j_hat = ctx.structure_in_slots()
    # the slot coordinates of J N_k are column k of J^'s transversal
    # columns, so k1 and k2 are read off its transversal and radical rows
    at = ctx.frame.slot_ranges["transversal"]
    images = [row[at.start : at.stop] for row in j_hat]
    if any(any(row) for row in _block(ctx, "screen", images)):
        raise InternalInconsistency("transversal image acquired a screen component")
    k1, k2 = _block(ctx, "transversal", images), _block(ctx, "radical", images)
    no_transversal_component = not any(any(row) for row in k1)
    # N_i pairs to delta_ij with xi_j and to zero with both screens, so
    # with M = C^-1 (J - p) the balance rows are k1^T M_radical +
    # k2^T M_transversal, and the printed display P_radical + T J L after
    # J - p has the radical rows M_radical + k2 M_transversal and no
    # other nonzero rows (J^'s screen-transversal block is zero here)
    shifted = _shifted(ctx, -ctx.params.p)
    m_rad, m_ltr = _block(ctx, "radical", shifted), _block(ctx, "transversal", shifted)
    balance = mat_add(mat_mul(transpose(k1), m_rad), mat_mul(transpose(k2), m_ltr))
    columns = _pairs(kit.screen_adapted, kit.screen_adapted)
    samples = _nonzero(balance, columns)
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.screen_adapted, geodesic=True, keep="radical")
    printed_first = not _nonzero(mat_add(m_rad, mat_mul(k2, m_ltr)), columns)
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
    K, _ = ctx.structure_in_slots()
    samples = _slot_samples(ctx, "normal-screen", K, _antisymmetrised(kit.radical))
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
    K, _ = ctx.structure_in_slots()
    samples = _nonzero(_block(ctx, "transversal", K), _antisymmetrised(kit.screen_adapted))
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
    p, frame = ctx.params.p, ctx.frame
    K, _ = ctx.structure_in_slots()
    inverse = ctx.projectors("radical-transversal").inverse
    # G pairs each J N_k with the slot basis, so the display rows are G
    # times C^-1 of the display: K on the screen rows and K - p C^-1 on
    # the radical and transversal ones, the normal-screen rows being zero
    j_ltr = [ctx.structure.apply(n) for n in frame.ltr]
    pairings = mat_mul(_lowered(ctx.space, j_ltr), transpose(frame.slot_factor.basis))
    end, start = frame.slot_ranges["transversal"].stop, frame.slot_ranges["radical"].start
    display = mat_mul([row[:end] for row in pairings], K[:start] + _shifted(ctx, -p)[start:end])
    columns = _pairs(kit.screen_adapted, kit.screen_adapted)
    samples = _nonzero(display, columns)
    criterion = not samples
    oracle, bad = _component_oracle(ctx, kit.screen_adapted, geodesic=True, keep="radical")
    # the printed conjunction: L (J + p), P_radical and P_radical J
    # vanish on every screen pair
    conj_coupling = not _nonzero(_block(ctx, "transversal", _shifted(ctx, p)), columns)
    conj_screen_form = not _nonzero(_block(ctx, "radical", inverse), columns)
    conj_shape_clear = not _nonzero(_block(ctx, "radical", K), columns)
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
    K, _ = ctx.structure_in_slots()
    columns = _pairs(kit.radical, kit.screen_adapted)
    samples = _slot_samples(ctx, "radical", _shifted(ctx, -ctx.params.p), columns, negate=True)
    printed_clear = not _nonzero(_block(ctx, "radical", K), columns)
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
    _, j_hat = ctx.structure_in_slots()
    # C^-1 J S (J - p) is J^'s normal-screen columns times the
    # normal-screen rows of C^-1 (J - p), the normal screen coming last
    at = ctx.frame.slot_ranges["normal-screen"].start
    rows = mat_mul([row[at:] for row in j_hat], _shifted(ctx, -ctx.params.p)[at:])
    samples = _slot_samples(ctx, "screen", rows, columns)
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
