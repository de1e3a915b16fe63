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
point rather than statements about an ambient neighborhood.
"""

from __future__ import annotations

import copy
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .ambient import (
    MetallicStructure,
    validate_compatibility,
    validate_metallic,
)
from .errors import InternalInconsistency, NotLightlike
from .generators import null_dual_candidate
from .geometry import (
    AmbientJet,
    ChartJet,
    FieldKit,
    TangentJet,
    build_field_kit,
    chart_jet,
    derive,
    full_split,
    gauss_split,
    hl_vector,
    induced_connection,
    lie_bracket,
    metric_deviation,
    rad_vector,
    split_tangent,
)
from .linalg import (
    FactoredBasis,
    Mat,
    Subspace,
    Vec,
    is_zero_vec,
    lin_comb,
    mat_vec,
    rank,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .scalars import MetallicParams, QuadScalar
from .submanifold import PolynomialImmersion, build_frame


class Verdict(str, Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class CheckEntry:
    """One reported check: name, verdict, descriptor, exact witness data."""

    name: str
    verdict: Verdict
    reference: str
    witness: Mapping[str, object]


# Wire identifiers, in canonical execution order.  The descriptor says
# what the check does; reports embed it next to each verdict.
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

CHECK_ORDER: Tuple[str, ...] = (
    "metallic-validate",
    "compat-validate",
    "frame",
    "def-3.1",
    "thm-3.3",
    "def-4.1",
    "prop-4.2",
    "structure-eqs",
    "thm-3.5",
    "thm-3.6",
    "thm-3.7",
    "thm-3.8",
    "thm-3.9",
    "thm-4.5",
    "thm-4.6",
    "thm-4.7",
    "thm-4.8",
    "thm-4.9",
    "audit-nonexistence",
)

_WITNESS_CAP = 6


def _s(x: QuadScalar) -> str:
    return str(x)


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


def apply_structure_field(structure: MetallicStructure, field: AmbientJet) -> AmbientJet:
    """Compose the constant structure matrix with an ambient section:
    J applies to the value and to each partial."""
    return AmbientJet(
        structure.apply(field.value), tuple(structure.apply(d) for d in field.partials)
    )


# ---- slot projections ----


RADICAL_TRANSVERSAL_SLOTS = ("screen", "radical", "transversal", "normal-screen")
TRANSVERSAL_SLOTS = ("screen", "radical", "transversal", "mapped-screen", "mu")

# Single-letter aliases used by the split bookkeeping: each maps to the
# slots it projects onto.  Pairs listed in _COMPLEMENT_PAIRS must sum to
# the identity on their shared domain.
LETTER_SLOTS: Dict[str, Tuple[str, ...]] = {
    "T": ("screen",),
    "Q": ("radical",),
    "K1": ("transversal",),
    "K2": ("radical",),
    "D": ("mapped-screen",),
    "E": ("mu",),
    "S1": ("mapped-screen",),
    "S2": ("screen",),
    "T1": ("radical",),
    "T2": ("transversal",),
    "M1": ("screen",),
    "M2": ("mapped-screen",),
    "Q1": ("screen",),
    "Q2": ("mapped-screen", "mu"),
}

_COMPLEMENT_PAIRS = (
    ("T", "Q", ("screen", "radical")),
    ("K1", "K2", ("transversal", "radical")),
    ("D", "E", ("mapped-screen", "mu")),
    ("S1", "S2", ("mapped-screen", "screen")),
    ("T1", "T2", ("radical", "transversal")),
    ("M1", "M2", ("screen", "mapped-screen")),
    ("Q1", "Q2", ("screen", "mapped-screen", "mu")),
)


@dataclass(frozen=True)
class ProjectorSet:
    """Exact slot projections for one configuration mode at a point.

    The slots jointly span the ambient space, so every vector splits
    uniquely and each labeled projector is the sum of its slots'
    components.  The stacked slot basis is factored once (``factor``),
    and each letter's projector matrix is built from that factorization
    on first use, so a split is one matrix-vector product and so is a
    letter.  Letter aliases name the projections the split bookkeeping
    uses; audit() re-derives idempotence, image and kernel membership,
    and complement sums instead of trusting construction.
    """

    structure: MetallicStructure
    mode: str
    labels: Tuple[str, ...]
    bases: Tuple[Tuple[Vec, ...], ...]
    factor: FactoredBasis
    _letters: Dict[str, Mat] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def split(self, v: Vec) -> Dict[str, Vec]:
        space = self.structure.space
        coords = self.factor.coords(v)
        parts: Dict[str, Vec] = {}
        at = 0
        for label, basis in zip(self.labels, self.bases):
            k = len(basis)
            parts[label] = (
                lin_comb(coords[at : at + k], basis)
                if k
                else zero_vec(space.dim, space.params)
            )
            at += k
        return parts

    def letter(self, name: str, v: Vec) -> Vec:
        matrix = self._letters.get(name)
        if matrix is None:
            slots = LETTER_SLOTS[name]
            missing = [s for s in slots if s not in self.labels]
            if missing:
                raise InternalInconsistency(
                    f"projection {name} needs slots {missing} absent from mode {self.mode}",
                    mode=self.mode,
                )
            indices = []
            at = 0
            for label, basis in zip(self.labels, self.bases):
                if label in slots:
                    indices.extend(range(at, at + len(basis)))
                at += len(basis)
            matrix = self._letters[name] = self.factor.projector(indices)
        return mat_vec(matrix, v)

    def audit(self) -> List[str]:
        """Idempotence, image fixing, kernel killing, complement sums."""
        problems: List[str] = []
        slot_basis = dict(zip(self.labels, self.bases))
        for name, slots in LETTER_SLOTS.items():
            if any(s not in self.labels for s in slots):
                continue
            for s in slots:
                for v in slot_basis[s]:
                    if self.letter(name, v) != v:
                        problems.append(f"{name} does not fix its image slot {s}")
            for s in self.labels:
                if s in slots:
                    continue
                for v in slot_basis[s]:
                    img = self.letter(name, v)
                    if not is_zero_vec(img):
                        problems.append(f"{name} does not kill slot {s}")
                    if self.letter(name, img) != img:
                        problems.append(f"{name} is not idempotent")
        for a, b, domain in _COMPLEMENT_PAIRS:
            needed = set(LETTER_SLOTS[a]) | set(LETTER_SLOTS[b])
            if any(s not in self.labels for s in needed):
                continue
            for s in domain:
                for v in slot_basis[s]:
                    total = vec_add(self.letter(a, v), self.letter(b, v))
                    if total != v:
                        problems.append(f"{a}+{b} is not the identity on {s}")
        return problems


# ---- per-point shared state ----


class PointContext:
    """Frame, lazy chart jet and kit, lazy predicates and projections
    at one point."""

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
        self._rad_trans: Optional[Tuple[bool, Dict[str, object]]] = None
        self._trans: Optional[Tuple[bool, Dict[str, object]]] = None
        self._mu: Optional[Subspace] = None
        self._proj: Dict[str, ProjectorSet] = {}

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

    def _radical_clause(self) -> Tuple[bool, Tuple[Vec, ...]]:
        # Structure images of the radical basis, tested for spanning the
        # null transversal complement exactly.  When they do, every image
        # pairs to zero with every transversal vector, so self-adjointness
        # strips the transversal component from the N images and the
        # quadratic relation forces p times the (invertible) transfer
        # matrix to vanish.  The configuration therefore only exists at
        # p = 0; seeing it at p >= 1 means the frame construction or the
        # structure validators are broken.
        frame = self.frame
        space = self.space
        ltr_span = Subspace(frame.ltr, space.dim, space.params)
        j_rad = self.mapped_radical()
        rad_images = Subspace(j_rad, space.dim, space.params)
        radical_clause = (
            rad_images.dim == ltr_span.dim
            and ltr_span.contains_subspace(rad_images)
            and rad_images.contains_subspace(ltr_span)
        )
        if radical_clause and self.params.p >= 1 and self.structure_valid():
            raise InternalInconsistency(
                "radical directions map onto the null transversal span, which the"
                " trace obstruction rules out for p >= 1"
            )
        return radical_clause, j_rad

    def radical_transversal(self) -> Tuple[bool, Dict[str, object]]:
        """Radical maps onto the transversal span, screen is invariant."""
        if self._rad_trans is not None:
            return self._rad_trans
        self._require_lightlike()
        frame = self.frame
        radical_clause, j_rad = self._radical_clause()
        j_scr = self.mapped_screen()
        screen_clause = all(frame.screen.contains(v) for v in j_scr) and (
            rank(j_scr) == frame.screen.dim
        )
        witness: Dict[str, object] = {
            "radical_images": _smat(j_rad),
            "radical_images_span_transversal": radical_clause,
            "screen_images": _smat(j_scr),
            "screen_invariant": screen_clause,
        }
        self._rad_trans = (radical_clause and screen_clause, witness)
        return self._rad_trans

    def transversal(self) -> Tuple[bool, Dict[str, object]]:
        """Radical maps onto the transversal span, screen maps into the
        normal screen."""
        if self._trans is not None:
            return self._trans
        self._require_lightlike()
        frame = self.frame
        radical_clause, j_rad = self._radical_clause()
        j_scr = self.mapped_screen()
        screen_clause = all(frame.normal_screen.contains(v) for v in j_scr) and (
            rank(j_scr) == frame.screen.dim
        )
        witness: Dict[str, object] = {
            "radical_images": _smat(j_rad),
            "radical_images_span_transversal": radical_clause,
            "screen_images": _smat(j_scr),
            "screen_maps_into_normal_screen": screen_clause,
        }
        self._trans = (radical_clause and screen_clause, witness)
        return self._trans

    def mu_subspace(self) -> Subspace:
        """Orthogonal complement of the mapped screen inside the normal screen."""
        if self._mu is None:
            space = self.space
            j_scr = Subspace(self.mapped_screen(), space.dim, space.params)
            mu = self.frame.normal_screen.intersect(space.orthogonal_complement(j_scr))
            if j_scr.dim + mu.dim != self.frame.normal_screen.dim:
                raise InternalInconsistency(
                    "mapped screen and its complement do not fill the normal screen"
                )
            self._mu = mu
        return self._mu

    def projectors(self, mode: str) -> ProjectorSet:
        if mode in self._proj:
            return self._proj[mode]
        frame = self.frame
        if mode == "radical-transversal":
            labels = RADICAL_TRANSVERSAL_SLOTS
            bases = (
                frame.screen.basis,
                frame.rad_basis,
                frame.ltr,
                frame.normal_screen.basis,
            )
        elif mode == "transversal":
            labels = TRANSVERSAL_SLOTS
            bases = (
                frame.screen.basis,
                frame.rad_basis,
                frame.ltr,
                self.mapped_screen(),
                self.mu_subspace().basis,
            )
        else:
            raise InternalInconsistency(f"unknown projection mode {mode!r}", mode=mode)
        factor = frame.factored([v for b in bases for v in b])
        # a basis of the ambient space: independent and spanning
        if not len(factor.basis) == factor.rank == self.space.dim:
            raise InternalInconsistency(
                "slot bases do not decompose the ambient space", mode=mode
            )
        proj = ProjectorSet(self.structure, mode, labels, bases, factor)
        self._proj[mode] = proj
        return proj


# ---- structure validators as checks ----


def check_structure_quadratic(structure: MetallicStructure) -> CheckEntry:
    ok, defects = validate_metallic(structure.matrix, structure.space.params)
    witness = {
        "defects": [d.message() for d in defects[:_WITNESS_CAP]],
        "defect_count": len(defects),
        "truncated": len(defects) > _WITNESS_CAP,
    }
    return CheckEntry(
        "metallic-validate",
        Verdict.HOLDS if ok else Verdict.FAILS,
        REFERENCES["metallic-validate"],
        witness,
    )


def check_structure_compat(structure: MetallicStructure) -> CheckEntry:
    ok, defects = validate_compatibility(structure.space, structure.matrix)
    witness = {
        "defects": [d.message() for d in defects[:_WITNESS_CAP]],
        "defect_count": len(defects),
        "truncated": len(defects) > _WITNESS_CAP,
    }
    return CheckEntry(
        "compat-validate",
        Verdict.HOLDS if ok else Verdict.FAILS,
        REFERENCES["compat-validate"],
        witness,
    )


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
                "self_pairing": _s(space.inner(vec, vec)),
            }
        )
        if not in_radical:
            nonzero = [f"{_s(p)}" for p in pairings if p != QuadScalar.zero(ctx.params)]
            notices.append(
                f"declared radical vector {k} is not in the computed radical; "
                f"nonzero tangent pairings: {', '.join(nonzero) if nonzero else 'none'}"
            )
    if declared_rows:
        witness["declared_radical"] = declared_rows
    entry = CheckEntry("frame", Verdict.HOLDS, REFERENCES["frame"], witness)
    return entry, tuple(notices)


# ---- configuration predicates as checks ----


def check_radical_transversal_config(ctx: PointContext) -> CheckEntry:
    if not ctx.structure_valid():
        return _not_applicable("def-3.1", "structure endomorphism fails its validators")
    holds, witness = ctx.radical_transversal()
    return CheckEntry(
        "def-3.1",
        Verdict.HOLDS if holds else Verdict.FAILS,
        REFERENCES["def-3.1"],
        witness,
    )


def check_transversal_config(ctx: PointContext) -> CheckEntry:
    if not ctx.structure_valid():
        return _not_applicable("def-4.1", "structure endomorphism fails its validators")
    holds, witness = ctx.transversal()
    return CheckEntry(
        "def-4.1",
        Verdict.HOLDS if holds else Verdict.FAILS,
        REFERENCES["def-4.1"],
        witness,
    )


def _not_applicable(name: str, reason: str) -> CheckEntry:
    return CheckEntry(name, Verdict.NOT_APPLICABLE, REFERENCES[name], {"reason": reason})


def _gate(ctx: PointContext, name: str, mode: str) -> Optional[CheckEntry]:
    """Common hypothesis gate: valid structure plus the mode predicate."""
    if not ctx.structure_valid():
        return _not_applicable(name, "structure endomorphism fails its validators")
    if mode == "radical-transversal":
        holds, _ = ctx.radical_transversal()
        if not holds:
            return _not_applicable(name, "point is not in the radical-transversal configuration")
    elif mode == "transversal":
        holds, _ = ctx.transversal()
        if not holds:
            return _not_applicable(name, "point is not in the transversal configuration")
    else:
        raise InternalInconsistency(f"unknown gate mode {mode!r}")
    return None


def check_normal_screen_invariance(ctx: PointContext) -> CheckEntry:
    """Consequence audit: the normal screen must be invariant whenever
    the radical-transversal predicate holds."""
    gate = _gate(ctx, "thm-3.3", "radical-transversal")
    if gate is not None:
        return gate
    frame = ctx.frame
    for z in frame.normal_screen.basis:
        image = ctx.structure.apply(z)
        if not frame.normal_screen.contains(image):
            raise InternalInconsistency(
                "normal screen lost invariance in a radical-transversal configuration"
            )
    witness = {
        "normal_screen_dim": frame.normal_screen.dim,
        "images_checked": frame.normal_screen.dim,
    }
    return CheckEntry("thm-3.3", Verdict.HOLDS, REFERENCES["thm-3.3"], witness)


def check_mapped_screen_complement_invariance(ctx: PointContext) -> CheckEntry:
    """Consequence audit: the complement of the mapped screen inside the
    normal screen must be invariant whenever the transversal predicate
    holds."""
    gate = _gate(ctx, "prop-4.2", "transversal")
    if gate is not None:
        return gate
    mu = ctx.mu_subspace()
    for v in mu.basis:
        image = ctx.structure.apply(v)
        if not mu.contains(image):
            raise InternalInconsistency(
                "mapped-screen complement lost invariance in a transversal configuration"
            )
    witness = {"mu_dim": mu.dim, "images_checked": mu.dim}
    return CheckEntry("prop-4.2", Verdict.HOLDS, REFERENCES["prop-4.2"], witness)


# ---- split helpers used by the criterion checks ----


def _constant_split_fields(
    ctx: PointContext, j: int
) -> Tuple[TangentJet, TangentJet]:
    """Coordinate field number j split into constant-coefficient screen
    and radical parts."""
    frame = ctx.frame
    chart = ctx.chart()
    w0 = frame.tangent_jacobian[j]
    screen_part, rad_coeffs = split_tangent(frame, w0)
    rad_part = rad_vector(frame, rad_coeffs)
    tw = chart.tangent(frame.jacobian_factor.coords(screen_part))
    qw = chart.tangent(frame.jacobian_factor.coords(rad_part))
    return tw, qw


def _transfer_parts(ctx: PointContext, v: Vec) -> Tuple[Vec, Vec]:
    """Structure image of a transversal-frame vector split into its
    transversal and radical parts, returned as ambient vectors."""
    parts = full_split(ctx.frame, ctx.structure.apply(v))
    k1 = hl_vector(ctx.frame, parts.ltr_coeffs)
    k2 = parts.tangent
    if not ctx.frame.radical.contains(k2):
        raise InternalInconsistency(
            "transversal image acquired a screen component"
        )
    return k1, k2


# ---- structure equation audit ----


def _structure_equations_radical_transversal(ctx: PointContext) -> int:
    """Slot-by-slot reassembly for the invariant-screen configuration.

    For every coordinate pair the three regrouped split equations must
    vanish exactly; any nonzero residual is an internal bug because the
    grouping is a pointwise identity once the predicate holds.
    """
    frame = ctx.frame
    coords = ctx.chart().coordinates
    J = ctx.structure
    pairs = 0
    for j, w in enumerate(coords):
        tw, qw = _constant_split_fields(ctx, j)
        sw_field = apply_structure_field(J, tw)
        lw_field = apply_structure_field(J, qw)
        for i, u in enumerate(coords):
            sw = full_split(frame, derive(u, sw_field))
            lw = full_split(frame, derive(u, lw_field))
            g = gauss_split(frame, u, w)
            ind_screen, ind_rad = split_tangent(frame, g.induced)
            s_nabla = J.apply(ind_screen)
            l_nabla = J.apply(rad_vector(frame, ind_rad))
            jhl = full_split(frame, J.apply(hl_vector(frame, g.hl)))
            k1_jhl = hl_vector(frame, jhl.ltr_coeffs)
            k2_jhl = jhl.tangent
            jhs = J.apply(g.hs)
            res_tangent = vec_sub(
                vec_sub(vec_add(sw.tangent, lw.tangent), s_nabla), k2_jhl
            )
            res_screen_transversal = vec_sub(
                vec_add(sw.normal_screen, lw.normal_screen), jhs
            )
            res_null_transversal = vec_sub(
                vec_sub(
                    vec_add(hl_vector(frame, sw.ltr_coeffs), hl_vector(frame, lw.ltr_coeffs)),
                    l_nabla,
                ),
                k1_jhl,
            )
            for label, res in (
                ("tangent", res_tangent),
                ("screen-transversal", res_screen_transversal),
                ("null-transversal", res_null_transversal),
            ):
                if not is_zero_vec(res):
                    raise InternalInconsistency(
                        f"split regrouping failed in the {label} slot at pair ({i}, {j})"
                    )
            pairs += 1
    return pairs


def _structure_equations_transversal(ctx: PointContext) -> int:
    """Slot-by-slot reassembly for the mapped-screen configuration."""
    frame = ctx.frame
    coords = ctx.chart().coordinates
    J = ctx.structure
    proj = ctx.projectors("transversal")
    pairs = 0
    for j, w in enumerate(coords):
        tw, qw = _constant_split_fields(ctx, j)
        kw_field = apply_structure_field(J, tw)
        lw_field = apply_structure_field(J, qw)
        for i, u in enumerate(coords):
            kw = full_split(frame, derive(u, kw_field))
            lw = full_split(frame, derive(u, lw_field))
            g = gauss_split(frame, u, w)
            ind_screen, ind_rad = split_tangent(frame, g.induced)
            k_nabla = J.apply(ind_screen)
            l_nabla = J.apply(rad_vector(frame, ind_rad))
            jhl = full_split(frame, J.apply(hl_vector(frame, g.hl)))
            k1_jhl = hl_vector(frame, jhl.ltr_coeffs)
            k2_jhl = jhl.tangent
            d_hs = proj.letter("D", g.hs)
            e_hs = proj.letter("E", g.hs)
            b_hs = J.apply(d_hs)
            c_hs = J.apply(e_hs)
            s1_b = proj.letter("S1", b_hs)
            s2_b = proj.letter("S2", b_hs)
            res_tangent = vec_sub(
                vec_sub(vec_add(kw.tangent, lw.tangent), k2_jhl), s2_b
            )
            res_screen_transversal = vec_sub(
                vec_sub(
                    vec_sub(vec_add(kw.normal_screen, lw.normal_screen), k_nabla),
                    s1_b,
                ),
                c_hs,
            )
            res_null_transversal = vec_sub(
                vec_sub(
                    vec_add(hl_vector(frame, kw.ltr_coeffs), hl_vector(frame, lw.ltr_coeffs)),
                    l_nabla,
                ),
                k1_jhl,
            )
            for label, res in (
                ("tangent", res_tangent),
                ("screen-transversal", res_screen_transversal),
                ("null-transversal", res_null_transversal),
            ):
                if not is_zero_vec(res):
                    raise InternalInconsistency(
                        f"split regrouping failed in the {label} slot at pair ({i}, {j})"
                    )
            pairs += 1
    return pairs


def check_structure_equations(ctx: PointContext) -> CheckEntry:
    if not ctx.structure_valid():
        return _not_applicable("structure-eqs", "structure endomorphism fails its validators")
    rt, _ = ctx.radical_transversal()
    if rt:
        mode = "radical-transversal"
        equations = _structure_equations_radical_transversal
    else:
        tr, _ = ctx.transversal()
        if not tr:
            return _not_applicable(
                "structure-eqs", "point is in neither named configuration"
            )
        mode = "transversal"
        equations = _structure_equations_transversal
    try:
        problems = ctx.projectors(mode).audit()
        if problems:
            raise InternalInconsistency("; ".join(problems[:3]))
        pairs = equations(ctx)
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


def _metric_oracle(ctx: PointContext) -> Tuple[bool, int]:
    """Deviation of the induced connection from metricity, on all
    coordinate triples; the deviation is a tensor, so coordinate fields
    span every case."""
    fields = ctx.chart().coordinates
    zero = QuadScalar.zero(ctx.params)
    checked = 0
    ok = True
    for w in fields:
        induced = [induced_connection(ctx.frame, w, u) for u in fields]
        for u, du in zip(fields, induced):
            for v, dv in zip(fields, induced):
                checked += 1
                if metric_deviation(ctx.frame, w, u, v, du, dv) != zero:
                    ok = False
    return ok, checked


def _screen_bracket_oracle(ctx: PointContext, kit: FieldKit) -> Tuple[bool, List[Tuple[List[int], Vec]]]:
    """Radical components of adapted screen field brackets."""
    frame = ctx.frame
    bad: List[Tuple[List[int], Vec]] = []
    s = len(kit.screen_adapted)
    for a in range(s):
        for b in range(a + 1, s):
            br = lie_bracket(kit.screen_adapted[a], kit.screen_adapted[b])
            _, rad_coeffs = split_tangent(frame, br)
            if any(c != QuadScalar.zero(ctx.params) for c in rad_coeffs):
                bad.append(([a, b], rad_coeffs))
    return (not bad), bad


def _radical_bracket_oracle(ctx: PointContext, kit: FieldKit) -> Tuple[bool, List[Tuple[List[int], Vec]]]:
    """Screen components of radical field brackets."""
    frame = ctx.frame
    bad: List[Tuple[List[int], Vec]] = []
    r = len(kit.radical)
    for c in range(r):
        for d in range(c + 1, r):
            br = lie_bracket(kit.radical[c], kit.radical[d])
            screen_part, _ = split_tangent(frame, br)
            if not is_zero_vec(screen_part):
                bad.append(([c, d], screen_part))
    return (not bad), bad


def _radical_geodesic_oracle(ctx: PointContext, kit: FieldKit) -> Tuple[bool, List[Tuple[List[int], Vec]]]:
    """Screen components of induced derivatives of radical fields along
    radical directions (ordered pairs, diagonal included)."""
    frame = ctx.frame
    bad: List[Tuple[List[int], Vec]] = []
    for c, w in enumerate(kit.radical):
        for d, u in enumerate(kit.radical):
            g = gauss_split(frame, w, u)
            screen_part, _ = split_tangent(frame, g.induced)
            if not is_zero_vec(screen_part):
                bad.append(([c, d], screen_part))
    return (not bad), bad


def _screen_geodesic_oracle(ctx: PointContext, kit: FieldKit) -> Tuple[bool, List[Tuple[List[int], Vec]]]:
    """Radical components of induced derivatives of adapted screen
    fields along each other (ordered pairs, diagonal included)."""
    frame = ctx.frame
    bad: List[Tuple[List[int], Vec]] = []
    for a, w in enumerate(kit.screen_adapted):
        for b, u in enumerate(kit.screen_adapted):
            g = gauss_split(frame, w, u)
            _, rad_coeffs = split_tangent(frame, g.induced)
            if any(c != QuadScalar.zero(ctx.params) for c in rad_coeffs):
                bad.append(([a, b], rad_coeffs))
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


# ---- invariant-screen configuration criteria ----


def check_metric_connection_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Induced connection metric iff no mapped-radical shape operator
    has a screen component."""
    gate = _gate(ctx, "thm-3.5", "radical-transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    samples: List[Tuple[List[int], Vec]] = []
    for c, xi_field in enumerate(kit.radical):
        section = apply_structure_field(ctx.structure, xi_field)
        for j, u in enumerate(ctx.chart().coordinates):
            d = derive(u, section)
            shape = vec_neg(full_split(frame, d).tangent)
            screen_part, _ = split_tangent(frame, shape)
            if not is_zero_vec(screen_part):
                samples.append(([c, j], screen_part))
    criterion = not samples
    oracle, checked = _metric_oracle(ctx)
    witness: Dict[str, object] = {
        "screen_components": _residual_witness(samples),
        "deviation_triples_checked": checked,
    }
    return _bind("thm-3.5", criterion, oracle, witness)


def check_screen_integrability_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution integrable iff the null form is symmetric on
    mapped screen pairs."""
    gate = _gate(ctx, "thm-3.6", "radical-transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    s = frame.screen.dim
    if s == 0:
        return CheckEntry(
            "thm-3.6", Verdict.HOLDS, REFERENCES["thm-3.6"], {"vacuous": True}
        )
    samples: List[Tuple[List[int], Vec]] = []
    # the criterion uses the literal structure-composed adapted fields,
    # the same gauge the bracket oracle probes
    plain = [apply_structure_field(ctx.structure, f) for f in kit.screen_adapted]
    for a in range(s):
        for b in range(a + 1, s):
            left = full_split(frame, derive(kit.screen_adapted[a], plain[b])).ltr_coeffs
            right = full_split(frame, derive(kit.screen_adapted[b], plain[a])).ltr_coeffs
            diff = tuple(x - y for x, y in zip(left, right))
            if any(c != QuadScalar.zero(ctx.params) for c in diff):
                samples.append(([a, b], diff))
    criterion = not samples
    oracle, bad = _screen_bracket_oracle(ctx, kit)
    witness: Dict[str, object] = {
        "asymmetry": _residual_witness(samples),
        "bracket_radical_components": _residual_witness(bad),
    }
    return _bind("thm-3.6", criterion, oracle, witness)


def check_radical_integrability_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution integrable iff the mapped-radical shape
    operators are symmetric on radical pairs."""
    gate = _gate(ctx, "thm-3.7", "radical-transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    r = frame.radical_dim
    sections = [apply_structure_field(ctx.structure, f) for f in kit.radical]
    samples: List[Tuple[List[int], Vec]] = []
    for c in range(r):
        for d in range(c + 1, r):
            left = vec_neg(
                full_split(frame, derive(kit.radical[d], sections[c])).tangent
            )
            right = vec_neg(
                full_split(frame, derive(kit.radical[c], sections[d])).tangent
            )
            diff = vec_sub(left, right)
            if not is_zero_vec(diff):
                samples.append(([c, d], diff))
    criterion = not samples
    oracle, bad = _radical_bracket_oracle(ctx, kit)
    witness: Dict[str, object] = {
        "shape_asymmetry": _residual_witness(samples),
        "bracket_screen_components": _residual_witness(bad),
    }
    return _bind("thm-3.7", criterion, oracle, witness)


def check_radical_foliation_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution totally geodesic iff the screen form
    transfers through the structure map with the linear coefficient."""
    gate = _gate(ctx, "thm-3.8", "radical-transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    s = frame.screen.dim
    if s == 0:
        return CheckEntry(
            "thm-3.8", Verdict.HOLDS, REFERENCES["thm-3.8"], {"vacuous": True}
        )
    p = QuadScalar(ctx.params.p, 0, ctx.params)
    samples: List[Tuple[List[int], Vec]] = []
    for c, w in enumerate(kit.radical):
        for b in range(s):
            z = kit.screen_adapted[b]
            mapped = apply_structure_field(ctx.structure, z)
            d_mapped = full_split(frame, derive(w, mapped))
            _, h1 = split_tangent(frame, d_mapped.tangent)
            g = gauss_split(frame, w, z)
            _, h0 = split_tangent(frame, g.induced)
            diff = vec_sub(rad_vector(frame, h1), vec_scale(p, rad_vector(frame, h0)))
            if not is_zero_vec(diff):
                samples.append(([c, b], diff))
    criterion = not samples
    oracle, bad = _radical_geodesic_oracle(ctx, kit)
    witness: Dict[str, object] = {
        "transfer_residuals": _residual_witness(samples),
        "induced_screen_components": _residual_witness(bad),
    }
    return _bind("thm-3.8", criterion, oracle, witness)


def check_screen_foliation_radical_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution totally geodesic iff the transferred screen
    and null couplings balance against every transversal image.

    The printed form of this criterion groups its terms so that one of
    its two alternatives silently trivializes when the transversal
    images lose their transversal component; the verdict is bound to
    the exact balanced display, and both printed alternatives are
    reported in the witness.
    """
    gate = _gate(ctx, "thm-3.9", "radical-transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    space = ctx.space
    s = frame.screen.dim
    if s == 0:
        return CheckEntry(
            "thm-3.9", Verdict.HOLDS, REFERENCES["thm-3.9"], {"vacuous": True}
        )
    p = QuadScalar(ctx.params.p, 0, ctx.params)
    transfer = [_transfer_parts(ctx, n) for n in frame.ltr]
    no_transversal_component = all(is_zero_vec(k1) for k1, _ in transfer)
    composed = [apply_structure_field(ctx.structure, f) for f in kit.screen_adapted]
    samples: List[Tuple[List[int], List[QuadScalar]]] = []
    printed_samples: List[Tuple[List[int], Vec]] = []
    for a in range(s):
        for b in range(s):
            d1 = full_split(frame, derive(kit.screen_adapted[a], composed[b]))
            _, h1_coeffs = split_tangent(frame, d1.tangent)
            h1 = rad_vector(frame, h1_coeffs)
            hl1 = hl_vector(frame, d1.ltr_coeffs)
            g0 = gauss_split(frame, kit.screen_adapted[a], kit.screen_adapted[b])
            _, h0_coeffs = split_tangent(frame, g0.induced)
            h0 = rad_vector(frame, h0_coeffs)
            hl0 = hl_vector(frame, g0.hl)
            row: List[QuadScalar] = []
            for k1, k2 in transfer:
                res = (
                    space.inner(h1, k1)
                    + space.inner(hl1, k2)
                    - p * (space.inner(h0, k1) + space.inner(hl0, k2))
                )
                row.append(res)
            if any(x != QuadScalar.zero(ctx.params) for x in row):
                samples.append(([a, b], row))
            k2_hl1 = full_split(frame, ctx.structure.apply(hl1)).tangent
            k2_hl0 = full_split(frame, ctx.structure.apply(hl0)).tangent
            printed = vec_sub(
                vec_add(h1, k2_hl1), vec_scale(p, vec_add(h0, k2_hl0))
            )
            if not is_zero_vec(printed):
                printed_samples.append(([a, b], printed))
    criterion = not samples
    oracle, bad = _screen_geodesic_oracle(ctx, kit)
    printed_first = not printed_samples
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


def check_radical_integrability_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution integrable iff the normal-screen couplings
    of the mapped radical sections agree on radical pairs."""
    gate = _gate(ctx, "thm-4.5", "transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    r = frame.radical_dim
    sections = [apply_structure_field(ctx.structure, f) for f in kit.radical]
    samples: List[Tuple[List[int], Vec]] = []
    for c in range(r):
        for d in range(c + 1, r):
            left = full_split(frame, derive(kit.radical[c], sections[d])).normal_screen
            right = full_split(frame, derive(kit.radical[d], sections[c])).normal_screen
            diff = vec_sub(left, right)
            if not is_zero_vec(diff):
                samples.append(([c, d], diff))
    criterion = not samples
    oracle, bad = _radical_bracket_oracle(ctx, kit)
    witness: Dict[str, object] = {
        "coupling_asymmetry": _residual_witness(samples),
        "bracket_screen_components": _residual_witness(bad),
    }
    return _bind("thm-4.5", criterion, oracle, witness)


def check_screen_integrability_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution integrable iff the null couplings of the
    mapped screen sections agree on screen pairs."""
    gate = _gate(ctx, "thm-4.6", "transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    s = frame.screen.dim
    if s == 0:
        return CheckEntry(
            "thm-4.6", Verdict.HOLDS, REFERENCES["thm-4.6"], {"vacuous": True}
        )
    sections = [apply_structure_field(ctx.structure, f) for f in kit.screen_adapted]
    samples: List[Tuple[List[int], Vec]] = []
    for a in range(s):
        for b in range(a + 1, s):
            left = full_split(frame, derive(kit.screen_adapted[a], sections[b])).ltr_coeffs
            right = full_split(frame, derive(kit.screen_adapted[b], sections[a])).ltr_coeffs
            diff = tuple(x - y for x, y in zip(left, right))
            if any(c != QuadScalar.zero(ctx.params) for c in diff):
                samples.append(([a, b], diff))
    criterion = not samples
    oracle, bad = _screen_bracket_oracle(ctx, kit)
    witness: Dict[str, object] = {
        "coupling_asymmetry": _residual_witness(samples),
        "bracket_radical_components": _residual_witness(bad),
    }
    return _bind("thm-4.6", criterion, oracle, witness)


def check_screen_foliation_transversal(ctx: PointContext) -> CheckEntry:
    """Screen distribution totally geodesic iff the mapped-screen split
    balances against every transversal image.

    The printed form of this criterion carries a sign slip between its
    statement and its own derivation; the verdict is bound to the
    sign-consistent balanced display, and the printed three-part
    conjunction is evaluated and reported in the witness.
    """
    gate = _gate(ctx, "thm-4.7", "transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    space = ctx.space
    s = frame.screen.dim
    if s == 0:
        return CheckEntry(
            "thm-4.7", Verdict.HOLDS, REFERENCES["thm-4.7"], {"vacuous": True}
        )
    p = QuadScalar(ctx.params.p, 0, ctx.params)
    composed = [apply_structure_field(ctx.structure, f) for f in kit.screen_adapted]
    j_ltr = [ctx.structure.apply(n) for n in frame.ltr]
    samples: List[Tuple[List[int], List[QuadScalar]]] = []
    conj_coupling = True
    conj_screen_form = True
    conj_shape_clear = True
    for a in range(s):
        for b in range(s):
            d1 = full_split(frame, derive(kit.screen_adapted[a], composed[b]))
            shape = vec_neg(d1.tangent)
            dl = hl_vector(frame, d1.ltr_coeffs)
            g0 = gauss_split(frame, kit.screen_adapted[a], kit.screen_adapted[b])
            _, h0_coeffs = split_tangent(frame, g0.induced)
            h0 = rad_vector(frame, h0_coeffs)
            hl0 = hl_vector(frame, g0.hl)
            display = vec_add(
                vec_add(vec_neg(shape), dl),
                vec_neg(vec_add(vec_scale(p, h0), vec_scale(p, hl0))),
            )
            row = [space.inner(display, jn) for jn in j_ltr]
            if any(x != QuadScalar.zero(ctx.params) for x in row):
                samples.append(([a, b], row))
            if not is_zero_vec(vec_add(dl, vec_scale(p, hl0))):
                conj_coupling = False
            if not is_zero_vec(h0):
                conj_screen_form = False
            _, shape_rad = split_tangent(frame, shape)
            if any(c != QuadScalar.zero(ctx.params) for c in shape_rad):
                conj_shape_clear = False
    criterion = not samples
    oracle, bad = _screen_geodesic_oracle(ctx, kit)
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


def check_radical_foliation_transversal(ctx: PointContext) -> CheckEntry:
    """Radical distribution totally geodesic iff the mapped-screen shape
    operators stay out of the radical after the screen-form correction.

    The printed form of this criterion drops the screen-form correction
    term; the verdict is bound to the corrected display and the printed
    shape-only condition is reported in the witness.
    """
    gate = _gate(ctx, "thm-4.8", "transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    s = frame.screen.dim
    if s == 0:
        return CheckEntry(
            "thm-4.8", Verdict.HOLDS, REFERENCES["thm-4.8"], {"vacuous": True}
        )
    p = QuadScalar(ctx.params.p, 0, ctx.params)
    samples: List[Tuple[List[int], Vec]] = []
    printed_clear = True
    for c, w in enumerate(kit.radical):
        for b in range(s):
            z = kit.screen_adapted[b]
            mapped = apply_structure_field(ctx.structure, z)
            d1 = full_split(frame, derive(w, mapped))
            shape = vec_neg(d1.tangent)
            g0 = gauss_split(frame, w, z)
            _, h0_coeffs = split_tangent(frame, g0.induced)
            h0 = rad_vector(frame, h0_coeffs)
            corrected = vec_add(shape, vec_scale(p, h0))
            _, rad_coeffs = split_tangent(frame, corrected)
            if any(x != QuadScalar.zero(ctx.params) for x in rad_coeffs):
                samples.append(([c, b], rad_vector(frame, rad_coeffs)))
            _, shape_rad = split_tangent(frame, shape)
            if any(x != QuadScalar.zero(ctx.params) for x in shape_rad):
                printed_clear = False
    criterion = not samples
    oracle, bad = _radical_geodesic_oracle(ctx, kit)
    witness: Dict[str, object] = {
        "corrected_radical_components": _residual_witness(samples),
        "induced_screen_components": _residual_witness(bad),
        "printed_shape_avoids_radical": printed_clear,
        "printed_form_matches_verdict": printed_clear == criterion,
    }
    return _bind("thm-4.8", criterion, oracle, witness)


def check_metric_connection_transversal(ctx: PointContext) -> CheckEntry:
    """Induced connection metric iff the screen components of the mapped
    couplings of the radical images balance.

    The two named projections in the printed statement are only defined
    inside its own derivation; they are realized here as the screen
    components of the two mapped couplings.
    """
    gate = _gate(ctx, "thm-4.9", "transversal")
    if gate is not None:
        return gate
    kit = ctx.kit()
    frame = ctx.frame
    proj = ctx.projectors("transversal")
    p = QuadScalar(ctx.params.p, 0, ctx.params)
    samples: List[Tuple[List[int], Vec]] = []
    for c, xi_field in enumerate(kit.radical):
        section = apply_structure_field(ctx.structure, xi_field)
        for j, u in enumerate(ctx.chart().coordinates):
            d = full_split(frame, derive(u, section))
            q1 = proj.letter("Q1", ctx.structure.apply(d.normal_screen))
            g = gauss_split(frame, u, xi_field)
            m1 = proj.letter("M1", ctx.structure.apply(g.hs))
            res = vec_sub(q1, vec_scale(p, m1))
            if not is_zero_vec(res):
                samples.append(([c, j], res))
    criterion = not samples
    oracle, checked = _metric_oracle(ctx)
    witness: Dict[str, object] = {
        "coupling_residuals": _residual_witness(samples),
        "deviation_triples_checked": checked,
    }
    return _bind("thm-4.9", criterion, oracle, witness)


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
            params = MetallicParams(p, q)
            zero = QuadScalar.zero(params)
            satisfied = 0
            image_in_span = 0
            for _ in range(trials):
                space, structure, xi, nv = null_dual_candidate(rng, params)
                jxi = structure.apply(xi)
                a = space.inner(jxi, xi)
                b = space.inner(jxi, jxi)
                if b != QuadScalar(p, 0, params) * a:
                    raise InternalInconsistency(
                        "transfer identity failed on a generated candidate",
                        check="audit-nonexistence",
                    )
                if b == zero and a == QuadScalar.one(params):
                    satisfied += 1
                if not is_zero_vec(jxi) and rank((nv, jxi)) == 1:
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


# ---- dispatch table for the point checks ----


POINT_CHECK_FUNCTIONS = {
    "def-3.1": check_radical_transversal_config,
    "thm-3.3": check_normal_screen_invariance,
    "def-4.1": check_transversal_config,
    "prop-4.2": check_mapped_screen_complement_invariance,
    "structure-eqs": check_structure_equations,
    "thm-3.5": check_metric_connection_radical_transversal,
    "thm-3.6": check_screen_integrability_radical_transversal,
    "thm-3.7": check_radical_integrability_radical_transversal,
    "thm-3.8": check_radical_foliation_radical_transversal,
    "thm-3.9": check_screen_foliation_radical_transversal,
    "thm-4.5": check_radical_integrability_transversal,
    "thm-4.6": check_screen_integrability_transversal,
    "thm-4.7": check_screen_foliation_transversal,
    "thm-4.8": check_radical_foliation_transversal,
    "thm-4.9": check_metric_connection_transversal,
}
