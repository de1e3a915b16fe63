"""Execute a scene's requested checks and assemble a deterministic report.

Point checks run at every declared sample point; the scene-level verdict
for a check is HOLDS only when every point holds, FAILS when any point
fails, and NOT_APPLICABLE otherwise.  A point where the hypothesis
machinery itself refuses (nondegenerate metric, missing data) becomes
a NOT_APPLICABLE verdict with the reason, never a silent skip.

Reports are canonical JSON: same scene, same seed, same bytes.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from .classifier import (
    POINT_CHECK_FUNCTIONS,
    REFERENCES,
    CheckEntry,
    PointContext,
    Verdict,
    check_frame,
    check_single_null_obstruction,
    check_structure_compat,
    check_structure_quadratic,
)
from .errors import (
    InsufficientScene,
    InternalInconsistency,
    LightlikeLabError,
    NotLightlike,
    ValidationError,
)
from .geometry import pairing_gradient
from .linalg import rank
from .scenes import Scene
from .submanifold import polynomial_jet

TOOL_VERSION = "0.1.0"


class Report(NamedTuple):
    version: str
    scene_digest: str
    seed: int
    entries: Tuple[Dict, ...]
    summary: Dict[str, int]
    notices: Tuple[str, ...]
    float_check: Optional[Dict] = None

    def to_dict(self) -> Dict:
        out: Dict[str, object] = {
            "version": self.version,
            "scene_digest": self.scene_digest,
            "seed": self.seed,
            "entries": list(self.entries),
            "summary": self.summary,
            "notices": list(self.notices),
        }
        if self.float_check is not None:
            out["float_check"] = self.float_check
        return out

    def serialize(self) -> bytes:
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        return blob.encode("utf-8") + b"\n"

    def exit_status(self) -> int:
        return 1 if self.summary.get("FAILS", 0) else 0


def _point_json(point) -> List[str]:
    return [x.to_string() for x in point]


def _aggregate(verdicts: List[Verdict]) -> Verdict:
    if any(v == Verdict.FAILS for v in verdicts):
        return Verdict.FAILS
    if verdicts and all(v == Verdict.HOLDS for v in verdicts):
        return Verdict.HOLDS
    return Verdict.NOT_APPLICABLE


class _SceneRun:
    def __init__(self, scene: Scene, seed: int) -> None:
        self.scene = scene
        self.seed = seed
        self.notices: List[str] = []
        self._contexts: Dict[int, PointContext] = {}

    def context(self, i: int) -> PointContext:
        if i not in self._contexts:
            try:
                self._contexts[i] = PointContext(
                    self.scene.immersion,
                    self.scene.structure,
                    self.scene.points[i],
                    self.scene.screen,
                    self.scene.normal_screen,
                )
            except InternalInconsistency as exc:
                # a bug, not bad input: exit 1 with its source, never 2
                exc.point = i
                raise
            except LightlikeLabError as exc:
                raise ValidationError(f"/points/{i}: {exc}") from exc
        return self._contexts[i]

    # ---- section preflight ----

    def validate_sections(self) -> None:
        scene = self.scene
        if not (scene.radical_sections or scene.screen_sections):
            return
        for i in range(len(scene.points)):
            ctx = self.context(i)
            if scene.radical_sections:
                self._validate_section_family(
                    i, "radical", scene.radical_sections, ctx.frame.radical,
                    "tangent", ctx.chart().coordinates,
                )
            if scene.screen_sections:
                self._validate_section_family(
                    i, "screen", scene.screen_sections, ctx.frame.screen,
                    "transversal", ctx.kit().transversal,
                )

    def _validate_section_family(
        self, i, kind, sections, bundle, target_kind, targets
    ) -> None:
        """At point i, each declared section takes its value in the
        bundle and pairs stationarily with every target, and the values
        span the bundle.  Sections enter as chart polynomials; each is
        checked through its first-order jet at the point."""
        ctx = self.context(i)
        point = self.scene.points[i]
        values = []
        for k, fld in enumerate(sections):
            path = f"/sections/{kind}/{k}"
            jet = ctx.chart().tangent(*polynomial_jet(fld, point))
            if not bundle.contains(jet.value):
                raise ValidationError(
                    f"{path}: value at point {i} is not in the {kind}"
                )
            values.append(jet.value)
            for target in targets:
                if any(pairing_gradient(ctx.space, jet, target)):
                    raise ValidationError(
                        f"{path}: {target_kind} pairings are not stationary"
                        f" at point {i}"
                    )
        if rank(tuple(values)) != bundle.dim:
            raise ValidationError(
                f"/sections/{kind}: values at point {i} do not span the {kind}"
            )

    # ---- claims ----

    def compare_claims(self) -> Optional[Dict]:
        """Frame-versus-claims comparison; returns the frame entry parts."""
        scene = self.scene
        claims = scene.claims
        want_entry = "frame" in scene.checks
        if not want_entry and claims.empty():
            return None
        per_point = []
        verdicts = []
        for i in range(len(scene.points)):
            ctx = self.context(i)
            entry, point_notices = check_frame(
                ctx,
                declared_radical_dim=claims.expected_radical_dim,
                declared_radical=claims.claimed_radical,
            )
            for notice in point_notices:
                self.notices.append(f"point {i}: {notice}")
            per_point.append(
                {
                    "point": _point_json(scene.points[i]),
                    "verdict": entry.verdict.value,
                    "witness": entry.witness,
                }
            )
            verdicts.append(entry.verdict)
        if claims.configuration is not None:
            self._configuration_claim_notices(claims.configuration)
        if not want_entry:
            return None
        return {
            "check": "frame",
            "verdict": _aggregate(verdicts).value,
            "reference": REFERENCES["frame"],
            "points": per_point,
        }

    def _configuration_claim_notices(self, configuration: str) -> None:
        for i in range(len(self.scene.points)):
            ctx = self.context(i)
            try:
                holds, _ = ctx.configuration(configuration)
            except NotLightlike:
                self.notices.append(
                    f"point {i}: claimed configuration {configuration!r} but the"
                    " induced metric is nondegenerate here"
                )
                continue
            if not holds:
                self.notices.append(
                    f"point {i}: claimed configuration {configuration!r} does not"
                    " hold at this point"
                )

    # ---- per-check execution ----

    def run_point_check(self, cid: str) -> Dict:
        scene = self.scene
        per_point = []
        verdicts = []
        for i in range(len(scene.points)):
            ctx = self.context(i)
            try:
                entry = POINT_CHECK_FUNCTIONS[cid](ctx)
            except (NotLightlike, InsufficientScene) as exc:
                why = (
                    "not lightlike" if isinstance(exc, NotLightlike) else "insufficient scene data"
                )
                reason = {"reason": f"{why}: {exc}"}
                entry = CheckEntry(cid, Verdict.NOT_APPLICABLE, REFERENCES[cid], reason)
            except InternalInconsistency as exc:
                exc.check, exc.point = cid, i
                raise
            per_point.append(
                {
                    "point": _point_json(scene.points[i]),
                    "verdict": entry.verdict.value,
                    "witness": entry.witness,
                }
            )
            verdicts.append(entry.verdict)
        return {
            "check": cid,
            "verdict": _aggregate(verdicts).value,
            "reference": REFERENCES[cid],
            "points": per_point,
        }

    def float_oracle(self) -> Dict:
        import numpy as np

        scene = self.scene
        eps = np.array(scene.space.eps, dtype=float)
        rows = []
        overall = 0.0
        for i in range(len(scene.points)):
            ctx = self.context(i)
            jac = ctx.frame.tangent_jacobian
            m = len(jac)
            try:
                jf = np.array([[float(x) for x in row] for row in jac])
                exact = [[float(x) for x in row] for row in ctx.frame.tangent_gram]
                with np.errstate(over="ignore", invalid="ignore"):
                    gram_float = jf @ np.diag(eps) @ jf.T
            except OverflowError:
                gram_float = None
            # products of entries in range can still overflow, or cancel to nan
            if gram_float is None or not np.isfinite(gram_float).all():
                raise ValidationError(
                    f"/points/{i}: frame values exceed the floating-point range of the float check"
                )
            deviation = 0.0
            for a in range(m):
                for b in range(m):
                    deviation = max(deviation, abs(exact[a][b] - float(gram_float[a, b])))
            svals = np.linalg.svd(gram_float, compute_uv=False)
            tol = 1e-9 * max(1.0, float(svals[0]) if len(svals) else 1.0)
            rk = int((svals > tol).sum())
            rows.append(
                {
                    "point": _point_json(scene.points[i]),
                    "rank_matches": (m - rk) == ctx.frame.radical_dim,
                    "max_abs_deviation": repr(deviation),
                }
            )
            overall = max(overall, deviation)
        return {
            "tolerance": "1e-09",
            "max_abs_deviation": repr(overall),
            "points": rows,
        }


def run(scene: Scene, seed: Optional[int] = None, float_check: bool = False) -> Report:
    effective_seed = scene.seed if seed is None else seed
    state = _SceneRun(scene, effective_seed)
    if scene.params.p == 0:
        state.notices.append(
            "scalar parameters have p = 0, outside the positive-coefficient"
            " family; verdicts are reported for the declared parameters"
        )
    point_checks = [
        c for c in scene.checks if c in POINT_CHECK_FUNCTIONS or c == "frame"
    ]
    if point_checks or not scene.claims.empty():
        state.validate_sections()
    frame_entry = state.compare_claims()

    scene_checks = {
        "metallic-validate": lambda: check_structure_quadratic(scene.structure),
        "compat-validate": lambda: check_structure_compat(scene.structure),
        "audit-nonexistence": lambda: check_single_null_obstruction(random.Random(effective_seed)),
    }
    entries: List[Dict] = []
    for cid in scene.checks:
        if cid in scene_checks:
            entry = scene_checks[cid]()
            entries.append(
                {
                    "check": cid,
                    "verdict": entry.verdict.value,
                    "reference": entry.reference,
                    "witness": entry.witness,
                }
            )
        elif cid == "frame":
            entries.append(frame_entry)
        else:
            entries.append(state.run_point_check(cid))

    summary = {"HOLDS": 0, "FAILS": 0, "NOT_APPLICABLE": 0}
    for e in entries:
        summary[e["verdict"]] += 1

    float_result = state.float_oracle() if float_check else None
    return Report(
        version=TOOL_VERSION,
        scene_digest=scene.digest(),
        seed=effective_seed,
        entries=tuple(entries),
        summary=summary,
        notices=tuple(state.notices),
        float_check=float_result,
    )
