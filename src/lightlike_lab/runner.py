"""Execute a scene's requested checks and assemble a deterministic report.

One loop runs each point check, the frame check included, at every
sample point; the scene-level verdict is HOLDS only when every point
holds, FAILS when any point fails, and NOT_APPLICABLE otherwise.  Each
point check answers NOT_APPLICABLE with the reason where its hypothesis
fails (see classifier._gate), never a silent skip, and an internal
error leaves the loop naming the check and the point.

Reports are canonical JSON: same scene, same seed, same bytes.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from .classifier import (
    POINT_CHECK_FUNCTIONS,
    REFERENCES,
    PointContext,
    Verdict,
    check_frame,
    check_single_null_obstruction,
    check_structure_compat,
    check_structure_quadratic,
)
from .errors import (
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


def _entry(cid: str, verdict: Verdict, **body: object) -> Dict:
    """A report entry: the check's verdict and reference, with its
    witness (scene-level checks) or its per-point rows (point checks)."""
    return {"check": cid, "verdict": verdict.value, "reference": REFERENCES[cid], **body}


class _SceneRun:
    def __init__(self, scene: Scene) -> None:
        self.scene = scene
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

    # ---- per-point entries ----

    def point_entry(self, cid: str) -> Dict:
        """Every per-point entry, the frame check's included, comes from
        this loop.  Each point check gates its own hypothesis; an internal
        error is stamped with the check and the point."""
        scene = self.scene
        claims = scene.claims
        per_point = []
        verdicts = []
        for i, point in enumerate(scene.points):
            ctx = self.context(i)
            try:
                if cid == "frame":
                    entry, notices = check_frame(
                        ctx, claims.expected_radical_dim, claims.claimed_radical
                    )
                    self.notices.extend(f"point {i}: {notice}" for notice in notices)
                else:
                    entry = POINT_CHECK_FUNCTIONS[cid](ctx)
            except InternalInconsistency as exc:
                exc.check, exc.point = cid, i
                raise
            per_point.append(
                {"point": _point_json(point), "verdict": entry.verdict.value, "witness": entry.witness}
            )
            verdicts.append(entry.verdict)
        return _entry(cid, _aggregate(verdicts), points=per_point)

    # ---- claims ----

    def compare_claims(self) -> None:
        """The claimed configuration, checked at every point; a mismatch
        is a notice, never a verdict."""
        configuration = self.scene.claims.configuration
        if configuration is None:
            return
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
            except InternalInconsistency as exc:
                exc.point = i
                raise
            if not holds:
                self.notices.append(
                    f"point {i}: claimed configuration {configuration!r} does not"
                    " hold at this point"
                )

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
    state = _SceneRun(scene)
    if scene.params.p == 0:
        state.notices.append(
            "scalar parameters have p = 0, outside the positive-coefficient"
            " family; verdicts are reported for the declared parameters"
        )
    needs_points = any(c == "frame" or c in POINT_CHECK_FUNCTIONS for c in scene.checks)
    if needs_points or not scene.claims.empty():
        state.validate_sections()
    # the frame check also compares the declared radical data, as notices
    frame_entry = None
    if "frame" in scene.checks or not scene.claims.empty():
        frame_entry = state.point_entry("frame")
    state.compare_claims()

    scene_checks = {
        "metallic-validate": lambda: check_structure_quadratic(scene.structure),
        "compat-validate": lambda: check_structure_compat(scene.structure),
        "audit-nonexistence": lambda: check_single_null_obstruction(random.Random(effective_seed)),
    }
    entries: List[Dict] = []
    for cid in scene.checks:
        if cid in scene_checks:
            entry = scene_checks[cid]()
            entries.append(_entry(cid, entry.verdict, witness=entry.witness))
        else:
            entries.append(frame_entry if cid == "frame" else state.point_entry(cid))

    summary = {v.value: 0 for v in Verdict}
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
