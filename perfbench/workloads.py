"""Input pools for the perfbench workloads.

Every workload runs a fixed pool of scenes.  A pool is built from the
specs pinned in reference.json: the shipped fixtures are read from the
package, generated scenes are rebuilt from their generator seed.  The
workload seed only permutes the pool and picks the run seed, so every
run times the same population of scenes and run-to-run spread is the
machine's, not the sampling's.  Each scene's bytes are checked against
the pinned sha256 before anything is timed.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "lightlike_lab" / "fixtures"

WORKLOADS = ("fixtures-warm", "fixtures-oneshot", "sweep-classify", "frames")

# Which pool each workload runs and whether the float oracle is on.
POOL_OF = {
    "fixtures-warm": "fixtures",
    "fixtures-oneshot": "fixtures",
    "sweep-classify": "sweep",
    "frames": "frames",
}
FLOAT_CHECK = {"fixtures": False, "sweep": False, "frames": True}

CONFIGS = ("radical-transversal", "transversal")

# sweep-classify: both configurations x every flavor, p = 0, q cycling
# through {2, 3, 5}.  p = 0 because with p > 0 generated scenes reach
# neither configuration and every theorem check stops early at
# NOT_APPLICABLE.  Twelve scenes keep a pass near five seconds, so each
# scene is timed several times in a run and its median is steady.
SWEEP_FLAVOR_SETS = ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",))
SWEEP_Q = (2, 3, 5)

# frames: mixed (p, q) including p > 0, a dozen chart points per scene.
FRAMES_PARAMS = ((0, 2), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (0, 3))
FRAMES_FLAVOR_SETS = (("str",), ("ltr",))
FRAMES_POINTS = 12
FRAMES_CHECKS = ("metallic-validate", "compat-validate", "frame")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_digest(scenes: List[Tuple[str, bytes]]) -> str:
    """Order-free digest of a pool: the same set gives the same digest."""
    lines = sorted(f"{sid} {sha256(raw)}" for sid, raw in scenes)
    return sha256("\n".join(lines).encode())


def pool_cells(pool: str) -> List[Dict]:
    """The specs a pool is made of, minus the generator seed pin.py picks."""
    if pool == "fixtures":
        return [{"fixture": p.name} for p in sorted(FIXTURE_DIR.glob("*.json"))]
    if pool == "sweep":
        cells = [(c, f) for c in CONFIGS for f in SWEEP_FLAVOR_SETS]
        return [
            {"config": c, "flavors": list(f), "p": 0, "q": SWEEP_Q[k % len(SWEEP_Q)]}
            for k, (c, f) in enumerate(cells)
        ]
    if pool == "frames":
        return [
            {"config": c, "flavors": list(f), "p": p, "q": q}
            for (p, q) in FRAMES_PARAMS
            for c in CONFIGS
            for f in FRAMES_FLAVOR_SETS
        ]
    raise ValueError(f"unknown pool {pool!r}")


def scene_id(spec: Dict) -> str:
    if "fixture" in spec:
        return spec["fixture"]
    flavors = "+".join(spec["flavors"]) or "plain"
    return f"{spec['config']}/{flavors}/p{spec['p']}q{spec['q']}/g{spec['gen_seed']}"


def build_scene(pool: str, spec: Dict) -> bytes:
    if pool == "fixtures":
        return (FIXTURE_DIR / spec["fixture"]).read_bytes()
    if pool == "sweep":
        return _sweep_scene(spec)
    if pool == "frames":
        return _frames_scene(spec)
    raise ValueError(f"unknown pool {pool!r}")


def _scene_bytes(g, params, points, checks, seed, overrides: bool, claims) -> bytes:
    from lightlike_lab.scenes import Scene, serialize_scene

    return serialize_scene(
        Scene(
            params=params,
            space=g.immersion.space,
            structure=g.structure,
            immersion=g.immersion,
            points=tuple(points),
            checks=tuple(checks),
            seed=seed,
            screen=g.screen_override if overrides else None,
            normal_screen=g.normal_screen_override if overrides else None,
            claims=claims,
        )
    )


def _generated(spec: Dict):
    from lightlike_lab.generators import perturbed_structured_scene
    from lightlike_lab.scalars import MetallicParams

    params = MetallicParams(spec["p"], spec["q"])
    rng = random.Random(spec["gen_seed"])
    g = perturbed_structured_scene(rng, params, spec["config"], tuple(spec["flavors"]))
    return g, params, rng


def _sweep_scene(spec: Dict) -> bytes:
    """One point, its declared screens, all checks except the audit."""
    from lightlike_lab.classifier import CHECK_ORDER
    from lightlike_lab.scenes import SceneClaims

    g, params, _ = _generated(spec)
    checks = [c for c in CHECK_ORDER if c != "audit-nonexistence"]
    claims = SceneClaims(expected_radical_dim=g.expected_radical_dim)
    return _scene_bytes(g, params, [g.point], checks, spec["gen_seed"], True, claims)


def _frames_scene(spec: Dict) -> bytes:
    """The generated base point plus random chart points.

    A drawn point where the Jacobian drops rank, or that repeats an
    earlier point, is redrawn here, so the scene is valid by
    construction.  The screens are left to build_frame because a
    screen declared for the base point is not tangent elsewhere.
    """
    from lightlike_lab.errors import ImmersionRankDrop
    from lightlike_lab.scalars import QuadScalar
    from lightlike_lab.scenes import SceneClaims

    g, params, rng = _generated(spec)
    m = g.immersion.chart_dim
    points = [tuple(g.point)]
    while len(points) < FRAMES_POINTS:
        point = tuple(
            QuadScalar(Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))), 0, params)
            for _ in range(m)
        )
        if point in points:
            continue
        try:
            g.immersion.tangent_frame(point)
        except ImmersionRankDrop:
            continue
        points.append(point)
    return _scene_bytes(
        g, params, points, FRAMES_CHECKS, spec["gen_seed"], False, SceneClaims()
    )


def load_pool(reference: Dict, workload: str) -> Tuple[List[Tuple[str, bytes]], List[str]]:
    """Rebuild a workload's pool and list every digest that drifted."""
    pool = POOL_OF[workload]
    scenes: List[Tuple[str, bytes]] = []
    drift: List[str] = []
    for entry in reference["pools"][pool]["scenes"]:
        raw = build_scene(pool, entry["spec"])
        if sha256(raw) != entry["sha256"]:
            drift.append(entry["id"])
        scenes.append((entry["id"], raw))
    return scenes, drift
