"""Write perfbench/reference.json: the scene pools and their outcomes.

    python3 perfbench/pin.py

For each pool cell it picks the first generator seed that yields a
scene, records the scene's sha256, and runs it under two run seeds to
record its verdict map (or the error that refuses it).  The verdicts
must not depend on the run seed.  Any other exception stops pinning:
the reference records what the program does, never a crash.

Re-pin only on purpose, e.g. when a generator change is meant to
change the workloads; a run refuses to start on inputs whose digest no
longer matches, and results from before and after a re-pin are not
comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from lightlike_lab.errors import InternalInconsistency, ParseError, ValidationError  # noqa: E402
from lightlike_lab.runner import run  # noqa: E402
from lightlike_lab.scenes import parse_scene  # noqa: E402

GEN_SEED_BASE = {"sweep": 100, "frames": 5000}
MAX_TRIES = 20


def outcome(raw: bytes, seed: int, float_check: bool) -> dict:
    try:
        report = json.loads(run(parse_scene(raw), seed=seed, float_check=float_check).serialize())
    except (ParseError, ValidationError) as exc:
        return {"reject": type(exc).__name__}
    out = {"verdicts": {e["check"]: e["verdict"] for e in report["entries"]}}
    if float_check:
        out["float_rank_matches"] = [p["rank_matches"] for p in report["float_check"]["points"]]
    return out


def pin_pool(pool: str) -> dict:
    float_check = workloads.FLOAT_CHECK[pool]
    entries = []
    for k, cell in enumerate(workloads.pool_cells(pool)):
        spec = dict(cell)
        if pool != "fixtures":
            for attempt in range(MAX_TRIES):
                spec["gen_seed"] = GEN_SEED_BASE[pool] + MAX_TRIES * k + attempt
                try:
                    raw = workloads.build_scene(pool, spec)
                    break
                except InternalInconsistency:
                    continue  # the generator gave up on this seed
            else:
                raise SystemExit(f"{pool}: no generator seed worked for {cell}")
        else:
            raw = workloads.build_scene(pool, spec)
        first = outcome(raw, 0, float_check)
        if outcome(raw, 12345, float_check) != first:
            raise SystemExit(f"{pool}: outcome of {spec} depends on the run seed")
        sid = workloads.scene_id(spec)
        entries.append({"id": sid, "spec": spec, "sha256": workloads.sha256(raw), "expect": first})
        print(f"{pool:9s} {sid:60s} {first.get('reject') or ''}", flush=True)
    digest = workloads.pool_digest(
        [(e["id"], workloads.build_scene(pool, e["spec"])) for e in entries]
    )
    return {"digest": digest, "scenes": entries}


def main() -> None:
    pools = {pool: pin_pool(pool) for pool in ("fixtures", "sweep", "frames")}
    text = json.dumps({"pools": pools}, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text)


if __name__ == "__main__":
    main()
