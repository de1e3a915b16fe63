"""lightlike-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

Each workload is a closed loop from one client in one process.  The
timed operation is parse_scene(bytes) -> run(scene, seed) ->
Report.serialize(); only the scene bytes reach the program.  The pool
of scenes is fixed and digest-pinned in reference.json (see
workloads.py); the seed permutes it and picks the run seed.  A run
times whole passes over the pool until --seconds have gone by, so
every scene is timed at least once; the metrics are taken over each
scene's median time, rescaled to a reference host speed (see
CALIBRATION_SHARE below).

--trace 0 prints the end-to-end metrics.  --trace 1 makes one untraced
pass and one traced pass and prints the per-layer metrics of the
traced pass, its overhead over the untraced one, and fails when a layer
the workload is meant to exercise counted nothing.

Every outcome is checked against reference.json: the verdict map, or
the expected rejection, and for frames the float oracle's rank
agreement.  Report bytes of a scene must repeat exactly on every pass.
The last stdout line is the JSON result; the exit status is 1 when any
check failed, 3 when the generated inputs no longer match their pins.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# Set-up is timed this many times per run and reported as the median.
SETUP_PROBES = 7
# Whatever --seconds says, stop starting scenes after this long, so a
# run ends well inside the three minutes it is allowed.
HARD_STOP_S = 140.0
CHILD_TIMEOUT_S = 120.0

# The shared host's speed drifts by 20% and more between runs, far past
# any bound (frames throughput: spread 0.28-0.38 over ten runs).  So
# after each scene the run spends CALIBRATION_SHARE of that scene's time
# on a fixed exact-arithmetic kernel, and every reported latency is
# rescaled by REFERENCE_KERNEL_S over the kernel's mean time in the run:
# latencies read as if the kernel took exactly REFERENCE_KERNEL_S.
# Raw wall-clock values are printed on the info line.
CALIBRATION_SHARE = 0.15
REFERENCE_KERNEL_S = 0.003

TRACE_NAMES = {
    "frame": "check_frame",
    "metallic-validate": "check_structure_quadratic",
    "compat-validate": "check_structure_compat",
    "audit-nonexistence": "check_single_null_obstruction",
}

# Layers each workload must exercise in a traced pass: the sum of the
# listed metrics has to be nonzero.
COMMON_LAYERS = {
    "scenes": ["scenes.parse_s"],
    "runner": ["runner.run_s", "runner.serialize_s"],
    "linalg": ["linalg.rref_calls"],
    "scalars": ["scalars.mul_calls", "scalars.add_calls"],
    "submanifold": ["submanifold.build_frame_calls"],
}
_CHECKS = ["classifier.check_s.structure-eqs", "classifier.check_s.thm-4.9", "classifier.check_s.thm-3.5"]
_POLYS = ["polynomials.mul_calls", "polynomials.partial_calls", "polynomials.eval_calls"]
_KIT = ["geometry.build_field_kit_s", "geometry.full_split_calls", "geometry.gauss_split_calls"]
_FIXTURES = {"audit": ["classifier.audit_calls"], "classifier": _CHECKS, "polynomials": _POLYS, "geometry": _KIT}
REQUIRED_LAYERS = {
    "fixtures-warm": _FIXTURES,
    "fixtures-oneshot": _FIXTURES,
    "sweep-classify": {"classifier": _CHECKS, "polynomials": _POLYS, "geometry": _KIT + ["geometry.metric_deviation_calls"]},
    "frames": {"frame check": ["classifier.check_s.frame"], "float oracle": ["runner.float_oracle_s"], "ambient": ["ambient.validate_s"]},
}


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---- one operation ----


class Outcome:
    __slots__ = ("kind", "detail", "report", "trace")

    def __init__(self, kind: str, detail: str = "", report: bytes = b"", trace=None):
        self.kind = kind  # "report", "rejected" or "error"
        self.detail = detail
        self.report = report
        self.trace = trace


def in_process(float_check: bool) -> Callable[[bytes, int], Outcome]:
    from lightlike_lab import runner, scenes
    from lightlike_lab.errors import ParseError, ValidationError

    def op(raw: bytes, seed: int) -> Outcome:
        # module attributes, not imported names, so a tracer sees the calls
        try:
            report = runner.run(scenes.parse_scene(raw), seed=seed, float_check=float_check)
            return Outcome("report", report=report.serialize())
        except (ParseError, ValidationError) as exc:
            return Outcome("rejected", type(exc).__name__)
        except Exception as exc:  # counted as a failed operation
            return Outcome("error", f"{type(exc).__name__}: {exc}")

    return op


def fresh_interpreter(float_check: bool, trace: bool) -> Callable[[bytes, int], Outcome]:
    def op(raw: bytes, seed: int) -> Outcome:
        cmd = [sys.executable, str(CHILD), "scene", str(seed), "1" if float_check else "0", "1" if trace else "0"]
        try:
            proc = subprocess.run(cmd, input=raw, capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome("error", "timeout")
        lines = proc.stderr.decode(errors="replace").splitlines()
        state = None
        if lines and lines[-1].startswith("trace "):
            state = json.loads(lines.pop()[len("trace "):])
        if proc.returncode == 0:
            return Outcome("report", report=proc.stdout, trace=state)
        if proc.returncode == 3 and lines and lines[-1].startswith("rejected "):
            return Outcome("rejected", lines[-1].split()[1], trace=state)
        return Outcome("error", lines[-1] if lines else f"exit {proc.returncode}", trace=state)

    return op


# ---- correctness ----


class Checker:
    """Compares outcomes with the pinned reference and across passes."""

    def __init__(self, expected: Dict[str, Dict]) -> None:
        self.expected = expected
        self.first: Dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _problem(self, sid: str, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{sid}: {what}")

    def check(self, sid: str, out: Outcome) -> None:
        self.attempted += 1
        want = self.expected[sid]
        if out.kind == "error":
            return self._problem(sid, f"raised {out.detail}")
        if "reject" in want:
            if out.kind != "rejected" or out.detail != want["reject"]:
                return self._problem(sid, f"expected rejection {want['reject']}, got {out.kind} {out.detail}")
            return None
        if out.kind != "report":
            return self._problem(sid, f"unexpected rejection {out.detail}")
        if sid in self.first:
            if out.report != self.first[sid]:
                self._problem(sid, "report bytes differ between passes")
            return None
        self.first[sid] = out.report
        doc = json.loads(out.report)
        verdicts = {e["check"]: e["verdict"] for e in doc["entries"]}
        if verdicts != want["verdicts"]:
            return self._problem(sid, f"verdicts {verdicts} != reference {want['verdicts']}")
        if "float_rank_matches" in want:
            got = [p["rank_matches"] for p in doc["float_check"]["points"]]
            if got != want["float_rank_matches"]:
                return self._problem(sid, "float oracle rank agreement differs from reference")
        return None


# ---- measurement ----


class Calibration:
    """Times a fixed Fraction elimination, the program's hottest kind of
    work, in bursts between scenes."""

    def __init__(self) -> None:
        from fractions import Fraction

        rng = random.Random(0)
        self.matrices = [
            [[Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3))) for _ in range(7)] for _ in range(6)]
            for _ in range(3)
        ]
        self.units = 0
        self.seconds = 0.0

    @staticmethod
    def _eliminate(matrix) -> None:
        rows = [list(r) for r in matrix]
        r = 0
        for c in range(len(rows[0])):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [inv * x for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            r += 1
            if r == len(rows):
                break

    def burst(self, seconds: float) -> None:
        clock = time.perf_counter
        start = clock()
        while True:
            for m in self.matrices:
                self._eliminate(m)
            self.units += 1
            if clock() - start >= seconds:
                break
        self.seconds += clock() - start

    def scale(self) -> float:
        """Factor that rescales this run's times to the reference speed."""
        return REFERENCE_KERNEL_S * self.units / self.seconds


def timed_passes(
    pool: List[Tuple[str, bytes]],
    order: List[int],
    run_seed: int,
    op: Callable[[bytes, int], Outcome],
    checker: Checker,
    seconds: float,
    calibration: Optional[Calibration] = None,
) -> Tuple[Dict[str, List[float]], float, List[Dict]]:
    """Whole passes until `seconds` are up (one pass when it is 0).

    Returns each scene's latencies, the wall time spent, and the trace
    states fresh interpreters sent back."""
    clock = time.perf_counter
    samples: Dict[str, List[float]] = {sid: [] for sid, _ in pool}
    traces: List[Dict] = []
    start = clock()
    done = 0
    while True:
        for idx in order:
            sid, raw = pool[idx]
            t0 = clock()
            out = op(raw, run_seed)
            samples[sid].append(clock() - t0)
            if calibration is not None:
                calibration.burst(CALIBRATION_SHARE * samples[sid][-1])
            checker.check(sid, out)
            if out.trace is not None:
                traces.append(out.trace)
            elapsed = clock() - start
            if elapsed > HARD_STOP_S or (done and elapsed >= seconds):
                return samples, elapsed, traces
        done += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return samples, elapsed, traces


def setup_seconds(pool: List[Tuple[str, bytes]]) -> float:
    """Median wall time of fresh interpreters that import and parse the pool."""
    blob = b"\0".join(raw for _, raw in pool)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(CHILD), "setup"], input=blob, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail("set-up probe failed: " + proc.stderr.decode(errors="replace")[-500:], 1)
    return statistics.median(times)


def peak_rss_mb(fresh: bool) -> float:
    who = resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency(samples: Dict[str, List[float]], scale: float) -> Dict[str, float]:
    medians = [scale * statistics.median(v) for v in samples.values() if v]
    return {
        "scenes_per_s": len(medians) / sum(medians),
        "scene_p50_ms": 1000.0 * statistics.median(medians),
    }


# ---- per-layer metrics ----


def per_layer(state: Dict, check_functions: Dict[str, str], untraced_s: float, traced_s: float) -> Dict[str, float]:
    calls, incl, self_time, distinct = (state[k] for k in ("calls", "inclusive", "self_time", "distinct"))

    def n(name: str) -> int:
        return calls.get(name, 0)

    def t(name: str) -> float:
        return incl.get(name, 0.0)

    def ratio(name: str) -> float:
        return distinct.get(name, 0) / n(name) if n(name) else 0.0

    out = {
        "scenes.parse_s": t("scenes.parse_scene"),
        "submanifold.build_frame_s": t("submanifold.build_frame"),
        "submanifold.build_frame_calls": n("submanifold.build_frame"),
        "geometry.build_field_kit_s": t("geometry.build_field_kit"),
        "geometry.full_split_calls": n("geometry.full_split"),
        "geometry.gauss_split_calls": n("geometry.gauss_split"),
        "geometry.metric_deviation_calls": n("geometry.metric_deviation"),
    }
    for cid, fn in check_functions.items():
        out[f"classifier.check_s.{cid}"] = t(f"classifier.{fn}")
    out.update(
        {
            "classifier.projector_audit_s": t("classifier.ProjectorSet.audit"),
            "classifier.projector_audit_calls": n("classifier.ProjectorSet.audit"),
            "classifier.audit_calls": n("classifier.check_single_null_obstruction"),
            "classifier.audit_distinct_ratio": ratio("classifier.check_single_null_obstruction"),
            "linalg.rref_calls": n("linalg.rref"),
            "linalg.rref_s": t("linalg.rref"),
            "linalg.rref_distinct_ratio": ratio("linalg.rref"),
            "linalg.solve_calls": n("linalg.solve"),
            "linalg.solve_distinct_ratio": ratio("linalg.solve"),
            "linalg.coords_in_basis_calls": n("linalg.coords_in_basis"),
            "linalg.rank_calls": n("linalg.rank"),
            "linalg.null_space_calls": n("linalg.null_space"),
            "polynomials.mul_calls": n("polynomials.Polynomial.__mul__"),
            "polynomials.partial_calls": n("polynomials.Polynomial.partial"),
            "polynomials.eval_calls": n("polynomials.Polynomial.eval"),
            "scalars.mul_calls": n("scalars.QuadScalar.__mul__"),
            "scalars.add_calls": sum(
                n(f"scalars.QuadScalar.{op}") for op in ("__add__", "__sub__", "__rsub__")
            ),
            "ambient.validate_s": t("ambient.validate_metallic") + t("ambient.validate_compatibility"),
            "runner.run_s": t("runner.run"),
            "runner.serialize_s": t("runner.Report.serialize"),
            "runner.float_oracle_s": t("runner._SceneRun.float_oracle"),
        }
    )
    from tracer import LAYERS

    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    out["trace.untraced_s"] = untraced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


# ---- entry points ----


def run_workload(args, declared: Dict[str, Dict[str, str]]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    pool, drift = workloads.load_pool(reference, args.workload)
    if drift:
        _fail(
            f"{args.workload}: generated inputs differ from the pinned digests "
            f"({', '.join(drift[:5])}); runs on different inputs are not comparable",
            3,
        )
    pool_name = workloads.POOL_OF[args.workload]
    float_check = workloads.FLOAT_CHECK[pool_name]
    fresh = args.workload == "fixtures-oneshot"
    expected = {e["id"]: e["expect"] for e in reference["pools"][pool_name]["scenes"]}

    rng = random.Random(args.seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    # one run seed for every scene, as a sweep or test suite passes it
    run_seed = rng.randrange(2**31)
    checker = Checker(expected)

    untraced = fresh_interpreter(float_check, False) if fresh else in_process(float_check)
    if not args.trace:
        setup = setup_seconds(pool)
        calibration = Calibration()
        samples, _, _ = timed_passes(pool, order, run_seed, untraced, checker, args.seconds, calibration)
        metrics = latency(samples, calibration.scale())
        metrics.update(setup_s=setup, peak_rss_mb=peak_rss_mb(fresh))
        raw = {f"raw_{k}": v for k, v in latency(samples, 1.0).items()}
        raw["kernel_ms"] = 1000.0 * calibration.seconds / calibration.units
        units = declared["end_to_end"]
        missing_layers: List[str] = []
    else:
        from lightlike_lab.classifier import POINT_CHECK_FUNCTIONS
        from tracer import Tracer, merge

        check_functions = dict(TRACE_NAMES)
        check_functions.update({cid: fn.__name__ for cid, fn in POINT_CHECK_FUNCTIONS.items()})
        _, untraced_s, _ = timed_passes(pool, order, run_seed, untraced, checker, 0)
        if fresh:
            _, traced_s, states = timed_passes(
                pool, order, run_seed, fresh_interpreter(float_check, True), checker, 0
            )
            state = merge(states)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                _, traced_s, _ = timed_passes(pool, order, run_seed, untraced, checker, 0)
            finally:
                tracer.uninstall()
            state = tracer.export()
        metrics = per_layer(state, check_functions, untraced_s, traced_s)
        units = declared["per_layer"]
        raw = {}
        need = dict(COMMON_LAYERS, **REQUIRED_LAYERS[args.workload])
        missing_layers = [layer for layer, names in need.items() if not sum(metrics[m] for m in names)]

    if set(metrics) != set(units):
        _fail(f"metric names drifted from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}", 1)

    correct = checker.failed == 0 and not missing_layers
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": reference["pools"][pool_name]["digest"],
        "scenes": len(pool),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_ratio": checker.failed / max(checker.attempted, 1),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        **raw,
    }
    print("info " + json.dumps(info, sort_keys=True))
    for problem in checker.problems:
        print(f"MISMATCH {problem}")
    for layer in missing_layers:
        print(f"ZERO LAYER {layer}: counted nothing on {args.workload}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':40s} {info['failed_ratio']:>14.6g} ({checker.failed}/{checker.attempted})")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lightlike_lab" / "__init__.py").is_file():
        _fail(f"no lightlike_lab sources under {ROOT / 'src'}", 2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")
    }
    if args.workload == "all":
        return run_all(args)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        _fail(f"unknown workload {args.workload!r}", 2)
    return run_workload(args, declared)


if __name__ == "__main__":
    sys.exit(main())
