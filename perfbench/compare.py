"""Summarise saved benchmark runs, and compare two sets of them.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the stdout of runs of perfbench/run.py, one file
per run (*.out).  For every workload and end-to-end metric it prints
the median, the quartiles and the spread (interquartile range over the
median).  Given two directories it also prints how far the change's
median moved against the bound in BENCHMARK.json, and "worse" where it
moved past it.  Runs whose input digests differ are refused: their
numbers come from different scenes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> Dict[str, List[Dict]]:
    runs: Dict[str, List[Dict]] = {}
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().splitlines()
        info = next(json.loads(l[5:]) for l in lines if l.startswith("info "))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"{path}: run reported incorrect output")
        runs.setdefault(info["workload"], []).append({"info": info, "result": result})
    return runs


def digests(runs: List[Dict]) -> set:
    return {r["info"]["inputs_sha256"] for r in runs}


def summary(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv: List[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load(d) for d in argv]
    worse = 0
    for workload in sorted(sets[0]):
        groups = [s.get(workload, []) for s in sets]
        if any(not g for g in groups):
            print(f"{workload}: missing from one side, skipped")
            continue
        if len(set().union(*(digests(g) for g in groups))) != 1:
            print(f"{workload}: input digests differ between runs; refusing to compare", file=sys.stderr)
            return 2
        print(f"{workload} ({', '.join(str(len(g)) for g in groups)} runs)")
        for name, spec in metrics.items():
            stats = [summary([r["result"]["metrics"][name]["value"] for r in g]) for g in groups]
            line = f"  {name:14s}" + "".join(
                f"  median {s['median']:10.5g} [{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:6.3f}"
                for s in stats
            )
            if len(stats) == 2:
                base, new = stats[0]["median"], stats[1]["median"]
                change = (new - base) / base
                loss = change if spec["better"] == "lower" else -change
                flag = "worse" if loss > spec["bound"] else "ok"
                worse += flag == "worse"
                line += f"  change {change:+.3f} (bound {spec['bound']}) {flag}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
