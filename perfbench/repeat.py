#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload deep-expand --seeds 1-10 [--json out.json]

Every run is a ``--trace 0`` run, the mode whose spread the bounds are set
for. For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles`` with ``n=4``) and the spread: the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``. Runs go
one after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="also write the runs and the summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, spec["run_seconds"])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)

    summary = {}
    print(f"{args.workload}: {len(runs)} runs")
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        flag = "" if spread < bound / 3 else "  <- above a third of the bound"
        print(f"  {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bound:>6}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                               "summary": summary}, indent=1), encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
