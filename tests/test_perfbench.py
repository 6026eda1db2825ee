"""Short runs of the benchmark: each must end in a well-formed, correct result
line that carries every metric ``BENCHMARK.json`` declares. Every workload
runs both untraced and traced, and each traced metric but the tracer's
overhead must be above zero. The runs are marked ``slow``: ``pytest -m "not
slow"`` leaves them out."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

RUNS = {
    "long-stream-untraced": ("long-stream", "--seconds", "1", "--trace", "0"),
    "deep-expand-untraced": ("deep-expand", "--seconds", "1", "--trace", "0"),
    "plant-narrowing-untraced": ("plant-narrowing", "--seconds", "1", "--trace", "0"),
    "deep-expand-traced": ("deep-expand", "--trace", "1"),
    "long-stream-traced": ("long-stream", "--trace", "1"),
    "plant-narrowing-traced": ("plant-narrowing", "--trace", "1"),
}
# The tracer's own cost may read below zero; every other metric is a time, a
# count or a ratio of work the run did, which a working program never leaves at 0.
MAY_BE_NONPOSITIVE = {"trace.overhead_pct"}


@pytest.mark.slow
@pytest.mark.parametrize("run", sorted(RUNS))
def test_benchmark_run_ends_in_a_correct_result_line(run):
    workload, *flags = RUNS[run]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values), result["metrics"]

    traced = flags[-1] == "1"
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert set(result["metrics"]) >= {m["name"] for m in declared}
    if traced:
        assert "absent" not in proc.stdout
        zero = [
            m["name"] for m in declared
            if m["name"] not in MAY_BE_NONPOSITIVE and not result["metrics"][m["name"]]["value"] > 0
        ]
        assert not zero, zero
