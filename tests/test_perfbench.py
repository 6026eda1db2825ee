"""Short runs of the benchmark: each must end in a well-formed, correct result
line that carries every metric ``BENCHMARK.json`` declares. Every workload
runs both untraced and traced, and each traced metric but the tracer's
overhead must be above zero. The runs are marked ``slow``: ``pytest -m "not
slow"`` leaves them out; the checks that every name the tracer patches still
exists and is called are not."""

import gzip
import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
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


def _load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_fixture_replays_match_the_benchmark_reference(monkeypatch):
    """The seven ``--no-timing`` fixture replays the benchmark checks, run
    in-process as it runs them: each exit code and every byte of output must
    equal its recorded reference, which this test only reads."""
    from ducg.cli import main

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # ``check`` imports ``harness``
    check = _load_perfbench(monkeypatch, "check")
    with gzip.open(ROOT / "perfbench" / "reference" / "fixtures.json.gz", "rt", encoding="utf-8") as fh:
        expected = json.load(fh)
    assert len(check.FIXTURES) == 7 and set(expected) == {f[0] for f in check.FIXTURES}
    assert check.check_fixtures(main, DATA, expected) == []


def test_every_traced_name_resolves(monkeypatch):
    """A name the tracer patches that the program no longer has reads as
    ``absent`` in the traced runs; this catches it without running them."""
    trace = _load_perfbench(monkeypatch, "trace")
    missing = []
    for target in trace.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert trace.TARGETS and not missing, missing


def test_every_traced_name_is_called(monkeypatch, capsys):
    """A patched name the program still has but no longer calls reads as 0
    in the traced runs. An in-process replay of a chattering feed, whose
    repeats take the memo's hit path, must call every one."""
    from ducg.cli import main

    trace = _load_perfbench(monkeypatch, "trace")
    tracer = trace.Tracer()
    tracer.install(trace.TARGETS)
    try:
        code = main([
            "replay",
            "--kb", str(DATA / "tworoot_kb.json"),
            "--signals", str(DATA / "tworoot_chatter_signals.csv"),
            "--no-timing",
        ])
    finally:
        tracer.uninstall()
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 13
    silent = [t.span for t in trace.TARGETS if t.span not in tracer.stats]
    assert not tracer.absent and not tracer.broken and not silent, (tracer.absent, tracer.broken, silent)
