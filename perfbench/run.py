#!/usr/bin/env python3
"""Benchmark of the ``ducg stream`` diagnosis path.

Run from the repository root:

    python3 perfbench/run.py --workload plant-narrowing --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the unmodified program and prints the end-to-end
metrics, every time scaled to a reference host speed (``calibrate.py``).
``--trace 1`` runs a fixed schedule twice, untraced and then with per-module
spans, and prints the per-module metrics and the tracing overhead; on
deep-expand it also runs the one-shot cliff sweep. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``python3 perfbench/run.py --record`` rewrites the reference outputs under
``perfbench/reference/`` from the program as it is now.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from calibrate import Calibration
from check import FIXTURES, KBDoc, check_fixtures, close, replay_fixture, same_report, summarize
from harness import invoke
from trace import PER_LAYER, SWEEP_TARGETS, TARGETS, Tracer, is_absent
from workloads import (
    LayeredShape,
    cliff_tick,
    feed_lines,
    kb_text,
    layered_kb,
    long_stream_ticks,
    sample_incident,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"
DATA = ROOT / "tests" / "data"

ORACLE_CHECKS = 12
ORACLE_MIN = 4  # fewer brute-force checks than this make the run incorrect


def load_program() -> Callable[[list[str]], int]:
    src = ROOT / "src"
    if not (src / "ducg" / "cli.py").is_file() or not DATA.is_dir():
        raise SystemExit(f"error: {ROOT} holds no ducg sources or tests/data fixtures")
    sys.path.insert(0, str(src))
    import ducg.cli

    return ducg.cli.main


# --- jobs: one ``ducg stream`` invocation each -------------------------------------------


@dataclass
class Job:
    kb: Path
    lines: list[str]
    key: str  # reference entry
    input_ticks: int
    evidence: dict[int, dict[int, int]]  # triggering tick -> observed states
    oracle: KBDoc


def _digest(ticks: list[dict[int, int]]) -> str:
    text = json.dumps([sorted(t.items()) for t in ticks])
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def make_job(kb: Path, oracle: KBDoc, ticks: list[dict[int, int]], key: str,
             rng: random.Random, measure_point: Callable[[int], str]) -> Job:
    """Feed ticks 1..n; every even offset is a triggering tick."""
    evidence: dict[int, dict[int, int]] = {}
    state: dict[int, int] = {}
    for offset, reading in enumerate(ticks):
        state.update(reading)
        if offset % 2 == 0:
            evidence[offset + 1] = dict(state)
    lines = feed_lines(ticks, rng, measure_point=measure_point)
    return Job(kb, lines, f"{key}:{_digest(ticks)}", len(ticks), evidence, oracle)


def _mp4(x: int) -> str:
    return f"MP{x:04d}"


def _mp2(x: int) -> str:
    return f"MP{x:02d}"


class LayeredPool:
    """Incidents on a set of generated layered KBs, fixed by ``tag``."""

    def __init__(self, tag: str, shapes: list[LayeredShape], kb_seeds: tuple[int, ...],
                 incidents: int, modular: bool, **sampling):
        self.entries: list[tuple[Path, KBDoc, str, list[dict[int, int]]]] = []
        self.by_kb: list[list[int]] = []
        for shape in shapes:
            for seed in kb_seeds:
                kb = layered_kb(shape, seed, modular=modular)
                name = f"{tag}-{shape.roots}-{shape.layers}x{shape.width}-{shape.fan_in}-{seed}"
                path = WORK / f"{name}.json"
                path.write_text(kb_text(kb), encoding="utf-8")
                oracle = KBDoc(kb.doc)
                rng = random.Random(name)
                indices = []
                for i in range(incidents):
                    incident = sample_incident(kb, rng, **sampling)
                    indices.append(len(self.entries))
                    self.entries.append((path, oracle, f"{name}:{i}", incident.ticks))
                self.by_kb.append(indices)

    def job(self, index: int, rng: random.Random) -> Job:
        path, oracle, key, ticks = self.entries[index]
        return make_job(path, oracle, ticks, key, rng, _mp4)

    def cycle(self, rng: random.Random, indices: list[int] | None = None) -> list[Job]:
        """The incidents at ``indices`` (default: all), in a seeded order."""
        indices = list(range(len(self.entries))) if indices is None else indices
        return [self.job(i, rng) for i in rng.sample(indices, len(indices))]

    def first(self, per_kb: int) -> list[int]:
        """The first ``per_kb`` incidents of every KB."""
        return [i for kb in self.by_kb for i in kb[:per_kb]]


# --- workloads ---------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    loads = ""
    # The tail percentile is fixed per workload so runs compare across commits:
    # the highest of p50/p90/p95/p99 with at least ten samples beyond it in a
    # run at the commit that defined the benchmark.
    tail_pct = 90.0

    def units(self, rng: random.Random) -> Iterator[list[Job]]:
        """Measured units, repeated until the run's time is up."""
        raise NotImplementedError

    def traced_units(self, rng: random.Random) -> list[list[Job]]:
        """The fixed schedule of a traced run."""
        raise NotImplementedError

    def all_jobs(self) -> list[Job]:
        """Every job the reference must cover."""
        raise NotImplementedError


class PlantNarrowing(Workload):
    name = "plant-narrowing"
    why = ("The paper's pitch: many B roots over shared observables; each incident "
           "is a fresh stream whose feed narrows the hypothesis space tick by tick.")
    loads = ("kb (parse_kb merging modular subducgs, validate_kb, decompose -> setup_s) "
             "and per-root simplify on the first ticks (-> tick_p50_ms); expand stays shallow")
    tail_pct = 95.0
    SHAPE = LayeredShape(128, 2, 200, 4)
    KB_SEEDS = (11, 12, 13, 14)
    # A run is whole cycles over every incident, so each run times the same
    # ticks: the median sits on a steep part of the latency distribution,
    # where a different mix of incidents moves it more than the host does.
    INCIDENTS = 24
    TRACED_PER_KB = 8

    def __init__(self) -> None:
        self.pool = LayeredPool("plant", [self.SHAPE], self.KB_SEEDS, self.INCIDENTS,
                                modular=True, min_abnormal=3, max_abnormal=3, max_normal=4,
                                per_tick=(1, 1))

    def units(self, rng):
        while True:
            yield self.pool.cycle(rng)

    def traced_units(self, rng):
        return [self.pool.cycle(rng, self.pool.first(self.TRACED_PER_KB))]

    def all_jobs(self):
        rng = random.Random(0)
        return [self.pool.job(i, rng) for i in range(len(self.pool.entries))]


class DeepExpand(Workload):
    name = "deep-expand"
    why = ("The exponential cliff: deep layered KBs whose ticks expand into up to "
           "~10^4 sum-of-products terms; each incident is a fresh stream.")
    loads = ("engine.expand and the algebra (Product.make, EventExpression.make, conjoin, "
             "eval_expression) -> tick_p50_ms, tick_tail_ms, ticks_per_s; kb and simplify negligible")
    tail_pct = 90.0
    SHAPES = [LayeredShape(8, 4, 6, 2), LayeredShape(8, 4, 8, 2)]
    KB_SEEDS = (21, 22)
    INCIDENTS = 12

    def __init__(self) -> None:
        self.pool = LayeredPool("deep", self.SHAPES, self.KB_SEEDS, self.INCIDENTS,
                                modular=False, min_abnormal=3, max_abnormal=5,
                                max_normal=3, deep=True)

    TRACED_PER_KB = 6

    def units(self, rng):
        while True:
            yield self.pool.cycle(rng)

    def traced_units(self, rng):
        """The first incidents of every KB: half a cycle, which keeps the
        traced run and the cliff sweep well inside the run time limit."""
        return [self.pool.cycle(rng, self.pool.first(self.TRACED_PER_KB))]

    def all_jobs(self):
        rng = random.Random(0)
        return [self.pool.job(i, rng) for i in range(len(self.pool.entries))]


class LongStream(Workload):
    name = "long-stream"
    why = ("One session over thousands of ticks on the two-root fixture; both roots "
           "stay alive, so session state grows with every triggering tick.")
    loads = ("engine session state (merge_cubic, slices held -> latency_drift, peak_rss_mib), "
             "signals ingest beside diagnosis and cli emit (-> ticks_per_s); many tiny calls")
    tail_pct = 99.0
    TRIGGERS = 4000

    def __init__(self) -> None:
        self.kb = DATA / "tworoot_kb.json"
        self.oracle = KBDoc(json.loads(self.kb.read_text(encoding="utf-8")))

    def _job(self, triggers: int, rng: random.Random) -> Job:
        return make_job(self.kb, self.oracle, long_stream_ticks(triggers),
                        f"long:{triggers}", rng, _mp2)

    def units(self, rng):
        while True:
            yield [self._job(self.TRIGGERS, rng)]

    def traced_units(self, rng):
        return [[self._job(self.TRIGGERS, rng)]]

    def all_jobs(self):
        return [self._job(self.TRIGGERS, random.Random(0))]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PlantNarrowing, DeepExpand, LongStream)
}


# --- running and scoring -----------------------------------------------------------------


KEEP_REPORTS = 8  # reports kept per job for the brute-force sample
FEED_BUCKET_S = 0.05  # feed time is kept in stretches of about this length


@dataclass
class Result:
    job: Job
    setup: tuple[float, float]  # (start, end) of set-up
    feed: list[tuple[float, float]]  # (midpoint, seconds) of stretches of feed time
    wall_s: float
    ticks: list[tuple[float, float]]  # (start, end) per reported tick, in output order
    reports: list[list]  # the first KEEP_REPORTS summaries
    emit_ms: float

    def latency_ms(self, calib: Calibration | None = None) -> list[float]:
        return [scaled(w, calib) * 1000.0 for w in self.ticks]


def scaled(window: tuple[float, float], calib: Calibration | None) -> float:
    """Seconds from ``window``, at the reference host speed if ``calib`` is given."""
    start, end = window
    return (end - start) * (calib.factor(start, end) if calib else 1.0)


def feed_buckets(inv) -> list[tuple[float, float]]:
    """The invocation's feed time in stretches of about ``FEED_BUCKET_S``."""
    buckets, since, total = [], None, 0.0
    for mid, seconds in inv.feed_intervals():
        since = mid if since is None else since
        total += seconds
        if mid - since >= FEED_BUCKET_S:
            buckets.append(((since + mid) / 2, total))
            since, total = None, 0.0
    if since is not None:
        buckets.append((since, total))
    return buckets


class Runner:
    """Runs jobs, timing each tick, and scores every job against the
    reference as soon as it ends, so a run holds only compact results."""

    def __init__(self, main, reference: dict, calib: Calibration | None = None):
        self.main = main
        self.reference = reference
        self.calib = calib  # times the calibration kernel between the program's steps
        self.attempted = 0
        self.failed = 0
        self.missing_reference = 0
        self.errors: list[str] = []  # exceptions that escaped main()

    def run(self, job: Job, tracer: Tracer | None = None) -> Result:
        if tracer is not None:
            tracer.diagnose_end.clear()
        gc.collect()  # start every invocation from a clean heap, as a fresh process would
        if self.calib:
            self.calib.run()
        inv = invoke(self.main, ["stream", "--kb", str(job.kb), "--no-timing"], job.lines,
                     self.calib.between if self.calib else None)
        if inv.error is not None:
            self.errors.append(inv.error)
        complete = inv.tick_complete_at()
        want = self.reference.get(job.key)
        want_by_tick = {w[0]: w for w in want or ()}
        kept, ticks, emit_ms = [], [], 0.0
        matched: set[int] = set()
        bad = extra = 0
        for stamp, report in inv.reports():
            summary = summarize(report)
            tick = summary[0]
            if len(kept) < KEEP_REPORTS:
                kept.append(summary)
            if tick in complete:
                ticks.append((complete[tick], stamp))
            if tracer is not None and tick in tracer.diagnose_end:
                emit_ms += (stamp - tracer.diagnose_end[tick]) * 1000.0
            if tick not in want_by_tick or tick in matched:
                extra += 1
                continue
            matched.add(tick)
            bad += not same_report(summary, want_by_tick[tick])
        if want is None:
            self.missing_reference += 1
        expected = len(want) if want is not None else len(job.evidence)
        self.attempted += expected + extra
        if want is None or inv.exit_code != 0:
            self.failed += expected + extra
        else:
            self.failed += bad + extra + (expected - len(matched))
        return Result(job, inv.setup, feed_buckets(inv),
                      inv.returned_at - inv.called_at, ticks, kept, emit_ms)

    def measure(self, units: Iterator[list[Job]],
                seconds: float) -> tuple[list[Result], float]:
        """Whole units, back to back, until the next one would overrun
        ``seconds``. Peak RSS (MiB) is read after the first unit, so it does
        not grow with the number of units a faster program fits into the run."""
        results: list[Result] = []
        rss = None
        start = perf_counter()
        for unit in units:
            began = perf_counter()
            results.extend(self.run(job) for job in unit)
            rss = peak_rss_mib() if rss is None else rss
            took = perf_counter() - began
            if perf_counter() - start + took > seconds:
                break
        return results, rss


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile; 0.0 when no tick was timed (all failed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def drift(sessions: list[list[float]]) -> float:
    """Per session: median latency over its last tenth of triggering ticks
    divided by the median over its first tenth (at least one tick each); the
    geometric mean over the run's sessions. Both ends of a ratio come from
    one session, so the incident mix and slow changes in machine speed
    cancel."""
    logs = []
    for latency in sessions:
        if latency:
            k = max(1, len(latency) // 10)
            early, late = latency[:k], latency[-k:]
            logs.append(math.log(statistics.median(late) / statistics.median(early)))
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def oracle_check(results: list[Result], rng: random.Random) -> tuple[int, int]:
    """Brute-force zeta on a sample of small-graph ticks: (checked, mismatched)."""
    candidates = [(r, rep) for r in results for rep in r.reports if rep[2]]
    checked = mismatched = 0
    for _ in range(ORACLE_CHECKS * 8):
        if checked >= ORACLE_CHECKS or not candidates:
            break
        result, rep = rng.choice(candidates)
        hyp = rng.choice(rep[2])
        root, zeta = hyp[0], hyp[4]
        evidence = result.job.evidence.get(rep[0])
        if evidence is None or not result.job.oracle.small_enough(root, evidence):
            continue
        checked += 1
        if not close(zeta, result.job.oracle.zeta(root, evidence)):
            mismatched += 1
    return checked, mismatched


def load_reference(workload: Workload) -> dict:
    path = REFERENCE / f"{workload.name}.json.gz"
    return _read_gz(path) if path.is_file() else {}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(runner: Runner, workload: Workload, rng: random.Random,
                   seconds: float) -> tuple[dict, list[str], list[Result]]:
    """Every time is scaled to the reference host speed by the run's
    calibration; the raw figures are printed beside them."""
    results, rss = runner.measure(workload.units(rng), seconds)
    calib = runner.calib
    ticks = sum(r.job.input_ticks for r in results)

    def figures(c: Calibration | None) -> dict[str, float]:
        sessions = [r.latency_ms(c) for r in results]
        latency = [x for session in sessions for x in session]
        feed_s = sum(seconds * (c.factor(mid) if c else 1.0)
                     for r in results for mid, seconds in r.feed)
        tail = percentile(latency, workload.tail_pct)
        return {
            "setup_s": statistics.median(scaled(r.setup, c) for r in results),
            "tick_p50_ms": percentile(latency, 50.0),
            "tick_tail_ms": tail,
            "ticks_per_s": ticks / feed_s if feed_s else 0.0,
            "latency_drift": drift(sessions),
            "feed_s": feed_s,
            "samples": len(latency),
            "beyond": sum(1 for x in latency if x > tail),
        }

    fig, raw = figures(calib), figures(None)
    metrics = {
        "setup_s": metric(fig["setup_s"], "s"),
        "tick_p50_ms": metric(fig["tick_p50_ms"], "ms"),
        "tick_tail_ms": metric(fig["tick_tail_ms"], "ms"),
        "ticks_per_s": metric(fig["ticks_per_s"], "1/s"),
        "latency_drift": metric(fig["latency_drift"], "ratio"),
        "peak_rss_mib": metric(rss, "MiB"),
    }
    why = {
        "setup_s": f"median of {len(results)} set-ups",
        "tick_p50_ms": f"median of {fig['samples']} triggering ticks in {len(results)} invocations",
        "tick_tail_ms": f"p{workload.tail_pct:g} of {fig['samples']} samples, {fig['beyond']} beyond it",
        "ticks_per_s": f"{ticks} input ticks over {raw['feed_s']:.3f} s of feed time",
        "latency_drift": f"last/first tenth of each session's ticks, geometric mean over {len(results)} sessions",
        "peak_rss_mib": "ru_maxrss of this process after its first unit of work",
    }
    notes = []
    for name, m in metrics.items():
        unscaled = f"(unscaled {raw[name]:.6g}) " if name in raw else ""
        notes.append(f"{name:<14} {m['value']:>12.6g} {m['unit']:<6} {unscaled}{why[name]}")
    factors = calib.speed_factors() if calib else [1.0]
    q1, med, q3 = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    notes.append(f"host speed factor: median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
                 f"from {len(factors)} calibration kernel runs")
    return metrics, notes, results


def run_traced(runner: Runner, workload: Workload, rng: random.Random,
               seed: int) -> tuple[dict, list[str], list[Result]]:
    jobs = [job for unit in workload.traced_units(rng) for job in unit]
    plain = [runner.run(job) for job in jobs]
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        traced = [runner.run(job, tracer) for job in jobs]
    finally:
        tracer.uninstall()

    plain_s = sum(r.wall_s for r in plain)
    traced_s = sum(r.wall_s for r in traced)
    metrics = {}
    absent = []
    notes = [f"traced schedule: {len(jobs)} invocations, run untraced and then traced"]
    for name, (unit, _, read) in PER_LAYER.items():
        if is_absent(tracer, name):
            absent.append(name)
            notes.append(f"{name:<34} {'absent':>14} {unit}")
            continue
        metrics[name] = metric(read(tracer), unit)
        notes.append(f"{name:<34} {metrics[name]['value']:>14.6g} {unit}")
    if "engine.diagnose_tick" in tracer.absent or "engine.diagnose_tick" in tracer.broken:
        # emit is timed from diagnose_tick's return, which its hook records
        absent.append("cli.emit.ms")
        notes.append(f"{'cli.emit.ms':<34} {'absent':>14} ms")
    else:
        emit_ms = sum(r.emit_ms for r in traced)
        metrics["cli.emit.ms"] = metric(emit_ms, "ms")
        notes.append(f"{'cli.emit.ms':<34} {emit_ms:>14.6g} ms")
    if absent:
        notes.append(f"absent, left out of the result line: {', '.join(absent)}")
    metrics["trace.overhead_pct"] = metric((traced_s / plain_s - 1.0) * 100.0, "%")
    notes.append(
        f"tracing overhead: untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
        f"difference {traced_s - plain_s:+.3f} s ({metrics['trace.overhead_pct']['value']:+.1f}%)"
    )
    notes.append(f"{'span':<34} {'calls':>8} {'wall ms':>12} {'self ms':>12}")
    for name, st in sorted(tracer.stats.items()):
        notes.append(f"{name:<34} {st.calls:>8} {st.total * 1000:>12.3f} {st.self_time * 1000:>12.3f}")
    spans_path = WORK / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    notes.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}, "
                 f"{tracer.dropped} more beyond the in-memory cap only counted")
    if isinstance(workload, DeepExpand):
        notes.extend(cliff_sweep(runner.main, seed))
    return metrics, notes, plain


CLIFF_GRID = [
    LayeredShape(8, 2, 6, 2),
    LayeredShape(8, 3, 6, 2),
    LayeredShape(8, 4, 6, 2),
    LayeredShape(8, 3, 8, 3),
    LayeredShape(8, 4, 8, 3),
]


def cliff_sweep(main, seed: int) -> list[str]:
    """One tick of 3 abnormal + 2 normal last-layer readings per grid shape.

    The largest shape is expected to end the whole stream with
    ``CycleLimitError`` (exit 1): the sweep records that point instead of
    skipping it. Results also go to ``_work/cliff-<seed>.json``.
    """
    rows = []
    lines_out = ["cliff sweep: shape, exit code, tick ms, terms max, s to return, stderr"]
    for shape in CLIFF_GRID:
        kb = layered_kb(shape, 0, modular=False)
        path = WORK / f"cliff-{shape.roots}-{shape.layers}x{shape.width}-{shape.fan_in}.json"
        path.write_text(kb_text(kb), encoding="utf-8")
        lines = feed_lines([cliff_tick(kb)], random.Random(0))
        tracer = Tracer()
        tracer.install(SWEEP_TARGETS)
        try:
            inv = invoke(main, ["stream", "--kb", str(path), "--no-timing"], lines)
        finally:
            tracer.uninstall()
        diag = tracer.stats.get("engine.diagnose_tick")
        row = {
            "shape": shape.label,
            "exit_code": inv.exit_code,
            "tick_ms": diag.total * 1000.0 if diag else None,
            "terms_max": int(tracer.counters.get("engine.expand.terms_max", 0)),
            "seconds": inv.returned_at - inv.called_at,
            "time_to_fail_s": inv.feed_s if inv.exit_code == 1 else None,
            "stderr": inv.err.text().strip()[:200],
        }
        rows.append(row)
        tick = "-" if row["tick_ms"] is None else f"{row['tick_ms']:.1f}"
        lines_out.append(
            f"  {shape.label:<14} exit {row['exit_code']}  tick_ms {tick:>9}  "
            f"terms_max {row['terms_max']:>7}  {row['seconds']:.2f} s  {row['stderr']}"
        )
    (WORK / f"cliff-{seed}.json").write_text(json.dumps(rows, indent=1), encoding="utf-8")
    return lines_out


# --- recording the reference ---------------------------------------------------------------


def record(main) -> None:
    REFERENCE.mkdir(parents=True, exist_ok=True)
    fixtures = {}
    for name, kb, signals, flags in FIXTURES:
        code, text = replay_fixture(main, DATA, kb, signals, flags)
        fixtures[name] = {"exit_code": code, "output": text}
    _write_gz(REFERENCE / "fixtures.json.gz", fixtures)
    for cls in WORKLOADS.values():
        workload = cls()
        reference: dict = {}
        slowest = 0.0
        for job in workload.all_jobs():
            inv = invoke(main, ["stream", "--kb", str(job.kb), "--no-timing"], job.lines)
            slowest = max(slowest, inv.returned_at - inv.called_at)
            reports = [summarize(report) for _, report in inv.reports()]
            if inv.exit_code != 0:
                raise SystemExit(f"{workload.name}: {job.key} exited {inv.exit_code}")
            if [r[0] for r in reports] != sorted(job.evidence):
                raise SystemExit(f"{workload.name}: {job.key} reported other ticks than triggered")
            reference[job.key] = reports
        _write_gz(REFERENCE / f"{workload.name}.json.gz", reference)
        print(f"{workload.name}: {len(reference)} jobs recorded, slowest {slowest:.2f} s")


def _read_gz(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _write_gz(path: Path, payload: dict) -> None:
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(data)


# --- entry point -----------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite perfbench/reference/")
    args = parser.parse_args()
    program = load_program()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.record:
        record(program)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    reference = load_reference(workload)
    runner = Runner(program, reference, None if args.trace else Calibration())
    if args.trace:
        metrics, notes, results = run_traced(runner, workload, rng, args.seed)
    else:
        metrics, notes, results = run_end_to_end(runner, workload, rng, args.seconds)
    bad_fixtures = check_fixtures(program, DATA, _read_gz(REFERENCE / "fixtures.json.gz"))
    checked, mismatched = oracle_check(results, random.Random(args.seed))

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  why:   {workload.why}")
    print(f"  loads: {workload.loads}")
    for note in notes:
        print(f"  {note}")
    print(f"  {'fail_ratio':<14} {runner.failed / max(runner.attempted, 1):>12.6g} {'ratio':<6} "
          f"{runner.failed} failed of {runner.attempted} triggering ticks")
    print(f"  checks: {len(FIXTURES) - len(bad_fixtures)}/{len(FIXTURES)} fixture replays "
          f"byte-identical{' (differ: ' + ', '.join(bad_fixtures) + ')' if bad_fixtures else ''}; "
          f"brute-force zeta {checked - mismatched}/{checked} agree (at least {ORACLE_MIN} "
          f"checks needed); "
          f"{runner.missing_reference} jobs without a reference")
    if runner.errors:
        print(f"  {len(runner.errors)} invocations raised; first: {runner.errors[0]}")
    correct = (runner.failed == 0 and not bad_fixtures and checked >= ORACLE_MIN
               and mismatched == 0 and runner.missing_reference == 0)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
