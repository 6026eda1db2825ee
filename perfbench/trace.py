"""Per-module spans for the traced run, patched on from outside the program.

Timing wrappers replace the module attributes the program calls (for
example ``ducg.engine.expand``), so spans nest exactly as the calls do. A
name that no longer exists is reported as absent rather than raising, so one
benchmark runs unchanged on a commit and on its parent.

Spans are kept in memory (name, start, end, parent span, tick) and written
out once the run is over. The hottest leaf calls (``Product.make``,
``EventExpression.make``) are counted and timed but not stored one by one.
"""

from __future__ import annotations

import importlib
import inspect
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

MAX_STORED_SPANS = 200_000


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Target:
    """One patch point: ``module.attr`` (``attr`` may be ``Class.method``)."""

    span: str
    module: str
    attr: str
    generator: bool = False
    store: bool = True
    before: Callable[["Tracer", tuple], None] | None = None
    after: Callable[["Tracer", tuple, Any], None] | None = None


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    dropped: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    diagnose_end: dict[int, float] = field(default_factory=dict)
    tick: int | None = None
    absent: list[str] = field(default_factory=list)
    broken: set[str] = field(default_factory=set)  # spans whose hook no longer fits
    _stack: list[list] = field(default_factory=list)
    _next_id: int = 0
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    # --- counters ---------------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    # --- spans ------------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, name, perf_counter(), 0.0, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, store: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child_time, parent = frame
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total += duration
        st.self_time += duration - child_time
        if self._stack:
            self._stack[-1][3] += duration
        if store:
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append((span_id, name, start, end, parent, self.tick))
            else:
                self.dropped += 1

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        if target.generator:
            def wrapper(*args, **kwargs):
                gen = iter(fn(*args, **kwargs))
                while True:
                    frame = tracer._open(target.span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(frame, target.store)
                        return
                    except BaseException:
                        tracer._close(frame, target.store)
                        raise
                    tracer._close(frame, target.store)
                    yield item
            return wrapper

        def wrapper(*args, **kwargs):
            if target.before is not None:
                tracer._hook(target, target.before, args)
            frame = tracer._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, target.store)
            if target.after is not None:
                tracer._hook(target, target.after, args, result)
            return result
        return wrapper

    def _hook(self, target: Target, hook: Callable, *args) -> None:
        """Run a counting hook; one that no longer fits the program's
        arguments or results marks its counters absent instead of raising."""
        try:
            hook(self, *args)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError):
            self.broken.add(target.span)

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            try:
                owner: Any = importlib.import_module(target.module)
                *path, name = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(target.span)
                continue
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(self._wrap(target, raw.__func__))
            elif isinstance(raw, classmethod):
                patched = classmethod(self._wrap(target, raw.__func__))
            elif callable(raw):
                patched = self._wrap(target, raw)
            else:
                self.absent.append(target.span)
                continue
            self._patched.append((owner, name, raw))
            setattr(owner, name, patched)

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._patched):
            setattr(owner, name, raw)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, tick in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "tick": tick},
                    separators=(",", ":"),
                ) + "\n")


# --- what the program calls, and what to count at each call ----------------------------


def _on_ingest(tracer: Tracer, args: tuple, result: Any) -> None:
    snapshot, trigger = result
    tracer.tick = getattr(snapshot, "tick", tracer.tick)
    if trigger:
        tracer.add("signals.triggers")


def _before_diagnose(tracer: Tracer, args: tuple) -> None:
    session, ev = args[0], args[1]
    tracer.tick = getattr(ev, "tick", tracer.tick)
    tracer.add("engine.alive_roots.sum", len(session.alive_roots))


def _after_diagnose(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.diagnose_end[result.tick] = perf_counter()


def _on_simplify(tracer: Tracer, args: tuple, result: Any) -> None:
    if getattr(result, "valid", False):
        tracer.add("engine.simplify.valid")


def _on_merge(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.peak("engine.session.slices_held", len(result.slices))


def _on_expand(tracer: Tracer, args: tuple, result: Any) -> None:
    terms = len(result.terms)
    tracer.peak("engine.expand.terms_max", terms)
    tracer.add("engine.expand.terms_total", terms)


def _on_conjoin(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("algebra.conjoin.terms_in", len(args[0].terms))
    tracer.add("algebra.conjoin.terms_kept", len(result.terms))


TARGETS = [
    Target("kb.parse_kb", "ducg.cli", "parse_kb"),
    Target("kb.validate_kb", "ducg.engine", "validate_kb"),
    Target("kb.decompose", "ducg.engine", "decompose"),
    Target("signals.iter_reading_groups", "ducg.cli", "iter_reading_groups", generator=True),
    Target("signals.ingest_tick", "ducg.cli", "ingest_tick", after=_on_ingest),
    Target("engine.diagnose_tick", "ducg.engine", "DiagnosisSession.diagnose_tick",
           before=_before_diagnose, after=_after_diagnose),
    Target("engine.simplify", "ducg.engine", "simplify", after=_on_simplify),
    Target("engine.merge_cubic", "ducg.engine", "merge_cubic", after=_on_merge),
    Target("engine.check_valid", "ducg.engine", "check_valid"),
    Target("engine.rank_hypotheses", "ducg.engine", "rank_hypotheses"),
    Target("engine.expand", "ducg.engine", "expand", after=_on_expand),
    Target("algebra.eval_expression", "ducg.engine", "eval_expression"),
    Target("algebra.conjoin", "ducg.engine", "conjoin", after=_on_conjoin),
    Target("algebra.EventExpression.make", "ducg.algebra", "EventExpression.make", store=False),
    Target("algebra.Product.make", "ducg.algebra", "Product.make", store=False),
]

# Only what the cliff sweep needs: tick cost and expression size.
SWEEP_TARGETS = [t for t in TARGETS if t.span in ("engine.diagnose_tick", "engine.expand")]


# (metric, unit) -> how to read it off a tracer; spans in ``absent`` read as absent.
def _ms(span: str) -> Callable[[Tracer], float]:
    return lambda t: t.stats[span].total * 1000.0 if span in t.stats else 0.0


def _self_ms(span: str) -> Callable[[Tracer], float]:
    return lambda t: t.stats[span].self_time * 1000.0 if span in t.stats else 0.0


def _calls(span: str) -> Callable[[Tracer], float]:
    return lambda t: float(t.stats[span].calls) if span in t.stats else 0.0


def _ratio(num: Callable[[Tracer], float], den: Callable[[Tracer], float]) -> Callable[[Tracer], float]:
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _counter(name: str) -> Callable[[Tracer], float]:
    return lambda t: float(t.counters.get(name, 0.0))


def is_absent(tracer: Tracer, metric: str) -> bool:
    """True when the metric's span is gone, or its counters come from a hook
    that no longer fits the program."""
    unit, span, _ = PER_LAYER[metric]
    counted = not metric.endswith((".ms", ".self_ms", ".calls"))
    return span in tracer.absent or (counted and span in tracer.broken)


# metric name -> (unit, span it depends on, reader)
PER_LAYER: dict[str, tuple[str, str, Callable[[Tracer], float]]] = {
    "kb.parse_kb.ms": ("ms", "kb.parse_kb", _ms("kb.parse_kb")),
    "kb.validate_kb.ms": ("ms", "kb.validate_kb", _ms("kb.validate_kb")),
    "kb.decompose.ms": ("ms", "kb.decompose", _ms("kb.decompose")),
    "signals.iter_reading_groups.ms": (
        "ms", "signals.iter_reading_groups", _ms("signals.iter_reading_groups")),
    "signals.ingest_tick.ms": ("ms", "signals.ingest_tick", _ms("signals.ingest_tick")),
    "signals.ingest_tick.calls": ("count", "signals.ingest_tick", _calls("signals.ingest_tick")),
    "signals.trigger_ratio": ("ratio", "signals.ingest_tick", _ratio(
        _counter("signals.triggers"), _calls("signals.ingest_tick"))),
    "engine.simplify.ms": ("ms", "engine.simplify", _ms("engine.simplify")),
    "engine.simplify.calls": ("count", "engine.simplify", _calls("engine.simplify")),
    "engine.simplify.valid_ratio": ("ratio", "engine.simplify", _ratio(
        _counter("engine.simplify.valid"), _calls("engine.simplify"))),
    "engine.check_valid.ms": ("ms", "engine.check_valid", _ms("engine.check_valid")),
    "engine.alive_roots.mean": ("count", "engine.diagnose_tick", _ratio(
        _counter("engine.alive_roots.sum"), _calls("engine.diagnose_tick"))),
    "engine.merge_cubic.ms": ("ms", "engine.merge_cubic", _ms("engine.merge_cubic")),
    "engine.session.slices_held": (
        "count", "engine.merge_cubic", _counter("engine.session.slices_held")),
    "engine.expand.ms": ("ms", "engine.expand", _ms("engine.expand")),
    "engine.expand.calls": ("count", "engine.expand", _calls("engine.expand")),
    "engine.expand.terms_max": ("count", "engine.expand", _counter("engine.expand.terms_max")),
    "engine.expand.terms_total": ("count", "engine.expand", _counter("engine.expand.terms_total")),
    "engine.rank_hypotheses.self_ms": (
        "ms", "engine.rank_hypotheses", _self_ms("engine.rank_hypotheses")),
    "engine.diagnose_tick.self_ms": (
        "ms", "engine.diagnose_tick", _self_ms("engine.diagnose_tick")),
    "algebra.eval_expression.ms": ("ms", "algebra.eval_expression", _ms("algebra.eval_expression")),
    "algebra.eval_expression.calls": (
        "count", "algebra.eval_expression", _calls("algebra.eval_expression")),
    "algebra.conjoin.ms": ("ms", "algebra.conjoin", _ms("algebra.conjoin")),
    "algebra.conjoin.calls": ("count", "algebra.conjoin", _calls("algebra.conjoin")),
    "algebra.conjoin.kept_ratio": ("ratio", "algebra.conjoin", _ratio(
        _counter("algebra.conjoin.terms_kept"), _counter("algebra.conjoin.terms_in"))),
    "algebra.EventExpression.make.ms": (
        "ms", "algebra.EventExpression.make", _ms("algebra.EventExpression.make")),
    "algebra.Product.make.ms": ("ms", "algebra.Product.make", _ms("algebra.Product.make")),
    "algebra.Product.make.calls": ("count", "algebra.Product.make", _calls("algebra.Product.make")),
}
