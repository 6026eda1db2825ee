"""Signal gateway: sensor CSV feed → discrete evidence snapshots + trigger flag.

The feed is ``tick,measure_point,value`` CSV (header optional, ``#`` comments
allowed). Readings are grouped per integer tick; within one tick the last
reading per channel wins. A gauged variable maps a raw value to the state
whose half-open interval ``(lower, upper]`` contains it.

State persists: a variable keeps its last mapped state until a newer reading
arrives. Unobserved variables stay unknown — they are *not* assumed normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    MalformedLineError,
    OutOfRangeError,
    UnknownMeasurePointError,
)
from .kb import KnowledgeBase, Variable


@dataclass(frozen=True)
class Reading:
    tick: int
    measure_point: str
    value: float


@dataclass(frozen=True)
class EvidenceSnapshot:
    """Discrete world state at one tick.

    ``assignments`` maps every observed variable to its current state id;
    ``abnormal_set`` / ``normal_set`` partition its keys by severity.
    """

    tick: int
    assignments: Mapping[int, int]
    abnormal_set: frozenset[int]
    normal_set: frozenset[int]

    @classmethod
    def build(cls, tick: int, assignments: Mapping[int, int]) -> "EvidenceSnapshot":
        abnormal = frozenset(v for v, s in assignments.items() if s != 0)
        normal = frozenset(assignments) - abnormal
        return cls(tick, dict(assignments), abnormal, normal)

    def abnormal_items(self) -> list[tuple[int, int]]:
        return sorted((v, self.assignments[v]) for v in self.abnormal_set)

    def normal_items(self) -> list[tuple[int, int]]:
        return sorted((v, self.assignments[v]) for v in self.normal_set)


def parse_signal_record(line: str) -> Reading:
    """Parse one ``tick,measure_point,value`` line.

    Errors carry a 1-based ``column``; 0 means the line shape itself is wrong.
    Stripping each field also strips the line's ends.
    """
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 3:
        raise MalformedLineError(
            f"expected 3 comma-separated columns, got {len(parts)}", column=0
        )
    try:
        tick = int(parts[0])
    except ValueError:
        raise MalformedLineError(f"tick {parts[0]!r} is not an integer", column=1) from None
    if tick < 0:
        raise MalformedLineError(f"tick {tick} is negative", column=1)
    if not parts[1]:
        raise MalformedLineError("empty measure point", column=2)
    try:
        value = float(parts[2])
    except ValueError:
        raise MalformedLineError(f"value {parts[2]!r} is not a number", column=3) from None
    if not math.isfinite(value):
        raise MalformedLineError(f"value {parts[2]!r} is not finite", column=3)
    return Reading(tick, parts[1], value)


def map_reading(var: Variable, value: float) -> int:
    """Map a raw sensor value to the state whose ``(lower, upper]`` contains it."""
    gauged = [s for s in var.states if s.interval is not None]
    if not gauged:
        raise OutOfRangeError(
            f"variable {var.id} declares no intervals", var.measure_point
        )
    for s in gauged:
        lo, hi = s.interval  # type: ignore[misc]
        if lo < value <= hi:
            return s.state_id
    raise OutOfRangeError(
        f"value {value} of variable {var.id} falls outside every interval",
        var.measure_point,
    )


def ingest_tick(
    prev: EvidenceSnapshot | None,
    readings: Iterable[Reading],
    kb: KnowledgeBase,
    *,
    retrigger_on_recovery: bool = True,
    on_error: Callable[[int, Exception], None] | None = None,
) -> tuple[EvidenceSnapshot, bool]:
    """Fold one tick of readings into the evidence state.

    Returns ``(snapshot, trigger)``. The trigger fires when the set of
    abnormal state assignments changed: a variable became abnormal, an
    abnormal variable changed abnormal state, or — unless
    ``retrigger_on_recovery`` is off — an abnormal variable returned to
    normal. A reading of an unknown measure point or of a value outside
    every interval raises, or with ``on_error`` is reported as (tick,
    exception) and skipped. An empty batch keeps ``prev``'s tick, or 0.
    """
    readings = list(readings)
    ticks = {r.tick for r in readings}
    if len(ticks) > 1:
        raise ValueError(f"readings span multiple ticks: {sorted(ticks)}")
    tick = ticks.pop() if ticks else (prev.tick if prev else 0)

    before: Mapping[int, int] = prev.assignments if prev else {}
    read: dict[int, int] = {}
    for reading in readings:  # later readings of one channel overwrite earlier
        try:
            var_id = kb.measure_points.get(reading.measure_point)
            if var_id is None:
                raise UnknownMeasurePointError(reading.measure_point)
            read[var_id] = map_reading(kb.variables[var_id], reading.value)
        except (UnknownMeasurePointError, OutOfRangeError) as exc:
            if on_error is None:
                raise
            on_error(tick, exc)

    # Only the variables whose state changed move between the sets; with none,
    # the snapshot shares ``prev``'s, which no snapshot ever mutates.
    changed = {v: s for v, s in read.items() if before.get(v) != s}
    abnormal = prev.abnormal_set if prev else frozenset()
    normal = prev.normal_set if prev else frozenset()
    if not changed:
        return EvidenceSnapshot(tick, before, abnormal, normal), False
    now_abnormal = {v for v, s in changed.items() if s != 0}
    now_normal = changed.keys() - now_abnormal
    snapshot = EvidenceSnapshot(
        tick,
        {**before, **changed},
        abnormal.difference(now_normal).union(now_abnormal),
        normal.difference(now_abnormal).union(now_normal),
    )
    # A changed variable that is abnormal now holds a new abnormal pair.
    trigger = bool(now_abnormal) or (retrigger_on_recovery and not abnormal.isdisjoint(now_normal))
    return snapshot, trigger


def iter_reading_groups(
    lines: Iterable[str],
    *,
    on_error: Callable[[int, Exception], None] | None = None,
) -> Iterator[tuple[int, list[Reading]]]:
    """Group a raw line feed into per-tick reading batches.

    Comment lines (``#``), blank lines, and one optional header are skipped.
    Malformed or tick-regressing lines are reported through ``on_error``
    (line number, exception) and skipped, so a live stream survives bad input.
    """
    current_tick: int | None = None
    batch: list[Reading] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("tick,"):
            continue  # header
        try:
            reading = parse_signal_record(line)
        except MalformedLineError as exc:
            if on_error is not None:
                on_error(line_no, exc)
            continue
        if current_tick is not None and reading.tick < current_tick:
            if on_error is not None:
                on_error(
                    line_no,
                    MalformedLineError(
                        f"tick {reading.tick} regresses below {current_tick}", column=0
                    ),
                )
            continue
        if current_tick is None:
            current_tick = reading.tick
        elif reading.tick > current_tick:
            yield current_tick, batch
            current_tick = reading.tick
            batch = []
        batch.append(reading)
    if current_tick is not None:
        yield current_tick, batch
