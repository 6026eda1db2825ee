"""Signal gateway: sensor CSV feed → discrete evidence snapshots + trigger flag.

The feed is ``tick,measure_point,value`` CSV (header optional, ``#`` comments
allowed). ``iter_reading_groups`` yields each tick once, with its batch of
``(measure_point, value)`` readings; ``ingest_tick`` folds one batch into the
evidence of that tick, and within a batch the last reading per channel wins.
A gauged variable maps a raw value to the state whose half-open interval
``(lower, upper]`` contains it.

State persists: a variable keeps its last mapped state until a newer reading
arrives. Unobserved variables stay unknown — they are *not* assumed normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    MalformedLineError,
    OutOfRangeError,
    UnknownMeasurePointError,
)
from .kb import KnowledgeBase, Variable


@dataclass(slots=True)
class EvidenceSnapshot:
    """Discrete world state at one tick.

    ``assignments`` maps every observed variable to its current state id;
    ``abnormal_set`` holds the variables whose state is abnormal (not 0).
    A snapshot is a slotted dataclass, not a frozen one, and nothing changes
    it once built: ``ingest_tick`` hands an unchanged tick the previous
    snapshot's ``assignments`` and ``abnormal_set`` objects.
    """

    tick: int
    assignments: Mapping[int, int]
    abnormal_set: frozenset[int]

    @classmethod
    def build(cls, tick: int, assignments: Mapping[int, int]) -> "EvidenceSnapshot":
        abnormal = frozenset(v for v, s in assignments.items() if s != 0)
        return cls(tick, dict(assignments), abnormal)

    def abnormal_items(self) -> list[tuple[int, int]]:
        return sorted((v, self.assignments[v]) for v in self.abnormal_set)

    def normal_items(self) -> list[tuple[int, int]]:
        return sorted((v, s) for v, s in self.assignments.items() if s == 0)


def parse_signal_record(line: str) -> tuple[int, str, float]:
    """Parse one ``tick,measure_point,value`` line into that tuple.

    Errors carry a 1-based ``column``; 0 means the line shape itself is wrong.
    Stripping each field also strips the line's ends.
    """
    # ``int`` and ``float`` ignore the whitespace ``strip`` removes, so only
    # the measure point and the quoted fields need it.
    parts = line.split(",")
    if len(parts) != 3:
        raise MalformedLineError(
            f"expected 3 comma-separated columns, got {len(parts)}", column=0
        )
    tick_field, measure_point, value_field = parts
    try:
        tick = int(tick_field)
    except ValueError:
        raise MalformedLineError(f"tick {tick_field.strip()!r} is not an integer", column=1) from None
    if tick < 0:
        raise MalformedLineError(f"tick {tick} is negative", column=1)
    measure_point = measure_point.strip()
    if not measure_point:
        raise MalformedLineError("empty measure point", column=2)
    try:
        value = float(value_field)
    except ValueError:
        raise MalformedLineError(f"value {value_field.strip()!r} is not a number", column=3) from None
    if not math.isfinite(value):
        raise MalformedLineError(f"value {value_field.strip()!r} is not finite", column=3)
    return tick, measure_point, value


def map_reading(var: Variable, value: float) -> int:
    """Map a raw sensor value to the first state, in declared order, whose
    ``(lower, upper]`` contains it."""
    for lower, upper, state_id in var.bands:
        if lower < value <= upper:
            return state_id
    if not var.bands:
        raise OutOfRangeError(
            f"variable {var.id} declares no intervals", var.measure_point
        )
    raise OutOfRangeError(
        f"value {value} of variable {var.id} falls outside every interval",
        var.measure_point,
    )


def ingest_tick(
    prev: EvidenceSnapshot | None,
    tick: int,
    readings: Iterable[tuple[str, float]],
    kb: KnowledgeBase,
    *,
    retrigger_on_recovery: bool = True,
    on_error: Callable[[int, Exception], None] | None = None,
) -> tuple[EvidenceSnapshot, bool]:
    """Fold the ``(measure_point, value)`` readings of ``tick`` into the
    evidence state.

    Returns ``(snapshot, trigger)``; the snapshot is stamped ``tick``, even
    for an empty batch. The trigger fires when the set of abnormal state
    assignments changed: a variable became abnormal, an abnormal variable
    changed abnormal state, or — unless ``retrigger_on_recovery`` is off —
    an abnormal variable returned to normal. A reading of an unknown measure
    point or of a value outside every interval raises, or with ``on_error``
    is reported as (tick, exception) and skipped.
    """
    before: Mapping[int, int] = prev.assignments if prev else {}
    measure_points, variables = kb.measure_points, kb.variables
    # Only the variables whose state changed move in or out of the abnormal
    # set; with none, the snapshot shares ``prev``'s, which no snapshot ever
    # mutates. A channel read back to its state before the tick is unchanged.
    changed: dict[int, int] = {}
    for measure_point, value in readings:
        try:
            var_id = measure_points.get(measure_point)
            if var_id is None:
                raise UnknownMeasurePointError(measure_point)
            state = map_reading(variables[var_id], value)
        except (UnknownMeasurePointError, OutOfRangeError) as exc:
            if on_error is None:
                raise
            on_error(tick, exc)
            continue
        if before.get(var_id) != state:
            changed[var_id] = state
        else:
            changed.pop(var_id, None)

    abnormal = prev.abnormal_set if prev else frozenset()
    if not changed:
        return EvidenceSnapshot(tick, before, abnormal), False
    now_abnormal = {v for v, s in changed.items() if s != 0}
    now_normal = changed.keys() - now_abnormal
    snapshot = EvidenceSnapshot(
        tick, {**before, **changed}, abnormal.difference(now_normal).union(now_abnormal)
    )
    # A changed variable that is abnormal now holds a new abnormal pair.
    trigger = bool(now_abnormal) or (retrigger_on_recovery and not abnormal.isdisjoint(now_normal))
    return snapshot, trigger


def iter_reading_groups(
    lines: Iterable[str],
    *,
    on_error: Callable[[int, Exception], None] | None = None,
) -> Iterator[tuple[int, list[tuple[str, float]]]]:
    """Group a raw line feed into ``(tick, [(measure_point, value), ...])``
    batches, one per tick.

    Comment lines (``#``), blank lines, and header lines (any line starting
    ``tick,``, in any case, wherever it appears) are skipped. A UTF-8
    byte-order mark opening the first line, as spreadsheet "CSV UTF-8"
    exports write, is dropped; one anywhere else leaves its line malformed.
    A malformed or tick-regressing line raises ``MalformedLineError``, or
    with ``on_error`` is reported as (line number, exception) and skipped,
    so a live stream survives bad input.
    """
    current_tick: int | None = None
    batch: list[tuple[str, float]] = []
    lines = iter(lines)
    first = next(lines, None)
    if first is not None:
        lines = chain((first.removeprefix("\ufeff"),), lines)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        # No character lowers to nothing, and none lowers to several that
        # could fill part of "tick,": so the first five characters decide.
        if line[:5].lower() == "tick,":
            continue  # header
        try:
            tick, measure_point, value = parse_signal_record(line)
            if current_tick is not None and tick < current_tick:
                raise MalformedLineError(f"tick {tick} regresses below {current_tick}", column=0)
        except MalformedLineError as exc:
            if on_error is None:
                raise
            on_error(line_no, exc)
            continue
        if current_tick is None:
            current_tick = tick
        elif tick > current_tick:
            yield current_tick, batch
            current_tick = tick
            batch = []
        batch.append((measure_point, value))
    if current_tick is not None:
        yield current_tick, batch
