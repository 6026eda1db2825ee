"""Drive the real ``ducg stream`` path in-process and timestamp its I/O.

``sys.stdin`` is replaced by a feed that hands out one line at a time and
records when each was pulled; ``sys.stdout`` by a sink that records when each
report line was written. Nothing inside the program is changed, so every
number taken here is a number of the unmodified code.

The loop is closed: the program pulls its next line only once it has dealt
with the previous one, exactly as ``replay``/``stream`` consume a feed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator


class TimedFeed:
    """Stands in for ``sys.stdin``; records a ``perf_counter`` per line pulled.

    ``between``, if given, is called with the index of every line but the
    first before it is stamped and returns the seconds it spent; those are
    kept in ``paused``, one entry per line, so they can be taken out of the
    program's time.
    """

    def __init__(self, lines: list[str], between: Callable[[int], float] | None = None):
        self._lines = lines
        self._between = between
        self.pulled: list[float] = []
        self.paused: list[float] = []
        self.exhausted_at: float | None = None

    def __iter__(self) -> "TimedFeed":
        return self

    def __next__(self) -> str:
        i = len(self.pulled)
        if i >= len(self._lines):
            if self.exhausted_at is None:
                self.exhausted_at = perf_counter()
            raise StopIteration
        paused = self._between(i) if self._between is not None and i else 0.0
        self.pulled.append(perf_counter())
        self.paused.append(paused)
        return self._lines[i]


class TimedSink:
    """Stands in for ``sys.stdout``/``sys.stderr``; records each write."""

    def __init__(self) -> None:
        self.writes: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.writes.append((perf_counter(), text))
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(t for _, t in self.writes)

    def lines(self) -> Iterator[tuple[float, str]]:
        """Complete lines, each stamped with the write that ended it."""
        buf = ""
        for stamp, chunk in self.writes:
            buf += chunk
            while "\n" in buf:
                line, buf = buf.split("\n", 1)
                yield stamp, line


@dataclass
class Invocation:
    """One ``main()`` call: its exit code and the timestamps around it."""

    exit_code: int
    called_at: float
    returned_at: float
    feed: TimedFeed
    out: TimedSink
    err: TimedSink
    tick_first_line: dict[int, int] = field(default_factory=dict)
    error: str | None = None

    @property
    def setup(self) -> tuple[float, float]:
        """(start, end) of set-up: the call to the first line pulled."""
        return self.called_at, self.feed.pulled[0] if self.feed.pulled else self.returned_at

    @property
    def feed_s(self) -> float:
        """From the first line pulled to the return, pauses taken out."""
        if not self.feed.pulled:
            return 0.0
        return self.returned_at - self.feed.pulled[0] - sum(self.feed.paused)

    def feed_intervals(self) -> Iterator[tuple[float, float]]:
        """(midpoint, seconds) of every stretch of feed time between two
        lines pulled, or the last line and the return, pauses taken out."""
        stamps = self.feed.pulled + [self.returned_at]
        for k in range(1, len(stamps)):
            paused = self.feed.paused[k] if k < len(self.feed.paused) else 0.0
            yield (stamps[k - 1] + stamps[k]) / 2, stamps[k] - stamps[k - 1] - paused

    def tick_complete_at(self) -> dict[int, float]:
        """When each tick's reading group was complete: the first line of the
        next tick was pulled, or the feed ran out."""
        ticks = sorted(self.tick_first_line)
        pulled = self.feed.pulled
        out: dict[int, float] = {}
        for tick, nxt in zip(ticks, ticks[1:]):
            i = self.tick_first_line[nxt]
            if i < len(pulled):
                out[tick] = pulled[i]
        if ticks and self.feed.exhausted_at is not None:
            out[ticks[-1]] = self.feed.exhausted_at
        return out

    def reports(self) -> Iterator[tuple[float, dict]]:
        """The JSON report lines written to stdout, each with its write time."""
        for stamp, line in self.out.lines():
            if line.strip():
                yield stamp, json.loads(line)


def tick_line_index(lines: list[str]) -> dict[int, int]:
    """Index of the first line of every tick in a CSV feed (header skipped)."""
    first: dict[int, int] = {}
    for i, line in enumerate(lines):
        head = line.split(",", 1)[0]
        if head.isdigit():
            first.setdefault(int(head), i)
    return first


def invoke(main, argv: list[str], lines: list[str],
           between: Callable[[int], float] | None = None) -> Invocation:
    """Run ``main(argv)`` with ``lines`` as stdin; restore the real streams.
    ``between`` runs between lines, as :class:`TimedFeed` describes."""
    feed = TimedFeed([line + "\n" for line in lines], between)
    out, err = TimedSink(), TimedSink()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = feed, out, err
    error = None
    called = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash fails the invocation, not the benchmark
        code, error = 1, f"{type(exc).__name__}: {exc}"
    returned = perf_counter()
    sys.stdin, sys.stdout, sys.stderr = saved
    return Invocation(
        exit_code=code if code is not None else 0,
        called_at=called,
        returned_at=returned,
        feed=feed,
        out=out,
        err=err,
        tick_first_line=tick_line_index(lines),
        error=error,
    )
