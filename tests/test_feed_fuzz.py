"""Seeded mutations of the fixture signal feeds never end in a traceback:
``cli._run_feed`` warns about what it cannot read and goes on, exits 0 or 2,
and writes only JSON lines. Each mutated feed also reads, byte for byte,
as the frozen copy of the gateway in ``gateway_reference`` reads it. Bytes
that are not UTF-8 in a field are warnings too, in every feed command."""

import io
import json
import random
import sys
import traceback
from pathlib import Path

import pytest

import ducg.cli
from ducg import DiagnosisSession, parse_kb
from ducg.cli import _run_feed, main

import gateway_reference

DATA = Path(__file__).parent / "data"
FEEDS = (
    ("tworoot_kb.json", "tworoot_signals.csv"),
    ("tworoot_kb.json", "tworoot_chatter_signals.csv"),
    ("plant24_kb.json", "plant24_signals.csv"),
)
MUTATIONS = 1000

# What a mutated field becomes: junk, non-finite, huge, negative, out of range.
JUNK = (
    "", " ", "x", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1e308",
    "9" * 40, "-1", "0", "2.5", "0x10", "1_000", "MP05", "MP99", "#", '"', "\x00", "é",
)
# Whole lines a feed may carry mid-stream.
INSERTS = ("", "   ", "# a comment", "tick,measure_point,value", ",,", "1,2", "1,2,3,4")


def _edit_field(fields, rng):
    fields[rng.randrange(len(fields))] = rng.choice(JUNK)


def _drop_column(fields, rng):
    del fields[rng.randrange(len(fields))]


def _duplicate_column(fields, rng):
    i = rng.randrange(len(fields))
    fields.insert(i, fields[i])


def _extra_column(fields, rng):
    fields.insert(rng.randrange(len(fields) + 1), rng.choice(JUNK))


FIELD_EDITS = (_edit_field, _drop_column, _duplicate_column, _extra_column)


def mutate(lines, rng):
    """A copy of ``lines`` with one to three line or field mutations."""
    lines = list(lines)
    for _ in range(rng.choice((1, 2, 3))):
        i = rng.randrange(len(lines))
        action = rng.randrange(4)
        if action == 0:  # a field: junk, dropped, duplicated or extra
            fields = lines[i].split(",")
            rng.choice(FIELD_EDITS)(fields, rng)
            lines[i] = ",".join(fields)
        elif action == 1:  # a blank, comment, header or misshapen line
            lines.insert(i, rng.choice(INSERTS))
        elif action == 2:  # a line repeated elsewhere, so ticks can regress
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        else:
            del lines[i]
            if not lines:
                lines.append(rng.choice(INSERTS))
    return lines


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture(scope="module")
def feeds():
    return [
        (parse_kb((DATA / kb).read_text(encoding="utf-8")),
         (DATA / signals).read_text(encoding="utf-8").splitlines())
        for kb, signals in FEEDS
    ]


def test_mutated_feeds_end_in_warnings_not_tracebacks(feeds):
    escapes, reports = {}, 0
    for seed in range(MUTATIONS):
        rng = random.Random(seed)
        kb, lines = rng.choice(feeds)
        out, err = io.StringIO(), io.StringIO()
        try:
            code = _run_feed(
                DiagnosisSession(kb),
                mutate(lines, rng),
                out,
                err,
                verbose=rng.random() < 0.5,
                recovery_retrigger=rng.random() < 0.5,
            )
            assert code in (0, 2), f"exit code {code}"
            for line in out.getvalue().splitlines():
                json.loads(line, parse_constant=_strict)
                reports += 1
        except Exception as exc:  # a traceback, a bad exit code or a non-JSON line
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}"
            escapes.setdefault(where, []).append(seed)
    assert not escapes, {where: seeds[:5] for where, seeds in escapes.items()}
    assert reports > MUTATIONS  # the mutations left most feeds readable


def test_mutated_feeds_read_as_the_frozen_gateway_reads_them(feeds, monkeypatch):
    """The same mutated feeds replayed once through the gateway and once
    through its frozen copy write the same stdout and stderr bytes and
    exit with the same code."""

    def replay(kb, lines, flags):
        out, err = io.StringIO(), io.StringIO()
        code = _run_feed(DiagnosisSession(kb), lines, out, err, with_timing=False, **flags)
        return code, out.getvalue(), err.getvalue()

    warned = 0
    for seed in range(MUTATIONS):
        rng = random.Random(seed)
        kb, lines = rng.choice(feeds)
        lines = mutate(lines, rng)
        flags = {"verbose": rng.random() < 0.5, "recovery_retrigger": rng.random() < 0.5}
        got = replay(kb, lines, flags)
        with monkeypatch.context() as patched:
            patched.setattr(ducg.cli, "iter_reading_groups", gateway_reference.iter_reading_groups)
            patched.setattr(ducg.cli, "ingest_tick", gateway_reference.ingest_tick)
            assert got == replay(kb, lines, flags), seed
        warned += "warning" in got[2]
    assert warned > MUTATIONS // 2  # most feeds reach the error paths


# Byte sequences that are not UTF-8: lone continuation and lead bytes, cut-off
# sequences, an encoded surrogate, a code point past U+10FFFF, an overlong form.
NOT_UTF8 = (
    b"\x80", b"\xbf", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
    b"\xc0\xaf", b"\xfe", b"\xff",
)
BYTE_MUTATIONS = 150


def with_bytes_that_are_not_utf8(data, rng):
    """``data`` with one of ``NOT_UTF8`` put into one field of one to three
    readings, and the index of each field so changed."""
    lines = data.splitlines()
    fields_hit = []
    readings = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    for i in rng.sample(readings, rng.choice((1, 2, 3))):
        fields = lines[i].split(b",")
        f = rng.randrange(len(fields))
        at = rng.randint(0, len(fields[f]))
        fields[f] = fields[f][:at] + rng.choice(NOT_UTF8) + fields[f][at:]
        lines[i] = b",".join(fields)
        fields_hit.append(f)
    return b"\n".join(lines) + b"\n", fields_hit


def test_bytes_that_are_not_utf8_in_a_field_are_warnings(tmp_path, capsys, monkeypatch):
    """``replay`` and ``predict`` on the mutated file and ``stream`` on the
    same bytes as stdin each warn and go on. ``stream`` writes what
    ``replay`` writes whether stdin's error handler is strict, as under most
    UTF-8 locales, or ``surrogateescape``, as under the C locale."""
    hit = [0, 0, 0]
    for seed in range(BYTE_MUTATIONS):
        rng = random.Random(seed)
        kb_name, signals = rng.choice(FEEDS)
        data, fields = with_bytes_that_are_not_utf8((DATA / signals).read_bytes(), rng)
        for f in fields:
            hit[f] += 1
        feed = tmp_path / "feed.csv"
        feed.write_bytes(data)
        kb = str(DATA / kb_name)
        runs = []
        for argv, stdin, errors in (
            (["replay", "--kb", kb, "--signals", str(feed), "--no-timing"], b"", "strict"),
            (["stream", "--kb", kb, "--no-timing"], data, "strict"),
            (["stream", "--kb", kb, "--no-timing"], data, "surrogateescape"),
            (["predict", "--kb", kb, "--signals", str(feed), "--root", "1", "--state", "1"], b"", "strict"),
        ):
            wrapper = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors=errors)
            monkeypatch.setattr(sys, "stdin", wrapper)
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        for code, out, err in runs:
            assert code in (0, 2) and "warning: " in err, (seed, code, err)
            for line in out.splitlines():
                json.loads(line, parse_constant=_strict)
        assert runs[0] == runs[1] == runs[2], seed
    assert min(hit) >= 40, hit  # tick, measure point and value
