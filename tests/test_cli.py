"""End-to-end command line behaviour, run through real subprocesses."""

import argparse
import codecs
import io
import json
import sys
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ducg import (
    DiagnosisSession,
    KBSyntaxError,
    decompose,
    ingest_tick,
    iter_reading_groups,
    parse_kb,
    predict,
    serialize_kb,
)
from ducg.cli import _JSON_SEPARATORS, _report_json, _report_line, build_parser, main
from ducg.engine import _MEMO_SIZE, DiagnosisReport, HypothesisResult

from conftest import run_cli

DATA = Path(__file__).parent / "data"
# Each fixture feed with the KB it was written for, and the chatter feed
# with the modular form of that KB too.
FEED_PAIRS = [
    ("tworoot_kb.json", "tworoot_signals.csv"),
    ("tworoot_modular_kb.json", "tworoot_signals.csv"),
    ("tworoot_kb.json", "tworoot_allnormal_signals.csv"),
    ("tworoot_orphan_kb.json", "orphan_signals.csv"),
    ("plant24_kb.json", "plant24_signals.csv"),
    ("tworoot_kb.json", "tworoot_chatter_signals.csv"),
    ("tworoot_modular_kb.json", "tworoot_chatter_signals.csv"),
    ("conditional_kb.json", "conditional_signals.csv"),
    ("cyclic_kb.json", "cyclic_signals.csv"),
]


def json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


# --- validate ---------------------------------------------------------------------


def test_validate_clean_kb_exits_zero():
    proc = run_cli("validate", str(DATA / "tworoot_kb.json"))
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_validate_modular_kb_exits_zero():
    proc = run_cli("validate", str(DATA / "tworoot_modular_kb.json"))
    assert proc.returncode == 0


def two_violation_kb(tmp_path):
    """The two-root fixture with arc 3←1's one intensity raised to 1.7."""
    doc = json.loads((DATA / "tworoot_kb.json").read_text())
    doc["arcs"][0]["matrix"]["1"]["1"] = 1.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


def test_validate_reports_violations(tmp_path):
    proc = run_cli("validate", str(two_violation_kb(tmp_path)))
    assert proc.returncode == 1
    assert json_lines(proc.stdout) == [
        {"code": "PROB_RANGE", "ids": [3, 1, 1, 1]},
        {"code": "COLUMN_SUM", "ids": [3, 1, 1]},
    ]


def test_validate_missing_file_exits_one():
    proc = run_cli("validate", str(DATA / "nope.json"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_validate_unparseable_file_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1
    assert "line 1" in proc.stderr


# A document nested 100,000 deep, whole and in its 'variables' field.
NESTED = {
    "lists": "[" * 100_000 + "]" * 100_000,
    "variables": '{"variables": ' + "[" * 100_000 + "]" * 100_000 + "}",
}
NESTED_ERROR = "error: arrays or objects nest too deep to read\n"


@pytest.mark.parametrize("shape", sorted(NESTED))
@pytest.mark.parametrize("command", ["validate", "compile", "replay", "stream", "predict"])
def test_a_deeply_nested_kb_is_a_syntax_error(tmp_path, capsys, command, shape):
    from ducg.cli import main

    kb = tmp_path / "deep.json"
    kb.write_text(NESTED[shape])
    signals = str(DATA / "tworoot_signals.csv")
    argv = {
        "validate": ["validate", str(kb)],
        "compile": ["compile", str(kb), "-o", str(tmp_path / "out.json")],
        "replay": ["replay", "--kb", str(kb), "--signals", signals],
        "stream": ["stream", "--kb", str(kb)],
        "predict": ["predict", "--kb", str(kb), "--signals", signals, "--root", "1", "--state", "1"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", NESTED_ERROR)


def test_a_deeply_nested_kb_exits_one_without_a_traceback(tmp_path):
    kb = tmp_path / "deep.json"
    kb.write_text(NESTED["lists"])
    proc = run_cli("validate", str(kb))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", NESTED_ERROR)


# --- compile ----------------------------------------------------------------------


def test_compile_fuses_modular_document(tmp_path):
    out = tmp_path / "fused.json"
    proc = run_cli("compile", str(DATA / "tworoot_modular_kb.json"), "-o", str(out))
    assert proc.returncode == 0
    assert out.read_text() == (DATA / "tworoot_kb.json").read_text()


def test_compile_root_selection(tmp_path):
    out = tmp_path / "b1.json"
    proc = run_cli(
        "compile", str(DATA / "tworoot_modular_kb.json"), "-o", str(out), "--roots", "1"
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert {v["id"] for v in doc["variables"]} == {1, 3, 4, 5, 6}


MIXED_KB = {
    "version": 1,
    "variables": [
        {"id": 1, "kind": "B", "states": [{"id": 0}, {"id": 1}], "prior": {"1": 0.1}},
        {"id": 2, "kind": "X", "states": [{"id": 0}, {"id": 1}]},
        {"id": 3, "kind": "X", "states": [{"id": 0}, {"id": 1}]},
    ],
    "arcs": [{"child": 3, "parent": 2, "matrix": {"1": {"1": 0.5}}}],
    "subducgs": [
        {
            "root": 1,
            "variables": [1, 2],
            "arcs": [{"child": 2, "parent": 1, "matrix": {"1": {"1": 0.7}}}],
        }
    ],
}


@pytest.mark.parametrize("roots", [[], ["--roots", "1"]], ids=["all", "root 1"])
def test_compile_keeps_top_level_arcs_beside_subducgs(tmp_path, roots):
    """Inference reads both arc lists, so the compiled document holds both."""
    kb = tmp_path / "mixed.json"
    kb.write_text(json.dumps(MIXED_KB))
    out = tmp_path / "fused.json"
    proc = run_cli("compile", str(kb), "-o", str(out), *roots)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert [v["id"] for v in doc["variables"]] == [1, 2, 3]
    assert [(a["child"], a["parent"]) for a in doc["arcs"]] == [(2, 1), (3, 2)]


def test_compile_rejects_non_integer_root_ids(tmp_path):
    out = tmp_path / "x.json"
    proc = run_cli(
        "compile", str(DATA / "tworoot_modular_kb.json"), "-o", str(out), "--roots", "1,x"
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_compile_rejects_an_empty_root_list(tmp_path):
    """An empty ``--roots`` is given, and names no root: it is refused, not
    read as "every root"."""
    out = tmp_path / "x.json"
    proc = run_cli(
        "compile", str(DATA / "tworoot_modular_kb.json"), "-o", str(out), "--roots", ""
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: --roots takes comma-separated root ids: ''\n"
    assert not out.exists()


def test_compile_rejects_conflicting_inputs(tmp_path):
    doc = json.loads((DATA / "tworoot_kb.json").read_text())
    doc["arcs"][0]["matrix"]["1"]["1"] = 0.25  # same arc, different parameter
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    proc = run_cli(
        "compile", str(DATA / "tworoot_kb.json"), str(other), "-o", str(tmp_path / "x.json")
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


# --- replay -----------------------------------------------------------------------


def replay(*extra, kb="tworoot_kb.json", signals="tworoot_signals.csv"):
    return run_cli(
        "replay", "--kb", str(DATA / kb), "--signals", str(DATA / signals), *extra
    )


def test_replay_emits_one_report_per_trigger():
    proc = replay()
    assert proc.returncode == 0
    reports = json_lines(proc.stdout)
    assert [(r["tick"], r["status"]) for r in reports] == [
        (14, "ambiguous"), (16, "ambiguous"), (17, "diagnosed"),
    ]
    top = reports[2]["hypotheses"][0]
    assert (top["root"], top["state"]) == (2, 2)
    assert top["posterior"] == pytest.approx(0.935065, abs=1e-6)
    assert reports[0]["evidence"]["abnormal"] == [{"var": 5, "state": 1}]


def test_replay_reports_match_schema(report_schema):
    jsonschema = pytest.importorskip("jsonschema")
    for line in json_lines(replay().stdout):
        jsonschema.validate(line, report_schema)
    for line in json_lines(replay("--verbose", "--no-timing").stdout):
        jsonschema.validate(line, report_schema)


def test_replay_no_timing_is_deterministic():
    first = replay("--no-timing")
    second = replay("--no-timing")
    assert first.stdout == second.stdout
    assert all(r["timing_ms"] == 0.0 for r in json_lines(first.stdout))


def test_replay_no_recovery_retrigger_skips_recovery_ticks(tmp_path):
    # X5 and X6 turn abnormal at tick 1; X5 alone recovers at tick 2
    feed = tmp_path / "recovery.csv"
    feed.write_text("1,MP05,2.0\n1,MP06,2.0\n2,MP05,0.5\n")
    ticks = {}
    for flags in ((), ("--no-recovery-retrigger",)):
        proc = run_cli(
            "replay", "--kb", str(DATA / "tworoot_kb.json"), "--signals", str(feed),
            "--no-timing", *flags,
        )
        assert proc.returncode == 0, proc.stderr
        ticks[flags] = [r["tick"] for r in json_lines(proc.stdout)]
    assert ticks == {(): [1, 2], ("--no-recovery-retrigger",): [1]}


def test_replay_all_normal_feed_is_silent():
    proc = replay(signals="tworoot_allnormal_signals.csv")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_replay_unexplained_evidence_exits_two():
    proc = replay(kb="tworoot_orphan_kb.json", signals="orphan_signals.csv")
    assert proc.returncode == 2
    reports = json_lines(proc.stdout)
    assert reports[-1]["status"] == "unexplained"
    assert reports[-1]["hypotheses"] == []


def test_replay_verbose_reports_quiet_ticks():
    proc = replay("--verbose", "--no-timing")
    statuses = [r["status"] for r in json_lines(proc.stdout)]
    assert statuses == ["no_trigger", "ambiguous", "no_trigger", "ambiguous", "diagnosed"]


def test_replay_warns_on_malformed_lines(tmp_path):
    feed = tmp_path / "feed.csv"
    feed.write_text("13,MP05,0.0\nbroken line\n14,MP05,3.2\n")
    proc = run_cli(
        "replay", "--kb", str(DATA / "tworoot_kb.json"), "--signals", str(feed)
    )
    assert proc.returncode == 0
    assert "warning: line 2" in proc.stderr
    assert len(json_lines(proc.stdout)) == 1


def test_replay_warns_on_unknown_measure_point(tmp_path):
    feed = tmp_path / "feed.csv"
    feed.write_text("13,MP99,0.0\n14,MP05,3.2\n")
    proc = run_cli(
        "replay", "--kb", str(DATA / "tworoot_kb.json"), "--signals", str(feed)
    )
    assert proc.returncode == 0
    assert "unknown measure point 'MP99'" in proc.stderr
    assert len(json_lines(proc.stdout)) == 1


def test_replay_warns_on_out_of_range_value(tmp_path):
    feed = tmp_path / "feed.csv"
    feed.write_text("13,MP05,500.0\n14,MP05,3.2\n")
    proc = run_cli(
        "replay", "--kb", str(DATA / "tworoot_kb.json"), "--signals", str(feed)
    )
    assert proc.returncode == 0
    assert "warning: tick 13" in proc.stderr
    assert len(json_lines(proc.stdout)) == 1


def test_replay_maps_each_usable_reading_once(monkeypatch, capsys):
    import ducg.cli
    import ducg.signals
    from ducg import iter_reading_groups, parse_kb

    signals = DATA / "tworoot_signals.csv"
    kb = parse_kb((DATA / "tworoot_kb.json").read_text())
    known = sum(
        measure_point in kb.measure_points
        for _, readings in iter_reading_groups(signals.read_text().splitlines())
        for measure_point, _ in readings
    )
    calls = []
    real = ducg.signals.map_reading

    def counted(var, value):
        calls.append((var.id, value))
        return real(var, value)

    monkeypatch.setattr(ducg.signals, "map_reading", counted)
    monkeypatch.setattr(ducg.cli, "map_reading", counted, raising=False)
    argv = ["replay", "--kb", str(DATA / "tworoot_kb.json"), "--signals", str(signals), "--no-timing"]
    assert ducg.cli.main(argv) == 0
    assert len(json_lines(capsys.readouterr().out)) == 3
    assert len(calls) == known == 12


def test_replay_pretty_renders_table():
    proc = replay("--pretty", "--no-timing")
    assert proc.returncode == 0
    assert "tick 17  status=diagnosed" in proc.stdout
    assert "Probability" in proc.stdout
    assert "fault source 2" in proc.stdout
    assert "93.51%" in proc.stdout


def test_replay_writes_dot_files(tmp_path):
    proc = replay("--dot-dir", str(tmp_path / "graphs"))
    assert proc.returncode == 0
    names = sorted(p.name for p in (tmp_path / "graphs").iterdir())
    # final tick keeps only root 2 with a three-slice graph
    assert "cubic_B2_t3.dot" in names
    text = (tmp_path / "graphs" / "cubic_B2_t3.dot").read_text()
    assert text.startswith('digraph "cubic_B2"')
    assert text.count("subgraph cluster_t") == 3


# --- stream -----------------------------------------------------------------------


def test_stream_matches_replay_byte_for_byte():
    feed = (DATA / "tworoot_signals.csv").read_text()
    streamed = run_cli(
        "stream", "--kb", str(DATA / "tworoot_kb.json"), "--no-timing",
        stdin_text=feed,
    )
    replayed = replay("--no-timing")
    assert streamed.returncode == replayed.returncode == 0
    assert streamed.stdout == replayed.stdout
    assert streamed.stderr == replayed.stderr == ""


def test_a_conditional_arc_fixture_matches_its_goldens():
    """The bypass valve X3 enables the arc X5<-X4 while it reads open. It
    opens at tick 2 and closes at tick 4, where B1 can no longer explain X5
    and leaves. ``replay`` and ``stream`` print the recorded reports, and
    the forecast for B2 runs without the disabled arc, so X6 scores 0.3
    (0.213 with it)."""
    kb, signals = str(DATA / "conditional_kb.json"), DATA / "conditional_signals.csv"
    want = (DATA / "conditional_replay.jsonl").read_text(encoding="utf-8")
    replayed = run_cli("replay", "--kb", kb, "--signals", str(signals), "--no-timing")
    streamed = run_cli("stream", "--kb", kb, "--no-timing", stdin_text=signals.read_text(encoding="utf-8"))
    for got in (replayed, streamed):
        assert (got.returncode, got.stdout, got.stderr) == (0, want, "")
    assert [r["status"] for r in json_lines(want)] == ["ambiguous"] * 3 + ["diagnosed"]
    predicted = run_cli("predict", "--kb", kb, "--signals", str(signals), "--root", "2", "--state", "1")
    assert (predicted.returncode, predicted.stderr) == (0, "")
    assert predicted.stdout == (DATA / "conditional_predict.json").read_text(encoding="utf-8")
    assert json.loads(predicted.stdout)["predictions"][1] == {"var": 6, "state": 1, "probability": 0.3}


def test_a_cyclic_fixture_matches_its_goldens():
    """The coolant temperature X3 and the loop pressure X4 cause each other,
    a feedback loop both roots reach. ``replay`` and ``stream`` print the
    recorded reports; tick 4 repeats tick 1's evidence. The forecast for B2
    on tick 4's evidence reads X4 through X3 and from B2 directly:
    2/3 · 0.8 · 1/3 + 1/3 · 0.3."""
    kb, signals = str(DATA / "cyclic_kb.json"), DATA / "cyclic_signals.csv"
    want = (DATA / "cyclic_replay.jsonl").read_text(encoding="utf-8")
    replayed = run_cli("replay", "--kb", kb, "--signals", str(signals), "--no-timing")
    streamed = run_cli("stream", "--kb", kb, "--no-timing", stdin_text=signals.read_text(encoding="utf-8"))
    for got in (replayed, streamed):
        assert (got.returncode, got.stdout, got.stderr) == (0, want, "")
    reports = json_lines(want)
    assert [r["status"] for r in reports] == ["ambiguous"] * 4 and reports[3]["hypotheses"] == reports[0]["hypotheses"]
    predicted = run_cli("predict", "--kb", kb, "--signals", str(signals), "--root", "2", "--state", "1")
    assert (predicted.returncode, predicted.stderr) == (0, "")
    assert predicted.stdout == (DATA / "cyclic_predict.json").read_text(encoding="utf-8")
    x4 = json.loads(predicted.stdout)["predictions"][0]
    assert x4["var"] == 4 and x4["probability"] == pytest.approx(2 / 3 * 0.8 / 3 + 0.3 / 3, rel=1e-12)


@pytest.mark.parametrize("command", ["replay", "stream"])
def test_feed_refuses_an_invalid_kb_naming_each_finding(tmp_path, command):
    signals = DATA / "tworoot_signals.csv"
    argv = [command, "--kb", str(two_violation_kb(tmp_path))]
    if command == "replay":
        argv += ["--signals", str(signals)]
    proc = run_cli(*argv, stdin_text=signals.read_text())
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: knowledge base failed validation: PROB_RANGE[3, 1, 1, 1], COLUMN_SUM[3, 1, 1]\n"
    )


def test_stream_survives_malformed_input():
    feed = "13,MP05,0.0\ngarbage\n14,MP05,3.2\n"
    proc = run_cli(
        "stream", "--kb", str(DATA / "tworoot_kb.json"), stdin_text=feed
    )
    assert proc.returncode == 0
    assert "warning: line 2" in proc.stderr
    assert len(json_lines(proc.stdout)) == 1


# --- a feed that opens with a byte-order mark ---------------------------------------


def run_main(argv, capsys, monkeypatch, stdin_text=""):
    """``main(argv)`` in-process: its exit code, stdout and stderr."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("kb,signals", FEED_PAIRS)
def test_a_feed_opening_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, monkeypatch, kb, signals):
    """Spreadsheet "CSV UTF-8" exports open with a UTF-8 byte-order mark:
    ``replay``, ``stream`` and ``predict`` read such a copy of each fixture
    feed exactly as they read the feed."""
    plain = DATA / signals
    marked = tmp_path / signals
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    runs = []
    for feed in (plain, marked):
        text = feed.read_text(encoding="utf-8")
        runs.append([
            run_main(["replay", "--kb", str(DATA / kb), "--signals", str(feed), "--no-timing"], capsys, monkeypatch),
            run_main(["stream", "--kb", str(DATA / kb), "--no-timing"], capsys, monkeypatch, text),
            run_main(["predict", "--kb", str(DATA / kb), "--signals", str(feed), "--root", "2", "--state", "1"],
                     capsys, monkeypatch),
        ])
    assert text.startswith("\ufeff")
    assert runs[0] == runs[1]


def test_a_byte_order_mark_before_the_first_reading_keeps_it(tmp_path):
    """The mark is dropped where the first reading starts, too: tick 1 is
    diagnosed on both readings, as without the mark."""
    feed = "1,MP05,3.2\n1,MP06,4.0\n"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + feed.encode())
    kb = str(DATA / "tworoot_kb.json")
    want = run_cli("stream", "--kb", kb, "--no-timing", stdin_text=feed)
    assert (want.returncode, want.stderr) == (0, "")
    assert json_lines(want.stdout)[0]["evidence"]["abnormal"] == [{"var": 5, "state": 1}, {"var": 6, "state": 1}]
    streamed = run_cli("stream", "--kb", kb, "--no-timing", stdin_text="\ufeff" + feed)
    replayed = run_cli("replay", "--kb", kb, "--signals", str(marked), "--no-timing")
    for got in (streamed, replayed):
        assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, want.stderr)


# --- a knowledge base that opens with a byte-order mark, or is not UTF-8 -------------

KBS = sorted({kb for kb, _ in FEED_PAIRS})


def every_command(kb, tmp_path, capsys, monkeypatch):
    """Exit code, stdout and stderr of ``validate``, ``compile`` (with the
    bytes it writes) and, on each fixture feed written for ``kb``'s
    content, ``replay``, ``stream`` and ``predict``."""
    out = tmp_path / "compiled.json"
    out.unlink(missing_ok=True)
    runs = [
        run_main(["validate", str(kb)], capsys, monkeypatch),
        run_main(["compile", str(kb), "-o", str(out)], capsys, monkeypatch),
        out.read_bytes() if out.exists() else None,
    ]
    for signals in sorted({feed for name, feed in FEED_PAIRS if name == kb.name}):
        feed = str(DATA / signals)
        runs += [
            run_main(["replay", "--kb", str(kb), "--signals", feed, "--no-timing"], capsys, monkeypatch),
            run_main(["stream", "--kb", str(kb), "--no-timing"], capsys, monkeypatch,
                     (DATA / signals).read_text(encoding="utf-8")),
            run_main(["predict", "--kb", str(kb), "--signals", feed, "--root", "2", "--state", "1"],
                     capsys, monkeypatch),
        ]
    return runs


@pytest.mark.parametrize("name", KBS)
def test_a_kb_opening_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, monkeypatch, name):
    """Editors that save "UTF-8 with BOM" put a byte-order mark first: every
    command reads such a copy of each fixture KB exactly as the KB, and so
    does ``parse_kb``."""
    plain = DATA / name
    (tmp_path / "marked").mkdir()
    marked = tmp_path / "marked" / name
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    want = every_command(plain, tmp_path, capsys, monkeypatch)
    assert want[0][0] in (0, 1) and want[2] is not None and len(want) >= 6
    assert every_command(marked, tmp_path, capsys, monkeypatch) == want
    text = plain.read_text(encoding="utf-8")
    assert serialize_kb(parse_kb("\ufeff" + text)) == serialize_kb(parse_kb(text))


@pytest.mark.parametrize("where", ["twice", "after a space", "inside"])
def test_a_byte_order_mark_anywhere_else_in_a_kb_is_refused(tmp_path, where):
    text = (DATA / "tworoot_kb.json").read_text(encoding="utf-8")
    text, error = {
        "twice": ("\ufeff\ufeff" + text, "line 1, column 1: Unexpected UTF-8 BOM"),
        "after a space": (" \ufeff" + text, "line 1, column 2: Expecting value"),
        "inside": (text.replace('"version": 1', '"version": \ufeff1', 1), "line 2, column 14: Expecting value"),
    }[where]
    assert text.count("\ufeff") == 1 + (where == "twice")
    kb = tmp_path / "kb.json"
    kb.write_text(text, encoding="utf-8")
    proc = run_cli("validate", str(kb))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: invalid JSON at {error}")
    with pytest.raises(KBSyntaxError):
        parse_kb(text)


NOT_UTF8 = {
    "UTF-16 mark": (b"\xff\xfe{}", "error: invalid UTF-8 at byte 0: invalid start byte\n"),
    "Latin-1 label": (
        (DATA / "tworoot_kb.json").read_bytes().replace(b"fault", b"fa\xefult", 1),
        "error: invalid UTF-8 at byte {}: invalid continuation byte\n",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
@pytest.mark.parametrize("command", ["validate", "compile", "replay", "stream", "predict"])
def test_a_kb_that_is_not_utf8_is_a_syntax_error(tmp_path, capsys, monkeypatch, command, case):
    """Every command names the first byte that is not UTF-8 and exits 1."""
    data, error = NOT_UTF8[case]
    kb = tmp_path / "kb.json"
    kb.write_bytes(data)
    signals = str(DATA / "tworoot_signals.csv")
    argv = {
        "validate": ["validate", str(kb)],
        "compile": ["compile", str(kb), "-o", str(tmp_path / "out.json")],
        "replay": ["replay", "--kb", str(kb), "--signals", signals],
        "stream": ["stream", "--kb", str(kb)],
        "predict": ["predict", "--kb", str(kb), "--signals", signals, "--root", "1", "--state", "1"],
    }[command]
    assert run_main(argv, capsys, monkeypatch) == (1, "", error.format(data.find(b"\xef")))


def test_a_kb_that_is_not_utf8_exits_one_without_a_traceback(tmp_path):
    kb = tmp_path / "kb.json"
    kb.write_bytes(NOT_UTF8["UTF-16 mark"][0])
    for argv in (["validate", str(kb)], ["stream", "--kb", str(kb)]):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", NOT_UTF8["UTF-16 mark"][1])


# --- a feed that is not UTF-8 --------------------------------------------------------


def test_a_feed_byte_that_is_not_utf8_is_a_warning_in_every_feed_command(tmp_path):
    """``replay`` and ``predict`` read a ``--signals`` file as ``stream``
    reads stdin, whatever the locale's error handler for stdin: a byte that
    is not UTF-8 makes its field unreadable, which is a warning."""
    feed = b"1,MP05,3.2\n2,MP\xff06,4.0\n3,MP06,4.0\n"
    signals = tmp_path / "feed.csv"
    signals.write_bytes(feed)
    kb = str(DATA / "tworoot_kb.json")
    warning = "warning: tick 2: unknown measure point 'MP\\udcff06'\n"
    streamed = [
        run_cli("stream", "--kb", kb, "--no-timing", stdin_bytes=feed, env={"PYTHONIOENCODING": handler})
        for handler in ("utf-8:strict", "utf-8:surrogateescape")
    ]
    replayed = run_cli("replay", "--kb", kb, "--signals", str(signals), "--no-timing")
    assert (replayed.returncode, replayed.stderr) == (0, warning)
    assert len(json_lines(replayed.stdout)) == 2
    for got in streamed:
        assert (got.returncode, got.stdout, got.stderr) == (0, replayed.stdout, warning)
    predicted = run_cli("predict", "--kb", kb, "--signals", str(signals), "--root", "1", "--state", "1")
    assert (predicted.returncode, predicted.stderr) == (0, warning)


# --- predict ----------------------------------------------------------------------


@pytest.fixture()
def first_trigger_feed(tmp_path):
    lines = (DATA / "tworoot_signals.csv").read_text().splitlines()
    kept = [l for l in lines if not l[:2].isdigit() or int(l.split(",")[0]) <= 14]
    feed = tmp_path / "prefix.csv"
    feed.write_text("\n".join(kept) + "\n")
    return feed


def test_predict_golden_values(first_trigger_feed):
    proc = run_cli(
        "predict", "--kb", str(DATA / "tworoot_kb.json"),
        "--signals", str(first_trigger_feed), "--root", "1", "--state", "1",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["root"] == 1 and payload["state"] == 1
    rows = [(p["var"], p["state"], p["probability"]) for p in payload["predictions"]]
    assert rows == [
        (3, 1, pytest.approx(0.5)),
        (6, 1, pytest.approx(0.4)),
        (4, 1, pytest.approx(0.07)),
    ]


def test_predict_rejects_unknown_fault_state():
    proc = run_cli(
        "predict", "--kb", str(DATA / "tworoot_kb.json"),
        "--signals", str(DATA / "tworoot_signals.csv"), "--root", "1", "--state", "7",
    )
    assert proc.returncode == 1
    assert "not a declared abnormal fault state" in proc.stderr


def test_predict_rejects_non_root_target():
    proc = run_cli(
        "predict", "--kb", str(DATA / "tworoot_kb.json"),
        "--signals", str(DATA / "tworoot_signals.csv"), "--root", "5", "--state", "1",
    )
    assert proc.returncode == 1


def test_predict_eliminated_root_exits_two():
    # after the full scenario root 1 has been ruled out
    proc = run_cli(
        "predict", "--kb", str(DATA / "tworoot_kb.json"),
        "--signals", str(DATA / "tworoot_signals.csv"), "--root", "1", "--state", "1",
    )
    assert proc.returncode == 2
    assert "not in the surviving hypothesis space" in proc.stderr


def test_predict_before_any_trigger_scores_every_observable():
    # an all-normal feed never triggers: every root is still alive, with no
    # abnormal evidence yet, so X5 is predicted too
    proc = run_cli(
        "predict", "--kb", str(DATA / "tworoot_kb.json"),
        "--signals", str(DATA / "tworoot_allnormal_signals.csv"), "--root", "1", "--state", "1",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [(p["var"], p["state"], p["probability"]) for p in json.loads(proc.stdout)["predictions"]]
    assert rows == [
        (3, 1, pytest.approx(0.5)),
        (6, 1, pytest.approx(0.4)),
        (5, 1, pytest.approx(0.1)),
        (4, 1, pytest.approx(0.07)),
    ]


def test_predict_no_recovery_retrigger_keeps_the_recovery_tick_out(tmp_path):
    # X5 and X6 turn abnormal at tick 1; X5 recovers at tick 2. By default the
    # recovery re-diagnoses, so X5 is normal in root 2's slice and predicted
    feed = tmp_path / "recovery.csv"
    feed.write_text("1,MP05,3.2\n1,MP06,4.0\n2,MP05,0.1\n")
    rows = {}
    for flags in ((), ("--no-recovery-retrigger",)):
        proc = run_cli(
            "predict", "--kb", str(DATA / "tworoot_kb.json"), "--signals", str(feed),
            "--root", "2", "--state", "1", *flags,
        )
        assert proc.returncode == 0, proc.stderr
        rows[flags] = {(p["var"], p["state"]): p["probability"] for p in json.loads(proc.stdout)["predictions"]}
    assert rows[()][(5, 1)] == pytest.approx(0.5)
    assert (5, 1) not in rows[("--no-recovery-retrigger",)]


def test_predict_after_a_full_recovery_reads_the_recovery_tick(tmp_path):
    """X5 turns abnormal, then every reading is normal again. The recovery
    triggers but is not diagnosed, having nothing abnormal; the forecast
    still reads its evidence and scores X5, as it would had X5 never been
    abnormal."""
    rows = []
    for feed in ("1,MP05,2.0\n2,MP05,0.5\n", "1,MP05,0.5\n"):
        signals = tmp_path / "recovery.csv"
        signals.write_text(feed)
        proc = run_cli(
            "predict", "--kb", str(DATA / "tworoot_kb.json"), "--signals", str(signals),
            "--root", "2", "--state", "1",
        )
        assert proc.returncode == 0, proc.stderr
        rows.append({(p["var"], p["state"]): p["probability"] for p in json.loads(proc.stdout)["predictions"]})
    assert rows[0][(5, 1)] == pytest.approx(0.5)
    assert rows[0] == rows[1]


def test_predict_on_a_long_chain_exits_zero(tmp_path):
    """A chain of 1,500 X variables whose ids descend from the root at 1501:
    each X at distance d scores 0.9^d. ``stream`` reads the same KB."""
    from ducg import CausalArc, KnowledgeBase, StateDef, Variable, serialize_kb

    states = (StateDef(0, "normal", "normal"), StateDef(1, "high", "abnormal"))
    ids = list(range(1501, 0, -1))
    variables = {
        v: Variable(id=v, kind="X" if d else "B", label="", states=states, prior=None if d else {1: 0.1})
        for d, v in enumerate(ids)
    }
    arcs = [CausalArc(c, p, 1.0, {1: {1: 0.9}}) for c, p in zip(ids[1:], ids)]
    kb = tmp_path / "chain.json"
    kb.write_text(serialize_kb(KnowledgeBase(variables, arcs)))
    proc = run_cli("predict", "--kb", str(kb), "--root", "1501", "--state", "1", stdin_text="")
    assert proc.returncode == 0, proc.stderr
    got = {p["var"]: p["probability"] for p in json.loads(proc.stdout)["predictions"]}
    assert got == {v: pytest.approx(0.9 ** (1501 - v), rel=1e-12) for v in range(1, 1501)}
    assert run_cli("stream", "--kb", str(kb), stdin_text="").returncode == 0


def test_predict_help_lists_no_recovery_retrigger():
    proc = run_cli("predict", "--help")
    assert proc.returncode == 0
    assert "--no-recovery-retrigger" in proc.stdout


@pytest.mark.parametrize("kb_name,signals", FEED_PAIRS)
def test_cli_forecast_is_the_api_forecast_on_the_last_trigger(capsys, monkeypatch, kb_name, signals):
    """``ducg predict`` forecasts every abnormal state of every B root from
    the evidence of the feed's last triggering tick, an all-normal recovery
    included, or from none before a trigger; and it exits 2 exactly when
    the root has left the hypothesis space. Both are rebuilt here from the
    gateway and a session."""
    kb = parse_kb((DATA / kb_name).read_text(encoding="utf-8"))
    lines = (DATA / signals).read_text(encoding="utf-8").splitlines()
    subs = {sub.root: sub for sub in decompose(kb)}
    roots = [v for v in kb.variables.values() if v.kind == "B"]
    for retrigger in (True, False):
        session, snapshot, states = DiagnosisSession(kb), None, {}
        for tick, readings in iter_reading_groups(lines):
            snapshot, trigger = ingest_tick(snapshot, tick, readings, kb, retrigger_on_recovery=retrigger)
            if trigger:
                states = snapshot.assignments
                if snapshot.abnormal_set:
                    session.diagnose_tick(snapshot)
        flags = [] if retrigger else ["--no-recovery-retrigger"]
        for root in roots:
            for state in root.abnormal_state_ids:
                argv = ["predict", "--kb", str(DATA / kb_name), "--signals", str(DATA / signals),
                        "--root", str(root.id), "--state", str(state), *flags]
                code, out, err = run_main(argv, capsys, monkeypatch)
                if root.id not in session.alive_roots:
                    assert (code, out) == (2, ""), argv
                    assert err == f"error: root {root.id} is not in the surviving hypothesis space\n"
                    continue
                assert (code, err) == (0, ""), argv
                payload = json.loads(out)
                assert (payload["root"], payload["state"]) == (root.id, state)
                rows = [(p["var"], p["state"], p["probability"]) for p in payload["predictions"]]
                assert rows == predict(subs[root.id], states, kb, state), argv


# Every option of the feed commands: its names -> (required, default,
# action, type, help). The order of the options is free; predict's ``--kb``
# reads its help text from the parser the three commands share.
_HELP = (False, argparse.SUPPRESS, "_HelpAction", None, "show this help message and exit")
_KB = (True, None, "_StoreAction", None, "knowledge base JSON file")
_NO_RETRIGGER = (
    False, False, "_StoreTrueAction", None, "do not re-diagnose when an abnormal variable returns to normal"
)
_REPORT_OPTIONS = {
    ("-h", "--help"): _HELP,
    ("--kb",): _KB,
    ("--verbose",): (False, False, "_StoreTrueAction", None, "also report non-triggering ticks"),
    ("--pretty",): (False, False, "_StoreTrueAction", None, "human tables instead of JSON lines"),
    ("--no-timing",): (
        False, False, "_StoreTrueAction", None, "emit timing_ms as 0.0 (deterministic output)"
    ),
    ("--dot-dir",): (False, None, "_StoreAction", None, "write per-root DOT graphs here"),
    ("--no-recovery-retrigger",): _NO_RETRIGGER,
}
FEED_OPTIONS = {
    "replay": {**_REPORT_OPTIONS, ("--signals",): (True, None, "_StoreAction", None, "CSV signal file")},
    "stream": _REPORT_OPTIONS,
    "predict": {
        ("-h", "--help"): _HELP,
        ("--kb",): _KB,
        ("--signals",): (False, None, "_StoreAction", None, "CSV signal file (default: stdin)"),
        ("--root",): (True, None, "_StoreAction", int, None),
        ("--state",): (True, None, "_StoreAction", int, None),
        ("--no-recovery-retrigger",): _NO_RETRIGGER,
    },
}


@pytest.mark.parametrize("command", sorted(FEED_OPTIONS))
def test_feed_commands_keep_every_option(command):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        tuple(a.option_strings): (a.required, a.default, type(a).__name__, a.type, a.help)
        for a in commands.choices[command]._actions
    }
    assert options == FEED_OPTIONS[command]


# --- formatting -------------------------------------------------------------------


def test_format_probability_floor_and_digits():
    from ducg.cli import format_probability

    assert format_probability(0.935065) == "93.51%"
    assert format_probability(0.5) == "50%"
    assert format_probability(1.0) == "100%"
    assert format_probability(1e-5) == "0.001%"
    assert format_probability(9e-6) == "<0.001%"
    assert format_probability(0.0) == "<0.001%"


_EDGE_FLOATS = [5e-324, 1e-300, 1.0, 0.1 + 0.2, 1 / 3, 0.0]
_probabilities = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.0, 1.0))
_hypotheses = st.lists(
    st.builds(
        HypothesisResult,
        root=st.integers(1, 10**6),
        state=st.integers(1, 9),
        joint=_probabilities,
        zeta=_probabilities,
        xi=_probabilities,
        posterior=_probabilities,
    ),
    max_size=5,
).map(tuple)
_pairs = st.lists(st.tuples(st.integers(1, 10**6), st.integers(0, 9)), max_size=4).map(tuple)
_reports = st.builds(
    DiagnosisReport,
    tick=st.integers(0, 2**63),
    status=st.sampled_from(["diagnosed", "ambiguous", "unexplained", "no_trigger"]),
    hypotheses=_hypotheses,
    abnormal=_pairs,
    normal=_pairs,
    timing_ms=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
)


@settings(max_examples=300, deadline=None)
@given(
    reports=st.lists(_reports, min_size=1, max_size=6),
    with_timing=st.booleans(),
    later=st.lists(st.tuples(st.integers(0, 2**63), st.floats()), min_size=1, max_size=3),
)
def test_report_line_equals_json_dumps(reports, with_timing, later):
    """Every emitted line is ``json.dumps`` of the report, whether its
    members come from the cache or not: each report is emitted as built,
    again at later ticks with other timings on the same tuples, then with
    its evidence tuples swapped for equal copies and for the first report's
    abnormal tuple."""
    cache = OrderedDict()

    def check(report):
        expected = json.dumps(_report_json(report, with_timing), separators=_JSON_SEPARATORS) + "\n"
        assert _report_line(report, with_timing, cache) == expected

    for report in reports:
        check(report)
        for tick, timing in later:
            check(replace(report, tick=tick, timing_ms=timing))
        copies = {"abnormal": tuple(list(report.abnormal)), "normal": tuple(list(report.normal))}
        check(replace(report, **copies))
        check(replace(report, abnormal=reports[0].abnormal))
    assert len(cache) <= _MEMO_SIZE


def test_report_line_cache_is_bounded_least_recently_used_first():
    made = [
        DiagnosisReport(t, "diagnosed", (HypothesisResult(t, 1, 0.5, 0.5, 1.0, 1.0),), ((t, 1),), (), 0.2)
        for t in range(_MEMO_SIZE + 1)
    ]
    cache = OrderedDict()
    for report in made:
        _report_line(report, True, cache)
    assert len(cache) == _MEMO_SIZE and id(made[0].hypotheses) not in cache
    _report_line(made[1], True, cache)  # a hit makes it the most recently used
    assert next(reversed(cache)) == id(made[1].hypotheses)
    assert _report_line(made[0], False, cache) == json.dumps(
        _report_json(made[0], False), separators=_JSON_SEPARATORS) + "\n"
