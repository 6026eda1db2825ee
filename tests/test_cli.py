"""End-to-end command line behaviour, run through real subprocesses."""

import json
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ducg.cli import _JSON_SEPARATORS, _report_json, _report_line
from ducg.engine import _MEMO_SIZE, DiagnosisReport, HypothesisResult

from conftest import run_cli

DATA = Path(__file__).parent / "data"


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


def test_validate_reports_violations(tmp_path):
    doc = json.loads((DATA / "tworoot_kb.json").read_text())
    doc["arcs"][0]["matrix"]["1"]["1"] = 1.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1
    codes = {line["code"] for line in json_lines(proc.stdout)}
    assert "PROB_RANGE" in codes and "COLUMN_SUM" in codes


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


def test_compile_rejects_non_integer_root_ids(tmp_path):
    out = tmp_path / "x.json"
    proc = run_cli(
        "compile", str(DATA / "tworoot_modular_kb.json"), "-o", str(out), "--roots", "1,x"
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
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


def test_stream_survives_malformed_input():
    feed = "13,MP05,0.0\ngarbage\n14,MP05,3.2\n"
    proc = run_cli(
        "stream", "--kb", str(DATA / "tworoot_kb.json"), stdin_text=feed
    )
    assert proc.returncode == 0
    assert "warning: line 2" in proc.stderr
    assert len(json_lines(proc.stdout)) == 1


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


def test_predict_help_lists_no_recovery_retrigger():
    proc = run_cli("predict", "--help")
    assert proc.returncode == 0
    assert "--no-recovery-retrigger" in proc.stdout


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
