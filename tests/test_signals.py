"""Signal gateway: reading parsing, interval mapping, trigger semantics."""

import random

import pytest

from ducg import (
    EvidenceSnapshot,
    KnowledgeBase,
    MalformedLineError,
    OutOfRangeError,
    StateDef,
    UnknownMeasurePointError,
    Variable,
    ingest_tick,
    iter_reading_groups,
    map_reading,
    parse_signal_record,
)


def test_parse_signal_record():
    assert parse_signal_record("14,MP05,3.2") == (14, "MP05", 3.2)
    assert parse_signal_record(" 14 , MP05 , 3.2 ") == (14, "MP05", 3.2)


@pytest.mark.parametrize(
    "line,column",
    [
        ("14,MP05", 0),
        ("14,MP05,3.2,extra", 0),
        ("x,MP05,3.2", 1),
        ("-1,MP05,3.2", 1),
        ("14,,3.2", 2),
        ("14,MP05,abc", 3),
        ("14,MP05,nan", 3),
        ("14,MP05,inf", 3),
    ],
)
def test_parse_signal_record_rejects(line, column):
    with pytest.raises(MalformedLineError) as excinfo:
        parse_signal_record(line)
    assert excinfo.value.column == column


def test_map_reading_intervals_half_open(tworoot_kb):
    gauge = tworoot_kb.variables[5]  # state 0 ↔ (-1, 1], state 1 ↔ (1, 10]
    assert map_reading(gauge, 1.0) == 0
    assert map_reading(gauge, 1.0000001) == 1
    assert map_reading(gauge, 10.0) == 1
    assert map_reading(gauge, -0.999) == 0


def test_map_reading_out_of_range(tworoot_kb):
    gauge = tworoot_kb.variables[5]
    with pytest.raises(OutOfRangeError) as excinfo:
        map_reading(gauge, 11.0)
    assert str(excinfo.value) == "value 11.0 of variable 5 falls outside every interval"
    assert excinfo.value.measure_point == "MP05"
    with pytest.raises(OutOfRangeError):
        map_reading(gauge, -1.0)  # lower bound excluded
    ungauged = Variable(
        id=4, kind="X", label="ungauged",
        states=(StateDef(0, "normal", "normal"), StateDef(1, "high", "abnormal")),
        measure_point="P4",
    )
    with pytest.raises(OutOfRangeError) as excinfo:
        map_reading(ungauged, 0.5)
    assert str(excinfo.value) == "variable 4 declares no intervals"
    assert excinfo.value.measure_point == "P4"


def test_ingest_unknown_measure_point(tworoot_kb):
    with pytest.raises(UnknownMeasurePointError, match="^unknown measure point 'MP99'$"):
        ingest_tick(None, 1, [("MP99", 0.0)], tworoot_kb)


def test_ingest_reports_and_skips_unusable_readings(tworoot_kb):
    prev, _ = ingest_tick(None, 6, [("MP03", 0.5)], tworoot_kb)
    errors = []
    readings = [("MP99", 1.0), ("MP05", 3.2), ("MP06", 500.0), ("MP77", 2.0), ("MP04", 2.0)]
    snap, trig = ingest_tick(
        prev, 7, readings, tworoot_kb, on_error=lambda tick, exc: errors.append((tick, exc))
    )
    assert [(tick, type(exc)) for tick, exc in errors] == [
        (7, UnknownMeasurePointError),
        (7, OutOfRangeError),
        (7, UnknownMeasurePointError),
    ]
    assert [errors[0][1].measure_point, errors[2][1].measure_point] == ["MP99", "MP77"]
    assert snap.tick == 7 and trig
    assert snap.assignments == {3: 0, 5: 1, 4: 1}


def test_snapshot_split_between_abnormal_and_normal():
    snap = EvidenceSnapshot.build(3, {5: 1, 6: 0})
    assert snap.abnormal_set == {5}
    assert snap.abnormal_items() == [(5, 1)]
    assert snap.normal_items() == [(6, 0)]


def test_ingest_first_abnormal_triggers(tworoot_kb):
    snap, trig = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    assert trig
    assert snap.assignments == {5: 1}
    assert snap.tick == 14


def test_ingest_all_normal_does_not_trigger(tworoot_kb):
    snap, trig = ingest_tick(None, 13, [("MP05", 0.5)], tworoot_kb)
    assert not trig
    assert snap.abnormal_set == frozenset()


def test_ingest_persisting_abnormal_does_not_retrigger(tworoot_kb):
    prev, _ = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    snap, trig = ingest_tick(prev, 15, [("MP05", 3.4)], tworoot_kb)
    assert not trig
    assert snap.abnormal_set == prev.abnormal_set


def test_ingest_new_abnormal_variable_triggers(tworoot_kb):
    prev, _ = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    snap, trig = ingest_tick(prev, 16, [("MP06", 4.0)], tworoot_kb)
    assert trig
    assert snap.abnormal_set == {5, 6}


def test_ingest_unobserved_is_not_normal(tworoot_kb):
    prev, _ = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    # X6 never observed: it must stay out of the evidence
    assert 6 not in prev.assignments
    snap, _ = ingest_tick(prev, 15, [("MP06", 0.0)], tworoot_kb)
    assert snap.assignments[6] == 0
    assert (6, 0) in snap.normal_items()


def test_ingest_assignments_persist_across_ticks(tworoot_kb):
    prev, _ = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    snap, _ = ingest_tick(prev, 15, [("MP03", 0.0)], tworoot_kb)
    assert snap.assignments == {5: 1, 3: 0}
    assert snap.tick == 15


def test_ingest_empty_batch_takes_its_tick_and_changes_nothing(tworoot_kb):
    snap, trig = ingest_tick(None, 3, [], tworoot_kb)
    assert (snap, trig) == (EvidenceSnapshot.build(3, {}), False)
    prev, _ = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    snap, trig = ingest_tick(prev, 20, [], tworoot_kb)
    assert (snap.tick, snap.assignments, snap.abnormal_set, trig) == (20, {5: 1}, {5}, False)


def test_ingest_recovery_triggers_by_default(tworoot_kb):
    prev, _ = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    snap, trig = ingest_tick(prev, 15, [("MP05", 0.2)], tworoot_kb)
    assert trig
    assert snap.abnormal_set == frozenset()


def test_ingest_recovery_trigger_can_be_disabled(tworoot_kb):
    prev, _ = ingest_tick(None, 14, [("MP05", 3.2)], tworoot_kb)
    _, trig = ingest_tick(
        prev, 15, [("MP05", 0.2)], tworoot_kb, retrigger_on_recovery=False
    )
    assert not trig


def test_ingest_abnormal_state_change_triggers():
    # a gauge with two abnormal bands behind one measure point
    gauged = Variable(
        id=3,
        kind="X",
        label="pressure",
        states=(
            StateDef(0, "normal", "normal", (0.0, 1.0)),
            StateDef(1, "high", "abnormal", (1.0, 2.0)),
            StateDef(2, "very-high", "abnormal", (2.0, 3.0)),
        ),
        measure_point="P1",
    )
    root = Variable(
        id=1, kind="B", label="fault",
        states=(StateDef(0, "normal", "normal"), StateDef(1, "s1", "abnormal")),
        prior={1: 0.1},
    )
    kb = KnowledgeBase({1: root, 3: gauged})
    prev, trig = ingest_tick(None, 1, [("P1", 1.5)], kb)
    assert trig and prev.assignments[3] == 1
    snap, trig = ingest_tick(prev, 2, [("P1", 2.5)], kb)
    assert trig and snap.assignments[3] == 2


def test_ingest_last_reading_wins(tworoot_kb):
    snap, _ = ingest_tick(
        None,
        14,
        [("MP05", 3.2), ("MP05", 0.1)],
        tworoot_kb,
    )
    assert snap.assignments == {5: 0}


@pytest.mark.parametrize("retrigger", [True, False])
def test_ingest_equals_a_fold_from_scratch_on_random_streams(retrigger):
    """``ingest_tick`` moves only the variables a tick changed; each snapshot
    and trigger must equal a rebuild from every reading so far, with the
    trigger read off the abnormal (variable, state) pairs."""
    gauges = {
        v: Variable(
            id=v, kind="X", label=f"gauge {v}",
            states=(
                StateDef(0, "normal", "normal", (0.0, 1.0)),
                StateDef(1, "high", "abnormal", (1.0, 2.0)),
                StateDef(2, "very-high", "abnormal", (2.0, 3.0)),
            ),
            measure_point=f"P{v}",
        )
        for v in (2, 3, 4)
    }
    root = Variable(
        id=1, kind="B", label="fault",
        states=(StateDef(0, "normal", "normal"), StateDef(1, "s1", "abnormal")),
        prior={1: 0.1},
    )
    kb = KnowledgeBase({1: root, **gauges})
    points = {g.measure_point: g for g in gauges.values()}
    rng = random.Random(3)
    for _ in range(200):
        prev, folded = None, {}
        for tick in range(12):
            batch = [  # PX is unknown and 9.0 out of range: both are skipped
                (rng.choice([*points, "PX"]), rng.choice([0.5, 1.5, 2.5, 9.0]))
                for _ in range(rng.randint(0, 4))
            ]
            snap, trig = ingest_tick(
                prev, tick, batch, kb, retrigger_on_recovery=retrigger, on_error=lambda t, e: None
            )
            pairs_before = {(v, s) for v, s in folded.items() if s != 0}
            for measure_point, value in batch:
                if measure_point in points and value < 3.0:
                    gauge = points[measure_point]
                    folded[gauge.id] = map_reading(gauge, value)
            pairs = {(v, s) for v, s in folded.items() if s != 0}
            recovered = {v for v, _ in pairs_before} - {v for v, _ in pairs}
            assert snap == EvidenceSnapshot.build(tick, folded)
            assert snap.normal_items() == sorted((v, s) for v, s in folded.items() if s == 0)
            assert trig == bool(pairs - pairs_before or (retrigger and recovered))
            prev = snap


# --- stream grouping -------------------------------------------------------------


def collect(lines, errors=None):
    sink = errors if errors is not None else []
    return list(
        iter_reading_groups(lines, on_error=lambda n, e: sink.append((n, e)))
    )


def test_iter_reading_groups_batches_by_tick():
    groups = collect([
        "tick,measure_point,value",
        "1,MP05,0.0",
        "1,MP06,0.0",
        "2,MP05,3.0",
    ])
    assert [(t, len(rs)) for t, rs in groups] == [(1, 2), (2, 1)]
    assert groups == [(1, [("MP05", 0.0), ("MP06", 0.0)]), (2, [("MP05", 3.0)])]


def test_iter_reading_groups_skips_comments_and_blanks():
    groups = collect(["# comment", "", "  ", "1,MP05,0.0"])
    assert len(groups) == 1


def test_iter_reading_groups_reports_malformed_and_continues():
    errors = []
    groups = collect(["1,MP05,0.0", "1,broken", "1,MP06,1.0"], errors)
    assert len(groups) == 1 and len(groups[0][1]) == 2
    assert len(errors) == 1
    line_no, exc = errors[0]
    assert line_no == 2
    assert isinstance(exc, MalformedLineError)


def test_iter_reading_groups_rejects_tick_regression():
    errors = []
    groups = collect(["2,MP05,0.0", "1,MP05,0.0", "3,MP05,1.0"], errors)
    assert [t for t, _ in groups] == [2, 3]
    assert len(errors) == 1
    assert "regresses" in str(errors[0][1])


@pytest.mark.parametrize(
    "lines,message",
    [
        (["1,MP05,0.0", "1,broken"], "expected 3 comma-separated columns, got 2 (column 0)"),
        (["2,MP05,0.0", "1,MP05,0.0"], "tick 1 regresses below 2 (column 0)"),
    ],
)
def test_iter_reading_groups_raises_without_on_error(lines, message):
    """Like ``ingest_tick``, the grouper raises what it would have reported
    when no ``on_error`` is given, instead of dropping the line silently."""
    with pytest.raises(MalformedLineError) as excinfo:
        list(iter_reading_groups(lines))
    assert str(excinfo.value) == message
