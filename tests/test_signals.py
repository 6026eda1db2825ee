"""Signal gateway: reading parsing, interval mapping, trigger semantics."""

import math
import random
import sys

import pytest

from ducg import (
    DucgError,
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

import gateway_reference
from test_feed_fuzz import INSERTS, JUNK


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
@pytest.mark.parametrize(
    "before,batch",
    [
        ([("MP05", 0.5)], [("MP05", 3.2), ("MP05", 0.5)]),  # normal, abnormal, normal
        ([("MP05", 3.2)], [("MP05", 0.5), ("MP05", 3.2)]),  # abnormal, normal, abnormal
        ([("MP05", 0.5), ("MP06", 0.5)], [("MP05", 3.2), ("MP06", 0.1), ("MP05", 0.5)]),
    ],
)
def test_ingest_a_channel_read_back_to_its_state_has_not_changed(tworoot_kb, retrigger, before, batch):
    """A channel that leaves its state and comes back to it within one batch
    did not change: the tick triggers nothing and its snapshot is the fold."""
    prev, _ = ingest_tick(None, 1, before, tworoot_kb)
    snap, trig = ingest_tick(prev, 2, batch, tworoot_kb, retrigger_on_recovery=retrigger)
    assert not trig
    assert snap == EvidenceSnapshot.build(2, prev.assignments)


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


@pytest.mark.parametrize("first", ["1,MP05,3.2", "tick,measure_point,value", "# a comment", ""])
def test_iter_reading_groups_drops_a_byte_order_mark_on_the_first_line_only(first):
    """A UTF-8 byte-order mark opening a feed is not part of its first
    line, whatever that line holds; later in the feed it is a stray
    character, and its line is malformed."""
    feed = [first, "1,MP05,3.2", "1,MP06,4.0", "\ufeff2,MP05,0.1", "2,MP06,0.1"]
    errors = []
    marked = collect(["\ufeff" + first, *feed[1:]], errors)
    assert marked == collect(feed)
    assert marked == [(1, [("MP05", 3.2)] * (first[:1] == "1") + [("MP05", 3.2), ("MP06", 4.0)]),
                      (2, [("MP06", 0.1)])]
    assert [(n, str(e)) for n, e in errors] == [(4, "tick '\\ufeff2' is not an integer (column 1)")]


# --- the gateway against its frozen copy -------------------------------------------

# Padding that ``strip``, ``int`` and ``float`` all take for whitespace.
PADS = ("", " ", "\t", "\xa0", "\u2003")
TICK_FIELDS = ("14", "0", "-0", "+5", "1_0", "\u0661\u0662", "-1", "1.5", "x", "", "9" * 40, "0x10")
POINT_FIELDS = ("MP05", "MP99", "", "mp05", "M P")
VALUE_FIELDS = ("3.2", "1", "1.0", "-1", "10", "+5", "1_0", "\u0661\u0662", "1e400", "nan", "-inf", "", "x")
SHAPES = (
    "14", "14,MP05", "14,MP05,", "14,MP05,3.2,", ",14,MP05,3.2", "14,,MP05,3.2",
    "14,MP05,3.2,4", "14;MP05;3.2", ",", ",,", ",,,",
)
# Headers in any case, and lines that only look like one: the Kelvin sign
# lowers to "k", and "İ" lowers to two characters.
HEADERS = (
    "tick,measure_point,value", "TICK,MP05,3.2", "Tick,x", "tIcK,", " tick,1,2",
    "TIC\u212a,1,2", "\u212aick,1,2", "T\u0130CK,1,2", "tick", "ticks,1,2", "TICK ,1,2",
)


def _corpus():
    lines = [
        f"{pad}{t}{pad},{pad}{p}{pad},{pad}{v}{pad}"
        for t in TICK_FIELDS for p in POINT_FIELDS for v in VALUE_FIELDS for pad in PADS
    ]
    for junk in JUNK:
        for i in range(3):
            fields = ["14", "MP05", "3.2"]
            fields[i] = junk
            lines.append(",".join(fields))
    return lines + [*INSERTS, *SHAPES, *HEADERS]


def test_no_character_lowers_to_nothing_or_into_a_header():
    """What lets the grouper lower only a line's first five characters to
    spot a header: no character lowers to nothing, and none that lowers to
    several characters (such as "\u0130") could supply part of "tick,"."""
    lowered = [chr(c).lower() for c in range(sys.maxunicode + 1)]
    assert all(lowered)
    header = "tick,"
    for low in lowered:
        if len(low) > 1:
            assert all(header[i:i + len(low)] != low[:5 - i] for i in range(5)), repr(low)


def _described(exc):
    """An error's type, text and attributes (column, measure point)."""
    return type(exc), str(exc), vars(exc)


def _outcome(call, *args, **kwargs):
    """The ``repr`` of what ``call`` returns, or of the error it raises."""
    try:
        return repr(call(*args, **kwargs))
    except DucgError as exc:
        return repr(_described(exc))


def test_parse_signal_record_equals_the_frozen_gateway():
    """Each corpus line, as given and stripped as the grouper strips it,
    parses to the same tuple or fails with the same text and column. A
    floor on the lines the frozen copy rejects in each column keeps every
    check exercised."""
    rejected = {}
    for line in _corpus():
        for given in (line, line.strip()):
            want = _outcome(gateway_reference.parse_signal_record, given)
            assert _outcome(parse_signal_record, given) == want, repr(given)
        try:
            gateway_reference.parse_signal_record(line)
        except MalformedLineError as exc:
            rejected[exc.column] = rejected.get(exc.column, 0) + 1
    floors = {0: 15, 1: 1600, 2: 450, 3: 700}
    assert all(rejected.get(column, 0) >= n for column, n in floors.items()), rejected


@pytest.mark.parametrize("order", ["as built", "shuffled", "sorted"])
def test_iter_reading_groups_equals_the_frozen_gateway(order):
    """The corpus as one feed groups into the same batches with the same
    reported lines; and each line after a good one raises as the frozen
    copy raises when nothing is reported."""
    lines = _corpus()
    if order == "shuffled":
        random.Random(5).shuffle(lines)
    elif order == "sorted":
        lines.sort()

    def run(grouper):
        errors = []
        groups = list(grouper(lines, on_error=lambda n, e: errors.append((n, _described(e)))))
        return repr(groups), errors

    assert run(iter_reading_groups) == run(gateway_reference.iter_reading_groups)
    if order == "as built":
        for line in lines:
            feed = ["1,MP05,0.0", line]
            want = _outcome(lambda: list(gateway_reference.iter_reading_groups(feed)))
            assert _outcome(lambda: list(iter_reading_groups(feed))) == want, repr(line)


def test_map_reading_equals_the_frozen_gateway(tworoot_kb, plant_kb):
    """Every gauged variable of both fixture KBs, and one whose intervals
    overlap, maps each bound, its neighbours and non-finite values alike."""
    overlapping = Variable(
        id=9, kind="X", label="overlapping",
        states=(
            StateDef(0, "normal", "normal", (0.0, 5.0)),
            StateDef(1, "high", "abnormal", (-1.0, 10.0)),
            StateDef(2, "unmapped", "abnormal"),
        ),
        measure_point="P9",
    )
    ungauged = Variable(id=8, kind="X", label="ungauged", states=(StateDef(0, "n", "normal"),))
    variables = [*tworoot_kb.variables.values(), *plant_kb.variables.values(), overlapping, ungauged]
    gauged = 0
    for var in variables:
        values = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
        for s in var.states:
            for bound in s.interval or ():
                values += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
        for value in values:
            want = _outcome(gateway_reference.map_reading, var, value)
            assert _outcome(map_reading, var, value) == want, (var.id, value)
        gauged += bool(var.bands)
    assert gauged == 5 + 5 + 1  # each fixture KB's gauges and the overlapping one
    assert map_reading(overlapping, 3.0) == 0 and map_reading(overlapping, 7.0) == 1


def _ingest(ingest, prev, tick, batch, kb, retrigger, report):
    """The snapshot to go on from, and the ``repr`` of the outcome."""
    errors = []
    on_error = (lambda t, e: errors.append((t, _described(e)))) if report else None
    try:
        snap, trig = ingest(prev, tick, batch, kb, retrigger_on_recovery=retrigger, on_error=on_error)
    except DucgError as exc:
        return prev, repr((_described(exc), errors))
    return snap, repr((snap, trig, errors))


@pytest.mark.parametrize("retrigger", [True, False])
def test_ingest_tick_equals_the_frozen_gateway(tworoot_kb, retrigger):
    """Random batches over known, unknown and out-of-range readings give
    the same snapshot, in the same assignment order, the same trigger and
    the same reported errors, or raise the same error unreported."""
    points = [*tworoot_kb.measure_points, "MP99"]
    values = [-1.0, -0.5, 1.0, 1.5, 10.0, 11.0]
    rng = random.Random(7)
    for _ in range(300):
        new = old = None
        for tick in range(8):
            batch = [(rng.choice(points), rng.choice(values)) for _ in range(rng.randint(0, 6))]
            report = rng.random() < 0.8
            new, got = _ingest(ingest_tick, new, tick, batch, tworoot_kb, retrigger, report)
            old, want = _ingest(gateway_reference.ingest_tick, old, tick, batch, tworoot_kb, retrigger, report)
            assert got == want, batch
