"""Nothing changes a value the stream has handed out, or a record of the
knowledge base it runs on.

The snapshot, slice, layer, hypothesis and report types are slotted
dataclasses, so nothing guards their fields, and they are shared across
ticks: an unchanged tick's snapshot holds the previous snapshot's
assignments, and a memo hit hands out stored slices and tuples again. So the
``repr`` of each snapshot, report and layer, taken when it is returned, must
still read the same once the whole stream has run. A session's frames are
not handed out, but a kept frame serves later ticks, so its ``repr`` after
each tick must read the same at the end too.

The KB's records are slotted or plain dataclasses too, and just as shared:
variables and subgraphs that repeat a state or arc document hold one object,
and every subgraph of the session holds the KB's own variables and arcs. So
the ``repr`` of each variable, state, arc and subgraph, taken before the
session is built, must still read the same once the stream has run."""

import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

from ducg import DiagnosisSession, KnowledgeBase, ingest_tick, iter_reading_groups, parse_kb

from generators import random_kb

DATA = Path(__file__).parent / "data"
STREAMS = 200


def records(kb, subgraphs=()):
    """Each variable, state, arc and subgraph of ``kb``, and each of
    ``subgraphs``, with its ``repr`` now."""
    found = []
    for var in kb.variables.values():
        found += [var, *var.states]
    found += [*kb.doc_arcs, *kb.arcs]
    for sub in (*kb.subducgs, *subgraphs):
        found += [sub, *sub.variables.values(), *sub.arcs]
    return [(record, repr(record)) for record in found]


def drive(kb, batches):
    """Run ``(tick, readings)`` batches through the gateway and a session.
    Return each value handed out, and each record of ``kb`` and of the
    session's subgraphs, with its ``repr`` at that moment; and how many
    snapshots held the previous snapshot's assignments and how many layers
    held a slice handed out before, and how many kept frames were kept
    before. The KB's records are taken before the session is built, so a
    change made while building it shows too."""
    handed = records(kb)
    session = DiagnosisSession(kb)
    handed += records(kb, session._subs.values())
    slices, frames = set(), set()
    shared_assignments = shared_slices = shared_frames = 0
    prev = None
    for tick, readings in batches:
        before = prev
        prev, triggered = ingest_tick(prev, tick, readings, kb, on_error=lambda *_: None)
        handed.append((prev, repr(prev)))
        shared_assignments += before is not None and prev.assignments is before.assignments
        if triggered and prev.abnormal_set:
            report = session.diagnose_tick(prev)
            handed.append((report, repr(report)))
            for root in session.alive_roots:
                layer = session.cubic(root)
                handed.append((layer, repr(layer)))
                shared_slices += id(layer.latest) in slices
                slices.add(id(layer.latest))
            for frame in session._frames.values():
                handed.append((frame, repr(frame)))
                shared_frames += id(frame) in frames
                frames.add(id(frame))
    return handed, shared_assignments, shared_slices, shared_frames


def gauged(kb):
    """``kb`` with a measure point on each X variable, whose state k reads
    the values in (k - 0.5, k + 0.5]."""
    def gauge(var):
        states = tuple(replace(s, interval=(s.state_id - 0.5, s.state_id + 0.5)) for s in var.states)
        return replace(var, measure_point=f"MP{var.id}", states=states)

    variables = {v: gauge(var) if var.kind == "X" else var for v, var in kb.variables.items()}
    return KnowledgeBase(variables, kb.arcs)


def chattering_batches(rng, kb, ticks=40):
    """Batches of 0-3 readings of random observables, each the midpoint of
    one of its bands. After the first few, four in ten repeat one of the
    last eight batches, so evidence patterns come back and ticks often
    change nothing."""
    observables = [var for var in kb.variables.values() if var.measure_point]
    batches = []
    for tick in range(ticks):
        if len(batches) > 3 and rng.random() < 0.4:
            readings = rng.choice(batches[-8:])[1]
        else:
            readings = [
                (var.measure_point, sum(rng.choice(var.bands)[:2]) / 2)
                for var in rng.sample(observables, rng.randint(0, min(3, len(observables))))
            ]
        batches.append((tick, readings))
    return batches


def test_no_value_handed_out_changes():
    streams = []
    kb = parse_kb((DATA / "tworoot_kb.json").read_text())
    lines = (DATA / "tworoot_chatter_signals.csv").read_text().splitlines()
    streams.append((kb, list(iter_reading_groups(lines))))
    for seed in range(STREAMS):
        rng = random.Random(seed)
        kb = gauged(random_kb(rng, with_default_cause=seed % 2 == 1))
        streams.append((kb, chattering_batches(rng, kb)))

    handed, shared = [], [0, 0, 0]
    for kb, batches in streams:
        values, *counts = drive(kb, batches)
        handed += values
        shared = [total + count for total, count in zip(shared, counts)]
    assert [repr(value) for value, _ in handed] == [taken for _, taken in handed]
    # the test means something only where values are shared
    assert shared[0] > 1_000 and shared[1] > 300 and shared[2] > 300, shared


def test_no_record_of_the_plant_kb_changes(plant_doc):
    """The plant document's 400 observables carry one state document, so
    they hold one ``states`` object, which a change through any of them
    would change for all."""
    kb = parse_kb(json.dumps(plant_doc))
    ((_, sharing),) = Counter(id(var.states) for var in kb.variables.values()).most_common(1)
    assert sharing >= 400, sharing
    handed, *_ = drive(kb, chattering_batches(random.Random(11), kb, ticks=12))
    assert [repr(value) for value, _ in handed] == [taken for _, taken in handed]
