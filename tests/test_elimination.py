"""Variable elimination is bit-for-bit reproducible: ``factored_joints`` gives
exactly (``==``, not approximately) the joints of the frozen first version in
``ve_reference``, because both do the same float operations in the same
order. The reference still reads the full snapshot and a one-slice cubic
graph, as it was written to."""

import random

import pytest

import ducg.engine

from ducg import DiagnosisSession, EvidenceSnapshot, decompose, factored_joints, merge_cubic, simplify
from ducg.kb import ROOT_KINDS

import ve_reference
from generators import deep_evidence, layered_kb, random_evidence, random_kb, wandering_evidence


def valid_slices(kb, ev):
    for sub in decompose(kb):
        s = simplify(sub, ev)
        if s.valid:
            yield s


def reference(ev, s, kb):
    return ve_reference.factored_joints(ev, merge_cubic(s, ev.tick), kb)


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_factored_joints_equal_reference_on_random_battery(with_default_cause):
    compared = 0
    for seed in range(400):
        rng = random.Random(seed)
        kb = random_kb(rng, with_default_cause=with_default_cause)
        ev = random_evidence(rng, kb)
        for s in valid_slices(kb, ev):
            assert factored_joints(s, kb) == reference(ev, s, kb), (seed, s.root)
            compared += 1
    assert compared >= 350


@pytest.mark.parametrize("shape", [(8, 4, 6, 2), (8, 4, 8, 3)], ids=str)
def test_factored_joints_equal_reference_on_deep_slices(shape):
    roots, layers, width, fan_in = shape
    kb = layered_kb(random.Random(1), roots=roots, layers=layers, width=width, fan_in=fan_in)
    ev = deep_evidence(kb)
    compared = 0
    for s in valid_slices(kb, ev):
        assert factored_joints(s, kb) == reference(ev, s, kb)
        compared += 1
    assert compared >= 3


def test_factored_joints_equal_reference_along_a_stream(monkeypatch):
    """Every elimination a three-tick session runs, checked as it runs."""
    kb = layered_kb(random.Random(1), roots=8, layers=4, width=6, fan_in=2)
    ev = deep_evidence(kb)
    first = ev.assignments
    widest = max(valid_slices(kb, ev), key=lambda s: len(s.variables))
    # Unread variables on the widest slice: reading them keeps that root alive.
    a, b = sorted(v for v in widest.variables if v not in first and v != widest.root)[:2]
    ticks = [first, {**first, a: 1}, {**first, a: 1, b: 0}]

    checked = []
    session = DiagnosisSession(kb)
    ev = None

    def checking(s, kb, *, tables=None):
        got = factored_joints(s, kb, tables=tables)
        assert got == reference(ev, s, kb), (ev.tick, s.root)
        checked.append(ev.tick)
        return got

    monkeypatch.setattr(ducg.engine, "factored_joints", checking)
    for tick, assignments in enumerate(ticks, start=1):
        ev = EvidenceSnapshot.build(tick, assignments)
        session.diagnose_tick(ev)
    assert set(checked) == {1, 2, 3}


def _family_count(s, kb):
    """The family factors elimination builds for slice ``s``: one per
    variable other than a root with a retained in-arc."""
    return len({a.child for a in s.arcs if kb.variables[a.child].kind not in ROOT_KINDS})


def test_stored_family_tables_keep_every_joint_exact(monkeypatch):
    """Sessions on wandering layered streams, 20 seeds on each of two
    shapes. Every elimination run with the session's store gives exactly the
    joints of the same call without one, and of the reference. A family the
    store supplies is a same-tick hit if this tick stored it first, a
    previous-tick hit if the last ranked tick did."""
    real = factored_joints
    counts = {"same tick": 0, "previous tick": 0, "built": 0}
    ev = None

    def checking(s, kb, *, tables=None):
        built, last = tables
        before = set(built)
        got = real(s, kb, tables=tables)
        assert got == real(s, kb) == reference(ev, s, kb), (ev.tick, s.root)
        new = [key for key in built if key not in before]
        previous = sum(built[key] is last.get(key) for key in new)
        counts["same tick"] += _family_count(s, kb) - len(new)
        counts["previous tick"] += previous
        counts["built"] += len(new) - previous
        return got

    monkeypatch.setattr(ducg.engine, "factored_joints", checking)
    for shape in [(8, 4, 6, 2), (8, 4, 8, 2)]:
        for seed in range(20):
            rng = random.Random(seed)
            kb = layered_kb(rng, *shape)
            session = DiagnosisSession(kb)
            for tick, assignments in enumerate(wandering_evidence(rng, kb, 12), start=1):
                ev = EvidenceSnapshot.build(tick, assignments)
                session.diagnose_tick(ev)
    # measured: 8,146 same-tick and 9,299 previous-tick hits, 2,611 builds
    assert counts["same tick"] >= 7_000 and counts["previous tick"] >= 8_000, counts


def test_the_store_holds_the_last_ranked_miss_ticks_tables_unwritten(monkeypatch):
    """240 ticks on one session mix memo misses and full hits. A hit leaves
    the store as it is; a miss replaces it with the tables its eliminations
    built or reused. At the end the store holds exactly the families of the
    last miss tick's eliminations, each equal to a fresh build, so no stored
    table was written. A tick that raises mid-evaluation leaves the store
    object and its entries as they were."""
    rng = random.Random(3)
    kb = layered_kb(rng, 8, 4, 6, 2)
    stream = wandering_evidence(rng, kb, 240)
    real_simplify, real_joints = ducg.engine.simplify, factored_joints
    sliced, eliminated = [], []  # this tick's calls

    def slicing(sub, ev, **keywords):
        sliced.append(sub.root)
        return real_simplify(sub, ev, **keywords)

    def eliminating(s, kb, *, tables=None):
        eliminated.append(s)
        return real_joints(s, kb, tables=tables)

    monkeypatch.setattr(ducg.engine, "simplify", slicing)
    monkeypatch.setattr(ducg.engine, "factored_joints", eliminating)
    session = DiagnosisSession(kb)

    def unchanged(store, entries):
        return (
            session._tables is store
            and store.keys() == entries.keys()
            and all(store[key] is factor for key, factor in entries.items())
        )

    misses, hits, last_miss = 0, 0, []
    for tick, assignments in enumerate(stream, start=1):
        store, entries = session._tables, dict(session._tables)
        sliced.clear()
        eliminated.clear()
        session.diagnose_tick(EvidenceSnapshot.build(tick, assignments))
        if sliced:
            misses += 1
            last_miss = list(eliminated)
        else:
            hits += 1
            assert unchanged(store, entries)
    assert misses >= 60 and hits >= 60 and last_miss, (misses, hits)
    fresh = ({}, {})
    for s in last_miss:
        real_joints(s, kb, tables=fresh)
    assert session._tables.keys() == fresh[0].keys()
    for key, factor in session._tables.items():
        assert factor == fresh[0][key] and factor is not fresh[0][key]

    store, entries = session._tables, dict(session._tables)
    calls = []

    def second_call_raises(s, kb, *, tables=None):
        calls.append(s.root)
        if len(calls) == 2:
            raise RuntimeError("evaluation failed")
        return real_joints(s, kb, tables=tables)

    monkeypatch.setattr(ducg.engine, "factored_joints", second_call_raises)
    every_reading_abnormal = dict.fromkeys({v for assignments in stream for v in assignments}, 1)
    assert frozenset(every_reading_abnormal.items()) not in session._memo
    with pytest.raises(RuntimeError):
        session.diagnose_tick(EvidenceSnapshot.build(len(stream) + 1, every_reading_abnormal))
    assert len(calls) == 2
    assert unchanged(store, entries)
