"""Variable elimination is bit-for-bit reproducible: ``factored_joints`` gives
exactly (``==``, not approximately) the joints of the frozen first version in
``ve_reference``, because both do the same float operations in the same
order. The reference still reads the full snapshot and a one-slice cubic
graph, as it was written to."""

import random

import pytest

import ducg.engine

from ducg import DiagnosisSession, EvidenceSnapshot, decompose, factored_joints, merge_cubic, simplify

import ve_reference
from generators import deep_evidence, layered_kb, random_evidence, random_kb


def valid_slices(kb, ev):
    for sub in decompose(kb):
        s = simplify(sub, ev)
        if s.valid:
            yield s


def reference(ev, s, kb):
    return ve_reference.factored_joints(ev, merge_cubic(None, s, ev.tick), kb)


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

    def checking(s, kb):
        got = factored_joints(s, kb)
        assert got == reference(ev, s, kb), (ev.tick, s.root)
        checked.append(ev.tick)
        return got

    monkeypatch.setattr(ducg.engine, "factored_joints", checking)
    for tick, assignments in enumerate(ticks, start=1):
        ev = EvidenceSnapshot.build(tick, assignments)
        session.diagnose_tick(ev)
    assert set(checked) == {1, 2, 3}
