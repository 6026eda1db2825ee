"""``expand`` builds exactly (``==``) the expression of the frozen first
version in ``expand_reference``, whose partial terms were objects cloned per
branch: the same products, hence the same floats, on every slice of the
random batteries (cycles, parallel arcs and conditions included), of the
fixture feeds and of deep layered KBs. Its step limit stops it on the pop
that stops the reference."""

import random
from bisect import bisect_left
from graphlib import CycleError, TopologicalSorter

import pytest

import ducg.engine

from ducg import (
    CausalArc,
    CycleLimitError,
    EventExpression,
    EvidenceSnapshot,
    KnowledgeBase,
    StateDef,
    Variable,
    decompose,
    expand,
    ingest_tick,
    iter_reading_groups,
    parse_kb,
    simplify,
)

import expand_reference
from conftest import DATA
from generators import deep_evidence, layered_kb, random_cyclic_kb, random_evidence, random_kb

# Each KB of the fixture replays with its feed.
FEEDS = [
    ("tworoot_kb.json", "tworoot_signals.csv"),
    ("tworoot_modular_kb.json", "tworoot_signals.csv"),
    ("tworoot_kb.json", "tworoot_allnormal_signals.csv"),
    ("tworoot_orphan_kb.json", "orphan_signals.csv"),
    ("plant24_kb.json", "plant24_signals.csv"),
]


def cyclic(s):
    parents = {}
    for arc in s.arcs:
        parents.setdefault(arc.child, set()).add(arc.parent)
    try:
        tuple(TopologicalSorter(parents).static_order())
    except CycleError:
        return True
    return False


def random_slices(make_kb):
    """Every root's slice of 400 seeded KBs, without and with default causes."""
    for with_default_cause in (False, True):
        for seed in range(400):
            rng = random.Random(seed)
            kb = make_kb(rng, with_default_cause=with_default_cause)
            ev = random_evidence(rng, kb)
            for sub in decompose(kb):
                yield kb, simplify(sub, ev)


def fixture_slices():
    """Every root's slice for every triggering tick of the fixture feeds."""
    for kb_file, signals in FEEDS:
        kb = parse_kb((DATA / kb_file).read_text())
        ev = None
        for tick, readings in iter_reading_groups((DATA / signals).read_text().splitlines()):
            ev, triggered = ingest_tick(ev, tick, readings, kb)
            if triggered and ev.abnormal_set:
                for sub in decompose(kb):
                    yield kb, simplify(sub, ev)


def deep_slices(width):
    """Every root's slice of a deep layered KB, shaped as deep-expand's."""
    kb = layered_kb(random.Random(1), roots=8, layers=4, width=width, fan_in=2)
    ev = deep_evidence(kb)
    return [(kb, simplify(sub, ev)) for sub in decompose(kb)]


@pytest.mark.parametrize("make_kb, floor", [(random_kb, 0), (random_cyclic_kb, 200)])
def test_expand_equals_reference_on_random_battery(make_kb, floor):
    compared = looped = 0
    for kb, s in random_slices(make_kb):
        want = expand_reference.expand(s, kb)
        assert expand(s, kb) == want, (s.root, s.states)
        compared += 1
        looped += len(want.terms) > 1 and cyclic(s)
    # cyclic slices with several terms are the ones no other test pins
    assert compared >= 1500 and looped >= floor, (compared, looped)


def test_expand_equals_reference_on_fixture_and_deep_slices():
    compared = terms = 0
    for kb, s in [*fixture_slices(), *deep_slices(6), *deep_slices(8)]:
        want = expand_reference.expand(s, kb)
        assert expand(s, kb) == want, (s.root, s.states)
        compared += 1
        terms += len(want.terms)
    assert compared >= 100 and terms >= 10_000, (compared, terms)


def test_a_normal_reading_caused_only_against_its_term_annihilates_it():
    """X2's reading pins root 1 abnormal, which makes X3 certainly abnormal.
    X3's route from root 1 normal has nonzero intensity, so X3 counts as
    caused even though exclusivity drops that route: the term annihilates,
    where an uncaused normal reading would vanish with probability 1."""
    states = (StateDef(0, "normal", "normal"), StateDef(1, "s1", "abnormal"))
    kb = KnowledgeBase(
        {
            1: Variable(id=1, kind="B", label="root", states=states, prior={1: 0.1}),
            2: Variable(id=2, kind="X", label="x2", states=states),
            3: Variable(id=3, kind="X", label="x3", states=states),
        },
        [CausalArc(2, 1, 1.0, {1: {1: 0.5}}), CausalArc(3, 1, 1.0, {1: {1: 1.0}})],
    )
    (sub,) = decompose(kb)
    s = simplify(sub, EvidenceSnapshot.build(1, {2: 1, 3: 0}))
    assert expand(s, kb) == expand_reference.expand(s, kb) == EventExpression.make([])


def steps_needed(s, kb):
    """The smallest step limit under which the reference finishes."""

    def finishes(limit):
        try:
            expand_reference.expand(s, kb, limit)
        except CycleLimitError:
            return False
        return True

    return bisect_left(range(10**6), True, key=finishes)


def step_case(name):
    def several_terms(case):
        kb, s = case
        return len(expand_reference.expand(s, kb).terms) > 1

    if name == "fixture":
        return next(filter(several_terms, fixture_slices()))
    if name == "cyclic":
        looped = (case for case in random_slices(random_cyclic_kb) if cyclic(case[1]))
        return next(filter(several_terms, looped))
    return max(deep_slices(6), key=lambda case: len(case[1].arcs))


@pytest.mark.parametrize("name", ["fixture", "cyclic", "deep"])
def test_step_limit_stops_expand_where_it_stops_the_reference(name, monkeypatch):
    kb, s = step_case(name)
    want = expand_reference.expand(s, kb)
    limit = steps_needed(s, kb)
    assert len(want.terms) > 1 and limit > len(want.terms)
    monkeypatch.setattr(ducg.engine, "_EXPANSION_STEP_LIMIT", limit - 1)
    with pytest.raises(CycleLimitError):
        expand(s, kb)
    monkeypatch.setattr(ducg.engine, "_EXPANSION_STEP_LIMIT", limit)
    assert expand(s, kb) == want
