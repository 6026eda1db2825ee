"""Inference engine: slicing, layered merging, expansion, ranking, prediction."""

import gc
import math
import random
import time
import tracemalloc

import pytest

import ducg.engine

from ducg import (
    ArcLiteral,
    CausalArc,
    Condition,
    ConditionLiteral,
    CubicGraph,
    DiagnosisSession,
    EmptyHypothesisSpaceError,
    EventExpression,
    EvidenceSnapshot,
    InvalidKnowledgeBaseError,
    KnowledgeBase,
    LinkEdge,
    NoAbnormalEvidenceError,
    Product,
    RootLiteral,
    RootMismatchError,
    StateDef,
    Variable,
    check_valid,
    decompose,
    eval_expression,
    conjoin,
    expand,
    factored_joints,
    merge_cubic,
    predict,
    rank_hypotheses,
    simplify,
)

from conftest import run_scenario
from generators import deep_evidence, layered_kb, random_cyclic_kb, random_evidence, random_kb


def snapshot(tick, assignments):
    return EvidenceSnapshot.build(tick, assignments)


def subs_by_root(kb):
    return {s.root: s for s in decompose(kb)}


# evidence states along the fixture scenario (MP04/MP07 unread before tick 17)
T1 = {3: 0, 5: 1, 6: 0}
T2 = {3: 0, 5: 1, 6: 1}
T3 = {3: 0, 4: 1, 5: 1, 6: 1, 7: 1}


# --- simplify -------------------------------------------------------------------


def test_simplify_keeps_only_root_to_evidence_arcs(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    s1 = simplify(subs[1], snapshot(14, T1))
    assert {(a.child, a.parent) for a in s1.arcs} == {(3, 1), (5, 1), (6, 1)}
    assert s1.variables == {1, 3, 5, 6}
    assert s1.states == {3: 0, 5: 1, 6: 0}
    assert s1.valid and s1.unexplained == ()

    s2 = simplify(subs[2], snapshot(14, T1))
    assert {(a.child, a.parent) for a in s2.arcs} == {(5, 2), (6, 2)}
    assert s2.variables == {2, 5, 6}


def test_simplify_never_keeps_self_arcs(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    for ev in (T1, T2, T3):
        for sub in subs.values():
            s = simplify(sub, snapshot(17, ev))
            assert all(a.child != a.parent for a in s.arcs)


def test_simplify_marks_out_of_scope_evidence_invalid(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    s1 = simplify(subs[1], snapshot(17, T3))
    assert not s1.valid
    assert s1.unexplained == (7,)  # X7 lives only in the other root's graph

    s2 = simplify(subs[2], snapshot(17, T3))
    assert s2.valid
    assert {(a.child, a.parent) for a in s2.arcs} == {(4, 5), (5, 2), (6, 2), (7, 2)}


def test_simplify_marks_unreachable_evidence_invalid():
    # B reaches X3; X5 is a parentless stray inside the same scope
    kb = _inline_kb(
        arcs=[CausalArc(3, 1, 1.0, {1: {1: 0.5}}), CausalArc(5, 3, 1.0, {1: {1: 0.5}})],
        extra_x=(3, 5),
    )
    sub = subs_by_root(kb)[1]
    stray = type(sub)(root=1, variables=dict(sub.variables), arcs=(sub.arcs[0],))
    s = simplify(stray, snapshot(1, {3: 0, 5: 1}))
    assert not s.valid and s.unexplained == (5,)


def test_simplify_requires_abnormal_evidence(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    with pytest.raises(NoAbnormalEvidenceError):
        simplify(subs[1], snapshot(13, {3: 0, 5: 0, 6: 0}))


def test_simplify_drops_false_conditioned_arcs(tworoot_kb):
    import json

    from ducg import parse_kb, serialize_kb

    doc = json.loads(serialize_kb(tworoot_kb))
    for arc in doc["arcs"]:
        if (arc["child"], arc["parent"]) == (6, 1):
            arc["condition"] = {"all": [{"var": 5, "state": 0}]}
    kb = parse_kb(json.dumps(doc))
    s1 = simplify(subs_by_root(kb)[1], snapshot(14, T1))
    # X5 is observed at state 1, so the conditional X6←B1 arc is disabled
    assert {(a.child, a.parent) for a in s1.arcs} == {(3, 1), (5, 1)}


def _reach(start, steps):
    """Every node reachable from ``start`` along ``steps`` (pairs from, to)."""
    seen, frontier = set(start), list(start)
    while frontier:
        node = frontier.pop()
        for a, b in steps:
            if a == node and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def _two_walk_unexplained(sub, ev):
    """Slice validity as first written: keep the root-to-evidence arcs, then
    walk from the root again over the kept arcs alone."""
    candidates = [
        a for a in sub.arcs
        if a.child != a.parent
        and (a.condition is None or a.condition.evaluate(ev.assignments) is not False)
    ]
    from_root = _reach({sub.root}, [(a.parent, a.child) for a in candidates])
    evidenced = {v for v in ev.assignments if v in sub.variables}
    to_evidence = _reach(evidenced, [(a.child, a.parent) for a in candidates])
    kept = [a for a in candidates if a.parent in from_root and a.child in to_evidence]
    explained = _reach({sub.root}, [(a.parent, a.child) for a in kept])
    return tuple(
        sorted(v for v in ev.abnormal_set if v not in sub.variables or v not in explained)
    )


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_slice_validity_matches_the_two_walk_rule(with_default_cause):
    """``simplify`` decides validity from its own walk from the root;
    ``check_valid`` walks the slice's arcs, also for another tick's evidence.
    Both agree with the two-walk rule on 600 KBs with cycles and conditions.
    Every retained arc lies on a root→evidence path of the retained arcs."""
    compared = cut = 0
    for seed in range(600):
        rng = random.Random(seed)
        kb = random_cyclic_kb(rng, with_default_cause=with_default_cause)
        ev, other = random_evidence(rng, kb), random_evidence(rng, kb)
        for sub in decompose(kb):
            want = _two_walk_unexplained(sub, ev)
            s = simplify(sub, ev)
            assert (s.unexplained, s.valid) == (want, not want), f"seed {seed} root {sub.root}"
            cubic = merge_cubic(None, s)
            assert check_valid(cubic, ev) == (not want)
            explained = _reach({s.root}, [(a.parent, a.child) for a in s.arcs])
            assert check_valid(cubic, other) == all(
                v in s.scope and v in explained for v in other.abnormal_set
            ), f"seed {seed} root {sub.root}"
            to_evidence = _reach(set(s.states), [(a.child, a.parent) for a in s.arcs])
            assert all(
                a.parent in explained and a.child in to_evidence for a in s.arcs
            ), f"seed {seed} root {sub.root}"
            compared += 1
            cut += any(v in sub.variables for v in want)
    # in-scope observations the root cannot reach are what tell the walks apart
    assert compared >= 1000 and cut >= 20, (compared, cut)


# --- merge / check_valid -----------------------------------------------------------


def test_merge_links_shared_variables(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    c = merge_cubic(None, simplify(subs[2], snapshot(14, T1)))
    assert len(c.slices) == 1 and c.linkage == ()

    c = merge_cubic(c, simplify(subs[2], snapshot(16, T2)))
    assert len(c.slices) == 2
    assert {(l.var, l.from_tick, l.to_tick) for l in c.linkage} == {
        (2, 14, 16), (5, 14, 16), (6, 14, 16),
    }

    c = merge_cubic(c, simplify(subs[2], snapshot(17, T3)))
    assert len(c.slices) == 3 and len(c.linkage) == 6
    assert c.latest.tick == 17
    assert c.latest.states == {4: 1, 5: 1, 6: 1, 7: 1}


def test_merge_rejects_foreign_slice(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    c = merge_cubic(None, simplify(subs[1], snapshot(14, T1)))
    with pytest.raises(RootMismatchError):
        merge_cubic(c, simplify(subs[2], snapshot(16, T2)))


def test_merge_builds_a_persistent_chain(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    slices = [simplify(subs[2], snapshot(t, (T1, T3)[t % 2])) for t in range(3000)]
    c = None
    for s in slices:
        extended = merge_cubic(c, s)
        assert extended.previous is c
        c = extended

    # what appending to stored tuples gives
    want_slices, want_links = (), ()
    for s in slices:
        if want_slices:
            last = want_slices[-1]
            want_links += tuple(
                LinkEdge(var=v, from_tick=last.tick, to_tick=s.tick)
                for v in sorted(last.variables & s.variables)
            )
        want_slices += (s,)
    assert c.slices == want_slices
    assert c.linkage == want_links
    assert c.latest is slices[-1]
    assert "previous" not in repr(c)
    assert c == c and c != merge_cubic(c.previous, c.latest)


def test_check_valid_follows_latest_slice(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    c1 = merge_cubic(None, simplify(subs[1], snapshot(14, T1)))
    assert check_valid(c1, snapshot(14, T1))
    assert not check_valid(c1, snapshot(17, T3))
    c2 = merge_cubic(None, simplify(subs[2], snapshot(17, T3)))
    assert check_valid(c2, snapshot(17, T3))


# --- expansion ----------------------------------------------------------------------


def test_expand_single_cause_structure(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    expr = expand(simplify(subs[1], snapshot(14, T1)), tworoot_kb)
    assert expr == EventExpression.make([
        Product.make(
            [RootLiteral(1, 1)],
            [
                ArcLiteral(3, 0, 1, 1, 1.0, 0.5),
                ArcLiteral(5, 1, 1, 1, 1.0, 0.1),
                ArcLiteral(6, 0, 1, 1, 1.0, 0.6),
            ],
        )
    ])
    assert eval_expression(expr, tworoot_kb) == pytest.approx(0.006)


def test_expand_two_state_root_structure(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    expr = expand(simplify(subs[2], snapshot(14, T1)), tworoot_kb)
    assert expr == EventExpression.make([
        Product.make(
            [RootLiteral(2, 1)],
            [ArcLiteral(5, 1, 2, 1, 1.0, 0.5), ArcLiteral(6, 0, 2, 1, 1.0, 0.5)],
        ),
        Product.make(
            [RootLiteral(2, 2)],
            [ArcLiteral(5, 1, 2, 2, 1.0, 0.5), ArcLiteral(6, 0, 2, 2, 1.0, 1.0 - 0.9)],
        ),
    ])
    assert eval_expression(expr, tworoot_kb) == pytest.approx(0.04)


def test_expand_chain_evidence(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    expr = expand(simplify(subs[2], snapshot(17, T3)), tworoot_kb)
    assert len(expr.terms) == 2  # one per B2 fault state
    for term in expr.terms:
        chain = {a.child: a.parent for a in term.arcs}
        assert chain[4] == 5  # X4 is explained through X5, not directly
    assert eval_expression(expr, tworoot_kb) == pytest.approx(0.08085)


def test_expand_is_deterministic(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    s = simplify(subs[2], snapshot(17, T3))
    first = expand(s, tworoot_kb)
    assert all(expand(s, tworoot_kb) == first for _ in range(5))


# --- ranking -----------------------------------------------------------------------


def rank_for(kb, ev_states, tick=14):
    ev = snapshot(tick, ev_states)
    slices = (simplify(sub, ev) for sub in decompose(kb))
    return rank_hypotheses([s for s in slices if s.valid], kb)


def test_rank_golden_first_tick(tworoot_kb):
    results = rank_for(tworoot_kb, T1)
    assert [(h.root, h.state) for h in results] == [(2, 1), (2, 2), (1, 1)]
    by = {(h.root, h.state): h for h in results}
    assert by[(1, 1)].zeta == pytest.approx(0.006)
    assert by[(2, 1)].zeta == pytest.approx(0.04)
    assert by[(1, 1)].posterior == pytest.approx(0.006 / 0.046)
    assert by[(2, 1)].posterior == pytest.approx(0.025 / 0.046)
    assert by[(2, 2)].posterior == pytest.approx(0.015 / 0.046)
    assert sum(h.posterior for h in results) == pytest.approx(1.0)
    assert by[(2, 1)].xi == by[(2, 2)].xi == pytest.approx(0.04 / 0.046)


def test_rank_zero_probability_graph_is_dropped():
    # X5 demands root state 1 while X6 demands state 2: nothing explains both
    kb = _inline_kb(
        arcs=[
            CausalArc(5, 1, 1.0, {1: {1: 0.5}}),
            CausalArc(6, 1, 1.0, {1: {2: 0.5}}),
        ],
        extra_x=(5, 6),
        root_states=3,
    )
    from ducg import EmptyHypothesisSpaceError

    with pytest.raises(EmptyHypothesisSpaceError):
        rank_for(kb, {5: 1, 6: 1})


def test_zero_joint_hypothesis_never_reaches_a_report():
    # root state 2's column gives X5=1 intensity 0, while state 1 keeps ζ > 0
    kb = _inline_kb(arcs=[CausalArc(5, 1, 1.0, {1: {1: 0.5}})], extra_x=(5,), root_states=3)
    ev = snapshot(1, {5: 1})
    (s,) = [simplify(sub, ev) for sub in decompose(kb)]
    zeta, joints = ducg.engine._evaluate(s, kb)
    assert zeta > 0.0 and joints == {1: zeta, 2: 0.0}
    assert [(h.root, h.state) for h in rank_hypotheses([s], kb)] == [(1, 1)]
    report = DiagnosisSession(kb).diagnose_tick(ev)
    assert [(h.root, h.state) for h in report.hypotheses] == [(1, 1)]


def test_rank_requires_graphs():
    from ducg import EmptyHypothesisSpaceError

    kb = _inline_kb(arcs=[CausalArc(5, 1, 1.0, {1: {1: 0.5}})], extra_x=(5,))
    with pytest.raises(EmptyHypothesisSpaceError):
        rank_hypotheses([], kb)


def _counting_expand(monkeypatch):
    calls = []

    def counted(g, kb):
        calls.append(g.root)
        return expand(g, kb)

    monkeypatch.setattr(ducg.engine, "expand", counted)
    return calls


# Every child has several routes, so the route bound (3·5·6·4·4) is far above
# the cutoff below which slices stay on ``expand``; 4<->5 is a 2-cycle.
_LOOPED_ARCS = [
    CausalArc(2, 1, 1.0, {1: {1: 0.6, 2: 0.3}}),
    CausalArc(3, 1, 1.0, {1: {1: 0.4, 2: 0.7}}),
    CausalArc(3, 2, 2.0, {1: {1: 0.5}}),
    CausalArc(4, 2, 1.0, {1: {1: 0.6}}),
    CausalArc(4, 3, 0.5, {1: {1: 0.8}}),
    CausalArc(5, 3, 1.0, {1: {1: 0.7}}),
    CausalArc(5, 4, 1.0, {1: {1: 0.4}}),
    CausalArc(6, 4, 1.0, {1: {1: 0.9}}),
    CausalArc(6, 5, 2.0, {1: {1: 0.3}}),
]
_BACK_ARC = CausalArc(4, 5, 1.0, {1: {1: 0.5}})


def test_rank_keeps_cyclic_slices_on_expand(monkeypatch):
    kb = _inline_kb(_LOOPED_ARCS + [_BACK_ARC], extra_x=(2, 3, 4, 5, 6), root_states=3)
    s = simplify(subs_by_root(kb)[1], snapshot(1, {3: 0, 6: 1}))
    assert _BACK_ARC in s.arcs
    expr = expand(s, kb)
    zeta = eval_expression(expr, kb)

    calls = _counting_expand(monkeypatch)
    results = rank_hypotheses([s], kb)
    assert calls == [1]
    assert [(h.state, h.zeta, h.joint) for h in results] == sorted(
        (
            (s, zeta, eval_expression(conjoin(expr, RootLiteral(1, s)), kb))
            for s in (1, 2)
        ),
        key=lambda row: -row[2],
    )


def test_rank_keeps_small_slices_on_expand(tworoot_kb, monkeypatch):
    slices = (simplify(sub, snapshot(17, T3)) for sub in decompose(tworoot_kb))
    valid = [s for s in slices if s.valid]
    calls = _counting_expand(monkeypatch)
    rank_hypotheses(valid, tworoot_kb)
    assert calls == [s.root for s in valid] and calls


def test_rank_evaluates_large_acyclic_slices_by_elimination(monkeypatch):
    kb = _inline_kb(_LOOPED_ARCS, extra_x=(2, 3, 4, 5, 6), root_states=3)
    s = simplify(subs_by_root(kb)[1], snapshot(1, {3: 0, 6: 1}))
    expr = expand(s, kb)

    calls = _counting_expand(monkeypatch)
    results = rank_hypotheses([s], kb)
    assert calls == []
    assert {h.state for h in results} == {1, 2}
    for h in results:
        assert math.isclose(h.zeta, eval_expression(expr, kb), rel_tol=1e-12)
        assert math.isclose(
            h.joint,
            eval_expression(conjoin(expr, RootLiteral(1, h.state)), kb),
            rel_tol=1e-12,
        )


def test_deep_acyclic_tick_is_diagnosed_within_a_second():
    """One tick of (8,4x8,3) shape once expanded into ~10^5 products and
    raised CycleLimitError after tens of seconds."""
    kb = layered_kb(random.Random(1), roots=8, layers=4, width=8, fan_in=3)
    session = DiagnosisSession(kb)
    started = time.perf_counter()
    report = session.diagnose_tick(deep_evidence(kb))
    assert time.perf_counter() - started < 1.0
    assert report.hypotheses


def test_factored_joints_match_expand_on_deep_slices():
    kb = layered_kb(random.Random(1), roots=8, layers=4, width=6, fan_in=2)
    ev = deep_evidence(kb)
    compared = 0
    for sub in decompose(kb):
        s = simplify(sub, ev)
        if not s.valid:
            continue
        joints = factored_joints(s, kb)
        expr = expand(s, kb)
        assert math.isclose(sum(joints.values()), eval_expression(expr, kb), rel_tol=1e-12)
        for state, joint in joints.items():
            expected = eval_expression(conjoin(expr, RootLiteral(sub.root, state)), kb)
            assert math.isclose(joint, expected, rel_tol=1e-12, abs_tol=0.0)
        compared += 1
    assert compared >= 3


# --- session -----------------------------------------------------------------------


def test_session_golden_scenario(tworoot_kb, tworoot_signals):
    reports, session = run_scenario(tworoot_kb, tworoot_signals)
    assert [r.tick for r in reports] == [14, 16, 17]
    assert [r.status for r in reports] == ["ambiguous", "ambiguous", "diagnosed"]

    t1, t2, t3 = reports
    assert [(h.root, h.state) for h in t1.hypotheses] == [(2, 1), (2, 2), (1, 1)]
    assert t1.hypotheses[0].posterior == pytest.approx(0.543478, abs=1e-6)
    assert [(h.root, h.state) for h in t2.hypotheses] == [(2, 2), (2, 1), (1, 1)]
    assert t2.hypotheses[0].posterior == pytest.approx(0.823171, abs=1e-6)
    assert [(h.root, h.state) for h in t3.hypotheses] == [(2, 2), (2, 1)]
    assert t3.hypotheses[0].posterior == pytest.approx(0.935065, abs=1e-6)
    assert t3.hypotheses[0].xi == pytest.approx(1.0)

    assert session.alive_roots == (2,)
    assert session.cubic(1) is None
    assert len(session.cubic(2).slices) == 3


def test_session_hypothesis_space_is_monotone(tworoot_kb, tworoot_signals):
    reports, _ = run_scenario(tworoot_kb, tworoot_signals)
    alive = [set(h.root for h in r.hypotheses) for r in reports]
    for before, after in zip(alive, alive[1:]):
        assert after <= before


def test_session_abnormal_evidence_recorded(tworoot_reports):
    assert tworoot_reports[0].abnormal == ((5, 1),)
    assert tworoot_reports[2].abnormal == ((4, 1), (5, 1), (6, 1), (7, 1))
    assert tworoot_reports[0].normal == ((3, 0), (6, 0))


def test_session_unexplained_when_no_root_fits(tworoot_kb):
    session = DiagnosisSession(tworoot_kb)
    report = session.diagnose_tick(snapshot(5, {3: 1, 7: 1}))
    # no single root reaches both X3 and X7
    assert report.status == "unexplained"
    assert report.hypotheses == ()
    assert session.alive_roots == ()


def test_session_validates_kb():
    kb = _inline_kb(arcs=[CausalArc(5, 1, 1.0, {1: {1: 1.5}})], extra_x=(5,))
    with pytest.raises(InvalidKnowledgeBaseError):
        DiagnosisSession(kb)


def test_valid_root_of_zero_evidence_probability_leaves_for_good(monkeypatch):
    """B1's slice reaches X5 and X6, so it is valid, but X5 demands its state
    1 and X6 its state 2: ζ = 0. It leaves the hypothesis space, and the
    next tick does not simplify it."""
    one = _inline_kb(
        arcs=[CausalArc(5, 1, 1.0, {1: {1: 0.5}}), CausalArc(6, 1, 1.0, {1: {2: 0.5}})],
        extra_x=(5, 6),
        root_states=3,
    )
    b2 = Variable(id=2, kind="B", label="other root", states=one.variables[5].states, prior={1: 0.1})
    kb = KnowledgeBase(
        {**one.variables, 2: b2},
        [*one.arcs, CausalArc(5, 2, 1.0, {1: {1: 0.5}}), CausalArc(6, 2, 1.0, {1: {1: 0.5}})],
    )
    ev = snapshot(1, {5: 1, 6: 1})
    assert simplify(subs_by_root(kb)[1], ev).valid
    session = DiagnosisSession(kb)
    report = session.diagnose_tick(ev)
    assert report.status == "diagnosed" and session.alive_roots == (2,)

    simplified = []
    real = ducg.engine.simplify

    def counted(sub, ev):
        simplified.append(sub.root)
        return real(sub, ev)

    monkeypatch.setattr(ducg.engine, "simplify", counted)
    session.diagnose_tick(snapshot(2, {5: 1, 6: 1}))
    assert simplified == [2]


def test_session_timing_is_recorded(tworoot_reports):
    assert all(r.timing_ms >= 0.0 for r in tworoot_reports)


def test_plant_scenario_narrows_to_single_root(plant_kb, plant_signals):
    reports, session = run_scenario(plant_kb, plant_signals)
    widths = [len({h.root for h in r.hypotheses}) for r in reports]
    assert widths == [16, 3, 1]
    assert reports[-1].status == "diagnosed"
    assert [(h.root, h.state) for h in reports[-1].hypotheses] == [(1, 1)]
    assert reports[-1].hypotheses[0].posterior == pytest.approx(1.0)


# --- evaluation memo and session memory ----------------------------------------------


def _uncached_hypotheses(kb, snapshots):
    """The session's ranking re-derived tick by tick without a memo: the
    reference a memoised session must equal float for float."""
    subs = subs_by_root(kb)
    alive = sorted(subs)
    out = []
    for ev in snapshots:
        slices = (simplify(subs[root], ev) for root in alive)
        try:
            hypotheses = tuple(rank_hypotheses([s for s in slices if s.valid], kb))
        except EmptyHypothesisSpaceError:
            hypotheses = ()
        alive = sorted({h.root for h in hypotheses})
        out.append(hypotheses)
    return out


def _counting_evaluate(monkeypatch):
    calls = []
    evaluate = ducg.engine._evaluate

    def counted(g, kb):
        calls.append(g.root)
        return evaluate(g, kb)

    monkeypatch.setattr(ducg.engine, "_evaluate", counted)
    return calls


def test_memoised_session_equals_uncached_on_alternating_stream(tworoot_kb, monkeypatch):
    snapshots = [snapshot(t, (T1, T2)[t % 2]) for t in range(2000)]
    calls = _counting_evaluate(monkeypatch)
    session = DiagnosisSession(tworoot_kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots]
    assert len(calls) == 4  # two roots, two evidence patterns
    assert [r.hypotheses for r in reports] == _uncached_hypotheses(tworoot_kb, snapshots)
    assert session.alive_roots == (1, 2)


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_memoised_session_equals_uncached_on_random_streams(with_default_cause, monkeypatch):
    """200 random KBs, each fed 12 ticks drawn from three evidence patterns."""
    calls = _counting_evaluate(monkeypatch)
    memoised = uncached = 0
    for seed in range(200):
        rng = random.Random(seed)
        kb = random_kb(rng, with_default_cause=with_default_cause)
        patterns = [random_evidence(rng, kb).assignments for _ in range(3)]
        snapshots = [snapshot(t, rng.choice(patterns)) for t in range(12)]
        session = DiagnosisSession(kb)
        calls.clear()
        reports = [session.diagnose_tick(ev) for ev in snapshots]
        memoised += len(calls)
        calls.clear()
        assert [r.hypotheses for r in reports] == _uncached_hypotheses(kb, snapshots), seed
        uncached += len(calls)
    assert memoised < uncached / 2


def test_memo_misses_when_an_out_of_scope_condition_flips(monkeypatch):
    """X3 lies outside B1's graph, so B1's evidence states stay {2: 1}; but
    observing X3 normal deletes the arc it conditions, and ζ changes."""
    condition = Condition(((ConditionLiteral(3, 1),),))
    kb = _inline_kb(
        [
            CausalArc(2, 1, 1.0, {1: {1: 0.5}}),
            CausalArc(2, 1, 1.0, {1: {1: 0.9}}, condition=condition),
        ],
        extra_x=(2, 3),
    )
    snapshots = [snapshot(t, ({2: 1}, {2: 1, 3: 0})[t % 2]) for t in range(4)]
    calls = _counting_evaluate(monkeypatch)
    session = DiagnosisSession(kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots]
    assert calls == [1, 1]
    assert [r.hypotheses[0].zeta for r in reports] == pytest.approx([0.14, 0.1, 0.14, 0.1])
    assert [r.hypotheses for r in reports] == _uncached_hypotheses(kb, snapshots)


def test_memo_is_capped_per_root_least_recently_used_first(monkeypatch):
    cap = ducg.engine._MEMO_PER_ROOT
    observed = tuple(range(2, 2 + (cap + 1).bit_length()))
    kb = _inline_kb([CausalArc(x, 1, 1.0, {1: {1: 0.6}}) for x in observed], extra_x=observed)
    patterns = [
        {x: (n >> i) & 1 for i, x in enumerate(observed)} for n in range(1, cap + 2)
    ]
    calls = _counting_evaluate(monkeypatch)
    session = DiagnosisSession(kb)

    def feed(*indices):
        for i in indices:
            session.diagnose_tick(snapshot(i, patterns[i]))

    feed(*range(cap))
    assert len(calls) == cap
    feed(0)  # a hit, which makes pattern 1 the least recently used
    assert len(calls) == cap
    feed(cap)  # a miss past the cap evicts pattern 1
    feed(0)
    assert len(calls) == cap + 1
    feed(1)
    assert len(calls) == cap + 2
    assert len(session._memo._by_root[1]) == cap


def test_memo_forgets_roots_that_leave_the_hypothesis_space(tworoot_kb):
    session = DiagnosisSession(tworoot_kb)
    session.diagnose_tick(snapshot(1, T1))
    assert set(session._memo._by_root) == {1, 2}
    session.diagnose_tick(snapshot(2, T3))
    assert session.alive_roots == (2,)
    assert set(session._memo._by_root) == {2}


def test_long_session_memory_is_bounded(tworoot_kb):
    """16,000 triggers hold under 1 MiB: without history a root keeps only
    its latest slice, and the memo is capped."""
    pattern = (T1, T2)
    session = DiagnosisSession(tworoot_kb)
    for t in range(16):
        session.diagnose_tick(snapshot(t, pattern[t % 2]))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(16, 16_000):
            session.diagnose_tick(snapshot(t, pattern[t % 2]))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert session.alive_roots == (1, 2)
    assert len(session.cubic(2).slices) == 1
    assert held < 1024 * 1024


# --- prediction ----------------------------------------------------------------------


def test_predict_golden_first_tick(tworoot_kb, tworoot_signals):
    _, session = run_scenario(tworoot_kb, tworoot_signals)
    # rebuild the first-tick state for B1 directly
    subs = subs_by_root(tworoot_kb)
    rows = predict(simplify(subs[1], snapshot(14, T1)), tworoot_kb, RootLiteral(1, 1))
    assert rows == [
        (3, 1, pytest.approx(0.5)),
        (6, 1, pytest.approx(0.4)),
        (4, 1, pytest.approx(0.07)),
    ]


def test_predict_excludes_current_abnormal_and_roots(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    rows = predict(simplify(subs[2], snapshot(16, T2)), tworoot_kb, RootLiteral(2, 2))
    assert rows == [(7, 1, pytest.approx(0.8)), (4, 1, pytest.approx(0.35))]
    predicted = {v for v, _, _ in rows}
    assert 5 not in predicted and 6 not in predicted  # currently abnormal
    assert 2 not in predicted  # the hypothesis root itself


def test_predict_rejects_foreign_hypothesis(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    with pytest.raises(RootMismatchError):
        predict(simplify(subs[1], snapshot(14, T1)), tworoot_kb, RootLiteral(2, 1))


def test_predict_ignores_self_arcs(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    rows = predict(simplify(subs[1], snapshot(14, T1)), tworoot_kb, RootLiteral(1, 1))
    # X4's only mass comes through X5 (0.7·0.1); the X4←X4 loop adds nothing
    assert dict(((v, s), p) for v, s, p in rows)[(4, 1)] == pytest.approx(0.07)


# --- helpers ------------------------------------------------------------------------


def _inline_kb(arcs, extra_x=(), root_states=2):
    def states(n):
        return tuple(
            StateDef(k, "normal" if k == 0 else f"s{k}", "normal" if k == 0 else "abnormal")
            for k in range(n)
        )

    variables = {
        1: Variable(
            id=1,
            kind="B",
            label="root",
            states=states(root_states),
            prior={k: 0.2 / k for k in range(1, root_states)},
        )
    }
    for vid in extra_x:
        variables[vid] = Variable(id=vid, kind="X", label=f"x{vid}", states=states(2))
    return KnowledgeBase(variables, arcs)
