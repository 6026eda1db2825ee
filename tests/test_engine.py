"""Inference engine: slicing, layered merging, expansion, ranking, prediction."""

import math
import random
import time

import pytest

import ducg.engine

from ducg import (
    ArcLiteral,
    CausalArc,
    CubicGraph,
    DiagnosisSession,
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
from generators import deep_evidence, layered_kb


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
    assert c.current_evidence == {4: 1, 5: 1, 6: 1, 7: 1}


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
    assert c.current_evidence == slices[-1].states
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
    ev = snapshot(14, T1)
    cubic = merge_cubic(None, simplify(subs[1], ev))
    expr = expand(ev, cubic, tworoot_kb)
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
    ev = snapshot(14, T1)
    cubic = merge_cubic(None, simplify(subs[2], ev))
    expr = expand(ev, cubic, tworoot_kb)
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
    ev = snapshot(17, T3)
    cubic = merge_cubic(None, simplify(subs[2], ev))
    expr = expand(ev, cubic, tworoot_kb)
    assert len(expr.terms) == 2  # one per B2 fault state
    for term in expr.terms:
        chain = {a.child: a.parent for a in term.arcs}
        assert chain[4] == 5  # X4 is explained through X5, not directly
    assert eval_expression(expr, tworoot_kb) == pytest.approx(0.08085)


def test_expand_is_deterministic(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    ev = snapshot(17, T3)
    cubic = merge_cubic(None, simplify(subs[2], ev))
    first = expand(ev, cubic, tworoot_kb)
    assert all(expand(ev, cubic, tworoot_kb) == first for _ in range(5))


# --- ranking -----------------------------------------------------------------------


def rank_for(kb, ev_states, tick=14):
    ev = snapshot(tick, ev_states)
    graphs = []
    for sub in decompose(kb):
        s = simplify(sub, ev)
        if s.valid:
            graphs.append(merge_cubic(None, s))
    return rank_hypotheses(graphs, ev, kb)


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


def test_rank_requires_graphs():
    from ducg import EmptyHypothesisSpaceError

    kb = _inline_kb(arcs=[CausalArc(5, 1, 1.0, {1: {1: 0.5}})], extra_x=(5,))
    with pytest.raises(EmptyHypothesisSpaceError):
        rank_hypotheses([], snapshot(1, {5: 1}), kb)


def _counting_expand(monkeypatch):
    calls = []

    def counted(ev, cubic, kb):
        calls.append(cubic.root)
        return expand(ev, cubic, kb)

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
    ev = snapshot(1, {3: 0, 6: 1})
    cubic = merge_cubic(None, simplify(subs_by_root(kb)[1], ev))
    assert _BACK_ARC in cubic.latest.arcs
    expr = expand(ev, cubic, kb)
    zeta = eval_expression(expr, kb)

    calls = _counting_expand(monkeypatch)
    results = rank_hypotheses([cubic], ev, kb)
    assert calls == [1]
    assert [(h.state, h.zeta, h.joint) for h in results] == sorted(
        (
            (s, zeta, eval_expression(conjoin(expr, RootLiteral(1, s)), kb))
            for s in (1, 2)
        ),
        key=lambda row: -row[2],
    )


def test_rank_keeps_small_slices_on_expand(tworoot_kb, monkeypatch):
    ev = snapshot(17, T3)
    slices = (simplify(sub, ev) for sub in decompose(tworoot_kb))
    graphs = [merge_cubic(None, s) for s in slices if s.valid]
    calls = _counting_expand(monkeypatch)
    rank_hypotheses(graphs, ev, tworoot_kb)
    assert calls == [g.root for g in graphs] and calls


def test_rank_evaluates_large_acyclic_slices_by_elimination(monkeypatch):
    kb = _inline_kb(_LOOPED_ARCS, extra_x=(2, 3, 4, 5, 6), root_states=3)
    ev = snapshot(1, {3: 0, 6: 1})
    cubic = merge_cubic(None, simplify(subs_by_root(kb)[1], ev))
    expr = expand(ev, cubic, kb)

    calls = _counting_expand(monkeypatch)
    results = rank_hypotheses([cubic], ev, kb)
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
        cubic = merge_cubic(None, s)
        joints = factored_joints(ev, cubic, kb)
        expr = expand(ev, cubic, kb)
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
    DiagnosisSession(kb, validate=False)  # opt-out for pre-validated KBs


def test_session_timing_is_recorded(tworoot_reports):
    assert all(r.timing_ms >= 0.0 for r in tworoot_reports)


def test_plant_scenario_narrows_to_single_root(plant_kb, plant_signals):
    reports, session = run_scenario(plant_kb, plant_signals)
    widths = [len({h.root for h in r.hypotheses}) for r in reports]
    assert widths == [16, 3, 1]
    assert reports[-1].status == "diagnosed"
    assert [(h.root, h.state) for h in reports[-1].hypotheses] == [(1, 1)]
    assert reports[-1].hypotheses[0].posterior == pytest.approx(1.0)


# --- prediction ----------------------------------------------------------------------


def test_predict_golden_first_tick(tworoot_kb, tworoot_signals):
    _, session = run_scenario(tworoot_kb, tworoot_signals)
    # rebuild the first-tick state for B1 directly
    subs = subs_by_root(tworoot_kb)
    cubic = merge_cubic(None, simplify(subs[1], snapshot(14, T1)))
    rows = predict(cubic, tworoot_kb, RootLiteral(1, 1))
    assert rows == [
        (3, 1, pytest.approx(0.5)),
        (6, 1, pytest.approx(0.4)),
        (4, 1, pytest.approx(0.07)),
    ]


def test_predict_excludes_current_abnormal_and_roots(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    cubic = merge_cubic(None, simplify(subs[2], snapshot(16, T2)))
    rows = predict(cubic, tworoot_kb, RootLiteral(2, 2))
    assert rows == [(7, 1, pytest.approx(0.8)), (4, 1, pytest.approx(0.35))]
    predicted = {v for v, _, _ in rows}
    assert 5 not in predicted and 6 not in predicted  # currently abnormal
    assert 2 not in predicted  # the hypothesis root itself


def test_predict_rejects_foreign_hypothesis(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    cubic = merge_cubic(None, simplify(subs[1], snapshot(14, T1)))
    with pytest.raises(RootMismatchError):
        predict(cubic, tworoot_kb, RootLiteral(2, 1))


def test_predict_ignores_self_arcs(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    cubic = merge_cubic(None, simplify(subs[1], snapshot(14, T1)))
    rows = predict(cubic, tworoot_kb, RootLiteral(1, 1))
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
