"""Inference engine: slicing, layered merging, expansion, ranking, prediction."""

import dataclasses
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
    CycleLimitError,
    DiagnosisSession,
    EventExpression,
    EvidenceSnapshot,
    InvalidKnowledgeBaseError,
    KnowledgeBase,
    NoAbnormalEvidenceError,
    Product,
    RootLiteral,
    StateDef,
    Variable,
    check_valid,
    decompose,
    eval_expression,
    evaluate,
    conjoin,
    expand,
    factored_joints,
    merge_cubic,
    predict,
    rank_hypotheses,
    simplify,
)

from ducg.engine import SliceFrame, slice_frame
from ducg.kb import ROOT_KINDS

from conftest import extend_layers, run_scenario
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
            assert check_valid(s, ev) == (not want)
            explained = _reach({s.root}, [(a.parent, a.child) for a in s.arcs])
            assert check_valid(s, other) == all(
                v in sub.variables and v in explained for v in other.abnormal_set
            ), f"seed {seed} root {sub.root}"
            to_evidence = _reach(set(s.states), [(a.child, a.parent) for a in s.arcs])
            assert all(
                a.parent in explained and a.child in to_evidence for a in s.arcs
            ), f"seed {seed} root {sub.root}"
            compared += 1
            cut += any(v in sub.variables for v in want)
    # in-scope observations the root cannot reach are what tell the walks apart
    assert compared >= 1000 and cut >= 20, (compared, cut)


def test_a_frame_is_keyed_on_the_conditional_arcs_that_evaluate_false():
    """Self-arcs are never candidates, so a conditional self-arc is not in
    the key; an unobserved condition keeps its arc."""
    on_3 = Condition(((ConditionLiteral(3, 1),),))
    arcs = [
        CausalArc(2, 1, 1.0, {1: {1: 0.5}}),
        CausalArc(2, 1, 1.0, {1: {1: 0.9}}, condition=on_3),
        CausalArc(3, 1, 1.0, {1: {1: 0.5}}, condition=on_3),
        CausalArc(2, 2, 1.0, {1: {1: 0.5}}, condition=on_3),
    ]
    sub = subs_by_root(_inline_kb(arcs, extra_x=(2, 3)))[1]
    unread, enabled, disabled = slice_frame(sub, {2: 1}), slice_frame(sub, {3: 1}), slice_frame(sub, {3: 0})
    assert unread.conditional == enabled.conditional == tuple(arcs[1:3])
    assert (unread.key, enabled.key, disabled.key) == ((), (), (0, 1))
    assert unread.arcs == enabled.arcs == tuple(arcs[:3]) and disabled.arcs == (arcs[0],)
    assert disabled.from_root == {1, 2} and enabled.from_root == {1, 2, 3}
    assert unread.fits({3: 1}) and not unread.fits({3: 0}) and disabled.fits({2: 1, 3: 0})
    plain = slice_frame(subs_by_root(_inline_kb(arcs[:1], extra_x=(2,)))[1], {2: 1})
    assert (plain.conditional, plain.key) == ((), ())


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_a_frame_that_fits_gives_the_slice_simplify_builds(with_default_cause):
    """A frame built from one snapshot serves another exactly when its key
    fits it: then ``simplify`` with that frame equals ``simplify`` without
    one, on 600 cyclic KBs with a conditional arc."""
    fitting = misfit = 0
    for seed in range(600):
        rng = random.Random(seed)
        kb = random_cyclic_kb(rng, with_default_cause=with_default_cause)
        ev, other = random_evidence(rng, kb), random_evidence(rng, kb)
        for sub in decompose(kb):
            own, frame = slice_frame(sub, ev.assignments), slice_frame(sub, other.assignments)
            assert own.key == tuple(
                i for i, arc in enumerate(own.conditional)
                if arc.condition.evaluate(ev.assignments) is False
            )
            assert simplify(sub, ev, frame=own) == simplify(sub, ev), f"seed {seed}"
            if frame.fits(ev.assignments):
                fitting += bool(frame.conditional)
                assert simplify(sub, ev, frame=frame) == simplify(sub, ev), f"seed {seed}"
            else:
                misfit += 1
                assert frame.key != own.key
    # 342 to 400 fitting frames hold a conditional arc, and 299 to 344 do not fit
    assert fitting >= 250 and misfit >= 200, (fitting, misfit)


# --- merge / check_valid -----------------------------------------------------------


def test_a_layer_is_a_tick_and_its_slice(tworoot_kb):
    s = simplify(subs_by_root(tworoot_kb)[2], snapshot(17, T3))
    layer = merge_cubic(s, 17)
    assert [f.name for f in dataclasses.fields(CubicGraph)] == ["root", "tick", "latest"]
    assert (layer.root, layer.tick) == (2, 17)
    assert layer.latest is s
    assert layer.latest.states == {4: 1, 5: 1, 6: 1, 7: 1}
    assert layer.slices == (s,)
    assert layer == merge_cubic(s, 17) and layer != merge_cubic(s, 18)


def test_a_slice_is_the_same_at_every_tick(tworoot_kb):
    """A slice holds only what its evidence selects: the same evidence at
    another tick gives an equal slice."""
    sub = subs_by_root(tworoot_kb)[2]
    assert simplify(sub, snapshot(14, T3)) == simplify(sub, snapshot(99, T3))


def test_check_valid_follows_latest_slice(tworoot_kb):
    subs = subs_by_root(tworoot_kb)
    s1 = simplify(subs[1], snapshot(14, T1))
    assert check_valid(s1, snapshot(14, T1))
    assert not check_valid(s1, snapshot(17, T3))
    assert check_valid(simplify(subs[2], snapshot(17, T3)), snapshot(17, T3))


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
    return rank_hypotheses([(s.root, *evaluate(s, kb)) for s in slices if s.valid])


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
    assert rank_for(kb, {5: 1, 6: 1}) == []


def test_zero_joint_hypothesis_never_reaches_a_report():
    # root state 2's column gives X5=1 intensity 0, while state 1 keeps ζ > 0
    kb = _inline_kb(arcs=[CausalArc(5, 1, 1.0, {1: {1: 0.5}})], extra_x=(5,), root_states=3)
    ev = snapshot(1, {5: 1})
    (s,) = [simplify(sub, ev) for sub in decompose(kb)]
    zeta, joints = evaluate(s, kb)
    assert zeta > 0.0 and joints == {1: zeta, 2: 0.0}
    assert [(h.root, h.state) for h in rank_hypotheses([(1, zeta, joints)])] == [(1, 1)]
    report = DiagnosisSession(kb).diagnose_tick(ev)
    assert [(h.root, h.state) for h in report.hypotheses] == [(1, 1)]


def test_rank_of_no_graphs_is_empty():
    assert rank_hypotheses([]) == []


def test_rank_leaves_a_zero_evidence_root_out_of_xi():
    results = rank_hypotheses([(1, 0.02, {1: 0.01}), (2, 0.0, {}), (3, 0.06, {1: 0.03})])
    total = 0.02 + 0.06
    assert [(h.root, h.xi) for h in results] == [(3, 0.06 / total), (1, 0.02 / total)]
    assert sum(h.xi for h in results) == pytest.approx(1.0)


def test_rank_drops_zero_joints():
    results = rank_hypotheses([(1, 0.05, {1: 0.05, 2: 0.0})])
    assert [(h.root, h.state, h.posterior) for h in results] == [(1, 1, 1.0)]


def test_rank_breaks_posterior_ties_by_root_then_state():
    results = rank_hypotheses(
        [(2, 0.04, {2: 0.01, 1: 0.01, 3: 0.02}), (1, 0.04, {2: 0.02, 1: 0.0})]
    )
    assert [(h.root, h.state) for h in results] == [(1, 2), (2, 3), (2, 1), (2, 2)]
    assert results[0].posterior == results[1].posterior == 0.25


def test_rank_posteriors_sum_to_one():
    # with abnormal evidence the all-normal root state has no mass, so Σ joints = ζ
    results = rank_hypotheses(
        [(1, 0.3, {1: 0.1, 2: 0.2}), (4, 0.7, {1: 0.35, 2: 0.35}), (9, 0.15, {1: 0.04, 3: 0.11})]
    )
    assert [(h.root, h.state) for h in results] == [(4, 1), (4, 2), (1, 2), (9, 3), (1, 1), (9, 1)]
    assert [h.posterior for h in results] == [
        pytest.approx(joint / 1.15) for joint in (0.35, 0.35, 0.2, 0.11, 0.1, 0.04)
    ]
    assert sum(h.posterior for h in results) == pytest.approx(1.0)


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
    results = rank_hypotheses([(1, *evaluate(s, kb))])
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
    rank_hypotheses([(s.root, *evaluate(s, tworoot_kb)) for s in valid])
    assert calls == [s.root for s in valid] and calls


def test_rank_evaluates_large_acyclic_slices_by_elimination(monkeypatch):
    kb = _inline_kb(_LOOPED_ARCS, extra_x=(2, 3, 4, 5, 6), root_states=3)
    s = simplify(subs_by_root(kb)[1], snapshot(1, {3: 0, 6: 1}))
    expr = expand(s, kb)

    calls = _counting_expand(monkeypatch)
    results = rank_hypotheses([(1, *evaluate(s, kb))])
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
    reports, session, layered = run_scenario(tworoot_kb, tworoot_signals)
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
    assert len(session.cubic(2).slices) == 1  # the session holds the latest layer
    assert list(layered) == [2]
    assert [layer.tick for layer in layered[2]] == [14, 16, 17]


def test_session_hypothesis_space_is_monotone(tworoot_kb, tworoot_signals):
    reports, _, _ = run_scenario(tworoot_kb, tworoot_signals)
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
    next tick does not simplify it. That tick brings a new pattern, which B2
    still explains, so B2 misses its memo and is simplified."""
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

    def counted(sub, ev, **keywords):
        simplified.append(sub.root)
        return real(sub, ev, **keywords)

    monkeypatch.setattr(ducg.engine, "simplify", counted)
    session.diagnose_tick(snapshot(2, {5: 1, 6: 0}))
    assert simplified == [2] and session.alive_roots == (2,)


def test_session_timing_is_recorded(tworoot_reports):
    assert all(r.timing_ms >= 0.0 for r in tworoot_reports)


def test_plant_scenario_narrows_to_single_root(plant_kb, plant_signals):
    reports, session, _ = run_scenario(plant_kb, plant_signals)
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
        # through the module, so that ``_counting`` sees these calls too
        hypotheses = tuple(
            rank_hypotheses([(s.root, *ducg.engine.evaluate(s, kb)) for s in slices if s.valid])
        )
        alive = sorted({h.root for h in hypotheses})
        out.append(hypotheses)
    return out


def _report_fields(reports):
    return [(r.status, r.hypotheses, r.abnormal, r.normal) for r in reports]


def _fresh_reports(kb, snapshots):
    """Each tick diagnosed by a new session that holds only the roots alive
    before it, so the memo cannot answer: every report field but the timing."""
    alive, reports = None, []
    for ev in snapshots:
        fresh = DiagnosisSession(kb)
        if alive is not None:
            fresh._subs = {r: sub for r, sub in fresh._subs.items() if r in alive}
        reports.append(fresh.diagnose_tick(ev))
        alive = fresh.alive_roots
    return _report_fields(reports)


def _counting(monkeypatch, name="evaluate"):
    """Record the root of every call the session makes to ``ducg.engine.<name>``."""
    calls = []
    real = getattr(ducg.engine, name)

    def counted(first, *rest, **keywords):
        calls.append(first.root)
        return real(first, *rest, **keywords)

    monkeypatch.setattr(ducg.engine, name, counted)
    return calls


def test_memoised_session_equals_uncached_on_alternating_stream(tworoot_kb, monkeypatch):
    snapshots = [snapshot(t, (T1, T2)[t % 2]) for t in range(2000)]
    counted = {name: _counting(monkeypatch, name) for name in ("simplify", "check_valid", "evaluate")}
    session = DiagnosisSession(tworoot_kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots]
    # two roots, two evidence patterns: each is sliced, checked and evaluated once
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 4)
    assert [r.hypotheses for r in reports] == _uncached_hypotheses(tworoot_kb, snapshots)
    assert session.alive_roots == (1, 2)


def test_a_full_hit_tick_does_no_inference(tworoot_kb, monkeypatch):
    """Once both alternating patterns are ranked, a repeat is a lookup: no
    slicing, check, evaluation or ranking, yet the same report, and every
    ranked root's layer moves to the tick."""
    snapshots = [snapshot(t, (T1, T2)[t % 2]) for t in range(40)]
    expected = _uncached_hypotheses(tworoot_kb, snapshots), _fresh_reports(tworoot_kb, snapshots)
    session = DiagnosisSession(tworoot_kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots[:2]]

    def no_inference(*args):
        raise AssertionError("a full-hit tick ran inference")

    for name in ("simplify", "check_valid", "evaluate", "rank_hypotheses"):
        monkeypatch.setattr(ducg.engine, name, no_inference)
    for ev in snapshots[2:]:
        reports.append(session.diagnose_tick(ev))
        assert reports[-1].hypotheses
        for h in reports[-1].hypotheses:
            assert session.cubic(h.root).tick == ev.tick
    assert ([r.hypotheses for r in reports], _report_fields(reports)) == expected


def test_a_pattern_that_dropped_roots_is_a_lookup_when_it_comes_back(tworoot_kb, monkeypatch):
    """T3 ranks only B2 of the two alive roots. When it comes back, after T2,
    every root it ranked is still alive: the repeat is a lookup, with no
    slicing, check, evaluation or ranking, and a fresh session's report."""
    snapshots = [snapshot(1, T1), snapshot(2, T3), snapshot(3, T2), snapshot(4, T3)]
    expected = _fresh_reports(tworoot_kb, snapshots)
    session = DiagnosisSession(tworoot_kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots[:3]]
    assert [r.status for r in reports] == ["ambiguous", "diagnosed", "diagnosed"]

    def no_inference(*args):
        raise AssertionError("a repeat over the roots it ranked ran inference")

    for name in ("simplify", "check_valid", "evaluate", "rank_hypotheses"):
        monkeypatch.setattr(ducg.engine, name, no_inference)
    reports.append(session.diagnose_tick(snapshots[3]))
    assert reports[3].hypotheses is reports[1].hypotheses
    assert session.cubic(2).tick == 4
    assert _report_fields(reports) == expected


def test_a_pattern_evicted_from_both_memos_is_ranked_again(monkeypatch):
    """A stream cycling through one more pattern than the memo holds evicts
    each before it repeats: every tick takes the full path, with equal reports."""
    cap = ducg.engine._MEMO_SIZE
    observed = tuple(range(2, 2 + (cap + 1).bit_length()))
    kb = _inline_kb([CausalArc(x, 1, 1.0, {1: {1: 0.6}}) for x in observed], extra_x=observed)
    patterns = [{x: (n >> i) & 1 for i, x in enumerate(observed)} for n in range(1, cap + 2)]
    snapshots = [snapshot(t, patterns[t % len(patterns)]) for t in range(2 * len(patterns))]
    calls = _counting(monkeypatch, "simplify")
    session = DiagnosisSession(kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots]
    assert len(calls) == len(snapshots)
    assert _report_fields(reports) == _fresh_reports(kb, snapshots)
    assert len(session._memo) == cap


def test_warm_memo_still_drops_a_root_that_misses_an_abnormal_observation(tworoot_kb):
    """X7 lies outside B1's graph, so B1 sees the same observations on both
    ticks; but B1 cannot explain X7 and must leave."""
    snapshots = [snapshot(1, T2), snapshot(2, {**T2, 7: 1})]
    session = DiagnosisSession(tworoot_kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots]
    assert session.alive_roots == (2,)
    assert {h.root for h in reports[1].hypotheses} == {2}
    assert [r.hypotheses for r in reports] == _uncached_hypotheses(tworoot_kb, snapshots)


def test_memo_hits_keep_each_slice_at_its_own_tick(tworoot_kb):
    ticks = list(range(3, 15))
    session, layered = DiagnosisSession(tworoot_kb), {}
    for t in ticks:
        session.diagnose_tick(snapshot(t, (T1, T2)[t % 2]))
        layered = extend_layers(layered, session)
    assert [layer.tick for layer in layered[1]] == ticks
    assert [layer.tick for layer in layered[2]] == ticks


def test_memo_hits_reuse_the_stored_slice_object(tworoot_kb):
    session = DiagnosisSession(tworoot_kb)
    session.diagnose_tick(snapshot(1, T1))
    stored = {r: session.cubic(r).latest for r in session.alive_roots}
    session.diagnose_tick(snapshot(2, T2))
    for t in (3, 5):  # two hits on the first pattern
        session.diagnose_tick(snapshot(t, T1))
        for r in session.alive_roots:
            assert session.cubic(r).latest is stored[r]
            assert session.cubic(r).tick == t


@pytest.mark.parametrize(
    "fed, failing, evaluated",
    [
        ((T1,), T2, [1, 2]),  # a new pattern: the second root's evaluation raises
        ((T1, T3), T1, [2]),  # a repeat after B1 left: its stale entry stays
    ],
    ids=["new-pattern", "repeat-after-a-root-left"],
)
def test_a_tick_that_raises_mid_evaluation_commits_nothing(
    tworoot_kb, monkeypatch, fed, failing, evaluated
):
    """Evaluating the last alive root of a missed tick raises: no root keeps a
    new cubic graph, the memo keeps its keys and entries, the store of family
    tables is the same object with the same entries, and the hypothesis space
    stays as it was."""
    session = DiagnosisSession(tworoot_kb)
    for t, assignments in enumerate(fed, 1):
        session.diagnose_tick(snapshot(t, assignments))
    alive = session.alive_roots
    before = {r: session.cubic(r) for r in alive}
    memo = list(session._memo.items())
    store, stored = session._tables, list(session._tables.items())
    assert set(before) == set(evaluated)
    assert [key for key, _ in memo] == [frozenset(a.items()) for a in fed]

    real, calls = ducg.engine.evaluate, []

    def last_call_raises(g, kb, *, tables=None):
        calls.append(g.root)
        if len(calls) == len(evaluated):
            raise RuntimeError("evaluation failed")
        return real(g, kb, tables=tables)

    monkeypatch.setattr(ducg.engine, "evaluate", last_call_raises)
    with pytest.raises(RuntimeError):
        session.diagnose_tick(snapshot(len(fed) + 1, failing))
    assert calls == evaluated
    assert session.alive_roots == alive
    for r, cubic in before.items():
        assert session.cubic(r) is cubic
    assert list(session._memo.items()) == memo
    assert session._tables is store and list(store.items()) == stored


def test_warm_memo_still_rejects_evidence_without_an_abnormal_assignment(tworoot_kb):
    session = DiagnosisSession(tworoot_kb)
    for t in range(4):
        session.diagnose_tick(snapshot(t, (T1, T2)[t % 2]))
    with pytest.raises(NoAbnormalEvidenceError):
        session.diagnose_tick(snapshot(4, {3: 0, 5: 0, 6: 0}))


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_memoised_session_equals_uncached_on_random_streams(with_default_cause, monkeypatch):
    """200 random KBs, each fed 12 ticks drawn from three evidence patterns.
    Some patterns repeat after a root they ranked has left: such a repeat
    misses the memo and is ranked afresh over the roots still alive, while
    every other repeat is a lookup."""
    calls = _counting(monkeypatch)
    memoised = uncached = repeats_after_a_ranked_root_left = 0
    for seed in range(200):
        rng = random.Random(seed)
        kb = random_kb(rng, with_default_cause=with_default_cause)
        patterns = [random_evidence(rng, kb).assignments for _ in range(3)]
        snapshots = [snapshot(t, rng.choice(patterns)) for t in range(12)]
        session = DiagnosisSession(kb)
        calls.clear()
        reports, ranked = [], {}  # evidence key -> roots its last occurrence ranked
        for ev in snapshots:
            key = frozenset(ev.assignments.items())
            if key in ranked and not set(ranked[key]) <= set(session.alive_roots):
                repeats_after_a_ranked_root_left += 1
            reports.append(session.diagnose_tick(ev))
            ranked[key] = session.alive_roots
        memoised += len(calls)
        calls.clear()
        assert [r.hypotheses for r in reports] == _uncached_hypotheses(kb, snapshots), seed
        uncached += len(calls)
        assert _report_fields(reports) == _fresh_reports(kb, snapshots), seed
    assert memoised < uncached / 2
    assert repeats_after_a_ranked_root_left >= 20


@pytest.mark.parametrize("make_kb", [random_kb, random_cyclic_kb])
@pytest.mark.parametrize("with_default_cause", [False, True])
def test_a_valid_slice_of_positive_zeta_has_an_abnormal_joint(make_kb, with_default_cause):
    """What lets a full memo hit reuse a stored ranking: a root the entry
    left out added nothing to Σζ. A valid slice with ζ > 0 always has a
    hypothesis, since a normal root leaves every observation normal."""
    positive = 0
    for seed in range(400):
        rng = random.Random(seed)
        kb = make_kb(rng, with_default_cause=with_default_cause)
        ev = random_evidence(rng, kb)
        for sub in decompose(kb):
            s = simplify(sub, ev)
            if not (s.valid and check_valid(s, ev)):
                continue
            zeta, joints = evaluate(s, kb)
            if zeta > 0.0:
                positive += 1
                assert any(joint > 0.0 for joint in joints.values()), (seed, sub.root)
    assert positive >= 250  # 281 to 451 of them, by variant


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
    calls = _counting(monkeypatch)
    session = DiagnosisSession(kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots]
    assert calls == [1, 1]
    assert [r.hypotheses[0].zeta for r in reports] == pytest.approx([0.14, 0.1, 0.14, 0.1])
    assert [r.hypotheses for r in reports] == _uncached_hypotheses(kb, snapshots)


def _incident(rng, kb, ticks):
    """``ticks`` triggering assignments read inside one root's subgraph, so
    that root tends to stay alive: each is the last with one reading added,
    flipped or dropped, or an earlier one again. Every other tick also
    sets, changes or clears a reading that an arc condition names."""
    sub = rng.choice(decompose(kb))
    readable = [v for v in sub.variables if kb.variables[v].kind == "X"] or [
        v for v, var in kb.variables.items() if var.kind == "X"
    ]
    named = sorted({
        lit.var for arc in kb.arcs if arc.condition
        for group in arc.condition.any_of for lit in group
    })
    first = rng.choice(readable)
    current = {first: rng.choice(kb.variables[first].abnormal_state_ids)}
    stream = [current]
    while len(stream) < ticks:
        if len(stream) > 2 and rng.random() < 0.25:
            stream.append(rng.choice(stream))
            continue
        current = dict(current)
        for v in [rng.choice(readable)] + ([rng.choice(named)] if named and len(stream) % 2 else []):
            if v in current and rng.random() < 0.4:
                del current[v]
            else:
                current[v] = rng.choice(kb.variables[v].state_ids)
        if not any(current.values()):
            current[first] = rng.choice(kb.variables[first].abnormal_state_ids)
        stream.append(current)
    return [snapshot(t, a) for t, a in enumerate(stream, start=1)]


@pytest.mark.parametrize("make_kb", [random_kb, random_cyclic_kb])
@pytest.mark.parametrize("with_default_cause", [False, True])
def test_kept_frames_give_the_reports_of_rebuilt_frames(make_kb, with_default_cause, monkeypatch):
    """200 random KBs, each fed a 12-tick incident. A session that keeps
    each ranked root's frame reports, field for field, what a session
    that builds every frame afresh reports. Kept frames are reused, and on
    the cyclic KBs, whose conditional arc's observable flips, some no longer
    fit and are built again. A session holds frames of alive roots only."""
    built = _counting(monkeypatch, "slice_frame")
    sliced = _counting(monkeypatch, "simplify")
    reused = rekeyed = 0
    for seed in range(200):
        rng = random.Random(seed)
        kb = make_kb(rng, with_default_cause=with_default_cause)
        snapshots = _incident(rng, kb, 12)
        session, reports = DiagnosisSession(kb), []
        for ev in snapshots:
            kept = set(session._frames)
            built.clear()
            sliced.clear()
            reports.append(session.diagnose_tick(ev))
            reused += len(sliced) - len(built)
            rekeyed += len(kept.intersection(built))
            assert set(session._frames) <= set(session.alive_roots), seed
        with monkeypatch.context() as patched:
            patched.setattr(SliceFrame, "fits", lambda frame, assignments: False)
            rebuilding = DiagnosisSession(kb)
            rebuilt = [rebuilding.diagnose_tick(ev) for ev in snapshots]
        assert _report_fields(reports) == _report_fields(rebuilt), seed
    # measured: 589 to 939 frames reused; 222 and 328 rebuilt on the cyclic KBs
    assert reused >= 400, reused
    assert rekeyed >= (150 if make_kb is random_cyclic_kb else 0), rekeyed


def test_memo_is_capped_per_root_least_recently_used_first(monkeypatch):
    cap = ducg.engine._MEMO_SIZE
    observed = tuple(range(2, 2 + (cap + 1).bit_length()))
    kb = _inline_kb([CausalArc(x, 1, 1.0, {1: {1: 0.6}}) for x in observed], extra_x=observed)
    patterns = [
        {x: (n >> i) & 1 for i, x in enumerate(observed)} for n in range(1, cap + 2)
    ]
    calls = _counting(monkeypatch)
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
    assert len(session._memo) == cap
    assert list(session._memo)[-2:] == [frozenset(patterns[i].items()) for i in (0, 1)]


def test_a_hit_and_a_re_ranked_pattern_become_the_most_recently_used(tworoot_kb):
    """A full hit moves its pattern last in the memo. So does a stale entry
    ranked again once one of its roots left: it does not keep its place."""
    t1, t2, t3 = (frozenset(t.items()) for t in (T1, T2, T3))
    session = DiagnosisSession(tworoot_kb)
    for tick, pattern in enumerate((T1, T2, T1), start=1):
        session.diagnose_tick(snapshot(tick, pattern))
    assert list(session._memo) == [t2, t1]
    session.diagnose_tick(snapshot(4, T3))  # B1 leaves
    assert list(session._memo) == [t2, t1, t3] and session.alive_roots == (2,)
    session.diagnose_tick(snapshot(5, T1))  # T1's entry ranked B1: ranked again
    assert list(session._memo) == [t2, t3, t1]
    assert tuple(session._memo[t1][0]) == (2,)


def test_memo_forgets_roots_that_leave_the_hypothesis_space(tworoot_kb, monkeypatch):
    """B1 leaves on T3; T1's entry keeps it until T1 comes back. That repeat
    misses: it slices, checks and evaluates B2 alone, and its ranking
    replaces the entry, so the next repeat is a lookup."""
    key = frozenset(T1.items())
    snapshots = [snapshot(1, T1), snapshot(2, T3), snapshot(3, T1), snapshot(4, T1)]
    expected = _fresh_reports(tworoot_kb, snapshots)
    session = DiagnosisSession(tworoot_kb)
    reports = [session.diagnose_tick(ev) for ev in snapshots[:2]]
    assert session.alive_roots == (2,) and tuple(session._memo[key][0]) == (1, 2)
    calls = {name: _counting(monkeypatch, name) for name in ("simplify", "check_valid", "evaluate")}
    reports.append(session.diagnose_tick(snapshots[2]))
    assert calls == dict.fromkeys(calls, [2])
    assert tuple(session._memo[key][0]) == (2,)
    reports.append(session.diagnose_tick(snapshots[3]))
    assert calls == dict.fromkeys(calls, [2])
    assert reports[3].hypotheses is reports[2].hypotheses
    assert _report_fields(reports) == expected


def test_long_session_memory_is_bounded(tworoot_kb):
    """16,000 triggers hold under 1 MiB: a root keeps only its latest
    layer and one frame, and the memo is capped."""
    pattern = (T1, T2, T3)
    session = DiagnosisSession(tworoot_kb)
    for t in range(16):
        session.diagnose_tick(snapshot(t, pattern[t % 2]))
        assert set(session._frames) == set(session.alive_roots) == {1, 2}
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
    session.diagnose_tick(snapshot(16_000, pattern[2]))  # only B2 explains X4
    assert set(session._frames) == set(session.alive_roots) == {2}


# --- prediction ----------------------------------------------------------------------


def test_predict_golden_first_tick(tworoot_kb):
    # the first tick's state for B1, rebuilt directly
    sub = subs_by_root(tworoot_kb)[1]
    rows = predict(sub, simplify(sub, snapshot(14, T1)).states, tworoot_kb, 1)
    assert rows == [
        (3, 1, pytest.approx(0.5)),
        (6, 1, pytest.approx(0.4)),
        (4, 1, pytest.approx(0.07)),
    ]


def test_predict_excludes_current_abnormal_and_roots(tworoot_kb):
    sub = subs_by_root(tworoot_kb)[2]
    rows = predict(sub, simplify(sub, snapshot(16, T2)).states, tworoot_kb, 2)
    assert rows == [(7, 1, pytest.approx(0.8)), (4, 1, pytest.approx(0.35))]
    predicted = {v for v, _, _ in rows}
    assert 5 not in predicted and 6 not in predicted  # currently abnormal
    assert 2 not in predicted  # the hypothesis root itself


def test_predict_ignores_self_arcs(tworoot_kb):
    sub = subs_by_root(tworoot_kb)[1]
    rows = predict(sub, simplify(sub, snapshot(14, T1)).states, tworoot_kb, 1)
    # X4's only mass comes through X5 (0.7·0.1); the X4←X4 loop adds nothing
    assert dict(((v, s), p) for v, s, p in rows)[(4, 1)] == pytest.approx(0.07)


def test_predict_reads_each_intensity_cell_once_on_a_dag(monkeypatch):
    """On a DAG every chain value is shared, so one forecast reads each
    (arc, abnormal child state, abnormal parent state) cell at most once;
    enumerating simple paths read them 47,519 times on this shape."""
    kb = layered_kb(random.Random(1), 8, 8, 8, 3)
    sub = decompose(kb)[0]
    lookups = []
    completed = ducg.engine.completed_intensity

    def counted(arc, state, j):
        lookups.append(arc)
        return completed(arc, state, j)

    monkeypatch.setattr(ducg.engine, "completed_intensity", counted)
    rows = predict(sub, {}, kb, 1)
    cells = sum(
        len(kb.variables[a.child].abnormal_state_ids)
        * len(kb.variables[a.parent].abnormal_state_ids)
        for a in sub.arcs
        if a.child != a.parent
    )
    assert rows and len(lookups) <= cells, (len(lookups), cells)


def _predict_by_paths(sub, states, kb, hyp, keys):
    """``predict``'s rule without its memo: every simple path enumerated
    anew, over the KB's arcs within the subgraph. Records each call's
    (var, seen ∩ ancestors of var) in ``keys``."""
    arcs = [
        a for a in kb.arcs
        if a.child != a.parent and a.child in sub.variables and a.parent in sub.variables
    ]
    families = ducg.engine._families(arcs)
    edges = [(a.child, a.parent) for a in arcs]
    ancestors = {v: _reach({a.parent for a, _, _ in f}, edges) for v, f in families.items()}

    def chain_probability(var, state, seen):
        if var == hyp.var:
            return 1.0 if state == hyp.state else 0.0
        if kb.variables[var].kind == "D":
            return 1.0
        keys.append((var, seen & ancestors.get(var, set())))
        total = 0.0
        for arc, share, _ in families.get(var, ()):
            if arc.parent in seen:
                continue
            for j in kb.variables[arc.parent].abnormal_state_ids:
                intensity = ducg.engine.completed_intensity(arc, state, j)
                if intensity == 0.0:
                    continue
                total += share * intensity * chain_probability(arc.parent, j, seen | {var})
        return total

    rows = []
    for v in sorted(sub.variables):
        var = kb.variables[v]
        if var.kind in ROOT_KINDS or states.get(v, 0) != 0:
            continue
        for state in var.abnormal_state_ids:
            p = chain_probability(v, state, frozenset({v}))
            if p > 0.0:
                rows.append((v, state, p))
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_memoised_predict_equals_path_enumeration_on_cycles(with_default_cause):
    """The memo key keeps the part of ``seen`` a chain value can read, so
    forecasts stay float for float those of enumerating every simple path,
    also where cycles make that part non-empty."""
    keys = []
    for seed in range(200):
        rng = random.Random(seed)
        kb = random_cyclic_kb(rng, with_default_cause=with_default_cause)
        ev = random_evidence(rng, kb)
        for sub in decompose(kb):
            for states in ({}, simplify(sub, ev).states):
                for s in kb.variables[sub.root].abnormal_state_ids:
                    hyp = RootLiteral(sub.root, s)
                    want = _predict_by_paths(sub, states, kb, hyp, keys)
                    assert predict(sub, states, kb, s) == want, f"seed {seed} root {sub.root}"
    assert sum(1 for _, part in keys if part) >= 1000


# Far past the interpreter's default recursion limit of 1,000 frames.
CHAIN = 5_000


def _chain_kb(ids, extra=()):
    """A B root ``ids[0]`` causing X ``ids[1]``, which causes X ``ids[2]``
    and so on, plus the ``extra`` (child, parent) arcs; every arc sets its
    child abnormal with intensity 0.9 when its parent is abnormal."""
    states = tuple(
        StateDef(k, "normal" if k == 0 else "high", "normal" if k == 0 else "abnormal")
        for k in range(2)
    )
    variables = {
        v: Variable(
            id=v, kind="X" if d else "B", label=f"v{v}", states=states,
            prior=None if d else {1: 0.1},
        )
        for d, v in enumerate(ids)
    }
    pairs = [*zip(ids[1:], ids), *extra]
    return KnowledgeBase(variables, [CausalArc(c, p, 1.0, {1: {1: 0.9}}) for c, p in pairs])


@pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "upper-half-abnormal"])
@pytest.mark.parametrize("ascending", [True, False], ids=["ascending", "descending"])
def test_predict_on_a_long_chain_is_not_bounded_by_the_recursion_limit(ascending, observed):
    """On a DAG every chain value is computed parents first, so a 5,000-link
    chain forecasts 0.9^d for the X at distance d from the root, whichever
    way its ids run and whether or not the half nearest the root is
    already abnormal."""
    ids = list(range(1, CHAIN + 2)) if ascending else list(range(CHAIN + 1, 0, -1))
    kb = _chain_kb(ids)
    (sub,) = decompose(kb)
    states = {v: 1 for v in ids[1 : CHAIN // 2 + 1]} if observed else {}
    rows = predict(sub, states, kb, 1)
    want = {v: 0.9**d for d, v in enumerate(ids) if d and v not in states}
    assert len(rows) == len(want) == (CHAIN - len(states))
    for v, s, p in rows:
        assert s == 1 and math.isclose(p, want[v], rel_tol=1e-12, abs_tol=0.0), (v, p, want[v])
    assert [p for _, _, p in rows] == sorted((p for _, _, p in rows), reverse=True)


def test_predict_on_a_chain_with_a_shortcut_ignores_the_id_order():
    """A 5,000-link chain with one shortcut arc, numbered downward from the
    root and then upward, gives each variable the same float."""
    shortcut = [(20, 10)]  # (child, parent) by distance from the root
    forecasts = []
    for ids in (list(range(CHAIN + 1, 0, -1)), list(range(1, CHAIN + 2))):
        kb = _chain_kb(ids, [(ids[c], ids[p]) for c, p in shortcut])
        (sub,) = decompose(kb)
        distance = {v: d for d, v in enumerate(ids)}
        rows = predict(sub, {}, kb, 1)
        forecasts.append({(distance[v], s): p for v, s, p in rows})
    assert forecasts[0] == forecasts[1]
    assert len(forecasts[0]) == CHAIN
    assert forecasts[0][(20, 1)] == pytest.approx(0.5 * 0.9**20 + 0.5 * 0.9**11, rel=1e-12)


def test_predict_on_a_long_cycle_raises_cycle_limit():
    """A cycle through 5,000 X variables keeps the recursive walk, whose
    chains outgrow the recursion limit: a coded error, not a traceback."""
    ids = list(range(1, CHAIN + 2))
    kb = _chain_kb(ids, [(2, CHAIN + 1)])
    (sub,) = decompose(kb)
    with pytest.raises(CycleLimitError):
        predict(sub, {}, kb, 1)


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
