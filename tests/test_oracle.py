"""Cross-checks the symbolic engine against brute-force probability enumeration."""

import dataclasses
import math
import random

import pytest

from ducg import (
    CausalArc,
    Condition,
    ConditionLiteral,
    DiagnosisSession,
    EvidenceSnapshot,
    KnowledgeBase,
    RootLiteral,
    StateDef,
    Variable,
    conjoin,
    decompose,
    eval_expression,
    evaluate,
    expand,
    factored_joints,
    predict,
    rank_hypotheses,
    simplify,
)

from generators import check_engine_against_oracle, random_evidence, random_kb
from oracle import enumerate_joint

BATTERY_SEEDS = range(200)


def scenario(seed, **kb_kwargs):
    rng = random.Random(seed)
    kb = random_kb(rng, **kb_kwargs)
    return kb, random_evidence(rng, kb)


def test_fixture_zeta_matches_oracle(tworoot_kb):
    ev = EvidenceSnapshot.build(14, {3: 0, 5: 1, 6: 0})
    sub = next(s for s in decompose(tworoot_kb) if s.root == 2)
    s = simplify(sub, ev)
    expr = expand(s, tworoot_kb)
    zeta = eval_expression(expr, tworoot_kb)
    assert zeta == pytest.approx(
        enumerate_joint(tworoot_kb, s.variables, s.arcs, dict(s.states)), abs=1e-12
    )


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_randomized_battery_matches_oracle(seed):
    kb, ev = scenario(seed)
    check_engine_against_oracle(kb, ev, tol=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_randomized_battery_with_default_causes(seed):
    kb, ev = scenario(seed, with_default_cause=True)
    check_engine_against_oracle(kb, ev, check_joints=True, tol=1e-9)


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_factored_expand_and_oracle_agree(with_default_cause):
    """Three-way battery: variable elimination, ``expand`` and enumeration give
    the same ζ and root-state joints on every valid slice of 400 random KBs."""
    compared = 0
    for seed in range(400):
        kb, ev = scenario(seed, with_default_cause=with_default_cause)
        for sub in decompose(kb):
            s = simplify(sub, ev)
            if not s.valid:
                continue
            joints = factored_joints(s, kb)
            expr = expand(s, kb)
            evidence = dict(s.states)
            checks = [(
                "zeta",
                sum(joints.values()),
                eval_expression(expr, kb),
                enumerate_joint(kb, s.variables, s.arcs, evidence),
            )]
            for state in kb.variables[sub.root].state_ids:
                checks.append((
                    f"joint of state {state}",
                    joints[state],
                    eval_expression(conjoin(expr, RootLiteral(sub.root, state)), kb),
                    enumerate_joint(
                        kb, s.variables, s.arcs, evidence, hypothesis=(sub.root, state)
                    ),
                ))
            for what, factored, expanded, oracle in checks:
                for other in (expanded, oracle):
                    assert math.isclose(factored, other, rel_tol=1e-12, abs_tol=0.0), (
                        f"seed {seed} root {sub.root} {what}: factored {factored}, "
                        f"expand {expanded}, oracle {oracle}"
                    )
            compared += 1
    assert compared >= 350


@pytest.mark.parametrize("with_default_cause", [False, True])
def test_predict_matches_oracle_forward_marginals(with_default_cause):
    """Every X marginal ``predict`` gives for a certain root state equals the
    oracle's Pr{X = k ∧ root = s} / Pr{root = s} on the root's subgraph, on
    300 random KBs; a default cause counts as present, as in diagnosis.

    One arc of each KB is made conditional on an observable being abnormal.
    With no evidence the condition is undetermined and the arc counts; with
    that observable read normal the condition is False, and the oracle runs
    without the arc. An observable the remaining arcs leave uncaused is
    certainly normal: the oracle clamps it, and its forecast is 0."""
    compared = dropped = 0
    for seed in range(300):
        rng = random.Random(seed)
        kb = random_kb(rng, with_default_cause=with_default_cause)
        arcs = list(kb.arcs)
        i = rng.choice([i for i, a in enumerate(arcs) if a.child != a.parent])
        on = rng.choice([v for v, var in kb.variables.items() if var.kind == "X"])
        arcs[i] = dataclasses.replace(arcs[i], condition=Condition(((ConditionLiteral(on, 1),),)))
        kb = KnowledgeBase(kb.variables, arcs)
        for states in ({}, {on: 0}):  # nothing abnormal, so every observable is scored
            for sub in decompose(kb):
                arcs = [
                    a for a in sub.arcs
                    if a.child != a.parent
                    and (a.condition is None or a.condition.evaluate(states) is not False)
                ]
                dropped += len(arcs) < len([a for a in sub.arcs if a.child != a.parent])
                caused = {a.child for a in arcs}
                uncaused = {
                    v: 0 for v in sub.variables if kb.variables[v].kind == "X" and v not in caused
                }
                root = kb.variables[sub.root]
                for s in root.abnormal_state_ids:
                    rows = predict(sub, states, kb, s)
                    got = {(v, k): p for v, k, p in rows}
                    for v in sorted(sub.variables):
                        if kb.variables[v].kind != "X":
                            continue
                        for k in kb.variables[v].abnormal_state_ids:
                            want = 0.0 if v in uncaused else enumerate_joint(
                                kb, sub.variables, arcs, {**uncaused, v: k}, hypothesis=(sub.root, s)
                            ) / root.prior[s]
                            assert abs(got.get((v, k), 0.0) - want) <= 1e-9, (
                                f"seed {seed} root {sub.root} state {s} states {states}: "
                                f"X{v}={k} predict {got.get((v, k), 0.0)}, oracle {want}"
                            )
                            compared += 1
    assert compared >= 3000  # measured: 5,442 and 3,592
    assert dropped >= 150, dropped  # measured: 321 and 263


@pytest.mark.parametrize("second_intensity", [0.6, 0.3])
def test_parallel_arcs_match_oracle(second_intensity):
    """Two undetermined conditional arcs X2<-B1 are two cause routes, also
    when their weight and matrix are equal."""
    states = tuple(
        StateDef(k, "normal" if k == 0 else "fault", "normal" if k == 0 else "abnormal")
        for k in range(2)
    )
    variables = {
        1: Variable(id=1, kind="B", label="root", states=states, prior={1: 0.1}),
        2: Variable(id=2, kind="X", label="effect", states=states),
        3: Variable(id=3, kind="X", label="unread condition", states=states),
    }

    def arc(intensity, condition_state):
        condition = Condition(((ConditionLiteral(3, condition_state),),))
        return CausalArc(2, 1, 1.0, {1: {1: intensity}}, condition=condition)

    kb = KnowledgeBase(variables, [arc(0.6, 1), arc(second_intensity, 0)])
    ev = EvidenceSnapshot.build(1, {2: 1})
    s = simplify(decompose(kb)[0], ev)
    assert len(s.arcs) == 2
    expected = enumerate_joint(kb, s.variables, s.arcs, dict(s.states))
    assert expected == pytest.approx(0.1 * (0.6 + second_intensity) / 2, rel=1e-12)
    assert eval_expression(expand(s, kb), kb) == pytest.approx(expected, rel=1e-12)
    assert sum(factored_joints(s, kb).values()) == pytest.approx(expected, rel=1e-12)
    (best,) = rank_hypotheses([(s.root, *evaluate(s, kb))])
    assert best.zeta == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", [3, 17, 58, 91])
def test_battery_is_deterministic(seed):
    kb, ev = scenario(seed)

    def run():
        out = []
        for sub in decompose(kb):
            s = simplify(sub, ev)
            if s.valid:
                expr = expand(s, kb)
                out.append((sub.root, expr, eval_expression(expr, kb)))
        return out

    first = run()
    assert all(run() == first for _ in range(3))


def _ranked(kb, ev):
    """The ranking of ``ev`` over every root's valid slice, and how many
    slices are valid."""
    graphs = [s for s in (simplify(sub, ev) for sub in decompose(kb)) if s.valid]
    return rank_hypotheses([(g.root, *evaluate(g, kb)) for g in graphs]), len(graphs)


@pytest.mark.parametrize("seed", range(60))
def test_posteriors_normalize(seed):
    """Σ posterior = 1: abnormal evidence forces zero mass onto all-normal
    roots. Evidence that no valid slice holds, or that has zero probability
    on every one, ranks nothing, and a session reports it unexplained."""
    kb, ev = scenario(seed)
    results, _ = _ranked(kb, ev)
    if not results:
        report = DiagnosisSession(kb).diagnose_tick(ev)
        assert (report.status, report.hypotheses) == ("unexplained", ())
        return
    assert sum(h.posterior for h in results) == pytest.approx(1.0, abs=1e-9)

    by_root = {}
    for h in results:
        by_root.setdefault(h.root, []).append(h)
    for root, hyps in by_root.items():
        assert sum(h.posterior for h in hyps) == pytest.approx(hyps[0].xi, abs=1e-9)
    assert sum(hyps[0].xi for hyps in by_root.values()) == pytest.approx(1.0, abs=1e-9)


def test_most_seeds_rank_and_normalize():
    """The 60 seeds above reach every branch: most rank a hypothesis, some
    have no valid slice, and some have one whose evidence probability is 0."""
    outcomes = []
    for seed in range(60):
        results, valid = _ranked(*scenario(seed))
        outcomes.append("ranked" if results else "zero" if valid else "no slice")
    assert outcomes.count("ranked") >= 45
    assert outcomes.count("zero") >= 1 and outcomes.count("no slice") >= 1
