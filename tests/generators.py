"""Seeded random knowledge bases and evidence for the oracle cross-check battery."""

from __future__ import annotations

import random
from dataclasses import replace

from ducg import (
    CausalArc,
    Condition,
    ConditionLiteral,
    EvidenceSnapshot,
    KnowledgeBase,
    RootLiteral,
    StateDef,
    Variable,
    conjoin,
    decompose,
    eval_expression,
    expand,
    simplify,
)

from oracle import enumerate_joint


def _states(n: int) -> tuple[StateDef, ...]:
    return tuple(
        StateDef(k, "normal" if k == 0 else f"s{k}", "normal" if k == 0 else "abnormal")
        for k in range(n)
    )


def _random_arc(rng: random.Random, variables, child: int, parent: int) -> CausalArc:
    child_abnormal = [s for s in variables[child].state_ids if s != 0]
    parent_abnormal = [s for s in variables[parent].state_ids if s != 0]
    matrix: dict[int, dict[int, float]] = {}
    for j in parent_abnormal:
        if rng.random() < 0.12:
            continue  # unspecified column: this parent state exerts no effect
        mass = rng.uniform(0.1, 0.95)
        shares = [rng.uniform(0.1, 1.0) for _ in child_abnormal]
        scale = mass / sum(shares)
        for k, share in zip(child_abnormal, shares):
            matrix.setdefault(k, {})[j] = share * scale
        if rng.random() < 0.25:
            # explicit normal entry, consistent with the abnormal mass
            matrix.setdefault(0, {})[j] = 1.0 - sum(
                matrix[k][j] for k in child_abnormal
            )
    weight = rng.choice([1.0, 1.0, 1.0, 2.0, 0.5])
    return CausalArc(child=child, parent=parent, weight=weight, matrix=matrix)


def random_kb(rng: random.Random, *, with_default_cause: bool = False) -> KnowledgeBase:
    """An acyclic layered KB: 1-3 roots, 2-6 observables, random mechanisms."""
    variables: dict[int, Variable] = {}
    next_id = 1
    root_ids = []
    for _ in range(rng.randint(1, 3)):
        n_abnormal = rng.choice([1, 1, 2])
        total = rng.uniform(0.05, 0.6)
        raw = [rng.uniform(0.2, 1.0) for _ in range(n_abnormal)]
        scale = total / sum(raw)
        prior = {k + 1: raw[k] * scale for k in range(n_abnormal)}
        variables[next_id] = Variable(
            id=next_id,
            kind="B",
            label=f"root {next_id}",
            states=_states(n_abnormal + 1),
            prior=prior,
        )
        root_ids.append(next_id)
        next_id += 1

    d_id = None
    if with_default_cause:
        d_id = next_id
        variables[d_id] = Variable(
            id=d_id, kind="D", label="default cause", states=_states(2)
        )
        next_id += 1

    x_ids = []
    layer: dict[int, int] = {}  # causal depth 1..3 keeps chains short
    for _ in range(rng.randint(2, min(6, 8 - len(variables)))):
        n_abnormal = rng.choice([1, 1, 2])
        variables[next_id] = Variable(
            id=next_id, kind="X", label=f"x {next_id}", states=_states(n_abnormal + 1)
        )
        layer[next_id] = rng.choice([1, 2, 3])
        x_ids.append(next_id)
        next_id += 1
    x_ids.sort(key=lambda v: (layer[v], v))

    arcs = []
    for x in x_ids:
        pool = root_ids + [p for p in x_ids if layer[p] < layer[x]]
        if d_id is not None:
            pool = pool + [d_id]
        for parent in rng.sample(pool, min(len(pool), rng.choice([1, 1, 1, 2, 2, 3]))):
            arcs.append(_random_arc(rng, variables, child=x, parent=parent))
    if x_ids and rng.random() < 0.2:
        x = rng.choice(x_ids)  # self-arc: must never influence inference
        arcs.append(_random_arc(rng, variables, child=x, parent=x))
    return KnowledgeBase(variables, arcs)


def random_cyclic_kb(rng: random.Random, *, with_default_cause: bool = False) -> KnowledgeBase:
    """``random_kb`` plus 1-2 random X<-X arcs, which may close cycles or run
    parallel to an arc, and one arc whose condition names a random observable."""
    kb = random_kb(rng, with_default_cause=with_default_cause)
    variables = dict(kb.variables)
    x_ids = sorted(v for v, var in variables.items() if var.kind == "X")
    arcs = list(kb.arcs)
    for _ in range(rng.randint(1, 2)):
        child, parent = rng.sample(x_ids, 2)
        arcs.append(_random_arc(rng, variables, child=child, parent=parent))
    child = rng.choice(x_ids)
    parent = rng.choice([v for v, var in variables.items() if v != child and var.kind != "D"])
    on = rng.choice(x_ids)
    condition = Condition(((ConditionLiteral(on, rng.choice(variables[on].state_ids)),),))
    arc = _random_arc(rng, variables, child=child, parent=parent)
    arcs.append(replace(arc, condition=condition))
    return KnowledgeBase(variables, arcs)


def layered_kb(
    rng: random.Random, roots: int, layers: int, width: int, fan_in: int
) -> KnowledgeBase:
    """A deep acyclic KB, shape (roots, layers x width, fan_in): ``layers``
    layers of ``width`` binary observables, each with ``fan_in`` parents in
    the layer above (the roots above the first), every parent used where the
    count allows. Expanding evidence on the last layer builds a number of
    products that grows exponentially with the depth."""
    variables: dict[int, Variable] = {}
    above = list(range(1, roots + 1))
    for r in above:
        n_abnormal = rng.choice([1, 2])
        raw = [rng.uniform(0.2, 1.0) for _ in range(n_abnormal)]
        scale = rng.uniform(0.02, 0.2) / sum(raw)
        variables[r] = Variable(
            id=r,
            kind="B",
            label=f"root {r}",
            states=_states(n_abnormal + 1),
            prior={k + 1: raw[k] * scale for k in range(n_abnormal)},
        )
    arcs = []
    next_id = roots + 1
    for _ in range(layers):
        layer = list(range(next_id, next_id + width))
        next_id += width
        cover = rng.sample(above, len(above))
        for i, x in enumerate(layer):
            variables[x] = Variable(id=x, kind="X", label=f"x {x}", states=_states(2))
            chosen = cover[i * fan_in:(i + 1) * fan_in]
            rest = [p for p in above if p not in chosen]
            chosen += rng.sample(rest, min(fan_in, len(above)) - len(chosen))
            for parent in chosen:
                matrix = {
                    1: {j: rng.uniform(0.2, 0.9) for j in variables[parent].abnormal_state_ids}
                }
                weight = rng.choice([0.5, 1.0, 2.0])
                arcs.append(CausalArc(child=x, parent=parent, weight=weight, matrix=matrix))
        above = layer
    return KnowledgeBase(variables, arcs)


def deep_evidence(kb: KnowledgeBase) -> EvidenceSnapshot:
    """3 abnormal and 2 normal readings on the last layer, in reach of the
    root that reaches most of it: the deepest evidence the KB offers."""
    parents = {a.parent for a in kb.arcs}
    last = [v for v, var in kb.variables.items() if var.kind == "X" and v not in parents]
    reach = {
        sub.root: [x for x in last if x in sub.variables] for sub in decompose(kb)
    }
    root = max(reach, key=lambda r: (len(reach[r]), -r))
    chosen = (reach[root] + [x for x in last if x not in reach[root]])[:5]
    return EvidenceSnapshot.build(1, {x: 1 if i < 3 else 0 for i, x in enumerate(chosen)})


def random_evidence(rng: random.Random, kb: KnowledgeBase) -> EvidenceSnapshot:
    x_vars = [v for v in kb.variables.values() if v.kind == "X"]
    observed = [v for v in x_vars if rng.random() < 0.7] or [rng.choice(x_vars)]
    assignments = {}
    for v in observed:
        if rng.random() < 0.55:
            assignments[v.id] = rng.choice(v.abnormal_state_ids)
        else:
            assignments[v.id] = 0
    if all(s == 0 for s in assignments.values()):
        forced = rng.choice(observed)
        assignments[forced.id] = rng.choice(forced.abnormal_state_ids)
    return EvidenceSnapshot.build(1, assignments)


def check_engine_against_oracle(
    kb: KnowledgeBase,
    ev: EvidenceSnapshot,
    *,
    check_joints: bool = True,
    tol: float = 1e-9,
) -> int:
    """Cross-check every valid root graph; return how many were compared."""
    compared = 0
    for sub in decompose(kb):
        s = simplify(sub, ev)
        if not s.valid:
            continue
        expr = expand(s, kb)
        zeta = eval_expression(expr, kb)
        oracle_zeta = enumerate_joint(kb, s.variables, s.arcs, dict(s.states))
        assert abs(zeta - oracle_zeta) <= tol, (
            f"zeta mismatch for root {sub.root}: engine {zeta} vs oracle {oracle_zeta}"
        )
        if check_joints:
            for state in kb.variables[sub.root].state_ids:
                joint = eval_expression(conjoin(expr, RootLiteral(sub.root, state)), kb)
                oracle_joint = enumerate_joint(
                    kb, s.variables, s.arcs, dict(s.states), hypothesis=(sub.root, state)
                )
                assert abs(joint - oracle_joint) <= tol, (
                    f"joint mismatch for root {sub.root} state {state}: "
                    f"engine {joint} vs oracle {oracle_joint}"
                )
        compared += 1
    return compared
