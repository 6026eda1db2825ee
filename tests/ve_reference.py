"""A frozen copy of the first variable-elimination evaluator, for tests only.

``factored_joints`` below is the engine's evaluator as it was first written,
with the two helpers it read, copied verbatim. The engine's version keeps
cheaper bookkeeping but promises the same floating-point operations in the
same order, so its joints must equal these with ``==``.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Callable

from ducg import CubicGraph, EvidenceSnapshot, KnowledgeBase, RootLiteral, completed_intensity
from ducg.algebra import root_probability
from ducg.engine import SliceGraph
from ducg.kb import CausalArc, ROOT_KINDS


def _in_arcs(g: SliceGraph) -> dict[int, list[tuple[CausalArc, int]]]:
    """Each child's retained in-arcs in slice order, each with its rank among
    the child's arcs from the same parent (0 unless arcs are parallel)."""
    index: dict[int, list[tuple[CausalArc, int]]] = {}
    ranks: dict[tuple[int, int], int] = {}
    for arc in g.arcs:
        key = (arc.child, arc.parent)
        rank = ranks[key] = ranks.get(key, -1) + 1
        index.setdefault(arc.child, []).append((arc, rank))
    return index


def _positions(
    scope: tuple[int, ...], full: tuple[int, ...]
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A function mapping an assignment over ``full`` to its ``scope`` key."""
    where = [full.index(v) for v in scope]
    if len(where) == 1:
        i = where[0]
        return lambda assignment: (assignment[i],)
    return itemgetter(*where) if where else lambda assignment: ()


def factored_joints(
    ev: EvidenceSnapshot, cubic: CubicGraph, kb: KnowledgeBase
) -> dict[int, float]:
    """Pr{root = s ∧ evidence} for every root state s, by variable elimination.

    Reads ``cubic``'s latest slice as a causal network: a root has its prior,
    every caused variable the weighted mixture Σ (w/r)·intensity of its
    retained in-arcs, an uncaused evidenced variable is certain to be normal,
    and evidence clamps domains. Every variable except the root is summed
    out, smallest resulting factor first. On an acyclic slice this equals
    what ``expand`` builds, up to float summation order.
    """
    g = cubic.latest
    evidence = {
        v: s for v, s in ev.assignments.items() if v in g.variables
    }
    in_arcs = _in_arcs(g)
    domains = {
        v: (evidence[v],) if v in evidence else kb.variables[v].state_ids
        for v in sorted(g.variables)
    }

    # Factors are (scope, table); clamped variables are left out of scopes.
    factors: list[tuple[tuple[int, ...], dict[tuple[int, ...], float]]] = []
    for v in domains:
        is_root = kb.variables[v].kind in ROOT_KINDS
        arcs = [] if is_root else [arc for arc, _ in in_arcs.get(v, ())]
        r = sum(arc.weight for arc in arcs)
        family = (v,) + tuple(sorted({arc.parent for arc in arcs}))
        scope = tuple(u for u in family if len(domains[u]) > 1)
        table = {}
        for states in product(*(domains[u] for u in family)):
            a = dict(zip(family, states))
            if is_root:
                p = root_probability(kb, RootLiteral(v, a[v]))
            elif arcs:
                p = sum(
                    arc.weight / r * completed_intensity(arc, a[v], a[arc.parent])
                    for arc in arcs
                )
            else:
                p = 1.0 if a[v] == 0 else 0.0  # uncaused: certainly normal
            table[tuple(a[u] for u in scope)] = p
        factors.append((scope, table))

    root = g.root
    while True:
        touched: dict[int, set[int]] = {}
        for scope, _ in factors:
            for v in scope:
                if v != root:
                    touched.setdefault(v, set()).update(scope)
        if not touched:
            break

        def size(v: int) -> tuple[int, int]:
            n = 1
            for u in touched[v]:
                if u != v:
                    n *= len(domains[u])
            return n, v

        v = min(touched, key=size)
        joined = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = tuple(sorted(touched[v] - {v}))
        full = scope + (v,)
        lookups = [(table, _positions(fscope, full)) for fscope, table in joined]
        table = {}
        for states in product(*(domains[u] for u in scope)):
            total = 0.0
            for x in domains[v]:
                a = states + (x,)
                p = 1.0
                for t, key in lookups:
                    p *= t[key(a)]
                total += p
            table[states] = total
        factors.append((scope, table))

    joints = {}
    for s in kb.variables[root].state_ids:
        if s not in domains[root]:
            joints[s] = 0.0
            continue
        p = 1.0
        for scope, table in factors:
            p *= table[(s,) if scope else ()]
        joints[s] = p
    return joints
