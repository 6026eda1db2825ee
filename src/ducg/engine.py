"""Per-tick causal inference over time-layered fault graphs.

For every fault root the engine keeps a *cubic* graph: a persistent chain of
per-tick simplified slices, appended in O(1), whose linkage edges are derived
on read. A session keeps the earlier slices only when asked to (DOT export
draws them); otherwise each root holds just its latest slice. A slice holds
the snapshot's evidence on the root's graph (``states``), so the evaluators,
ranking and ``predict`` read one ``SliceGraph``, never the snapshot or the
cubic graph. Each triggering snapshot is explained on the latest slice of
every surviving root by one of two evaluators, which give its evidence
probability ζ and the joint of each fault state; the states are then ranked:

* ``expand`` rewrites the evidence into an exact event expression, which is
  evaluated once for ζ and once per fault state. It takes every cyclic slice,
  since its per-chain history is what defines a cycle's meaning, and every
  slice whose route bound (the most products it can build) is at most
  ``_EXPAND_MAX_ROUTES``: there it is the cheaper of the two, and its
  summation order is the one the recorded fixture outputs hold;
* ``factored_joints`` runs variable elimination on the slice read as a
  causal network and returns every joint in one pass. It takes the other,
  larger acyclic slices, where the expression would grow exponentially with
  depth; it equals ``expand`` there up to float summation order.

A session puts a per-root memo (``EvaluationMemo``) in front of the evaluator:
a slice with the retained arcs and evidence states of one of the root's
``_MEMO_PER_ROOT`` most recently used evaluations reuses that exact ζ and
those joints, so a chattering channel that keeps bringing the same evidence
back is evaluated once per pattern.

Slices and ranking follow these rules; each convention is written once:

* a slice keeps exactly the arcs lying on a causal path from the root to some
  evidenced variable (conditional arcs whose condition is false are deleted
  first; self-arcs never lie on a simple path);
* each child's cause routes share its causal mass as w/r, ``r`` summed over
  the child's retained arcs (``_families``), so a root's explanation never
  pays for causes that live outside its own graph;
* a root whose graph cannot reach every abnormal observation
  (``_unexplained``) — or whose evidence probability is zero — drops out of
  the hypothesis space permanently.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from math import prod
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .algebra import (
    ArcLiteral,
    EventExpression,
    Product,
    RootLiteral,
    conjoin,
    eval_expression,
    root_probability,
)
from .errors import (
    CycleLimitError,
    EmptyHypothesisSpaceError,
    InvalidKnowledgeBaseError,
    NoAbnormalEvidenceError,
    RootMismatchError,
)
from .kb import (
    CausalArc,
    KnowledgeBase,
    ROOT_KINDS,
    SubDUCG,
    completed_intensity,
    decompose,
    validate_kb,
)
from .signals import EvidenceSnapshot

_EXPANSION_STEP_LIMIT = 1_000_000  # defensive; unreachable for sane KBs


# --- graphs --------------------------------------------------------------------


@dataclass(frozen=True)
class SliceGraph:
    """One root's simplified causal graph for a single tick."""

    root: int
    tick: int
    variables: frozenset[int]
    arcs: tuple[CausalArc, ...]
    states: Mapping[int, int]  # evidence restricted to retained variables
    scope: frozenset[int]  # full variable set of the root's subgraph
    valid: bool
    unexplained: tuple[int, ...]


@dataclass(frozen=True)
class LinkEdge:
    """Joins the two instances of one variable in consecutive slices."""

    var: int
    from_tick: int
    to_tick: int


@dataclass(frozen=True, eq=False)
class CubicGraph:
    """One root's time-layered graph: its latest slice and the graph it extends,
    so appending copies nothing. ``==`` is identity and never walks the chain."""

    root: int
    latest: SliceGraph
    previous: Optional[CubicGraph] = field(default=None, repr=False)

    @property
    def slices(self) -> tuple[SliceGraph, ...]:
        """Every slice, oldest first."""
        node, stack = self, []
        while node is not None:
            stack.append(node.latest)
            node = node.previous
        return tuple(reversed(stack))

    @property
    def linkage(self) -> tuple[LinkEdge, ...]:
        """An edge per variable shared by consecutive slices, in slice, then id order."""
        slices = self.slices
        return tuple(
            LinkEdge(var=v, from_tick=a.tick, to_tick=b.tick)
            for a, b in zip(slices, slices[1:])
            for v in sorted(a.variables & b.variables)
        )


def _candidate_arcs(sub: SubDUCG, assignments: Mapping[int, int]) -> list[CausalArc]:
    """Drop self-arcs and arcs whose enabling condition is determined false."""
    kept = []
    for arc in sub.arcs:
        if arc.child == arc.parent:
            continue
        if arc.condition is not None and arc.condition.evaluate(assignments) is False:
            continue
        kept.append(arc)
    return kept


def _downstream(start: int, arcs: Iterable[CausalArc]) -> set[int]:
    children: dict[int, list[int]] = {}
    for arc in arcs:
        children.setdefault(arc.parent, []).append(arc.child)
    seen = {start}
    frontier = [start]
    while frontier:
        var = frontier.pop()
        for child in children.get(var, ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def _upstream_of(targets: Iterable[int], arcs: Iterable[CausalArc]) -> set[int]:
    parents: dict[int, list[int]] = {}
    for arc in arcs:
        parents.setdefault(arc.child, []).append(arc.parent)
    seen = set(targets)
    frontier = list(seen)
    while frontier:
        var = frontier.pop()
        for parent in parents.get(var, ()):
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return seen


def _unexplained(
    ev: EvidenceSnapshot, scope: Collection[int], reached: Collection[int]
) -> tuple[int, ...]:
    """The slice-validity rule: the abnormal observations of ``ev`` outside
    the root's subgraph ``scope`` or not ``reached`` from the root, in id order."""
    return tuple(sorted(v for v in ev.abnormal_set if v not in scope or v not in reached))


def simplify(sub: SubDUCG, ev: EvidenceSnapshot) -> SliceGraph:
    """Build the root's slice for ``ev``: keep only causally relevant arcs.

    An arc survives when the root reaches its parent and its child reaches
    some evidenced variable, i.e. the arc lies on a root→evidence causal
    path. The slice is marked invalid when some abnormal observation is
    outside the subgraph or unreachable from the root (over the candidates:
    every arc of a root path to an observation in scope is retained).
    """
    if not ev.abnormal_set:
        raise NoAbnormalEvidenceError(
            f"tick {ev.tick}: evidence contains no abnormal assignment"
        )
    evidenced = {
        v: s for v, s in ev.assignments.items() if v in sub.variables
    }
    candidates = _candidate_arcs(sub, ev.assignments)
    from_root = _downstream(sub.root, candidates)
    to_evidence = _upstream_of(evidenced, candidates)
    retained = tuple(
        a for a in candidates if a.parent in from_root and a.child in to_evidence
    )
    variables = {sub.root} | set(evidenced)
    for arc in retained:
        variables.add(arc.parent)
        variables.add(arc.child)

    unexplained = _unexplained(ev, sub.variables, from_root)
    return SliceGraph(
        root=sub.root,
        tick=ev.tick,
        variables=frozenset(variables),
        arcs=retained,
        states=dict(sorted(evidenced.items())),
        scope=sub.variable_ids,
        valid=not unexplained,
        unexplained=unexplained,
    )


def merge_cubic(prev: Optional[CubicGraph], new_slice: SliceGraph) -> CubicGraph:
    """Append a slice to a root's cubic graph in O(1); earlier slices are shared."""
    if prev is not None and prev.root != new_slice.root:
        raise RootMismatchError(
            f"cannot merge slice of root {new_slice.root} into cubic graph of "
            f"root {prev.root}"
        )
    return CubicGraph(root=new_slice.root, latest=new_slice, previous=prev)


def check_valid(cubic: CubicGraph, ev: EvidenceSnapshot) -> bool:
    """True iff the latest slice explains every abnormal observation of ``ev``."""
    g = cubic.latest
    return not _unexplained(ev, g.scope, _downstream(g.root, g.arcs))


def _families(arcs: Iterable[CausalArc]) -> dict[int, list[tuple[CausalArc, float, int]]]:
    """Each child's in-arcs in arc order, each with its weight share w/r (``r``
    summed over the child's arcs in that order) and its rank among the child's
    arcs from the same parent (0 unless arcs are parallel)."""
    index: dict[int, list[CausalArc]] = {}
    for arc in arcs:
        index.setdefault(arc.child, []).append(arc)
    families = {}
    for child, arcs_in in index.items():
        r = sum(arc.weight for arc in arcs_in)
        ranks: dict[int, int] = {}
        family = families[child] = []
        for arc in arcs_in:
            rank = ranks[arc.parent] = ranks.get(arc.parent, -1) + 1
            family.append((arc, arc.weight / r, rank))
    return families


# --- symbolic expansion ----------------------------------------------------------


@dataclass
class _Term:
    """One partially expanded product. ``pending`` holds X literals still to
    be rewritten into cause routes; ``pinned`` remembers every state this
    term has committed to (for exclusivity and expand-once idempotence)."""

    roots: dict[int, int]
    arcs: dict[int, ArcLiteral]  # keyed by child variable: one route per child
    pending: dict[int, tuple[int, frozenset[int]]]
    pinned: dict[int, int]

    def clone(self) -> "_Term":
        return _Term(
            roots=dict(self.roots),
            arcs=dict(self.arcs),
            pending=dict(self.pending),
            pinned=dict(self.pinned),
        )


def _absorb(
    term: _Term, kb: KnowledgeBase, var: int, state: int, history: frozenset[int]
) -> bool:
    """Multiply a variable-state literal into ``term``. False = annihilated."""
    seen = term.pinned.get(var)
    if seen is not None and seen != state:
        return False  # exclusivity: two states of one variable
    kind = kb.variables[var].kind
    if kind in ROOT_KINDS:
        term.roots[var] = state
        term.pinned[var] = state
        return True
    if seen is None:
        term.pending[var] = (state, history)
        term.pinned[var] = state
    elif var in term.pending:
        old_state, old_history = term.pending[var]
        term.pending[var] = (old_state, old_history | history)
    # else: already expanded in this term — idempotent, nothing to add
    return True


def _add_arc_literal(term: _Term, lit: ArcLiteral) -> bool:
    """One realized cause route per child variable; duplicates collapse."""
    seen = term.arcs.get(lit.child)
    if seen is None:
        term.arcs[lit.child] = lit
        return True
    return seen == lit


def expand(g: SliceGraph, kb: KnowledgeBase) -> EventExpression:
    """Rewrite the evidence states of slice ``g`` into root-cause terms.

    Every evidence literal is recursively replaced by its weighted cause
    routes ``share · intensity · parent-state`` until only root literals and
    arc literals remain. Parent state 0 enters through the identity
    convention; routes that would revisit a variable already on the literal's
    own causal chain are not simple chains and are skipped. Evidenced normal
    variables with no retained cause contribute probability 1 and vanish;
    abnormal literals with no cause route annihilate their term.
    """
    families = _families(g.arcs)

    seed = _Term(roots={}, arcs={}, pending={}, pinned={})
    for var, state in g.states.items():
        if not _absorb(seed, kb, var, state, frozenset({var})):
            return EventExpression.make([])

    finished: list[Optional[Product]] = []
    worklist = [seed]
    steps = 0
    while worklist:
        steps += 1
        if steps > _EXPANSION_STEP_LIMIT:
            raise CycleLimitError("expansion step limit exceeded")
        term = worklist.pop()
        if not term.pending:
            finished.append(
                Product.make(
                    (RootLiteral(v, s) for v, s in term.roots.items()),
                    term.arcs.values(),
                )
            )
            continue
        var = min(term.pending)
        state, history = term.pending.pop(var)

        routes: list[tuple[ArcLiteral, int, int]] = []
        for arc, share, parallel in families.get(var, ()):
            if arc.parent in history:
                continue  # not a simple causal chain
            parent = kb.variables[arc.parent]
            for j in parent.state_ids:
                if parent.kind == "D" and j == 0:
                    continue  # a default cause is always present
                intensity = completed_intensity(arc, state, j)
                if intensity == 0.0:
                    continue
                lit = ArcLiteral(var, state, arc.parent, j, share, intensity, parallel)
                routes.append((lit, arc.parent, j))

        if not routes:
            if state == 0:
                worklist.append(term)  # uncaused normal observation: probability 1
            # uncaused abnormal observation: the term annihilates
            continue

        for lit, parent, j in routes:
            branch = term.clone()
            if not _add_arc_literal(branch, lit):
                continue
            if not _absorb(branch, kb, parent, j, history | {parent}):
                continue
            worklist.append(branch)

    return EventExpression.make(finished)


# --- factored evaluation -----------------------------------------------------------

# Slices whose route bound is at most this stay on ``expand``: it costs less
# per call there, and its summation order is the one the recorded fixture
# outputs hold (the largest fixture slice has a route bound of 54).
_EXPAND_MAX_ROUTES = 64


def _takes_factored_path(g: SliceGraph, kb: KnowledgeBase) -> bool:
    """True for an acyclic slice whose route bound exceeds the cutoff.

    The route bound, Π over children of Σ over in-arcs of the parent's state
    count, caps the number of products ``expand`` can build. Cyclic slices
    always take ``expand``: its per-chain ``history`` defines their meaning.
    """
    routes: dict[int, int] = {}
    for arc in g.arcs:
        routes[arc.child] = routes.get(arc.child, 0) + len(kb.variables[arc.parent].states)
    if prod(routes.values()) <= _EXPAND_MAX_ROUTES:
        return False
    pending: dict[int, set[int]] = {child: set() for child in routes}
    for arc in g.arcs:
        if arc.parent in pending:
            pending[arc.child].add(arc.parent)
    while pending:  # peel off children whose parents are all placed
        ready = [child for child, parents in pending.items() if not parents]
        if not ready:
            return False
        for child in ready:
            del pending[child]
        for parents in pending.values():
            parents.difference_update(ready)
    return True


def _positions(
    scope: tuple[int, ...], full: tuple[int, ...]
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A function mapping an assignment over ``full`` to its ``scope`` key."""
    where = [full.index(v) for v in scope]
    if len(where) == 1:
        i = where[0]
        return lambda assignment: (assignment[i],)
    return itemgetter(*where) if where else lambda assignment: ()


def factored_joints(g: SliceGraph, kb: KnowledgeBase) -> dict[int, float]:
    """Pr{root = s ∧ evidence} for every root state s, by variable elimination.

    Reads slice ``g`` as a causal network: a root has its prior, every caused
    variable the weighted mixture Σ (w/r)·intensity of its retained in-arcs,
    an uncaused evidenced variable is certain to be normal, and evidence
    clamps domains. Every variable except the root is summed
    out, smallest resulting factor first. On an acyclic slice this equals
    what ``expand`` builds, up to float summation order.

    The float operations and their order are fixed, so every joint is the
    same to the last bit whatever the bookkeeping around them:

    * factors are created one per slice variable in id order, then one per
      elimination step, appended; clamped variables are left out of scopes;
    * each step eliminates the variable with the smallest (resulting factor
      size, id), and the new factor's scope is sorted;
    * a family cell sums its arcs' (w/r)·intensity in slice order, from 0;
    * an eliminated cell multiplies the joined factors in creation order,
      from 1.0, then sums over the variable's states in state order;
    * each joint multiplies the remaining factors in creation order.

    Each step updates only what it touches: the live factors holding each
    variable, and the neighbours and resulting size of each variable in the
    new scope.
    """
    variables = kb.variables
    clamps = g.states
    domains = {
        v: (clamps[v],) if v in clamps else variables[v].state_ids
        for v in sorted(g.variables)
    }
    width = {v: len(domain) for v, domain in domains.items()}
    families = _families(g.arcs)

    # Live factors by creation id, each (scope, table).
    factors: dict[int, tuple[tuple[int, ...], dict[tuple[int, ...], float]]] = {}
    for v, domain in domains.items():
        is_root = variables[v].kind in ROOT_KINDS
        arcs = () if is_root else families.get(v, ())
        if arcs:
            family = (v, *sorted({arc.parent for arc, _, _ in arcs}))
            shares = [(share, family.index(arc.parent), arc) for arc, share, _ in arcs]
            scope = tuple([u for u in family if width[u] > 1])
            key = _positions(scope, family)
            table = {
                key(states): sum([
                    share * completed_intensity(arc, states[0], states[i])
                    for share, i, arc in shares
                ])
                for states in product(*[domains[u] for u in family])
            }
        else:
            scope = (v,) if width[v] > 1 else ()
            if is_root:
                table = {
                    (x,) if scope else (): root_probability(kb, RootLiteral(v, x))
                    for x in domain
                }
            else:  # uncaused: certainly normal
                table = {(x,) if scope else (): 1.0 if x == 0 else 0.0 for x in domain}
        factors[len(factors)] = (scope, table)

    root = g.root
    holders: dict[int, list[int]] = {}  # variable -> its live factors, oldest first
    neighbours: dict[int, set[int]] = {}  # variable -> union of its factors' scopes
    sizes: dict[int, tuple[int, int]] = {}  # variable -> (resulting size, id)

    def size(v: int) -> tuple[int, int]:
        n = 1
        for u in neighbours[v]:
            if u != v:
                n *= width[u]
        return n, v

    for f, (scope, _) in factors.items():
        for u in scope:
            if u != root:
                holders.setdefault(u, []).append(f)
                neighbours.setdefault(u, set()).update(scope)
    for v in holders:
        sizes[v] = size(v)
    created = len(factors)
    while sizes:
        _, v = min(sizes.values())
        del sizes[v]
        joined = [factors.pop(f) for f in holders.pop(v)]
        scope = tuple(sorted(neighbours.pop(v) - {v}))
        full = scope + (v,)
        lookups = [(table, _positions(fscope, full)) for fscope, table in joined]
        table = {}
        for states in product(*[domains[u] for u in scope]):
            total = 0.0
            for x in domains[v]:
                a = states + (x,)
                p = 1.0
                for t, key in lookups:
                    p *= t[key(a)]
                total += p
            table[states] = total
        factors[created] = (scope, table)
        for u in scope:  # every variable that shared a factor with v
            if u != root:
                holders[u] = [f for f in holders[u] if f in factors]
                holders[u].append(created)
                neighbours[u].discard(v)
                neighbours[u].update(scope)
                sizes[u] = size(u)
        created += 1

    joints = {}
    for s in variables[root].state_ids:
        if s not in domains[root]:
            joints[s] = 0.0
            continue
        p = 1.0
        for scope, table in factors.values():
            p *= table[(s,) if scope else ()]
        joints[s] = p
    return joints


# --- ranking ---------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisResult:
    root: int
    state: int
    joint: float  # Pr{hypothesis ∧ evidence} on the root's graph
    zeta: float  # Pr{evidence} on the root's graph
    xi: float  # the graph's share of the surviving probability mass
    posterior: float


def _evaluate(g: SliceGraph, kb: KnowledgeBase) -> tuple[float, dict[int, float]]:
    """ζ of slice ``g`` and the joint of each abnormal root state (no joints
    when ζ is 0)."""
    root = g.root
    abnormal = kb.variables[root].abnormal_state_ids
    if _takes_factored_path(g, kb):
        f = factored_joints(g, kb)
        return sum(f.values()), {s: f[s] for s in abnormal}
    expr = expand(g, kb)
    zeta = eval_expression(expr, kb)
    if zeta <= 0.0:
        return zeta, {}
    return zeta, {
        s: eval_expression(conjoin(expr, RootLiteral(root, s)), kb) for s in abnormal
    }


# Evaluations kept per root, a bound however long a session runs. The value is
# chosen, not tuned: long-stream cycles through 2 evidence patterns per root,
# and any cap of 2 or more gives it the same hit share.
_MEMO_PER_ROOT = 16


class EvaluationMemo:
    """Each root's most recently used ``_evaluate`` results, at most
    ``_MEMO_PER_ROOT`` of them, the least recently used evicted first.

    The key is the ordered identities of the slice's retained arcs plus its
    evidence states; with the root they fix the whole slice ``_evaluate``
    reads, and the arcs carry every condition outcome, also of conditions on
    variables outside the root's scope. Each entry holds its arcs, so their
    identities cannot be reused while it lives.
    """

    def __init__(self) -> None:
        self._by_root: dict[int, OrderedDict] = {}  # root -> key -> (arcs, (ζ, joints))

    def evaluate(self, g: SliceGraph, kb: KnowledgeBase) -> tuple[float, dict[int, float]]:
        key = (tuple(map(id, g.arcs)), tuple(g.states.items()))
        entries = self._by_root.get(g.root)
        if entries is None:
            entries = self._by_root[g.root] = OrderedDict()
        hit = entries.get(key)
        if hit is not None:
            entries.move_to_end(key)
            return hit[1]
        value = _evaluate(g, kb)
        entries[key] = (g.arcs, value)
        if len(entries) > _MEMO_PER_ROOT:
            entries.popitem(last=False)
        return value

    def keep_only(self, roots: Collection[int]) -> None:
        """Forget every root outside ``roots``."""
        self._by_root = {r: e for r, e in self._by_root.items() if r in roots}


def rank_hypotheses(
    slices: Sequence[SliceGraph],
    kb: KnowledgeBase,
    memo: Optional[EvaluationMemo] = None,
) -> list[HypothesisResult]:
    """Score every abnormal root state of every surviving root's slice.

    posterior = xi · joint / zeta, with xi = zeta / Σ zeta over slices of
    positive evidence probability. Hypotheses with zero joint are dropped.
    ζ and the joints come through ``memo`` when one is given.
    """
    if not slices:
        raise EmptyHypothesisSpaceError("no graphs survive the evidence")
    evaluate = _evaluate if memo is None else memo.evaluate
    evaluated: list[tuple[SliceGraph, float, dict[int, float]]] = []
    for g in slices:
        zeta, joints = evaluate(g, kb)
        if zeta > 0.0:
            evaluated.append((g, zeta, joints))
    if not evaluated:
        raise EmptyHypothesisSpaceError(
            "evidence has probability zero on every surviving graph"
        )
    total = sum(z for _, z, _ in evaluated)

    results: list[HypothesisResult] = []
    for g, zeta, joints in evaluated:
        xi = zeta / total
        for state, joint in joints.items():
            if joint > 0.0:
                results.append(
                    HypothesisResult(
                        root=g.root,
                        state=state,
                        joint=joint,
                        zeta=zeta,
                        xi=xi,
                        posterior=xi * joint / zeta,
                    )
                )
    results.sort(key=lambda h: (-h.posterior, h.root, h.state))
    return results


# --- session ---------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosisReport:
    tick: int
    status: str  # diagnosed | ambiguous | unexplained
    hypotheses: tuple[HypothesisResult, ...]
    abnormal: tuple[tuple[int, int], ...]
    normal: tuple[tuple[int, int], ...]
    graphs: Mapping[int, CubicGraph]
    timing_ms: float


class DiagnosisSession:
    """Stateful multi-tick diagnosis over one knowledge base.

    The hypothesis space starts as every fault root and only ever shrinks: a
    root whose graph fails to explain a triggering snapshot is discarded for
    good, along with its slices and memoised evaluations. With ``history``
    each root's cubic graph keeps every slice, which DOT export draws;
    without it only the latest, so memory stays flat however long the
    session runs.
    """

    def __init__(self, kb: KnowledgeBase, *, history: bool = False):
        violations = validate_kb(kb)
        if violations:
            raise InvalidKnowledgeBaseError(violations)
        self.kb = kb
        self._subs: dict[int, SubDUCG] = {s.root: s for s in decompose(kb)}
        self._cubics: dict[int, CubicGraph] = {}
        self._alive: set[int] | None = None  # None until the first diagnosis
        self._history = history
        self._memo = EvaluationMemo()

    @property
    def alive_roots(self) -> tuple[int, ...]:
        if self._alive is None:
            return tuple(sorted(self._subs))
        return tuple(sorted(self._alive))

    def cubic(self, root: int) -> Optional[CubicGraph]:
        return self._cubics.get(root)

    def diagnose_tick(self, ev: EvidenceSnapshot) -> DiagnosisReport:
        """Explain one triggering snapshot; shrink the hypothesis space."""
        started = time.perf_counter()
        survivors: dict[int, CubicGraph] = {}
        for root in self.alive_roots:
            s = simplify(self._subs[root], ev)
            if not s.valid:
                continue
            cubic = merge_cubic(self._cubics.get(root) if self._history else None, s)
            if not check_valid(cubic, ev):
                continue
            survivors[root] = cubic

        try:
            hypotheses = rank_hypotheses(
                [c.latest for c in survivors.values()], self.kb, memo=self._memo
            )
        except EmptyHypothesisSpaceError:
            hypotheses = []
        ranked_roots = {h.root for h in hypotheses}
        self._cubics = {r: survivors[r] for r in sorted(ranked_roots)}
        self._alive = set(ranked_roots)
        self._memo.keep_only(ranked_roots)

        if len(ranked_roots) == 1:
            status = "diagnosed"
        elif ranked_roots:
            status = "ambiguous"
        else:
            status = "unexplained"
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return DiagnosisReport(
            tick=ev.tick,
            status=status,
            hypotheses=tuple(hypotheses),
            abnormal=tuple(ev.abnormal_items()),
            normal=tuple(ev.normal_items()),
            graphs=dict(self._cubics),
            timing_ms=elapsed_ms,
        )


# --- prediction --------------------------------------------------------------------


def predict(g: SliceGraph, kb: KnowledgeBase, hyp: RootLiteral) -> list[tuple[int, int, float]]:
    """Forward-propagate ``hyp`` (assumed certain) through the root's subgraph,
    the KB's arcs within slice ``g``'s scope.

    Returns ``(var, state, probability)`` for every abnormal state of every
    descendant that is not abnormal in ``g``'s evidence, sorted by descending
    probability. Self-arcs are excluded, weight denominators use only the
    subgraph's own arcs, and a default cause is always present, mirroring
    the conventions of diagnosis.
    """
    if hyp.var != g.root:
        raise RootMismatchError(
            f"hypothesis {hyp.var} does not match graph root {g.root}"
        )
    # the subgraph's arcs in ``decompose``'s order: ``kb.arcs`` is sorted by child
    families = _families(
        a for a in kb.arcs
        if a.child != a.parent and a.child in g.scope and a.parent in g.scope
    )

    def chain_probability(var: int, state: int, seen: frozenset[int]) -> float:
        if var == hyp.var:
            return 1.0 if state == hyp.state else 0.0
        if kb.variables[var].kind == "D":
            return 1.0
        total = 0.0
        for arc, share, _ in families.get(var, ()):
            if arc.parent in seen:
                continue
            parent = kb.variables[arc.parent]
            for j in parent.abnormal_state_ids:
                intensity = completed_intensity(arc, state, j)
                if intensity == 0.0:
                    continue
                total += share * intensity * chain_probability(
                    arc.parent, j, seen | {var}
                )
        return total

    rows: list[tuple[int, int, float]] = []
    for var_id in sorted(g.scope):
        var = kb.variables[var_id]
        if var.kind in ROOT_KINDS:
            continue
        if g.states.get(var_id, 0) != 0:
            continue  # already abnormal: nothing to predict
        for state in var.abnormal_state_ids:
            p = chain_probability(var_id, state, frozenset({var_id}))
            if p > 0.0:
                rows.append((var_id, state, p))
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows
