"""Per-tick causal inference over time-layered fault graphs.

A root's *cubic* graph is a sequence of time layers, each a tick and the
root's simplified slice for it, built by ``merge_cubic``. A session holds
only each alive root's latest layer, so its memory stays flat however long
it runs; earlier layers are output, and a caller that draws them (the CLI's
``--dot-dir``) keeps the ones it draws. A slice holds only what
its evidence selects (no tick), so it is a function of the subgraph and the
evidence; validity, the evaluators and ranking read one ``SliceGraph``,
never the cubic graph. Each triggering snapshot is explained on the latest
slice of every surviving root by one of two evaluators, which give its
evidence probability ζ and the joint of each fault state; the states are
then ranked:

* ``expand`` rewrites the evidence into an exact event expression, which is
  evaluated once for ζ and once per fault state. It takes every cyclic slice,
  since its record of each literal's causal chain is what defines a cycle's
  meaning, and every slice whose route bound (the most products it can build)
  is at most ``_EXPAND_MAX_ROUTES``: there it is the cheaper of the two, and
  its summation order is the one the recorded fixture outputs hold;
* ``factored_joints`` runs variable elimination on the slice read as a
  causal network and returns every joint in one pass. It takes the other,
  larger acyclic slices, where the expression would grow exponentially with
  depth; it equals ``expand`` there up to float summation order.

A session keeps one record per alive root (its subgraph and latest layer)
and one memo, keyed on the snapshot's assignments, of its ``_MEMO_SIZE``
most recently used evidence patterns. An entry holds the ranking's tuples
(hypotheses, status and evidence) and, for each ranked root, the slice
``simplify`` built, its ζ and its joints. Equal keys are the same evidence,
so a stored slice is the one ``simplify`` would build again, and a
chattering channel is sliced and evaluated once per pattern. When a pattern
comes back and every root it ranked is still alive, the tick is a lookup;
when some have left since, the rest are ranked again from their stored ζ
and joints. Either way nothing is sliced or evaluated, and each ranked root
takes a layer holding its stored slice as it is. A lookup's report reuses
the stored tuples, so equal rankings are identical objects. A tick changes
no record until it is ranked.

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
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Optional

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
    """One root's simplified causal graph for one snapshot's evidence."""

    root: int
    variables: frozenset[int]
    arcs: tuple[CausalArc, ...]
    states: Mapping[int, int]  # evidence restricted to retained variables
    unexplained: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return not self.unexplained


@dataclass(frozen=True)
class CubicGraph:
    """One time layer of a root's cubic graph: a tick and the root's slice
    for it."""

    root: int
    tick: int
    latest: SliceGraph

    @property
    def slices(self) -> tuple[SliceGraph, ...]:
        """The layer's slice, as a one-slice sequence."""
        return (self.latest,)


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


def _unexplained(ev: EvidenceSnapshot, reached: Collection[int]) -> tuple[int, ...]:
    """The slice-validity rule: the abnormal observations of ``ev`` not
    ``reached`` from the root, in id order. Every variable reached lies in
    the root's subgraph, so one outside it is unexplained too."""
    return tuple(sorted(v for v in ev.abnormal_set if v not in reached))


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

    return SliceGraph(
        root=sub.root,
        variables=frozenset(variables),
        arcs=retained,
        states=dict(sorted(evidenced.items())),
        unexplained=_unexplained(ev, from_root),
    )


# Kept for ``perfbench/trace.py``, which hooks this and reads ``slices`` (ROADMAP item 2).
def merge_cubic(new_slice: SliceGraph, tick: int) -> CubicGraph:
    """The layer of ``tick`` holding ``new_slice``."""
    return CubicGraph(root=new_slice.root, tick=tick, latest=new_slice)


def check_valid(g: SliceGraph, ev: EvidenceSnapshot) -> bool:
    """True iff slice ``g`` explains every abnormal observation of ``ev``."""
    return not _unexplained(ev, _downstream(g.root, g.arcs))


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
    be rewritten into cause routes, each with the variables of its causal
    chain; ``pinned`` remembers every state this term has committed to (for
    exclusivity and expand-once idempotence)."""

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
    term: _Term, kb: KnowledgeBase, var: int, state: int, chain: frozenset[int]
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
        term.pending[var] = (state, chain)
        term.pinned[var] = state
    elif var in term.pending:
        old_state, old_chain = term.pending[var]
        term.pending[var] = (old_state, old_chain | chain)
    # else: already expanded in this term — idempotent, nothing to add
    return True


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
        state, chain = term.pending.pop(var)

        routes: list[tuple[ArcLiteral, int, int]] = []
        for arc, share, parallel in families.get(var, ()):
            if arc.parent in chain:
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
            branch.arcs[var] = lit  # a term expands each variable once
            if not _absorb(branch, kb, parent, j, chain | {parent}):
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
    always take ``expand``: its record of each literal's causal chain defines
    their meaning.
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


def evaluate(g: SliceGraph, kb: KnowledgeBase) -> tuple[float, dict[int, float]]:
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


def rank_hypotheses(
    evaluated: Iterable[tuple[int, float, Mapping[int, float]]],
) -> list[HypothesisResult]:
    """Rank every abnormal root state from ``(root, ζ, joints)`` triples.

    posterior = xi · joint / zeta, with xi = zeta / Σ zeta over roots of
    positive evidence probability. Hypotheses with zero joint are dropped,
    so no root, or none of positive ζ, gives an empty list.
    """
    explaining = [(root, zeta, joints) for root, zeta, joints in evaluated if zeta > 0.0]
    total = sum(zeta for _, zeta, _ in explaining)

    results: list[HypothesisResult] = []
    for root, zeta, joints in explaining:
        xi = zeta / total
        for state, joint in joints.items():
            if joint > 0.0:
                results.append(
                    HypothesisResult(
                        root=root,
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
    timing_ms: float


# Evidence patterns a session keeps, a bound however long it runs. The value is
# chosen, not tuned: long-stream cycles through 2 evidence patterns, and any
# cap of 2 or more gives it the same hit share.
_MEMO_SIZE = 16


@dataclass
class _Root:
    """One alive root: its subgraph and its latest layer (None until the root
    explains a tick)."""

    sub: SubDUCG
    cubic: Optional[CubicGraph] = None


class DiagnosisSession:
    """Stateful multi-tick diagnosis over one knowledge base.

    The hypothesis space starts as every fault root and only ever shrinks: a
    root whose graph fails to explain a triggering snapshot is discarded for
    good. ``cubic(root)`` is the root's latest layer, the only one held,
    and the memo holds at most ``_MEMO_SIZE`` evidence patterns, so memory
    stays flat however long the session runs.
    """

    def __init__(self, kb: KnowledgeBase):
        violations = validate_kb(kb)
        if violations:
            raise InvalidKnowledgeBaseError(violations)
        self.kb = kb
        # the hypothesis space, in root id order: ``decompose`` follows ``kb.variables``
        self._roots: dict[int, _Root] = {s.root: _Root(s) for s in decompose(kb)}
        # evidence key -> ({ranked root: (slice, ζ, joints)}, hypotheses, status,
        # abnormal, normal), least recently used first
        self._memo: OrderedDict = OrderedDict()

    @property
    def alive_roots(self) -> tuple[int, ...]:
        return tuple(self._roots)

    def cubic(self, root: int) -> Optional[CubicGraph]:
        record = self._roots.get(root)
        return record.cubic if record is not None else None

    def diagnose_tick(self, ev: EvidenceSnapshot) -> DiagnosisReport:
        """Explain one triggering snapshot; shrink the hypothesis space."""
        started = time.perf_counter()
        # ``simplify`` raises on evidence without an abnormal state, so such a
        # key is stored only once no root is alive and a hit hides no error.
        key = frozenset(ev.assignments.items())
        entry = self._memo.get(key)
        # On a hit the alive roots are among those the entry ranked, as the
        # hypothesis space only shrinks, and a root it left out added nothing
        # to ξ (its slice is invalid or ζ = 0: a normal root leaves every
        # observation normal, so ζ > 0 gives an abnormal joint > 0). If none
        # has left since, the entry is this tick's ranking as it is.
        if entry is None or len(entry[0]) != len(self._roots):
            if entry is None:
                evaluated = {}  # no record changes until ranked
                for root, record in self._roots.items():
                    s = simplify(record.sub, ev)
                    if s.valid and check_valid(s, ev):
                        evaluated[root] = (s, *evaluate(s, self.kb))
            else:  # some have left: rank the rest from their stored triples
                evaluated = {root: entry[0][root] for root in self._roots}
            hypotheses = tuple(rank_hypotheses([(root, *t[1:]) for root, t in evaluated.items()]))
            ranked_roots = {h.root for h in hypotheses}
            if len(ranked_roots) == 1:
                status = "diagnosed"
            elif ranked_roots:
                status = "ambiguous"
            else:
                status = "unexplained"
            entry = (
                {root: t for root, t in evaluated.items() if root in ranked_roots},
                hypotheses,
                status,
                tuple(ev.abnormal_items()),
                tuple(ev.normal_items()),
            )
        self._memo.pop(key, None)  # most recently used last
        self._memo[key] = entry
        if len(self._memo) > _MEMO_SIZE:
            self._memo.popitem(last=False)
        ranked, hypotheses, status, abnormal, normal = entry
        self._roots = {root: self._roots[root] for root in ranked}
        for root, record in self._roots.items():
            record.cubic = merge_cubic(ranked[root][0], ev.tick)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return DiagnosisReport(ev.tick, status, hypotheses, abnormal, normal, elapsed_ms)


# --- prediction --------------------------------------------------------------------


def predict(
    sub: SubDUCG, states: Mapping[int, int], kb: KnowledgeBase, hyp: RootLiteral
) -> list[tuple[int, int, float]]:
    """Forward-propagate ``hyp`` (assumed certain) through the root's subgraph
    ``sub``, given the evidence ``states`` observed on it (a slice's
    ``states``, or nothing before the first trigger).

    Returns ``(var, state, probability)`` for every abnormal state of every
    variable of ``sub``, its B and D variables aside, that is not abnormal
    in ``states``, sorted by descending probability. Self-arcs are excluded, weight
    denominators use only the subgraph's own arcs, and a default cause is
    always present, mirroring the conventions of diagnosis.
    """
    if hyp.var != sub.root:
        raise RootMismatchError(
            f"hypothesis {hyp.var} does not match graph root {sub.root}"
        )
    arcs = [a for a in sub.arcs if a.child != a.parent]
    families = _families(arcs)
    # a chain's value reads ``seen`` only on the variable's ancestors, so that
    # part of it keys the memo; on a DAG it is empty and each call runs once
    ancestors = {
        v: frozenset(_upstream_of([arc.parent for arc, _, _ in family], arcs))
        for v, family in families.items()
    }
    memo: dict[tuple[int, int, frozenset[int]], float] = {}

    def chain_probability(var: int, state: int, seen: frozenset[int]) -> float:
        if var == hyp.var:
            return 1.0 if state == hyp.state else 0.0
        if kb.variables[var].kind == "D":
            return 1.0
        key = (var, state, seen.intersection(ancestors.get(var, ())))
        if key in memo:
            return memo[key]
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
        memo[key] = total
        return total

    rows: list[tuple[int, int, float]] = []
    for var_id in sorted(sub.variables):
        var = kb.variables[var_id]
        if var.kind in ROOT_KINDS:
            continue
        if states.get(var_id, 0) != 0:
            continue  # already abnormal: nothing to predict
        for state in var.abnormal_state_ids:
            p = chain_probability(var_id, state, frozenset({var_id}))
            if p > 0.0:
                rows.append((var_id, state, p))
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows
