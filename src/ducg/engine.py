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
  is at most ``_EXPAND_MAX_ROUTES``. That cutoff keeps the summation order the
  recorded fixture outputs hold; it is not a speed rule, since
  ``factored_joints`` is faster on those small slices too;
* ``factored_joints`` runs variable elimination on the slice read as a
  causal network and returns every joint in one pass. It takes the other,
  larger acyclic slices, where the expression would grow exponentially with
  depth; it equals ``expand`` there up to float summation order.

A session keeps two maps over its alive roots: each root to its subgraph
and its *frame* (None before its first ranked tick), and each root to its
latest layer; one memo, keyed on the snapshot's assignments, of its
``_MEMO_SIZE`` most recently used evidence patterns; and one store of the
family tables (``factored_joints``) of its last ranked miss tick. A root's
frame is the half of its slice that no evidence state changes: the
candidate arcs (the subgraph's arcs less self-arcs and arcs whose condition
is false), their child→parents map and the root's reach over them. It
depends on the evidence only through its *key*, the positions among the
subgraph's conditional arcs (self-arcs aside) of those whose condition
evaluates False; a subgraph with no conditional arc has the key ``()``. A
miss tick hands each alive root's frame to ``simplify`` when its key still
holds and builds it afresh otherwise, so after a root's first tick only the
walk to the evidence is redone. Only a miss tick can drop a root, so it
alone rebuilds the first map, from the roots it ranks and the frames it
used. A memo entry holds the ranking's tuples (hypotheses, status and
evidence) and, for each ranked root, the slice ``simplify`` built. Equal
keys are the same evidence, so a stored slice is the one ``simplify`` would
build again, and a chattering channel is sliced and evaluated once per
pattern. When a pattern comes back and every root it ranked is still alive,
the tick is a lookup: nothing is sliced or evaluated, each ranked root
takes a layer holding its stored slice as it is, the report reuses the
stored tuples, so equal rankings are identical objects, and the store is
neither read nor changed. Any other tick is ranked afresh over the alive
roots; its eliminations take each family table this tick or the last ranked
miss tick built, and build the rest. Its ranking replaces the memo entry,
the tables it built or took replace the store, so the store holds two
ticks' tables at most. A tick changes no state until it is ranked.

The values a stream hands out are never changed after they are built: the
snapshot, slice, layer, hypothesis and report types are slotted dataclasses,
not frozen ones (a frozen ``__init__`` pays for every field it sets), so this
is a convention that nothing enforces. It matters because they are shared: an
unchanged tick's snapshot holds the previous one's assignments, and a memo
hit hands out stored slices and tuples again. A kept frame is not handed
out, but later ticks read it, so it too is never changed.

Slices and ranking follow these rules; each convention is written once:

* a slice keeps exactly the arcs lying on a causal path from the root to some
  evidenced variable (conditional arcs whose condition is false are deleted
  first; self-arcs never lie on a simple path); a forecast (``predict``) runs
  over the same candidate arcs, its root's frame;
* one depth-first pass (``_components``) finds a graph's strongly connected
  components, parents first: every cycle, for the choice of evaluator (a
  slice is acyclic when each component is one variable) and the order of
  ``predict``;
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
from math import inf, prod
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
)
from .kb import (
    CausalArc,
    KnowledgeBase,
    ROOT_KINDS,
    SubDUCG,
    completed_intensity,
    decompose,
    reach,
    validate_kb,
)
from .signals import EvidenceSnapshot

# Bounds ``expand``'s worklist. It is reachable: one feedback arc in a deep
# slice exhausts it (ROADMAP item 5), and ``tests/test_expand.py`` lowers it.
_EXPANSION_STEP_LIMIT = 1_000_000


# --- graphs --------------------------------------------------------------------


@dataclass(slots=True)
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class SliceFrame:
    """A root's frame: the half of its slice that no evidence state changes,
    for one ``key`` (the rule is in the module docstring)."""

    conditional: tuple[CausalArc, ...]  # the subgraph's conditional arcs, self-arcs aside
    key: tuple[int, ...]
    arcs: tuple[CausalArc, ...]  # the candidate arcs, in subgraph order
    parents: dict[int, list[int]]  # child -> parents over ``arcs``
    from_root: set[int]  # the root's reach over ``arcs``

    def fits(self, assignments: Mapping[int, int]) -> bool:
        """True iff the frame's key holds under ``assignments``."""
        return not self.conditional or self.key == _false_conditions(
            self.conditional, assignments
        )


def _false_conditions(
    conditional: tuple[CausalArc, ...], assignments: Mapping[int, int]
) -> tuple[int, ...]:
    return tuple([
        i for i, arc in enumerate(conditional) if arc.condition.evaluate(assignments) is False
    ])


def slice_frame(sub: SubDUCG, assignments: Mapping[int, int]) -> SliceFrame:
    """``sub``'s frame under ``assignments``."""
    conditional: list[CausalArc] = []
    key: list[int] = []
    children: dict[int, list[int]] = {}
    parents: dict[int, list[int]] = {}
    dropped = False
    for arc in sub.arcs:
        if arc.child == arc.parent:
            dropped = True
            continue
        if arc.condition is not None:
            conditional.append(arc)
            if arc.condition.evaluate(assignments) is False:
                key.append(len(conditional) - 1)
                dropped = True
                continue
        children.setdefault(arc.parent, []).append(arc.child)
        parents.setdefault(arc.child, []).append(arc.parent)
    arcs = sub.arcs
    if dropped:  # most subgraphs have no self-arc and no false condition
        false = {id(conditional[i]) for i in key}
        arcs = tuple([a for a in arcs if a.child != a.parent and id(a) not in false])
    return SliceFrame(
        tuple(conditional), tuple(key), arcs, parents, reach((sub.root,), children)
    )


def _components(parents: Mapping[int, list[int]]) -> list[list[int]]:
    """The strongly connected components of the child→parents map ``parents``
    (each list non-empty, an arc's parent once per arc), each after every
    component holding a parent of its variables. A component of two or more
    variables is a cycle, so the map is acyclic exactly when every component
    is one variable. A self-arc makes no component larger, so callers drop
    self-arcs first; frames and slices hold none.

    One depth-first pass from children to parents (Tarjan, "Depth-first
    search and linear graph algorithms", SIAM J. Comput. 1972), with its own
    stack of frames so a deep chain meets no recursion limit. Each frame
    records its variable's position on the pass's stack, and a variable's low
    point is the lowest position it reaches; a variable whose low point stays
    its own position closes a component, the variables above it on the stack.
    """
    low: dict[int, float] = {}  # variable -> its low point; inf once placed
    stack: list[int] = []
    components: list[list[int]] = []
    for start in parents:
        if start in low:
            continue
        low[start] = 0  # the stack is empty between starts
        stack.append(start)
        frames = [(start, 0, iter(parents[start]))]  # (variable, position, parents left)
        while frames:
            v, at, ps = frames[-1]
            for p in ps:
                low_p = low.get(p)
                if low_p is None:
                    low[p] = len(stack)
                    frames.append((p, len(stack), iter(parents.get(p, ()))))
                    stack.append(p)
                    break
                if low_p < low[v]:
                    low[v] = low_p
            else:
                frames.pop()
                low_v = low[v]
                if low_v == at:
                    component = stack[at:]
                    del stack[at:]
                    for u in component:
                        low[u] = inf
                    components.append(component)
                elif low_v < low[frames[-1][0]]:
                    low[frames[-1][0]] = low_v
    return components


def _unexplained(ev: EvidenceSnapshot, reached: Collection[int]) -> tuple[int, ...]:
    """The slice-validity rule: the abnormal observations of ``ev`` not
    ``reached`` from the root, in id order. Every variable reached lies in
    the root's subgraph, so one outside it is unexplained too."""
    return tuple(sorted([v for v in ev.abnormal_set if v not in reached]))


def simplify(
    sub: SubDUCG, ev: EvidenceSnapshot, *, frame: Optional[SliceFrame] = None
) -> SliceGraph:
    """Build the root's slice for ``ev``: keep only causally relevant arcs.

    An arc survives when the root reaches its parent and its child reaches
    some evidenced variable, i.e. the arc lies on a root→evidence causal
    path. The slice is marked invalid when some abnormal observation is
    outside the subgraph or unreachable from the root (over the candidates:
    every arc of a root path to an observation in scope is retained).

    ``frame``, when given, is ``sub``'s frame and must fit ``ev`` (see
    ``SliceFrame.fits``); without it the frame is built from ``ev``.
    """
    if not ev.abnormal_set:
        raise NoAbnormalEvidenceError(
            f"tick {ev.tick}: evidence contains no abnormal assignment"
        )
    if frame is None:
        frame = slice_frame(sub, ev.assignments)
    evidenced = {
        v: s for v, s in ev.assignments.items() if v in sub.variables
    }
    to_evidence = reach(evidenced, frame.parents)
    from_root = frame.from_root
    # Besides the root and the evidence, the slice holds every variable on a
    # root→evidence path, which is each variable both walks reach.
    return SliceGraph(
        root=sub.root,
        variables=frozenset(from_root & to_evidence | evidenced.keys() | {sub.root}),
        arcs=tuple([
            a for a in frame.arcs if a.parent in from_root and a.child in to_evidence
        ]),
        states=dict(sorted(evidenced.items())),
        unexplained=_unexplained(ev, from_root),
    )


# Kept for ``perfbench/trace.py``, which hooks this and reads ``slices`` (ROADMAP item 2).
def merge_cubic(new_slice: SliceGraph, tick: int) -> CubicGraph:
    """The layer of ``tick`` holding ``new_slice``."""
    return CubicGraph(root=new_slice.root, tick=tick, latest=new_slice)


def check_valid(g: SliceGraph, ev: EvidenceSnapshot) -> bool:
    """True iff slice ``g`` explains every abnormal observation of ``ev``."""
    children: dict[int, list[int]] = {}
    for arc in g.arcs:
        children.setdefault(arc.parent, []).append(arc.child)
    return not _unexplained(ev, reach((g.root,), children))


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


def expand(g: SliceGraph, kb: KnowledgeBase) -> EventExpression:
    """Rewrite the evidence states of slice ``g`` into root-cause terms.

    Every evidence literal is recursively replaced by its weighted cause
    routes ``share · intensity · parent-state`` until only root literals and
    arc literals remain. Parent state 0 enters through the identity
    convention; routes that would revisit a variable already on the literal's
    own causal chain are not simple chains and are skipped. Evidenced normal
    variables with no retained cause contribute probability 1 and vanish;
    abnormal literals with no cause route annihilate their term.

    A partial term is three maps: ``pinned``, the state of every variable it
    committed to, roots included (a second state of one annihilates it);
    ``arcs``, each expanded child's cause route; and ``pending``, each
    variable still to be rewritten with the variables of its causal chain,
    its state in ``pinned``. A branch builds only the maps it changes and
    shares the others, so no map is changed once built.
    """
    families = _families(g.arcs)
    is_root = {v: kb.variables[v].kind in ROOT_KINDS for v in g.variables}
    pending = {v: frozenset({v}) for v in g.states if not is_root[v]}

    finished: list[Optional[Product]] = []
    worklist = [(g.states, {}, pending)]
    steps = 0
    while worklist:
        steps += 1
        if steps > _EXPANSION_STEP_LIMIT:
            raise CycleLimitError("expansion step limit exceeded")
        pinned, arcs, pending = worklist.pop()
        if not pending:
            finished.append(
                Product.make(
                    (RootLiteral(v, s) for v, s in pinned.items() if is_root[v]),
                    arcs.values(),
                )
            )
            continue
        var = min(pending)
        state, chain = pinned[var], pending[var]
        rest = {v: c for v, c in pending.items() if v != var}

        caused = False
        for arc, share, parallel in families.get(var, ()):
            parent = arc.parent
            if parent in chain:
                continue  # not a simple causal chain
            parent_var = kb.variables[parent]
            for j in parent_var.state_ids:
                if parent_var.kind == "D" and j == 0:
                    continue  # a default cause is always present
                intensity = completed_intensity(arc, state, j)
                if intensity == 0.0:
                    continue
                caused = True
                seen = pinned.get(parent)
                if seen is not None and seen != j:
                    continue  # exclusivity: two states of one variable
                if is_root[parent] or (seen is not None and parent not in rest):
                    queued = rest  # a root, or expanded already in this term
                else:  # newly pending, or pending already: the chains join
                    queued = {**rest, parent: rest.get(parent, frozenset()) | chain | {parent}}
                lit = ArcLiteral(var, state, parent, j, share, intensity, parallel)
                worklist.append((
                    pinned if seen is not None else {**pinned, parent: j},
                    {**arcs, var: lit},
                    queued,
                ))

        if not caused and state == 0:
            worklist.append((pinned, arcs, rest))  # uncaused normal observation: probability 1
        # an uncaused abnormal observation annihilates the term

    return EventExpression.make(finished)


# --- factored evaluation -----------------------------------------------------------

# Slices whose route bound is at most this stay on ``expand``, so they keep the
# summation order the recorded fixture outputs hold (the largest fixture slice
# has a route bound of 54). Elimination would be faster on them too.
_EXPAND_MAX_ROUTES = 64


def _takes_factored_path(g: SliceGraph, kb: KnowledgeBase) -> bool:
    """True for an acyclic slice whose route bound exceeds the cutoff.

    The route bound, Π over children of Σ over in-arcs of the parent's state
    count, caps the number of products ``expand`` can build. Cyclic slices
    always take ``expand``: its record of each literal's causal chain defines
    their meaning.
    """
    routes: dict[int, int] = {}
    parents: dict[int, list[int]] = {}
    for arc in g.arcs:
        routes[arc.child] = routes.get(arc.child, 0) + len(kb.variables[arc.parent].states)
        parents.setdefault(arc.child, []).append(arc.parent)
    return prod(routes.values()) > _EXPAND_MAX_ROUTES and all(len(c) == 1 for c in _components(parents))


def _positions(
    scope: tuple[int, ...], full: tuple[int, ...]
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A function mapping an assignment over ``full`` to its ``scope`` key."""
    where = [full.index(v) for v in scope]
    if len(where) == 1:
        i = where[0]
        return lambda assignment: (assignment[i],)
    return itemgetter(*where) if where else lambda assignment: ()


# A family's key: the child's retained in-arcs in slice order, by identity,
# and the clamp (evidence state or None) of each family member in family order.
FamilyKey = tuple[tuple[int, ...], tuple[Optional[int], ...]]
Factor = tuple[tuple[int, ...], dict[tuple[int, ...], float]]  # (scope, table)
# (this tick's families, the last ranked tick's families); the second is only read
FamilyTables = tuple[dict[FamilyKey, Factor], Mapping[FamilyKey, Factor]]


def factored_joints(
    g: SliceGraph,
    kb: KnowledgeBase,
    *,
    tables: Optional[FamilyTables] = None,
) -> dict[int, float]:
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

    ``tables``, when given, is a pair of maps from a family's key to its
    (scope, table): the first for this tick, the second for the last ranked
    tick. The key is the child's retained in-arcs in slice order, by
    identity (so the arcs must outlive the maps, as a session's KB holds
    them), and each family member's clamp. It fixes the shares, domains,
    scope and every cell, so a stored pair is the one the build would give.
    A family found in either map is taken as it is, one found in neither is
    built, and either way it goes into the first map. The second map is only
    read, and no table is written once built. Without ``tables`` both maps
    start empty, so every family is built.
    """
    variables = kb.variables
    clamps = g.states
    domains = {
        v: (clamps[v],) if v in clamps else variables[v].state_ids
        for v in sorted(g.variables)
    }
    width = {v: len(domain) for v, domain in domains.items()}
    families = _families(g.arcs)
    built, last = ({}, {}) if tables is None else tables

    # Live factors by creation id, each (scope, table).
    factors: dict[int, Factor] = {}
    for v, domain in domains.items():
        is_root = variables[v].kind in ROOT_KINDS
        arcs = () if is_root else families.get(v, ())
        if arcs:
            family = (v, *sorted({arc.parent for arc, _, _ in arcs}))
            memo_key = (
                tuple([id(arc) for arc, _, _ in arcs]),
                tuple([clamps.get(u) for u in family]),
            )
            factor = built.get(memo_key) or last.get(memo_key)
            if factor is not None:
                factors[len(factors)] = built[memo_key] = factor
                continue
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
        factor = factors[len(factors)] = (scope, table)
        if arcs:
            built[memo_key] = factor

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


@dataclass(slots=True)
class HypothesisResult:
    root: int
    state: int
    joint: float  # Pr{hypothesis ∧ evidence} on the root's graph
    zeta: float  # Pr{evidence} on the root's graph
    xi: float  # the graph's share of the surviving probability mass
    posterior: float


def evaluate(
    g: SliceGraph, kb: KnowledgeBase, *, tables: Optional[FamilyTables] = None
) -> tuple[float, dict[int, float]]:
    """ζ of slice ``g`` and the joint of each abnormal root state (no joints
    when ζ is 0). ``tables`` goes to ``factored_joints`` if that evaluator
    takes the slice."""
    root = g.root
    abnormal = kb.variables[root].abnormal_state_ids
    if _takes_factored_path(g, kb):
        f = factored_joints(g, kb, tables=tables)
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


@dataclass(slots=True)
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


class DiagnosisSession:
    """Stateful multi-tick diagnosis over one knowledge base.

    The hypothesis space starts as every fault root and only ever shrinks: a
    root whose graph fails to explain a triggering snapshot is discarded for
    good. A session holds two maps over the alive roots: each root to its
    subgraph and its frame, and each root to its latest layer
    (``cubic(root)``, the only one held); the memo holds at most
    ``_MEMO_SIZE`` evidence patterns, and the store the family tables of one
    tick, so memory stays flat however long the session runs. When a kept
    frame serves a tick is the frame key rule of the module docstring.
    """

    def __init__(self, kb: KnowledgeBase):
        violations = validate_kb(kb)
        if violations:
            raise InvalidKnowledgeBaseError(violations)
        self.kb = kb
        # the hypothesis space, in root id order (``decompose`` follows
        # ``kb.variables``): each alive root -> (its subgraph, its frame on the
        # last ranked miss tick, None before one)
        self._roots: dict[int, tuple[SubDUCG, Optional[SliceFrame]]] = {
            s.root: (s, None) for s in decompose(kb)
        }
        # each alive root's latest layer, once a tick is ranked
        self._layers: dict[int, CubicGraph] = {}
        # evidence key -> ({ranked root: slice}, hypotheses, status, abnormal,
        # normal), least recently used first
        self._memo: OrderedDict = OrderedDict()
        # the family tables the last ranked miss tick built or reused
        self._tables: dict[FamilyKey, Factor] = {}

    @property
    def alive_roots(self) -> tuple[int, ...]:
        return tuple(self._roots)

    def cubic(self, root: int) -> Optional[CubicGraph]:
        return self._layers.get(root)

    def diagnose_tick(self, ev: EvidenceSnapshot) -> DiagnosisReport:
        """Explain one triggering snapshot; shrink the hypothesis space."""
        started = time.perf_counter()
        # ``simplify`` raises on evidence without an abnormal state, so such a
        # key is stored only once no root is alive and a hit hides no error.
        key = frozenset(ev.assignments.items())
        entry = self._memo.get(key)
        # The alive roots are among those a stored entry ranked, as the
        # hypothesis space only shrinks, and a root it left out added nothing
        # to ξ (its slice is invalid or ζ = 0: a normal root leaves every
        # observation normal, so ζ > 0 gives an abnormal joint > 0). If none
        # has left, the entry is this tick's ranking; else it is ranked afresh.
        if entry is not None and len(entry[0]) == len(self._roots):
            self._memo.move_to_end(key)  # most recently used last
        else:
            slices, kept, evaluated = {}, {}, []  # no state changes until ranked
            tables = ({}, self._tables)
            for root, (sub, frame) in self._roots.items():
                if frame is None or not frame.fits(ev.assignments):
                    frame = slice_frame(sub, ev.assignments)
                s = simplify(sub, ev, frame=frame)
                if s.valid and check_valid(s, ev):
                    slices[root] = s
                    kept[root] = (sub, frame)
                    evaluated.append((root, *evaluate(s, self.kb, tables=tables)))
            hypotheses = tuple(rank_hypotheses(evaluated))
            ranked_roots = {h.root for h in hypotheses}
            if len(ranked_roots) == 1:
                status = "diagnosed"
            elif ranked_roots:
                status = "ambiguous"
            else:
                status = "unexplained"
            entry = (
                {root: s for root, s in slices.items() if root in ranked_roots},
                hypotheses,
                status,
                tuple(ev.abnormal_items()),
                tuple(ev.normal_items()),
            )
            self._memo[key] = entry
            self._memo.move_to_end(key)  # assignment leaves a stale key in its place
            if len(self._memo) > _MEMO_SIZE:
                self._memo.popitem(last=False)
            self._tables = tables[0]
            # a hit ranked exactly the alive roots, so only a miss drops one
            self._roots = {root: kept[root] for root in entry[0]}
        ranked, hypotheses, status, abnormal, normal = entry
        self._layers = {root: merge_cubic(s, ev.tick) for root, s in ranked.items()}
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return DiagnosisReport(ev.tick, status, hypotheses, abnormal, normal, elapsed_ms)


# --- prediction --------------------------------------------------------------------


def predict(
    sub: SubDUCG, states: Mapping[int, int], kb: KnowledgeBase, fault_state: int
) -> list[tuple[int, int, float]]:
    """Forward-propagate the fault ``sub.root`` in state ``fault_state``
    (assumed certain) through the root's subgraph ``sub``, given the evidence
    ``states`` (a snapshot's assignments, or nothing before the first
    trigger).

    Returns ``(var, state, probability)`` for every abnormal state of every
    variable of ``sub``, its B and D variables aside, that is not abnormal
    in ``states``, sorted by descending probability. The forecast runs over
    the arcs of ``slice_frame(sub, states)``, the ones diagnosis slices
    from: self-arcs and arcs whose condition ``states`` makes False are
    left out. A condition may name a variable outside ``sub``, so pass the
    whole snapshot's assignments, not a slice's ``states``. Weight
    denominators use only those arcs, and a default cause is always
    present, mirroring the conventions of diagnosis.

    Chain values are computed one strongly connected component at a time,
    parents first (``_components``), so a cycle's chains nest only within
    its own component and the cost is linear outside cycles, whatever the
    ids. On a cycle whose chains nest past the interpreter's recursion
    limit, raises :class:`CycleLimitError`.
    """
    frame = slice_frame(sub, states)
    families = _families(frame.arcs)
    components = _components(frame.parents)
    # A chain's value reads ``seen`` only on the variable's ancestors, and
    # ``seen`` holds descendants of the variable alone, so the part of ``seen``
    # in the variable's own component keys the memo. Off a cycle that part is
    # empty (the frame has no self-arc), so each value is computed once.
    # Components are computed parents first, so a chain nests only through
    # its own component and one of its parents' components. ``cycle`` maps
    # each variable on a cycle to its component, one set its variables share.
    cycle = {v: c for c in map(frozenset, components) if len(c) > 1 for v in c}
    memo: dict[tuple[int, int, frozenset[int]], float] = {}

    def chain_probability(var: int, state: int, seen: frozenset[int]) -> float:
        if var == sub.root:
            return 1.0 if state == fault_state else 0.0
        if kb.variables[var].kind == "D":
            return 1.0
        key = (var, state, seen.intersection(cycle.get(var, ())))
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
    try:
        for c in components:
            for var_id in c:
                for state in kb.variables[var_id].abnormal_state_ids:
                    chain_probability(var_id, state, frozenset({var_id}))
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
    except RecursionError:  # only a cycle's chains recurse
        raise CycleLimitError(
            f"root {sub.root}: a causal cycle's chains nest too deep to forecast"
        ) from None
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows
