"""Exact event-expression algebra for causal explanations.

An :class:`EventExpression` is a sum of :class:`Product` terms. Each product
is a conjunction of

* root literals — one per involved root cause (its fault state), and
* arc literals — causal mechanisms ``child_state ← parent_state`` that carry
  their weight share ``r_share`` and intensity.

The algebra is a weighted exclusive-OR calculus:

* idempotence — identical literals inside one product collapse;
* exclusivity — two states of one variable annihilate the product, and so do
  two different mechanisms claiming the same child variable (a realized child
  state has exactly one active cause route);
* identical products in a sum collapse.

Products are kept in a canonical sorted order so equal expressions compare
(and serialize) equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import MissingParameterError
from .kb import KnowledgeBase


@dataclass(frozen=True, order=True)
class RootLiteral:
    """A root-cause event: variable ``var`` is in state ``state``."""

    var: int
    state: int


@dataclass(frozen=True, order=True)
class ArcLiteral:
    """A causal mechanism event: ``child`` realized ``child_state`` because
    ``parent`` was in ``parent_state``.

    ``share`` is the arc's weight fraction of the child's causal mass within
    the graph the expression was expanded on; ``intensity`` the (completed)
    matrix entry for the state pair. ``parallel`` is the arc's rank among
    that graph's arcs from ``parent`` to ``child`` (0 unless there are several,
    for instance under different conditions), so parallel arcs with equal
    weight and matrix stay distinct routes instead of collapsing into one.
    """

    child: int
    child_state: int
    parent: int
    parent_state: int
    share: float
    intensity: float
    parallel: int = 0

    @property
    def probability(self) -> float:
        return self.share * self.intensity


@dataclass(frozen=True)
class Product:
    roots: tuple[RootLiteral, ...]
    arcs: tuple[ArcLiteral, ...]

    @staticmethod
    def make(
        roots: Iterable[RootLiteral], arcs: Iterable[ArcLiteral]
    ) -> Optional["Product"]:
        """Build a normalized product, or None if exclusivity annihilates it."""
        root_states: dict[int, int] = {}
        for lit in roots:
            seen = root_states.get(lit.var)
            if seen is not None and seen != lit.state:
                return None
            root_states[lit.var] = lit.state
        by_child: dict[int, ArcLiteral] = {}
        for lit in arcs:
            seen_arc = by_child.get(lit.child)
            if seen_arc is not None and seen_arc != lit:
                return None  # one realized cause route per child variable
            by_child[lit.child] = lit
        return Product(
            roots=tuple(sorted(RootLiteral(v, s) for v, s in root_states.items())),
            arcs=tuple(sorted(by_child.values())),
        )

    def states(self) -> dict[int, int]:
        """Variable → state pinned by this product's root literals."""
        return {lit.var: lit.state for lit in self.roots}

    def value(self, kb: KnowledgeBase) -> float:
        p = 1.0
        for arc in self.arcs:
            p *= arc.probability
        for lit in self.roots:
            p *= root_probability(kb, lit)
        return p

    def sort_key(self) -> tuple:
        return (
            tuple((l.var, l.state) for l in self.roots),
            tuple(
                (l.child, l.child_state, l.parent, l.parent_state, l.share, l.intensity, l.parallel)
                for l in self.arcs
            ),
        )


def root_probability(kb: KnowledgeBase, lit: RootLiteral) -> float:
    """Probability of a root literal: its prior (state 0 takes what the
    abnormal states leave), or 1 for a default cause."""
    var = kb.variables.get(lit.var)
    if var is None:
        raise MissingParameterError(f"expression names unknown variable {lit.var}")
    if var.kind == "D":
        return 1.0  # a default cause is simply present; its rate lives in the arc
    prior = var.prior or {}
    if lit.state == 0:
        return 1.0 - sum(prior.values())
    if lit.state not in prior:
        raise MissingParameterError(
            f"root {lit.var} has no prior for state {lit.state}"
        )
    return prior[lit.state]


@dataclass(frozen=True)
class EventExpression:
    terms: tuple[Product, ...]

    @staticmethod
    def make(products: Iterable[Optional[Product]]) -> "EventExpression":
        alive = [p for p in products if p is not None]
        unique: dict[tuple, Product] = {}
        for p in alive:
            unique.setdefault(p.sort_key(), p)
        return EventExpression(tuple(sorted(unique.values(), key=Product.sort_key)))

    @property
    def is_empty(self) -> bool:
        return not self.terms


def conjoin(expr: EventExpression, hyp: RootLiteral) -> EventExpression:
    """Restrict ``expr`` to the hypothesis event ``hyp``.

    Products pinning ``hyp.var`` to the same state survive unchanged; products
    pinning a different state annihilate; products that never mention the
    variable are dropped too — they carry no evidence about the hypothesis.
    """
    kept = [
        p for p in expr.terms if p.states().get(hyp.var) == hyp.state
    ]
    return EventExpression.make(kept)


def eval_expression(expr: EventExpression, kb: KnowledgeBase) -> float:
    """Numeric probability of an expression (0.0 for the empty expression)."""
    return sum(term.value(kb) for term in expr.terms)
