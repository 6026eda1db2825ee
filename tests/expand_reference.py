"""A frozen copy of the first symbolic expansion, for tests only.

``expand`` below is the engine's expansion as it was before a partial term
became three shared maps, with its ``_Term`` and ``_absorb`` copied verbatim;
only its step limit became an argument. The engine's version keeps cheaper
bookkeeping but must build the same products, so its expressions must equal
these with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ducg import (
    ArcLiteral,
    CycleLimitError,
    EventExpression,
    KnowledgeBase,
    Product,
    RootLiteral,
    completed_intensity,
)
from ducg.engine import SliceGraph, _families
from ducg.kb import ROOT_KINDS


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


def expand(g: SliceGraph, kb: KnowledgeBase, step_limit: int = 1_000_000) -> EventExpression:
    """Rewrite the evidence states of slice ``g`` into root-cause terms,
    raising ``CycleLimitError`` on the pop after the ``step_limit``-th."""
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
        if steps > step_limit:
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
