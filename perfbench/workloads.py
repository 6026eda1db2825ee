"""Seeded inputs for the benchmark: layered knowledge bases and CSV feeds.

Everything here is plain JSON/CSV text built from ``random.Random``; nothing
imports the ``ducg`` package, so the inputs stay the same whatever the
program under test looks like.

Layered KB family, written (roots, layers x width, fan-in): ``roots`` B
variables; ``layers`` layers of ``width`` binary observables; every
observable has ``fan_in`` parents in the layer just above it (layer 0 is
the roots), and every member of that layer gets a child where it can.
Every observable is gauged: state 0 is ``(-1, 1]``, state 1 is ``(1, 10]``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

NORMAL_RANGE = (-0.9, 0.9)
ABNORMAL_RANGE = (1.5, 9.5)


@dataclass(frozen=True)
class LayeredShape:
    roots: int
    layers: int
    width: int
    fan_in: int

    @property
    def label(self) -> str:
        return f"({self.roots},{self.layers}x{self.width},{self.fan_in})"


@dataclass
class LayeredKB:
    roots: list[int]
    layers: list[list[int]]  # observable ids per layer, top layer first
    parents: dict[int, list[int]]  # child -> parent ids
    arcs: list[dict]  # arc documents, in the KB's JSON form
    doc: dict

    @property
    def observables(self) -> list[int]:
        return [v for layer in self.layers for v in layer]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for child, parents in self.parents.items():
            for p in parents:
                out.setdefault(p, []).append(child)
        return out

    def descendants(self, root: int) -> set[int]:
        children = self.children()
        seen = {root}
        frontier = [root]
        while frontier:
            for c in children.get(frontier.pop(), ()):
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return seen


def _states(n_abnormal: int) -> list[dict]:
    return [{"id": 0, "name": "normal", "severity": "normal"}] + [
        {"id": k, "name": f"fault {k}", "severity": "abnormal"}
        for k in range(1, n_abnormal + 1)
    ]


def _pick_parents(rng: random.Random, pool: list[int], count: int, fan_in: int) -> list[list[int]]:
    """``count`` parent lists of ``fan_in`` ids from ``pool``, handed out so
    that every member of the pool gets a child where the count allows it."""
    fan_in = min(fan_in, len(pool))
    cover = pool[:]
    rng.shuffle(cover)
    out = []
    for i in range(count):
        chosen = cover[i * fan_in:(i + 1) * fan_in]
        rest = [p for p in pool if p not in chosen]
        chosen = chosen + rng.sample(rest, fan_in - len(chosen))
        out.append(sorted(chosen))
    return out


def layered_kb(shape: LayeredShape, seed: int, *, modular: bool) -> LayeredKB:
    """A seeded layered KB; ``modular`` writes it as per-root ``subducgs``."""
    rng = random.Random(seed)
    variables = []
    root_states: dict[int, int] = {}
    roots = list(range(1, shape.roots + 1))
    for r in roots:
        n_abnormal = rng.choice([1, 2])
        root_states[r] = n_abnormal
        raw = [rng.uniform(0.2, 1.0) for _ in range(n_abnormal)]
        total = rng.uniform(0.02, 0.2)
        prior = {str(k + 1): round(raw[k] * total / sum(raw), 6) for k in range(n_abnormal)}
        variables.append(
            {"id": r, "kind": "B", "label": f"fault source {r}",
             "states": _states(n_abnormal), "prior": prior}
        )
    layers: list[list[int]] = []
    next_id = shape.roots + 1
    for _ in range(shape.layers):
        layer = list(range(next_id, next_id + shape.width))
        next_id += shape.width
        layers.append(layer)
        for x in layer:
            variables.append(
                {"id": x, "kind": "X", "label": f"process deviation {x}",
                 "states": _states(1), "measure_point": f"MP{x:04d}",
                 "intervals": {"0": [-1.0, 1.0], "1": [1.0, 10.0]}}
            )

    parents: dict[int, list[int]] = {}
    arcs: list[dict] = []
    above = roots
    for layer in layers:
        for x, ps in zip(layer, _pick_parents(rng, above, len(layer), shape.fan_in)):
            parents[x] = ps
            for p in ps:
                n_parent = root_states.get(p, 1)
                column = {str(j): round(rng.uniform(0.2, 0.9), 4) for j in range(1, n_parent + 1)}
                arcs.append(
                    {"child": x, "parent": p,
                     "weight": rng.choice([0.5, 1.0, 1.0, 2.0]),
                     "matrix": {"1": column}}
                )
        above = layer

    kb = LayeredKB(roots, layers, parents, arcs, doc={})
    doc: dict = {"version": 1, "variables": variables}
    if modular:
        subducgs = []
        for r in roots:
            closure = kb.descendants(r)
            subducgs.append(
                {"root": r, "variables": sorted(closure),
                 "arcs": [a for a in arcs if a["child"] in closure and a["parent"] in closure]}
            )
        doc["subducgs"] = subducgs
    else:
        doc["arcs"] = arcs
    kb.doc = doc
    return kb


def kb_text(kb: LayeredKB) -> str:
    return json.dumps(kb.doc, separators=(",", ":"))


# --- incidents ------------------------------------------------------------------------


@dataclass
class Incident:
    """One fault episode: a feed whose abnormal readings come from ``root``."""

    root: int
    state: int
    ticks: list[dict[int, int]]  # per input tick: observable -> state read


def sample_incident(
    kb: LayeredKB,
    rng: random.Random,
    *,
    min_abnormal: int = 1,
    max_abnormal: int,
    max_normal: int,
    per_tick: tuple[int, int] = (1, 2),
    deep: bool = False,
) -> Incident:
    """Forward-sample one root's effects and reveal them tick by tick.

    The true root's state follows its prior; every observable is abnormal
    with probability ``sum(w / r * intensity)`` over its in-arcs, so only
    descendants of the root can turn abnormal. Samples with fewer than
    ``min_abnormal`` symptoms are drawn again; with ``deep``, so are samples
    whose symptoms miss the last layer. Up to ``max_abnormal`` of them are
    revealed, upstream layers first (last layer first with ``deep``), beside
    up to ``max_normal`` normal readings of the root's other descendants
    (last-layer ones with ``deep``). Each triggering tick is
    followed by a tick that repeats its readings and triggers nothing.
    """
    by_id = {v["id"]: v for v in kb.doc["variables"]}
    arcs_in: dict[int, list[dict]] = {}
    for arc in kb.arcs:
        arcs_in.setdefault(arc["child"], []).append(arc)
    while True:
        root = rng.choice(kb.roots)
        prior = by_id[root]["prior"]
        states = [int(k) for k in prior]
        state = rng.choices(states, weights=[prior[str(s)] for s in states])[0]
        value = {r: 0 for r in kb.roots}
        value[root] = state
        for layer in kb.layers:
            for x in layer:
                arcs = arcs_in[x]
                r = sum(a["weight"] for a in arcs)
                p = sum(
                    a["weight"] / r * a["matrix"]["1"].get(str(value[a["parent"]]), 0.0)
                    for a in arcs
                )
                value[x] = 1 if rng.random() < p else 0
        abnormal = [x for x in kb.observables if value[x]]
        if len(abnormal) >= min_abnormal and (
            not deep or any(value[x] for x in kb.layers[-1])
        ):
            break
    if deep:
        abnormal.reverse()
    abnormal = abnormal[:max_abnormal]
    reach = kb.descendants(root)
    quiet = [x for x in kb.observables if not value[x] and x in reach]
    if deep:
        quiet = [x for x in quiet if x in kb.layers[-1]] or quiet
    normal = rng.sample(quiet, min(max_normal, len(quiet)))

    triggering: list[dict[int, int]] = []
    while abnormal:
        k = rng.randint(*per_tick)
        triggering.append({x: 1 for x in abnormal[:k]})
        del abnormal[:k]
    for x in normal:
        rng.choice(triggering)[x] = 0
    ticks = []
    for reading in triggering:
        ticks.append(reading)
        ticks.append(dict(reading))  # repeat: same states, no trigger
    return Incident(root, state, ticks)


def cliff_tick(kb: LayeredKB) -> dict[int, int]:
    """One tick of 3 abnormal and 2 normal last-layer readings, all in reach
    of the root that reaches most of the last layer: the deepest evidence a
    layered KB of this shape offers."""
    last = kb.layers[-1]
    reach = {}
    for r in kb.roots:
        below = kb.descendants(r)
        reach[r] = [x for x in last if x in below]
    root = max(kb.roots, key=lambda r: (len(reach[r]), -r))
    chosen = (reach[root] + [x for x in last if x not in reach[root]])[:5]
    return {x: 1 if i < 3 else 0 for i, x in enumerate(chosen)}


def reading_value(rng: random.Random, state: int) -> float:
    lo, hi = ABNORMAL_RANGE if state else NORMAL_RANGE
    return round(rng.uniform(lo, hi), 3)


def feed_lines(ticks: list[dict[int, int]], rng: random.Random, *, first_tick: int = 1,
               measure_point=lambda x: f"MP{x:04d}") -> list[str]:
    lines = ["tick,measure_point,value"]
    for offset, reading in enumerate(ticks):
        t = first_tick + offset
        for x, s in sorted(reading.items()):
            lines.append(f"{t},{measure_point(x)},{reading_value(rng, s)}")
    return lines


def long_stream_ticks(triggers: int) -> list[dict[int, int]]:
    """Alternate the abnormal set between {5} and {5, 6} on the two-root
    fixture; every triggering tick is followed by a repeat that does not
    trigger. MP03 is read normal throughout."""
    ticks = []
    for i in range(triggers):
        reading = {3: 0, 5: 1, 6: 1 if i % 2 else 0}
        ticks.append(reading)
        ticks.append(dict(reading))
    return ticks
