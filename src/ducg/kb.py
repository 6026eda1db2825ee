"""Causal knowledge-base model and its JSON file format.

A knowledge base is a directed causal graph over typed variables:

* ``B``  — root causes (faults). No parents, optional prior per abnormal state.
* ``X``  — observable process variables, optionally bound to a sensor channel
  (``measure_point``) with half-open value intervals per state.
* ``D``  — default (unspecified) causes, parentless, no prior.
* ``BX``/``G`` — reserved kinds; parsed and serialized but rejected for
  inference by validation.

Each causal arc child←parent carries a weight (its share of the child's causal
mass) and an intensity matrix ``matrix[child_state][parent_state]``. Parent
state 0 ("normal") exerts no effect by convention and must not appear in the
matrix. Missing child-normal rows are completed as 1 − Σ(abnormal column).

The on-disk format is JSON with a canonical serialization (sorted ids, fixed
key order) so that parse→serialize is a fixed point usable for golden-file
tests and deterministic compilation output.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .errors import (
    ConflictingDefinitionError,
    DuplicateVariableError,
    KBParseError,
    KBSyntaxError,
    UnknownReferenceError,
)

PROBABILITY_TOL = 1e-9

ROOT_KINDS = frozenset({"B", "D"})
KNOWN_KINDS = frozenset({"B", "X", "D", "BX", "G"})
UNSUPPORTED_ARC_KINDS = frozenset({"BX", "G"})


@dataclass(frozen=True)
class StateDef:
    """One discrete state of a variable.

    ``interval`` is the half-open sensor range ``(lower, upper]`` mapped to
    this state, present only on gauged X variables.
    """

    state_id: int
    name: str
    severity: str  # "normal" | "abnormal"
    interval: tuple[float, float] | None = None


@dataclass(frozen=True, eq=True)
class Variable:
    id: int
    kind: str
    label: str
    states: tuple[StateDef, ...]
    prior: Mapping[int, float] | None = None
    measure_point: str | None = None

    # Computed on first read and kept: the evaluators read both in hot loops.
    # The cache sits outside the fields, so ==, hash and repr ignore it.
    @cached_property
    def state_ids(self) -> tuple[int, ...]:
        return tuple(s.state_id for s in self.states)

    @cached_property
    def abnormal_state_ids(self) -> tuple[int, ...]:
        return tuple(s.state_id for s in self.states if s.state_id != 0)

    def state(self, state_id: int) -> StateDef:
        for s in self.states:
            if s.state_id == state_id:
                return s
        raise KeyError(state_id)

    def has_state(self, state_id: int) -> bool:
        return any(s.state_id == state_id for s in self.states)


@dataclass(frozen=True)
class ConditionLiteral:
    var: int
    state: int


@dataclass(frozen=True)
class Condition:
    """Enabling condition of a conditional arc: a disjunction of conjunctions.

    Three-valued evaluation: False only when every conjunction contains a
    literal contradicted by the assignments; None ("undetermined") when the
    outcome hinges on an unobserved variable. Undetermined conditions retain
    the arc.
    """

    any_of: tuple[tuple[ConditionLiteral, ...], ...]

    def evaluate(self, assignments: Mapping[int, int]) -> bool | None:
        saw_unknown = False
        for group in self.any_of:
            verdict: bool | None = True
            for lit in group:
                got = assignments.get(lit.var)
                if got is None:
                    verdict = None
                elif got != lit.state:
                    verdict = False
                    break
            if verdict is True:
                return True
            if verdict is None:
                saw_unknown = True
        return None if saw_unknown else False

    def to_json(self) -> dict[str, Any]:
        groups = [
            {"all": [{"var": lit.var, "state": lit.state} for lit in group]}
            for group in self.any_of
        ]
        if len(groups) == 1:
            return groups[0]
        return {"any": groups}

    @classmethod
    def from_json(cls, obj: Any, *, where: str) -> "Condition":
        if not isinstance(obj, dict):
            raise KBSyntaxError(f"{where}: condition must be an object")
        if "any" in obj:
            raw_groups = obj["any"]
            if not isinstance(raw_groups, list) or not raw_groups:
                raise KBSyntaxError(f"{where}: 'any' must be a non-empty list")
            groups = [cls._parse_group(g, where=where) for g in raw_groups]
        elif "all" in obj:
            groups = [cls._parse_group(obj, where=where)]
        else:
            raise KBSyntaxError(f"{where}: condition needs 'all' or 'any'")
        canon = tuple(sorted(groups, key=lambda g: [(l.var, l.state) for l in g]))
        return cls(any_of=canon)

    @staticmethod
    def _parse_group(obj: Any, where: str) -> tuple[ConditionLiteral, ...]:
        if not isinstance(obj, dict) or not isinstance(obj.get("all"), list):
            raise KBSyntaxError(f"{where}: condition group needs an 'all' list")
        lits = []
        for raw in obj["all"]:
            if not isinstance(raw, dict) or "var" not in raw or "state" not in raw:
                raise KBSyntaxError(f"{where}: condition literal needs var and state")
            lits.append(ConditionLiteral(
                _number(raw["var"], where, "condition var"),
                _number(raw["state"], where, "condition state"),
            ))
        if not lits:
            raise KBSyntaxError(f"{where}: empty condition group")
        return tuple(sorted(lits, key=lambda l: (l.var, l.state)))


@dataclass(frozen=True)
class CausalArc:
    """Directed causal mechanism child←parent.

    ``matrix`` maps child_state → parent_state → intensity. Only specified
    entries are stored; see :func:`completed_intensity` for the completion
    rules applied during inference.
    """

    child: int
    parent: int
    weight: float
    matrix: Mapping[int, Mapping[int, float]]
    condition: Condition | None = None

    def parent_states_specified(self) -> tuple[int, ...]:
        js: set[int] = set()
        for row in self.matrix.values():
            js.update(row.keys())
        return tuple(sorted(js))

    def column(self, parent_state: int) -> dict[int, float]:
        return {
            k: row[parent_state]
            for k, row in self.matrix.items()
            if parent_state in row
        }

    def sort_key(self) -> tuple:
        cond = json.dumps(self.condition.to_json()) if self.condition else ""
        return (self.child, self.parent, cond, self.weight)

    def same_mechanism(self, other: "CausalArc") -> bool:
        """True when both arcs describe the identical parameterization."""
        return (
            self.child == other.child
            and self.parent == other.parent
            and self.condition == other.condition
            and self.weight == other.weight
            and {k: dict(r) for k, r in self.matrix.items()}
            == {k: dict(r) for k, r in other.matrix.items()}
        )


def completed_intensity(arc: CausalArc, child_state: int, parent_state: int) -> float:
    """Effective intensity of ``arc`` for (child_state ← parent_state).

    Conventions:

    * parent state 0 is the identity: the child stays normal (1 for
      child_state 0, 0 otherwise);
    * a missing child-normal entry is the complement of the column's
      abnormal mass — for a fully unspecified column this degenerates to the
      identity (the parent state exerts no effect);
    * missing abnormal entries are 0.
    """
    if parent_state == 0:
        return 1.0 if child_state == 0 else 0.0
    row = arc.matrix.get(child_state)
    if row is not None and parent_state in row:
        return row[parent_state]
    if child_state == 0:
        abnormal_sum = sum(
            row.get(parent_state, 0.0)
            for k, row in arc.matrix.items()
            if k != 0
        )
        return 1.0 - abnormal_sum
    return 0.0


@dataclass(frozen=True)
class SubDUCG:
    """A single-fault subgraph: one root cause plus everything it can explain."""

    root: int
    variables: Mapping[int, Variable]
    arcs: tuple[CausalArc, ...]


class KnowledgeBase:
    """Immutable-by-convention container for variables and causal arcs.

    ``arcs`` is the effective arc set used for inference (document arcs plus
    all subgraph arcs, deduplicated). The original document split is kept so
    serialization round-trips.
    """

    def __init__(
        self,
        variables: Mapping[int, Variable],
        arcs: Sequence[CausalArc] = (),
        subducgs: Sequence[SubDUCG] = (),
    ):
        self.variables: dict[int, Variable] = {
            v.id: v for v in sorted(variables.values(), key=lambda v: v.id)
        }
        self.doc_arcs: tuple[CausalArc, ...] = tuple(
            sorted(arcs, key=CausalArc.sort_key)
        )
        self.subducgs: tuple[SubDUCG, ...] = tuple(
            sorted(subducgs, key=lambda s: s.root)
        )
        merged = list(self.doc_arcs)
        for sub in self.subducgs:
            merged = _merge_arcs(merged, sub.arcs)
        self.arcs: tuple[CausalArc, ...] = tuple(sorted(merged, key=CausalArc.sort_key))

        self._parents: dict[int, list[CausalArc]] = {}
        for arc in self.arcs:
            self._parents.setdefault(arc.child, []).append(arc)

        self.measure_points: dict[str, int] = {}
        for v in self.variables.values():
            if v.measure_point and v.measure_point not in self.measure_points:
                self.measure_points[v.measure_point] = v.id

    def roots(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables.values() if v.kind == "B")


def _merge_arcs(
    existing: Iterable[CausalArc], incoming: Iterable[CausalArc]
) -> list[CausalArc]:
    """Merge arc lists; identical duplicates collapse, conflicting ones raise."""
    merged: list[CausalArc] = list(existing)
    for arc in incoming:
        clash = None
        for have in merged:
            if (
                have.child == arc.child
                and have.parent == arc.parent
                and have.condition == arc.condition
            ):
                clash = have
                break
        if clash is None:
            merged.append(arc)
        elif not clash.same_mechanism(arc):
            raise ConflictingDefinitionError(
                f"arc {arc.child}<-{arc.parent} defined twice with different "
                "parameters",
                ids=(arc.child, arc.parent),
            )
    return merged


# --- parsing ------------------------------------------------------------------


def _number(value: Any, where: str, what: str, kind: type = int) -> Any:
    """``kind(value)``, the one conversion every KB number goes through. A value
    that ``kind`` rejects, a bool, and a string unless ``kind`` is ``int``
    (the keys of a JSON object are strings) raise :class:`KBSyntaxError`
    naming ``where`` and ``what``; for ``int`` so do ±inf and NaN, which JSON
    reads ``1e400`` as, and a number with a fraction (``1.0`` is an
    integer)."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        # ``int(i) is i`` and ``float(x) is x``: a well-typed number costs one test
        if number is value:
            return number
        if value.__class__ is str:
            if kind is int:
                return number
        elif value.__class__ is not bool and (kind is not int or number == value):
            return number
    noun = "an integer" if kind is int else "a number"
    raise KBSyntaxError(f"{where}: {what} must be {noun}, got {value!r}")


def _optional_list(raw: Mapping[str, Any], key: str, prefix: str = "") -> list:
    """``raw[key]``, which must be a list; absent or null reads as empty."""
    value = raw.get(key)
    if value is not None and not isinstance(value, list):
        raise KBSyntaxError(f"{prefix}'{key}' must be a list")
    return value or []


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge-base JSON document.

    Raises :class:`KBSyntaxError` (with position) for malformed JSON or shape
    problems, :class:`DuplicateVariableError` / :class:`UnknownReferenceError`
    for id-level problems. Rule-level checks (probability sums, intervals,
    kind restrictions) are the job of :func:`validate_kb`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KBSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise KBSyntaxError("top-level value must be an object")
    version = doc.get("version", 1)
    if version != 1:
        raise KBSyntaxError(f"unsupported format version {version!r}")

    raw_vars = doc.get("variables")
    if not isinstance(raw_vars, list):
        raise KBSyntaxError("'variables' must be a list")
    variables: dict[int, Variable] = {}
    for i, raw in enumerate(raw_vars):
        var = _parse_variable(raw, index=i)
        if var.id in variables:
            raise DuplicateVariableError(var.id)
        variables[var.id] = var
    if not any(v.kind == "B" for v in variables.values()):
        raise KBParseError("KB must contain ≥1 B-type variable")

    arcs = [
        _parse_arc(raw, variables, where=f"arcs[{i}]")
        for i, raw in enumerate(_optional_list(doc, "arcs"))
    ]
    subducgs = [
        _parse_subducg(raw, variables, where=f"subducgs[{i}]")
        for i, raw in enumerate(_optional_list(doc, "subducgs"))
    ]

    return KnowledgeBase(variables, arcs, subducgs)


def _parse_variable(raw: Any, index: int) -> Variable:
    where = f"variables[{index}]"
    if not isinstance(raw, dict):
        raise KBSyntaxError(f"{where}: variable must be an object")
    var_id = _number(raw.get("id"), where, "'id'")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in KNOWN_KINDS:
        raise KBSyntaxError(f"{where}: unknown kind {kind!r}")
    label = raw.get("label", "")
    if not isinstance(label, str):
        raise KBSyntaxError(f"{where}: label must be a string")

    raw_states = raw.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise KBSyntaxError(f"{where}: non-empty 'states' list is required")
    intervals = _parse_intervals(raw.get("intervals"), where)
    states: list[StateDef] = []
    seen: set[int] = set()
    for raw_state in raw_states:
        if not isinstance(raw_state, dict) or "id" not in raw_state:
            raise KBSyntaxError(f"{where}: state needs an 'id'")
        sid = _number(raw_state["id"], where, "state id")
        if sid in seen:
            raise KBSyntaxError(f"{where}: duplicate state id {sid}")
        seen.add(sid)
        name = raw_state.get("name", "normal" if sid == 0 else f"state {sid}")
        severity = raw_state.get("severity", "normal" if sid == 0 else "abnormal")
        if not isinstance(name, str):
            raise KBSyntaxError(f"{where}: state {sid} name must be a string")
        if not isinstance(severity, str):
            raise KBSyntaxError(f"{where}: state {sid} severity must be a string")
        states.append(StateDef(sid, name, severity, intervals.pop(sid, None)))
    if intervals:
        extra = sorted(intervals)
        raise UnknownReferenceError(
            f"{where}: interval declared for undeclared state(s) {extra}", extra[0]
        )
    states.sort(key=lambda s: s.state_id)

    prior = None
    if raw.get("prior") is not None:
        if not isinstance(raw["prior"], dict):
            raise KBSyntaxError(f"{where}: prior must map state id to probability")
        prior = {}
        for key, value in raw["prior"].items():
            sid = _number(key, where, "prior key")
            if sid not in seen:
                raise UnknownReferenceError(
                    f"{where}: prior for undeclared state {sid}", sid
                )
            prior[sid] = _number(value, where, "prior", float)
        prior = dict(sorted(prior.items()))

    measure_point = raw.get("measure_point")
    if measure_point is not None and not isinstance(measure_point, str):
        raise KBSyntaxError(f"{where}: measure_point must be a string")

    return Variable(
        id=var_id,
        kind=kind,
        label=label,
        states=tuple(states),
        prior=prior,
        measure_point=measure_point,
    )


def _parse_intervals(raw: Any, where: str) -> dict[int, tuple[float, float]]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise KBSyntaxError(f"{where}: intervals must map state id to [lower, upper]")
    out: dict[int, tuple[float, float]] = {}
    for key, bounds in raw.items():
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise KBSyntaxError(f"{where}: interval for state {key} must be a pair")
        sid = _number(key, where, "intervals key")
        out[sid] = (_number(bounds[0], where, "interval bound", float),
                    _number(bounds[1], where, "interval bound", float))
    return out


def _parse_arc(
    raw: Any, variables: Mapping[int, Variable], where: str
) -> CausalArc:
    if not isinstance(raw, dict):
        raise KBSyntaxError(f"{where}: arc must be an object")
    child = _number(raw.get("child"), where, "'child'")
    parent = _number(raw.get("parent"), where, "'parent'")
    for endpoint in (child, parent):
        if endpoint not in variables:
            raise UnknownReferenceError(
                f"{where}: arc references undeclared variable {endpoint}", endpoint
            )
    weight = _number(raw.get("weight", 1.0), where, "weight", float)
    raw_matrix = raw.get("matrix")
    if not isinstance(raw_matrix, dict):
        raise KBSyntaxError(f"{where}: 'matrix' object is required")
    matrix: dict[int, dict[int, float]] = {}
    for k_raw, row in raw_matrix.items():
        if not isinstance(row, dict):
            raise KBSyntaxError(f"{where}: matrix rows must be objects")
        k = _number(k_raw, where, "matrix row key")
        matrix[k] = {
            _number(j, where, "matrix column key"):
            _number(p, where, "intensity", float)
            for j, p in row.items()
        }
    matrix = {k: dict(sorted(row.items())) for k, row in sorted(matrix.items())}

    condition = None
    if raw.get("condition") is not None:
        condition = Condition.from_json(raw["condition"], where=where)
        for group in condition.any_of:
            for lit in group:
                if lit.var not in variables:
                    raise UnknownReferenceError(
                        f"{where}: condition references undeclared variable {lit.var}",
                        lit.var,
                    )
    return CausalArc(child, parent, weight, matrix, condition)


def _parse_subducg(
    raw: Any, variables: Mapping[int, Variable], where: str
) -> SubDUCG:
    if not isinstance(raw, dict):
        raise KBSyntaxError(f"{where}: subducg must be an object")
    root = _number(raw.get("root"), where, "'root'")
    raw_ids = raw.get("variables")
    if not isinstance(raw_ids, list) or not raw_ids:
        raise KBSyntaxError(f"{where}: non-empty 'variables' id list is required")
    ids = [_number(i, where, "variable id") for i in raw_ids]
    for var_id in ids:
        if var_id not in variables:
            raise UnknownReferenceError(
                f"{where}: subducg references undeclared variable {var_id}", var_id
            )
    if root not in ids:
        raise UnknownReferenceError(f"{where}: root {root} not in variable set", root)
    members = {i: variables[i] for i in sorted(set(ids))}
    arcs = []
    for i, raw_arc in enumerate(_optional_list(raw, "arcs", f"{where}: ")):
        arc = _parse_arc(raw_arc, variables, where=f"{where}.arcs[{i}]")
        if arc.child not in members or arc.parent not in members:
            raise UnknownReferenceError(
                f"{where}.arcs[{i}]: arc {arc.child}<-{arc.parent} leaves the "
                "subducg variable set",
                arc.child if arc.child not in members else arc.parent,
            )
        arcs.append(arc)
    return SubDUCG(root=root, variables=members, arcs=tuple(sorted(arcs, key=CausalArc.sort_key)))


# --- serialization ------------------------------------------------------------


def _variable_to_json(var: Variable) -> dict[str, Any]:
    out: dict[str, Any] = {
        "id": var.id,
        "kind": var.kind,
        "label": var.label,
        "states": [
            {"id": s.state_id, "name": s.name, "severity": s.severity}
            for s in var.states
        ],
    }
    if var.prior is not None:
        out["prior"] = {str(k): v for k, v in sorted(var.prior.items())}
    if var.measure_point is not None:
        out["measure_point"] = var.measure_point
    intervals = {
        str(s.state_id): list(s.interval) for s in var.states if s.interval is not None
    }
    if intervals:
        out["intervals"] = intervals
    return out


def _arc_to_json(arc: CausalArc) -> dict[str, Any]:
    out: dict[str, Any] = {
        "child": arc.child,
        "parent": arc.parent,
        "weight": arc.weight,
        "matrix": {
            str(k): {str(j): p for j, p in sorted(row.items())}
            for k, row in sorted(arc.matrix.items())
        },
    }
    if arc.condition is not None:
        out["condition"] = arc.condition.to_json()
    return out


def serialize_kb(kb: KnowledgeBase) -> str:
    """Serialize to canonical JSON (sorted ids, fixed key order, 2-space indent)."""
    doc: dict[str, Any] = {
        "version": 1,
        "variables": [_variable_to_json(v) for v in kb.variables.values()],
    }
    if kb.doc_arcs:
        doc["arcs"] = [_arc_to_json(a) for a in kb.doc_arcs]
    if kb.subducgs:
        doc["subducgs"] = [
            {
                "root": sub.root,
                "variables": sorted(sub.variables),
                "arcs": [_arc_to_json(a) for a in sub.arcs],
            }
            for sub in kb.subducgs
        ]
    return json.dumps(doc, indent=2) + "\n"


# --- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One broken validation rule. ``ids`` identifies the offending objects."""

    code: str
    ids: tuple[int, ...]
    message: str

    def to_json(self) -> dict[str, Any]:
        return {"code": self.code, "ids": list(self.ids)}


def validate_kb(kb: KnowledgeBase) -> list[Violation]:
    """Check every rule the inference engine relies on; return all violations."""
    out: list[Violation] = []
    add = lambda code, ids, msg: out.append(Violation(code, tuple(ids), msg))  # noqa: E731

    if not any(v.kind == "B" for v in kb.variables.values()):
        add("NO_ROOT", (), "knowledge base declares no B-type root cause")

    seen_measure_points: dict[str, int] = {}
    for var in kb.variables.values():
        ids = [s.state_id for s in var.states]
        if ids != list(range(len(ids))):
            add("STATE_NUMBERING", (var.id,), f"states of {var.id} are not 0..n-1")
        for s in var.states:
            expected = "normal" if s.state_id == 0 else "abnormal"
            if s.severity != expected:
                add(
                    "STATE_NUMBERING",
                    (var.id, s.state_id),
                    f"state {s.state_id} of {var.id} must have severity {expected}",
                )

        if var.kind == "B":
            prior = var.prior or {}
            for sid in var.abnormal_state_ids:
                if sid not in prior:
                    add(
                        "MISSING_PRIOR",
                        (var.id, sid),
                        f"abnormal state {sid} of root {var.id} has no prior",
                    )
            for sid, p in prior.items():
                if not var.has_state(sid):
                    add(
                        "DANGLING_REFERENCE",
                        (var.id, sid),
                        f"prior of {var.id} names unknown state {sid}",
                    )
                if not 0.0 <= p <= 1.0:
                    add(
                        "PRIOR_RANGE",
                        (var.id, sid),
                        f"prior {p} of {var.id} state {sid} outside [0, 1]",
                    )
            if sum(prior.values()) > 1.0 + PROBABILITY_TOL:
                add(
                    "PRIOR_SUM",
                    (var.id,),
                    f"priors of root {var.id} sum to {sum(prior.values())} > 1",
                )
        elif var.prior is not None:
            add("PRIOR_KIND", (var.id,), f"{var.kind} variable {var.id} carries a prior")

        if var.measure_point is not None:
            if var.kind != "X":
                add(
                    "MEASURE_POINT_KIND",
                    (var.id,),
                    f"measure point on {var.kind} variable {var.id}",
                )
            elif var.measure_point in seen_measure_points:
                add(
                    "MEASURE_POINT_CLASH",
                    (seen_measure_points[var.measure_point], var.id),
                    f"measure point {var.measure_point!r} bound twice",
                )
            else:
                seen_measure_points[var.measure_point] = var.id

        gauged = [s for s in var.states if s.interval is not None]
        if gauged and var.kind != "X":
            add("INTERVAL_KIND", (var.id,), f"intervals on {var.kind} variable {var.id}")
        if gauged:
            if len(gauged) != len(var.states):
                missing = [s.state_id for s in var.states if s.interval is None]
                add(
                    "INTERVAL_GAP",
                    (var.id, missing[0]),
                    f"state(s) {missing} of {var.id} have no interval",
                )
            for s in gauged:
                lo, hi = s.interval  # type: ignore[misc]
                if not lo < hi:
                    add(
                        "INTERVAL_BOUNDS",
                        (var.id, s.state_id),
                        f"empty interval ({lo}, {hi}] on {var.id} state {s.state_id}",
                    )
            ordered = sorted(gauged, key=lambda s: s.interval[0])  # type: ignore[index]
            for a, b in zip(ordered, ordered[1:]):
                gap = b.interval[0] - a.interval[1]  # type: ignore[index]
                if gap > PROBABILITY_TOL:
                    add(
                        "INTERVAL_GAP",
                        (var.id, a.state_id, b.state_id),
                        f"uncovered range ({a.interval[1]}, {b.interval[0]}] on {var.id}",
                    )
                elif gap < -PROBABILITY_TOL:
                    add(
                        "INTERVAL_OVERLAP",
                        (var.id, a.state_id, b.state_id),
                        f"overlapping intervals on {var.id}",
                    )

    for arc in kb.arcs:
        pair = (arc.child, arc.parent)
        child = kb.variables.get(arc.child)
        parent = kb.variables.get(arc.parent)
        if child is None:
            add("DANGLING_REFERENCE", (arc.child,), f"arc child {arc.child} undeclared")
        if parent is None:
            add(
                "DANGLING_REFERENCE",
                (arc.parent,),
                f"arc parent {arc.parent} undeclared",
            )
        if not 0 < arc.weight < math.inf:  # NaN fails this too
            add("NONPOSITIVE_WEIGHT", pair, f"arc {pair} has weight {arc.weight}")
        if (child and child.kind in UNSUPPORTED_ARC_KINDS) or (
            parent and parent.kind in UNSUPPORTED_ARC_KINDS
        ):
            add(
                "UNSUPPORTED_KIND",
                pair,
                f"arc {pair} touches a reserved kind (BX/G) unsupported for inference",
            )
        if child and child.kind in ROOT_KINDS:
            add(
                "ROOT_HAS_PARENTS",
                pair,
                f"{child.kind} variable {arc.child} may not have parents",
            )

        if arc.condition is not None:
            for group in arc.condition.any_of:
                for lit in group:
                    ref = kb.variables.get(lit.var)
                    if ref is None:
                        add(
                            "DANGLING_REFERENCE",
                            (arc.child, arc.parent, lit.var),
                            f"condition of arc {pair} names unknown variable {lit.var}",
                        )
                    elif not ref.has_state(lit.state):
                        add(
                            "DANGLING_REFERENCE",
                            (arc.child, arc.parent, lit.var, lit.state),
                            f"condition of arc {pair} names unknown state "
                            f"{lit.var}/{lit.state}",
                        )

        if child is None or parent is None:
            continue
        for k, row in arc.matrix.items():
            if not child.has_state(k):
                add(
                    "DANGLING_REFERENCE",
                    (arc.child, arc.parent, k),
                    f"matrix of arc {pair} names unknown child state {k}",
                )
            for j, p in row.items():
                if j == 0:
                    add(
                        "NORMAL_PARENT_COLUMN",
                        pair,
                        f"matrix of arc {pair} specifies the normal parent column",
                    )
                elif not parent.has_state(j):
                    add(
                        "DANGLING_REFERENCE",
                        (arc.child, arc.parent, k, j),
                        f"matrix of arc {pair} names unknown parent state {j}",
                    )
                if not 0.0 <= p <= 1.0:
                    add(
                        "PROB_RANGE",
                        (arc.child, arc.parent, k, j),
                        f"intensity {p} outside [0, 1] on arc {pair}",
                    )
        for j in arc.parent_states_specified():
            if j == 0:
                continue
            column = arc.column(j)
            total = sum(column.values())
            abnormal_sum = sum(p for k, p in column.items() if k != 0)
            if total > 1.0 + PROBABILITY_TOL:
                add(
                    "COLUMN_SUM",
                    (arc.child, arc.parent, j),
                    f"column {j} of arc {pair} sums to {total} > 1",
                )
            if 0 in column and abs(column[0] - (1.0 - abnormal_sum)) > PROBABILITY_TOL:
                add(
                    "INCONSISTENT_NORMAL_ROW",
                    (arc.child, arc.parent, j),
                    f"explicit normal entry of arc {pair} column {j} is not the "
                    "complement of the abnormal mass",
                )

    return out


# --- modular composition --------------------------------------------------------


def compile_kb(
    subgraphs: Sequence[SubDUCG], selection: Iterable[int] | None = None
) -> KnowledgeBase:
    """Fuse single-fault subgraphs into one knowledge base.

    ``selection`` restricts compilation to the given root ids (default: all).
    Shared variables must be defined identically everywhere; duplicate arcs
    must be parameter-identical. Conflicts raise
    :class:`ConflictingDefinitionError`.
    """
    chosen = list(subgraphs)
    if selection is not None:
        wanted = set(selection)
        chosen = [s for s in chosen if s.root in wanted]
        missing = wanted - {s.root for s in chosen}
        if missing:
            raise UnknownReferenceError(
                f"selection names unknown root(s) {sorted(missing)}",
                sorted(missing)[0],
            )

    variables: dict[int, Variable] = {}
    for sub in chosen:
        root_var = sub.variables.get(sub.root)
        if root_var is None or root_var.kind != "B":
            raise KBParseError(f"subgraph root {sub.root} is not a declared B variable")
        for var in sub.variables.values():
            have = variables.get(var.id)
            if have is None:
                variables[var.id] = var
            elif have != var:
                raise ConflictingDefinitionError(
                    f"variable {var.id} defined differently in two subgraphs",
                    ids=(var.id,),
                )

    arcs: list[CausalArc] = []
    for sub in chosen:
        arcs = _merge_arcs(arcs, sub.arcs)
    return KnowledgeBase(variables, arcs)


def decompose(kb: KnowledgeBase) -> list[SubDUCG]:
    """Split a knowledge base into one single-fault subgraph per B root.

    Each subgraph holds the root's downstream closure (following child arcs),
    plus any D-type parents of included variables so default causes keep
    their support. Arc set: every arc whose two endpoints are in the closure.
    """
    subs: list[SubDUCG] = []
    children_of: dict[int, list[CausalArc]] = {}
    for arc in kb.arcs:
        children_of.setdefault(arc.parent, []).append(arc)

    for root in kb.roots():
        closure = {root}
        frontier = [root]
        while frontier:
            var = frontier.pop()
            for arc in children_of.get(var, ()):
                if arc.child not in closure:
                    closure.add(arc.child)
                    frontier.append(arc.child)
        # keep default causes feeding the closure, visiting children in id
        # order: one that joins below the current child is not visited
        queue = sorted(closure)
        while queue:
            child = heapq.heappop(queue)
            for arc in kb._parents.get(child, ()):
                if arc.parent not in closure and kb.variables[arc.parent].kind == "D":
                    closure.add(arc.parent)
                    if arc.parent > child:
                        heapq.heappush(queue, arc.parent)
        ordered = sorted(closure)
        members = {i: kb.variables[i] for i in ordered}
        arcs = tuple(
            a for c in ordered for a in kb._parents.get(c, ()) if a.parent in closure
        )
        subs.append(SubDUCG(root=root, variables=members, arcs=arcs))
    return subs
