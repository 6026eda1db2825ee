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

The records of a loaded knowledge base are never changed once they are
built. :class:`StateDef`, :class:`CausalArc` and :class:`SubDUCG` are slotted
dataclasses and :class:`Variable` a plain one, not frozen ones (a frozen
``__init__`` pays for every field it sets), so this is a convention that
nothing enforces. It matters because they are shared: :func:`parse_kb` reads
each distinct state or arc document once, so the variables and subgraphs
that repeat one hold the same objects, and :func:`decompose` hands the KB's
own variables and arcs to every subgraph. :class:`Condition` and
:class:`ConditionLiteral` stay frozen, because the arc fusion hashes them.
"""

from __future__ import annotations

import heapq
import json
import marshal
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

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


@dataclass(slots=True)
class StateDef:
    """One discrete state of a variable.

    ``interval`` is the half-open sensor range ``(lower, upper]`` mapped to
    this state, present only on gauged X variables.
    """

    state_id: int
    name: str
    severity: str  # "normal" | "abnormal"
    interval: tuple[float, float] | None = None


@dataclass
class Variable:
    id: int
    kind: str
    label: str
    states: tuple[StateDef, ...]
    prior: Mapping[int, float] | None = None
    measure_point: str | None = None

    # Computed on first read and kept: the evaluators and the gateway read them in hot loops.
    # The cache sits outside the fields, so == and repr ignore it.
    @cached_property
    def state_ids(self) -> tuple[int, ...]:
        return tuple(s.state_id for s in self.states)

    @cached_property
    def abnormal_state_ids(self) -> tuple[int, ...]:
        return tuple(s.state_id for s in self.states if s.state_id != 0)

    @cached_property
    def bands(self) -> tuple[tuple[float, float, int], ...]:
        """``(lower, upper, state_id)`` of each gauged state, in declared order."""
        return tuple((*s.interval, s.state_id) for s in self.states if s.interval is not None)

    def state(self, state_id: int) -> StateDef:
        for s in self.states:
            if s.state_id == state_id:
                return s
        raise KeyError(state_id)


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


@dataclass(slots=True)
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

    def sort_key(self) -> tuple:
        cond = json.dumps(self.condition.to_json()) if self.condition else ""
        return (self.child, self.parent, cond, self.weight)


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


@dataclass(slots=True)
class SubDUCG:
    """A single-fault subgraph: one root cause plus everything it can explain."""

    root: int
    variables: Mapping[int, Variable]
    arcs: tuple[CausalArc, ...]


class KnowledgeBase:
    """Immutable-by-convention container for variables and causal arcs.

    ``arcs`` is the effective arc set used for inference: the document's own
    arcs as written (parallel arcs are legal), then each subgraph arc whose
    (child, parent, condition) is new. A later arc with a known key is dropped
    when its weight and matrix equal those of the first arc of that key;
    otherwise :class:`ConflictingDefinitionError` names its (child, parent).
    The original document split is kept so serialization round-trips.
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
        merged = _merge_arcs(self.doc_arcs, (sub.arcs for sub in self.subducgs))
        self.arcs: tuple[CausalArc, ...] = tuple(sorted(merged, key=CausalArc.sort_key))

        self.measure_points: dict[str, int] = {}
        for v in self.variables.values():
            if v.measure_point and v.measure_point not in self.measure_points:
                self.measure_points[v.measure_point] = v.id

    def roots(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables.values() if v.kind == "B")


def _merge_arcs(
    kept: Iterable[CausalArc], incoming_lists: Iterable[Iterable[CausalArc]]
) -> list[CausalArc]:
    """The fusion rule of :class:`KnowledgeBase`, in one pass over
    ``incoming_lists``. Weights compare with ``!=``, so a NaN weight never
    repeats; tuple or dataclass ``==`` would match one NaN object to itself.
    The first arc of a key repeated as the same object (one document read
    once) is equal to itself but for that weight."""
    merged = list(kept)
    first: dict[tuple, CausalArc] = {}
    for arc in merged:
        first.setdefault((arc.child, arc.parent, arc.condition), arc)
    for incoming in incoming_lists:
        for arc in incoming:
            key = (arc.child, arc.parent, arc.condition)
            have = first.get(key)
            if have is None:
                first[key] = arc
                merged.append(arc)
            elif have.weight != arc.weight or (
                have is not arc
                and {k: dict(r) for k, r in have.matrix.items()}
                != {k: dict(r) for k, r in arc.matrix.items()}
            ):
                raise ConflictingDefinitionError(
                    f"arc {arc.child}<-{arc.parent} defined twice with different "
                    "parameters",
                    ids=(arc.child, arc.parent),
                )
    return merged


# --- parsing ------------------------------------------------------------------


def _number(value: Any, where: str, what: str, kind: type = int) -> Any:
    """``kind(value)``, the one conversion every KB number goes through. A value
    that ``kind`` rejects, a bool, and a string unless ``kind`` is ``int`` and
    the string is ASCII digits after an optional ``-`` raise
    :class:`KBSyntaxError` naming ``where`` and ``what``; for ``int`` so do
    ±inf and NaN, which JSON reads ``1e400`` as, and a number with a fraction
    (``1.0`` is an integer)."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        # ``int(i) is i`` and ``float(x) is x``: a well-typed number costs one test
        if number is value:
            return number
        if value.__class__ is str:
            # ``int()`` also reads "+1", " 1", "0_1" and non-ASCII digits
            if kind is int and value.isascii() and value.lstrip("-").isdigit():
                return number
        elif value.__class__ is not bool and (kind is not int or number == value):
            return number
    noun = "an integer" if kind is int else "a number"
    raise KBSyntaxError(f"{where}: {what} must be {noun}, got {value!r}")


def _state_key(key: Any, taken: Mapping[int, Any], where: str, what: str) -> int:
    """``key`` read as a state id by :func:`_number`; a second key naming a
    state already in ``taken`` (``"1"`` and ``"01"``, ``"0"`` and ``"-0"``)
    raises :class:`KBSyntaxError` naming ``where`` and the key."""
    sid = _number(key, where, what)
    if sid in taken:
        raise KBSyntaxError(f"{where}: duplicate {what} {key!r} (state {sid})")
    return sid


def _optional_list(raw: Mapping[str, Any], key: str, prefix: str = "") -> list:
    """``raw[key]``, which must be a list; absent or null reads as empty."""
    value = raw.get(key)
    if value is not None and not isinstance(value, list):
        raise KBSyntaxError(f"{prefix}'{key}' must be a list")
    return value or []


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge-base JSON document.

    Raises :class:`KBSyntaxError` (with position) for malformed JSON or shape
    problems, and for arrays or objects nested deeper than the interpreter's
    recursion limit lets it read; :class:`DuplicateVariableError` /
    :class:`UnknownReferenceError` for id-level problems. Rule-level checks
    (probability sums, intervals, kind restrictions) are the job of
    :func:`validate_kb`. One leading byte-order mark is dropped, as RFC 8259
    allows; any other is refused.
    """
    try:
        doc = json.loads(text[1:] if text.startswith("\ufeff") else text)
    except json.JSONDecodeError as exc:
        raise KBSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise KBSyntaxError("arrays or objects nest too deep to read") from None
    if not isinstance(doc, dict):
        raise KBSyntaxError("top-level value must be an object")
    version = doc.get("version", 1)
    if version != 1 or version.__class__ is bool:
        raise KBSyntaxError(f"unsupported format version {version!r}")

    raw_vars = doc.get("variables")
    if not isinstance(raw_vars, list):
        raise KBSyntaxError("'variables' must be a list")
    variables: dict[int, Variable] = {}
    states_read: dict[bytes, _States] = {}
    for i, raw in enumerate(raw_vars):
        var = _parse_variable(raw, i, states_read)
        if var.id in variables:
            raise DuplicateVariableError(var.id)
        variables[var.id] = var
    if not any(v.kind == "B" for v in variables.values()):
        raise KBParseError("KB must contain ≥1 B-type variable")

    arcs = [
        _parse_arc(raw, variables, where=f"arcs[{i}]")
        for i, raw in enumerate(_optional_list(doc, "arcs"))
    ]
    arcs_read: dict[bytes, CausalArc] = {}
    subducgs = [
        _parse_subducg(raw, variables, f"subducgs[{i}]", arcs_read)
        for i, raw in enumerate(_optional_list(doc, "subducgs"))
    ]

    return KnowledgeBase(variables, arcs, subducgs)


# a variable's states in id order, and the set of their ids
_States = tuple[tuple[StateDef, ...], frozenset[int]]


def _parse_variable(raw: Any, index: int, states_read: dict[bytes, _States]) -> Variable:
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

    states, declared = _read_once(
        states_read, (raw.get("states"), raw.get("intervals")), _parse_states, where
    )

    prior = None
    if raw.get("prior") is not None:
        if not isinstance(raw["prior"], dict):
            raise KBSyntaxError(f"{where}: prior must map state id to probability")
        prior = {}
        for key, value in raw["prior"].items():
            sid = _state_key(key, prior, where, "prior key")
            if sid not in declared:
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
        states=states,
        prior=prior,
        measure_point=measure_point,
    )


def _parse_states(raw: tuple[Any, Any], where: str) -> _States:
    """A variable's ``(states, intervals)`` documents, read."""
    raw_states, raw_intervals = raw
    if not isinstance(raw_states, list) or not raw_states:
        raise KBSyntaxError(f"{where}: non-empty 'states' list is required")
    intervals = _parse_intervals(raw_intervals, where)
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
    return tuple(states), frozenset(seen)


def _parse_intervals(raw: Any, where: str) -> dict[int, tuple[float, float]]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise KBSyntaxError(f"{where}: intervals must map state id to [lower, upper]")
    out: dict[int, tuple[float, float]] = {}
    for key, bounds in raw.items():
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise KBSyntaxError(f"{where}: interval for state {key} must be a pair")
        sid = _state_key(key, out, where, "intervals key")
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
    # rows and cells in state id order; a dict of one key is in order already
    matrix: dict[int, dict[int, float]] = {}
    for k_raw, row in raw_matrix.items():
        if not isinstance(row, dict):
            raise KBSyntaxError(f"{where}: matrix rows must be objects")
        k = _state_key(k_raw, matrix, where, "matrix row key")
        matrix[k] = cells = {}
        for j_raw, p in row.items():
            j = _state_key(j_raw, cells, where, "matrix column key")
            cells[j] = _number(p, where, "intensity", float)
        if len(cells) > 1:
            matrix[k] = dict(sorted(cells.items()))
    if len(matrix) > 1:
        matrix = dict(sorted(matrix.items()))

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


def _read_once(read: dict[bytes, Any], raw: Any, parse: Callable[..., Any], *args: Any) -> Any:
    """``parse(raw, *args)``, or what it returned for an identical document
    read before.

    ``read`` maps the ``marshal`` bytes of each document read to its result.
    Those bytes spell out every type, every float's bits and every key order,
    so two documents share them only when parsing must read them alike.
    ``==`` would not do: ``true`` equals ``1`` and ``-0.0`` equals ``0.0``.
    Key order decides nothing, since two keys naming one state are refused,
    so a reordered document is only read again. ``args`` must be the same
    for every document of one ``read`` but for the ``where`` of an error: a
    document that fails raises on its first occurrence.
    """
    try:
        key = marshal.dumps(raw, 2)  # version 2 writes no back-references
    except ValueError:  # nested deeper than marshal writes: read it on its own
        return parse(raw, *args)
    got = read.get(key)
    if got is None:
        got = read[key] = parse(raw, *args)
    return got


def _parse_subducg(
    raw: Any,
    variables: Mapping[int, Variable],
    where: str,
    arcs_read: dict[bytes, CausalArc],
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
    if variables[root].kind != "B":
        raise KBParseError(f"subgraph root {root} is not a declared B variable")
    members = {i: variables[i] for i in sorted(set(ids))}
    arcs = []
    for i, raw_arc in enumerate(_optional_list(raw, "arcs", f"{where}: ")):
        arc = _read_once(arcs_read, raw_arc, _parse_arc, variables, f"{where}.arcs[{i}]")
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

    def to_json(self) -> dict[str, Any]:
        return {"code": self.code, "ids": list(self.ids)}


def validate_kb(kb: KnowledgeBase) -> list[Violation]:
    """Check every rule the inference engine relies on; return all violations."""
    out: list[Violation] = []
    add = lambda code, *ids: out.append(Violation(code, ids))  # noqa: E731

    if not any(v.kind == "B" for v in kb.variables.values()):
        add("NO_ROOT")

    seen_measure_points: dict[str, int] = {}
    for var in kb.variables.values():
        if var.state_ids != tuple(range(len(var.states))):
            add("STATE_NUMBERING", var.id)
        for s in var.states:
            if s.severity != ("normal" if s.state_id == 0 else "abnormal"):
                add("STATE_NUMBERING", var.id, s.state_id)

        if var.kind == "B":
            prior = var.prior or {}
            for sid in var.abnormal_state_ids:
                if sid not in prior:
                    add("MISSING_PRIOR", var.id, sid)
            for sid, p in prior.items():
                if sid not in var.state_ids:
                    add("DANGLING_REFERENCE", var.id, sid)
                if not 0.0 <= p <= 1.0:
                    add("PRIOR_RANGE", var.id, sid)
            if sum(prior.values()) > 1.0 + PROBABILITY_TOL:
                add("PRIOR_SUM", var.id)
        elif var.prior is not None:
            add("PRIOR_KIND", var.id)

        if var.measure_point is not None:
            if var.kind != "X":
                add("MEASURE_POINT_KIND", var.id)
            elif var.measure_point in seen_measure_points:
                add("MEASURE_POINT_CLASH", seen_measure_points[var.measure_point], var.id)
            else:
                seen_measure_points[var.measure_point] = var.id

        gauged = [s for s in var.states if s.interval is not None]
        if gauged and var.kind != "X":
            add("INTERVAL_KIND", var.id)
        if gauged:
            if len(gauged) != len(var.states):
                missing = next(s for s in var.states if s.interval is None)
                add("INTERVAL_GAP", var.id, missing.state_id)
            for s in gauged:
                lo, hi = s.interval  # type: ignore[misc]
                if not lo < hi:
                    add("INTERVAL_BOUNDS", var.id, s.state_id)
            ordered = sorted(gauged, key=lambda s: s.interval[0])  # type: ignore[index]
            for a, b in zip(ordered, ordered[1:]):
                gap = b.interval[0] - a.interval[1]  # type: ignore[index]
                if gap > PROBABILITY_TOL:
                    add("INTERVAL_GAP", var.id, a.state_id, b.state_id)
                elif gap < -PROBABILITY_TOL:
                    add("INTERVAL_OVERLAP", var.id, a.state_id, b.state_id)

    for arc in kb.arcs:
        pair = (arc.child, arc.parent)
        child = kb.variables.get(arc.child)
        parent = kb.variables.get(arc.parent)
        if child is None:
            add("DANGLING_REFERENCE", arc.child)
        if parent is None:
            add("DANGLING_REFERENCE", arc.parent)
        if not 0 < arc.weight < math.inf:  # NaN fails this too
            add("NONPOSITIVE_WEIGHT", *pair)
        if (child and child.kind in UNSUPPORTED_ARC_KINDS) or (
            parent and parent.kind in UNSUPPORTED_ARC_KINDS
        ):
            add("UNSUPPORTED_KIND", *pair)
        if child and child.kind in ROOT_KINDS:
            add("ROOT_HAS_PARENTS", *pair)

        if arc.condition is not None:
            for group in arc.condition.any_of:
                for lit in group:
                    ref = kb.variables.get(lit.var)
                    if ref is None:
                        add("DANGLING_REFERENCE", *pair, lit.var)
                    elif lit.state not in ref.state_ids:
                        add("DANGLING_REFERENCE", *pair, lit.var, lit.state)

        if child is None or parent is None:
            continue
        child_states, parent_states = child.state_ids, parent.state_ids
        columns: dict[int, dict[int, float]] = {}  # parent state -> child state -> p
        for k, row in arc.matrix.items():
            if k not in child_states:
                add("DANGLING_REFERENCE", *pair, k)
            for j, p in row.items():
                if j == 0:
                    add("NORMAL_PARENT_COLUMN", *pair)
                else:
                    if j not in parent_states:
                        add("DANGLING_REFERENCE", *pair, k, j)
                    columns.setdefault(j, {})[k] = p
                if not 0.0 <= p <= 1.0:
                    add("PROB_RANGE", *pair, k, j)
        for j in sorted(columns):
            column = columns[j]
            if sum(column.values()) > 1.0 + PROBABILITY_TOL:
                add("COLUMN_SUM", *pair, j)
            if 0 in column:
                abnormal_sum = sum(p for k, p in column.items() if k != 0)
                if abs(column[0] - (1.0 - abnormal_sum)) > PROBABILITY_TOL:
                    add("INCONSISTENT_NORMAL_ROW", *pair, j)

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

    return KnowledgeBase(variables, _merge_arcs((), (sub.arcs for sub in chosen)))


def reach(starts: Iterable[int], step: Mapping[int, Iterable[int]]) -> set[int]:
    """``starts`` and every variable the adjacency map ``step`` leads to."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for var in step.get(frontier.pop(), ()):
            if var not in seen:
                seen.add(var)
                frontier.append(var)
    return seen


def decompose(kb: KnowledgeBase) -> list[SubDUCG]:
    """Split a knowledge base into one single-fault subgraph per B root.

    Each subgraph holds the root's downstream closure (following child arcs),
    plus any D-type parents of included variables so default causes keep
    their support. Arc set: every arc whose two endpoints are in the closure.
    """
    subs: list[SubDUCG] = []
    children: dict[int, list[int]] = {}
    parent_arcs: dict[int, list[CausalArc]] = {}
    defaults = {v.id for v in kb.variables.values() if v.kind == "D"}
    fed: set[int] = set()  # the children of default causes
    for arc in kb.arcs:
        children.setdefault(arc.parent, []).append(arc.child)
        parent_arcs.setdefault(arc.child, []).append(arc)
        if arc.parent in defaults:
            fed.add(arc.child)

    for root in kb.roots():
        closure = reach((root,), children)
        # keep default causes feeding the closure, visiting their children in
        # id order: one that joins below the current child is not visited
        queue = sorted(closure & fed)
        while queue:
            child = heapq.heappop(queue)
            for arc in parent_arcs.get(child, ()):
                if arc.parent not in closure and kb.variables[arc.parent].kind == "D":
                    closure.add(arc.parent)
                    if arc.parent > child:
                        heapq.heappush(queue, arc.parent)
        ordered = sorted(closure)
        members = {i: kb.variables[i] for i in ordered}
        arcs = tuple(
            a for c in ordered for a in parent_arcs.get(c, ()) if a.parent in closure
        )
        subs.append(SubDUCG(root=root, variables=members, arcs=arcs))
    return subs
