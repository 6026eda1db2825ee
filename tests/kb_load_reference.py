"""A frozen copy of the knowledge-base loader before it read each state
document once and built its records without ``frozen``, for tests only.

``parse_kb`` below is the loader as it was: each distinct subgraph arc
document read once, each variable's ``states`` and ``intervals`` read on
their own, and frozen records. The record classes and the parse functions are
copied verbatim. The loader must give the same ``serialize_kb`` bytes and
the same ``validate_kb`` findings, or raise the same exception type with the
same text, on every document but those it now refuses on purpose: a
``version`` of ``true``, and a subgraph rooted at a variable that is not of
kind B.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

from ducg.errors import DuplicateVariableError, KBParseError, KBSyntaxError, UnknownReferenceError
from ducg.kb import KNOWN_KINDS, Condition, KnowledgeBase


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

    # Computed on first read and kept: the evaluators and the gateway read them in hot loops.
    # The cache sits outside the fields, so ==, hash and repr ignore it.
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


@dataclass(frozen=True)
class SubDUCG:
    """A single-fault subgraph: one root cause plus everything it can explain."""

    root: int
    variables: Mapping[int, Variable]
    arcs: tuple[CausalArc, ...]


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
    :func:`validate_kb`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KBSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise KBSyntaxError("arrays or objects nest too deep to read") from None
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
    read: dict[bytes, CausalArc] = {}
    subducgs = [
        _parse_subducg(raw, variables, f"subducgs[{i}]", read)
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
            sid = _state_key(key, prior, where, "prior key")
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
    matrix: dict[int, dict[int, float]] = {}
    for k_raw, row in raw_matrix.items():
        if not isinstance(row, dict):
            raise KBSyntaxError(f"{where}: matrix rows must be objects")
        k = _state_key(k_raw, matrix, where, "matrix row key")
        matrix[k] = cells = {}
        for j_raw, p in row.items():
            j = _state_key(j_raw, cells, where, "matrix column key")
            cells[j] = _number(p, where, "intensity", float)
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


def _parse_arc_once(
    raw: Any, variables: Mapping[int, Variable], where: str, read: dict[bytes, CausalArc]
) -> CausalArc:
    """:func:`_parse_arc`, or the arc of an identical document read before.

    ``read`` maps the ``marshal`` bytes of each document read to its arc.
    Those bytes spell out every type, every float's bits and every key order,
    so two documents share them only when parsing must read them alike.
    ``==`` would not do: ``true`` equals ``1`` and ``-0.0`` equals ``0.0``.
    Key order decides nothing, since two keys naming one state are refused,
    so a reordered document is only read again.
    """
    try:
        key = marshal.dumps(raw, 2)  # version 2 writes no back-references
    except ValueError:  # nested deeper than marshal writes: read it on its own
        return _parse_arc(raw, variables, where)
    arc = read.get(key)
    if arc is None:
        arc = read[key] = _parse_arc(raw, variables, where)
    return arc


def _parse_subducg(
    raw: Any,
    variables: Mapping[int, Variable],
    where: str,
    read: dict[bytes, CausalArc],
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
        arc = _parse_arc_once(raw_arc, variables, f"{where}.arcs[{i}]", read)
        if arc.child not in members or arc.parent not in members:
            raise UnknownReferenceError(
                f"{where}.arcs[{i}]: arc {arc.child}<-{arc.parent} leaves the "
                "subducg variable set",
                arc.child if arc.child not in members else arc.parent,
            )
        arcs.append(arc)
    return SubDUCG(root=root, variables=members, arcs=tuple(sorted(arcs, key=CausalArc.sort_key)))
