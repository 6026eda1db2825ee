"""Knowledge-base model: parsing, canonical serialization, validation, composition."""

import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from ducg import (
    CausalArc,
    Condition,
    ConditionLiteral,
    ConflictingDefinitionError,
    DiagnosisSession,
    DuplicateVariableError,
    InvalidKnowledgeBaseError,
    KBParseError,
    KBSyntaxError,
    KnowledgeBase,
    StateDef,
    UnknownReferenceError,
    Variable,
    compile_kb,
    completed_intensity,
    decompose,
    parse_kb,
    serialize_kb,
    validate_kb,
)
from ducg.kb import _merge_arcs

from conftest import merge_outcome, reference_merge, run_cli


def states(n):
    return tuple(
        StateDef(k, "normal" if k == 0 else f"s{k}", "normal" if k == 0 else "abnormal")
        for k in range(n)
    )


def make_var(vid, kind="X", n=2, **kwargs):
    return Variable(id=vid, kind=kind, label=f"v{vid}", states=states(n), **kwargs)


# --- parsing -----------------------------------------------------------------


def test_parse_fixture_shape(tworoot_kb):
    assert len(tworoot_kb.variables) == 7
    assert len(tworoot_kb.arcs) == 8
    assert tworoot_kb.roots() == (1, 2)
    assert tworoot_kb.variables[2].prior == {1: 0.1, 2: 0.3}
    assert tworoot_kb.measure_points["MP05"] == 5


def test_parse_reports_json_position():
    with pytest.raises(KBSyntaxError, match=r"line 1, column 2"):
        parse_kb("{not json")


def test_parse_requires_a_root():
    doc = {"version": 1, "variables": [json.loads(var_json(3, "X"))]}
    with pytest.raises(KBParseError, match="B-type"):
        parse_kb(json.dumps(doc))


def test_parse_rejects_duplicate_ids():
    doc = {
        "version": 1,
        "variables": [json.loads(var_json(1, "B")), json.loads(var_json(1, "B"))],
    }
    with pytest.raises(DuplicateVariableError) as excinfo:
        parse_kb(json.dumps(doc))
    assert excinfo.value.var_id == 1


def test_parse_rejects_unknown_arc_reference():
    doc = {
        "version": 1,
        "variables": [json.loads(var_json(1, "B")), json.loads(var_json(3, "X"))],
        "arcs": [{"child": 9, "parent": 1, "weight": 1.0, "matrix": {"1": {"1": 0.5}}}],
    }
    with pytest.raises(UnknownReferenceError, match="9") as excinfo:
        parse_kb(json.dumps(doc))
    assert excinfo.value.ref == 9


def test_parse_rejects_unsupported_version():
    with pytest.raises(KBSyntaxError, match="version"):
        parse_kb('{"version": 2, "variables": []}')


# A list field given another shape; the iteration over it used to raise a bare
# TypeError (an int) or report "arc must be an object" once per key (a dict).
_NOT_A_LIST = {
    "arcs": ("tworoot_kb.json", "'arcs' must be a list", lambda d: d.update(arcs=5)),
    "subducgs": ("tworoot_kb.json", "'subducgs' must be a list", lambda d: d.update(subducgs={"1": []})),
    "subducg arcs": (
        "tworoot_modular_kb.json",
        "subducgs[0]: 'arcs' must be a list",
        lambda d: d["subducgs"][0].update(arcs=3),
    ),
}


def _data_doc(name):
    return json.loads((__import__("pathlib").Path(__file__).parent / "data" / name).read_text())


@pytest.mark.parametrize("case", sorted(_NOT_A_LIST))
def test_parse_rejects_a_list_field_that_is_not_a_list(case, tmp_path):
    name, message, corrupt = _NOT_A_LIST[case]
    doc = _data_doc(name)
    corrupt(doc)
    with pytest.raises(KBSyntaxError, match=f"^{re.escape(message)}$"):
        parse_kb(json.dumps(doc))
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {message}"), proc.stderr


@pytest.mark.parametrize("kind", [[], {}, ["X"]], ids=["list", "object", "list of kind"])
def test_parse_rejects_a_kind_that_is_not_a_string(kind, tmp_path):
    """An unhashable kind used to reach the set of known kinds and raise
    ``TypeError``, which ``ducg validate`` printed as a traceback."""
    doc = {"version": 1, "variables": [{"id": 1, "kind": kind, "states": []}]}
    message = f"variables[0]: unknown kind {kind!r}"
    with pytest.raises(KBSyntaxError, match=f"^{re.escape(message)}$"):
        parse_kb(json.dumps(doc))
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {message}\n"


def test_parse_reads_null_list_fields_as_empty():
    doc = _data_doc("tworoot_modular_kb.json")
    doc["arcs"] = None
    doc["subducgs"][0]["arcs"] = None
    kb = parse_kb(json.dumps(doc))
    assert kb.subducgs[0].arcs == ()
    doc["subducgs"] = None
    assert parse_kb(json.dumps(doc)).subducgs == ()


# Number literals JSON cannot hand to int(): 1e400 reads as inf, so int()
# raised a bare OverflowError (or ValueError for a string key) before. The
# last five put a bool or a fraction in an integer field, which int() read as
# 1 or truncated.
_BAD_NUMBERS = {
    "variable id": ("variables[0]", lambda d: d["variables"][0].update(id="@1e400")),
    "state id": ("variables[0]", lambda d: d["variables"][0]["states"][1].update(id="@1e400")),
    "prior key": ("variables[0]", lambda d: d["variables"][0].update(prior={"1e400": 0.1})),
    "arc child": ("arcs[0]", lambda d: d["arcs"][0].update(child="@2e400")),
    "intervals key": (
        "variables[1]", lambda d: d["variables"][1].update(intervals={"1e400": [1, 10]})
    ),
    "arc weight": ("arcs[0]", lambda d: d["arcs"][0].update(weight="heavy")),
    "intensity": ("arcs[0]", lambda d: d["arcs"][0].update(matrix={"1": {"1": [0.5]}})),
    "fractional variable id": ("variables[0]", lambda d: d["variables"][0].update(id=1.7)),
    "bool variable id": ("variables[0]", lambda d: d["variables"][0].update(id=True)),
    "bool state id": ("variables[1]", lambda d: d["variables"][1]["states"][1].update(id=True)),
    "fractional arc child": ("arcs[0]", lambda d: d["arcs"][0].update(child=3.2)),
    "bool arc parent": ("arcs[0]", lambda d: d["arcs"][0].update(parent=True)),
    "bool arc weight": ("arcs[0]", lambda d: d["arcs"][0].update(weight=True)),
    "bool prior": ("variables[0]", lambda d: d["variables"][0].update(prior={"1": True})),
    "bool intensity": ("arcs[0]", lambda d: d["arcs"][0].update(matrix={"1": {"1": True}})),
    "bool interval bounds": (
        "variables[1]", lambda d: d["variables"][1].update(intervals={"1": [False, True]})
    ),
    "string arc weight": ("arcs[0]", lambda d: d["arcs"][0].update(weight="0.5")),
    # int() reads these as 1
    "signed matrix key": ("arcs[0]", lambda d: d["arcs"][0].update(matrix={"+1": {"1": 0.5}})),
    "spaced matrix key": ("arcs[0]", lambda d: d["arcs"][0].update(matrix={" 1": {"1": 0.5}})),
    "underscored matrix key": (
        "arcs[0]", lambda d: d["arcs"][0].update(matrix={"0_1": {"1": 0.5}})
    ),
    "non-ASCII digit matrix key": (
        "arcs[0]", lambda d: d["arcs"][0].update(matrix={"\u0661": {"1": 0.5}})
    ),
    # two keys of one object that name one state
    "duplicate matrix row": (
        "arcs[0]", lambda d: d["arcs"][0].update(matrix={"1": {"1": 0.5}, "01": {"1": 0.25}})
    ),
    "duplicate matrix column": (
        "arcs[0]", lambda d: d["arcs"][0].update(matrix={"1": {"1": 0.5, "01": 0.25}})
    ),
    "duplicate prior key": (
        "variables[0]", lambda d: d["variables"][0].update(prior={"1": 0.2, "01": 0.05})
    ),
    "duplicate intervals key": (
        "variables[1]",
        lambda d: d["variables"][1].update(intervals={"0": [-1, 1], "-0": [-5, 1]}),
    ),
}


def _bad_number_kb(case):
    where, corrupt = _BAD_NUMBERS[case]
    doc = {
        "version": 1,
        "variables": [json.loads(var_json(1, "B")), json.loads(var_json(3, "X"))],
        "arcs": [{"child": 3, "parent": 1, "weight": 1.0, "matrix": {"1": {"1": 0.5}}}],
    }
    corrupt(doc)
    # "@..." marks a bare number literal that json.dumps cannot write itself.
    return where, re.sub(r'"@([0-9e]+)"', r"\1", json.dumps(doc))


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_parse_rejects_unconvertible_numbers(case):
    where, text = _bad_number_kb(case)
    with pytest.raises(KBSyntaxError, match=re.escape(where)):
        parse_kb(text)


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_validate_reports_unconvertible_numbers_without_traceback(case, tmp_path):
    where, text = _bad_number_kb(case)
    path = tmp_path / "kb.json"
    path.write_text(text)
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {where}:"), proc.stderr


@pytest.mark.parametrize("field", ["name", "severity"])
def test_parse_rejects_a_state_name_or_severity_that_is_not_a_string(field):
    """A non-string name used to be read through ``str()``, so ``{"x": 1}``
    became the name ``"{'x': 1}"``."""
    doc = {"version": 1, "variables": [json.loads(var_json(1, "B"))]}
    doc["variables"][0]["states"][1][field] = {"x": 1}
    message = f"variables[0]: state 1 {field} must be a string"
    with pytest.raises(KBSyntaxError, match=f"^{re.escape(message)}$"):
        parse_kb(json.dumps(doc))


def test_parse_reads_integral_floats_and_string_keys_as_integers():
    doc = {
        "version": 1,
        "variables": [json.loads(var_json(1, "B")), json.loads(var_json(3, "X"))],
        "arcs": [{"child": 3.0, "parent": 1.0, "weight": 1, "matrix": {"1": {"1": 0.5}}}],
    }
    doc["variables"][0]["id"] = 1.0
    kb = parse_kb(json.dumps(doc))
    assert validate_kb(kb) == []
    assert [type(v) for v in kb.variables] == [int, int]
    (arc,) = kb.arcs
    assert (arc.child, arc.parent, arc.weight) == (3, 1, 1.0)
    assert type(arc.child) is type(arc.parent) is int
    assert kb.variables[1].prior == {1: 0.1}


@pytest.mark.parametrize("key", ["0_1", " 1", "+1", "\u0661", "1 ", "--1", "-", ""])
def test_parse_reads_an_integer_string_only_as_ascii_digits(key):
    doc = {
        "version": 1,
        "variables": [json.loads(var_json(1, "B")), json.loads(var_json(3, "X"))],
        "arcs": [{"child": 3, "parent": 1, "matrix": {key: {"1": 0.5}}}],
    }
    message = f"arcs[0]: matrix row key must be an integer, got {key!r}"
    with pytest.raises(KBSyntaxError, match=f"^{re.escape(message)}$"):
        parse_kb(json.dumps(doc))


def test_parse_reads_a_minus_and_leading_zeros_in_an_integer_string():
    doc = {
        "version": 1,
        "variables": [json.loads(var_json(1, "B")), json.loads(var_json(3, "X"))],
        "arcs": [{"child": "3", "parent": "-1", "matrix": {"001": {"1": 0.5}}}],
    }
    doc["variables"][0]["id"] = -1
    (arc,) = parse_kb(json.dumps(doc)).arcs
    assert (arc.child, arc.parent, arc.matrix) == (3, -1, {1: {1: 0.5}})


def var_json(vid, kind, prior=None):
    out = {
        "id": vid,
        "kind": kind,
        "label": f"v{vid}",
        "states": [
            {"id": 0, "name": "normal", "severity": "normal"},
            {"id": 1, "name": "s1", "severity": "abnormal"},
        ],
    }
    if kind == "B":
        out["prior"] = prior or {"1": 0.1}
    return json.dumps(out)


# --- serialization --------------------------------------------------------------


def test_serialize_round_trip_is_byte_identical(tworoot_text):
    assert serialize_kb(parse_kb(tworoot_text)) == tworoot_text


def test_serialize_canonicalizes_orderings(tworoot_text):
    doc = json.loads(tworoot_text)
    doc["variables"].reverse()
    doc["arcs"].reverse()
    shuffled = json.dumps(doc)  # same content, scrambled order and whitespace
    assert serialize_kb(parse_kb(shuffled)) == tworoot_text


def test_serialize_is_a_fixed_point(plant_text):
    once = serialize_kb(parse_kb(plant_text))
    assert serialize_kb(parse_kb(once)) == once


def test_modular_document_round_trips():
    text = (__import__("pathlib").Path(__file__).parent / "data" / "tworoot_modular_kb.json").read_text()
    kb = parse_kb(text)
    assert serialize_kb(kb) == text
    assert len(kb.subducgs) == 2
    # the two subgraphs fuse into the same effective arc set as the flat file
    assert [a.sort_key() for a in kb.arcs] == [
        (3, 1, "", 1.0),
        (4, 4, "", 1.0),
        (4, 5, "", 1.0),
        (5, 1, "", 1.0),
        (5, 2, "", 1.0),
        (6, 1, "", 1.0),
        (6, 2, "", 1.0),
        (7, 2, "", 1.0),
    ]


# --- normal-row completion -------------------------------------------------------


def test_completed_intensity_conventions():
    arc = CausalArc(child=4, parent=5, weight=1.0, matrix={1: {1: 0.7}})
    assert completed_intensity(arc, 0, 0) == 1.0  # identity: normal parent
    assert completed_intensity(arc, 1, 0) == 0.0
    assert completed_intensity(arc, 1, 1) == 0.7
    assert completed_intensity(arc, 0, 1) == pytest.approx(0.3)


def test_completed_intensity_returns_a_consistent_explicit_normal_entry_as_written():
    # 0.3 is within tolerance of 1 - 0.7 but not the same float
    arc = CausalArc(child=4, parent=5, weight=1.0, matrix={0: {1: 0.3}, 1: {1: 0.7}})
    assert 1.0 - 0.7 != 0.3
    assert completed_intensity(arc, 0, 1) == 0.3


def test_completed_intensity_empty_column_is_identity():
    arc = CausalArc(child=4, parent=5, weight=1.0, matrix={1: {1: 0.7}})
    # parent state 2 was never specified: it exerts no effect
    assert completed_intensity(arc, 0, 2) == 1.0
    assert completed_intensity(arc, 1, 2) == 0.0


# --- validation ------------------------------------------------------------------


def test_fixture_kbs_validate_clean(tworoot_kb, plant_kb):
    assert validate_kb(tworoot_kb) == []
    assert validate_kb(plant_kb) == []


def codes(kb):
    return {v.code for v in validate_kb(kb)}


def test_validate_column_sum():
    kb = KnowledgeBase(
        {1: make_var(1, "B", prior={1: 0.1}), 3: make_var(3)},
        [CausalArc(3, 1, 1.0, {1: {1: 0.8}, 0: {1: 0.4}})],
    )
    found = codes(kb)
    assert "COLUMN_SUM" in found
    assert "INCONSISTENT_NORMAL_ROW" in found


def test_validate_prior_sum():
    kb = KnowledgeBase(
        {1: make_var(1, "B", n=3, prior={1: 0.7, 2: 0.6})},
    )
    assert "PRIOR_SUM" in codes(kb)


def test_validate_dangling_reference():
    kb = KnowledgeBase(
        {1: make_var(1, "B", prior={1: 0.1})},
        [CausalArc(3, 1, 1.0, {1: {1: 0.5}})],
    )
    violations = [v for v in validate_kb(kb) if v.code == "DANGLING_REFERENCE"]
    assert violations and violations[0].ids == (3,)


def test_validate_unsupported_kind():
    kb = KnowledgeBase(
        {
            1: make_var(1, "B", prior={1: 0.1}),
            2: make_var(2, "BX"),
            3: make_var(3),
        },
        [CausalArc(3, 2, 1.0, {1: {1: 0.5}})],
    )
    assert "UNSUPPORTED_KIND" in codes(kb)


def gauge(*intervals, vid=3, kind="X", measure_point="MP"):
    """A gauged variable whose state k covers ``intervals[k]`` (None: no interval)."""
    return Variable(
        id=vid,
        kind=kind,
        label=f"v{vid}",
        states=tuple(
            StateDef(k, s.name, s.severity, interval)
            for k, (s, interval) in enumerate(zip(states(len(intervals)), intervals))
        ),
        measure_point=measure_point,
    )


ROOT = make_var(1, "B", prior={1: 0.1})


def arc_kb(matrix, *, parent=1, weight=1.0, condition=None, extra=()):
    """Root 1 and X3, plus ``extra`` variables, joined by one arc 3←``parent``."""
    variables = {1: ROOT, 3: make_var(3), **{v.id: v for v in extra}}
    return KnowledgeBase(variables, [CausalArc(3, parent, weight, matrix, condition)])


def when(var, state):
    return Condition(any_of=((ConditionLiteral(var, state),),))


# Each row: a minimal knowledge base and every finding ``validate_kb`` returns
# for it, in order, as (code, ids). Every code and every shape of its ids has
# a row.
FINDINGS = {
    "NO_ROOT": (KnowledgeBase({3: make_var(3)}), [("NO_ROOT", ())]),
    "STATE_NUMBERING var": (
        KnowledgeBase({
            1: ROOT,
            3: Variable(3, "X", "v3", (StateDef(0, "normal", "normal"),
                                       StateDef(2, "s2", "abnormal"))),
        }),
        [("STATE_NUMBERING", (3,))],
    ),
    "STATE_NUMBERING state": (
        KnowledgeBase({
            1: ROOT,
            3: Variable(3, "X", "v3", (StateDef(0, "normal", "normal"),
                                       StateDef(1, "s1", "normal"))),
        }),
        [("STATE_NUMBERING", (3, 1))],
    ),
    "MISSING_PRIOR": (
        KnowledgeBase({1: make_var(1, "B", n=3, prior={1: 0.1})}),
        [("MISSING_PRIOR", (1, 2))],
    ),
    "DANGLING_REFERENCE prior state": (
        KnowledgeBase({1: make_var(1, "B", prior={1: 0.1, 5: 0.1})}),
        [("DANGLING_REFERENCE", (1, 5))],
    ),
    "PRIOR_RANGE": (
        KnowledgeBase({1: make_var(1, "B", n=3, prior={1: -0.1, 2: 0.5})}),
        [("PRIOR_RANGE", (1, 1))],
    ),
    "PRIOR_SUM": (
        KnowledgeBase({1: make_var(1, "B", n=3, prior={1: 0.7, 2: 0.6})}),
        [("PRIOR_SUM", (1,))],
    ),
    "PRIOR_KIND": (
        KnowledgeBase({1: ROOT, 3: make_var(3, prior={1: 0.1})}),
        [("PRIOR_KIND", (3,))],
    ),
    "MEASURE_POINT_KIND": (
        KnowledgeBase({1: make_var(1, "B", prior={1: 0.1}, measure_point="MP")}),
        [("MEASURE_POINT_KIND", (1,))],
    ),
    "MEASURE_POINT_CLASH": (
        KnowledgeBase({
            1: ROOT,
            3: make_var(3, measure_point="MP"),
            4: make_var(4, measure_point="MP"),
        }),
        [("MEASURE_POINT_CLASH", (3, 4))],
    ),
    "INTERVAL_KIND": (
        KnowledgeBase({
            1: ROOT,
            2: gauge((0.0, 1.0), (1.0, 2.0), vid=2, kind="D", measure_point=None),
        }),
        [("INTERVAL_KIND", (2,))],
    ),
    "INTERVAL_GAP state": (
        KnowledgeBase({1: ROOT, 3: gauge((0.0, 1.0), None)}),
        [("INTERVAL_GAP", (3, 1))],
    ),
    "INTERVAL_GAP range": (
        KnowledgeBase({1: ROOT, 3: gauge((0.0, 1.0), (2.0, 3.0))}),  # hole (1, 2]
        [("INTERVAL_GAP", (3, 0, 1))],
    ),
    "INTERVAL_BOUNDS": (
        KnowledgeBase({1: ROOT, 3: gauge((0.0, 1.0), (1.0, 1.0))}),
        [("INTERVAL_BOUNDS", (3, 1))],
    ),
    "INTERVAL_OVERLAP": (
        KnowledgeBase({1: ROOT, 3: gauge((0.0, 1.0), (0.5, 2.0))}),
        [("INTERVAL_OVERLAP", (3, 0, 1))],
    ),
    "DANGLING_REFERENCE arc child": (
        KnowledgeBase({1: ROOT}, [CausalArc(3, 1, 1.0, {1: {1: 0.5}})]),
        [("DANGLING_REFERENCE", (3,))],
    ),
    "DANGLING_REFERENCE arc parent": (
        arc_kb({1: {1: 0.5}}, parent=2),
        [("DANGLING_REFERENCE", (2,))],
    ),
    "DANGLING_REFERENCE condition variable": (
        arc_kb({1: {1: 0.5}}, condition=when(9, 1)),
        [("DANGLING_REFERENCE", (3, 1, 9))],
    ),
    "DANGLING_REFERENCE condition state": (
        arc_kb({1: {1: 0.5}}, condition=when(4, 5), extra=[make_var(4)]),
        [("DANGLING_REFERENCE", (3, 1, 4, 5))],
    ),
    "DANGLING_REFERENCE matrix child state": (
        arc_kb({5: {1: 0.5}}),
        [("DANGLING_REFERENCE", (3, 1, 5))],
    ),
    "DANGLING_REFERENCE matrix parent state": (
        arc_kb({1: {5: 0.5}}),
        [("DANGLING_REFERENCE", (3, 1, 1, 5))],
    ),
    "NONPOSITIVE_WEIGHT": (
        arc_kb({1: {1: 0.5}}, weight=0.0),
        [("NONPOSITIVE_WEIGHT", (3, 1))],
    ),
    "UNSUPPORTED_KIND": (
        arc_kb({1: {1: 0.5}}, parent=2, extra=[make_var(2, "BX")]),
        [("UNSUPPORTED_KIND", (3, 2))],
    ),
    "MISSING_PRIOR and ROOT_HAS_PARENTS": (
        KnowledgeBase(
            {1: make_var(1, "B"), 2: make_var(2, "B", prior={1: 0.2}), 3: make_var(3)},
            [CausalArc(1, 3, 1.0, {1: {1: 0.5}})],
        ),
        [("MISSING_PRIOR", (1, 1)), ("ROOT_HAS_PARENTS", (1, 3))],
    ),
    "NORMAL_PARENT_COLUMN": (
        arc_kb({1: {0: 0.2, 1: 0.5}}),
        [("NORMAL_PARENT_COLUMN", (3, 1))],
    ),
    "PROB_RANGE": (
        arc_kb({1: {1: -0.5}}),
        [("PROB_RANGE", (3, 1, 1, 1))],
    ),
    "PROB_RANGE and COLUMN_SUM": (
        arc_kb({1: {1: 1.5}}),
        [("PROB_RANGE", (3, 1, 1, 1)), ("COLUMN_SUM", (3, 1, 1))],
    ),
    "COLUMN_SUM and INCONSISTENT_NORMAL_ROW": (
        arc_kb({1: {1: 0.8}, 0: {1: 0.4}}),
        [("COLUMN_SUM", (3, 1, 1)), ("INCONSISTENT_NORMAL_ROW", (3, 1, 1))],
    ),
    "column checks in parent-state order": (
        arc_kb({1: {2: 0.9, 1: 0.9}, 0: {2: 0.5, 1: 0.5}}, parent=4, extra=[make_var(4, n=3)]),
        [
            ("COLUMN_SUM", (3, 4, 1)),
            ("INCONSISTENT_NORMAL_ROW", (3, 4, 1)),
            ("COLUMN_SUM", (3, 4, 2)),
            ("INCONSISTENT_NORMAL_ROW", (3, 4, 2)),
        ],
    ),
    "INCONSISTENT_NORMAL_ROW": (
        arc_kb({0: {1: 0.3}, 1: {1: 0.5}}),
        [("INCONSISTENT_NORMAL_ROW", (3, 1, 1))],
    ),
}


@pytest.mark.parametrize("case", FINDINGS, ids=str)
def test_validate_finding_ids(case):
    kb, expected = FINDINGS[case]
    assert [(v.code, v.ids) for v in validate_kb(kb)] == expected


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_is_refused(tmp_path, tworoot_text, weight):
    """JSON reads NaN, Infinity and -Infinity; a NaN ζ would drop the root silently."""
    doc = json.loads(tworoot_text)
    (arc,) = [a for a in doc["arcs"] if (a["child"], a["parent"]) == (3, 1)]
    arc["weight"] = weight
    text = json.dumps(doc)
    path = tmp_path / "kb.json"
    path.write_text(text)

    assert codes(parse_kb(text)) == {"NONPOSITIVE_WEIGHT"}
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"code": "NONPOSITIVE_WEIGHT", "ids": [3, 1]}
    with pytest.raises(InvalidKnowledgeBaseError):
        DiagnosisSession(parse_kb(text))


def _measure_root(doc):
    doc["variables"][0]["measure_point"] = "MP01"  # variable 1 is a B root


def _share_measure_point(doc):
    doc["variables"][3]["measure_point"] = "MP03"  # X4 takes X3's point


def _gauge_root(doc):
    doc["variables"][0]["intervals"] = {"0": [-1.0, 1.0], "1": [1.0, 10.0]}


@pytest.mark.parametrize(
    "mutate, code, ids",
    [
        (_measure_root, "MEASURE_POINT_KIND", [1]),
        (_share_measure_point, "MEASURE_POINT_CLASH", [3, 4]),
        (_gauge_root, "INTERVAL_KIND", [1]),
    ],
    ids=["MEASURE_POINT_KIND", "MEASURE_POINT_CLASH", "INTERVAL_KIND"],
)
def test_validate_flags_gateway_misuse(tmp_path, tworoot_text, mutate, code, ids):
    doc = json.loads(tworoot_text)
    mutate(doc)
    text = json.dumps(doc)
    path = tmp_path / "kb.json"
    path.write_text(text)

    assert [(v.code, list(v.ids)) for v in validate_kb(parse_kb(text))] == [(code, ids)]
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stdout == json.dumps({"code": code, "ids": ids}, separators=(",", ":")) + "\n"


def test_validate_no_root():
    # ``parse_kb`` refuses a document without a B variable first
    gauge = Variable(
        id=3,
        kind="X",
        label="gauged",
        states=(
            StateDef(0, "normal", "normal", (0.0, 1.0)),
            StateDef(1, "high", "abnormal", (1.0, 2.0)),
        ),
        measure_point="MP",
    )
    violations = validate_kb(KnowledgeBase({3: gauge}))
    assert [(v.code, v.ids) for v in violations] == [("NO_ROOT", ())]


@pytest.mark.parametrize("normal, flagged", [(0.3, True), (0.5, False)])
def test_validate_checks_explicit_normal_entries(normal, flagged):
    kb = KnowledgeBase(
        {1: make_var(1, "B", prior={1: 0.1}), 3: make_var(3)},
        [CausalArc(3, 1, 1.0, {0: {1: normal}, 1: {1: 0.5}})],
    )
    violations = validate_kb(kb)
    if flagged:
        assert [(v.code, v.ids) for v in violations] == [
            ("INCONSISTENT_NORMAL_ROW", (3, 1, 1))
        ]
    else:
        assert violations == []


def test_violation_json_shape(tworoot_kb):
    kb = KnowledgeBase(
        {1: make_var(1, "B", prior={1: 0.1}), 3: make_var(3)},
        [CausalArc(3, 1, 1.0, {1: {1: 1.5}})],
    )
    violation = [v for v in validate_kb(kb) if v.code == "COLUMN_SUM"][0]
    assert violation.to_json() == {"code": "COLUMN_SUM", "ids": [3, 1, 1]}


# --- decompose / compile -----------------------------------------------------------


def test_decompose_two_root_fixture(tworoot_kb):
    subs = decompose(tworoot_kb)
    by_root = {s.root: s for s in subs}
    assert set(by_root) == {1, 2}
    assert set(by_root[1].variables) == {1, 3, 4, 5, 6}
    assert set(by_root[2].variables) == {2, 4, 5, 6, 7}
    assert len(by_root[1].arcs) == 5  # includes the shared X5→X4 and the self-arc
    assert len(by_root[2].arcs) == 5


def test_decompose_single_node_kb():
    kb = KnowledgeBase({1: make_var(1, "B", prior={1: 0.1})})
    subs = decompose(kb)
    assert len(subs) == 1
    assert set(subs[0].variables) == {1}
    assert subs[0].arcs == ()


def test_decompose_plant_has_one_sub_per_root(plant_kb):
    assert len(decompose(plant_kb)) == 24


def scan_decompose(kb):
    """The whole-KB-scan reference: per root, one sorted pass over every arc
    for default causes and one for the subgraph's arcs."""
    subs = []
    for root in kb.roots():
        closure, frontier = {root}, [root]
        while frontier:
            var = frontier.pop()
            for arc in kb.arcs:
                if arc.parent == var and arc.child not in closure:
                    closure.add(arc.child)
                    frontier.append(arc.child)
        for arc in kb.arcs:
            if arc.child in closure and arc.parent not in closure:
                if kb.variables[arc.parent].kind == "D":
                    closure.add(arc.parent)
        arcs = tuple(a for a in kb.arcs if a.child in closure and a.parent in closure)
        subs.append((root, sorted(closure), arcs))
    return subs


def test_decompose_matches_whole_kb_scans(tworoot_kb, plant_kb):
    import random

    from generators import random_kb

    # D4 feeds D3 (visited after X2, so kept); D7 feeds D5 (visited before
    # X6 pulls D5 in, so left out)
    chained = KnowledgeBase(
        {v.id: v for v in [make_var(1, "B", prior={1: 0.1}), make_var(2), make_var(6)]
         + [make_var(d, "D") for d in (3, 4, 5, 7)]},
        [
            CausalArc(2, 1, 1.0, {1: {1: 0.5}}),
            CausalArc(2, 4, 1.0, {1: {1: 0.5}}),
            CausalArc(4, 3, 1.0, {1: {1: 0.5}}),
            CausalArc(6, 1, 1.0, {1: {1: 0.5}}),
            CausalArc(6, 5, 1.0, {1: {1: 0.5}}),
            CausalArc(5, 7, 1.0, {1: {1: 0.5}}),
        ],
    )
    assert sorted(decompose(chained)[0].variables) == [1, 2, 3, 4, 5, 6]
    rng = random.Random(5)
    kbs = [tworoot_kb, plant_kb, chained] + [
        random_kb(rng, with_default_cause=True) for _ in range(60)
    ]
    for kb in kbs:
        got = [(s.root, list(s.variables), s.arcs) for s in decompose(kb)]
        assert got == scan_decompose(kb)


def test_compile_inverts_decompose(tworoot_kb, tworoot_text):
    rebuilt = compile_kb(decompose(tworoot_kb))
    assert serialize_kb(rebuilt) == tworoot_text


def test_compile_inverts_decompose_on_plant(plant_kb, plant_text):
    assert serialize_kb(compile_kb(decompose(plant_kb))) == plant_text


def test_compile_selection_filters_roots(tworoot_kb):
    only_b1 = compile_kb(decompose(tworoot_kb), selection={1})
    assert only_b1.roots() == (1,)
    assert set(only_b1.variables) == {1, 3, 4, 5, 6}


def test_compile_is_idempotent(tworoot_kb):
    once = compile_kb(decompose(tworoot_kb))
    twice = compile_kb(decompose(once))
    assert serialize_kb(once) == serialize_kb(twice)


def test_compile_rejects_conflicting_variable_definitions(tworoot_kb):
    sub1, sub2 = decompose(tworoot_kb)
    changed = dict(sub2.variables)
    changed[5] = make_var(5, "X", n=3)  # same id, different state count
    bad = type(sub2)(root=sub2.root, variables=changed, arcs=sub2.arcs)
    with pytest.raises(ConflictingDefinitionError) as excinfo:
        compile_kb([sub1, bad])
    assert excinfo.value.ids == (5,)


def test_compile_rejects_conflicting_arc_parameters(tworoot_kb):
    sub1, sub2 = decompose(tworoot_kb)
    tweaked = tuple(
        CausalArc(a.child, a.parent, a.weight, {1: {1: 0.99}}, a.condition)
        if (a.child, a.parent) == (4, 5)
        else a
        for a in sub2.arcs
    )
    bad = type(sub2)(root=sub2.root, variables=dict(sub2.variables), arcs=tweaked)
    with pytest.raises(ConflictingDefinitionError) as excinfo:
        compile_kb([sub1, bad])
    assert str(excinfo.value) == "arc 4<-5 defined twice with different parameters"
    assert excinfo.value.ids == (4, 5)


def test_subducgs_sharing_a_nan_weight_arc_conflict():
    # json.loads reads every NaN as one float object, and tuple == matches an
    # object to itself; NaN equals no weight, so the repeat is a conflict
    arc = {"child": 2, "parent": 1, "weight": math.nan, "matrix": {"1": {"1": 0.5}}}
    doc = {
        "variables": [
            {"id": 1, "kind": "B", "states": [{"id": 0}, {"id": 1}], "prior": {"1": 0.1}},
            {"id": 2, "kind": "X", "states": [{"id": 0}, {"id": 1}]},
            {"id": 3, "kind": "B", "states": [{"id": 0}, {"id": 1}], "prior": {"1": 0.1}},
        ],
        "subducgs": [
            {"root": 1, "variables": [1, 2], "arcs": [arc]},
            {"root": 3, "variables": [1, 2, 3], "arcs": [
                arc, {"child": 2, "parent": 3, "matrix": {"1": {"1": 0.5}}}]},
        ],
    }
    with pytest.raises(ConflictingDefinitionError) as excinfo:
        parse_kb(json.dumps(doc))
    assert str(excinfo.value) == "arc 2<-1 defined twice with different parameters"
    assert excinfo.value.ids == (2, 1)


# Few keys, so lists repeat keys. Most arcs take their key's own parameter
# set, so repeats are often identical; the rest take any set. NaN is one
# shared object, as json.loads reads it, in a weight and in a matrix cell.
_CONDITIONS = (
    None,
    Condition(((ConditionLiteral(3, 1),),)),
    Condition(((ConditionLiteral(3, 0),), (ConditionLiteral(4, 1),))),
)
_PARAMETERS = (
    (1.0, {1: {1: 0.5}}),
    (0.5, {1: {1: 0.5}}),
    (1.0, {1: {1: 0.25}, 0: {1: 0.75}}),
    (math.nan, {1: {1: 0.5}}),
    (1.0, {1: {1: math.nan}}),
    (1.0, {}),
)
_arc_spec = st.tuples(
    st.sampled_from((2, 3)),
    st.sampled_from((1, 2)),
    st.sampled_from(range(len(_CONDITIONS))),
    st.sampled_from((None,) * 12 + tuple(range(len(_PARAMETERS)))),
    st.booleans(),  # reuse the object an earlier equal spec built, as decompose does
)


def _arcs(specs, built):
    out = []
    for child, parent, condition, params, reuse in specs:
        if params is None:
            params = (child + parent + condition) % len(_PARAMETERS)
        key = (child, parent, condition, params)
        if not (reuse and key in built):
            weight, matrix = _PARAMETERS[params]
            built[key] = CausalArc(
                child, parent, weight, {k: dict(r) for k, r in matrix.items()},
                _CONDITIONS[condition],
            )
        out.append(built[key])
    return out


@given(
    kept=st.lists(_arc_spec, max_size=6),
    incoming=st.lists(st.lists(_arc_spec, max_size=6), max_size=5),
)
def test_merge_arcs_follows_the_pairwise_rule(kept, incoming):
    built = {}
    kept_arcs = _arcs(kept, built)
    lists = [_arcs(specs, built) for specs in incoming]
    assert merge_outcome(_merge_arcs, kept_arcs, lists) == merge_outcome(
        reference_merge, kept_arcs, lists
    )


def test_compile_unknown_selection():
    with pytest.raises(UnknownReferenceError):
        compile_kb([], selection={42})


# --- conditions --------------------------------------------------------------------


def test_condition_three_valued_evaluation():
    cond = Condition.from_json({"all": [{"var": 5, "state": 1}]}, where="test")
    assert cond.evaluate({5: 1}) is True
    assert cond.evaluate({5: 0}) is False
    assert cond.evaluate({}) is None


def test_condition_disjunction():
    cond = Condition.from_json(
        {"any": [{"all": [{"var": 5, "state": 1}]}, {"all": [{"var": 6, "state": 1}]}]},
        where="test",
    )
    assert cond.evaluate({5: 0, 6: 1}) is True
    assert cond.evaluate({5: 0}) is None  # hinges on unobserved 6
    assert cond.evaluate({5: 0, 6: 0}) is False


def test_conditional_arc_round_trips(tworoot_text):
    doc = json.loads(tworoot_text)
    doc["arcs"][0]["condition"] = {"all": [{"var": 5, "state": 1}]}
    kb = parse_kb(json.dumps(doc))
    again = parse_kb(serialize_kb(kb))
    assert serialize_kb(again) == serialize_kb(kb)
    assert again.arcs[0].condition is not None

