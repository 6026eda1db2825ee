"""Loading a knowledge base: ``parse_kb`` reads each distinct subgraph arc
document once, and ``decompose`` visits default causes only where they feed a
closure. Both must load exactly what reading every document on its own, and
the former ``decompose``, give."""

import heapq
import importlib.util
import json
import math
import random
import sys
from pathlib import Path
from unittest import mock

import pytest

from ducg import (
    CausalArc,
    Condition,
    ConditionLiteral,
    DucgError,
    KnowledgeBase,
    SubDUCG,
    Variable,
    decompose,
    kb as kb_module,
    parse_kb,
    serialize_kb,
)
from ducg.kb import _parse_arc, reach

from generators import random_kb

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FIXTURES = sorted(DATA.glob("*_kb.json"))


@pytest.fixture(scope="module")
def plant_doc():
    """The (128,2x200,4) seed-11 modular KB that plant-narrowing loads first,
    from ``perfbench/workloads.py``, which imports nothing of ``ducg``."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        shape = workloads.LayeredShape(128, 2, 200, 4)
        return workloads.layered_kb(shape, 11, modular=True).doc


def read_once(text):
    """``parse_kb``, called from the stack depth of :func:`read_each_on_its_own`."""
    return parse_kb(text)


def read_each_on_its_own(text):
    """``parse_kb`` as it was: every arc document read by ``_parse_arc``."""
    def on_its_own(raw, variables, where, read):
        return _parse_arc(raw, variables, where)

    with mock.patch.object(kb_module, "_parse_arc_once", on_its_own):
        return parse_kb(text)


def outcome(load, text):
    """What ``load`` makes of ``text``: the canonical bytes, or the error."""
    try:
        return serialize_kb(load(text))
    except DucgError as exc:
        return (type(exc).__name__, str(exc))


# --- each document read once -------------------------------------------------


def _texts(plant_doc):
    return [path.read_text(encoding="utf-8") for path in FIXTURES] + [json.dumps(plant_doc)]


def test_each_subgraph_holds_the_arcs_of_its_own_documents(plant_doc):
    """``repr`` tells ``-0.0`` from ``0.0`` and ``1`` from ``1.0``."""
    compared = 0
    for text in _texts(plant_doc):
        kb = parse_kb(text)
        raw_subs = json.loads(text).get("subducgs") or []
        by_root = {sub.root: sub for sub in kb.subducgs}
        assert len(by_root) == len(raw_subs)
        for i, raw in enumerate(raw_subs):
            own = sorted(
                (_parse_arc(doc, kb.variables, f"subducgs[{i}].arcs[{j}]")
                 for j, doc in enumerate(raw["arcs"])),
                key=CausalArc.sort_key,
            )
            assert [repr(a) for a in by_root[raw["root"]].arcs] == [repr(a) for a in own]
            compared += len(own)
    assert compared >= 4_000


def test_a_plant_kb_builds_one_arc_per_distinct_document(plant_doc):
    """The regression guard, by count: 4,000 documents, 1,600 of them distinct."""
    kb = parse_kb(json.dumps(plant_doc))
    assert sum(len(raw["arcs"]) for raw in plant_doc["subducgs"]) == 4_000
    assert len({id(arc) for sub in kb.subducgs for arc in sub.arcs}) == 1_600
    assert len(kb.arcs) == 1_600


def _two_roots(first, repeat, *, same_subgraph=False):
    """A document whose subgraphs hold ``first`` and then ``repeat``: arc
    documents for X2<-B1 that ``==`` may take for one another."""
    variables = [
        {"id": 1, "kind": "B", "states": [{"id": 0}, {"id": 1}], "prior": {"1": 0.1}},
        {"id": 2, "kind": "X", "states": [{"id": 0}, {"id": 1}, {"id": 2}]},
        {"id": 3, "kind": "B", "states": [{"id": 0}, {"id": 1}], "prior": {"1": 0.1}},
    ]
    other = {"child": 2, "parent": 3, "matrix": {"1": {"1": 0.5}}}
    if same_subgraph:
        subducgs = [{"root": 1, "variables": [1, 2], "arcs": [first, repeat]}]
    else:
        subducgs = [
            {"root": 1, "variables": [1, 2], "arcs": [first]},
            {"root": 3, "variables": [1, 2, 3], "arcs": [other, repeat]},
        ]
    return json.dumps({"version": 1, "variables": variables, "subducgs": subducgs})


def _arc(**fields):
    return {"child": 2, "parent": 1, "weight": 1.0, "matrix": {"1": {"1": 0.5}}, **fields}


_EITHER = {"any": [{"all": [{"var": 2, "state": 1}]}, {"all": [{"var": 3, "state": 1}]}]}

# (first, repeat, what the repeat must end in): a substring of the error, or
# "loads" for same bytes as reading each document on its own.
REPEATS = {
    "true against 1 in the weight": (
        _arc(weight=1), _arc(weight=True),
        "subducgs[1].arcs[1]: weight must be a number, got True"),
    "true against 1 in the child": (
        _arc(child=1, parent=2), _arc(child=True, parent=2),
        "subducgs[1].arcs[1]: 'child' must be an integer, got True"),
    "true against 1 in an intensity": (
        _arc(matrix={"1": {"1": 1}}), _arc(matrix={"1": {"1": True}}),
        "subducgs[1].arcs[1]: intensity must be a number, got True"),
    "false against 0 in an intensity": (
        _arc(matrix={"1": {"1": 0}}), _arc(matrix={"1": {"1": False}}),
        "subducgs[1].arcs[1]: intensity must be a number, got False"),
    "true against 1 in a condition": (
        _arc(condition={"all": [{"var": 2, "state": 1}]}),
        _arc(condition={"all": [{"var": 2, "state": True}]}),
        "subducgs[1].arcs[1]: condition state must be an integer, got True"),
    "-0.0 against 0.0 in an intensity": (
        _arc(matrix={"2": {"1": 0.0}}), _arc(matrix={"2": {"1": -0.0}}), "loads"),
    "0.0 against -0.0 in an intensity": (
        _arc(matrix={"2": {"1": -0.0}}), _arc(matrix={"2": {"1": 0.0}}), "loads"),
    "-0.0 against 0 in the weight": (_arc(weight=0), _arc(weight=-0.0), "loads"),
    "1 against 1.0 in the weight": (_arc(weight=1.0), _arc(weight=1), "loads"),
    "1.0 against 1 in the child": (_arc(child=2), _arc(child=2.0), "loads"),
    "a NaN weight": (_arc(weight=math.nan), _arc(weight=math.nan),
                     "arc 2<-1 defined twice with different parameters"),
    "a NaN intensity": (_arc(matrix={"1": {"1": math.nan}}),
                        _arc(matrix={"1": {"1": math.nan}}), "loads"),
    "reordered keys": (
        _arc(), dict(reversed(list(_arc().items()))), "loads"),
    # two keys naming one state are refused in the first document
    "reordered rows naming one state": (
        _arc(matrix={"1": {"1": 0.5}, "01": {"1": 0.25}}),
        _arc(matrix={"01": {"1": 0.25}, "1": {"1": 0.5}}),
        "subducgs[0].arcs[0]: duplicate matrix row key '01' (state 1)"),
    "reordered columns naming one state": (
        _arc(matrix={"1": {"1": 0.5, "01": 0.25}}),
        _arc(matrix={"1": {"01": 0.25, "1": 0.5}}),
        "subducgs[0].arcs[0]: duplicate matrix column key '01' (state 1)"),
    "an extra key in the repeat": (_arc(), _arc(note="x"), "loads"),
    "an extra key in the first": (_arc(note="x"), _arc(), "loads"),
    "an equal repeat": (_arc(), _arc(), "loads"),
    "an equal repeat with a condition": (_arc(condition=_EITHER), _arc(condition=_EITHER), "loads"),
}


@pytest.mark.parametrize("case", sorted(REPEATS))
@pytest.mark.parametrize("same_subgraph", [False, True])
def test_a_repeat_that_equals_fools_keeps_its_outcome(case, same_subgraph):
    first, repeat, expected = REPEATS[case]
    text = _two_roots(first, repeat, same_subgraph=same_subgraph)
    got = outcome(read_once, text)
    assert got == outcome(read_each_on_its_own, text)
    if expected == "loads":
        assert isinstance(got, str)
    elif same_subgraph:
        # the one subgraph sorts nothing before reading: the repeat is arcs[1] of subducgs[0]
        assert expected.replace("subducgs[1]", "subducgs[0]") in got[1]
    else:
        assert expected in got[1]


@pytest.mark.parametrize("first, repeat, shared", [
    (_arc(), _arc(), True),
    (_arc(matrix={"2": {"1": 0.0}}), _arc(matrix={"2": {"1": 0.0}}), True),
    (_arc(weight=math.nan), _arc(weight=math.nan), True),
    (_arc(weight=1), _arc(weight=1.0), False),
    (_arc(matrix={"2": {"1": 0.0}}), _arc(matrix={"2": {"1": -0.0}}), False),
    (_arc(), dict(reversed(list(_arc().items()))), False),
    (_arc(), _arc(note="x"), False),
])
def test_only_an_identical_document_shares_the_first_ones_arc(first, repeat, shared):
    """Same types, same float bits and same key order: then the subgraphs
    share one arc object. A lookalike is read on its own."""
    doc = json.loads(_two_roots(first, repeat))
    for sub in doc["subducgs"]:
        sub["arcs"] = [arc for arc in sub["arcs"] if arc["parent"] == 1]
    pieces = []
    with mock.patch.object(kb_module, "KnowledgeBase", lambda v, a, subs: pieces.append(subs)):
        parse_kb(json.dumps(doc))
    (first_sub, repeat_sub) = pieces[0]
    assert (first_sub.arcs[0] is repeat_sub.arcs[0]) == shared


def test_the_variable_set_check_runs_on_a_repeat():
    """The repeat is read once, but it still leaves subducgs[1]'s variables."""
    text = _two_roots(_arc(), _arc())
    doc = json.loads(text)
    doc["subducgs"][1]["variables"] = [2, 3]
    with pytest.raises(DucgError) as excinfo:
        parse_kb(json.dumps(doc))
    assert str(excinfo.value) == (
        "subducgs[1].arcs[1]: arc 2<-1 leaves the subducg variable set"
    )


def test_repeats_nested_near_the_recursion_limit_load_as_on_their_own():
    """An ignored key may nest as deep as ``json`` reads."""
    outcomes = set()
    for depth in range(900, 1_000):
        nested = "[" * depth + "]" * depth
        text = _two_roots(_arc(note="@"), _arc(note="@")).replace('"@"', nested)
        got = outcome(read_once, text)
        assert got == outcome(read_each_on_its_own, text), depth
        outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}  # some depths load, the deepest do not


def test_a_document_nested_deeper_than_marshal_writes_is_read_on_its_own():
    """No ``json`` here reads 2,500 levels, but one that does must not make
    the load raise ``ValueError``."""
    nested = []
    for _ in range(2_500):
        nested = [nested]
    variables = parse_kb(_two_roots(_arc(), _arc())).variables
    arc = kb_module._parse_arc_once(_arc(note=nested), variables, "arcs[0]", {})
    assert arc == _parse_arc(_arc(), variables, "arcs[0]")


# --- decompose ---------------------------------------------------------------


def former_decompose(kb):
    """``decompose`` before it skipped the closures no default cause feeds:
    the default-cause pass visits every member of every closure."""
    subs = []
    children, parent_arcs = {}, {}
    for arc in kb.arcs:
        children.setdefault(arc.parent, []).append(arc.child)
        parent_arcs.setdefault(arc.child, []).append(arc)
    for root in kb.roots():
        closure = reach((root,), children)
        queue = sorted(closure)
        while queue:
            child = heapq.heappop(queue)
            for arc in parent_arcs.get(child, ()):
                if arc.parent not in closure and kb.variables[arc.parent].kind == "D":
                    closure.add(arc.parent)
                    if arc.parent > child:
                        heapq.heappush(queue, arc.parent)
        ordered = sorted(closure)
        members = {i: kb.variables[i] for i in ordered}
        arcs = tuple(a for c in ordered for a in parent_arcs.get(c, ()) if a.parent in closure)
        subs.append(SubDUCG(root=root, variables=members, arcs=arcs))
    return subs


def _with_fed_default_causes(rng):
    """``random_kb`` with a default cause, then 1-3 arcs into default causes:
    from a root, an observable, or a second default cause that also feeds an
    observable."""
    kb = random_kb(rng, with_default_cause=True)
    variables = dict(kb.variables)
    arcs = list(kb.arcs)
    (d,) = (v for v, var in variables.items() if var.kind == "D")
    if rng.random() < 0.5:
        second = max(variables) + 1
        variables[second] = Variable(
            id=second, kind="D", label="second default", states=variables[d].states
        )
        x = rng.choice([v for v, var in variables.items() if var.kind == "X"])
        arcs.append(CausalArc(x, second, 1.0, {1: {1: 0.5}}))
        arcs.append(CausalArc(d, second, 1.0, {1: {1: 0.5}}))
    for _ in range(rng.randint(1, 2)):
        parent = rng.choice([v for v, var in variables.items() if var.kind != "D"])
        cond = None
        if rng.random() < 0.3:
            cond = Condition(((ConditionLiteral(parent, 1),),))
        arcs.append(CausalArc(d, parent, 1.0, {1: {1: 0.5}}, cond))
    return KnowledgeBase(variables, arcs)


def _same(got, want):
    return [(s.root, list(s.variables), [id(a) for a in s.arcs]) for s in got] == [
        (s.root, list(s.variables), [id(a) for a in s.arcs]) for s in want
    ]


def test_decompose_equals_the_former_decompose():
    fixtures = [parse_kb(path.read_text(encoding="utf-8")) for path in FIXTURES]
    rng = random.Random(34)
    kbs = (
        fixtures
        + [random_kb(rng, with_default_cause=True) for _ in range(400)]
        + [_with_fed_default_causes(rng) for _ in range(200)]
    )
    fed = unfed = 0
    for kb in kbs:
        got, want = decompose(kb), former_decompose(kb)
        assert _same(got, want)
        defaults = {v for v, var in kb.variables.items() if var.kind == "D"}
        for sub in want:
            if defaults & set(sub.variables):
                fed += 1
            else:
                unfed += 1
    # measured: 704 closures hold a default cause, 563 hold none
    assert fed >= 650 and unfed >= 500, (fed, unfed)

