"""Release gate: the seven acceptance criteria, one test (and summary line) each.

Each test carries the full tolerance budget it is allowed to use; the
conftest hook prints a PASS/FAIL line per criterion at the end of the run.
"""

import json
import random
import time
import warnings
from pathlib import Path

import pytest

from ducg import (
    ArcLiteral,
    CausalArc,
    ConflictingDefinitionError,
    EventExpression,
    EvidenceSnapshot,
    KnowledgeBase,
    Product,
    RootLiteral,
    StateDef,
    UnknownReferenceError,
    Variable,
    decompose,
    export_dot,
    parse_kb,
    simplify,
    validate_kb,
)

from conftest import run_cli, run_scenario
from generators import check_engine_against_oracle, random_evidence, random_kb

DATA = Path(__file__).parent / "data"

JOINT_TOL = 1e-6
POSTERIOR_TOL = 1e-3
ORACLE_TOL = 1e-9
NORMALIZATION_TOL = 1e-9


# --- criterion 1: reference scenario probabilities -------------------------------

# per tick: evidence probability per root graph, per-hypothesis joints, posteriors
REFERENCE_TRACE = {
    14: {
        "zeta": {1: 0.006, 2: 0.04},
        "joint": {(1, 1): 0.006, (2, 1): 0.025, (2, 2): 0.015},
        "posterior": {(1, 1): 0.13, (2, 1): 0.543, (2, 2): 0.326},
    },
    16: {
        "zeta": {1: 0.004, 2: 0.16},
        "joint": {(1, 1): 0.004, (2, 1): 0.025, (2, 2): 0.135},
        "posterior": {(1, 1): 0.024, (2, 1): 0.152, (2, 2): 0.823},
    },
    17: {
        "zeta": {2: 0.08085},
        "joint": {(2, 1): 0.00525, (2, 2): 0.0756},
        "posterior": {(2, 1): 0.065, (2, 2): 0.935},
    },
}


def test_c1_reference_scenario_probabilities(tworoot_kb, tworoot_signals):
    started = time.perf_counter()
    reports, _ = run_scenario(tworoot_kb, tworoot_signals)
    elapsed = time.perf_counter() - started

    assert [r.tick for r in reports] == sorted(REFERENCE_TRACE)
    for report in reports:
        expected = REFERENCE_TRACE[report.tick]
        by_pair = {(h.root, h.state): h for h in report.hypotheses}
        assert set(by_pair) == set(expected["joint"])
        for root, zeta in expected["zeta"].items():
            measured = {h.zeta for h in report.hypotheses if h.root == root}
            assert len(measured) == 1  # one graph, one evidence probability
            assert measured.pop() == pytest.approx(zeta, abs=JOINT_TOL)
        for pair, joint in expected["joint"].items():
            assert by_pair[pair].joint == pytest.approx(joint, abs=JOINT_TOL)
        for pair, posterior in expected["posterior"].items():
            assert by_pair[pair].posterior == pytest.approx(posterior, abs=POSTERIOR_TOL)

    assert elapsed < 1.0, f"three-tick scenario took {elapsed:.3f}s (budget 1s)"


# --- criterion 2: an unexplaining root leaves the hypothesis space -----------------


def test_c2_exonerated_root_leaves_hypothesis_space(tworoot_kb, tworoot_signals):
    reports, session = run_scenario(tworoot_kb, tworoot_signals)
    final = reports[-1]

    ev = EvidenceSnapshot.build(final.tick, dict(final.abnormal) | dict(final.normal))
    sub1 = next(s for s in decompose(tworoot_kb) if s.root == 1)
    slice1 = simplify(sub1, ev)
    assert not slice1.valid
    assert slice1.unexplained == (7,)  # the observation root 1 cannot reach

    assert {(h.root, h.state) for h in final.hypotheses} == {(2, 1), (2, 2)}
    assert session.alive_roots == (2,)
    assert session.cubic(1) is None


# --- criterion 3: symbolic engine ≡ brute-force enumeration ------------------------


def test_c3_engine_matches_enumeration_oracle():
    seeds = range(200)
    graphs_compared = 0
    for seed in seeds:
        rng = random.Random(seed)
        kb = random_kb(rng)
        ev = random_evidence(rng, kb)
        graphs_compared += check_engine_against_oracle(kb, ev, tol=ORACLE_TOL)
    assert graphs_compared >= 150, (
        f"only {graphs_compared} root graphs were comparable across {len(seeds)} KBs"
    )


# --- criterion 4: normalization and algebra laws -----------------------------------


def test_c4_posteriors_and_weights_normalize(
    tworoot_kb, tworoot_signals, plant_kb, plant_signals
):
    for kb, signals in ((tworoot_kb, tworoot_signals), (plant_kb, plant_signals)):
        reports, _ = run_scenario(kb, signals)
        assert reports
        for report in reports:
            total = sum(h.posterior for h in report.hypotheses)
            assert total == pytest.approx(1.0, abs=NORMALIZATION_TOL)
            xi_per_root = {h.root: h.xi for h in report.hypotheses}
            assert sum(xi_per_root.values()) == pytest.approx(
                1.0, abs=NORMALIZATION_TOL
            )
            if len(xi_per_root) == 1:
                (xi,) = xi_per_root.values()
                assert xi == pytest.approx(1.0, abs=NORMALIZATION_TOL)

    rng = random.Random(90125)
    for _ in range(400):
        roots = [
            RootLiteral(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(rng.randint(0, 3))
        ]
        arcs = [
            ArcLiteral(
                child=rng.randint(4, 6),
                child_state=rng.randint(1, 2),
                parent=rng.randint(1, 3),
                parent_state=rng.randint(0, 2),
                share=rng.choice([0.25, 0.5, 1.0]),
                intensity=rng.choice([0.1, 0.5, 0.9]),
            )
            for _ in range(rng.randint(0, 3))
        ]
        product = Product.make(roots, arcs)
        assert Product.make(roots + roots, arcs + arcs) == product  # idempotence
        if product is None:
            continue
        seen = [lit.var for lit in product.roots]
        assert len(seen) == len(set(seen))
        children = [lit.child for lit in product.arcs]
        assert len(children) == len(set(children))
        if product.roots:  # exclusivity: a second state annihilates
            first = product.roots[0]
            clash = RootLiteral(first.var, (first.state + 1) % 3)
            assert Product.make(list(product.roots) + [clash], product.arcs) is None
        assert len(EventExpression.make([product, product]).terms) == 1


# --- criterion 5: plant-scale scenario narrows fast --------------------------------


def test_c5_plant_scenario_narrows_and_is_fast(plant_kb, plant_signals):
    assert len(plant_kb.roots()) == 24
    reports, session = run_scenario(plant_kb, plant_signals)
    widths = [len({h.root for h in r.hypotheses}) for r in reports]
    assert widths == [16, 3, 1]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    assert reports[-1].status == "diagnosed"
    assert [(h.root, h.state) for h in reports[-1].hypotheses] == [(1, 1)]
    assert session.alive_roots == (1,)
    for report in reports:  # soft ceiling: warn, don't fail
        if report.timing_ms >= 400.0:
            warnings.warn(
                f"tick {report.tick} took {report.timing_ms:.1f} ms "
                "(soft ceiling 400 ms)"
            )


# --- criterion 6: validator flags each corruption ----------------------------------


def _mutated(name, mutate):
    doc = json.loads((DATA / name).read_text())
    mutate(doc)
    return json.dumps(doc)


def test_c6_validator_flags_each_corruption():
    # abnormal intensity mass of one parent-state column above 1
    def overload_column(doc):
        arc = next(a for a in doc["arcs"] if a["child"] == 71)
        arc["matrix"] = {"1": {"1": 0.7}, "2": {"1": 0.6}}

    kb = parse_kb(_mutated("plant24_kb.json", overload_column))
    assert "COLUMN_SUM" in {v.code for v in validate_kb(kb)}

    # fault-state priors above unit mass
    def overload_prior(doc):
        doc["variables"][1]["prior"] = {"1": 0.6, "2": 0.6}

    kb = parse_kb(_mutated("tworoot_kb.json", overload_prior))
    assert "PRIOR_SUM" in {v.code for v in validate_kb(kb)}

    # arc pointing at a variable that is not defined
    def drop_endpoint(doc):
        doc["variables"] = [v for v in doc["variables"] if v["id"] != 7]

    with pytest.raises(UnknownReferenceError) as excinfo:
        parse_kb(_mutated("tworoot_kb.json", drop_endpoint))
    assert excinfo.value.code == "UNKNOWN_REFERENCE"
    # the same defect on an assembled model is a validation finding
    fragment = KnowledgeBase(
        {
            1: Variable(
                id=1,
                kind="B",
                label="root",
                states=(StateDef(0, "normal", "normal"), StateDef(1, "s1", "abnormal")),
                prior={1: 0.1},
            )
        },
        [CausalArc(7, 1, 1.0, {1: {1: 0.5}})],
    )
    assert "DANGLING_REFERENCE" in {v.code for v in validate_kb(fragment)}

    # two subgraphs share an arc but disagree on its parameters
    def fork_shared_arc(doc):
        arcs = doc["subducgs"][1]["arcs"]
        shared = next(a for a in arcs if (a["child"], a["parent"]) == (4, 5))
        shared["matrix"] = {"1": {"1": 0.99}}

    with pytest.raises(ConflictingDefinitionError) as excinfo:
        parse_kb(_mutated("tworoot_modular_kb.json", fork_shared_arc))
    assert excinfo.value.code == "CONFLICTING_DEFINITION"
    assert excinfo.value.ids == (4, 5)

    # reserved variable kind participating in causal arcs
    def reserve_kind(doc):
        var = next(v for v in doc["variables"] if v["id"] == 7)
        var["kind"] = "BX"
        var.pop("measure_point", None)
        var.pop("intervals", None)

    kb = parse_kb(_mutated("tworoot_kb.json", reserve_kind))
    assert "UNSUPPORTED_KIND" in {v.code for v in validate_kb(kb)}


# --- criterion 7: stable interfaces ------------------------------------------------


def test_c7_outputs_are_stable_and_schema_valid(tworoot_kb, report_schema):
    import jsonschema

    kb_path = str(DATA / "tworoot_kb.json")
    signals_path = DATA / "tworoot_signals.csv"

    replayed = run_cli(
        "replay", "--kb", kb_path, "--signals", str(signals_path), "--no-timing"
    )
    streamed = run_cli(
        "stream", "--kb", kb_path, "--no-timing",
        stdin_text=signals_path.read_text(),
    )
    assert replayed.returncode == streamed.returncode == 0
    assert replayed.stdout == streamed.stdout
    assert replayed.stdout  # the comparison must not be vacuous

    for _ in range(9):
        again = run_cli(
            "replay", "--kb", kb_path, "--signals", str(signals_path), "--no-timing"
        )
        assert again.stdout == replayed.stdout

    _, session = run_scenario(tworoot_kb, signals_path)
    (root,) = session.alive_roots
    dot = export_dot(session.cubic(root), tworoot_kb)
    for _ in range(9):
        _, fresh = run_scenario(tworoot_kb, signals_path)
        assert export_dot(fresh.cubic(root), tworoot_kb) == dot

    feeds = [
        ("tworoot_kb.json", "tworoot_signals.csv", ()),
        ("tworoot_kb.json", "tworoot_signals.csv", ("--verbose", "--no-timing")),
        ("plant24_kb.json", "plant24_signals.csv", ()),
        ("tworoot_orphan_kb.json", "orphan_signals.csv", ()),
    ]
    for kb_name, signals_name, extra in feeds:
        proc = run_cli(
            "replay", "--kb", str(DATA / kb_name),
            "--signals", str(DATA / signals_name), *extra,
        )
        lines = [json.loads(l) for l in proc.stdout.splitlines() if l]
        assert lines, f"{signals_name} produced no reports"
        for line in lines:
            jsonschema.validate(line, report_schema)
