import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    """Collect acceptance-gate outcomes for the end-of-run summary."""
    if "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        if report.when == "call" or (report.when == "setup" and report.failed):
            _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_acceptance_outcomes):
        verdict = "PASS" if _acceptance_outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"  {verdict}  {name}")

from ducg import (
    ConflictingDefinitionError,
    DiagnosisSession,
    ingest_tick,
    iter_reading_groups,
    parse_kb,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, stdin_text=None, stdin_bytes=None, cwd=None, env=None):
    """Run ``python -m ducg`` in a child process that imports this checkout's
    ``src/`` first, whether or not the package is installed. ``stdin_bytes``
    goes to stdin as it is; ``env`` adds to the environment."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ducg", *argv],
        input=stdin_text if stdin_bytes is None else stdin_bytes,
        capture_output=True,
        text=stdin_bytes is None,
        cwd=cwd,
        env=env,
        timeout=120,
    )
    if stdin_bytes is not None:
        proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
    return proc


def _same_mechanism(a, b):
    return (
        a.child == b.child
        and a.parent == b.parent
        and a.condition == b.condition
        and a.weight == b.weight
        and {k: dict(r) for k, r in a.matrix.items()}
        == {k: dict(r) for k, r in b.matrix.items()}
    )


def _merge_pair(existing, incoming):
    merged = list(existing)
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
        elif not _same_mechanism(clash, arc):
            raise ConflictingDefinitionError(
                f"arc {arc.child}<-{arc.parent} defined twice with different "
                "parameters",
                ids=(arc.child, arc.parent),
            )
    return merged


def reference_merge(kept, incoming_lists):
    """The arc fusion rule as first written, for tests only: one pairwise
    merge per incoming list, in which each arc scans the whole merged list for
    the first arc of its (child, parent, condition)."""
    merged = list(kept)
    for incoming in incoming_lists:
        merged = _merge_pair(merged, incoming)
    return merged


def merge_outcome(merge, kept, incoming_lists):
    """What ``merge`` makes of the lists: the merged arcs' object ids in
    order, or its conflict's (text, ids)."""
    try:
        return [id(arc) for arc in merge(kept, incoming_lists)]
    except ConflictingDefinitionError as exc:
        return (str(exc), exc.ids)


def extend_layers(layered, session):
    """Each alive root's tuple of layers, oldest first, extended by its latest
    layer in ``session``, as ``ducg --dot-dir`` does (unbounded here); a root
    that left the hypothesis space is dropped."""
    return {
        root: layered.get(root, ()) + (session.cubic(root),) for root in session.alive_roots
    }


def run_scenario(kb, csv_path, **ingest_kwargs):
    """Replay a signal file through a fresh session. Return the triggered
    reports, the session, and each alive root's layers of every tick it
    explained, which DOT export and slice tests read."""
    session = DiagnosisSession(kb)
    reports, layered = [], {}
    prev = None
    lines = Path(csv_path).read_text().splitlines()
    for tick, readings in iter_reading_groups(lines):
        snapshot, triggered = ingest_tick(prev, tick, readings, kb, **ingest_kwargs)
        prev = snapshot
        if triggered and snapshot.abnormal_set:
            reports.append(session.diagnose_tick(snapshot))
            layered = extend_layers(layered, session)
    return reports, session, layered


@pytest.fixture(scope="session")
def tworoot_text():
    return (DATA / "tworoot_kb.json").read_text()


@pytest.fixture()
def tworoot_kb(tworoot_text):
    return parse_kb(tworoot_text)


@pytest.fixture()
def tworoot_signals():
    return DATA / "tworoot_signals.csv"


@pytest.fixture()
def tworoot_reports(tworoot_kb, tworoot_signals):
    reports, _session, _layered = run_scenario(tworoot_kb, tworoot_signals)
    return reports


@pytest.fixture(scope="session")
def plant_text():
    return (DATA / "plant24_kb.json").read_text()


@pytest.fixture()
def plant_kb(plant_text):
    return parse_kb(plant_text)


@pytest.fixture()
def plant_signals():
    return DATA / "plant24_signals.csv"


@pytest.fixture(scope="session")
def report_schema():
    return json.loads((DATA / "report_schema.json").read_text())


@pytest.fixture(scope="session")
def plant_doc():
    """The (128,2x200,4) seed-11 modular KB that plant-narrowing loads first,
    from ``perfbench/workloads.py``, which imports nothing of ``ducg``."""
    path = SRC.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        shape = workloads.LayeredShape(128, 2, 200, 4)
        return workloads.layered_kb(shape, 11, modular=True).doc
