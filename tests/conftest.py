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
    DiagnosisSession,
    ingest_tick,
    iter_reading_groups,
    parse_kb,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, stdin_text=None, cwd=None):
    """Run ``python -m ducg`` in a child process that imports this checkout's
    ``src/`` first, whether or not the package is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "ducg", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


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
