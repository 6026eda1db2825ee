"""DOT rendering of the layered explanation graphs."""

from pathlib import Path

import pytest

from ducg import export_dot

from conftest import run_cli

DATA = Path(__file__).parent / "data"


def final_cubic(session):
    (root,) = session.alive_roots
    return session.cubic(root), root


def test_dot_one_cluster_per_slice(tworoot_kb, tworoot_signals):
    from conftest import run_scenario

    _, session = run_scenario(tworoot_kb, tworoot_signals)
    cubic, root = final_cubic(session)
    dot = export_dot(cubic, tworoot_kb)
    assert dot.startswith(f'digraph "cubic_B{root}" {{')
    assert dot.count("subgraph cluster_t") == 3
    for ordinal, layer in enumerate(cubic.layers, start=1):
        assert f'label="t_{ordinal} (tick {layer.tick})";' in dot


def test_dot_marks_abnormal_nodes_and_linkage(tworoot_kb, tworoot_signals):
    from conftest import run_scenario

    _, session = run_scenario(tworoot_kb, tworoot_signals)
    cubic, _ = final_cubic(session)
    dot = export_dot(cubic, tworoot_kb)
    # the root is a box, observed deviations are ellipses
    assert '"t1_v2" [label="B2", shape=box];' in dot
    assert 'fillcolor="#f4cccc"' in dot
    # abnormal X5 in the first slice is filled; its label carries the state name
    assert '"t1_v5" [label="X5\\nabnormal", shape=ellipse, style=filled' in dot
    dashed = [l for l in dot.splitlines() if "style=dashed" in l]
    assert len(dashed) == 6
    assert all("constraint=false" in l for l in dashed)
    assert '"t1_v5" -> "t2_v5" [style=dashed, constraint=false];' in dot


def test_dot_is_deterministic(tworoot_kb, tworoot_signals):
    from conftest import run_scenario

    _, session = run_scenario(tworoot_kb, tworoot_signals)
    cubic, _ = final_cubic(session)
    first = export_dot(cubic, tworoot_kb)
    assert all(export_dot(cubic, tworoot_kb) == first for _ in range(10))


def test_dot_renders_single_slice(tworoot_kb):
    from ducg import EvidenceSnapshot, decompose, merge_cubic, simplify

    ev = EvidenceSnapshot.build(14, {3: 0, 5: 1, 6: 0})
    sub = next(s for s in decompose(tworoot_kb) if s.root == 1)
    cubic = merge_cubic(None, simplify(sub, ev), ev.tick)
    dot = export_dot(cubic, tworoot_kb)
    assert dot.count("subgraph cluster_t") == 1
    assert "style=dashed" not in dot
    assert '"t1_v1" -> "t1_v5";' in dot
    assert dot.endswith("}\n")


def test_dot_links_consecutive_slices_of_one_snapshot(tworoot_kb):
    """Two slices of the same tick are still two layers: every dashed edge
    joins layer 1 to layer 2, none loops on one node."""
    from ducg import DiagnosisSession, EvidenceSnapshot

    session = DiagnosisSession(tworoot_kb, history=True)
    ev = EvidenceSnapshot.build(14, {3: 0, 5: 1, 6: 0})
    session.diagnose_tick(ev)
    session.diagnose_tick(ev)
    cubic = session.cubic(2)
    dot = export_dot(cubic, tworoot_kb)
    dashed = [l for l in dot.splitlines() if "style=dashed" in l]
    want = sorted(cubic.latest.variables)
    assert dashed == [
        f'  "t1_v{v}" -> "t2_v{v}" [style=dashed, constraint=false];' for v in want
    ]


@pytest.mark.parametrize("fixture", ["tworoot", "plant24"])
def test_replay_dot_files_match_golden_bytes(fixture, tmp_path):
    proc = run_cli(
        "replay",
        "--kb", str(DATA / f"{fixture}_kb.json"),
        "--signals", str(DATA / f"{fixture}_signals.csv"),
        "--no-timing",
        "--dot-dir", str(tmp_path),
    )
    assert proc.returncode == 0
    golden = DATA / "dot" / fixture
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_chatter_replay_matches_golden_bytes(tmp_path):
    """X5 held abnormal while X6 chatters: from tick 3 on every root repeats
    an earlier evidence pattern. At tick 13 X7, outside B1's graph, turns
    abnormal, and B1 leaves."""
    argv = (
        "replay",
        "--kb", str(DATA / "tworoot_kb.json"),
        "--signals", str(DATA / "tworoot_chatter_signals.csv"),
        "--no-timing",
    )
    want = (DATA / "tworoot_chatter_replay.jsonl").read_text(encoding="utf-8")
    assert run_cli(*argv).stdout == want
    proc = run_cli(*argv, "--dot-dir", str(tmp_path))
    assert proc.returncode == 0 and proc.stdout == want
    golden = DATA / "dot" / "tworoot_chatter"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
