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
    for ordinal, s in enumerate(cubic.slices, start=1):
        assert f'label="t_{ordinal} (tick {s.tick})";' in dot


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
    assert len(dashed) == len(cubic.linkage) == 6
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
    cubic = merge_cubic(None, simplify(sub, ev))
    dot = export_dot(cubic, tworoot_kb)
    assert dot.count("subgraph cluster_t") == 1
    assert "style=dashed" not in dot
    assert '"t1_v1" -> "t1_v5";' in dot
    assert dot.endswith("}\n")


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
