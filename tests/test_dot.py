"""DOT rendering of the layered explanation graphs."""

import io
import json
from itertools import islice
from pathlib import Path

import pytest

from ducg import export_dot

from conftest import extend_layers, run_cli, run_scenario

DATA = Path(__file__).parent / "data"


def final_cubic(layered):
    ((root, cubic),) = layered.items()
    return cubic, root


def test_dot_one_cluster_per_slice(tworoot_kb, tworoot_signals):
    _, _, layered = run_scenario(tworoot_kb, tworoot_signals)
    cubic, root = final_cubic(layered)
    dot = export_dot(cubic, tworoot_kb)
    assert dot.startswith(f'digraph "cubic_B{root}" {{')
    assert dot.count("subgraph cluster_t") == 3
    for ordinal, layer in enumerate(cubic.layers, start=1):
        assert f'label="t_{ordinal} (tick {layer.tick})";' in dot


def test_dot_marks_abnormal_nodes_and_linkage(tworoot_kb, tworoot_signals):
    _, _, layered = run_scenario(tworoot_kb, tworoot_signals)
    cubic, _ = final_cubic(layered)
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
    _, _, layered = run_scenario(tworoot_kb, tworoot_signals)
    cubic, _ = final_cubic(layered)
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

    session, layered = DiagnosisSession(tworoot_kb), {}
    ev = EvidenceSnapshot.build(14, {3: 0, 5: 1, 6: 0})
    for _ in range(2):
        session.diagnose_tick(ev)
        layered = extend_layers(layered, session)
    cubic = layered[2]
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


def test_dot_dir_draws_the_last_sixteen_layers(tworoot_kb, tmp_path):
    """40 triggers of a chattering X6 with X5 held abnormal: both roots stay
    alive, so 80 files. A file draws at most the root's last 16 layers, and
    the first 16 files draw the whole history."""
    from ducg import DiagnosisSession, ingest_tick, iter_reading_groups
    from ducg.cli import _run_feed

    lines = ["tick,measure_point,value", "1,MP03,0.5", "1,MP05,2.0", "1,MP06,0.5"]
    lines += [f"{t},MP06,{2.0 if t % 2 == 0 else 0.5}" for t in range(2, 41)]
    out, err = io.StringIO(), io.StringIO()
    code = _run_feed(
        DiagnosisSession(tworoot_kb), lines, out, err, with_timing=False, dot_dir=str(tmp_path)
    )
    assert code == 0 and err.getvalue() == ""
    assert len(out.getvalue().splitlines()) == 40
    files = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()}
    assert sorted(files) == sorted(f"cubic_B{r}_t{n}.dot" for r in (1, 2) for n in range(1, 41))
    for name, dot in files.items():
        n = int(name.rsplit("_t", 1)[1].removesuffix(".dot"))
        assert dot.count("subgraph cluster_t") == min(n, 16), name

    last = files["cubic_B2_t40.dot"]
    for ordinal, tick in enumerate(range(25, 41), start=1):
        assert f'label="t_{ordinal} (tick {tick})";' in last
    assert "cluster_t17" not in last

    # every tick triggers, so a root's n-th layer is tick n's
    session, layered, prev = DiagnosisSession(tworoot_kb), {}, None
    for tick, readings in islice(iter_reading_groups(lines), 16):
        prev, _ = ingest_tick(prev, readings, tworoot_kb)
        session.diagnose_tick(prev)
        layered = extend_layers(layered, session)
        for root, cubic in layered.items():
            assert files[f"cubic_B{root}_t{tick}.dot"] == export_dot(cubic, tworoot_kb)


def test_dot_escapes_quotes_and_backslashes_in_state_names(tworoot_text):
    """State names are free text: a quote or backslash in one is escaped,
    so the label stays one DOT string."""
    from ducg import EvidenceSnapshot, decompose, merge_cubic, parse_kb, simplify

    doc = json.loads(tworoot_text)
    (x5,) = [v for v in doc["variables"] if v["id"] == 5]
    x5["states"][1]["name"] = 'hi"gh\\'
    kb = parse_kb(json.dumps(doc))
    ev = EvidenceSnapshot.build(14, {3: 0, 5: 1, 6: 0})
    sub = next(s for s in decompose(kb) if s.root == 1)
    dot = export_dot(merge_cubic(None, simplify(sub, ev), ev.tick), kb)
    assert '"t1_v5" [label="X5\\nhi\\"gh\\\\", shape=ellipse' in dot
