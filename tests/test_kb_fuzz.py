"""Seeded mutations of the fixture knowledge bases end in a coded error or
nowhere: ``parse_kb`` and ``DiagnosisSession`` raise nothing but a
``DucgError`` on a malformed document, and ``ducg validate`` and
``ducg compile`` let nothing escape ``cli.main``, which turns a ``DucgError``
into exit code 1."""

import contextlib
import io
import json
import random
import traceback
from pathlib import Path

from ducg import DiagnosisSession, DucgError, parse_kb
from ducg.cli import main

DATA = Path(__file__).parent / "data"
KBS = ("tworoot_kb.json", "tworoot_modular_kb.json", "plant24_kb.json")
MUTATIONS = 1000

# What a mutated field becomes: every JSON type, in and out of each field's range.
VALUES = (
    None, True, False, 0, 1, -1, 2, 7, 0.5, 1.5, -0.25, 1e308, 10**30,
    "", "x", "B", "X", "0", [], [1], [{}], {}, {"1": 1}, {"0": {"0": 0.5}},
)


def _fields(node, path=()):
    """The path of every dict value and list item in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def mutate(doc, rng):
    """A copy of ``doc`` with one or two fields replaced or deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.choice((1, 2))):
        *parents, last = rng.choice(list(_fields(doc)))
        owner = doc
        for key in parents:
            owner = owner[key]
        if isinstance(owner, dict) and rng.random() < 0.2:
            del owner[last]
        else:
            owner[last] = rng.choice(VALUES)
    return doc


def load_all_the_way(text, path, out):
    """Every entry point a KB document reaches, each allowed a coded error;
    the commands run on the document written to ``path``."""
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["validate", str(path)])
        main(["compile", str(path), "-o", str(out)])
    try:
        DiagnosisSession(parse_kb(text))
    except DucgError:
        pass


def test_mutated_kbs_raise_only_coded_errors(tmp_path):
    docs = [json.loads((DATA / name).read_text(encoding="utf-8")) for name in KBS]
    escapes = {}
    for seed in range(MUTATIONS):
        rng = random.Random(seed)
        text = json.dumps(mutate(rng.choice(docs), rng))
        try:
            load_all_the_way(text, tmp_path / "kb.json", tmp_path / "compiled.json")
        except Exception as exc:  # anything but a DucgError is a defect
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}"
            escapes.setdefault(where, []).append(seed)
    assert not escapes, {where: seeds[:5] for where, seeds in escapes.items()}
