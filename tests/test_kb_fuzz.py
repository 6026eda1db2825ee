"""Seeded mutations of the fixture knowledge bases end in a coded error or
nowhere: ``parse_kb`` and ``DiagnosisSession`` raise nothing but a
``DucgError`` on a malformed document, and ``ducg validate`` and
``ducg compile`` let nothing escape ``cli.main``, which turns a ``DucgError``
into exit code 1. Each mutation's fused arcs, or its arc conflict, are those
of the pairwise reference rule. A field swapped for a list or an object
nested up to 100,000 deep ends the same way, and so does a field holding
bytes that are not UTF-8, in every command."""

import contextlib
import io
import json
import random
import traceback
from pathlib import Path
from unittest import mock

from ducg import (
    CausalArc,
    ConflictingDefinitionError,
    DiagnosisSession,
    DucgError,
    KBSyntaxError,
    kb as kb_module,
    parse_kb,
)
from ducg.cli import main

from conftest import merge_outcome, reference_merge

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


def _pick(doc, rng):
    """A random field of ``doc``: the dict or list holding it, and its key."""
    *parents, last = rng.choice(list(_fields(doc)))
    owner = doc
    for key in parents:
        owner = owner[key]
    return owner, last


def mutate(doc, rng):
    """A copy of ``doc`` with one or two fields replaced or deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.choice((1, 2))):
        owner, last = _pick(doc, rng)
        if isinstance(owner, dict) and rng.random() < 0.2:
            del owner[last]
        else:
            owner[last] = rng.choice(VALUES)
    return doc


# How deep a swapped-in field nests: below, around and far past the
# interpreter's recursion limit of 1,000, near which ``json.loads`` starts to
# refuse depending on the stack beneath it.
DEPTHS = (1, 2, 10, 100, 500, 900, 940, 960, 970, 980, 990, 1_000, 1_100, 10_000, 100_000)
NESTINGS = 300
_PLACEHOLDER = json.dumps("\0nested")


def nest(doc, rng):
    """The text of ``doc`` with one field swapped for a list or an object
    nested one of ``DEPTHS`` deep, and that depth. It is built as text:
    ``json.dumps`` itself recurses once per level."""
    doc = json.loads(json.dumps(doc))
    owner, last = _pick(doc, rng)
    owner[last] = json.loads(_PLACEHOLDER)
    depth = rng.choice(DEPTHS)
    if rng.random() < 0.5:
        inner = "[" * depth + rng.choice(("", "1", '"x"', "{}")) + "]" * depth
    else:
        inner = '{"id":' * depth + rng.choice(("1", "[]", '"B"')) + "}" * depth
    return json.dumps(doc).replace(_PLACEHOLDER, inner, 1), depth


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


def reference_fused(kept, incoming_lists):
    return sorted(reference_merge(kept, incoming_lists), key=CausalArc.sort_key)


def fusion_mismatch(text):
    """None when ``parse_kb`` fuses the document's arcs as the reference rule
    does (the same arc objects in the same order, or the same conflict) or
    refuses the document before fusing; otherwise both outcomes."""
    knowledge_base, pieces = kb_module.KnowledgeBase, []

    def recording(variables, arcs, subducgs):
        pieces.append((arcs, subducgs))
        return knowledge_base(variables, arcs, subducgs)

    with mock.patch.object(kb_module, "KnowledgeBase", recording):
        try:
            got = [id(arc) for arc in parse_kb(text).arcs]
        except ConflictingDefinitionError as exc:
            got = (str(exc), exc.ids)
        except DucgError:
            return None
    arcs, subducgs = pieces[0]
    want = merge_outcome(
        reference_fused,
        sorted(arcs, key=CausalArc.sort_key),
        [sub.arcs for sub in sorted(subducgs, key=lambda sub: sub.root)],
    )
    return None if got == want else (got, want)


def test_mutated_kbs_raise_only_coded_errors(tmp_path):
    docs = [json.loads((DATA / name).read_text(encoding="utf-8")) for name in KBS]
    escapes, mismatches = {}, {}
    for seed in range(MUTATIONS):
        rng = random.Random(seed)
        text = json.dumps(mutate(rng.choice(docs), rng))
        try:
            load_all_the_way(text, tmp_path / "kb.json", tmp_path / "compiled.json")
        except Exception as exc:  # anything but a DucgError is a defect
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}"
            escapes.setdefault(where, []).append(seed)
        mismatch = fusion_mismatch(text)
        if mismatch is not None:
            mismatches[seed] = mismatch
    assert not escapes, {where: seeds[:5] for where, seeds in escapes.items()}
    assert not mismatches, dict(list(mismatches.items())[:3])


def test_deeply_nested_fields_raise_only_coded_errors(tmp_path):
    """Every nesting ends in a coded error or none. One past 1,000 levels is
    always the nesting ``KBSyntaxError``; shallower ones reach the shape
    checks."""
    docs = [json.loads((DATA / name).read_text(encoding="utf-8")) for name in KBS]
    escapes, deep, shallow = {}, 0, 0
    for seed in range(NESTINGS):
        rng = random.Random(seed)
        text, depth = nest(rng.choice(docs), rng)
        try:
            load_all_the_way(text, tmp_path / "kb.json", tmp_path / "compiled.json")
            try:
                parse_kb(text)
                refusal = None
            except DucgError as exc:
                refusal = exc
            if depth > 1_000:
                assert isinstance(refusal, KBSyntaxError), refusal
                assert str(refusal) == "arrays or objects nest too deep to read"
                deep += 1
            else:
                shallow += 1
        except Exception as exc:  # anything but a DucgError is a defect
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}"
            escapes.setdefault(where, []).append(seed)
    assert not escapes, {where: seeds[:5] for where, seeds in escapes.items()}
    assert deep >= 40 and shallow >= 200, (deep, shallow)


# Byte sequences that are not UTF-8: lone continuation and lead bytes, cut-off
# sequences, an encoded surrogate, a code point past U+10FFFF, an overlong form.
NOT_UTF8 = (
    b"\x80", b"\xbf", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
    b"\xc0\xaf", b"\xfe", b"\xff",
)
BYTE_MUTATIONS = 200


def test_bytes_that_are_not_utf8_in_a_field_are_a_syntax_error(tmp_path):
    """A field whose string or number holds bytes that are not UTF-8: each
    command exits 1 with one ``error:`` line that names the first such
    byte, and nothing escapes ``cli.main``."""
    docs = [json.loads((DATA / name).read_text(encoding="utf-8")) for name in KBS]
    kb, out = tmp_path / "kb.json", tmp_path / "compiled.json"
    signals = str(DATA / "tworoot_signals.csv")
    commands = (
        ["validate", str(kb)],
        ["compile", str(kb), "-o", str(out)],
        ["replay", "--kb", str(kb), "--signals", signals],
        ["stream", "--kb", str(kb)],
        ["predict", "--kb", str(kb), "--signals", signals, "--root", "1", "--state", "1"],
    )
    escapes = {}
    for seed in range(BYTE_MUTATIONS):
        rng = random.Random(seed)
        doc = json.loads(json.dumps(rng.choice(docs)))
        owner, last = _pick(doc, rng)
        owner[last] = json.loads(_PLACEHOLDER)
        bad = rng.choice(NOT_UTF8)
        field = rng.choice((b'"x' + bad + b'"', b"1" + bad, bad))
        data = json.dumps(doc).encode().replace(_PLACEHOLDER.encode(), field, 1)
        kb.write_bytes(data)
        for argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                assert code == 1 and stdout.getvalue() == "", (code, stdout.getvalue())
                assert stderr.getvalue().startswith(f"error: invalid UTF-8 at byte {data.index(bad)}: ")
                assert stderr.getvalue().count("\n") == 1
            except Exception as exc:  # a traceback or another message
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}"
                escapes.setdefault(where, []).append((seed, argv[0]))
    assert not escapes, {where: seeds[:5] for where, seeds in escapes.items()}
