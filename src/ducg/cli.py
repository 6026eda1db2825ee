"""``ducg`` command line: validate, compile, replay, stream, predict.

Exit codes: 0 — ran clean (including "nothing ever triggered"); 1 — I/O,
parse, or validation errors; 2 — some triggering tick ended unexplained (or a
predict target is outside the surviving hypothesis space).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import OrderedDict, deque
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

from . import __version__
from .dot import export_dot
from .engine import _MEMO_SIZE, CubicGraph, DiagnosisReport, DiagnosisSession, predict
from .errors import DucgError, KBSyntaxError
from .kb import KnowledgeBase, compile_kb, decompose, parse_kb, serialize_kb, validate_kb
from .signals import EvidenceSnapshot, ingest_tick, iter_reading_groups

_JSON_SEPARATORS = (",", ":")
_ENCODER = json.JSONEncoder(separators=_JSON_SEPARATORS)  # what ``json.dumps`` builds per call
_PROBABILITY_FLOOR = 1e-5
# Layers a ``--dot-dir`` file draws, a bound however long a session runs. The
# longest fixture session (the chatter feed) has 13 layers, drawn whole.
_DOT_LAYERS = 16


def _load_kb(path: str) -> KnowledgeBase:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KBSyntaxError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    return parse_kb(text)


# --- report rendering ---------------------------------------------------------


def _report_json(report: DiagnosisReport, with_timing: bool) -> dict:
    return {
        "tick": report.tick,
        "status": report.status,
        "hypotheses": [
            {
                "root": h.root,
                "state": h.state,
                "posterior": h.posterior,
                "joint": h.joint,
                "zeta": h.zeta,
                "xi": h.xi,
            }
            for h in report.hypotheses
        ],
        "evidence": {
            "abnormal": [{"var": v, "state": s} for v, s in report.abnormal],
            "normal": [{"var": v, "state": s} for v, s in report.normal],
        },
        "timing_ms": round(report.timing_ms, 3) if with_timing else 0.0,
    }


def _report_line(report: DiagnosisReport, with_timing: bool, cache: OrderedDict) -> str:
    """``json.dumps(_report_json(report, with_timing))`` with ``_JSON_SEPARATORS``,
    and a newline.

    The engine hands back the same hypotheses, abnormal and normal tuples
    whenever it repeats a ranking, so ``cache`` keeps the JSON text of the
    ``hypotheses`` and ``evidence`` members keyed on their identity, least
    recently used first, as many as the engine keeps rankings. An entry holds
    the tuples it was encoded from, so their ids cannot be reused while it
    lives. Every line renders the tick, status and timing around it.
    """
    h = report.hypotheses
    entry = cache.get(id(h))
    if (
        entry is None
        or entry[0] is not h
        or entry[1] is not report.abnormal
        or entry[2] is not report.normal
    ):
        doc = _report_json(report, with_timing)
        members = _ENCODER.encode(
            {"hypotheses": doc["hypotheses"], "evidence": doc["evidence"]}
        )[1:-1]
        entry = cache[id(h)] = (h, report.abnormal, report.normal, members)
        if len(cache) > _MEMO_SIZE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(id(h))
    timing = round(report.timing_ms, 3) if with_timing else 0.0
    timing_text = repr(timing) if isfinite(timing) else _ENCODER.encode(timing)
    status = encode_basestring_ascii(report.status)
    return f'{{"tick":{report.tick},"status":{status},{entry[3]},"timing_ms":{timing_text}}}\n'


def format_probability(p: float) -> str:
    """4 significant digits as a percentage, with a floor for trace amounts."""
    if p < _PROBABILITY_FLOOR:
        return "<0.001%"
    return f"{p * 100:.4g}%"


def _emit_pretty(report: DiagnosisReport, kb: KnowledgeBase, out: IO[str], with_timing: bool) -> None:
    timing = f"  {report.timing_ms:.1f} ms" if with_timing else ""
    out.write(f"tick {report.tick}  status={report.status}{timing}\n")
    abnormal = ", ".join(f"{v}:{s}" for v, s in report.abnormal) or "-"
    normal = ", ".join(f"{v}:{s}" for v, s in report.normal) or "-"
    out.write(f"  evidence  abnormal [{abnormal}]  normal [{normal}]\n")
    if report.hypotheses:
        out.write(f"  {'ID':<5} {'Fault':<48} {'State':<22} Probability\n")
        for h in report.hypotheses:
            var = kb.variables[h.root]
            label = var.label or f"root {h.root}"
            state_name = var.state(h.state).name
            out.write(
                f"  {h.root:<5} {label[:48]:<48} {state_name[:22]:<22} "
                f"{format_probability(h.posterior)}\n"
            )
    out.write("\n")


def _emit_report(
    report: DiagnosisReport,
    kb: KnowledgeBase,
    out: IO[str],
    *,
    pretty: bool,
    with_timing: bool,
    cache: OrderedDict,
) -> None:
    if pretty:
        _emit_pretty(report, kb, out, with_timing)
    else:
        out.write(_report_line(report, with_timing, cache))
    out.flush()


# --- feed loop ------------------------------------------------------------------


def _warn_on(err: IO[str], what: str) -> Callable[[int, Exception], None]:
    """An ``on_error`` handler for a feed's ``what`` (line or tick) ``n``:
    it prints ``warning: <what> <n>: <error>`` on ``err``."""

    def warn(n: int, exc: Exception) -> None:
        print(f"warning: {what} {n}: {exc}", file=err)

    return warn


def _fold(
    session: DiagnosisSession, lines: Iterable[str], err: IO[str], recovery_retrigger: bool
) -> Iterator[tuple[EvidenceSnapshot, bool, DiagnosisReport | None]]:
    """Fold a feed into ``session``, one tick at a time.

    Yields each tick's ``(snapshot, trigger, report)``: ``report`` is the
    session's diagnosis of a trigger with abnormal evidence, and None on any
    other tick. Unreadable lines and readings are warned about on ``err``
    and skipped.
    """
    kb = session.kb
    snapshot = None
    warn_tick = _warn_on(err, "tick")
    for tick, readings in iter_reading_groups(lines, on_error=_warn_on(err, "line")):
        snapshot, trigger = ingest_tick(
            snapshot, tick, readings, kb, retrigger_on_recovery=recovery_retrigger, on_error=warn_tick
        )
        diagnosed = trigger and snapshot.abnormal_set
        yield snapshot, trigger, session.diagnose_tick(snapshot) if diagnosed else None


def _run_feed(
    session: DiagnosisSession,
    lines: Iterable[str],
    out: IO[str],
    err: IO[str],
    *,
    verbose: bool = False,
    pretty: bool = False,
    with_timing: bool = True,
    dot_dir: str | None = None,
    recovery_retrigger: bool = True,
) -> int:
    kb = session.kb
    exit_code = 0
    drawn: dict[int, tuple[int, deque[CubicGraph]]] = {}  # root -> (layers so far, last ones)
    members: OrderedDict = OrderedDict()  # ``_report_line``'s cache, one per feed

    for snapshot, _, report in _fold(session, lines, err, recovery_retrigger):
        if report is not None:
            _emit_report(report, kb, out, pretty=pretty, with_timing=with_timing, cache=members)
            if dot_dir is not None:
                extended = {}  # alive roots only: a root that left is dropped
                for root in session.alive_roots:
                    count, layers = drawn.get(root) or (0, deque(maxlen=_DOT_LAYERS))
                    layers.append(session.cubic(root))
                    extended[root] = (count + 1, layers)
                drawn = extended
                _write_dots(drawn, kb, dot_dir)
            if report.status == "unexplained":
                exit_code = 2
        elif verbose:
            idle = DiagnosisReport(
                tick=snapshot.tick,
                status="no_trigger",
                hypotheses=(),
                abnormal=tuple(snapshot.abnormal_items()),
                normal=tuple(snapshot.normal_items()),
                timing_ms=0.0,
            )
            _emit_report(idle, kb, out, pretty=pretty, with_timing=with_timing, cache=members)
    return exit_code


def _write_dots(
    drawn: dict[int, tuple[int, deque[CubicGraph]]], kb: KnowledgeBase, dot_dir: str
) -> None:
    directory = Path(dot_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for root, (count, layers) in drawn.items():
        name = f"cubic_B{root}_t{count}.dot"
        (directory / name).write_text(export_dot(layers, kb), encoding="utf-8")


# --- subcommands ------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    violations = validate_kb(kb)
    for v in violations:
        print(_ENCODER.encode(v.to_json()))
    return 1 if violations else 0


def _cmd_compile(args: argparse.Namespace) -> int:
    subgraphs = []
    for path in args.kbs:
        kb = _load_kb(path)
        # ``kb.arcs`` also holds the top-level arcs: split it, not the declared subgraphs
        subgraphs.extend(decompose(kb) if kb.doc_arcs or not kb.subducgs else kb.subducgs)
    selection = None
    if args.roots is not None:
        try:
            selection = [int(r) for r in args.roots.split(",")]
        except ValueError:
            print(f"error: --roots takes comma-separated root ids: {args.roots!r}", file=sys.stderr)
            return 1
    compiled = compile_kb(subgraphs, selection)
    Path(args.output).write_text(serialize_kb(compiled), encoding="utf-8")
    return 0


def _open_feed(args: argparse.Namespace) -> tuple[KnowledgeBase, Iterable[str]]:
    kb = _load_kb(args.kb)
    # A byte that is not UTF-8 stays in its field as a lone surrogate, so
    # the gateway warns about that field, whether the feed is a file or stdin.
    if getattr(args, "signals", None) is not None:
        lines = Path(args.signals).read_text(
            encoding="utf-8", errors="surrogateescape"
        ).splitlines()
    else:
        lines = sys.stdin
        if isinstance(lines, io.TextIOWrapper):  # its handler follows the locale
            lines.reconfigure(errors="surrogateescape")
    return kb, lines


def _cmd_replay(args: argparse.Namespace) -> int:
    kb, lines = _open_feed(args)
    return _run_feed(
        DiagnosisSession(kb),
        lines,
        sys.stdout,
        sys.stderr,
        verbose=args.verbose,
        pretty=args.pretty,
        with_timing=not args.no_timing,
        dot_dir=args.dot_dir,
        recovery_retrigger=not args.no_recovery_retrigger,
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    kb, lines = _open_feed(args)
    root_var = kb.variables.get(args.root)
    if root_var is None or root_var.kind != "B" or args.state not in root_var.abnormal_state_ids:
        print(
            f"error: root {args.root} state {args.state} is not a declared "
            "abnormal fault state",
            file=sys.stderr,
        )
        return 1
    session = DiagnosisSession(kb)
    # the evidence of the last triggering tick, which an all-normal recovery
    # is too, though it has nothing to diagnose; none before a trigger
    states: Mapping[int, int] = {}
    for snapshot, trigger, _ in _fold(session, lines, sys.stderr, not args.no_recovery_retrigger):
        if trigger:
            states = snapshot.assignments
    if args.root not in session.alive_roots:
        print(
            f"error: root {args.root} is not in the surviving hypothesis space",
            file=sys.stderr,
        )
        return 2
    sub = next(s for s in decompose(kb) if s.root == args.root)
    rows = predict(sub, states, kb, args.state)
    payload = {
        "root": args.root,
        "state": args.state,
        "predictions": [
            {"var": v, "state": s, "probability": p} for v, s, p in rows
        ],
    }
    print(_ENCODER.encode(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ducg",
        description="Causal fault diagnosis over streamed sensor evidence.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    feed = argparse.ArgumentParser(add_help=False)  # what every feed command reads
    feed.add_argument("--kb", required=True, help="knowledge base JSON file")
    feed.add_argument(
        "--no-recovery-retrigger",
        action="store_true",
        help="do not re-diagnose when an abnormal variable returns to normal",
    )
    reports = argparse.ArgumentParser(add_help=False)  # how replay and stream write reports
    reports.add_argument("--verbose", action="store_true", help="also report non-triggering ticks")
    reports.add_argument("--pretty", action="store_true", help="human tables instead of JSON lines")
    reports.add_argument("--no-timing", action="store_true", help="emit timing_ms as 0.0 (deterministic output)")
    reports.add_argument("--dot-dir", default=None, help="write per-root DOT graphs here")

    p = commands.add_parser("validate", help="rule-check a knowledge base")
    p.add_argument("kb")
    p.set_defaults(func=_cmd_validate)

    p = commands.add_parser("compile", help="fuse single-fault subgraphs into one KB")
    p.add_argument("kbs", nargs="+", help="input KB files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--roots", default=None, help="comma-separated root ids to include")
    p.set_defaults(func=_cmd_compile)

    p = commands.add_parser("replay", help="diagnose a recorded signal file", parents=[feed, reports])
    p.add_argument("--signals", required=True, help="CSV signal file")
    p.set_defaults(func=_cmd_replay)

    p = commands.add_parser("stream", help="diagnose a live feed on stdin", parents=[feed, reports])
    p.set_defaults(func=_cmd_replay)

    p = commands.add_parser("predict", help="forward-propagate a fault hypothesis", parents=[feed])
    p.add_argument("--signals", default=None, help="CSV signal file (default: stdin)")
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--state", type=int, required=True)
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, DucgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
