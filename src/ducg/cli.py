"""``ducg`` command line: validate, compile, replay, stream, predict.

Exit codes: 0 — ran clean (including "nothing ever triggered"); 1 — I/O,
parse, or validation errors; 2 — some triggering tick ended unexplained (or a
predict target is outside the surviving hypothesis space).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import IO, Iterable

from . import __version__
from .algebra import RootLiteral
from .dot import export_dot
from .engine import DiagnosisReport, DiagnosisSession, SliceGraph, predict
from .errors import DucgError, OutOfRangeError
from .kb import KnowledgeBase, compile_kb, decompose, parse_kb, serialize_kb, validate_kb
from .signals import Reading, ingest_tick, iter_reading_groups, map_reading

_JSON_SEPARATORS = (",", ":")
_PROBABILITY_FLOOR = 1e-5


def _load_kb(path: str) -> KnowledgeBase:
    return parse_kb(Path(path).read_text(encoding="utf-8"))


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
) -> None:
    if pretty:
        _emit_pretty(report, kb, out, with_timing)
    else:
        out.write(json.dumps(_report_json(report, with_timing), separators=_JSON_SEPARATORS) + "\n")
    out.flush()


# --- feed loop ------------------------------------------------------------------


def _run_feed(
    kb: KnowledgeBase,
    lines: Iterable[str],
    out: IO[str],
    err: IO[str],
    *,
    verbose: bool = False,
    pretty: bool = False,
    with_timing: bool = True,
    dot_dir: str | None = None,
    recovery_retrigger: bool = True,
    session: DiagnosisSession | None = None,
) -> int:
    session = session or DiagnosisSession(kb, history=dot_dir is not None)
    prev = None
    exit_code = 0

    def warn(line_no: int, exc: Exception) -> None:
        print(f"warning: line {line_no}: {exc}", file=err)

    for tick, readings in iter_reading_groups(lines, on_error=warn):
        usable: list[Reading] = []
        for reading in readings:
            var_id = kb.measure_points.get(reading.measure_point)
            if var_id is None:
                print(
                    f"warning: tick {tick}: unknown measure point "
                    f"{reading.measure_point!r}",
                    file=err,
                )
                continue
            try:
                map_reading(kb.variables[var_id], reading.value)
            except OutOfRangeError as exc:
                print(f"warning: tick {tick}: {exc}", file=err)
                continue
            usable.append(reading)
        snapshot, trigger = ingest_tick(
            prev, usable, kb, retrigger_on_recovery=recovery_retrigger, tick=tick
        )
        prev = snapshot

        if trigger and snapshot.abnormal_set:
            report = session.diagnose_tick(snapshot)
            _emit_report(report, kb, out, pretty=pretty, with_timing=with_timing)
            if dot_dir is not None:
                _write_dots(report, kb, dot_dir)
            if report.status == "unexplained":
                exit_code = 2
        elif verbose:
            idle = DiagnosisReport(
                tick=tick,
                status="no_trigger",
                hypotheses=(),
                abnormal=tuple(snapshot.abnormal_items()),
                normal=tuple(snapshot.normal_items()),
                graphs={},
                timing_ms=0.0,
            )
            _emit_report(idle, kb, out, pretty=pretty, with_timing=with_timing)
    return exit_code


def _write_dots(report: DiagnosisReport, kb: KnowledgeBase, dot_dir: str) -> None:
    directory = Path(dot_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for root in sorted(report.graphs):
        cubic = report.graphs[root]
        name = f"cubic_B{root}_t{len(cubic.slices)}.dot"
        (directory / name).write_text(export_dot(cubic, kb), encoding="utf-8")


# --- subcommands ------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    violations = validate_kb(kb)
    for v in violations:
        print(json.dumps(v.to_json(), separators=_JSON_SEPARATORS))
    return 1 if violations else 0


def _cmd_compile(args: argparse.Namespace) -> int:
    subgraphs = []
    for path in args.kbs:
        kb = _load_kb(path)
        subgraphs.extend(kb.subducgs if kb.subducgs else decompose(kb))
    selection = None
    if args.roots:
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
    if getattr(args, "signals", None) is not None:
        lines = Path(args.signals).read_text(encoding="utf-8").splitlines()
    else:
        lines = sys.stdin
    return kb, lines


def _cmd_replay(args: argparse.Namespace) -> int:
    kb, lines = _open_feed(args)
    return _run_feed(
        kb,
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
    if (
        root_var is None
        or root_var.kind != "B"
        or not root_var.has_state(args.state)
        or args.state == 0
    ):
        print(
            f"error: root {args.root} state {args.state} is not a declared "
            "abnormal fault state",
            file=sys.stderr,
        )
        return 1
    session = DiagnosisSession(kb)
    _run_feed(
        kb,
        lines,
        _NullWriter(),
        sys.stderr,
        with_timing=False,
        recovery_retrigger=not args.no_recovery_retrigger,
        session=session,
    )
    cubic = session.cubic(args.root)
    if cubic is not None:
        g = cubic.latest
    elif args.root in session.alive_roots:  # nothing triggered: no evidence yet
        sub = next(s for s in decompose(kb) if s.root == args.root)
        g = SliceGraph(args.root, 0, frozenset(), (), {}, sub.variable_ids, True, ())
    else:
        print(
            f"error: root {args.root} is not in the surviving hypothesis space",
            file=sys.stderr,
        )
        return 2

    rows = predict(g, kb, RootLiteral(args.root, args.state))
    payload = {
        "root": args.root,
        "state": args.state,
        "predictions": [
            {"var": v, "state": s, "probability": p} for v, s, p in rows
        ],
    }
    print(json.dumps(payload, separators=_JSON_SEPARATORS))
    return 0


class _NullWriter:
    def write(self, _text: str) -> None:
        pass

    def flush(self) -> None:
        pass


def _add_feed_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kb", required=True, help="knowledge base JSON file")
    sub.add_argument("--verbose", action="store_true", help="also report non-triggering ticks")
    sub.add_argument("--pretty", action="store_true", help="human tables instead of JSON lines")
    sub.add_argument("--no-timing", action="store_true", help="emit timing_ms as 0.0 (deterministic output)")
    sub.add_argument("--dot-dir", default=None, help="write per-root DOT graphs here")
    sub.add_argument(
        "--no-recovery-retrigger",
        action="store_true",
        help="do not re-diagnose when an abnormal variable returns to normal",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ducg",
        description="Causal fault diagnosis over streamed sensor evidence.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="rule-check a knowledge base")
    p.add_argument("kb")
    p.set_defaults(func=_cmd_validate)

    p = commands.add_parser("compile", help="fuse single-fault subgraphs into one KB")
    p.add_argument("kbs", nargs="+", help="input KB files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--roots", default=None, help="comma-separated root ids to include")
    p.set_defaults(func=_cmd_compile)

    p = commands.add_parser("replay", help="diagnose a recorded signal file")
    _add_feed_flags(p)
    p.add_argument("--signals", required=True, help="CSV signal file")
    p.set_defaults(func=_cmd_replay)

    p = commands.add_parser("stream", help="diagnose a live feed on stdin")
    _add_feed_flags(p)
    p.set_defaults(func=_cmd_replay)

    p = commands.add_parser("predict", help="forward-propagate a fault hypothesis")
    p.add_argument("--kb", required=True)
    p.add_argument("--signals", default=None, help="CSV signal file (default: stdin)")
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--state", type=int, required=True)
    p.add_argument(
        "--no-recovery-retrigger",
        action="store_true",
        help=argparse.SUPPRESS,
    )
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DucgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
