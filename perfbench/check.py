"""Correctness checks behind ``fail_ratio`` and ``correct``.

* Reports are compared with a reference recorded from an earlier commit:
  tick, status, evidence and the ``(root, state)`` order must match exactly;
  ``posterior``/``joint``/``zeta``/``xi`` must agree within ``REL_TOL``
  relative, so an evaluator that sums in another order is not flagged.
* The fixture feeds under ``tests/data/`` must replay byte-identically with
  ``--no-timing``.
* On small graphs, ``zeta`` is recomputed by brute-force enumeration straight
  from the KB document, independent of the program.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Callable

from harness import invoke

REL_TOL = 1e-9
VALUE_KEYS = ("posterior", "joint", "zeta", "xi")
ORACLE_MAX_ASSIGNMENTS = 4096


def summarize(report: dict) -> list:
    """The parts of one JSON report line the reference holds."""
    return [
        report["tick"],
        report["status"],
        [[h["root"], h["state"]] + [h[k] for k in VALUE_KEYS] for h in report["hypotheses"]],
        [[e["var"], e["state"]] for e in report["evidence"]["abnormal"]],
        [[e["var"], e["state"]] for e in report["evidence"]["normal"]],
    ]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def same_report(got: list, want: list) -> bool:
    tick, status, hyps, abnormal, normal = got
    w_tick, w_status, w_hyps, w_abnormal, w_normal = want
    if (tick, status, abnormal, normal) != (w_tick, w_status, w_abnormal, w_normal):
        return False
    if [h[:2] for h in hyps] != [h[:2] for h in w_hyps]:
        return False
    return all(close(a, b) for h, w in zip(hyps, w_hyps) for a, b in zip(h[2:], w[2:]))


# --- fixtures ---------------------------------------------------------------------------

# (name, kb, signals, extra flags); outputs live in reference/fixtures.json.gz
FIXTURES = [
    ("tworoot", "tworoot_kb.json", "tworoot_signals.csv", []),
    ("tworoot_verbose", "tworoot_kb.json", "tworoot_signals.csv", ["--verbose"]),
    ("tworoot_pretty", "tworoot_kb.json", "tworoot_signals.csv", ["--pretty"]),
    ("tworoot_modular", "tworoot_modular_kb.json", "tworoot_signals.csv", []),
    ("tworoot_allnormal", "tworoot_kb.json", "tworoot_allnormal_signals.csv", []),
    ("tworoot_orphan", "tworoot_orphan_kb.json", "orphan_signals.csv", []),
    ("plant24", "plant24_kb.json", "plant24_signals.csv", []),
]


def replay_fixture(main: Callable, data: Path, kb: str, signals: str, flags: list[str]) -> tuple[int, str]:
    argv = ["replay", "--kb", str(data / kb), "--signals", str(data / signals), "--no-timing", *flags]
    inv = invoke(main, argv, [])
    return inv.exit_code, inv.out.text()


def check_fixtures(main: Callable, data: Path, expected: dict) -> list[str]:
    """Names of fixture replays whose exit code or bytes differ."""
    bad = []
    for name, kb, signals, flags in FIXTURES:
        code, text = replay_fixture(main, data, kb, signals, flags)
        want = expected.get(name)
        if want is None or want["exit_code"] != code or want["output"] != text:
            bad.append(name)
    return bad


# --- brute-force evidence probability ---------------------------------------------------


class KBDoc:
    """Just enough of a KB document to enumerate one root's slice."""

    def __init__(self, doc: dict):
        self.vars = {v["id"]: v for v in doc["variables"]}
        arcs = list(doc.get("arcs") or [])
        for sub in doc.get("subducgs") or []:
            arcs.extend(sub["arcs"])
        unique = {}
        for a in arcs:
            key = (a["child"], a["parent"], repr(a.get("condition")))
            unique.setdefault(key, a)
        self.arcs = list(unique.values())

    def states(self, var: int) -> list[int]:
        return [s["id"] for s in self.vars[var]["states"]]

    def _closure(self, start: set[int], edges: list[dict], down: bool) -> set[int]:
        step: dict[int, list[int]] = {}
        for a in edges:
            src, dst = (a["parent"], a["child"]) if down else (a["child"], a["parent"])
            step.setdefault(src, []).append(dst)
        seen = set(start)
        frontier = list(start)
        while frontier:
            for nxt in step.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def slice(self, root: int, evidence: dict[int, int]) -> tuple[set[int], list[dict], dict[int, int]]:
        """Variables, arcs and evidence of ``root``'s slice: arcs on a causal
        path from the root to an evidenced variable of its subgraph (KBs
        without conditions or default causes)."""
        plain = [a for a in self.arcs if a["child"] != a["parent"]]
        scope = self._closure({root}, plain, down=True)
        evidenced = {v: s for v, s in evidence.items() if v in scope}
        inner = [a for a in plain if a["child"] in scope and a["parent"] in scope]
        to_evidence = self._closure(set(evidenced), inner, down=False)
        kept = [a for a in inner if a["child"] in to_evidence]
        variables = {root} | set(evidenced)
        for a in kept:
            variables.update((a["parent"], a["child"]))
        return variables, kept, evidenced

    @staticmethod
    def intensity(arc: dict, child_state: int, parent_state: int) -> float:
        if parent_state == 0:
            return 1.0 if child_state == 0 else 0.0
        rows = arc["matrix"]
        row = rows.get(str(child_state), {})
        if str(parent_state) in row:
            return row[str(parent_state)]
        if child_state == 0:
            return 1.0 - sum(r.get(str(parent_state), 0.0) for k, r in rows.items() if k != "0")
        return 0.0

    def assignments(self, variables: set[int], evidence: dict[int, int]) -> int:
        n = 1
        for v in variables:
            if v not in evidence:
                n *= len(self.states(v))
        return n

    def zeta(self, root: int, evidence: dict[int, int]) -> float:
        """Pr{evidence} on ``root``'s slice, summed over every assignment."""
        variables, arcs, evidenced = self.slice(root, evidence)
        in_arcs: dict[int, list[dict]] = {}
        for a in arcs:
            in_arcs.setdefault(a["child"], []).append(a)
        free = sorted(v for v in variables if v not in evidenced)
        total = 0.0
        for combo in itertools.product(*(self.states(v) for v in free)):
            assign = dict(evidenced)
            assign.update(zip(free, combo))
            p = 1.0
            for v in variables:
                var = self.vars[v]
                s = assign[v]
                if var["kind"] == "B":
                    prior = {int(k): x for k, x in (var.get("prior") or {}).items()}
                    p *= 1.0 - sum(prior.values()) if s == 0 else prior.get(s, 0.0)
                elif in_arcs.get(v):
                    r = sum(a["weight"] for a in in_arcs[v])
                    p *= sum(a["weight"] / r * self.intensity(a, s, assign[a["parent"]])
                             for a in in_arcs[v])
                if p == 0.0:
                    break
            total += p
        return total

    def small_enough(self, root: int, evidence: dict[int, int]) -> bool:
        variables, _, evidenced = self.slice(root, evidence)
        return self.assignments(variables, evidenced) <= ORACLE_MAX_ASSIGNMENTS
