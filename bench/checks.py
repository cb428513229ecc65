"""Correctness checks on the CLI's outputs, made apart from the program.

Every operation is one family member (a row of ``skein table`` or a
member of ``skein tail``) or one check of a ``skein verify`` suite.  An
operation fails when its command fails, when its output is missing, or
when any check below fails for it:

* a member's normalized window starts with the paper's published row,
  for as many coefficients as the published row of that member has;
* consecutive members share at least as many coefficients as the
  paper's stability rate guarantees, counted here from the windows (the
  step ``passed`` flags the CLI prints are not read);
* the drawn families' smallest members equal the clasped state sum;
* every suite check reports passed.

This module imports nothing from skeinkit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from workloads import Command, Family


@dataclass(frozen=True)
class Op:
    """The outcome of one operation."""

    id: str
    ok: bool
    reason: str
    sha256: str


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _shared(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _table_windows(doc) -> tuple[dict, list]:
    windows = {row["parameter"]: list(row["window"]) for row in doc["rows"]}
    return windows, []


def _tail_windows(doc) -> tuple[dict, list]:
    """Each member's longest window in the report, and the step pairs.

    Step i compares members i and i+1 and shows both windows cut to the
    same length; the tail is the last member's window cut to the rate.
    A member's pieces must be prefixes of one another.
    """
    params = doc["parameters"]
    pieces = {k: [] for k in params}
    pairs = []
    for step, (left_k, right_k) in zip(doc["steps"], zip(params, params[1:])):
        pieces[left_k].append(list(step["left"]))
        pieces[right_k].append(list(step["right"]))
        pairs.append((left_k, list(step["left"]), list(step["right"])))
    if params:
        pieces[params[-1]].append(list(doc["tail"]["coeffs"]))
    windows = {}
    for k, seen in pieces.items():
        longest = max(seen, key=len, default=[])
        if all(longest[: len(p)] == p for p in seen):
            windows[k] = longest
        else:
            windows[k] = None  # the report contradicts itself
    return windows, pairs


def check_family(f: Family, windows: dict, pairs: list,
                 oracle: dict) -> list[Op]:
    """One operation per member of ``f``."""
    ops = []
    if not pairs:
        ks = sorted(windows)
        pairs = [(a, windows[a], windows[b]) for a, b in zip(ks, ks[1:])
                 if windows[a] is not None and windows[b] is not None]
    step = {k: (left, right) for k, left, right in pairs}
    for k in f.parameters():
        op_id = f"{f.text}@{k}"
        window = windows.get(k)
        reason = ""
        if window is None:
            reason = "missing or inconsistent window"
        else:
            if f.published is not None:
                width = min(f.published_width(k), len(f.published))
                if window[:width] != list(f.published[:width]):
                    reason = (f"window {window[:width]} does not start with "
                              f"the published row {list(f.published[:width])}")
            if not reason and k < f.stop:
                left, right = step.get(k, (None, None))
                need = f.rate(k)
                if left is None:
                    reason = f"no comparison with member {k + 1}"
                elif _shared(left, right) < need:
                    reason = (f"shares {_shared(left, right)} coefficients with "
                              f"member {k + 1}, the rate guarantees {need}")
            want = oracle.get(op_id)
            if not reason and want is not None:
                m = min(len(want), len(window))
                if window[:m] != want[:m]:
                    reason = (f"window {window[:m]} differs from the clasped "
                              f"state sum {want[:m]}")
        ops.append(Op(op_id, not reason, reason, _digest(window)))
    return ops


def check_suite(cmd: Command, doc) -> list[Op]:
    """One operation per expected check of the suite."""
    reported = {c["name"]: c for c in doc.get("checks", [])}
    ops = []
    for name in cmd.checks:
        c = reported.get(name)
        if c is None:
            ops.append(Op(f"{cmd.suite}:{name}", False, "check not reported",
                          _digest(None)))
            continue
        ok = c.get("passed") is True
        ops.append(Op(f"{cmd.suite}:{name}", ok,
                      "" if ok else f"check failed: {c.get('detail')}",
                      _digest([name, c.get("passed"), c.get("detail")])))
    return ops


def expected_ops(cmd: Command) -> list[str]:
    if cmd.family is not None:
        return [f"{cmd.family.text}@{k}" for k in cmd.family.parameters()]
    return [f"{cmd.suite}:{name}" for name in cmd.checks]


def check_command(cmd: Command, result: dict, oracle: dict) -> list[Op]:
    """Check one command's captured output; every op fails if it crashed."""
    doc = None
    if result["code"] == 0 or cmd.suite is not None:
        try:
            doc = json.loads(result["stdout"])
        except ValueError:
            doc = None
    if doc is None:
        why = f"command exited {result['code']}: {result['stderr'][-300:]}"
        return [Op(i, False, why, _digest(None)) for i in expected_ops(cmd)]
    if cmd.suite is not None:
        return check_suite(cmd, doc)
    if cmd.argv[0] == "table":
        windows, pairs = _table_windows(doc)
    else:
        windows, pairs = _tail_windows(doc)
    return check_family(cmd.family, windows, pairs, oracle)
