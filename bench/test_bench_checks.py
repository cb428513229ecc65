"""The benchmark's checks count wrong outputs as failed operations.

These tests use captured-output fixtures only; they import nothing from
skeinkit and run in well under a second.
"""

from __future__ import annotations

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COLOR_LOCKED = workloads.Command(
    ("table",), family=workloads.Family(("2", "5", "k"), "k+1", 1, 6, workloads.T4, "k+1"))


def table_result(rows) -> dict:
    doc = {"family": "", "rows": [{"parameter": k, "window": w} for k, w in rows]}
    return {"code": 0, "stdout": json.dumps(doc), "stderr": ""}


def good_rows():
    return [(k, list(workloads.T4[: k + 1])) for k in range(1, 7)]


def tail_result(f: workloads.Family, windows: dict) -> dict:
    """A tail report as the CLI prints it, built from full windows."""
    params = list(f.parameters())
    steps = []
    for k in params[:-1]:
        left, right = windows[k], windows[k + 1]
        need = f.rate(k)
        agree = checks._shared(left, right)
        show = min(max(need, agree + 1), len(left), len(right))
        steps.append({"parameter": k, "left": left[:show], "right": right[:show]})
    doc = {"parameters": params, "steps": steps,
           "tail": {"coeffs": windows[params[-1]][: f.rate(params[-1])]}}
    return {"code": 0, "stdout": json.dumps(doc), "stderr": ""}


def suite_result(cmd, failing=()) -> dict:
    doc = {"suite": cmd.suite, "passed": not failing, "checks": [
        {"name": n, "passed": n not in failing, "detail": "x"} for n in cmd.checks
    ]}
    return {"code": 1 if failing else 0, "stdout": json.dumps(doc), "stderr": ""}


def failed(ops):
    return {op.id for op in ops if not op.ok}


def test_correct_table_passes():
    ops = checks.check_command(COLOR_LOCKED, table_result(good_rows()), {})
    assert len(ops) == 6 and failed(ops) == set()


def test_flipped_coefficient_fails_its_member():
    rows = good_rows()
    rows[3][1][2] = -rows[3][1][2]
    ops = checks.check_command(COLOR_LOCKED, table_result(rows), {})
    assert failed(ops) == {"2,5,k@3", "2,5,k@4"}


def test_wrong_published_row_fails_every_member_it_covers():
    wrong = list(workloads.T4)
    wrong[1] = 1
    cmd = workloads.Command(
        ("table",),
        family=workloads.Family(("2", "5", "k"), "k+1", 1, 6, tuple(wrong), "k+1"),
    )
    ops = checks.check_command(cmd, table_result(good_rows()), {})
    assert failed(ops) == {f"2,5,k@{k}" for k in range(1, 7)}


def test_failing_suite_check_fails_that_check_only():
    cmd = workloads.commands("oracle-suites", 1)[0]
    ops = checks.check_command(cmd, suite_result(cmd), {})
    assert len(ops) == len(cmd.checks) and failed(ops) == set()
    bad = cmd.checks[2]
    ops = checks.check_command(cmd, suite_result(cmd, failing=(bad,)), {})
    assert failed(ops) == {f"{cmd.suite}:{bad}"}


def test_crashed_command_fails_every_operation():
    cmd = workloads.commands("oracle-suites", 1)[1]
    ops = checks.check_command(cmd, {"code": -1, "stdout": "", "stderr": "boom"}, {})
    assert len(failed(ops)) == len(cmd.checks)


def test_pass_that_differs_fails_but_a_crashed_pass_does_not_spread():
    crashed = {"code": -1, "stdout": "", "stderr": "boom"}
    good = table_result(good_rows())
    rows = good_rows()
    rows[5] = (6, rows[5][1] + [9])  # passes its checks, but differs
    other = table_result(rows)
    passes = [{"commands": [r]} for r in (crashed, good, good, other)]
    ops = run.check_passes([COLOR_LOCKED], passes, {})
    assert [len(failed(p)) for p in ops] == [6, 0, 0, 1]
    assert failed(ops[3]) == {"2,5,k@6"}


def _drawn_windows(f):
    # windows that share exactly what the rate guarantees and no more
    out = {}
    for k in f.parameters():
        out[k] = [1, -1] + [k] * (f.rate(k) + 2)
    return out


def test_tail_checks_rate_and_oracle():
    f = workloads.draw_families(workloads.DEFAULT_SEED)[0]
    cmd = workloads.Command(("tail",), family=f, oracle=(1, 2))
    wins = _drawn_windows(f)
    oracle = {f"{f.text}@{k}": wins[k] for k in (1, 2)}
    ops = checks.check_command(cmd, tail_result(f, wins), oracle)
    assert len(ops) == f.stop and failed(ops) == {
        f"{f.text}@{k}" for k in f.parameters() if k < f.stop
    }  # these windows share only two coefficients, below every rate

    shared = {k: [1, -1, 3, -4] * 40 for k in f.parameters()}
    ops = checks.check_command(cmd, tail_result(f, shared), {
        f"{f.text}@{k}": shared[k] for k in (1, 2)})
    assert failed(ops) == set()

    flipped = copy.deepcopy(shared)
    flipped[5][3] = 4
    ops = checks.check_command(cmd, tail_result(f, flipped), {})
    assert failed(ops) == {f"{f.text}@4", f"{f.text}@5"}

    wrong_oracle = {f"{f.text}@1": [1, -1, 3, 4]}
    ops = checks.check_command(cmd, tail_result(f, shared), wrong_oracle)
    assert failed(ops) == {f"{f.text}@1"}


def test_seed_gives_the_same_commands():
    assert workloads.commands("fixed-color", 7) == workloads.commands("fixed-color", 7)
    assert workloads.commands("fixed-color", 7) != workloads.commands("fixed-color", 8)
