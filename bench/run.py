"""The skeinkit benchmark: one workload, checked, with its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every operation runs in a fresh
interpreter (``bench/child.py``) through the ``skein`` CLI at its default
settings but two: ``SKEIN_CACHE_DIR`` is an empty directory per
interpreter, so no run reads a projector cache another wrote and nothing
is written under the home directory; and ``SKEIN_THREADS`` is 1, because
skeinkit's worker threads race on its factorial and loop-power lists and
then fail operations now and then (see the README).

With ``--trace 0`` the run repeats whole passes of the workload for
about ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it makes one plain pass and one traced pass and reports
the per-layer metrics.  Either way it checks every output (see
``checks.py``), writes a record of the run under ``bench/results/``,
and prints one JSON object as its last line.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(BENCH_DIR, "child.py")
RESULTS = os.path.join(BENCH_DIR, "results")

# The reference kernel's time on this 2-vCPU VM at its quiet moments
# (Python 3.11): command times are stated at this machine speed.
REF_NOMINAL_S = 0.018
SAMPLER_NOMINAL_S = REF_NOMINAL_S * refkernel.SAMPLER_ROUNDS / refkernel.ROUNDS

# set-up is sampled in fresh interpreters that exit once ready, on top of
# the one sample each pass gives
SETUP_SPAWNS = 10
# a child taking longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def _checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skeinkit", "cli.py")):
        raise BenchError(
            f"no skeinkit sources under {root}/src; run from a checkout's root"
        )
    return root


def spawn(mode: str, workload: str, seed: int, scratch: str) -> dict:
    """Run one child to its end; returns its setup time and its result."""
    cache = os.path.join(scratch, uuid.uuid4().hex)
    os.makedirs(cache)
    # one worker thread: the default pool races (README, "One worker thread")
    env = dict(os.environ, SKEIN_CACHE_DIR=cache, SKEIN_THREADS="1")
    argv = [sys.executable, CHILD, mode, workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # the watchdog covers the wait for "ready" as well as the rest
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(cache, ignore_errors=True)
    if timed_out.is_set():
        raise BenchError(f"{mode} child timed out after {CHILD_TIMEOUT_S}s")
    word, _, cpu = first.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} child failed (exit {proc.returncode}): "
                         f"{first}{err[-2000:]}")
    lines = rest.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {}
    doc["setup_s"] = float(cpu)
    doc["setup_wall_s"] = ready - t0
    doc["child_s"] = time.perf_counter() - t0
    return doc


def pass_wall(doc: dict) -> float:
    """The pass's command times in plain wall seconds."""
    return sum(c["seconds"] for c in doc["commands"])


def pass_wall_scaled(doc: dict) -> float:
    """The pass's command times at the reference speed; ``wall_s`` uses
    this (see the README).

    Each command's process CPU seconds, less the sampler's own CPU time
    inside it, times the mean of nominal over measured kernel time across
    the sampler's readings inside it; a command too short to hold one
    uses the kernel runs just before and just after it instead.
    """
    total = 0.0
    for i, c in enumerate(doc["commands"]):
        start, end = c["span"]
        inside = [cpu for t, cpu in doc["sampler"] if start <= t <= end]
        if inside:
            ratios = [SAMPLER_NOMINAL_S / r for r in inside]
        else:
            ratios = [REF_NOMINAL_S / r
                      for r in doc["ref_s"][i] + doc["ref_s"][i + 1]]
        total += (c["cpu"] - sum(inside)) * statistics.mean(ratios)
    return total


def check_passes(cmds, passes, oracle) -> list[list[checks.Op]]:
    """Ops of every pass.  Exact arithmetic must repeat exactly, so an op
    that passed its checks fails too when its output differs from the
    first output of that op that passed; a failed pass does not make the
    passes after it fail."""
    out = []
    for doc in passes:
        ops = []
        for cmd, result in zip(cmds, doc["commands"]):
            ops.extend(checks.check_command(cmd, result, oracle))
        out.append(ops)
    first: dict[str, str] = {}
    for ops in out:
        for i, op in enumerate(ops):
            if not op.ok:
                continue
            want = first.setdefault(op.id, op.sha256)
            if op.sha256 != want:
                ops[i] = checks.Op(op.id, False, "output differs from an "
                                   "earlier pass", op.sha256)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, ops, setups) -> dict:
    """Times and memory come from the passes whose every operation
    passed: a pass cut short by a failure did less work.  When no pass
    passed, all of them are used, and the run is not correct anyway."""
    checked = [d for d, p in zip(passes, ops) if all(op.ok for op in p)]
    passes = checked or passes
    return {
        "wall_s": metric(
            statistics.median(pass_wall_scaled(d) for d in passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            statistics.median(d["peak_rss_mb"] for d in passes), "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    t = traced["trace"]
    calls, incl, self_s = t["calls"], t["incl_s"], t["self_s"]

    def count(*names):
        return metric(sum(calls.get(n, 0) for n in names), "count")

    def secs(key):
        return metric(incl.get(key, 0.0), "s")

    return {
        "algebra.gcd_calls": count("algebra.poly_gcd"),
        "algebra.gcd_s": secs("gcd"),
        "algebra.reduce_calls": count("algebra.RationalFn.reduce"),
        "algebra.reduce_s": secs("reduce"),
        "algebra.exact_div_s": secs("exact_div"),
        "algebra.mul_calls": count("algebra.LaurentPoly.__mul__"),
        "algebra.self_s": metric(self_s["algebra"], "s"),
        "algebra.tet_calls": count("algebra.tet"),
        "algebra.tet_s": secs("tet"),
        "invariants.template_calls": count("invariants.build_fused_template"),
        "invariants.template_s": secs("template"),
        "planar.jones_wenzl_calls": count("planar.jones_wenzl"),
        "planar.jones_wenzl_s": secs("jones_wenzl"),
        "planar.compose_calls": count("planar.compose"),
        "planar.compose_s": secs("compose"),
        "planar.evaluate_s": secs("evaluate"),
        "planar.self_s": metric(self_s["planar"], "s"),
        "invariants.state_sum_s": secs("state_sum"),
        "diagram.self_s": metric(self_s["diagram"], "s"),
        "diagram.set_twists_calls": count("diagram.set_twists"),
        "stability.self_s": metric(self_s["stability"], "s"),
        "stability.window_calls": count("stability.window_from_reduced",
                                        "stability.window_from_bracket"),
        "invariants.self_s": metric(self_s["invariants"], "s"),
        "cli.self_s": metric(self_s["cli"], "s"),
        "trace.overhead_s": metric(
            pass_wall_scaled(traced) - pass_wall_scaled(plain), "s"),
    }


def _commit(root: str) -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256(root: str) -> str:
    """Digest of the skeinkit sources, which names the code measured even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "skeinkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run(args) -> dict:
    root = _checkout_root()
    cmds = workloads.commands(args.workload, args.seed)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = os.path.join(RESULTS, name + ".tmp")
    os.makedirs(scratch)
    try:
        setups = [spawn("setup", args.workload, args.seed, scratch)
                  for _ in range(SETUP_SPAWNS)]
        passes = []
        if args.trace:
            passes = [spawn(m, args.workload, args.seed, scratch)
                      for m in ("run", "trace")]
        else:
            began = time.perf_counter()
            while True:
                passes.append(spawn("run", args.workload, args.seed, scratch))
                longest = max(d["child_s"] for d in passes)
                if time.perf_counter() - began + longest > args.seconds:
                    break
        setups += passes
        oracle = {}
        if any(c.oracle for c in cmds):
            oracle = spawn("oracle", args.workload, args.seed, scratch)["windows"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = check_passes(cmds, passes, oracle)
    attempted = sum(len(p) for p in ops)
    failures = [op for p in ops for op in p if not op.ok]
    if args.trace:
        metrics = per_layer(passes[0], passes[1])
    else:
        metrics = end_to_end(passes, ops, [d["setup_s"] for d in setups])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": _commit(root),
            "source_sha256": _source_sha256(root),
        },
        "attempted": attempted,
        "failed": len(failures),
        "failures": [{"id": op.id, "reason": op.reason} for op in failures[:50]],
        "metrics": metrics,
        "setup_samples": [{"cpu_s": d["setup_s"], "wall_s": d["setup_wall_s"]}
                          for d in setups],
        "passes": [
            {
                "mode": m,
                "wall_raw_s": pass_wall(d),
                "cpu_raw_s": sum(c["cpu"] for c in d["commands"]),
                "wall_scaled_s": pass_wall_scaled(d),
                "setup_s": d["setup_s"],
                "setup_wall_s": d["setup_wall_s"],
                "peak_rss_mb": d["peak_rss_mb"],
                "reference_kernel_s": d["ref_s"],
                "sampler": d["sampler"],
                "spans": [c["span"] for c in d["commands"]],
                "commands": [{"argv": c["argv"], "code": c["code"],
                              "seconds": c["seconds"], "cpu": c["cpu"]}
                             for c in d["commands"]],
            }
            for m, d in zip(("run", "trace") if args.trace else ("run",) * len(passes),
                            passes)
        ],
        "outputs_sha256": {op.id: op.sha256 for op in ops[0]},
    }
    if args.trace:
        record["trace"] = passes[1]["trace"]
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
