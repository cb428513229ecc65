"""One fresh interpreter of a benchmark run.

    python3 bench/child.py MODE WORKLOAD SEED

MODE is ``setup`` (import skeinkit, build the inputs, report ready and
exit), ``run`` (then run the workload's commands through the ``skein``
CLI), ``trace`` (the same with per-layer tracing installed) or
``oracle`` (recompute the drawn families' smallest members with the
clasped state sum).  Once skeinkit is imported and the inputs are
built, the child prints ``ready`` and the CPU seconds it has used so
far; its result comes as one JSON line at the end.  The projector cache
goes wherever ``SKEIN_CACHE_DIR`` points; the parent gives every child an
empty directory of its own, and sets ``SKEIN_THREADS`` to 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import skeinkit.cli  # noqa: E402

import refkernel  # noqa: E402
import workloads  # noqa: E402


def invoke(main, argv) -> dict:
    """Run one ``skein`` command in this process, as the CLI would."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args=list(argv), prog_name="skein", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed run
            code = -1
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {"argv": list(argv), "code": code, "seconds": seconds, "cpu": cpu,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


class Sampler(threading.Thread):
    """Times a short run of the reference kernel every ``interval``
    seconds while the commands run.

    A reading is (start on the ``time.perf_counter`` clock, CPU seconds
    of this thread).  Thread CPU time leaves out the time the kernel
    waits for the interpreter lock held by the program's threads, so it
    tracks only the machine's speed.
    """

    def __init__(self, interval: float = 0.25):
        super().__init__(daemon=True)
        self.interval = interval
        self.readings: list[tuple[float, float]] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(self.interval):
            start = time.perf_counter()
            self.readings.append(
                (start, refkernel.timed(refkernel.SAMPLER_ROUNDS)))


def run_commands(cmds, trace: bool) -> dict:
    main = skeinkit.cli.main.main
    recorder = None
    if trace:
        import tracer

        recorder = tracer.Recorder()
        wrapped = tracer.install(recorder)
        main = tracer.root_span(recorder, main)
    ref, results = [], []
    sampler = Sampler()
    origin = time.perf_counter()
    sampler.start()
    for cmd in cmds:
        ref.append(refkernel.sample())
        started = time.perf_counter()
        results.append(invoke(main, cmd.argv))
        results[-1]["span"] = (started - origin, time.perf_counter() - origin)
    ref.append(refkernel.sample())
    sampler.done.set()
    sampler.join()
    doc = {
        "commands": results,
        "ref_s": ref,
        "sampler": [(t - origin, cpu) for t, cpu in sampler.readings],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        doc["trace"] = recorder.summary()
        doc["trace"]["wrapped"] = wrapped
    return doc


def oracle_windows(cmds) -> dict:
    """Normalized windows of the oracle members, from the clasped state sum."""
    from skeinkit.algebra import delta, exact_div, substitute_quarter
    from skeinkit.diagram import pretzel
    from skeinkit.invariants import colored_state_sum
    from skeinkit.stability import normalize, window_from_reduced

    windows = {}
    for cmd in cmds:
        f = cmd.family
        for k in cmd.oracle:
            n = f.member_index(k) - 1
            value = colored_state_sum(pretzel(f.counts(k)), n).value
            qp = substitute_quarter(exact_div(value, delta(n)))
            count = f.rate(k) + 2
            windows[f"{f.text}@{k}"] = list(
                normalize(window_from_reduced(qp, count)).coeffs
            )
    return {"windows": windows}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    cmds = workloads.commands(workload, seed)
    print("ready", time.process_time(), flush=True)
    if mode == "setup":
        return 0
    if mode == "oracle":
        doc = oracle_windows(cmds)
    else:
        doc = run_commands(cmds, trace=(mode == "trace"))
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
