"""A fixed pure-Python reference kernel, timed between and during operations.

It imports nothing from skeinkit, so its time tracks only the speed of
the machine at that moment: exact integer polynomial products in dicts,
the same kind of work skeinkit's arithmetic does.  Its cost is linear
in ``rounds``.
"""

from __future__ import annotations

import time

_BASE = {i: (i * 7919) % 101 - 50 for i in range(60)}
ROUNDS = 40  # a reading between commands
SAMPLER_ROUNDS = 10  # a reading while a command runs
CHECKSUM = {ROUNDS: 6, SAMPLER_ROUNDS: 5}  # kernel(rounds) on a correct run


def kernel(rounds: int = ROUNDS) -> int:
    acc = 0
    for r in range(rounds):
        out: dict[int, int] = {}
        for i, x in _BASE.items():
            for j, y in _BASE.items():
                out[i + j + r] = out.get(i + j + r, 0) + x * y
        acc += sum(out.values()) % 7
    return acc % 7


def timed(rounds: int = ROUNDS) -> float:
    """CPU seconds one run of the kernel takes now, on this thread: any
    wait for the interpreter lock is left out."""
    t0 = time.thread_time()
    value = kernel(rounds)
    elapsed = time.thread_time() - t0
    if value != CHECKSUM[rounds]:
        raise RuntimeError(f"reference kernel returned {value}, "
                           f"expected {CHECKSUM[rounds]}")
    return elapsed


def sample(runs: int = 3) -> list[float]:
    """Times of a few back-to-back kernel runs, one speed reading."""
    return [timed() for _ in range(runs)]
