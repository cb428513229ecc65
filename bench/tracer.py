"""Per-layer accounting for a traced run, installed from outside skeinkit.

``install`` wraps every public function of the six layer modules, the
public and arithmetic methods of their classes, and any private function
another module imports, then rebinds each name in every module that
holds it (``from .algebra import tet`` gives each importer its own
binding), so every call goes through exactly one wrapper.

A call that enters a layer from another layer opens a span; a layer's
self time is the time of its spans minus the time of the spans they
open in other layers.  Times are thread CPU seconds
(``time.thread_time``): the CLI runs family members on a thread pool,
and under the interpreter lock a thread's wall time would also count
the time it waits for the other thread.  Counters and spans are kept
per thread and merged at the end, so call counts repeat exactly.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time

LAYERS = ("cli", "stability", "invariants", "diagram", "planar", "algebra")

# dunder methods that do a layer's work, wrapped next to public methods
_WORK_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    "__eq__", "__call__",
})

# functions whose inclusive time is reported; the outermost call per
# thread counts, so recursion is not counted twice
TIMED = {
    "algebra.poly_gcd": "gcd",
    "algebra.RationalFn.reduce": "reduce",
    "algebra.exact_div": "exact_div",
    "algebra.tet": "tet",
    "invariants.build_fused_template": "template",
    "invariants.colored_state_sum": "state_sum",
    "invariants.bracket_state_sum": "state_sum",
    "planar.jones_wenzl": "jones_wenzl",
    "planar.compose": "compose",
    "planar.evaluate": "evaluate",
}

CLOCK = time.thread_time


class _Thread:
    __slots__ = ("name", "stack", "calls", "depth", "incl", "self_s", "spans")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.spans: int = 0


class Recorder:
    """Span and counter store; one per traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []

    def _thread(self) -> _Thread:
        td = getattr(self._local, "td", None)
        if td is None:
            td = _Thread(threading.current_thread().name)
            self._local.td = td
            with self._lock:
                self._threads.append(td)
        return td

    def wrap(self, layer: str, qual: str, fn):
        timed = TIMED.get(qual)
        thread = self._thread

        def traced(*args, **kwargs):
            td = thread()
            calls = td.calls
            calls[qual] = calls.get(qual, 0) + 1
            stack = td.stack
            cross = not stack or stack[-1][0] != layer
            if timed is None and not cross:
                return fn(*args, **kwargs)
            if timed is not None:
                outer = td.depth.get(timed, 0)
                td.depth[timed] = outer + 1
            if cross:
                frame = [layer, 0.0]
                stack.append(frame)
                td.spans += 1
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = CLOCK() - t0
                if timed is not None:
                    td.depth[timed] = outer
                    if outer == 0:
                        td.incl[timed] = td.incl.get(timed, 0.0) + dt
                if cross:
                    stack.pop()
                    td.self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qual)
        traced.__qualname__ = getattr(fn, "__qualname__", qual)
        return traced

    def summary(self) -> dict:
        """Counters merged over threads, plus each thread's own split."""
        with self._lock:
            threads = list(self._threads)
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        per_thread = []
        for td in threads:
            for k, v in td.calls.items():
                calls[k] = calls.get(k, 0) + v
            for k, v in td.incl.items():
                incl[k] = incl.get(k, 0.0) + v
            for k, v in td.self_s.items():
                self_s[k] += v
            per_thread.append({"thread": td.name, "spans": td.spans,
                               "self_s": dict(td.self_s)})
        return {"calls": dict(sorted(calls.items())), "incl_s": incl,
                "self_s": self_s, "threads": per_thread}


def _targets(modules: dict):
    """(layer, qualified name, owner, attribute, original) to wrap."""
    bound_elsewhere: dict[int, int] = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            if inspect.isfunction(obj):
                bound_elsewhere[id(obj)] = bound_elsewhere.get(id(obj), 0) + 1
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if not name.startswith("_") or bound_elsewhere[id(obj)] > 1:
                    yield layer, f"{layer}.{name}", mod, name, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in _WORK_DUNDERS:
                        continue
                    yield layer, f"{layer}.{name}.{attr}", obj, attr, raw


def install(recorder: Recorder) -> int:
    """Wrap the layer modules' functions; returns how many were wrapped."""
    modules = {name: importlib.import_module(f"skeinkit.{name}") for name in LAYERS}
    holders = [importlib.import_module("skeinkit"), *modules.values()]
    replaced: dict[int, object] = {}
    count = 0
    for layer, qual, owner, attr, raw in _targets(modules):
        if isinstance(raw, (classmethod, staticmethod)):
            inner = recorder.wrap(layer, qual, raw.__func__)
            setattr(owner, attr, type(raw)(inner))
        elif inspect.isfunction(raw):
            wrapped = recorder.wrap(layer, qual, raw)
            setattr(owner, attr, wrapped)
            if not inspect.isclass(owner):
                replaced[id(raw)] = wrapped
        else:
            continue
        count += 1
    for mod in holders:
        for name, obj in list(vars(mod).items()):
            wrapped = replaced.get(id(obj))
            if wrapped is not None:
                setattr(mod, name, wrapped)
    return count


def root_span(recorder: Recorder, fn):
    """``fn`` as a call into the cli layer from outside the program."""
    return recorder.wrap("cli", "cli.main", fn)
