"""In-memory spans around finjet's public functions, installed from outside the package.

`Tracer.install` wraps every public module-level function of the traced
layers and rebinds the wrapper in every finjet module that holds the
original, including module-level registries such as `SUITES`: a
`from .x import f` copies the binding, so patching only the defining module
would miss most calls.  Validation hooks (`__post_init__`) are patched on
their classes.  Each thread appends to its own buffer, so spans from
`check --jobs 2` need no lock; every span keeps its parent (the enclosing
span of the same thread).  Nothing is written until `write` is called.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import types
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

# Layers in the order the benchmark reports them.
LAYERS = ("finset", "kripke", "relations", "jets", "polyfun", "fibdual", "workspace", "suites", "cli")

# (layer, class name) whose __post_init__ calls are counted and timed.
VALIDATED = (("finset", "FinMap"), ("kripke", "SubobjectAtStage"))

# Per-call work counts: span name -> size of the structure the call built.
MEASURES: dict[str, Callable[[object], int]] = {
    "jets.jet_bundle": lambda jb: len(jb.total),
    "polyfun.dependent_product": lambda dp: len(dp.result.total),
}


class _Buffer:
    """One thread's spans, as parallel arrays indexed by span id."""

    def __init__(self, thread: str):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu: dict[int, float] = {}  # span id -> thread CPU seconds
        self.counts: Counter = Counter()
        self.top = -1  # innermost open span


class Stats:
    """Aggregates for one span name."""

    __slots__ = ("calls", "total_s", "self_s", "cpu_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.cpu_s = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        cpu: bool = False,
        measure: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """fn with a span named `name` around every call."""
        nid = self.name_id(name)
        clock = self.clock
        buffer = self._buffer
        thread_time = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            sid = len(buf.start)
            prev = buf.top
            buf.name.append(nid)
            buf.parent.append(prev)
            buf.end.append(0.0)
            buf.top = sid
            c0 = thread_time() if cpu else 0.0
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[sid] = clock()
                buf.top = prev
                if cpu:
                    buf.cpu[sid] = thread_time() - c0
            if measure is not None:
                buf.counts[f"{name}.elements"] += measure(result)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """A generator function counted by calls and items yielded (no span: it interleaves)."""
        buffer = self._buffer

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            buffer().counts[f"{name}.calls"] += 1
            for item in fn(*args, **kwargs):
                buffer().counts[f"{name}.yielded"] += 1
                yield item

        return counted

    # -- installing into finjet -----------------------------------------

    def install(self, package: str = "finjet") -> None:
        """Wrap the public functions of every traced layer and rebind them package-wide."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        wrappers: dict[types.FunctionType, Callable] = {}
        for layer in LAYERS:
            mod = modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            registered = _registry_names(mod)
            for attr, fn in vars(mod).items():
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                if fn in registered:
                    name, cpu = f"{layer}.{registered[fn]}", True
                elif attr.startswith("_cmd_"):
                    name, cpu = f"{layer}.{attr[len('_cmd_'):]}", True
                elif not attr.startswith("_"):
                    name, cpu = f"{layer}.{attr}", False
                else:
                    continue
                if inspect.isgeneratorfunction(fn):
                    wrappers[fn] = self.wrap_generator(fn, name)
                else:
                    wrappers[fn] = self.wrap(fn, name, cpu=cpu, measure=MEASURES.get(name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            self._patch(value, key, wrappers[item])
        for layer, cls_name in VALIDATED:
            cls = getattr(modules.get(f"{package}.{layer}"), cls_name, None)
            hook = getattr(cls, "__post_init__", None)
            if hook is not None:
                self._patch(cls, "__post_init__", self.wrap(hook, f"{layer}.{cls_name}.__post_init__"))

    def _patch(self, container, key, value) -> None:
        original = container[key] if isinstance(container, dict) else getattr(container, key)
        self._patches.append((container, key, original))
        _assign(container, key, value)

    def uninstall(self) -> None:
        """Put every original binding back, last patch first."""
        while self._patches:
            _assign(*self._patches.pop())

    # -- reading ---------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self.buffers)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self.buffers:
            total.update(buf.counts)
        return total

    def _covered(self, buf: _Buffer) -> array:
        """Per span, the summed duration of its children (which never overlap)."""
        covered = array("d", bytes(8 * len(buf.start)))
        starts, ends, parents = buf.start, buf.end, buf.parent
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        return covered

    def stats(self, window: Optional[tuple[float, float]] = None) -> dict[str, Stats]:
        """Calls, total, self and CPU time per span name.

        Self time is a span's duration minus the part of it that its child
        spans cover.  With a window, only spans that start in it are counted.
        """
        out: dict[str, Stats] = {}
        for buf in self.buffers:
            covered = self._covered(buf)
            starts, ends, names = buf.start, buf.end, buf.name
            for i in range(len(starts)):
                if window is not None and not window[0] <= starts[i] < window[1]:
                    continue
                name = self.names[names[i]]
                st = out.get(name)
                if st is None:
                    st = out[name] = Stats()
                duration = ends[i] - starts[i]
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - covered[i]
                st.cpu_s += buf.cpu.get(i, 0.0)
        return out

    def folded(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per call path "outer;...;inner" (the folded-stack format)."""
        paths: dict[tuple[int, int], int] = {}  # (parent path id, name id) -> path id
        labels: list[str] = []
        calls: list[int] = []
        self_s: list[float] = []
        for buf in self.buffers:
            covered = self._covered(buf)
            path_of = array("i", bytes(4 * len(buf.start)))
            for i in range(len(buf.start)):
                p = buf.parent[i]
                key = (path_of[p] if p >= 0 else -1, buf.name[i])
                pid = paths.get(key)
                if pid is None:
                    pid = paths[key] = len(labels)
                    name = self.names[key[1]]
                    labels.append(f"{labels[key[0]]};{name}" if key[0] >= 0 else name)
                    calls.append(0)
                    self_s.append(0.0)
                path_of[i] = pid
                calls[pid] += 1
                self_s[pid] += buf.end[i] - buf.start[i] - covered[i]
        return {label: (calls[i], self_s[i]) for i, label in enumerate(labels)}

    def write(self, path: Path) -> None:
        """Write the spans as folded stacks: call path, calls, self seconds per line.

        One line per span would take about 80 bytes for each of the millions
        of spans a check run makes; the folded form keeps every parent link's
        information that the per-layer metrics use.
        """
        with open(path, "w", encoding="utf-8") as handle:
            for label, (count, seconds) in sorted(self.folded().items()):
                handle.write(f"{label}\t{count}\t{seconds:.9f}\n")


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _registry_names(mod) -> dict[types.FunctionType, str]:
    """Functions a module registers in a str-keyed module-level dict, by their key."""
    out = {}
    for value in vars(mod).values():
        if isinstance(value, dict):
            for key, item in value.items():
                if isinstance(key, str) and isinstance(item, types.FunctionType):
                    out.setdefault(item, key)
    return out
