"""Host time per ``repro`` package, measured from outside the package.

:class:`LayerProfiler` patches the simulator while it is installed:

* ``Process.__init__`` wraps every spawned generator in a proxy that
  times each resume and bills it to the package that defined the
  generator (this also catches processes created with a direct
  ``Process(...)`` call, such as ``SSD.submit_direct``);
* the public entry points in :data:`ENTRY_POINTS` are wrapped too, so
  ``yield from`` chains and plain calls that cross a package boundary
  are split by layer.

Timers nest on one stack.  A layer's *self* time is its inclusive time
minus the time of the wrapped calls it made, so the self times of all
layers sum to the time spent inside the outermost wrapped calls
(normally ``Environment.run``).  Only per-entry-point aggregates are
kept: a run resumes generators millions of times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

#: the ``repro`` packages the benchmark reports, in stack order
LAYERS = (
    "sim", "hw", "oskernel", "spdk", "core", "reliability", "cache",
    "backends", "serving", "net", "obs", "workloads",
)

#: cross-package entry points: module -> {class: (method, ...)}.  Calls
#: are billed to the package of the module.  Calls that stay inside one
#: package are not wrapped: they would not change the layer split and
#: every timer costs about half a microsecond.  Names missing from the
#: code are skipped and reported, so a refactor that renames one loses
#: that split but does not stop the traced run.
ENTRY_POINTS = {
    "repro.sim.core": {"Environment": ("run",)},
    "repro.sim.links": {"BandwidthLink": ("transfer",)},
    "repro.sim.resources": {
        "Resource": ("request", "release"),
        "Store": ("put", "get"),
    },
    "repro.hw.ssd": {"SSD": ("submit_direct",)},
    "repro.hw.nvme": {"QueuePair": ("submit", "post_completion")},
    "repro.hw.faults": {"FaultInjector": ("check",)},
    "repro.hw.gpu": {"GPU": ("kernel_time",)},
    "repro.oskernel.blockio": {
        "CompletionDispatcher": ("register", "open_group", "expect", "seal"),
    },
    "repro.spdk.driver": {
        "SpdkDriver": ("io", "io_batch", "io_batch_reliable"),
    },
    "repro.core.control": {"CamManager": ("ring",)},
    "repro.core.api": {
        "CamDeviceAPI": (
            "prefetch", "prefetch_synchronize",
            "write_back", "write_back_synchronize",
        ),
    },
    "repro.reliability.manager": {"Reliability": ("run",)},
    "repro.reliability.watchdog": {
        "CompletionWatchdog": ("guard", "classify"),
    },
    "repro.reliability.health": {
        "HealthTracker": ("record_success", "record_failure", "allow"),
    },
    "repro.cache.gpucache": {
        "GpuCache": (
            "access_batch", "commit_demand", "commit_speculative",
            "abort_demand", "abort_speculative", "fill", "hit_seconds",
        ),
    },
    "repro.backends.planes": {"CamBackend": ("io",), "SpdkBackend": ("io",)},
    "repro.serving.engine": {"ServingEngine": ("run",)},
    "repro.serving.kvstore": {
        "KvBlockStore": ("acquire", "admit", "append_tokens", "pin", "unpin"),
    },
    "repro.net.fabric": {"FabricLink": ("transfer",)},
    "repro.net.remote": {"RemoteFlashBackend": ("io",)},
    "repro.net.tiered": {"TieredBackend": ("io", "flush", "sync")},
    "repro.obs.metrics": {
        "Metrics": (
            "batch_done", "request_done", "coalesced_group", "redrive",
            "failover", "core_resize", "stack_io_done",
        ),
        "Counter": ("inc", "set_total"),
        "Gauge": ("set", "add"),
        "Histogram": ("observe",),
    },
    "repro.workloads.trace": {"TraceReplayer": ("replay",)},
}

_BENCH_DIR = Path(__file__).resolve().parent


def layer_of(filename: str) -> str:
    """The ``repro`` package that owns ``filename``; ``bench`` for this
    benchmark's own code and ``other`` for everything else."""
    path = Path(filename)
    if _BENCH_DIR in path.parents:
        return "bench"
    parts = path.parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and parts[index + 1] in LAYERS:
            return parts[index + 1]
    return "other"


class _TimedGenerator:
    """Generator proxy that times every resume on the profiler stack."""

    __slots__ = ("_gen", "_stats", "_stack")

    def __init__(self, gen, stats: List[float], stack: List[float]):
        self._gen = gen
        self._stats = stats
        self._stack = stack

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        stack = self._stack
        start = perf_counter()
        stack.append(0.0)
        try:
            return self._gen.send(value)
        finally:
            elapsed = perf_counter() - start
            stats = self._stats
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - stack.pop()
            stack[-1] += elapsed

    def throw(self, *args):
        stack = self._stack
        start = perf_counter()
        stack.append(0.0)
        try:
            return self._gen.throw(*args)
        finally:
            elapsed = perf_counter() - start
            stats = self._stats
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - stack.pop()
            stack[-1] += elapsed

    def close(self):
        return self._gen.close()


def _timed_function(func, stats: List[float], stack: List[float]):
    @functools.wraps(func)
    def timed(*args, **kwargs):
        start = perf_counter()
        stack.append(0.0)
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - stack.pop()
            stack[-1] += elapsed

    return timed


def _timed_generator_function(func, stats, stack):
    @functools.wraps(func)
    def timed(*args, **kwargs):
        return _TimedGenerator(func(*args, **kwargs), stats, stack)

    return timed


class LayerProfiler:
    """Installs the timers, aggregates them, and removes them again.

    Use as a context manager around set-up *and* run, so processes
    spawned during set-up are proxied too; call :meth:`reset` where the
    timed phase starts.
    """

    def __init__(self):
        #: (layer, entry point) -> [calls, inclusive s, self s]
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        #: child-time accumulators of the open timers; the bottom slot
        #: collects the outermost calls
        self._stack: List[float] = [0.0]
        self._patches: list = []
        #: entry points named in :data:`ENTRY_POINTS` that do not exist
        self.missing: List[str] = []

    def _stats_for(self, layer: str, name: str) -> List[float]:
        stats = self.stats.get((layer, name))
        if stats is None:
            stats = self.stats[(layer, name)] = [0, 0.0, 0.0]
        return stats

    def reset(self) -> None:
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]
        self._stack[:] = [0.0]

    # -- installation ---------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def __enter__(self) -> "LayerProfiler":
        from repro.sim.core import Process

        stack = self._stack
        for module_name, classes in ENTRY_POINTS.items():
            layer = module_name.split(".")[1]
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for class_name, methods in classes.items():
                owner = getattr(module, class_name, None)
                for method in methods:
                    func = (
                        owner.__dict__.get(method)
                        if owner is not None else None
                    )
                    if not inspect.isfunction(func):
                        self.missing.append(f"{class_name}.{method}")
                        continue
                    stats = self._stats_for(layer, f"{class_name}.{method}")
                    wrap = (
                        _timed_generator_function
                        if inspect.isgeneratorfunction(func)
                        else _timed_function
                    )
                    self._patch(owner, method, wrap(func, stats, stack))

        original_init = Process.__init__
        by_code: Dict[object, List[float]] = {}
        stats_for = self._stats_for

        def init(process, env, generator, *args, **kwargs):
            code = getattr(generator, "gi_code", None)
            if code is not None:
                stats = by_code.get(code)
                if stats is None:
                    # co_qualname is new in Python 3.11
                    stats = by_code[code] = stats_for(
                        layer_of(code.co_filename),
                        getattr(code, "co_qualname", code.co_name),
                    )
                generator = _TimedGenerator(generator, stats, stack)
            original_init(process, env, generator, *args, **kwargs)

        self._patch(Process, "__init__", init)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting ------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` for every layer seen plus
        every layer in :data:`LAYERS`."""
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for (layer, _), (calls, _, self_s) in self.stats.items():
            row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += self_s
            row["calls"] += calls
        return out

    def top(self, count: int = 15):
        """The ``count`` entry points with the most self time, as
        ``(layer, name, calls, inclusive_s, self_s)``."""
        rows = [
            (layer, name, calls, incl, self_s)
            for (layer, name), (calls, incl, self_s) in self.stats.items()
            if calls
        ]
        rows.sort(key=lambda row: row[4], reverse=True)
        return rows[:count]
