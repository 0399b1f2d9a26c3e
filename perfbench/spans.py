"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the simulator's layers from the
outside (nothing under ``src/`` changes) and keeps, per thread, one
aggregate per span name: self time (span minus the child spans that ran
inside it on the same thread), inclusive time and call count. Counters
ride on the same wrappers. ``SpanTracer.patches.restore()`` puts every
original function back, so an untraced run later in the process runs
exactly the code it would have run without tracing.

Engine callbacks are attributed by wrapping ``SimEngine.schedule``: each
scheduled callback is replaced by a span named after the object it is
bound to (the memory controller or a CPU core).

Worker processes are forked from the benchmark process after the
wrappers are installed, so they run wrapped code too. The worker entry
points of the engine's two execution tiers are wrapped as boundaries:
on its first task a worker drops the aggregates it inherited from the
parent, and after every task it rewrites ``<spool>/<pid>.json`` with its
totals, which :meth:`SpanTracer.collect` merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter


class _ThreadState:
    """Span stack and aggregates of one thread."""

    __slots__ = ("stack", "spans", "counts", "driver")

    def __init__(self) -> None:
        #: Child-time accumulator of every open span, innermost last.
        self.stack: List[float] = []
        #: name -> [self_s, calls, total_s]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.driver = False


class SpanTracer:
    """Installs span wrappers, aggregates spans and restores originals."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.parent_pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self.patches = Patches()
        #: (workers, inclusive seconds) of every execute_plan call that
        #: dispatched work to a pool.
        self.plans: List[tuple] = []
        self._worker_pid: Optional[int] = None
        self._worker_depth = 0
        self._worker_busy = 0.0

    # -- per-thread state ---------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def mark_driver(self) -> None:
        """Count the calling thread's spans towards the attributed share
        of the timed operation (``bench.unattributed_ratio``)."""
        self._state().driver = True

    def count(self, name: str, value: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    # -- wrappers -------------------------------------------------------

    def span(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span called ``name``. ``on_result(state,
        args, kwargs, result, elapsed)`` runs after each call."""
        get_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            stack.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = state.spans.get(name)
                if record is None:
                    record = state.spans[name] = [0.0, 0, 0.0]
                record[0] += elapsed - child
                record[1] += 1
                record[2] += elapsed
            if on_result is not None:
                on_result(state, args, kwargs, result, elapsed)
            return result

        return wrapper

    def worker_boundary(self, fn: Callable) -> Callable:
        """Wrap a pool-worker entry point: reset inherited aggregates on
        a worker's first task, time the task, spool totals after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid == self.parent_pid:
                return fn(*args, **kwargs)
            if self._worker_pid != pid:
                self._reset_for_worker(pid)
            self._worker_depth += 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._worker_depth -= 1
                if self._worker_depth == 0:
                    self._worker_busy += _perf() - start
                    self._spool()

        return wrapper

    def _reset_for_worker(self, pid: int) -> None:
        self._worker_pid = pid
        self._worker_depth = 0
        self._worker_busy = 0.0
        self._lock = threading.Lock()
        self._states = []
        self._local = threading.local()
        self.plans = []

    def _spool(self) -> None:
        payload = {"pid": os.getpid(), "busy_s": self._worker_busy,
                   **self._totals()}
        path = self.spool_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    # -- patching -------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str,
                     on_result: Optional[Callable] = None) -> None:
        self.patches.attr(cls, attr,
                          self.span(cls.__dict__[attr], name, on_result))

    # -- results ----------------------------------------------------------

    def _totals(self, driver_only: bool = False) -> Dict[str, Dict]:
        totals: Dict[str, Dict] = {"spans": {}, "counts": {}}
        for state in list(self._states):
            if state.driver or not driver_only:
                _add(totals, {"spans": dict(state.spans),
                              "counts": dict(state.counts)})
        return totals

    def collect(self) -> Dict[str, object]:
        """Parent totals merged with every worker's spooled totals."""
        totals = self._totals()
        busy = 0.0
        workers = sorted(self.spool_dir.glob("*.json"))
        for path in workers:
            payload = json.loads(path.read_text())
            busy += payload["busy_s"]
            _add(totals, payload)
        driver = self._totals(driver_only=True)["spans"]
        return {
            **totals,
            "worker_busy_s": busy,
            "worker_processes": len(workers),
            "driver_self_s": sum(record[0] for record in driver.values()),
            "driver_threads": sum(1 for state in self._states
                                  if state.driver),
            "plans": list(self.plans),
        }


def _add(totals: Dict[str, Dict], more: Dict[str, Dict]) -> None:
    """Add ``more``'s span aggregates and counters into ``totals``."""
    spans, counts = totals["spans"], totals["counts"]
    for name, (self_s, calls, total) in more["spans"].items():
        record = spans.setdefault(name, [0.0, 0, 0.0])
        record[0] += self_s
        record[1] += calls
        record[2] += total
    for name, value in more["counts"].items():
        counts[name] = counts.get(name, 0) + value


def import_repro() -> None:
    """Import every module of the ``repro`` package (but no
    ``__main__``), so that :class:`Patches` sees every module that holds
    a function it rebinds. A module first imported while a replacement
    is in place would keep it after :meth:`Patches.restore`."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Patches:
    """Temporary rebinding of ``repro`` functions and class attributes,
    undone by :meth:`restore` (or on leaving a ``with`` block)."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []
        self._restored: List[tuple] = []

    def function(self, fn: Callable, replacement: Callable) -> None:
        """Rebind ``fn`` to ``replacement`` in every loaded ``repro``
        module whose namespace holds it."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.attr(module, attr, replacement)

    def attr(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, vars(owner)[name], replacement))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        self._restored += self._undo
        while self._undo:
            owner, name, original, _ = self._undo.pop()
            setattr(owner, name, original)

    def still_patched(self) -> List[str]:
        """Where a replacement is left after :meth:`restore`: patched
        attributes that did not get their original back, and ``repro``
        module names bound to a replacement (empty when every
        replacement is gone)."""
        left = [f"{getattr(owner, '__name__', owner)}.{name}"
                for owner, name, original, _ in self._restored
                if vars(owner).get(name) is not original]
        replacements = [entry[3] for entry in self._restored]
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if any(value is replacement for replacement in replacements):
                    left.append(f"{module.__name__}.{attr}")
        return left

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
