"""Which public functions of ``src/repro`` form each traced layer, and
how the per-layer metrics are derived from the spans.

Span names are ``<module>.<what>``, after the ``repro`` package that
owns the code: ``trace``, ``cache``, ``kernel``, ``core``, ``power``,
``sim``, ``experiments``, ``explore`` and ``service``.
"""

from __future__ import annotations

import functools
from concurrent.futures import process as futures_process
from typing import Dict, Optional

from spans import SpanTracer

#: Public ``WriteOperation`` methods timed as ``core.write_op``: its
#: construction (which plans the write) and the allocation profiles.
WRITE_OP_METHODS = ("__init__", "apply_multi_reset", "dimm_alloc",
                    "chip_alloc", "dimm_profile", "chip_profile",
                    "chip_plan", "chip_counts_plan")


def _public_methods(cls):
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, (staticmethod, classmethod, type))]


def install(tracer: SpanTracer) -> None:
    """Wrap every layer's public functions (see the module docstring)."""
    from repro.cache.hierarchy import CoreHierarchy
    from repro.core.policies.base import PowerManager
    from repro.core.write_op import WriteOperation
    from repro.experiments import batch, engine
    from repro.explore import pareto
    from repro.explore.session import ExploreSession
    from repro.kernel.reference import ReferenceKernel
    from repro.kernel.vectorized import VectorizedKernel
    from repro.power.gcp import GlobalChargePump
    from repro.power.tokens import ChipTokenLedger, TokenPool
    from repro.service.schemas import SimRequest, SimResponse
    from repro.sim import runner
    from repro.sim.cpu import Core
    from repro.sim.events import SimEngine
    from repro.sim.memory_system import MemorySystem
    from repro.sim.simcache import SimCache
    from repro.trace import generator

    def function(fn, name, on_result=None):
        tracer.patches.function(fn, tracer.span(fn, name, on_result))

    function(generator.generate_trace, "trace.generate")
    tracer.patch_method(CoreHierarchy, "access", "cache.access")

    for cls in (ReferenceKernel, VectorizedKernel):
        tracer.patch_method(cls, "sample_iterations", "kernel.sample")
        tracer.patch_method(cls, "plan", "kernel.plan")

    for attr in WRITE_OP_METHODS:
        tracer.patch_method(WriteOperation, attr, "core.write_op")

    def granted(state, args, kwargs, result, elapsed):
        counts = state.counts
        counts["core.power_decisions"] = (
            counts.get("core.power_decisions", 0) + 1)
        if result is True or result in ("advance", "done"):
            counts["core.power_granted"] = (
                counts.get("core.power_granted", 0) + 1)

    for attr in ("try_issue", "try_resume", "on_iteration_end"):
        tracer.patch_method(PowerManager, attr, "core.power", granted)
    tracer.patch_method(PowerManager, "release_all", "core.power")
    for cls in (ChipTokenLedger, TokenPool, GlobalChargePump):
        for attr in _public_methods(cls):
            tracer.patch_method(cls, attr, "power.ledger")

    tracer.patch_method(SimEngine, "run", "sim.loop")
    _install_schedule(tracer, SimEngine, MemorySystem, Core)
    for attr in ("submit_read", "submit_write", "kick"):
        tracer.patch_method(MemorySystem, attr, "sim.controller")
    function(runner.run_simulation, "sim.run_setup")

    def cache_lookup(state, args, kwargs, result, elapsed):
        key = "sim.simcache_misses" if result is None else "sim.simcache_hits"
        state.counts[key] = state.counts.get(key, 0) + 1

    tracer.patch_method(SimCache, "get", "sim.simcache_get", cache_lookup)
    tracer.patch_method(SimCache, "put", "sim.simcache_put")

    def plan_wall(state, args, kwargs, result, elapsed):
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        pending = result["unique"] - result["memory"] - result["disk"]
        if pending > 0 and result["computed"] + result["failed"] > 0:
            tracer.plans.append((min(max(jobs, 1), pending), elapsed))

    function(engine.execute_plan, "experiments.execute_plan", plan_wall)
    function(engine.plan_outcomes, "service.plan_outcomes")

    def cohorts(state, args, kwargs, result, elapsed):
        counts = state.counts
        counts["experiments.cohorts"] = (
            counts.get("experiments.cohorts", 0) + len(result))

    function(batch.partition_cohorts, "experiments.partition", cohorts)
    boundary = tracer.worker_boundary(engine._worker_execute)
    tracer.patches.function(engine._worker_execute, boundary)
    tracer.patches.function(batch._cohort_execute,
                            tracer.worker_boundary(batch._cohort_execute))

    pool_init = futures_process.ProcessPoolExecutor.__init__

    @functools.wraps(pool_init)
    def counted_pool_init(self, *args, **kwargs):
        tracer.count("experiments.pool_starts")
        return pool_init(self, *args, **kwargs)

    tracer.patches.attr(futures_process.ProcessPoolExecutor, "__init__",
                        counted_pool_init)

    tracer.patch_method(ExploreSession, "run", "explore.session")
    function(pareto.pareto_frontier, "explore.pareto")
    tracer.patches.attr(SimRequest, "from_wire", classmethod(tracer.span(
        SimRequest.__dict__["from_wire"].__func__, "service.request")))
    tracer.patch_method(SimRequest, "to_run_request", "service.request")
    tracer.patch_method(SimResponse, "to_wire", "service.request")


def _install_schedule(tracer: SpanTracer, engine_cls, controller_cls,
                      core_cls) -> None:
    """Time every engine callback under the layer of the object it is
    bound to; count iteration-boundary events separately."""
    schedule = engine_cls.__dict__["schedule"]
    boundary = controller_cls.__dict__["_iteration_boundary"]
    names: Dict[object, tuple] = {}

    def counter(name: str):
        def count(state, args, kwargs, result, elapsed):
            counts = state.counts
            counts[name] = counts.get(name, 0) + 1
        return count

    controller = ("sim.controller", counter("sim.controller_events"))
    iteration = ("sim.controller",
                 counter("sim.iteration_boundary_events"))
    cpu = ("sim.cpu", counter("sim.cpu_events"))
    other = ("sim.other_event", counter("sim.other_events"))

    def classify(callback) -> tuple:
        target = callback
        if isinstance(target, functools.partial):
            target = target.func
        func = getattr(target, "__func__", target)
        found = names.get(func)
        if found is None:
            owner = getattr(target, "__self__", None)
            if isinstance(owner, controller_cls):
                found = iteration if func is boundary else controller
            elif isinstance(owner, core_cls):
                found = cpu
            else:
                found = other
            names[func] = found
        return found

    @functools.wraps(schedule)
    def traced_schedule(self, when, callback):
        name, count = classify(callback)
        return schedule(self, when, tracer.span(callback, name, count))

    tracer.patches.attr(engine_cls, "schedule", traced_schedule)


def per_layer_metrics(collected: Dict[str, object], traced_wall: float,
                      untraced_wall: float,
                      service: Optional[Dict[str, float]] = None
                      ) -> Dict[str, float]:
    """The per-layer metric values of one traced run.

    Every ``*_s`` is self time summed over all processes. Derived ones:
    ``core.power_grant_ratio`` counts ``True`` from ``try_issue`` /
    ``try_resume`` and ``"advance"`` / ``"done"`` from
    ``on_iteration_end`` as granted; ``sim.events_per_s`` divides the
    events by the untraced wall time; ``experiments.harness_s`` is the
    pool capacity of every dispatching ``execute_plan`` (workers × its
    wall time) minus the workers' busy time; ``bench.unattributed_ratio``
    is the share of the driving threads' traced wall time outside every
    span, and ``bench.trace_overhead_ratio`` is traced over untraced
    wall time."""
    spans = collected["spans"]
    counts = collected["counts"]

    def self_s(name):
        return spans.get(name, (0.0, 0, 0.0))[0]

    def calls(name):
        return spans.get(name, (0.0, 0, 0.0))[1]

    def count(name):
        return counts.get(name, 0)

    events = (count("sim.controller_events")
              + count("sim.iteration_boundary_events")
              + count("sim.cpu_events") + count("sim.other_events"))
    decisions = count("core.power_decisions")
    busy = collected["worker_busy_s"]
    capacity = sum(workers * wall for workers, wall in collected["plans"])
    service = service or {}
    driver_threads = max(collected["driver_threads"], 1)
    return {
        "trace.generate_s": self_s("trace.generate"),
        "trace.generate_calls": calls("trace.generate"),
        "cache.access_s": self_s("cache.access"),
        "cache.access_calls": calls("cache.access"),
        "kernel.sample_s": self_s("kernel.sample"),
        "kernel.plan_s": self_s("kernel.plan"),
        "kernel.plan_calls": calls("kernel.plan"),
        "core.write_op_s": self_s("core.write_op"),
        "core.power_s": self_s("core.power"),
        "core.power_calls": calls("core.power"),
        "core.power_grant_ratio": (count("core.power_granted") / decisions
                                   if decisions else 0.0),
        "power.ledger_s": self_s("power.ledger"),
        "sim.loop_s": self_s("sim.loop"),
        "sim.events": events,
        "sim.events_per_s": events / untraced_wall,
        "sim.controller_s": self_s("sim.controller"),
        "sim.controller_events": (count("sim.controller_events")
                                  + count("sim.iteration_boundary_events")),
        "sim.iteration_boundary_events":
            count("sim.iteration_boundary_events"),
        "sim.cpu_s": self_s("sim.cpu"),
        "sim.run_setup_s": self_s("sim.run_setup"),
        "sim.simcache_get_s": self_s("sim.simcache_get"),
        "sim.simcache_put_s": self_s("sim.simcache_put"),
        "sim.simcache_hits": count("sim.simcache_hits"),
        "sim.simcache_misses": count("sim.simcache_misses"),
        "experiments.execute_plan_s": self_s("experiments.execute_plan"),
        "experiments.worker_busy_s": busy,
        "experiments.harness_s": max(capacity - busy, 0.0),
        "experiments.worker_utilisation": (busy / capacity
                                           if capacity else 0.0),
        "experiments.pool_starts": count("experiments.pool_starts"),
        "experiments.cohorts": count("experiments.cohorts"),
        "explore.session_overhead_s": self_s("explore.session"),
        "explore.pareto_s": self_s("explore.pareto"),
        "service.plan_outcomes_s": self_s("service.plan_outcomes"),
        "service.request_s": self_s("service.request"),
        "service.hit_memory": service.get("hit_memory", 0),
        "service.hit_disk": service.get("hit_disk", 0),
        "service.computed": service.get("computed", 0),
        "service.coalesced": service.get("coalesced", 0),
        "service.rejected": service.get("rejected", 0),
        "bench.trace_overhead_ratio": traced_wall / untraced_wall,
        "bench.unattributed_ratio": 1.0 - collected["driver_self_s"] / (
            traced_wall * driver_threads),
    }
