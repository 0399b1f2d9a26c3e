"""Batched multi-run plan execution (structure-of-arrays sweeps).

A plan sweep — the 224-run golden corpus, the fig15/fig22 budget
sweeps, a storm of coalesced service cold misses — is mostly *one*
structure evaluated at many scalar points: same workload, same cache
and DIMM geometry, same kernel, differing only in swept knobs like
power budgets, GCP efficiency, or cell mapping. Executed per-run, each
point pays the full pool round-trip **and** regenerates the same
memory trace; trace generation is the single most expensive
non-simulation phase (BENCH_baseline.json), so at quick scales it
dominates the sweep.

This module holds what only batching needs; the engine's one pool
supervisor (:mod:`repro.experiments.engine`) executes, bisects and
falls back batched units like any other unit of work:

* :func:`partition_cohorts` groups a deduplicated plan by
  :func:`cohort_key` — a digest of each run's *trace-relevant*
  structure **after** its scheme is applied (workload, scale, kernel,
  seed, CPU + cache geometry, PCM cell model, line size). Runs in one
  cohort share a cohort key strictly finer than the trace-generator's
  memo key, so a cohort is exactly a set of runs that can share one
  trace-generation pass; swept scalars (budgets, GCP efficiency, MR
  split, write-queue depth) never separate runs, and nothing
  trace-relevant is ever mixed.
* :func:`_cohort_execute` is the worker entry point of a batched unit:
  it runs every member through the engine's own
  :func:`~repro.experiments.engine._worker_execute` (same
  fault-injection points, same telemetry sidecars, same checkpoint
  plumbing) against the worker-local trace memo, then scatters per-run
  outcomes back. Results are **byte-identical** to serial execution:
  identical fingerprints, identical per-run RNG streams (all derive
  from ``config.seed``), and the parent merges them through literally
  the same :meth:`~repro.experiments.engine._WorkerEnv.deliver` path.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..config.system import canonical_value
from ..core.policies.registry import get_scheme
from . import engine
from .base import RunRequest


def cohort_key(request: RunRequest) -> str:
    """Digest of a run's batch-compatible structure.

    Computed on the config *after* the scheme is applied (schemes may
    change the cell mapping, power budgets, or queue depth — none of
    which the trace generator reads, so scheme and budget sweeps over
    one workload share a cohort). Two runs share a key iff they agree
    on everything
    the trace generator reads — workload, scale, seed, kernel, CPU and
    cache geometry, PCM cell model, line size — which makes the key
    strictly finer than the generator's memo key: a cohort's members
    are guaranteed to share one trace-generation pass inside a worker.
    """
    cfg = get_scheme(request.scheme).apply_to_config(request.config)
    structure = (
        ("workload", request.workload),
        ("n_pcm_writes", request.scale.n_pcm_writes),
        ("max_refs_per_core", request.scale.max_refs_per_core),
        ("kernel", cfg.kernel),
        ("seed", cfg.seed),
        ("cpu", canonical_value(cfg.cpu)),
        ("caches", canonical_value(cfg.caches)),
        ("pcm", canonical_value(cfg.pcm)),
        ("line_size", cfg.memory.line_size),
    )
    return hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Cohort:
    """One batch-compatible group: members sorted by fingerprint, so a
    cohort's identity (and its execution order inside the worker) is
    independent of plan order."""

    key: str
    members: Tuple[RunRequest, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def partition_cohorts(requests: Iterable[RunRequest]) -> List[Cohort]:
    """Partition a plan into cohorts.

    Properties (proven by ``tests/property/test_batch_partition.py``):
    a true partition of the deduplicated plan (every unique fingerprint
    in exactly one cohort), deterministic under plan permutation
    (members sort by fingerprint, cohorts by key), and never mixing
    runs whose trace-relevant structures differ.
    """
    groups: Dict[str, List[RunRequest]] = {}
    for request in engine.dedupe_requests(requests):
        groups.setdefault(cohort_key(request), []).append(request)
    return [
        Cohort(key, tuple(sorted(members, key=lambda r: r.fingerprint)))
        for key, members in sorted(groups.items())
    ]


#: One member's result crossing the process boundary:
#: ``(fingerprint, result | None, error | None, sidecar | None)``.
Outcome = Tuple[str, object, Optional[str], Optional[str]]


def _cohort_execute(
    requests: Sequence[RunRequest],
    obs: Optional[Dict[str, object]] = None,
    ckpt: Optional[Dict[str, object]] = None,
) -> Tuple[int, List[Outcome]]:
    """Process-pool entry point: run one cohort on one worker.

    Each member goes through the engine's ``_worker_execute`` — the
    per-run units' own entry point, with its fault-injection hook,
    telemetry sidecar, and checkpoint plumbing — so a batched run is
    indistinguishable from a per-run one. The amortization comes from
    the worker-process-local trace memo: the first member generates the
    cohort's shared trace, the rest reuse it.

    A member that *raises* is captured as an error outcome (the parent
    requeues it as a per-run unit for proper retry classification); a
    member that kills or wedges the process surfaces to the parent as
    ``BrokenProcessPool`` / a watchdog timeout and triggers bisection.
    """
    outcomes: List[Outcome] = []
    for request in requests:
        try:
            fingerprint, result, _pid, sidecar = engine._worker_execute(
                request, obs, ckpt)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            outcomes.append((request.fingerprint, None,
                             f"{type(exc).__name__}: {exc}", None))
        else:
            outcomes.append((fingerprint, result, None, sidecar))
    return os.getpid(), outcomes
