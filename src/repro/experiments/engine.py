"""Supervised parallel plan execution.

The engine takes the union of every experiment's declared run set
(:meth:`Experiment.plan`), deduplicates it by canonical run fingerprint,
strips out runs already satisfiable from the in-memory or on-disk cache,
and fans the remainder across a :class:`~concurrent.futures.
ProcessPoolExecutor`. Results land in the shared caches, so the
experiments' ``run()`` methods — unchanged and strictly sequential —
consume warm hits.

Correctness guarantees:

* **Bit-identical to serial.** Every run's random streams derive from
  ``config.seed`` (``repro.rng``), so a worker process computes exactly
  the bytes the main process would. Results cross the process boundary
  by pickling, which round-trips ints and IEEE doubles exactly.
* **Telemetry crosses into workers by sidecar, never by sharing.**
  Each worker runs under its own :class:`~repro.obs.Telemetry` and
  spools a JSON snapshot to a content-addressed sidecar file, which
  the parent merges into one manifest and one multi-process Perfetto
  trace (span trace ids derive from the run fingerprint). Sidecar
  failures degrade to an uninstrumented ``sim_run`` record and never
  fail the run; telemetry never changes simulation results.
* **Deterministic scheduling irrelevance.** Completion order only
  affects cache-fill order, never values; experiments read results by
  fingerprint.

Work units. The pending runs become *units*, each a tuple of runs
plus whether it is batched. ``batching="off"`` makes one per-run unit
per run; ``auto`` batches every cohort (:mod:`repro.experiments.batch`)
of two or more runs and gives each singleton its own per-run unit;
``force`` batches every cohort. A batched unit runs all its members on
one worker, so they share one trace-generation pass.

Supervision. One :class:`_PoolSupervisor` drives every unit through one
pool, one respawn budget (``RetryPolicy.max_pool_respawns``), one
deadline/wait loop and one teardown, by a single rule table (retry
policy in :mod:`repro.experiments.resilience`, proven by the chaos
tests in ``tests/integration/test_fault_tolerance`` and
``test_batch_equivalence``):

* **A batched unit completes.** Each member's result is delivered. A
  member that raised is requeued alone as a per-run unit
  (``batch_fallbacks``).
* **A per-run unit raises.** :class:`~repro.experiments.resilience.
  RunSupervisor` classifies the failure (transient vs deterministic)
  and decides: retry after exponential backoff with fingerprint-derived
  jitter, fail, or quarantine a run that failed identically twice. One
  run's failure never unwinds the plan (*partial-result semantics*).
* **The pool breaks** (``BrokenProcessPool``). In-flight units that
  already finished still deliver. A per-run unit that was alone in
  flight is the proven culprit and is charged. Otherwise each batched
  victim splits in half (``batch_bisections``), a half of one becoming
  a per-run unit (``batch_fallbacks``), and per-run victims rerun
  isolated — one at a time — without an attempt charge, so the next
  break names the culprit.
* **The watchdog fires.** With ``RetryPolicy.run_timeout_s`` a unit's
  deadline is that budget times its size. The pool under a stuck unit
  is terminated, not waited on. An expired per-run unit is charged a
  :class:`~repro.errors.WorkerTimeoutError`, an expired batched unit
  bisects, and innocent in-flight units requeue whole.
* **The respawn budget runs out.** Every pool rebuild counts against
  the plan's one budget and writes one ``pool_respawn`` record; past
  the budget everything still outstanding fails rather than thrash.
* **Ctrl-C drains cleanly.** ``KeyboardInterrupt`` tears the pool down,
  keeps every completed result in the caches, marks the summary
  interrupted, and re-raises for the CLI to persist the manifest and
  exit nonzero.

Terminal failures are published to :func:`repro.experiments.base.
mark_run_failed`; experiments that later ask for such a run get a
:class:`~repro.errors.RunFailedError` instead of a blind re-execution.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import WorkerTimeoutError
from ..obs import tracing
from ..obs.logging import get_logger, log_context
from ..obs.manifest import _jsonable
from ..sim.checkpoint import CheckpointPlan, CheckpointStore
from ..testing.faults import maybe_inject
from . import batch
from .base import (
    RunRequest,
    _SIM_CACHE,
    active_checkpoints,
    active_disk_cache,
    active_telemetry,
    cache_get,
    clear_failed_runs,
    execute_request,
    failed_runs,
    mark_run_failed,
    record_cache_event,
    request_key,
)
from .resilience import (
    FAIL,
    QUARANTINE,
    RETRY,
    RetryPolicy,
    RunFailure,
    RunSupervisor,
    TRANSIENT,
)

log = get_logger("experiments.engine")


def dedupe_requests(requests: Iterable[RunRequest]) -> List[RunRequest]:
    """Unique requests by fingerprint, first occurrence order."""
    unique: Dict[str, RunRequest] = {}
    for request in requests:
        unique.setdefault(request.fingerprint, request)
    return list(unique.values())


def _checkpoint_plan(request: RunRequest,
                     ckpt: Optional[Dict[str, object]]
                     ) -> Optional[CheckpointPlan]:
    """Rebuild a run's checkpoint plan from the engine's worker spec
    (workers are fresh processes; the parent's :func:`use_checkpoints`
    setting doesn't reach them, so its store dir travels explicitly)."""
    if ckpt is None:
        return None
    return CheckpointPlan(
        store=CheckpointStore(str(ckpt["dir"])),
        fingerprint=request.fingerprint,
        every_writes=int(ckpt["every_writes"]),
    )


def _worker_execute(
    request: RunRequest, obs: Optional[Dict[str, object]] = None,
    ckpt: Optional[Dict[str, object]] = None,
) -> Tuple[str, object, int, Optional[str]]:
    """Process-pool entry point: compute one run, uncached, tagged with
    the worker's PID for provenance.

    With an ``obs`` spec (``spool_dir`` / ``sample_interval`` /
    ``parent_span_id``) the run executes under a worker-local
    :class:`~repro.obs.Telemetry` whose snapshot is spooled to a
    content-addressed sidecar file; the returned 4th element is its
    path (``None`` when capture is off or spooling failed — sidecar
    trouble must never fail the run).

    With a ``ckpt`` spec (``dir`` / ``every_writes``) the run
    checkpoints its state as it goes and — the resume half of the
    engine's retry path — continues from the latest valid capsule left
    by a previous attempt instead of re-executing from write 0.
    """
    maybe_inject("worker_run", key=request_key(request))
    plan = _checkpoint_plan(request, ckpt)
    if obs is None:
        return (request.fingerprint,
                execute_request(request, checkpoint=plan),
                os.getpid(), None)

    from ..obs.telemetry import Telemetry

    fingerprint = request.fingerprint
    telemetry = Telemetry(
        sample_interval=int(obs.get("sample_interval") or 5_000),
        max_samples_per_series=obs.get("max_samples_per_series"),
    )
    context = tracing.SpanContext(
        tracing.trace_id_for(fingerprint),
        str(obs.get("parent_span_id") or ""),
    )
    with tracing.activate(context), \
            log_context(fingerprint=fingerprint[:12], worker_pid=os.getpid()):
        with telemetry.tracer.span(
            "worker.run", fingerprint=fingerprint,
            attrs={"workload": request.workload, "scheme": request.scheme,
                   "role": "worker"},
        ):
            result = execute_request(request, telemetry=telemetry,
                                     checkpoint=plan)
    sidecar = _spool_sidecar(telemetry, fingerprint,
                             str(obs.get("spool_dir") or ""))
    return fingerprint, result, os.getpid(), sidecar


def _spool_sidecar(telemetry, fingerprint: str,
                   spool_dir: str) -> Optional[str]:
    """Write the worker's telemetry snapshot next to the run's cache
    entry (``<spool_dir>/<aa>/<fingerprint>.obs.json``), atomically and
    best-effort."""
    if not spool_dir:
        return None
    try:
        payload = _jsonable(telemetry.worker_snapshot(fingerprint))
        directory = Path(spool_dir) / fingerprint[:2]
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{fingerprint}.obs.json"
        tmp = directory / f".{fingerprint}.obs.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        return str(path)
    except OSError:
        return None


class _WorkerEnv:
    """Per-plan worker context: the active disk cache and telemetry,
    the checkpoint spec shipped to workers, the telemetry-sidecar spool
    directory, and the single delivery path every completed run takes
    back into the caches and manifest — per-run and batched units merge
    worker results through literally the same :meth:`deliver` code."""

    def __init__(self) -> None:
        self.disk = active_disk_cache()
        self.telemetry = active_telemetry()
        # Checkpoint/resume: the process-wide setting is serialized into
        # a per-submission spec (workers rebuild the store from its dir),
        # and the parent keeps its own store handle to read capsule
        # progress when judging failures.
        self.ckpt_store: Optional[CheckpointStore] = None
        self.ckpt_spec: Optional[Dict[str, object]] = None
        checkpoints = active_checkpoints()
        if checkpoints is not None:
            store, every_writes = checkpoints
            self.ckpt_store = store
            self.ckpt_spec = {
                "dir": str(store.root),
                "every_writes": every_writes,
            }
        # Worker-side telemetry capture: sidecars land next to the disk
        # cache entries when there is a disk cache (content-addressed
        # artifacts worth keeping), else in a temp spool removed after
        # the plan.
        self._spool_tmp: Optional[str] = None
        self.spool_dir: Optional[str] = None
        if (self.telemetry is not None
                and getattr(self.telemetry, "capture_workers", False)):
            if self.disk is not None:
                self.spool_dir = str(self.disk.root)
            else:
                self._spool_tmp = tempfile.mkdtemp(prefix="repro-obs-")
                self.spool_dir = self._spool_tmp

    def obs_spec(self) -> Optional[Dict[str, object]]:
        """The per-submission telemetry spec workers run under, or
        ``None`` when worker capture is off."""
        if self.spool_dir is None:
            return None
        context = tracing.current_context()
        return {
            "spool_dir": self.spool_dir,
            "sample_interval": self.telemetry.sample_interval,
            "max_samples_per_series":
                self.telemetry.max_samples_per_series,
            "parent_span_id":
                context.span_id if context is not None else None,
        }

    def deliver(self, request: RunRequest, result, worker_pid: int,
                sidecar: Optional[str], summary: Dict[str, object]) -> None:
        """Publish one worker-computed result: memory cache, disk cache,
        manifest cache event, telemetry sidecar merge, summary count."""
        key = request.fingerprint
        _SIM_CACHE[key] = result
        if self.disk is not None:
            self.disk.put(key, result)
        record_cache_event(request, "computed", worker=worker_pid,
                           prefetch=True)
        if self.telemetry is not None:
            merged = False
            if sidecar is not None:
                try:
                    payload = json.loads(Path(sidecar).read_text())
                    self.telemetry.merge_worker_telemetry(payload,
                                                          sidecar=sidecar)
                    merged = True
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    log.warning("discarding unreadable worker telemetry "
                                "sidecar %s (%s: %s)", sidecar,
                                type(exc).__name__, exc)
            if not merged:
                self.telemetry.record_external_run(result, worker=worker_pid)
        summary["computed"] += 1

    def cleanup(self) -> None:
        if self._spool_tmp is not None:
            shutil.rmtree(self._spool_tmp, ignore_errors=True)
            self._spool_tmp = None


@dataclass(frozen=True)
class _Unit:
    """One pool submission: a single run, or a cohort of runs batched
    on one worker (:func:`repro.experiments.batch._cohort_execute`)."""

    runs: Tuple[RunRequest, ...]
    batched: bool = False
    key: str = ""           # cohort key of a batched unit, for its records
    attempt: int = 1        # the attempt a per-run unit executes as
    isolated: bool = False  # a pool-break suspect: runs alone


def _plan_units(pending: List[RunRequest], batching: str) -> List[_Unit]:
    """Lower the pending runs into work units: ``off`` makes one unit
    per run, ``auto`` batches cohorts of two or more runs, ``force``
    batches every cohort."""
    if batching == "off":
        return [_Unit((request,)) for request in pending]
    units: List[_Unit] = []
    for cohort in batch.partition_cohorts(pending):
        if batching == "force" or cohort.size >= 2:
            units.append(_Unit(cohort.members, True, cohort.key))
        else:
            units.extend(_Unit((request,)) for request in cohort.members)
    return units


class _PoolSupervisor:
    """Supervised execution of a plan's work units on one pool, under
    the rule table in the module docstring."""

    def __init__(self, units: List[_Unit], jobs: int, policy: RetryPolicy,
                 summary: Dict[str, object], env: _WorkerEnv):
        self.jobs = jobs
        self.policy = policy
        self.supervisor = RunSupervisor(policy)
        self.summary = summary
        self.env = env
        self.work: Deque[_Unit] = deque(units)
        #: Isolated units, submitted one at a time.
        self.suspects: Deque[_Unit] = deque()
        #: Backoff heap: ``(ready_at, seq, unit)``.
        self.delayed: List[Tuple[float, int, _Unit]] = []
        self._delay_seq = 0
        #: In flight: future -> ``(unit, deadline)``, the deadline in
        #: monotonic seconds (``None`` = no watchdog).
        self.futures: Dict[Future, Tuple[_Unit, Optional[float]]] = {}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.window = 0
        self.aborted = False

    # -- scheduling ----------------------------------------------------

    def run(self) -> None:
        try:
            while not self.aborted and (self.futures or self.work
                                        or self.suspects or self.delayed):
                now = time.monotonic()
                while self.delayed and self.delayed[0][0] <= now:
                    self._queue(heapq.heappop(self.delayed)[2])
                self._fill()
                if not self.futures:
                    # Only backoff is left: sleep toward the next retry.
                    time.sleep(min(self.delayed[0][0] - now, 0.25))
                    continue
                done, _ = wait(set(self.futures),
                               timeout=self._wait_timeout(),
                               return_when=FIRST_COMPLETED)
                if done:
                    self._collect(done)
                self._check_deadlines()
        except KeyboardInterrupt:
            self.summary["interrupted"] = True
            log.warning("interrupted: abandoning %d in-flight unit(s), "
                        "%d completed result(s) kept",
                        len(self.futures), self.summary["computed"])
            self._teardown_pool(terminate=True)
            raise
        finally:
            self._teardown_pool()

    def _queue(self, unit: _Unit) -> None:
        (self.suspects if unit.isolated else self.work).append(unit)

    def _fill(self) -> None:
        if not (self.work or self.suspects):
            return
        if self.pool is None:
            # Sized for what is outstanding now, so a pool rebuilt after
            # a bisection can run both halves at once. The window bounds
            # how many pickled configs are in flight at once.
            n_workers = min(self.jobs, len(self.work) + len(self.suspects)
                            + len(self.delayed))
            self.pool = ProcessPoolExecutor(max_workers=n_workers)
            self.window = 4 * n_workers
        if self.suspects:
            # Isolation mode: one submission at a time until the
            # suspect queue (and anything it respawns) drains.
            if not self.futures:
                self._submit(self.suspects.popleft())
            return
        while self.work and len(self.futures) < self.window:
            self._submit(self.work.popleft())

    def _submit(self, unit: _Unit) -> None:
        deadline = None
        if self.policy.run_timeout_s is not None:
            # A batched unit is up to ``size`` serial runs.
            deadline = (time.monotonic()
                        + self.policy.run_timeout_s * len(unit.runs))
        # Entry points are looked up on their modules at call time, so
        # a wrapper installed on the module attribute is what runs.
        if unit.batched:
            future = self.pool.submit(batch._cohort_execute,
                                      list(unit.runs), self.env.obs_spec(),
                                      self.env.ckpt_spec)
        else:
            future = self.pool.submit(_worker_execute, unit.runs[0],
                                      self.env.obs_spec(),
                                      self.env.ckpt_spec)
        self.futures[future] = (unit, deadline)

    def _wait_timeout(self) -> Optional[float]:
        candidates = [deadline for _, deadline in self.futures.values()
                      if deadline is not None]
        if self.delayed:
            candidates.append(self.delayed[0][0])
        if not candidates:
            return None
        return max(0.0, min(candidates) - time.monotonic()) + 0.02

    # -- completion ----------------------------------------------------

    def _collect(self, done: Iterable[Future]) -> None:
        broken: Optional[BaseException] = None
        casualties: List[_Unit] = []
        for future in done:
            unit, _deadline = self.futures.pop(future, (None, None))
            if unit is None:
                continue
            try:
                outcome = future.result()
            except BrokenProcessPool as exc:
                broken = broken or exc
                casualties.append(unit)
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # worker raised: pool is fine
                if unit.batched:
                    # The cohort task itself failed (pickling, OS
                    # trouble), not a member.
                    self._fall_back(unit, unit.runs,
                                    f"{type(exc).__name__}: {exc}")
                else:
                    self._handle_failure(unit, exc)
            else:
                self._deliver(unit, outcome)
        if broken is not None:
            self._pool_broken(casualties, broken)

    def _deliver(self, unit: _Unit, outcome) -> None:
        if not unit.batched:
            _key, result, worker_pid, sidecar = outcome
            self.env.deliver(unit.runs[0], result, worker_pid, sidecar,
                             self.summary)
            return
        worker_pid, outcomes = outcome
        by_fingerprint = {r.fingerprint: r for r in unit.runs}
        errored: List[RunRequest] = []
        for fingerprint, result, error, sidecar in outcomes:
            request = by_fingerprint[fingerprint]
            if error is None:
                self.env.deliver(request, result, worker_pid, sidecar,
                                 self.summary)
            else:
                errored.append(request)
        delivered = len(unit.runs) - len(errored)
        self.summary["batch_cohorts"] += 1
        self.summary["batch_runs"] += delivered
        if self.env.telemetry is not None:
            self.env.telemetry.record_batch_cohort(
                action="executed", key=unit.key, size=len(unit.runs),
                delivered=delivered,
            )
        if errored:
            self._fall_back(unit, errored, f"{len(errored)} member(s) "
                                           f"raised inside the cohort")

    def _fall_back(self, unit: _Unit, runs: Sequence[RunRequest],
                   note: str, isolated: bool = False) -> None:
        """Requeue ``runs`` of a batched unit alone, as per-run units —
        isolated when a pool break made them suspects."""
        log.warning("cohort %s: %d run(s) fall back to per-run units: %s",
                    unit.key[:12], len(runs), note)
        self.summary["batch_fallbacks"] += len(runs)
        if self.env.telemetry is not None:
            self.env.telemetry.record_batch_cohort(
                action="fallback", key=unit.key, size=len(runs),
                detail=note,
            )
        for request in runs:
            self._queue(_Unit((request,), isolated=isolated))

    def _split(self, unit: _Unit) -> None:
        """Bisect a suspect batched unit toward its culprit: halves
        requeue at the front, and a half of one is a per-run suspect."""
        if len(unit.runs) == 1:
            self._fall_back(unit, unit.runs, "cohort of one failed batched",
                            isolated=True)
            return
        self.summary["batch_bisections"] += 1
        if self.env.telemetry is not None:
            self.env.telemetry.record_batch_cohort(
                action="bisect", key=unit.key, size=len(unit.runs),
            )
        mid = len(unit.runs) // 2
        log.warning("bisecting cohort %s: %d -> %d + %d run(s)",
                    unit.key[:12], len(unit.runs), mid,
                    len(unit.runs) - mid)
        for half in (unit.runs[mid:], unit.runs[:mid]):
            if len(half) == 1:
                self._fall_back(unit, half, "bisected to one run",
                                isolated=True)
            else:
                self.work.appendleft(_Unit(half, True, unit.key))

    # -- failure handling ----------------------------------------------

    def _checkpoint_progress(self, request: RunRequest) -> Optional[int]:
        """Writes completed by the run's newest capsule, or ``None``.
        Read from the capsule header only — cheap enough for the failure
        path, and a lying header merely misjudges retry budget, never
        correctness (the resume path fully validates)."""
        if self.env.ckpt_store is None:
            return None
        meta = self.env.ckpt_store.latest_meta(request.fingerprint)
        if meta is None:
            return None
        writes_done = meta.get("writes_done")
        return int(writes_done) if isinstance(writes_done, int) else None

    def _handle_failure(self, unit: _Unit, exc: BaseException) -> None:
        """A per-run unit failed: retry it after backoff, or record the
        supervisor's terminal verdict."""
        request = unit.runs[0]
        verdict, delay = self.supervisor.on_failure(
            request, exc, progress=self._checkpoint_progress(request),
        )
        if verdict != RETRY:
            self._record_terminal(self.supervisor.failures[-1])
            return
        self.summary["retried"] += 1
        log.warning("run %s/%s failed (%s: %s) — retry %d in %.2fs",
                    request.workload, request.scheme,
                    type(exc).__name__, exc, unit.attempt, delay)
        if self.env.telemetry is not None:
            self.env.telemetry.record_retry(
                fingerprint=request.fingerprint,
                workload=request.workload, scheme=request.scheme,
                attempt=unit.attempt + 1, delay_s=delay,
                error_type=type(exc).__name__,
            )
        self._delay_seq += 1
        heapq.heappush(self.delayed, (
            time.monotonic() + delay, self._delay_seq,
            replace(unit, attempt=unit.attempt + 1)))

    def _record_terminal(self, failure: RunFailure) -> None:
        if failure.verdict == QUARANTINE:
            self.summary["quarantined"] += 1
            log.error("run %s/%s QUARANTINED after %d identical "
                      "failure(s): %s", failure.workload, failure.scheme,
                      failure.attempts, failure.error)
        else:
            self.summary["failed"] += 1
            log.error("run %s/%s failed permanently after %d attempt(s): "
                      "%s: %s", failure.workload, failure.scheme,
                      failure.attempts, failure.error_type, failure.error)
        self.summary["failures"].append(failure.as_record())
        mark_run_failed(failure.fingerprint,
                        f"{failure.error_type}: {failure.error} "
                        f"({failure.verdict} after {failure.attempts} "
                        f"attempt(s))")
        if self.env.telemetry is not None:
            self.env.telemetry.record_run_failure(failure.as_record())

    def _drain(self) -> List[_Unit]:
        """Empty the in-flight set ahead of a pool teardown: units that
        already finished deliver, the rest are returned."""
        victims: List[_Unit] = []
        for future, (unit, _deadline) in list(self.futures.items()):
            del self.futures[future]
            if future.done() and future.exception() is None:
                self._deliver(unit, future.result())
            else:
                victims.append(unit)
        return victims

    def _pool_broken(self, casualties: List[_Unit],
                     exc: BaseException) -> None:
        """The pool died under us. A per-run unit alone in flight is the
        proven culprit and is charged; otherwise batched victims bisect
        and per-run victims rerun isolated, uncharged."""
        victims = casualties + self._drain()
        if not self._respawn("broken_pool", exc, victims):
            return
        if len(victims) == 1 and not victims[0].batched:
            self._handle_failure(replace(victims[0], isolated=True), exc)
            return
        for unit in victims:
            if unit.batched:
                self._split(unit)
            else:
                self.suspects.append(replace(unit, isolated=True))

    def _check_deadlines(self) -> None:
        if self.policy.run_timeout_s is None or not self.futures:
            return
        now = time.monotonic()
        expired: List[_Unit] = []
        for future, (unit, deadline) in list(self.futures.items()):
            if deadline is None or now < deadline:
                continue
            if future.done():
                continue  # finished between wait() and here; next loop
            del self.futures[future]
            expired.append(unit)
        if not expired:
            return
        # A worker is stuck. There is no portable way to kill a single
        # pool worker, so the whole pool is abandoned: expired per-run
        # units are charged a WorkerTimeoutError, expired batched units
        # bisect toward the hanging member, and innocent in-flight units
        # requeue whole.
        innocents = self._drain()
        self.summary["timeouts"] += sum(not unit.batched
                                        for unit in expired)
        if not self._respawn("watchdog_timeout", None, expired + innocents):
            return
        self.work.extendleft(reversed(innocents))
        for unit in expired:
            if unit.batched:
                self._split(unit)
            else:
                self._handle_failure(unit, WorkerTimeoutError(
                    f"no result within the {self.policy.run_timeout_s:.1f}s "
                    f"wall-clock budget; worker abandoned"
                ))

    def _respawn(self, reason: str, exc: Optional[BaseException],
                 victims: List[_Unit]) -> bool:
        """Tear the pool down and charge the plan's one respawn budget
        (the next fill rebuilds the pool). Past the budget, everything
        outstanding fails and ``False`` is returned."""
        self._teardown_pool(terminate=True)
        self.summary["pool_respawns"] += 1
        respawns = self.summary["pool_respawns"]
        within_budget = respawns <= self.policy.max_pool_respawns
        n_victims = sum(len(unit.runs) for unit in victims)
        if self.env.telemetry is not None:
            self.env.telemetry.record_pool_respawn(
                respawns=respawns, reason=reason,
                requeued=n_victims if within_budget else 0,
                error=str(exc) if exc is not None else None,
            )
        if within_budget:
            log.warning("pool respawn %d/%d (%s): %d in-flight run(s) "
                        "affected", respawns,
                        self.policy.max_pool_respawns, reason, n_victims)
            return True
        # A victim was in flight, so its next attempt is the one denied.
        outstanding = ([replace(unit, attempt=unit.attempt + 1)
                        for unit in victims]
                       + list(self.work) + list(self.suspects)
                       + [unit for _, _, unit in self.delayed])
        note = (f"pool respawn budget ({self.policy.max_pool_respawns}) "
                f"exhausted during {reason}")
        log.error("%s; failing %d outstanding run(s)", note,
                  sum(len(unit.runs) for unit in outstanding))
        for unit in outstanding:
            for request in unit.runs:
                failure = RunFailure(
                    fingerprint=request.fingerprint,
                    workload=request.workload, scheme=request.scheme,
                    error=note, error_type="BrokenProcessPool",
                    failure_class=TRANSIENT, attempts=unit.attempt,
                    verdict=FAIL,
                )
                self.supervisor.failures.append(failure)
                self._record_terminal(failure)
        self.work.clear()
        self.suspects.clear()
        self.delayed.clear()
        self.aborted = True
        return False

    # -- pool lifecycle ------------------------------------------------

    def _teardown_pool(self, terminate: bool = False) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        # No public API kills pool workers; reaching into ``_processes``
        # beats leaving a hung worker alive until interpreter exit. The
        # dict must be captured *before* shutdown(), which drops the
        # executor's reference to it even with ``wait=False``.
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=not terminate, cancel_futures=True)
        if terminate:
            for proc in procs:
                try:
                    proc.terminate()
                except Exception:
                    pass


#: Accepted values for ``execute_plan(batching=...)``: ``off`` runs
#: every run as its own unit, ``auto`` batches cohorts of two or more
#: runs (singletons gain nothing from batching), ``force`` batches every
#: cohort, including singletons.
BATCHING_MODES = ("off", "auto", "force")


def execute_plan(
    requests: Iterable[RunRequest],
    jobs: int = 1,
    *,
    policy: Optional[RetryPolicy] = None,
    force: bool = False,
    batching: str = "off",
) -> Dict[str, object]:
    """Warm the run caches for ``requests`` using ``jobs`` workers.

    Returns a summary with partial-result semantics: counts of planned
    and unique requests, cache hits (``memory`` / ``disk``), fresh
    ``computed`` results, plus the supervision counters — ``failed``,
    ``retried``, ``quarantined``, ``timeouts``, ``pool_respawns`` — and
    a ``failures`` list (one record per terminal failure, mirroring the
    manifest's ``run_failure`` records). Failed runs never unwind the
    plan; they are recorded here, registered with
    :func:`~repro.experiments.base.mark_run_failed`, and surface as
    :class:`~repro.errors.RunFailedError` if an experiment needs them.

    With ``jobs <= 1`` nothing is prefetched (the serial lazy path in
    :func:`repro.experiments.base.sim` is already optimal) — only the
    dedupe/disk-probe bookkeeping runs. Pass ``force=True`` to execute
    the pending runs even then, on a single supervised worker process —
    callers like the service gateway need the engine's failure
    supervision (retries, watchdog, crash containment) regardless of
    parallelism.

    ``batching`` picks the work units (``off``, ``auto`` or ``force``;
    see the module docstring). Results are byte-identical either way; a
    mode other than ``off`` implies ``force``. Cohort counters land in
    the summary as ``batch_cohorts`` / ``batch_runs`` /
    ``batch_bisections`` / ``batch_fallbacks``.

    ``KeyboardInterrupt`` propagates after the pool is torn down and
    ``summary["interrupted"]`` is set — every already-computed result
    stays in the caches.
    """
    if batching not in BATCHING_MODES:
        raise ValueError(
            f"unknown batching mode {batching!r}; choose from "
            f"{BATCHING_MODES}"
        )
    planned = list(requests)
    unique = dedupe_requests(planned)
    summary: Dict[str, object] = {
        "planned": len(planned),
        "unique": len(unique),
        "memory": 0,
        "disk": 0,
        "computed": 0,
        "failed": 0,
        "retried": 0,
        "quarantined": 0,
        "timeouts": 0,
        "pool_respawns": 0,
        "batch_cohorts": 0,
        "batch_runs": 0,
        "batch_bisections": 0,
        "batch_fallbacks": 0,
        "interrupted": False,
        "failures": [],
    }
    # A re-planned run gets a fresh chance even if a previous plan in
    # this process gave up on it.
    clear_failed_runs(request.fingerprint for request in unique)
    disk = active_disk_cache()
    pending: List[RunRequest] = []
    for request in unique:
        key = request.fingerprint
        if key in _SIM_CACHE:
            summary["memory"] += 1
            continue
        if disk is not None:
            result = disk.get(key)
            if result is not None:
                _SIM_CACHE[key] = result
                record_cache_event(request, "disk", prefetch=True)
                summary["disk"] += 1
                continue
        pending.append(request)

    if not pending or (jobs <= 1 and not force and batching == "off"):
        return summary

    jobs = max(jobs, 1)
    env = _WorkerEnv()
    n_workers = min(jobs, len(pending))
    log.debug("prefetching %d runs on %d workers (%d memory hits, "
              "%d disk hits, batching=%s)", len(pending), n_workers,
              summary["memory"], summary["disk"], batching)
    span = (env.telemetry.tracer.span(
        "plan.execute",
        attrs={"pending": len(pending), "unique": len(unique),
               "jobs": n_workers, "batching": batching},
    ) if env.telemetry is not None else nullcontext())
    try:
        with span:
            units = _plan_units(pending, batching)
            _PoolSupervisor(units, jobs, policy or RetryPolicy(), summary,
                            env).run()
    finally:
        env.cleanup()
    return summary


def plan_outcomes(
    requests: Iterable[RunRequest],
    jobs: int = 1,
    *,
    policy: Optional[RetryPolicy] = None,
    batching: str = "off",
    summary_out: Optional[Dict[str, object]] = None,
) -> Dict[str, Tuple[object, str]]:
    """Execute ``requests`` under full supervision and report each
    fingerprint's outcome as ``(result, source)``.

    The serving-side wrapper around :func:`execute_plan` shared by the
    gateway's in-process dispatch and the replica fleet's worker
    processes: always forced (``force=True`` — callers need the
    engine's retries/watchdog/crash containment even at ``jobs=1``),
    with the per-request provenance the service layer reports to
    clients. ``source`` is ``disk`` (the run was already in the on-disk
    cache before the plan), ``computed`` (freshly executed — or
    satisfied from this process's memory cache, which for a cold
    service request is the same thing), or ``failed`` with the terminal
    failure message as the result.

    ``batching`` is forwarded to :func:`execute_plan`; with a
    ``summary_out`` dict the plan summary (including the
    ``batch_*`` supervision counters) is copied into it so callers like
    the service gateway can export them as metrics.
    """
    requests = list(requests)
    disk = active_disk_cache()
    on_disk = {
        request.fingerprint
        for request in requests
        if disk is not None and request.fingerprint in disk
    }
    summary = execute_plan(requests, jobs=jobs, policy=policy, force=True,
                           batching=batching)
    if summary_out is not None:
        summary_out.update(summary)
    failures = failed_runs()
    outcomes: Dict[str, Tuple[object, str]] = {}
    for request in requests:
        key = request.fingerprint
        result = cache_get(key)  # LRU: refresh recency on delivery
        if result is not None:
            outcomes[key] = (
                result, "disk" if key in on_disk else "computed")
        elif key in failures:
            outcomes[key] = (failures[key], "failed")
        else:
            outcomes[key] = (
                "run neither completed nor failed (engine aborted "
                "or interrupted)", "failed")
    return outcomes
