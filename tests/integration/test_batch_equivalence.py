"""Differential-equivalence harness for batched plan execution.

The batched tier's entire correctness claim is *indistinguishable from
serial*: grouping a plan into structure-sharing cohorts and executing
each in one worker pass must change throughput only — never a byte of
any result. These tests drive the claim end to end:

* **Full-registry sweep**: the union of every registered experiment's
  plan, on both kernels, executed serial / pooled (per-run engine) /
  batched — asserting byte-identical ``SimResult``s and identical
  golden ``result_fingerprint``s across all three.
* **Partition accounting**: ``auto`` declines singleton cohorts but
  batches multi-run ones; ``force`` batches everything; the summary's
  ``batch_*`` counters account for exactly the runs batched.
* **Chaos**: a fault-injected crash inside a cohort bisects down to
  the culprit run, hands it to the per-run tier (where supervision
  charges it a terminal failure), and every innocent run in the plan
  still completes byte-identically.

Scale is micro (30 writes) so the three-way sweep stays tier-1 cheap;
the full 224-run quick-scale corpus gets the same treatment in CI via
``golden --check --batching force``.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config.system import KERNELS
from repro.experiments.base import (
    RunRequest,
    RunScale,
    cache_get,
    clear_sim_cache,
    failed_runs,
    fetch,
)
from repro.experiments.batch import partition_cohorts
from repro.experiments.engine import dedupe_requests, execute_plan
from repro.experiments.registry import available_experiments, plan_runs
from repro.experiments.resilience import RetryPolicy
from repro.testing.faults import ENV_VAR

from ..conftest import make_tiny_config

#: Tiny runs: the equivalence claim is structural, not scale-dependent.
MICRO = RunScale("micro", 30, 8_000, ("tig_m",))
MICRO_MULTI = RunScale("micro", 30, 8_000, ("tig_m", "mcf_m"))


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


def registry_plan(kernel: str):
    """The deduplicated union of every registered experiment's plan."""
    config = make_tiny_config().with_kernel(kernel)
    return dedupe_requests(
        plan_runs(list(available_experiments()), config, MICRO))


def serial_truth(requests):
    """Fingerprint -> result, computed serially with pristine caches."""
    clear_sim_cache()
    truth = {request.fingerprint: fetch(request) for request in requests}
    clear_sim_cache()
    return truth


def executed_results(requests, **plan_kwargs):
    summary = execute_plan(requests, **plan_kwargs)
    results = {}
    for request in requests:
        result = cache_get(request.fingerprint)
        assert result is not None, (
            f"{request.workload}/{request.scheme} missing after "
            f"execute_plan({plan_kwargs})")
        results[request.fingerprint] = result
    clear_sim_cache()
    return results, summary


@pytest.mark.parametrize("batching", ["force", "auto"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_batched_equals_serial_and_pooled_for_every_experiment(kernel,
                                                               batching):
    """Every run any experiment plans: serial, pooled per-run, and
    batched execution produce byte-identical results and identical
    golden result fingerprints, whichever cohorts the mode batches."""
    requests = registry_plan(kernel)
    assert len(requests) >= 20  # the registry really is covered
    truth = serial_truth(requests)

    pooled, pooled_summary = executed_results(requests, jobs=2)
    batched, batched_summary = executed_results(
        requests, jobs=2, batching=batching)

    cohorts = partition_cohorts(requests)
    if batching == "auto":
        cohorts = [cohort for cohort in cohorts if cohort.size >= 2]
    assert pooled_summary["computed"] == len(requests)
    assert batched_summary["computed"] == len(requests)
    assert batched_summary["batch_cohorts"] == len(cohorts)
    assert batched_summary["batch_runs"] == sum(c.size for c in cohorts)
    assert batched_summary["failed"] == 0
    assert batched_summary["batch_fallbacks"] == 0

    for request in requests:
        key = request.fingerprint
        assert pooled[key] == truth[key], request
        assert batched[key] == truth[key], request
        assert (batched[key].result_fingerprint()
                == truth[key].result_fingerprint()), request


def test_kernels_agree_batched():
    """Golden contract under batching: both kernels' batched runs of
    the same simulation share one result fingerprint."""
    by_kernel = {}
    for kernel in KERNELS:
        requests = registry_plan(kernel)
        results, _ = executed_results(requests, jobs=2, batching="force")
        by_kernel[kernel] = {
            (request.workload, request.scheme): results[
                request.fingerprint].result_fingerprint()
            for request in requests
        }
    reference, vectorized = (by_kernel[kernel] for kernel in KERNELS)
    assert reference == vectorized


def sweep_plan(n_budgets: int = 4, workloads=("tig_m",)):
    """A budget sweep: one cohort per workload, ``n_budgets`` runs."""
    config = make_tiny_config()
    return [
        RunRequest(config.with_dimm_tokens(400.0 + 66.0 * i),
                   workload, "fpb", MICRO)
        for workload in workloads
        for i in range(n_budgets)
    ]


def singleton_plan():
    """Structurally-distinct runs: every cohort has exactly one run."""
    return [RunRequest(make_tiny_config(), workload, "fpb", MICRO_MULTI)
            for workload in MICRO_MULTI.workloads]


def test_auto_batches_cohorts_and_declines_singletons():
    sweep = sweep_plan()
    truth = serial_truth(sweep)
    results, summary = executed_results(sweep, jobs=2, batching="auto")
    assert summary["batch_cohorts"] == 1
    assert summary["batch_runs"] == len(sweep)
    assert all(results[k] == truth[k] for k in truth)

    singles = singleton_plan()
    truth = serial_truth(singles)
    results, summary = executed_results(singles, jobs=2, batching="auto")
    assert summary["batch_cohorts"] == 0
    assert summary["batch_runs"] == 0
    assert summary["computed"] == len(singles)  # per-run tier took them
    assert all(results[k] == truth[k] for k in truth)


def test_force_batches_singletons():
    singles = singleton_plan()
    truth = serial_truth(singles)
    results, summary = executed_results(singles, jobs=2, batching="force")
    assert summary["batch_cohorts"] == len(singles)
    assert summary["batch_runs"] == len(singles)
    assert all(results[k] == truth[k] for k in truth)


def test_unknown_batching_mode_rejected():
    with pytest.raises(ValueError):
        execute_plan(sweep_plan(), jobs=2, batching="always")


def test_crash_in_cohort_bisects_to_culprit_and_plan_completes(
        monkeypatch):
    """Chaos: one run in a 4-run cohort hard-crashes its worker every
    time it executes. The cohort bisects down to the culprit, the
    culprit falls back to the per-run tier (which charges it a terminal
    failure), and the three innocent runs complete byte-identically."""
    sweep = sweep_plan(n_budgets=4)
    assert len(partition_cohorts(sweep)) == 1
    doomed = sweep[2]
    innocents = [r for r in sweep if r is not doomed]
    truth = serial_truth(innocents)

    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "crash",
        "match": doomed.fingerprint,
    }]))
    policy = RetryPolicy(max_attempts=2, deterministic_attempts=1,
                         backoff_base_s=0.01, backoff_cap_s=0.05,
                         max_pool_respawns=8)
    summary = execute_plan(sweep, jobs=2, batching="force", policy=policy)

    assert summary["batch_bisections"] >= 1
    assert summary["batch_fallbacks"] >= 1
    assert summary["failed"] == 1
    assert summary["computed"] == len(innocents)
    assert doomed.fingerprint in failed_runs()
    for request in innocents:
        result = cache_get(request.fingerprint)
        assert result is not None
        assert result == truth[request.fingerprint]


@pytest.mark.parametrize("mode", ["error", "crash"])
def test_auto_plan_shares_one_pool_with_a_failing_singleton(monkeypatch,
                                                            mode):
    """Chaos under ``auto``: one plan holds a 4-run cohort (batched) and
    a singleton (per-run) that raises — or hard-crashes its worker —
    every time it runs. Both kinds of unit share one pool: the plan
    starts one pool, and at most one more per counted respawn. The
    innocents come out byte-identical to serial and the singleton is
    the only failure."""
    sweep = sweep_plan(n_budgets=4)
    doomed = RunRequest(make_tiny_config(), "mcf_m", "fpb", MICRO_MULTI)
    plan = sweep + [doomed]
    assert sorted(c.size for c in partition_cohorts(plan)) == [1, 4]
    truth = serial_truth(sweep)

    pool_starts = []
    pool_init = ProcessPoolExecutor.__init__

    def counted_pool_init(self, *args, **kwargs):
        pool_starts.append(1)
        pool_init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counted_pool_init)
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": mode, "match": doomed.fingerprint,
    }]))
    policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                         backoff_cap_s=0.05, max_pool_respawns=8)
    summary = execute_plan(plan, jobs=2, batching="auto", policy=policy)

    if mode == "error":
        assert summary["pool_respawns"] == 0
        assert len(pool_starts) == 1
    assert len(pool_starts) <= 1 + summary["pool_respawns"]
    assert summary["failed"] == 1
    assert [f["fingerprint"] for f in summary["failures"]] == [
        doomed.fingerprint]
    assert summary["computed"] == len(sweep)
    assert doomed.fingerprint in failed_runs()
    for request in sweep:
        assert cache_get(request.fingerprint) == truth[request.fingerprint]
