"""Service-layer policy units: LRU result-cache trimming, the warm
repeat memos, the admission EWMA's sample hygiene, the Retry-After clamp, cancelled-
waiter accounting in the coalescer, and the ``/watch`` write-side
dead-client guard. Pure in-process tests — the gateway's HTTP
behaviour lives in ``tests/integration/test_service_gateway``."""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.base import _SIM_CACHE, cache_get
from repro.service.admission import (
    DEFAULT_RETRY_AFTER_CAP_S,
    DEFAULT_RUN_SECONDS,
    AdmissionQueue,
    EWMA_ALPHA,
)
from repro.service.app import _WatchStreamGuard, Gateway
from repro.service.coalescer import Coalescer
from repro.service.schemas import SimRequest


@pytest.fixture(autouse=True)
def clean_state(isolated_run_state):
    yield


class TestCacheGetLRU:
    def test_hit_moves_entry_to_the_back(self):
        for key in ("a", "b", "c"):
            _SIM_CACHE[key] = f"result-{key}"
        assert cache_get("a") == "result-a"
        # Dict order is the eviction order: "a" is now the most recent.
        assert list(_SIM_CACHE) == ["b", "c", "a"]

    def test_miss_returns_none_without_reordering(self):
        _SIM_CACHE["a"] = "result-a"
        assert cache_get("nope") is None
        assert list(_SIM_CACHE) == ["a"]


class TestGatewayTrimIsLRU:
    def _gateway(self, limit):
        return Gateway(memory_cache_limit=limit)

    def test_recently_used_survives_the_trim(self):
        """The policy test the bugfix demands: a popular entry touched
        after colder ones must survive a trim that evicts by recency,
        and would *not* survive the old FIFO (insertion-order) trim."""
        gateway = self._gateway(limit=3)
        for key in ("old1", "old2", "hot", "new1", "new2"):
            _SIM_CACHE[key] = key
        assert cache_get("hot") == "hot"  # refresh: FIFO would ignore this
        gateway._trim_sim_cache()
        assert set(_SIM_CACHE) == {"new1", "new2", "hot"}

    def test_without_touches_trim_degrades_to_fifo(self):
        gateway = self._gateway(limit=2)
        for key in ("a", "b", "c", "d"):
            _SIM_CACHE[key] = key
        gateway._trim_sim_cache()
        assert set(_SIM_CACHE) == {"c", "d"}

    def test_under_limit_is_untouched(self):
        gateway = self._gateway(limit=10)
        _SIM_CACHE["a"] = "a"
        gateway._trim_sim_cache()
        assert list(_SIM_CACHE) == ["a"]


class _Stats:
    core_instructions = (1, 2)
    core_finish_cycles = (3, 4)

    def snapshot(self):
        return {"writes": 7}


class _Result:
    """Just enough of a SimResult for ``SimResponse.to_wire``; counts
    how often it is digested."""

    scheme = "fpb"
    workload = "tig_m"
    cycles = 100
    cpi = 1.5
    stats = _Stats()

    def __init__(self, digest):
        self.digest = digest
        self.digests = 0

    def result_fingerprint(self):
        self.digests += 1
        return self.digest


class TestWarmRepeatMemo:
    BODY = {"workload": "tig_m", "scheme": "fpb", "scale": "quick"}

    def test_equal_requests_share_one_run_request(self):
        first = SimRequest.from_wire(dict(self.BODY)).to_run_request()
        again = SimRequest.from_wire(dict(self.BODY)).to_run_request()
        other = SimRequest.from_wire(dict(self.BODY, seed=2))
        assert again is first
        assert other.to_run_request() is not first
        assert other.to_run_request().fingerprint != first.fingerprint

    def test_memory_wire_digests_a_result_once(self):
        gateway = Gateway()
        request = SimRequest.from_wire(dict(self.BODY))
        result = _Result("r1")
        first = gateway._memory_wire(request, "fp", result)
        again = gateway._memory_wire(request, "fp", result)
        assert again == first and again is not first
        assert first["source"] == "memory"
        assert first["result_fingerprint"] == "r1"
        assert result.digests == 1

    def test_a_new_result_object_is_digested_afresh(self):
        gateway = Gateway()
        request = SimRequest.from_wire(dict(self.BODY))
        gateway._memory_wire(request, "fp", _Result("r1"))
        wire = gateway._memory_wire(request, "fp", _Result("r2"))
        assert wire["result_fingerprint"] == "r2"

    def test_a_trim_drops_the_memo(self):
        gateway = Gateway(memory_cache_limit=1)
        request = SimRequest.from_wire(dict(self.BODY))
        result = _Result("r1")
        gateway._memory_wire(request, "fp", result)
        for key in ("a", "b"):
            _SIM_CACHE[key] = key
        gateway._trim_sim_cache()
        assert not gateway._wire_memo
        gateway._memory_wire(request, "fp", result)
        assert result.digests == 2


class TestAdmissionSampleHygiene:
    def test_positive_sample_folds_into_ewma(self):
        queue = AdmissionQueue(limit=4)
        queue.observe_run_seconds(10.0)
        expected = (DEFAULT_RUN_SECONDS
                    + EWMA_ALPHA * (10.0 - DEFAULT_RUN_SECONDS))
        assert queue.ewma_run_s == pytest.approx(expected)
        assert queue.ewma_rejected_samples == 0

    @pytest.mark.parametrize("bad", [0.0, -0.001, -5.0])
    def test_non_positive_sample_counted_not_folded(self, bad, caplog):
        queue = AdmissionQueue(limit=4)
        with caplog.at_level("WARNING", logger="repro.service.admission"):
            queue.observe_run_seconds(bad)
        assert queue.ewma_run_s == DEFAULT_RUN_SECONDS
        assert queue.ewma_rejected_samples == 1
        assert any("non-positive service-time sample" in rec.message
                   for rec in caplog.records)
        assert queue.snapshot()["ewma_rejected_samples"] == 1

    def test_rejected_sample_hook_fires(self):
        queue = AdmissionQueue(limit=4)
        fired = []
        queue.on_rejected_sample = lambda: fired.append(1)
        queue.observe_run_seconds(-1.0)
        queue.observe_run_seconds(1.0)
        assert fired == [1]

    def test_gateway_wires_the_rejection_counter(self):
        gateway = Gateway()
        gateway.admission.observe_run_seconds(-1.0)
        counters = gateway.registry.snapshot()["counters"]
        assert counters["service_ewma_rejected_samples"] == 1


class TestRetryAfterClamp:
    def test_small_backlog_estimate_passes_through(self):
        queue = AdmissionQueue(limit=8)
        # Empty queue, default EWMA prior: ceil(1 * 2.0 / 1) = 2 s.
        assert queue.retry_after_s() == 2
        assert queue.retry_after_clamped == 0

    def test_deep_backlog_is_clamped_to_the_cap(self):
        queue = AdmissionQueue(limit=8)
        queue.ewma_run_s = 3600.0  # an hour per run: "come back never"
        assert queue.retry_after_s() == DEFAULT_RETRY_AFTER_CAP_S
        assert queue.retry_after_clamped == 1
        snap = queue.snapshot()
        assert snap["retry_after_cap_s"] == DEFAULT_RETRY_AFTER_CAP_S
        assert snap["retry_after_clamped"] == 1

    def test_cap_is_configurable(self):
        queue = AdmissionQueue(limit=8, retry_after_cap_s=5)
        queue.ewma_run_s = 100.0
        assert queue.retry_after_s() == 5

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            AdmissionQueue(limit=8, retry_after_cap_s=0)


class TestCancelledWaiterAccounting:
    def test_abandon_decrements_waiters_and_counts(self):
        async def scenario():
            c = Coalescer()
            leader = c.lease("k")
            follower = c.lease("k")
            assert c.waiters("k") == 2
            c.abandon(follower)
            assert c.waiters("k") == 1
            assert c.cancelled_waiters == 1
            assert c.snapshot()["cancelled_waiters"] == 1
            leader.future.set_result(None)  # silence "never retrieved"

        asyncio.run(scenario())

    def test_abandon_after_resolution_is_a_noop(self):
        async def scenario():
            c = Coalescer()
            lease = c.lease("k")
            assert c.resolve("k", "result") == 1
            c.abandon(lease)  # late cancellation: entry already gone
            assert c.cancelled_waiters == 0

        asyncio.run(scenario())

    def test_abandon_never_touches_a_successor_entry(self):
        """A stale lease from a *previous* in-flight run of the same
        fingerprint must not corrupt the waiter count of the current
        one."""
        async def scenario():
            c = Coalescer()
            stale = c.lease("k")
            c.resolve("k", "first result")
            successor = c.lease("k")  # same key, new entry
            c.abandon(stale)
            assert c.waiters("k") == 1
            assert c.cancelled_waiters == 0
            successor.future.set_result(None)

        asyncio.run(scenario())

    def test_cancelled_wait_abandons_without_unshielding(self):
        """Cancelling one waiter's task removes it from the count but
        leaves the shared future running; the surviving waiter still
        gets the result."""
        async def scenario():
            c = Coalescer()
            leader = c.lease("k")
            follower = c.lease("k")
            task = asyncio.ensure_future(follower.wait())
            await asyncio.sleep(0)  # let the waiter reach the shield
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert not leader.future.cancelled()
            assert c.waiters("k") == 1
            assert c.cancelled_waiters == 1
            leader.future.set_result("result")
            assert await leader.wait() == "result"

        asyncio.run(scenario())


class StubWriter:
    """Just enough StreamWriter for the watch guard: records chunks,
    stalls on demand."""

    def __init__(self):
        self.stalled = False
        self.chunks = []

    def write(self, data: bytes) -> None:
        self.chunks.append(data)

    async def drain(self) -> None:
        if self.stalled:
            await asyncio.sleep(60)


class TestWatchStreamGuard:
    def test_healthy_writes_frame_chunks_and_keep_streak_zero(self):
        async def scenario():
            writer = StubWriter()
            guard = _WatchStreamGuard(writer, timeout_s=0.5, max_stalls=3)
            await guard.send({"event": "run"})
            assert guard.stalls == 0
            chunk = writer.chunks[0]
            size, _, rest = chunk.partition(b"\r\n")
            body = rest[: int(size, 16)]
            assert body.endswith(b"\n")
            assert b'"event": "run"' in body

        asyncio.run(scenario())

    def test_consecutive_stalls_drop_the_client(self):
        async def scenario():
            writer = StubWriter()
            writer.stalled = True
            drops = []
            guard = _WatchStreamGuard(
                writer, timeout_s=0.01, max_stalls=3,
                on_drop=lambda: drops.append(1))
            await guard.send({"n": 1})  # stall 1: tolerated
            await guard.send({"n": 2})  # stall 2: tolerated
            with pytest.raises(ConnectionError):
                await guard.send({"n": 3})  # stall 3: dropped
            assert drops == [1]

        asyncio.run(scenario())

    def test_one_successful_drain_resets_the_streak(self):
        async def scenario():
            writer = StubWriter()
            guard = _WatchStreamGuard(writer, timeout_s=0.01,
                                      max_stalls=2)
            writer.stalled = True
            await guard.send({"n": 1})
            assert guard.stalls == 1
            writer.stalled = False
            await guard.send({"n": 2})  # slow-but-alive client recovers
            assert guard.stalls == 0
            writer.stalled = True
            await guard.send({"n": 3})  # streak restarts from zero
            assert guard.stalls == 1

        asyncio.run(scenario())
