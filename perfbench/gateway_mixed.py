"""Workload ``gateway_mixed``: warm and cold ``/run`` traffic through the
HTTP gateway.

Why it exists: the gateway is how the simulator is served. An
in-process gateway (``jobs=1``, default batching, a temporary SimCache,
an ephemeral port) is driven by a closed loop of two client connections
from one client process (``gateway_clients.py``). Client 0 sends a cold
miss (a quick-scale run with a fresh seed) after every 24 warm repeats;
client 1 sends only warm repeats, so warm latency is measured while cold
dispatches are in flight. Warm repeats hit a primed set of quick-scale
seed-1 runs. It stresses the service layer, memory-cache lookups,
SimCache writes and the per-run supervisor tier (one worker pool per
cold dispatch); it bypasses cohort batching and the explore layer.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import HERE, ROOT, Measurement, clear_memos, golden_results

#: Scale of every request, warm and cold.
SCALE = "quick"
#: The warm set: quick-scale seed-1 runs of five named schemes on one
#: workload (one shared trace keeps priming short).
WARM_SET = tuple(("tig_m", scheme) for scheme in
                 ("dimm-only", "dimm+chip", "2xlocal", "fpb", "ideal"))
WARM_PER_COLD = 24
#: Closed-loop cycles per ``--seconds``: one cycle (24 warm repeats and
#: a cold miss) takes about 1.3 seconds on a 2-vCPU host.
SECONDS_PER_CYCLE = 1.25
KERNEL = "reference"  # the gateway's default for requests naming none
#: Longest the client process may take before the run fails.
CLIENT_TIMEOUT_S = 150.0


def cold_seed(seed: int, cycle: int) -> int:
    """The fresh simulation seed of client 0's ``cycle``-th cold miss."""
    digest = hashlib.sha256(f"gateway_mixed:{seed}:{cycle}".encode())
    return 2 + int(digest.hexdigest()[:8], 16) % (2 ** 31)


def canonical(body: Dict[str, object]) -> str:
    """A response without its provenance (memory/computed/...)."""
    return json.dumps({k: v for k, v in body.items() if k != "source"},
                      sort_keys=True)


class GatewayMixed:
    name = "gateway_mixed"

    def __init__(self, seed: int, tmp: Path):
        from repro.config.presets import baseline_config
        from repro.experiments.base import SCALES, RunRequest

        self.seed = seed
        self.tmp = Path(tmp)
        self.scale = SCALES[SCALE]
        self.warm = [RunRequest(baseline_config(seed=1), workload, scheme,
                                self.scale) for workload, scheme in WARM_SET]
        self.harness = None
        self.cache_dir: Optional[Path] = None
        #: Digest of the first response of each warm key; every repeat
        #: must match it.
        self.first_warm: Dict[str, str] = {}
        #: Result fingerprints of cold responses, by (workload, scheme,
        #: seed), for the serial reference check.
        self.cold: Dict[Tuple[str, str, int], List[str]] = {}
        self.service: Dict[str, float] = {}
        self.serve_cpu = min(os.sched_getaffinity(0))

    def prepare(self) -> None:
        """Start a fresh gateway on an ephemeral port with an empty
        SimCache and cold memos, then prime the warm set into it."""
        from repro.experiments.base import fetch, use_disk_cache
        from repro.service.testing import GatewayHarness
        from repro.sim.simcache import SimCache

        self.close()
        clear_memos()
        self.cache_dir = Path(tempfile.mkdtemp(prefix="gateway-",
                                               dir=self.tmp))
        cache = SimCache(self.cache_dir)
        use_disk_cache(cache)
        self.harness = GatewayHarness(jobs=1, cache=cache).start()
        self.harness.submit(self._place_threads()).result(timeout=30.0)
        for request in self.warm:
            fetch(request)

    async def _place_threads(self) -> None:
        """Keep the serving path (the gateway's event loop and the client
        process) on one CPU and the simulation workers on another, so
        the scheduler never time-slices a warm request against a cold
        simulation."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return
        # The dispatcher's engine calls run on the loop's default
        # executor thread, which this creates; workers fork from it.
        await asyncio.to_thread(os.sched_setaffinity, 0, {cpus[-1]})
        os.sched_setaffinity(0, {self.serve_cpu})

    def mark_driver(self, tracer) -> None:
        """Attribute the gateway's event-loop thread, which serves every
        request, as the traced run's driver."""
        async def mark():
            tracer.mark_driver()

        self.harness.submit(mark()).result(timeout=30.0)

    def measure(self, seconds: float, m: Measurement) -> None:
        from repro.trace.generator import clear_trace_cache

        if self.harness is None:
            self.prepare()
        # Priming memoized the warm set's trace; serving needs only the
        # results.
        clear_trace_cache()
        cycles = max(1, round(seconds / SECONDS_PER_CYCLE))
        clients = subprocess.run(
            [sys.executable, str(HERE / "gateway_clients.py"),
             "--port", str(self.harness.port), "--seed", str(self.seed),
             "--cycles", str(cycles),
             "--cpu", str(self.serve_cpu)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CLIENT_TIMEOUT_S)
        self._read_service_counters()
        self.close()
        if clients.returncode != 0:
            m.fail(1, f"client process exited with {clients.returncode}: "
                      f"{clients.stderr.strip()[-500:]}")
            m.attempted += 1
            return
        lines = [json.loads(line) for line in clients.stdout.splitlines()]
        window = lines.pop()
        wall = window["wall_s"]
        m.speed += window["speed"]
        m.walls.append(wall)
        m.rates.append(len(lines) / wall)
        self._check(m, lines)

    def _read_service_counters(self) -> None:
        counters = self.harness.client().metrics()["metrics"]["counters"]
        self.service = {
            "hit_memory": counters.get("service_hits_memory", 0),
            "hit_disk": counters.get("service_hits_disk", 0),
            "computed": counters.get("service_runs_computed", 0),
            "coalesced": counters.get("service_coalesced_total", 0),
            "rejected": (counters.get("service_rejected_busy", 0)
                         + counters.get("service_rejected_invalid", 0)),
        }

    def _check(self, m: Measurement, log: List[dict]) -> None:
        golden = golden_results(KERNEL)
        warm_keys = {(r.workload, r.scheme): r.fingerprint for r in self.warm}
        for entry in log:
            m.attempted += 1
            kind, key = entry["kind"], tuple(entry["key"])
            if "error" in entry:
                m.fail(1, f"{kind} /run failed: {entry['error']}")
                continue
            label = "/".join(map(str, key))
            fingerprint = entry["result_fingerprint"]
            m.outputs[label] = fingerprint
            if kind == "cold":
                m.cold_ms.append(entry["ms"])
                self.cold.setdefault(key, []).append(fingerprint)
                continue
            m.warm_ms.append(entry["ms"])
            first = self.first_warm.setdefault(label, entry["digest"])
            if first != entry["digest"]:
                m.fail(1, f"warm response for {label} differs from the "
                          f"first one")
            elif golden.get(warm_keys[key[:2]]) != fingerprint:
                m.fail(1, f"warm response for {label} differs from the "
                          f"golden corpus")

    def reference_check(self, m: Measurement) -> None:
        """Recompute every cold miss serially in this process, outside
        the timed region, bypassing every cache."""
        from repro.config.presets import baseline_config
        from repro.errors import ReproError
        from repro.experiments.base import RunRequest, execute_request

        for (workload, scheme, seed), seen in sorted(self.cold.items()):
            request = RunRequest(baseline_config(seed=seed), workload,
                                 scheme, self.scale)
            try:
                expected = execute_request(request).result_fingerprint()
            except ReproError as exc:
                m.fail(len(seen), f"serial recomputation of cold "
                                  f"{workload}/{scheme}/seed={seed} failed: "
                                  f"{type(exc).__name__}: {exc}")
                continue
            wrong = sum(1 for value in seen if value != expected)
            if wrong:
                m.fail(wrong, f"cold {workload}/{scheme}/seed={seed} "
                              f"differs from its serial recomputation")

    def close(self) -> None:
        from repro.experiments.base import use_disk_cache

        if self.harness is not None:
            self.harness.stop()
            self.harness = None
        use_disk_cache(None)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
