"""Workload ``explore_pool``: a design-space exploration on a worker pool.

Why it exists: an exploration is the repo's largest multi-run client.
The grid in ``explore_space.json`` crosses ``line_size`` (three trace
structures, so three batch cohorts) with ``dimm_tokens``,
``gcp_efficiency`` and ``mr_splits`` (54 points). It runs on the
reference kernel with ``jobs=2``, ``batching="auto"`` and a fresh disk
cache, so it stresses the cohort tier, the worker pool, pickling and
IPC, SimCache writes, the explore layer and reference-kernel write-op
planning (``kernel.plan``); it bypasses the gateway. The runs are
smaller than quick scale so that one session and its serial reference
fit in a benchmark run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List

from common import (HERE, Measurement, clear_memos, perf, repetitions,
                    speed_factor, speed_laps, time_warm)
from spans import Patches

SPACE = HERE / "explore_space.json"
#: Seed-1 frontier report, and result fingerprint of every point's run,
#: from a serial session (``jobs=1``, ``batching="off"``); rewrite both
#: with ``run.py --write-reference``.
REFERENCE = HERE / "explore_pool_frontier.json"
REFERENCE_RESULTS = HERE / "explore_pool_results.json"

WORKLOAD = "mix_1"
SCHEME = "fpb"
N_PCM_WRITES = 200
MAX_REFS_PER_CORE = 40_000
JOBS = 2
#: Host seconds of one cold session on a 2-vCPU host.
NOMINAL_S = 10.0
#: Warm re-runs of the session (every point a memo hit) after each cold
#: one, and how many of them run between two host-speed calibrations.
WARM_SESSIONS = 300
SESSIONS_PER_SPEED = 5


class ExplorePool:
    name = "explore_pool"

    def __init__(self, seed: int, tmp: Path):
        from repro.config.presets import baseline_config
        from repro.experiments.base import RunScale
        from repro.explore.space import space_from_dict

        self.seed = seed
        self.tmp = Path(tmp)
        self.space = space_from_dict(json.loads(SPACE.read_text()))
        self.scale = RunScale("perfbench", N_PCM_WRITES, MAX_REFS_PER_CORE,
                              (WORKLOAD,))
        self.config = baseline_config(seed=seed)
        self.points = self.space.grid_size()

    def settings(self, jobs: int, batching: str):
        from repro.explore.session import ExploreSettings

        return ExploreSettings(
            space=self.space, strategy="grid", budget_points=self.points,
            seed=self.seed, workload=WORKLOAD, scheme=SCHEME,
            scale=self.scale, jobs=jobs, batching=batching)

    def session(self, jobs: int, batching: str, journal_dir=None):
        """Run one session; return its frontier report as the text the
        CLI writes to ``<stem>.frontier.json``, and its failed points."""
        from repro.explore.session import ExploreSession, frontier_report

        session = ExploreSession(self.settings(jobs, batching), self.config,
                                 journal_dir=journal_dir)
        report = session.run()
        errors = sum(1 for point in report["points"]
                     if point["error"] is not None)
        return (json.dumps(frontier_report(report), sort_keys=True, indent=2)
                + "\n"), errors

    def requests(self):
        """The run request of every grid point that lowers."""
        from repro.experiments.base import RunRequest

        for point in self.space.grid_points():
            config, scheme = self.space.lower(point, self.config, SCHEME)
            yield RunRequest(config, WORKLOAD, scheme, self.scale)

    def prepare(self) -> None:
        clear_memos()

    def mark_driver(self, tracer) -> None:
        """This thread runs the timed operation."""
        tracer.mark_driver()

    def measure(self, seconds: float, m: Measurement) -> None:
        for _ in range(repetitions(seconds, NOMINAL_S)):
            self._once(m)

    def _once(self, m: Measurement) -> None:
        from repro.experiments.base import use_disk_cache
        from repro.sim.simcache import SimCache

        self.prepare()
        cache_dir = Path(tempfile.mkdtemp(prefix="explore-", dir=self.tmp))
        use_disk_cache(SimCache(cache_dir))
        journal = cache_dir / "explore"
        try:
            with Patches() as patches:
                _time_worker_runs(patches, cache_dir / "cold")
                start = perf()
                frontier, errors = self.session(JOBS, "auto", journal)
                wall = perf() - start
            workers = [[json.loads(line)
                        for line in path.read_text().splitlines()]
                       for path in (cache_dir / "cold").glob("*.ms")]
            m.attempted += self.points
            if errors:
                m.fail(errors, f"{errors} exploration point(s) failed")
            if not workers:
                if errors < self.points:
                    m.fail(self.points - errors, "no pool worker timed its "
                           "runs: workers were not forked from this "
                           "process")
            else:
                for run in itertools.chain.from_iterable(workers):
                    run["factor"] = speed_factor(run["before"], run["after"])
                    m.cold_ms.append(run["ms"] / run["factor"])
                    m.speed.append(run["factor"])
                # The session ends when its busiest worker does: scale
                # the wall, net of that worker's calibrations, by the
                # host speed over that worker's runs.
                busiest = max(workers,
                              key=lambda runs: sum(r["ms"] for r in runs))
                calibrating = sum(run["calibrating_s"] for run in busiest)
                m.aside_s += calibrating
                wall = ((wall - calibrating)
                        * sum(run["ms"] / run["factor"] for run in busiest)
                        / sum(run["ms"] for run in busiest))
            m.walls.append(wall)
            m.rates.append(self.points / wall)
            self._check(m, frontier, self.results())
            if not errors:
                # With a failed point a re-run would not be warm: the
                # engine dispatches failed points again.
                time_warm(m, lambda: self.session(JOBS, "auto")[0],
                          lambda again: again == frontier, WARM_SESSIONS,
                          SESSIONS_PER_SPEED)
        finally:
            use_disk_cache(None)
            shutil.rmtree(cache_dir, ignore_errors=True)

    def results(self) -> Dict[str, str]:
        """Run fingerprint -> result fingerprint of every point's run
        that resolved."""
        from repro.experiments.base import _SIM_CACHE

        return {request.fingerprint:
                _SIM_CACHE[request.fingerprint].result_fingerprint()
                for request in self.requests()
                if request.fingerprint in _SIM_CACHE}

    def _check(self, m: Measurement, frontier: str,
               results: Dict[str, str]) -> None:
        """Each session's frontier and point results against the first
        session's (and, in a traced run, the untraced run's)."""
        outputs = {"frontier": frontier, **results}
        wrong = sorted(key for key, value in outputs.items()
                       if m.outputs.setdefault(key, value) != value)
        if wrong:
            m.fail(len(wrong), f"{len(wrong)} output(s) differ between "
                               f"sessions")

    def reference_check(self, m: Measurement) -> None:
        """Seed 1: the committed serial frontier and point results.
        Other seeds: a serial session (``jobs=1``, ``batching="off"``, no
        disk cache) run now, outside the timed region."""
        from repro.errors import ReproError

        if self.seed == 1:
            frontier = REFERENCE.read_text()
            results = json.loads(REFERENCE_RESULTS.read_text())
        else:
            clear_memos()
            try:
                frontier, _ = self.session(1, "off")
                results = self.results()
            except ReproError as exc:
                m.fail(self.points, f"serial reference session failed: "
                                    f"{type(exc).__name__}: {exc}")
                return
            finally:
                clear_memos()
        if m.outputs.get("frontier") != frontier:
            m.fail(1, "frontier differs from the serial reference session")
        wrong = sum(1 for key, value in m.outputs.items()
                    if key != "frontier" and results.get(key) != value)
        if wrong:
            m.fail(wrong, f"{wrong} point result(s) differ from the serial "
                          f"reference session")

    def write_reference(self) -> Path:
        clear_memos()
        frontier, errors = self.session(1, "off")
        if errors:
            raise RuntimeError(f"{errors} point(s) failed")
        REFERENCE.write_text(frontier)
        REFERENCE_RESULTS.write_text(
            json.dumps(self.results(), sort_keys=True, indent=2) + "\n")
        return REFERENCE

    def close(self) -> None:
        pass


def _time_worker_runs(patches: Patches, spool: Path) -> None:
    """Time every run a pool worker computes, where it runs, and
    calibrate the host speed after it: workers are forked after this
    patch, and each appends one JSON line per run to ``<spool>/<pid>.ms``
    with the run's milliseconds, the calibration laps before and after
    it, and the host seconds spent calibrating."""
    from repro.experiments import engine

    spool.mkdir()
    worker_execute = engine._worker_execute
    last_laps: Dict[int, List[float]] = {}

    @functools.wraps(worker_execute)
    def timed_worker_execute(*args, **kwargs):
        pid = os.getpid()
        begin = perf()
        before = last_laps.get(pid) or speed_laps()
        calibrating = perf() - begin
        start = perf()
        outcome = worker_execute(*args, **kwargs)
        elapsed_ms = (perf() - start) * 1000.0
        begin = perf()
        last_laps[pid] = after = speed_laps()
        calibrating += perf() - begin
        with open(spool / f"{pid}.ms", "a") as out:
            out.write(json.dumps({"ms": elapsed_ms, "before": before,
                                  "after": after,
                                  "calibrating_s": calibrating}) + "\n")
        return outcome

    patches.function(worker_execute, timed_worker_execute)
