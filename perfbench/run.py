"""The repo benchmark: end-to-end host time of three workloads, and a
traced run that attributes host time to the simulator's layers.

Run from the repository root::

    python3 perfbench/run.py --workload fig16_cold --seed 1 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once untraced and once under the span
tracer and reports the per-layer metrics. Either way a table goes to
standard error and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Every run checks the
simulated results (see each workload's module) and counts a failed check
as a failed operation. The metric definitions and bounds are in
``BENCHMARK.json`` at the repository root.

Workloads are ``fig16_cold``, ``explore_pool`` and ``gateway_mixed``
(one module each in this directory, which says why the workload exists
and which layers it stresses and bypasses). Each views its work as run
requests: a request is *cold* when it has to simulate and *warm* when a
memo or cache answers it.

End-to-end metrics, host time throughout, scaled to a reference host
speed. A shared host runs faster or slower, by up to about 1.5x, for
seconds to minutes at a time, so every timing is divided by a host-speed
factor that fixed laps of Python object work, run by the benchmark
between the pieces it times, measure (``common.SpeedTrack``); the table
on standard error shows the factors seen:

* ``setup_s`` — median time for a fresh interpreter to import the
  package and build the workload's configuration (five probes), plus,
  for ``gateway_mixed``, starting the gateway and priming its warm set;
* ``wall_s`` — median seconds of the timed operation: one Figure 16
  reproduction, one exploration session, or the gateway clients'
  request schedule;
* ``peak_rss_mb`` — peak RSS of this process plus its largest child;
* ``cold_p50_ms`` — median time to compute one simulation run: each
  cold ``fetch`` in ``fig16_cold``, each run in a pool worker in
  ``explore_pool``, each cold ``/run`` as its client sees it in
  ``gateway_mixed``;
* ``warm_p50_ms`` / ``warm_p99_ms`` — latency of a request whose every
  run is resolved: a re-render of Figure 16 (600 after each cold one), a
  re-run of the exploration session (300 after each cold one), a warm
  ``/run`` in ``gateway_mixed``. The p99 is the median over blocks of
  100 consecutive requests of each block's p99 (see
  ``common.block_percentile``);
* ``requests_per_s`` — runs simulated per second of the timed
  operation (``fig16_cold``, ``explore_pool``), or ``/run`` responses
  per second (``gateway_mixed``).

Nothing is written outside a temporary directory under the checkout,
which is removed at exit. Pool workers must be forked (the traced run
and ``explore_pool``'s worker timings rely on it), so the benchmark
refuses to run where ``fork`` is not the default start method.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import List

from common import ROOT, SRC


WORKLOADS = ("fig16_cold", "explore_pool", "gateway_mixed")
SETUP_PROBES = 5


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def load_workload(name: str, seed: int, tmp: Path):
    if name == "fig16_cold":
        from fig16_cold import Fig16Cold as cls
    elif name == "explore_pool":
        from explore_pool import ExplorePool as cls
    else:
        from gateway_mixed import GatewayMixed as cls
    return cls(seed, tmp)


def probe_setup(name: str, seed: int, m) -> List[float]:
    """Seconds for a fresh interpreter to import the package and build
    the workload's configuration, :data:`SETUP_PROBES` times, scaled to
    the reference host speed."""
    from common import SpeedTrack, perf

    samples: List[float] = []
    track = SpeedTrack(m)
    for _ in range(SETUP_PROBES):
        start = perf()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--probe-setup"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        track.sample(samples, perf() - start)
        track.calibrate()
    track.finish()
    return samples


def end_to_end(measurement, setup_samples, extra_setup):
    from common import block_percentile, median, peak_rss_mb

    m = measurement
    samples = {
        "setup_s": [s + extra_setup for s in setup_samples],
        "wall_s": m.walls,
        "warm_p50_ms": m.warm_ms,
        "warm_p99_ms": m.warm_ms,
        "cold_p50_ms": m.cold_ms,
        "requests_per_s": m.rates,
    }
    values = {
        "setup_s": median(samples["setup_s"]),
        "wall_s": median(m.walls),
        "peak_rss_mb": peak_rss_mb(),
        "warm_p50_ms": median(m.warm_ms),
        "warm_p99_ms": block_percentile(m.warm_ms, 99.0),
        "cold_p50_ms": median(m.cold_ms),
        "requests_per_s": median(m.rates),
    }
    return values, samples


def print_end_to_end(values, samples, m, workload) -> None:
    from common import median, percentile, reportable_percentile

    units = metric_units("end_to_end")
    verdict = "ok" if m.failed == 0 else f"FAILED ({m.failed})"
    out = sys.stderr
    print(f"\n{workload.name}: end-to-end (tracing off)", file=out)
    print(f"{'metric':<16} {'unit':<4} {'value':>11} {'median':>11} "
          f"{'tail':>16} {'n':>5}  check", file=out)
    for name, value in values.items():
        series = samples.get(name, [value])
        pct = reportable_percentile(len(series))
        tail = (f"p{pct:g}={percentile(series, pct):.4g}"
                if pct is not None and pct > 50 else "-")
        print(f"{name:<16} {units[name]:<4} {value:>11.4f} "
              f"{median(series):>11.4f} {tail:>16} {len(series):>5}  "
              f"{verdict}", file=out)
    print(f"requests: {m.attempted} attempted, {m.failed} failed", file=out)
    print(f"host speed (times slower than the reference host): median "
          f"{median(m.speed):.3f}, range {min(m.speed):.3f}-"
          f"{max(m.speed):.3f} over {len(m.speed)} calibrations", file=out)
    for note, times in Counter(m.notes).items():
        print(f"  check failed {times}x: {note}", file=out)
    accuracy = getattr(workload, "accuracy", lambda: [])()
    if accuracy:
        print("\nFigure 16 accuracy — error against the paper's reported "
              "figure, not against hardware (not gated):", file=out)
        for claim, simulated, paper in accuracy:
            print(f"  {claim:<24} simulated {simulated:+.3f}  paper "
                  f"{paper:+.3f}  error {simulated - paper:+.3f}", file=out)


def print_per_layer(collected, metrics, workload) -> None:
    out = sys.stderr
    print(f"\n{workload.name}: per-layer self time (traced run)", file=out)
    print(f"{'span':<28} {'self_s':>10} {'calls':>10} {'total_s':>10}",
          file=out)
    spans = sorted(collected["spans"].items(), key=lambda kv: -kv[1][0])
    for name, (self_s, calls, total) in spans:
        print(f"{name:<28} {self_s:>10.4f} {int(calls):>10} {total:>10.4f}",
              file=out)
    for name in ("bench.unattributed_ratio", "bench.trace_overhead_ratio"):
        print(f"{name:<28} {metrics[name]:>10.4f}", file=out)
    print(f"worker processes: {collected['worker_processes']}, worker busy "
          f"{collected['worker_busy_s']:.3f} s", file=out)


def measure_traced(workload, seconds: float, tmp: Path):
    """One untraced and one traced run; the per-layer metrics."""
    import layers
    from common import Measurement, perf
    from spans import SpanTracer

    # fig16_cold and explore_pool: one repetition each; gateway_mixed:
    # the client schedule of an untraced run.
    seconds = seconds if workload.name == "gateway_mixed" else 0
    untraced = Measurement()
    start = perf()
    workload.measure(seconds, untraced)
    untraced_wall = perf() - start - untraced.aside_s
    workload.prepare()
    tracer = SpanTracer(tmp / "spans")
    traced = Measurement()
    try:
        layers.install(tracer)
        workload.mark_driver(tracer)
        start = perf()
        workload.measure(seconds, traced)
        traced_wall = perf() - start - traced.aside_s
    finally:
        tracer.patches.restore()
    collected = tracer.collect()
    collected["still_patched"] = tracer.patches.still_patched()
    if workload.name == "gateway_mixed":
        # The clients' window, which client 0's fixed schedule bounds;
        # outside it the gateway restarts and primes untraced.
        untraced_wall = untraced.walls[0]
        traced_wall = traced.walls[0]
    metrics = layers.per_layer_metrics(
        collected, traced_wall, untraced_wall,
        service=getattr(workload, "service", None))
    differing = sum(1 for key, value in untraced.outputs.items()
                    if traced.outputs.get(key, value) != value)
    if differing:
        untraced.fail(differing,
                      "traced run's results differ from the untraced run's")
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.notes += traced.notes
    return untraced, collected, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite explore_pool's seed-1 reference "
                             "frontier and point results from a serial "
                             "session, and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if multiprocessing.get_start_method() != "fork":
        print("perfbench: pool workers must be forked, and this platform "
              f"starts them with {multiprocessing.get_start_method()!r}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Library code that asks for a temporary directory stays in it too.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    workload = None
    try:
        if args.probe_setup:
            load_workload(args.workload, args.seed, tmp)
            return 0
        if args.write_reference:
            path = load_workload("explore_pool", 1, tmp).write_reference()
            print(f"wrote {path}", file=sys.stderr)
            return 0

        from common import Measurement, SpeedTrack
        from spans import import_repro

        import_repro()
        workload = load_workload(args.workload, args.seed, tmp)
        if args.trace:
            m, collected, metrics = measure_traced(workload, args.seconds,
                                                   tmp)
            if collected["still_patched"]:
                m.fail(1, "span wrappers left installed: "
                          + ", ".join(collected["still_patched"]))
            workload.reference_check(m)
            print_per_layer(collected, metrics, workload)
            units = metric_units("per_layer")
        else:
            m = Measurement()
            setup_samples = probe_setup(args.workload, args.seed, m)
            # Only the gateway has set-up beyond imports and configuration.
            track = SpeedTrack(m)
            workload.prepare()
            track.calibrate()
            extra_setup = (track.finish()
                           if args.workload == "gateway_mixed" else 0.0)
            workload.measure(args.seconds, m)
            # Before the reference check, which is not part of the
            # measured work and may grow this process.
            metrics, samples = end_to_end(m, setup_samples, extra_setup)
            workload.reference_check(m)
            print_end_to_end(metrics, samples, m, workload)
            units = metric_units("end_to_end")
        result = {
            "correct": m.failed == 0,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
