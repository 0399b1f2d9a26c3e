"""Shared pieces of the benchmark: paths, statistics, the run-request
stopwatch, reference fingerprints and the result record."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from spans import Patches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "paper" / "golden_fingerprints.json"

perf = time.perf_counter


@dataclass
class Measurement:
    """What one workload measured, and what its checks found. Times are
    scaled to the reference host speed (:class:`SpeedTrack`)."""

    #: Seconds of each repetition of the timed operation.
    walls: List[float] = field(default_factory=list)
    #: Milliseconds per cold / warm run request.
    cold_ms: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    #: Run requests resolved per second by each timed operation.
    rates: List[float] = field(default_factory=list)
    #: Every host-speed factor calibrated while measuring.
    speed: List[float] = field(default_factory=list)
    #: Host seconds spent on warm requests and speed calibration, which
    #: the traced run's wall time leaves out.
    aside_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Checked outputs, keyed by what produced them (run fingerprint,
    #: request, ...), for comparing a traced run with an untraced one.
    outputs: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)


#: The host-speed loop: passes per lap, laps per calibration, and the
#: median lap's seconds on the reference host (a 2-vCPU shared host in
#: its fast state).
SPEED_PASSES = 4
SPEED_LAPS = 3
SPEED_REFERENCE_S = 0.0024
#: The loop's input: a fixed tree of the kinds of values a run
#: configuration holds.
_SPEED_TREE = {
    f"field{i}": [i / 7.0, {"count": i, "name": str(i),
                            "pair": (i * 0.5, i + 1)},
                  [j * 1.5 for j in range(6)]]
    for i in range(60)}


def _canonical(value):
    if isinstance(value, dict):
        return tuple(sorted((str(key), _canonical(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def speed_laps() -> List[float]:
    """Seconds of each of :data:`SPEED_LAPS` laps of a fixed loop of
    Python object work: canonicalising, printing and hashing a tree of
    configuration-like values, as the simulator's request fingerprints
    do. The loop runs the benchmark's own code, so a change to the
    simulator cannot move it."""
    laps = []
    for _ in range(SPEED_LAPS):
        start = perf()
        for _ in range(SPEED_PASSES):
            hashlib.sha256(repr(_canonical(_SPEED_TREE)).encode()).digest()
        laps.append(perf() - start)
    return laps


def speed_factor(*calibrations: List[float]) -> float:
    """How many times slower than the reference host the host ran
    between ``calibrations`` (lap lists of :func:`speed_laps`): the mean
    of their median laps over the reference lap.

    The laps are Python object work because on a busy host an
    arithmetic loop slows down less than the simulator does, and this
    loop about as much."""
    medians = [sorted(laps)[len(laps) // 2] for laps in calibrations]
    return sum(medians) / len(medians) / SPEED_REFERENCE_S


class SpeedTrack:
    """Host-speed calibrations interleaved with a timed operation, which
    scale its times to the reference host speed.

    A shared host runs faster or slower, by up to about 1.5x either way,
    for seconds to minutes at a time, and a raw time follows the host
    more than the program. Each :meth:`calibrate` ends a segment of the
    operation; a time measured in segment ``k`` is divided by the
    :func:`speed_factor` of the calibrations at its two ends. Work done
    :meth:`aside` (the calibrations themselves, for one) is left out of
    the segments' work."""

    def __init__(self, m: Measurement):
        self.m = m
        start = perf()
        #: Lap lists of every calibration, in order.
        self.laps = [speed_laps()]
        m.aside_s += perf() - start
        #: Host seconds of work in each closed segment.
        self.work: List[float] = []
        #: (series, raw value, segment) of every sample taken.
        self.samples: List[tuple] = []
        self.mark = perf()

    @property
    def segment(self) -> int:
        """The open segment."""
        return len(self.laps) - 1

    @contextlib.contextmanager
    def aside(self):
        """Leave the host time of the block out of the open segment."""
        start = perf()
        try:
            yield
        finally:
            spent = perf() - start
            self.mark += spent
            self.m.aside_s += spent

    def calibrate(self) -> None:
        """Close the open segment and calibrate the host speed."""
        now = perf()
        self.work.append(now - self.mark)
        self.mark = now
        with self.aside():
            self.laps.append(speed_laps())

    def sample(self, series: List[float], value: float) -> None:
        """Append ``value``, measured in the open segment, to ``series``
        once :meth:`finish` scales it."""
        self.samples.append((series, value, self.segment))

    def factor(self, segment: int) -> float:
        return speed_factor(self.laps[segment], self.laps[segment + 1])

    def finish(self) -> float:
        """Scale every sample into its series, in the order taken, and
        return the closed segments' scaled seconds of work. Call it
        after the last :meth:`calibrate`."""
        for series, value, segment in self.samples:
            series.append(value / self.factor(segment))
        self.samples.clear()
        factors = [self.factor(segment) for segment in range(len(self.work))]
        self.m.speed += factors
        return sum(work / factor for work, factor in zip(self.work, factors))


def median(values: List[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]); 0 when a
    run that failed left no samples."""
    ordered = sorted(values)
    if len(ordered) <= 1:
        return ordered[0] if ordered else 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Percentiles the report considers, highest last.
REPORT_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def reportable_percentile(n: int) -> Optional[float]:
    """The highest report percentile with at least ten samples beyond
    it, or ``None`` when even the median has fewer."""
    best = None
    for pct in REPORT_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


#: Warm latency percentiles are taken per block of this many consecutive
#: requests (see :func:`block_percentile`).
WARM_BLOCK = 100


def block_percentile(values: List[float], pct: float) -> float:
    """The median, over consecutive blocks of :data:`WARM_BLOCK` samples
    taken in time order, of each block's ``pct`` percentile (the short
    last block joins the one before it).

    On a shared host a few milliseconds are now and then taken from the
    benchmark at random. Where a percentile of all the samples moves
    with how often that happened during the run, the median block's
    percentile moves only when it happened throughout."""
    if len(values) < 2 * WARM_BLOCK:
        return percentile(values, pct)
    starts = range(0, len(values) - WARM_BLOCK + 1, WARM_BLOCK)
    ends = list(starts[1:]) + [len(values)]
    return median([percentile(values[begin:end], pct)
                   for begin, end in zip(starts, ends)])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished
    child (pool workers and set-up probes), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def golden_results(kernel: str) -> Dict[str, str]:
    """Committed seed-1 corpus: run fingerprint under ``kernel`` ->
    expected result fingerprint."""
    corpus = json.loads(GOLDEN.read_text())
    return {entry["run_fingerprints"][kernel]: entry["result_fingerprint"]
            for entry in corpus["runs"]}


def time_cold_fetches(patches: Patches, track: SpeedTrack) -> None:
    """Time every successful run acquisition through ``repro.
    experiments.base.fetch`` — the library's single entry point for
    resolving a run request — that had to simulate (a memo miss), and
    calibrate the host speed after each."""
    from repro.experiments import base

    fetch = base.fetch
    memo = base._SIM_CACHE

    @functools.wraps(fetch)
    def timed_fetch(request):
        if request.fingerprint in memo:
            return fetch(request)
        start = perf()
        result = fetch(request)  # a failed request leaves no latency
        track.sample(track.m.cold_ms, (perf() - start) * 1000.0)
        track.calibrate()
        return result

    patches.function(fetch, timed_fetch)


def time_warm(m: Measurement, request: Callable[[], object],
              matches: Callable[[object], bool], count: int,
              per_speed: int) -> None:
    """Send a warm request — one whose every run is already resolved —
    ``count`` times, timing each, calibrating the host speed after every
    ``per_speed`` of them, and counting a result that does not
    ``match`` as a failed request. None of this is part of the timed
    operation's wall time."""
    track = SpeedTrack(m)
    wrong = 0
    for done in range(1, count + 1):
        start = perf()
        result = request()
        track.sample(m.warm_ms, (perf() - start) * 1000.0)
        wrong += not matches(result)
        if done % per_speed == 0 or done == count:
            track.calibrate()
    track.finish()
    m.aside_s += sum(track.work)
    m.attempted += count
    if wrong:
        m.fail(wrong, f"{wrong} warm request(s) differ from the cold one")


def clear_memos() -> None:
    """Cold in-memory memos: no cached runs, traces or failure verdicts."""
    from repro.experiments.base import clear_failed_runs, clear_sim_cache
    from repro.trace.generator import clear_trace_cache

    clear_sim_cache()
    clear_trace_cache()
    clear_failed_runs()


def repetitions(seconds: float, nominal_s: float) -> int:
    """How many repetitions of an operation that takes about
    ``nominal_s`` fill ``seconds``: at least one, and never dependent on
    how fast this run happens to be."""
    return max(1, round(seconds / nominal_s))
