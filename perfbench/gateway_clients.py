"""Closed-loop client process of the ``gateway_mixed`` workload.

Two client connections, one thread each, run in this process so that
their work does not compete with the gateway for the benchmark
process's interpreter lock. Client 0 sends ``--cycles`` cycles of 24
warm repeats followed by one cold miss, and calibrates the host speed
(``common.SpeedTrack``) at the start and after each cycle while client 1
holds back; client 1 sends warm repeats until client 0 is done. Prints
one JSON line per request, in order of completion, with its latency
scaled to the reference host speed (``ms``), and a final line with the
clients' scaled window (``wall_s``) and the host-speed factor of each
cycle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import threading
import time

from common import SRC, Measurement, SpeedTrack
from gateway_mixed import (SCALE, WARM_PER_COLD, WARM_SET, canonical,
                           cold_seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True,
                        help="the CPU the gateway's event loop runs on")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, str(SRC))
    from repro.service.client import GatewayClient

    done = threading.Event()
    #: Held by client 1 for each request and by client 0 to calibrate,
    #: so that nothing is served while the host speed is measured.
    gate = threading.Lock()
    logs = [[], []]
    track = SpeedTrack(Measurement())

    def client(index: int) -> None:
        rng = random.Random(f"gateway_mixed:{args.seed}:{index}")
        gateway = GatewayClient("127.0.0.1", args.port, timeout_s=120.0)
        log = logs[index]

        def send(kind, workload, scheme, seed):
            entry = {"kind": kind, "key": [workload, scheme, seed],
                     "segment": track.segment}
            start = time.perf_counter()
            try:
                body = gateway.run(workload=workload, scheme=scheme,
                                   scale=SCALE, seed=seed)
            except Exception as exc:  # reported as a failed request
                entry["error"] = f"{type(exc).__name__}: {exc}"
            else:
                entry["result_fingerprint"] = body["result_fingerprint"]
                entry["digest"] = hashlib.sha256(
                    canonical(body).encode()).hexdigest()
            entry["end"] = time.perf_counter()
            entry["ms"] = (entry["end"] - start) * 1000.0
            log.append(entry)

        def send_warm():
            workload, scheme = rng.choice(WARM_SET)
            send("warm", workload, scheme, 1)

        if index == 0:
            try:
                for cycle in range(args.cycles):
                    for _ in range(WARM_PER_COLD):
                        send_warm()
                    workload, scheme = WARM_SET[cycle % len(WARM_SET)]
                    send("cold", workload, scheme, cold_seed(args.seed, cycle))
                    if cycle + 1 < args.cycles:
                        with gate:
                            track.calibrate()
            finally:
                done.set()
            with gate:
                track.calibrate()
        else:
            while True:
                with gate:
                    if done.is_set():
                        break
                    send_warm()

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out = sys.stdout
    for entry in sorted(logs[0] + logs[1], key=lambda entry: entry["end"]):
        entry["ms"] /= track.factor(entry.pop("segment"))
        out.write(json.dumps(entry) + "\n")
    wall = track.finish()
    out.write(json.dumps({"wall_s": wall, "speed": track.m.speed}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
