"""Measure the machine's current speed from a process of its own.

Usage: python3 perfbench/probe.py

Runs next to a worker. Every ``INTERVAL_S`` of wall time it times a fixed
piece of Python work, the probe, until its standard input closes; then it
prints a JSON list of ``[midpoint, seconds]`` pairs, one per probe, with the
midpoint on the system-wide monotonic clock. It prints ``ready`` first, once
it is about to take its first probe. The probes run on their own schedule
in their own interpreter, so what the measured program does (native or
interpreted work, garbage collection) does not change when or how they run.
"""

import gc
import json
import select
import sys
import time

INTERVAL_S = 0.05


def probe() -> float:
    """Seconds taken by a fixed piece of Python work.

    It allocates small objects and sorts them, because the program's
    interpreted loops slow down with the machine about as much as this does;
    an arithmetic-only loop slows down less.
    """
    start = time.perf_counter()
    rows = [(i, str(i), {"k": i}) for i in range(3_000)]
    rows.sort(key=lambda row: row[1])
    return time.perf_counter() - start


def main() -> int:
    gc.disable()
    samples = []
    print("ready", flush=True)
    tick = time.monotonic()
    while True:
        start = time.monotonic()
        seconds = probe()
        samples.append([start + seconds / 2, seconds])
        # A probe that overran its slot is not followed by one back to back.
        tick = max(tick + INTERVAL_S, time.monotonic() + INTERVAL_S / 2)
        if select.select([sys.stdin], [], [], max(0.0, tick - time.monotonic()))[0]:
            break  # the parent closed our standard input
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
